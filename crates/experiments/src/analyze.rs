//! Offline delivery-forensics analyzer (the `analyze` subcommand).
//!
//! Reads a `--trace-out` JSONL file, reconstructs each traced event's
//! dissemination tree from its `pub_event`/`fwd`/`deliver_event` records,
//! and prints per-run summaries: tree shape, hop and latency percentiles,
//! and the loss-attribution breakdown (`drop_event` records), checking
//! that the per-reason counts sum exactly to `expected - delivered`.
//! Optionally exports the per-topic dissemination trees as Graphviz DOT.
//!
//! The record schema is documented in `docs/METRICS.md` §7.

use crate::obs::RunRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use vitis_sim::metrics::Histogram;
use vitis_sim::record::{parse_value, read_record, ParseError, Value};
use vitis_sim::trace::TraceEvent;

/// One first-arrival delivery of an event at a subscriber.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Subscriber's engine slot.
    pub node: u32,
    /// Hops travelled by the first copy to arrive.
    pub hops: u32,
    /// Publish-to-arrival latency in ticks.
    pub latency: u64,
    /// `>`-joined causal path from publisher to subscriber.
    pub path: String,
    /// Whether the first copy arrived through the anti-entropy repair
    /// layer rather than the protocol's own dissemination.
    pub recovered: bool,
}

/// One event's reconstructed dissemination record.
#[derive(Clone, Debug, Default)]
pub struct EventTrace {
    /// Topic id (from the `pub_event` record; absent if that record was
    /// evicted from the ring buffer).
    pub topic: Option<u64>,
    /// Publisher's engine slot.
    pub publisher: Option<u32>,
    /// Publish time in ticks.
    pub published_at: Option<u64>,
    /// Expected `(event, subscriber)` deliveries.
    pub expected: u64,
    /// Forward edges `(from, to, hop)` in record order.
    pub fwds: Vec<(u32, u32, u32)>,
    /// First-arrival deliveries.
    pub delivers: Vec<Delivery>,
    /// Attributed losses `(subscriber, reason)`.
    pub drops: Vec<(u32, String)>,
    /// Copies of this event lost in transit (`net_drop` records). Lost
    /// copies are not misses — they never count against
    /// `expected - delivered`; a miss they caused shows up in `drops`
    /// with reason `network`.
    pub net_drops: u64,
}

/// Everything reconstructed for one run id.
#[derive(Clone, Debug, Default)]
pub struct RunForensics {
    /// Per-event records keyed by event id.
    pub events: BTreeMap<u64, EventTrace>,
    /// `(capacity, recorded, evicted)` from the run's `trace_meta`
    /// record; `evicted > 0` means the forensics below are incomplete.
    pub meta: Option<(u64, u64, u64)>,
    /// Reconvergence records `(system, severity %, repair on, rounds)`;
    /// `rounds` is `None` for runs that never re-entered the band.
    pub reconv: Vec<(String, u32, bool, Option<u64>)>,
}

/// A parsed trace file: per-run forensics plus parse accounting.
#[derive(Clone, Debug, Default)]
pub struct TraceFile {
    /// Forensics grouped by run stamp (unstamped lines group under `""`).
    pub runs: BTreeMap<String, RunForensics>,
    /// Non-empty lines read.
    pub lines: u64,
    /// Lines that failed to parse as a record of any sink.
    pub skipped: u64,
    /// Well-formed records that carry no forensic payload (round
    /// boundaries, samples, health probes, ... and `--metrics-out`'s
    /// `run` records).
    pub other_events: u64,
}

/// Parse a JSONL dump — a trace, or any other file this binary writes —
/// into grouped per-event forensics. Malformed lines are counted in
/// [`TraceFile::skipped`], never fatal.
pub fn parse_trace(text: &str) -> TraceFile {
    let mut tf = TraceFile::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        tf.lines += 1;
        // Anything but an object has no `"type"`, and fails the read below.
        let o = parse_value(line).unwrap_or(Value::Null);
        let ev = match read_record::<TraceEvent>(&o) {
            Ok(ev) => ev,
            // A well-formed `run` record of `--metrics-out`.
            Err(ParseError::UnknownType(_)) if read_record::<RunRecord>(&o).is_ok() => {
                tf.other_events += 1;
                continue;
            }
            Err(_) => {
                tf.skipped += 1;
                continue;
            }
        };
        let run = o.get("run").and_then(Value::as_str).unwrap_or_default();
        let rf = tf.runs.entry(run.to_string()).or_default();
        match ev {
            TraceEvent::PubEvent {
                now,
                event,
                topic,
                node,
                expected,
            } => {
                let e = rf.events.entry(event).or_default();
                e.topic = Some(topic);
                e.publisher = Some(node);
                e.published_at = Some(now);
                e.expected = expected;
            }
            TraceEvent::Fwd {
                event,
                from,
                to,
                hop,
                ..
            } => rf
                .events
                .entry(event)
                .or_default()
                .fwds
                .push((from, to, hop)),
            TraceEvent::DeliverEvent {
                event,
                node,
                hops,
                latency,
                path,
                recovered,
                ..
            } => rf.events.entry(event).or_default().delivers.push(Delivery {
                node,
                hops,
                latency,
                path,
                recovered,
            }),
            TraceEvent::DropEvent {
                event,
                node,
                reason,
                ..
            } => rf
                .events
                .entry(event)
                .or_default()
                .drops
                .push((node, reason.into_owned())),
            TraceEvent::NetDrop {
                event: Some(event), ..
            } => rf.events.entry(event).or_default().net_drops += 1,
            // Control-plane copies carry no event id; nothing to pin the
            // drop to.
            TraceEvent::NetDrop { event: None, .. } => tf.other_events += 1,
            TraceEvent::TraceMeta {
                capacity,
                recorded,
                evicted,
            } => rf.meta = Some((capacity, recorded, evicted)),
            TraceEvent::Reconv {
                system,
                severity_pct,
                repair,
                rounds,
            } => rf
                .reconv
                .push((system.into_owned(), severity_pct, repair, rounds)),
            _ => tf.other_events += 1,
        }
    }
    tf
}

/// Tree edges `(parent, child)` implied by the causal delivery paths of
/// one event (consecutive path pairs, deduplicated).
pub fn tree_edges(e: &EventTrace) -> BTreeSet<(u32, u32)> {
    let mut edges = BTreeSet::new();
    for d in &e.delivers {
        let slots: Vec<u32> = d.path.split('>').filter_map(|s| s.parse().ok()).collect();
        for w in slots.windows(2) {
            edges.insert((w[0], w[1]));
        }
    }
    edges
}

/// Render the human-readable forensics report.
pub fn report(tf: &TraceFile) -> String {
    let mut o = String::new();
    let total_events: usize = tf.runs.values().map(|r| r.events.len()).sum();
    let _ = writeln!(
        o,
        "# delivery forensics — {} run(s), {} traced event(s), {} line(s) read, {} unparsable",
        tf.runs.len(),
        total_events,
        tf.lines,
        tf.skipped
    );
    for (run, rf) in &tf.runs {
        let name = if run.is_empty() { "(unstamped)" } else { run };
        let _ = writeln!(o, "\n## run {name}");
        if let Some((cap, recorded, evicted)) = rf.meta {
            if evicted > 0 {
                let _ = writeln!(
                    o,
                    "WARNING: ring buffer evicted {evicted} of {recorded} events \
                     (capacity {cap}) — forensics below are incomplete"
                );
            }
        }
        let expected: u64 = rf.events.values().map(|e| e.expected).sum();
        let delivered: u64 = rf.events.values().map(|e| e.delivers.len() as u64).sum();
        let dropped: u64 = rf.events.values().map(|e| e.drops.len() as u64).sum();
        let fwds: u64 = rf.events.values().map(|e| e.fwds.len() as u64).sum();
        let _ = writeln!(
            o,
            "events {}  expected {expected}  delivered {delivered}  dropped {dropped}  forwards {fwds}",
            rf.events.len()
        );
        let net_drops: u64 = rf.events.values().map(|e| e.net_drops).sum();
        if net_drops > 0 {
            let _ = writeln!(
                o,
                "in-transit drops: {net_drops} lost cop(ies) — informational; \
                 resulting misses appear under reason `network`"
            );
        }
        let recovered: u64 = rf
            .events
            .values()
            .map(|e| e.delivers.iter().filter(|d| d.recovered).count() as u64)
            .sum();
        if recovered > 0 {
            let _ = writeln!(
                o,
                "recovered deliveries: {recovered} of {delivered} arrived through \
                 the anti-entropy repair layer"
            );
        }
        for (system, severity_pct, repair, rounds) in &rf.reconv {
            let ae = if *repair { "repair on" } else { "repair off" };
            match rounds {
                Some(r) => {
                    let _ = writeln!(
                        o,
                        "reconvergence: {system} at {severity_pct}% isolated ({ae}) — {r} round(s)"
                    );
                }
                None => {
                    let _ = writeln!(
                        o,
                        "reconvergence: {system} at {severity_pct}% isolated ({ae}) — UNRECOVERED \
                         within the observation window"
                    );
                }
            }
        }

        // Delivery-tree shape over all reconstructed events.
        let (mut edges, mut depth) = (0usize, 0usize);
        for e in rf.events.values() {
            edges += tree_edges(e).len();
            depth = depth.max(
                e.delivers
                    .iter()
                    .map(|d| d.path.split('>').count().saturating_sub(1))
                    .max()
                    .unwrap_or(0),
            );
        }
        let _ = writeln!(o, "trees: {edges} causal edge(s), max depth {depth}");

        let hops: Vec<f64> = rf
            .events
            .values()
            .flat_map(|e| e.delivers.iter().map(|d| f64::from(d.hops)))
            .collect();
        let lat: Vec<f64> = rf
            .events
            .values()
            .flat_map(|e| e.delivers.iter().map(|d| d.latency as f64))
            .collect();
        percentile_line(&mut o, "hops   ", &hops);
        percentile_line(&mut o, "latency", &lat);

        // Loss attribution: per-reason counts must partition the misses.
        let mut by_reason: BTreeMap<&str, u64> = BTreeMap::new();
        for e in rf.events.values() {
            for (_, reason) in &e.drops {
                *by_reason.entry(reason).or_default() += 1;
            }
        }
        if expected > 0 {
            let _ = writeln!(o, "loss attribution:");
            for (reason, count) in &by_reason {
                let _ = writeln!(o, "  {reason:<22} {count}");
            }
            let check = if dropped == expected - delivered {
                "ok"
            } else {
                "MISMATCH"
            };
            let _ = writeln!(
                o,
                "  {:<22} {dropped}  (expected {expected} - delivered {delivered} = {}; {check})",
                "total",
                expected - delivered
            );
        }
    }
    o
}

/// Append one `p50/p90/p99/max` line for `xs` (skipped when empty),
/// estimated via [`Histogram::percentile`].
fn percentile_line(o: &mut String, label: &str, xs: &[f64]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut h = Histogram::new(256, (max + 1.0).max(1.0));
    for &x in xs {
        h.record(x);
    }
    let _ = writeln!(
        o,
        "{label}: p50 {:.1}  p90 {:.1}  p99 {:.1}  max {max:.0}  (n={})",
        h.percentile(0.50),
        h.percentile(0.90),
        h.percentile(0.99),
        xs.len()
    );
}

/// Export the per-topic dissemination trees as Graphviz DOT: one cluster
/// per topic, aggregating the causal edges of every event on that topic
/// across all runs.
pub fn export_dot(tf: &TraceFile) -> String {
    let mut by_topic: BTreeMap<u64, BTreeSet<(u32, u32)>> = BTreeMap::new();
    for rf in tf.runs.values() {
        for e in rf.events.values() {
            let Some(topic) = e.topic else { continue };
            by_topic.entry(topic).or_default().extend(tree_edges(e));
        }
    }
    let mut o = String::from("digraph dissemination {\n  node [shape=circle];\n");
    for (t, edges) in &by_topic {
        let _ = writeln!(o, "  subgraph cluster_topic_{t} {{");
        let _ = writeln!(o, "    label=\"topic {t}\";");
        let slots: BTreeSet<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        for s in slots {
            let _ = writeln!(o, "    t{t}_n{s} [label=\"{s}\"];");
        }
        for (a, b) in edges {
            let _ = writeln!(o, "    t{t}_n{a} -> t{t}_n{b};");
        }
        let _ = writeln!(o, "  }}");
    }
    o.push_str("}\n");
    o
}

/// Read `path`, write the optional DOT export, and return the report.
pub fn run_file(path: &str, dot_out: Option<&str>) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let tf = parse_trace(&text);
    if tf.lines == 0 {
        return Err(format!("{path} holds no trace records"));
    }
    if let Some(dot_path) = dot_out {
        std::fs::write(dot_path, export_dot(&tf))
            .map_err(|e| format!("cannot write {dot_path}: {e}"))?;
    }
    Ok(report(&tf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> &'static str {
        concat!(
            "{\"run\":\"fig6/vitis#0\",\"type\":\"trace_meta\",\"capacity\":100,\"recorded\":9,\"evicted\":0}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"pub_event\",\"now\":10,\"event\":1,\"topic\":3,\"node\":0,\"expected\":3}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"fwd\",\"now\":10,\"event\":1,\"from\":0,\"to\":5,\"hop\":1}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"fwd\",\"now\":12,\"event\":1,\"from\":5,\"to\":7,\"hop\":2}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"deliver_event\",\"now\":12,\"event\":1,\"node\":5,\"hops\":1,\"latency\":2,\"path\":\"0>5\"}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"deliver_event\",\"now\":14,\"event\":1,\"node\":7,\"hops\":2,\"latency\":4,\"path\":\"0>5>7\"}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"drop_event\",\"now\":90,\"event\":1,\"node\":9,\"reason\":\"no_gateway\"}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"net_drop\",\"now\":11,\"from\":0,\"to\":9,\"kind\":\"notification\",\"event\":1}\n",
            "{\"run\":\"fig6/vitis#0\",\"type\":\"round\",\"round\":1,\"now\":64,\"alive\":10}\n",
            "this line is not json\n",
        )
    }

    fn repair_trace() -> String {
        concat!(
            "{\"run\":\"res/vitis+ae-s0.25#0\",\"type\":\"pub_event\",\"now\":10,\"event\":1,\"topic\":3,\"node\":0,\"expected\":2}\n",
            "{\"run\":\"res/vitis+ae-s0.25#0\",\"type\":\"deliver_event\",\"now\":12,\"event\":1,\"node\":5,\"hops\":1,\"latency\":2,\"path\":\"0>5\"}\n",
            "{\"run\":\"res/vitis+ae-s0.25#0\",\"type\":\"deliver_event\",\"now\":40,\"event\":1,\"node\":7,\"hops\":2,\"latency\":30,\"path\":\"0>5>7\",\"recovered\":true}\n",
            "{\"run\":\"res/vitis+ae-s0.25#0\",\"type\":\"reconv\",\"system\":\"vitis\",\"severity_pct\":25,\"repair\":true,\"rounds\":9}\n",
            "{\"run\":\"res/rvr-s0.5#0\",\"type\":\"reconv\",\"system\":\"rvr\",\"severity_pct\":50,\"repair\":false,\"rounds\":null}\n",
        )
        .to_string()
    }

    /// A `run` record as `--metrics-out` writes it, and the same line cut
    /// short by a crash.
    fn other_sinks_lines() -> String {
        use vitis_sim::record::to_json;
        let run = RunRecord {
            run: "fig6/vitis#0".to_string(),
            nodes: 10,
            topics: 4,
            seed: 42,
            perf: crate::obs::PerfSample::new(&Default::default(), 0),
            phase_ms: vec![("build".into(), 1.5)],
            stats: Default::default(),
            samples: Default::default(),
        };
        let run = to_json(None, &run);
        let cut = &run[..run.len() / 2];
        format!("{run}\n{cut}\n")
    }

    #[test]
    fn parse_groups_by_run_and_event() {
        let tf = parse_trace(sample_trace());
        assert_eq!(tf.lines, 10);
        assert_eq!(tf.skipped, 1);
        assert_eq!(tf.other_events, 1);
        // The metrics sink's `run` record is known, not unparsable; a
        // truncated one still is, and neither is fatal.
        let tf = parse_trace(&(sample_trace().to_string() + &other_sinks_lines()));
        assert_eq!(tf.lines, 12);
        assert_eq!(tf.skipped, 2);
        assert_eq!(tf.other_events, 2);
        let rf = &tf.runs["fig6/vitis#0"];
        assert_eq!(rf.meta, Some((100, 9, 0)));
        let e = &rf.events[&1];
        assert_eq!(e.topic, Some(3));
        assert_eq!(e.publisher, Some(0));
        assert_eq!(e.expected, 3);
        assert_eq!(e.fwds.len(), 2);
        assert_eq!(e.delivers.len(), 2);
        assert_eq!(e.drops, vec![(9, "no_gateway".to_string())]);
        assert_eq!(e.net_drops, 1, "in-transit drop attributed to the event");
    }

    #[test]
    fn net_drops_stay_out_of_the_exact_sum_check() {
        let tf = parse_trace(sample_trace());
        let r = report(&tf);
        assert!(r.contains("in-transit drops: 1 lost"), "report:\n{r}");
        // The lost copy is informational; the exact-sum check still holds.
        assert!(r.contains("(expected 3 - delivered 2 = 1; ok)"));
    }

    #[test]
    fn report_checks_that_drops_cover_the_misses() {
        let tf = parse_trace(sample_trace());
        let r = report(&tf);
        assert!(r.contains("expected 3  delivered 2  dropped 1"));
        assert!(r.contains("no_gateway"));
        assert!(r.contains("(expected 3 - delivered 2 = 1; ok)"));
        assert!(r.contains("max depth 2"));
        // One delivery was dropped short: a missing drop_event must be
        // flagged rather than silently accepted.
        let truncated: String = sample_trace()
            .lines()
            .filter(|l| !l.contains("drop_event"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(report(&parse_trace(&truncated)).contains("MISMATCH"));
    }

    #[test]
    fn recovered_deliveries_and_reconv_records_render() {
        let tf = parse_trace(&repair_trace());
        let rf = &tf.runs["res/vitis+ae-s0.25#0"];
        assert_eq!(rf.events[&1].delivers.len(), 2);
        assert!(rf.events[&1].delivers[1].recovered);
        assert!(!rf.events[&1].delivers[0].recovered);
        assert_eq!(rf.reconv, vec![("vitis".to_string(), 25, true, Some(9))]);
        assert_eq!(
            tf.runs["res/rvr-s0.5#0"].reconv,
            vec![("rvr".to_string(), 50, false, None)]
        );
        let r = report(&tf);
        assert!(
            r.contains("recovered deliveries: 1 of 2"),
            "repair split rendered:\n{r}"
        );
        assert!(
            r.contains("reconvergence: vitis at 25% isolated (repair on) — 9 round(s)"),
            "recovered run rendered:\n{r}"
        );
        assert!(
            r.contains("reconvergence: rvr at 50% isolated (repair off) — UNRECOVERED"),
            "unrecovered run rendered explicitly:\n{r}"
        );
    }

    #[test]
    fn report_warns_on_truncated_ring() {
        let text = sample_trace().replace("\"evicted\":0", "\"evicted\":4");
        assert!(report(&parse_trace(&text)).contains("evicted 4 of 9"));
    }

    #[test]
    fn dot_export_holds_the_causal_tree() {
        let tf = parse_trace(sample_trace());
        let dot = export_dot(&tf);
        assert!(dot.starts_with("digraph dissemination {"));
        assert!(dot.contains("subgraph cluster_topic_3"));
        assert!(dot.contains("t3_n0 -> t3_n5;"));
        assert!(dot.contains("t3_n5 -> t3_n7;"));
        assert!(!dot.contains("t3_n9"), "dropped subscriber is no tree node");
    }

    #[test]
    fn percentiles_come_from_the_recorded_sample() {
        let tf = parse_trace(sample_trace());
        let r = report(&tf);
        assert!(r.contains("hops   "), "hop percentiles present:\n{r}");
        assert!(r.contains("latency"), "latency percentiles present:\n{r}");
        assert!(r.contains("max 2  (n=2)"), "hop max reported:\n{r}");
    }
}
