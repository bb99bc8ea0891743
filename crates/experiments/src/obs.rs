//! Process-wide observability sinks for experiment runs.
//!
//! The CLI opens the global [`Obs`] sinks once (from `--metrics-out` /
//! `--trace-out`); every figure runner then labels its measurement runs
//! through [`Obs::start`], and [`crate::runner::measure_obs`] records
//! per-run phase timers, a per-round convergence time series, overlay
//! health probes and the final [`PubSubStats`] into JSONL sinks. Sweep
//! points run on Rayon workers, so the sinks take pre-rendered lines
//! behind mutexes; with no sink open (the default, and always in unit
//! tests) every recording call is a cheap no-op.
//!
//! The schema of both sinks is documented in `docs/METRICS.md`.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vitis::monitor::PubSubStats;
use vitis_sim::perf::EngineCounters;
use vitis_sim::trace::{push_f64, push_json_str, Trace, TraceEvent, TraceHandle};

/// Default ring-buffer capacity of the per-run event trace. Old events
/// are evicted (and counted) beyond this; the `trace_meta` record reports
/// how many, and the CLI's `--trace-capacity` flag overrides it via
/// [`Obs::set_trace_capacity`].
pub const TRACE_CAPACITY: usize = 65_536;

/// One per-round convergence sample taken during the measure/drain
/// phases (the `samples` array of a metrics record).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundSample {
    /// Rounds since measurement started (1-based).
    pub round: u64,
    /// Simulation time of the sample.
    pub now: u64,
    /// Hit ratio so far in the window.
    pub hit_ratio: f64,
    /// Traffic overhead percent so far in the window.
    pub overhead_pct: f64,
    /// Deliveries achieved so far.
    pub delivered: u64,
    /// Deliveries expected so far.
    pub expected: u64,
}

/// A sink streaming finished JSONL lines to a file. Each batch is written
/// and flushed whole the moment a run finishes, so a sweep that panics or
/// is killed part-way still leaves a valid JSONL prefix covering every
/// completed run.
struct FileSink {
    f: std::fs::File,
    path: String,
    lines: u64,
}

impl FileSink {
    fn create(path: &str) -> std::io::Result<FileSink> {
        Ok(FileSink {
            f: std::fs::File::create(path)?,
            path: path.to_string(),
            lines: 0,
        })
    }

    /// Render the batch into one buffer and write it with a single
    /// `write_all` (only whole lines ever reach the file), then flush.
    fn push_batch<I: IntoIterator<Item = String>>(&mut self, batch: I) {
        let mut buf = String::new();
        let mut n = 0u64;
        for line in batch {
            buf.push_str(&line);
            buf.push('\n');
            n += 1;
        }
        if n == 0 {
            return;
        }
        match self.f.write_all(buf.as_bytes()).and_then(|()| self.f.flush()) {
            Ok(()) => self.lines += n,
            Err(e) => eprintln!("warning: obs sink {}: write failed: {e}", self.path),
        }
    }
}

/// A sink slot: `None` until the CLI opens a file for it.
type Sink = Mutex<Option<FileSink>>;

fn push_batch<I: IntoIterator<Item = String>>(sink: &Sink, batch: I) {
    if let Some(s) = sink.lock().expect("obs lock").as_mut() {
        s.push_batch(batch);
    }
}

/// `(path, lines written so far)` of an open sink.
fn file_status(sink: &Sink) -> Option<(String, u64)> {
    let guard = sink.lock().expect("obs lock");
    guard.as_ref().map(|s| (s.path.clone(), s.lines))
}

/// The global observability switchboard: two JSONL file sinks (each with
/// a lock-free "is it open" flag), shared by every figure runner in the
/// process.
pub struct Obs {
    metrics_on: AtomicBool,
    trace_on: AtomicBool,
    trace_capacity: AtomicUsize,
    overflow_runs: AtomicU64,
    overflow_evicted: AtomicU64,
    metrics_sink: Sink,
    trace_sink: Sink,
}

static GLOBAL: Obs = Obs::new();

impl Obs {
    const fn new() -> Obs {
        Obs {
            metrics_on: AtomicBool::new(false),
            trace_on: AtomicBool::new(false),
            trace_capacity: AtomicUsize::new(TRACE_CAPACITY),
            overflow_runs: AtomicU64::new(0),
            overflow_evicted: AtomicU64::new(0),
            metrics_sink: Mutex::new(None),
            trace_sink: Mutex::new(None),
        }
    }

    /// The process-wide instance. Collects nothing until a sink file is
    /// set, so library users and tests pay nothing.
    pub fn global() -> &'static Obs {
        &GLOBAL
    }

    /// Whether per-run metrics records are being collected.
    pub fn metrics_on(&self) -> bool {
        self.metrics_on.load(Ordering::Relaxed)
    }

    /// Whether per-run event traces are being collected.
    pub fn trace_on(&self) -> bool {
        self.trace_on.load(Ordering::Relaxed)
    }

    /// Per-run trace ring capacity (`--trace-capacity`, default
    /// [`TRACE_CAPACITY`]).
    pub fn trace_capacity(&self) -> usize {
        self.trace_capacity.load(Ordering::Relaxed)
    }

    /// Override the per-run trace ring capacity (the CLI calls this once,
    /// before any run starts).
    pub fn set_trace_capacity(&self, cap: usize) {
        self.trace_capacity.store(cap.max(1), Ordering::Relaxed);
    }

    /// Open a labelled run scope. `figure` names the experiment module
    /// (`"fig6"`), `label` the sweep point (`"vitis-low-rt25"`) and
    /// `index` its position in the figure's job table; the returned
    /// context stamps every record with the run id `figure/label#index`,
    /// which is therefore the same on every run of the same command.
    pub fn start(&'static self, figure: &str, label: &str, index: usize) -> RunCtx {
        RunCtx {
            obs: self,
            run: format!("{figure}/{label}#{index}"),
            last_phase: Instant::now(),
            phases: Vec::new(),
            samples: Vec::new(),
            trace: None,
        }
    }

    /// Collect per-run metrics records, streaming them to `path`. Each
    /// record is written and flushed as its run finishes, so an aborted
    /// sweep leaves a valid partial JSONL file.
    pub fn set_metrics_file(&self, path: &str) -> std::io::Result<()> {
        *self.metrics_sink.lock().expect("obs lock") = Some(FileSink::create(path)?);
        self.metrics_on.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Collect per-run event traces, streaming them to `path` (same
    /// crash-safety as [`Obs::set_metrics_file`]).
    pub fn set_trace_file(&self, path: &str) -> std::io::Result<()> {
        *self.trace_sink.lock().expect("obs lock") = Some(FileSink::create(path)?);
        self.trace_on.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// `(path, lines written so far)` of the metrics sink, once open.
    pub fn metrics_file_status(&self) -> Option<(String, u64)> {
        file_status(&self.metrics_sink)
    }

    /// `(path, lines written so far)` of the trace sink, once open.
    pub fn trace_file_status(&self) -> Option<(String, u64)> {
        file_status(&self.trace_sink)
    }

    /// Submit lines rendered outside [`RunCtx::finish`] (the resilience
    /// sweep's `topo` and `reconv` records) through the metrics sink.
    pub fn push_metrics_lines<I: IntoIterator<Item = String>>(&self, lines: I) {
        push_batch(&self.metrics_sink, lines);
    }

    /// Account one run whose trace ring overflowed. Returns true only for
    /// the first overflowed run of the process — the caller prints the
    /// detailed warning then, and every later overflow stays silent until
    /// the [`Obs::trace_overflow_status`] summary at exit.
    pub fn note_trace_overflow(&self, evicted: u64) -> bool {
        self.overflow_evicted.fetch_add(evicted, Ordering::Relaxed);
        self.overflow_runs.fetch_add(1, Ordering::Relaxed) == 0
    }

    /// `(overflowed runs, events evicted in total)` across the process,
    /// or `None` if no trace ever overflowed.
    pub fn trace_overflow_status(&self) -> Option<(u64, u64)> {
        let runs = self.overflow_runs.load(Ordering::Relaxed);
        (runs > 0).then(|| (runs, self.overflow_evicted.load(Ordering::Relaxed)))
    }
}

/// The per-run recording scope handed to [`crate::runner::measure_obs`].
/// Created by [`Obs::start`]; lives on one Rayon worker for the duration
/// of a single sweep point.
pub struct RunCtx {
    obs: &'static Obs,
    /// Run id (`figure/label#index`) stamped on every record.
    pub run: String,
    last_phase: Instant,
    phases: Vec<(&'static str, f64)>,
    samples: Vec<RoundSample>,
    trace: Option<TraceHandle>,
}

/// Deterministic perf facts read at the end of a run (the `"perf"` object
/// of its metrics record): engine-side counters plus the structural
/// footprint estimate. Pure functions of the simulation (no wall clock),
/// so they survive the determinism double-run diff unchanged.
#[derive(Clone, Copy, Debug)]
pub struct PerfSample {
    /// Queue high-water mark and per-phase activation counts.
    pub counters: EngineCounters,
    /// Structural per-node footprint estimate, summed over alive nodes.
    pub footprint_bytes: u64,
}

impl RunCtx {
    /// True when nothing is being collected; recording calls no-op.
    pub fn disabled(&self) -> bool {
        !self.obs.metrics_on() && !self.obs.trace_on()
    }

    /// Install a fresh event trace into `sys` (no-op unless `--trace-out`
    /// is active).
    pub fn install_trace(&mut self, sys: &mut dyn vitis::system::PubSub) {
        if self.obs.trace_on() {
            let handle = Trace::shared(self.obs.trace_capacity());
            sys.install_trace(handle.clone());
            self.trace = Some(handle);
        }
    }

    /// Whether a trace is installed on this run scope.
    pub fn has_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// Close the current wall-clock phase under `name` and return its
    /// length: milliseconds since the previous phase boundary, or since
    /// [`Obs::start`]. Timed even when nothing is being collected.
    pub fn phase(&mut self, name: &'static str) -> f64 {
        let elapsed = self.last_phase.elapsed().as_secs_f64() * 1e3;
        self.last_phase = Instant::now();
        if !self.disabled() {
            self.phases.push((name, elapsed));
        }
        if let Some(t) = &self.trace {
            t.borrow_mut().record(TraceEvent::Phase {
                name: name.into(),
                wall_ms: elapsed,
            });
        }
        elapsed
    }

    /// Record one per-round convergence sample (and mirror it, plus a
    /// round boundary and a health probe, into the event trace).
    pub fn sample(&mut self, round: u64, sys: &dyn vitis::system::PubSub) {
        if self.disabled() {
            return;
        }
        let stats = sys.stats();
        let now = sys.now().0;
        let s = RoundSample {
            round,
            now,
            hit_ratio: stats.hit_ratio,
            overhead_pct: stats.overhead_pct,
            delivered: stats.delivered,
            expected: stats.expected,
        };
        self.samples.push(s);
        if let Some(t) = &self.trace {
            let probe = sys.health_probe();
            let mut t = t.borrow_mut();
            t.record(TraceEvent::Round {
                round,
                now,
                alive: probe.alive,
            });
            t.record(TraceEvent::Sample {
                round,
                now,
                hit_ratio: s.hit_ratio,
                overhead_pct: s.overhead_pct,
                delivered: s.delivered,
                expected: s.expected,
            });
            t.record(TraceEvent::Health { now, probe });
        }
    }

    /// Close the run after its measurement window: read the final stats
    /// of `sys` (returned), render this run's records — the metrics one
    /// with the system's perf facts — and submit them to the global sinks.
    pub fn finish(
        self,
        scale: &crate::scale::Scale,
        sys: &dyn vitis::system::PubSub,
    ) -> PubSubStats {
        let stats = sys.stats();
        if self.obs.metrics_on() {
            let perf = PerfSample {
                counters: sys.perf_counters(),
                footprint_bytes: sys.footprint_estimate(),
            };
            let line =
                render_metrics_line(&self.run, scale, &self.phases, &self.samples, &stats, &perf);
            push_batch(&self.obs.metrics_sink, [line]);
        }
        if let Some(t) = &self.trace {
            let t = t.borrow();
            // Rate-limited: the first overflowed run prints the full
            // warning, later ones only feed the exit summary (the
            // per-run trace_meta record still carries exact counts).
            if t.evicted() > 0 && self.obs.note_trace_overflow(t.evicted()) {
                eprintln!(
                    "warning: trace for {} overflowed: {} of {} events evicted \
                     (raise --trace-capacity; see the trace_meta record; \
                     later overflows are summarized at exit)",
                    self.run,
                    t.evicted(),
                    t.total_recorded()
                );
            }
            let mut batch = vec![trace_meta_line(&self.run, &t)];
            for ev in t.events() {
                batch.push(stamp_run(&self.run, &vitis_sim::trace::event_to_json(ev)));
            }
            push_batch(&self.obs.trace_sink, batch);
        }
        stats
    }
}

/// Prefix a rendered trace-event object with a `"run"` field.
pub(crate) fn stamp_run(run: &str, event_json: &str) -> String {
    let mut out = String::with_capacity(event_json.len() + run.len() + 10);
    out.push_str("{\"run\":");
    push_json_str(&mut out, run);
    out.push(',');
    out.push_str(&event_json[1..]);
    out
}

/// The `trace_meta` record heading a run's trace: capacity and how many
/// events the ring buffer evicted (0 means the trace is complete).
fn trace_meta_line(run: &str, t: &Trace) -> String {
    stamp_run(
        run,
        &vitis_sim::trace::event_to_json(&TraceEvent::TraceMeta {
            capacity: t.capacity() as u64,
            recorded: t.total_recorded(),
            evicted: t.evicted(),
        }),
    )
}

fn render_metrics_line(
    run: &str,
    scale: &crate::scale::Scale,
    phases: &[(&'static str, f64)],
    samples: &[RoundSample],
    stats: &PubSubStats,
    perf: &PerfSample,
) -> String {
    let mut o = String::with_capacity(512);
    o.push_str("{\"type\":\"run\",\"run\":");
    push_json_str(&mut o, run);
    o.push_str(&format!(
        ",\"nodes\":{},\"topics\":{},\"seed\":{}",
        scale.nodes, scale.topics, scale.seed
    ));
    let c = &perf.counters;
    o.push_str(&format!(
        ",\"perf\":{{\"queue_hwm\":{},\"activations\":{{\"start\":{},\"round\":{},\
         \"message\":{},\"stop\":{}}},\"sched\":{{\"batches\":{},\"overflow\":{}}},\
         \"footprint_bytes\":{}}}",
        c.queue_hwm,
        c.activations_start,
        c.activations_round,
        c.activations_message,
        c.activations_stop,
        c.sched_batches,
        c.sched_overflow,
        perf.footprint_bytes
    ));
    o.push_str(",\"phase_ms\":{");
    for (i, (name, ms)) in phases.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        push_json_str(&mut o, name);
        o.push(':');
        push_f64(&mut o, *ms);
    }
    o.push_str("},\"stats\":{");
    o.push_str(&format!(
        "\"published\":{},\"expected\":{},\"delivered\":{},",
        stats.published, stats.expected, stats.delivered
    ));
    o.push_str("\"hit_ratio\":");
    push_f64(&mut o, stats.hit_ratio);
    o.push_str(",\"mean_hops\":");
    push_f64(&mut o, stats.mean_hops);
    o.push_str(&format!(",\"max_hops\":{},", stats.max_hops));
    o.push_str(&format!(
        "\"useful_msgs\":{},\"relay_msgs\":{},",
        stats.useful_msgs, stats.relay_msgs
    ));
    o.push_str("\"overhead_pct\":");
    push_f64(&mut o, stats.overhead_pct);
    o.push_str(",\"mean_latency_ticks\":");
    push_f64(&mut o, stats.mean_latency_ticks);
    o.push_str(&format!(",\"max_latency_ticks\":{},", stats.max_latency_ticks));
    o.push_str("\"control_bytes_per_round\":");
    push_f64(&mut o, stats.control_bytes_per_round);
    o.push_str(&format!(
        ",\"control_sent\":{},\"data_sent\":{},",
        stats.control_sent, stats.data_sent
    ));
    o.push_str("\"traffic_by_kind\":[");
    for (i, k) in stats.traffic_by_kind.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"kind\":");
        push_json_str(&mut o, &k.kind);
        o.push_str(",\"class\":");
        push_json_str(&mut o, &k.class);
        o.push_str(&format!(",\"sent\":{},\"delivered\":{}}}", k.sent, k.delivered));
    }
    o.push_str("]},\"samples\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("{{\"round\":{},\"now\":{},", s.round, s.now));
        o.push_str("\"hit_ratio\":");
        push_f64(&mut o, s.hit_ratio);
        o.push_str(",\"overhead_pct\":");
        push_f64(&mut o, s.overhead_pct);
        o.push_str(&format!(
            ",\"delivered\":{},\"expected\":{}}}",
            s.delivered, s.expected
        ));
    }
    o.push_str("]}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_run_produces_valid_prefixed_object() {
        let ev = TraceEvent::Round {
            round: 3,
            now: 90,
            alive: 10,
        };
        let line = stamp_run("fig6/vitis#0", &vitis_sim::trace::event_to_json(&ev));
        assert!(line.starts_with("{\"run\":\"fig6/vitis#0\","));
        // The run field is extra; the trace parser must still accept it.
        assert_eq!(vitis_sim::trace::parse_event(&line), Ok(ev));
    }

    #[test]
    fn metrics_line_is_well_formed() {
        let scale = crate::scale::Scale::quick();
        let stats = PubSubStats {
            hit_ratio: f64::NAN, // must render as null, not break JSON
            ..PubSubStats::default()
        };
        let line = render_metrics_line(
            "t/x#1",
            &scale,
            &[("build", 1.5), ("measure", 2.0)],
            &[RoundSample {
                round: 1,
                now: 30,
                hit_ratio: 0.5,
                overhead_pct: 10.0,
                delivered: 5,
                expected: 10,
            }],
            &stats,
            &PerfSample {
                counters: EngineCounters::default(),
                footprint_bytes: 0,
            },
        );
        assert!(line.contains("\"phase_ms\":{\"build\":1.5,\"measure\":2}"));
        assert!(line.contains("\"hit_ratio\":null"));
        assert!(line.contains("\"samples\":[{\"round\":1,"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn perf_object_renders_deterministic_integers() {
        let scale = crate::scale::Scale::quick();
        let stats = PubSubStats::default();
        let perf = PerfSample {
            counters: EngineCounters {
                queue_hwm: 7,
                activations_start: 4,
                activations_round: 40,
                activations_message: 12,
                activations_stop: 1,
                sched_batches: 9,
                sched_overflow: 2,
            },
            footprint_bytes: 2048,
        };
        let line = render_metrics_line("t/x#2", &scale, &[], &[], &stats, &perf);
        assert!(line.contains(
            "\"perf\":{\"queue_hwm\":7,\"activations\":{\"start\":4,\"round\":40,\
             \"message\":12,\"stop\":1},\"sched\":{\"batches\":9,\"overflow\":2},\
             \"footprint_bytes\":2048}"
        ));
    }

    /// The golden values of `tests/golden/records_v1.jsonl`: one line per
    /// record type and per special case, then a BENCH document.
    fn golden_records() -> String {
        use std::borrow::Cow;
        use vitis::monitor::KindStat;
        use vitis_sim::perf::{mem_jsonl_line, span_jsonl_line, MemSnapshot, SpanStat};
        use vitis_sim::trace::{event_to_json, HealthProbe, TopoProbe, TrafficClass};
        let events = vec![
            TraceEvent::Round {
                round: 3,
                now: 192,
                alive: 400,
            },
            TraceEvent::Join {
                now: 0,
                node: 17,
                rejoin: false,
            },
            TraceEvent::Leave {
                now: 900,
                node: 3,
                crash: true,
            },
            TraceEvent::MsgSend {
                now: 12,
                from: 1,
                to: 9,
                kind: Cow::Borrowed("rt_req"),
                class: TrafficClass::Control,
            },
            TraceEvent::MsgDeliver {
                now: 13,
                from: 1,
                to: 9,
                kind: Cow::Borrowed("notification"),
                class: TrafficClass::Data,
            },
            TraceEvent::Health {
                now: 192,
                probe: HealthProbe {
                    alive: 400,
                    mean_degree: 14.25,
                    ring_accuracy: Some(0.9825),
                    mean_view_age: Some(1.5),
                    clusters: Some(3),
                    largest_cluster: Some(120),
                },
            },
            TraceEvent::Health {
                now: 200,
                probe: HealthProbe {
                    alive: 10,
                    mean_degree: 2.0,
                    ..HealthProbe::default()
                },
            },
            TraceEvent::Sample {
                round: 4,
                now: 256,
                hit_ratio: 0.96875,
                overhead_pct: 12.5,
                delivered: 31,
                expected: 32,
            },
            TraceEvent::Sample {
                round: 1,
                now: 64,
                hit_ratio: f64::NAN,
                overhead_pct: f64::INFINITY,
                delivered: 0,
                expected: 0,
            },
            TraceEvent::Phase {
                name: Cow::Borrowed("warmup"),
                wall_ms: 1523.75,
            },
            TraceEvent::Phase {
                name: Cow::Borrowed("we\"ird\\ph\nase\t\r\u{1}\u{1f}é"),
                wall_ms: 1.0,
            },
            TraceEvent::PubEvent {
                now: 300,
                event: 7,
                topic: 42,
                node: 11,
                expected: 58,
            },
            TraceEvent::Fwd {
                now: 301,
                event: 7,
                from: 11,
                to: 29,
                hop: 1,
            },
            TraceEvent::DeliverEvent {
                now: 330,
                event: 7,
                node: 29,
                hops: 2,
                latency: 30,
                path: "11>5>29".to_string(),
                recovered: false,
            },
            TraceEvent::DeliverEvent {
                now: 340,
                event: 7,
                node: 31,
                hops: 3,
                latency: 40,
                path: "11>5>31".to_string(),
                recovered: true,
            },
            TraceEvent::NetDrop {
                now: 305,
                from: 11,
                to: 88,
                kind: Cow::Borrowed("notification"),
                event: Some(7),
            },
            TraceEvent::NetDrop {
                now: 306,
                from: 2,
                to: 3,
                kind: Cow::Borrowed("ps_req"),
                event: None,
            },
            TraceEvent::DropEvent {
                now: 900,
                event: 7,
                node: 88,
                reason: Cow::Borrowed("no_gateway"),
            },
            TraceEvent::TopoSample {
                round: 6,
                now: 384,
                probe: TopoProbe {
                    nodes: 400,
                    links: 5600,
                    sampled_topics: 32,
                    components: 41,
                    stitched_components: 32,
                    largest_component_frac: 0.96875,
                    rendezvous_conflicts: 1,
                    headless_topics: 0,
                    dead_links: 2,
                    mean_relay_stretch: Some(1.25),
                    max_gateway_load: 5,
                    mean_view_age: Some(1.5),
                    violations: 3,
                },
            },
            TraceEvent::TopoSample {
                round: 0,
                now: 400,
                probe: TopoProbe {
                    nodes: 10,
                    links: 40,
                    ..TopoProbe::default()
                },
            },
            TraceEvent::Reconv {
                system: Cow::Borrowed("vitis"),
                severity_pct: 25,
                repair: true,
                rounds: Some(9),
            },
            TraceEvent::Reconv {
                system: Cow::Borrowed("rvr"),
                severity_pct: 50,
                repair: false,
                rounds: None,
            },
            TraceEvent::TraceMeta {
                capacity: 65536,
                recorded: 812344,
                evicted: 746808,
            },
        ];
        let mut lines: Vec<String> = events.iter().map(event_to_json).collect();

        // What `RunCtx::finish` heads and fills a run's trace with.
        let mut ring = Trace::new(2);
        for ev in &events[..3] {
            ring.record(ev.clone());
        }
        lines.push(trace_meta_line("fig6/vitis-low-rt25#7", &ring));
        for ev in ring.events() {
            lines.push(stamp_run("fig6/vitis-low-rt25#7", &event_to_json(ev)));
        }
        lines.push(stamp_run("we\"ird\\run\n#0", &event_to_json(&events[0])));

        // The `run` record of `--metrics-out`.
        let mut scale = crate::scale::Scale::quick();
        scale.seed = 42;
        let kind = |kind: &str, class: &str, sent, delivered| KindStat {
            kind: kind.to_string(),
            class: class.to_string(),
            sent,
            delivered,
        };
        let stats = PubSubStats {
            published: 200,
            expected: 9973,
            delivered: 9950,
            hit_ratio: f64::NAN,
            mean_hops: 4.125,
            max_hops: 11,
            useful_msgs: 11250,
            relay_msgs: 801,
            overhead_pct: 6.625,
            mean_latency_ticks: 122.75,
            max_latency_ticks: 402,
            control_bytes_per_round: 2210.5,
            control_sent: 240210,
            data_sent: 12051,
            traffic_by_kind: vec![
                kind("ps_req", "control", 48000, 47988),
                kind("notification", "data", 11851, 11833),
            ],
        };
        let sample = |round, now, hit_ratio, delivered| RoundSample {
            round,
            now,
            hit_ratio,
            overhead_pct: 6.5,
            delivered,
            expected: 1000 * round,
        };
        let perf = PerfSample {
            counters: EngineCounters {
                queue_hwm: 5366,
                activations_start: 400,
                activations_round: 32000,
                activations_message: 1067532,
                activations_stop: 1,
                sched_batches: 33450,
                sched_overflow: 12,
            },
            footprint_bytes: 739008,
        };
        lines.push(render_metrics_line(
            "fig6/vitis-low-rt25#7",
            &scale,
            &[("build", 41.25), ("warmup", 612.5), ("measure", 130.75), ("drain", 95.0)],
            &[sample(1, 1830, 0.40625, 410), sample(2, 1860, 0.859375, 1720)],
            &stats,
            &perf,
        ));
        lines.push(render_metrics_line(
            "t/empty#0",
            &scale,
            &[],
            &[],
            &PubSubStats::default(),
            &PerfSample {
                counters: EngineCounters::default(),
                footprint_bytes: 0,
            },
        ));

        // `--perf-out`.
        let span = SpanStat {
            count: 30,
            total_ns: 12_000_000_000,
            min_ns: 3,
            max_ns: 9,
            self_ns: 80,
        };
        lines.push(span_jsonl_line("scale.point;measure.warmup", &span));
        lines.push(mem_jsonl_line(&MemSnapshot {
            counting: true,
            live_bytes: 1024,
            peak_bytes: 4096,
            allocations: 17,
        }));

        let mut text = lines.join("\n");
        text.push('\n');
        // A BENCH document: header, two entries, trailer.
        text.push_str(&crate::benchfmt::render(&[
            crate::benchfmt::BenchEntry::new("scale/vitis/2000/measure_ms", 4397.9, "ms"),
            crate::benchfmt::BenchEntry::new("weird \"name\"\nwith\tescapes", f64::NAN, "ratio"),
        ]));
        text
    }

    /// The fence of the record table: every writer renders the golden
    /// values to the committed bytes.
    #[test]
    fn records_render_to_the_committed_golden_bytes() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/records_v1.jsonl"
        );
        let got = golden_records();
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &got).unwrap();
        }
        let want = std::fs::read_to_string(path).expect("tests/golden/records_v1.jsonl");
        assert_eq!(got, want);
    }

    #[test]
    fn file_sink_streams_whole_flushed_lines() {
        let path = std::env::temp_dir().join(format!("obs_sink_test_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let sink: Sink = Mutex::new(Some(FileSink::create(&path_s).unwrap()));
        push_batch(&sink, ["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]);
        // Lines are durable immediately — read back without dropping the
        // sink, as a killed process would leave them.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, "{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(file_status(&sink), Some((path_s, 2)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflow_warning_fires_once_and_accumulates() {
        // Use a private Obs so the process-global counters stay clean.
        let obs = Obs::new();
        assert_eq!(obs.trace_overflow_status(), None);
        assert!(obs.note_trace_overflow(10)); // first run warns
        assert!(!obs.note_trace_overflow(5)); // later runs stay silent
        assert!(!obs.note_trace_overflow(1));
        assert_eq!(obs.trace_overflow_status(), Some((3, 16)));
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        // No sink is open in tests, so a run scope is inert — but it
        // still times its phases, which the scale bench reads.
        let mut ctx = Obs::global().start("test", "noop", 3);
        assert_eq!(ctx.run, "test/noop#3");
        assert!(ctx.disabled());
        assert!(ctx.phase("build") >= 0.0);
        let sys = vitis::system::random_system(10, 4, 2, 1);
        let stats = ctx.finish(&crate::scale::Scale::quick(), &sys);
        assert_eq!(stats.published, 0);
        assert_eq!(Obs::global().metrics_file_status(), None);
        assert_eq!(Obs::global().trace_file_status(), None);
    }
}
