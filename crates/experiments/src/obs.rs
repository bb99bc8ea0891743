//! Process-wide observability sinks for experiment runs.
//!
//! The CLI opens the global [`Obs`] sinks once (from `--metrics-out` /
//! `--trace-out`, each a [`Sink`]); every figure runner then labels its measurement runs
//! through [`Obs::start`], and [`crate::runner::measure_obs`] records
//! per-run phase timers, a per-round convergence time series, overlay
//! health probes and the final [`PubSubStats`] into JSONL sinks. Sweep
//! points run on Rayon workers, so the sinks take a finished run's lines
//! as one [`Batch`] behind a mutex; with no sink open (the default, and
//! always in unit tests) every recording call is a cheap no-op.
//!
//! [`FileSink`] is the one thing in this crate that opens and writes a
//! JSONL file — these two sinks and `topology --out` — and every line it
//! writes is a record of the one table ([`mod@vitis_sim::record`]): the
//! trace's [`TraceEvent`]s and the [`RunRecord`] declared here.
//!
//! The schema of every record is documented in `docs/METRICS.md`.

use std::borrow::Cow;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vitis::monitor::PubSubStats;
use vitis_sim::perf::EngineCounters;
use vitis_sim::record::{write_record, Record};
use vitis_sim::trace::{Sample, Trace, TraceEvent, TraceHandle};

/// Default ring-buffer capacity of the per-run event trace. Old events
/// are evicted (and counted) beyond this; the `trace_meta` record reports
/// how many, and the CLI's `--trace-capacity` flag overrides it via
/// [`Obs::set_trace_capacity`].
pub const TRACE_CAPACITY: usize = 65_536;

/// The lines of one write: records rendered one per line into one buffer.
#[derive(Default)]
pub struct Batch {
    text: String,
    lines: u64,
}

impl Batch {
    /// Append `rec` as one line, led by the `run` stamp if there is one.
    pub fn push<R: Record>(&mut self, run: Option<&str>, rec: &R) {
        write_record(&mut self.text, run, rec);
        self.text.push('\n');
        self.lines += 1;
    }
}

/// A JSONL file being written. A batch goes out in a single `write_all`
/// followed by a flush, so only whole lines ever reach the file: a sweep
/// that panics or is killed part-way still leaves a valid JSONL prefix
/// covering every completed run.
pub struct FileSink {
    f: std::fs::File,
    path: String,
    lines: u64,
}

impl FileSink {
    /// Create (truncate) `path`.
    pub fn create(path: &str) -> std::io::Result<FileSink> {
        Ok(FileSink {
            f: std::fs::File::create(path)?,
            path: path.to_string(),
            lines: 0,
        })
    }

    /// Write `batch` whole and flush it.
    pub fn write(&mut self, batch: &Batch) -> std::io::Result<()> {
        self.f.write_all(batch.text.as_bytes())?;
        self.f.flush()?;
        self.lines += batch.lines;
        Ok(())
    }
}

/// One of the switchboard's sinks: closed until the CLI opens a file for
/// it. Runs look at it once per phase and per measured round, so an
/// uncontended lock is all "is it open" costs.
pub struct Sink(Mutex<Option<FileSink>>);

impl Sink {
    /// Stream to `path` from now on. Each run's records are written and
    /// flushed as the run finishes, so an aborted sweep leaves a valid
    /// partial JSONL file.
    pub fn open(&self, path: &str) -> std::io::Result<()> {
        *self.0.lock().expect("obs lock") = Some(FileSink::create(path)?);
        Ok(())
    }

    /// Whether records for this sink are being collected.
    pub fn is_open(&self) -> bool {
        self.0.lock().expect("obs lock").is_some()
    }

    /// `(path, lines written so far)`, once open.
    pub fn status(&self) -> Option<(String, u64)> {
        let guard = self.0.lock().expect("obs lock");
        guard.as_ref().map(|s| (s.path.clone(), s.lines))
    }

    /// Write `batch` if the sink is open. A failed write is a warning,
    /// not the end of the sweep.
    fn submit(&self, batch: &Batch) {
        if let Some(s) = self.0.lock().expect("obs lock").as_mut() {
            if let Err(e) = s.write(batch) {
                eprintln!("warning: obs sink {}: write failed: {e}", s.path);
            }
        }
    }
}

/// The global observability switchboard: two JSONL file sinks, shared by
/// every figure runner in the process.
pub struct Obs {
    /// Per-run metrics records (`--metrics-out`).
    pub metrics: Sink,
    /// Per-run event traces (`--trace-out`).
    pub trace: Sink,
    trace_capacity: AtomicUsize,
    overflow_runs: AtomicU64,
    overflow_evicted: AtomicU64,
}

static GLOBAL: Obs = Obs::new();

impl Obs {
    const fn new() -> Obs {
        Obs {
            metrics: Sink(Mutex::new(None)),
            trace: Sink(Mutex::new(None)),
            trace_capacity: AtomicUsize::new(TRACE_CAPACITY),
            overflow_runs: AtomicU64::new(0),
            overflow_evicted: AtomicU64::new(0),
        }
    }

    /// The process-wide instance. Collects nothing until a sink file is
    /// set, so library users and tests pay nothing.
    pub fn global() -> &'static Obs {
        &GLOBAL
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
            records: Vec::new(),
            trace: None,
        }
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
    phases: Vec<(Cow<'static, str>, f64)>,
    samples: Vec<Sample>,
    records: Vec<TraceEvent>,
    trace: Option<TraceHandle>,
}

vitis_sim::record! {
    /// The record of one measurement run in the `--metrics-out` file
    /// (docs/METRICS.md §3).
    #[derive(Clone, Debug)]
    pub struct RunRecord = "run" {
        /// Run id (`figure/label#index`).
        pub(crate) run: String,
        // The run's `Scale`.
        pub(crate) nodes: u64,
        pub(crate) topics: u64,
        pub(crate) seed: u64,
        /// Deterministic perf facts read at the end of the run: pure
        /// functions of the simulation (no wall clock), so they survive
        /// the determinism double-run diff unchanged.
        pub(crate) perf: PerfSample,
        /// Wall-clock milliseconds per phase, in phase order.
        pub(crate) phase_ms: Vec<(Cow<'static, str>, f64)>,
        /// The final stats of the measurement window.
        pub(crate) stats: PubSubStats,
        /// One convergence sample per measured round.
        pub(crate) samples: Vec<Sample>,
    }
}

vitis_sim::record! {
    /// The `"perf"` object of a [`RunRecord`]: the engine's
    /// [`EngineCounters`], regrouped, plus the structural footprint
    /// estimate summed over alive nodes.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct PerfSample {
        queue_hwm: u64,
        activations: Activations,
        sched: Sched,
        footprint_bytes: u64,
    }
}

vitis_sim::record! {
    /// `EngineCounters::activations_*`.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Activations {
        start: u64,
        round: u64,
        message: u64,
        stop: u64,
    }
}

vitis_sim::record! {
    /// `EngineCounters::sched_*`.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Sched {
        batches: u64,
        overflow: u64,
    }
}

impl PerfSample {
    pub(crate) fn new(c: &EngineCounters, footprint_bytes: u64) -> PerfSample {
        PerfSample {
            queue_hwm: c.queue_hwm,
            activations: Activations {
                start: c.activations_start,
                round: c.activations_round,
                message: c.activations_message,
                stop: c.activations_stop,
            },
            sched: Sched {
                batches: c.sched_batches,
                overflow: c.sched_overflow,
            },
            footprint_bytes,
        }
    }
}

impl RunCtx {
    /// True when nothing is being collected; recording calls no-op.
    pub fn disabled(&self) -> bool {
        !self.obs.metrics.is_open() && !self.obs.trace.is_open()
    }

    /// Install a fresh event trace into `sys` (no-op unless `--trace-out`
    /// is active).
    pub fn install_trace(&mut self, sys: &mut dyn vitis::system::PubSub) {
        if self.obs.trace.is_open() {
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
    /// [`Obs::start`]. Timed even when nothing is being collected. This is
    /// the harness's one wall clock: `phase_ms`, the trace's `phase`
    /// events and the scale ladder's per-phase rows all come from here.
    pub fn phase(&mut self, name: &'static str) -> f64 {
        let elapsed = self.last_phase.elapsed().as_secs_f64() * 1e3;
        self.last_phase = Instant::now();
        if !self.disabled() {
            self.phases.push((name.into(), elapsed));
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
        let sample = Sample {
            round,
            now,
            hit_ratio: stats.hit_ratio,
            overhead_pct: stats.overhead_pct,
            delivered: stats.delivered,
            expected: stats.expected,
        };
        if let Some(t) = &self.trace {
            let probe = sys.health_probe();
            let mut t = t.borrow_mut();
            t.record(TraceEvent::Round {
                round,
                now,
                alive: probe.alive,
            });
            t.record(TraceEvent::Sample { sample });
            t.record(TraceEvent::Health { now, probe });
        }
        self.samples.push(sample);
    }

    /// Keep `ev` for the metrics sink: it is written, stamped with the run
    /// id, ahead of the run's own record (the resilience sweep's `topo`
    /// series and `reconv` outcome). A no-op unless `--metrics-out` is
    /// active.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.obs.metrics.is_open() {
            self.records.push(ev);
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
        let run = Some(self.run.as_str());
        if self.obs.metrics.is_open() {
            let mut batch = Batch::default();
            for ev in &self.records {
                batch.push(run, ev);
            }
            batch.push(
                None,
                &RunRecord {
                    run: self.run.clone(),
                    nodes: scale.nodes as u64,
                    topics: scale.topics as u64,
                    seed: scale.seed,
                    perf: PerfSample::new(&sys.perf_counters(), sys.footprint_estimate()),
                    phase_ms: self.phases,
                    stats: stats.clone(),
                    samples: self.samples,
                },
            );
            self.obs.metrics.submit(&batch);
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
            // The run's trace is headed by its ring accounting: capacity
            // and how many events were evicted (0 = the trace is complete).
            let mut batch = Batch::default();
            batch.push(
                run,
                &TraceEvent::TraceMeta {
                    capacity: t.capacity() as u64,
                    recorded: t.total_recorded(),
                    evicted: t.evicted(),
                },
            );
            for ev in t.events() {
                batch.push(run, ev);
            }
            self.obs.trace.submit(&batch);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitis_sim::record::{parse_line, to_json};

    #[test]
    fn run_stamp_leads_the_object_and_readers_skip_it() {
        let ev = TraceEvent::Round {
            round: 3,
            now: 90,
            alive: 10,
        };
        let line = to_json(Some("fig6/vitis#0"), &ev);
        assert!(line.starts_with("{\"run\":\"fig6/vitis#0\",\"type\":\"round\","));
        assert_eq!(
            parse_line(&line),
            Ok((Some("fig6/vitis#0".to_string()), ev))
        );
    }

    fn run_record(phases: &[(&'static str, f64)], samples: Vec<Sample>) -> RunRecord {
        let scale = crate::scale::Scale::quick();
        RunRecord {
            run: "t/x#1".to_string(),
            nodes: scale.nodes as u64,
            topics: scale.topics as u64,
            seed: scale.seed,
            perf: PerfSample::new(&EngineCounters::default(), 0),
            phase_ms: phases.iter().map(|&(name, ms)| (name.into(), ms)).collect(),
            stats: PubSubStats::default(),
            samples,
        }
    }

    #[test]
    fn metrics_line_is_well_formed() {
        let mut rec = run_record(
            &[("build", 1.5), ("measure", 2.0)],
            vec![Sample {
                round: 1,
                now: 30,
                hit_ratio: 0.5,
                overhead_pct: 10.0,
                delivered: 5,
                expected: 10,
            }],
        );
        rec.stats.hit_ratio = f64::NAN; // must render as null, not break JSON
        let line = to_json(None, &rec);
        assert!(line.starts_with("{\"type\":\"run\",\"run\":\"t/x#1\",\"nodes\":"));
        assert!(line.contains("\"phase_ms\":{\"build\":1.5,\"measure\":2}"));
        assert!(line.contains("\"hit_ratio\":null"));
        assert!(line.contains("\"samples\":[{\"round\":1,"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn perf_object_renders_deterministic_integers() {
        let mut rec = run_record(&[], Vec::new());
        rec.perf = PerfSample::new(
            &EngineCounters {
                queue_hwm: 7,
                activations_start: 4,
                activations_round: 40,
                activations_message: 12,
                activations_stop: 1,
                sched_batches: 9,
                sched_overflow: 2,
            },
            2048,
        );
        assert!(to_json(None, &rec).contains(
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
        use vitis_sim::trace::{HealthProbe, TopoProbe, TrafficClass};
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
            TraceEvent::Leave { now: 900, node: 3 },
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
                sample: Sample {
                    round: 4,
                    now: 256,
                    hit_ratio: 0.96875,
                    overhead_pct: 12.5,
                    delivered: 31,
                    expected: 32,
                },
            },
            TraceEvent::Sample {
                sample: Sample {
                    round: 1,
                    now: 64,
                    hit_ratio: f64::NAN,
                    overhead_pct: f64::INFINITY,
                    delivered: 0,
                    expected: 0,
                },
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
        let mut lines: Vec<String> = events.iter().map(|ev| to_json(None, ev)).collect();

        // What `RunCtx::finish` heads and fills a run's trace with.
        let mut ring = Trace::new(2);
        for ev in &events[..3] {
            ring.record(ev.clone());
        }
        let run = Some("fig6/vitis-low-rt25#7");
        let meta = TraceEvent::TraceMeta {
            capacity: ring.capacity() as u64,
            recorded: ring.total_recorded(),
            evicted: ring.evicted(),
        };
        lines.push(to_json(run, &meta));
        lines.extend(ring.events().map(|ev| to_json(run, ev)));
        lines.push(to_json(Some("we\"ird\\run\n#0"), &events[0]));

        // The `run` record of `--metrics-out`.
        let scale = crate::scale::Scale::quick();
        let kind = |kind: &str, class: &str, sent, delivered, bytes| KindStat {
            kind: kind.to_string(),
            class: class.to_string(),
            sent,
            delivered,
            bytes,
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
                kind("ps_req", "control", 48000, 47988, 5184000),
                kind("notification", "data", 11851, 11833, 189616),
            ],
        };
        let sample = |round, now, hit_ratio, delivered| Sample {
            round,
            now,
            hit_ratio,
            overhead_pct: 6.5,
            delivered,
            expected: 1000 * round,
        };
        let counters = EngineCounters {
            queue_hwm: 5366,
            activations_start: 400,
            activations_round: 32000,
            activations_message: 1067532,
            activations_stop: 1,
            sched_batches: 33450,
            sched_overflow: 12,
        };
        let phases = [
            ("build", 41.25),
            ("warmup", 612.5),
            ("measure", 130.75),
            ("drain", 95.0),
        ];
        lines.push(to_json(
            None,
            &RunRecord {
                run: "fig6/vitis-low-rt25#7".to_string(),
                nodes: scale.nodes as u64,
                topics: scale.topics as u64,
                seed: scale.seed,
                perf: PerfSample::new(&counters, 739008),
                phase_ms: phases.iter().map(|&(name, ms)| (name.into(), ms)).collect(),
                stats,
                samples: vec![
                    sample(1, 1830, 0.40625, 410),
                    sample(2, 1860, 0.859375, 1720),
                ],
            },
        ));
        lines.push(to_json(
            None,
            &RunRecord {
                run: "t/empty#0".to_string(),
                ..run_record(&[], Vec::new())
            },
        ));

        let mut text = lines.join("\n");
        text.push('\n');
        // A BENCH document: header, two entries, trailer.
        text.push_str(&crate::benchfmt::render(&[
            crate::benchfmt::BenchEntry::new("scale/vitis/2000/measure_ms", 4397.9, "ms"),
            crate::benchfmt::BenchEntry::new("weird \"name\"\nwith\tescapes", f64::NAN, "ratio"),
        ]));
        text
    }

    /// The fence of the record table: the one writer renders the golden
    /// values to the bytes the hand-written writers of PR 19 rendered them
    /// to, and the one reader reads every line back to a value that
    /// renders to the same bytes (which also covers the NaN that no `==`
    /// would).
    #[test]
    fn records_render_to_the_committed_golden_bytes_and_read_back() {
        use vitis_sim::record::{parse_value, read_record, Value};
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/records_v1.jsonl"
        );
        let want = std::fs::read_to_string(path).expect("tests/golden/records_v1.jsonl");
        assert_eq!(golden_records(), want);

        let (records, bench) = want.split_at(want.find("{\"schema\"").expect("BENCH document"));
        for line in records.lines() {
            let o = parse_value(line).unwrap_or_else(|| panic!("not JSON: {line}"));
            let run = o.get("run").and_then(Value::as_str);
            let back = match o.get("type").and_then(Value::as_str) {
                Some("run") => to_json(None, &read_record::<RunRecord>(&o).unwrap()),
                _ => to_json(run, &read_record::<TraceEvent>(&o).unwrap()),
            };
            assert_eq!(back, line);
        }
        let entries = crate::benchfmt::parse(bench).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(crate::benchfmt::render(&entries), bench);
    }

    #[test]
    fn file_sink_streams_whole_flushed_lines() {
        let path = std::env::temp_dir().join(format!("obs_sink_test_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let sink = Sink(Mutex::new(None));
        sink.open(&path_s).unwrap();
        let mut batch = Batch::default();
        for round in [1, 2] {
            let (now, alive) = (64 * round, 10);
            batch.push(None, &TraceEvent::Round { round, now, alive });
        }
        sink.submit(&batch);
        // Lines are durable immediately — read back without dropping the
        // sink, as a killed process would leave them.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            on_disk,
            "{\"type\":\"round\",\"round\":1,\"now\":64,\"alive\":10}\n\
             {\"type\":\"round\",\"round\":2,\"now\":128,\"alive\":10}\n"
        );
        assert_eq!(sink.status(), Some((path_s, 2)));
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
        assert_eq!(Obs::global().metrics.status(), None);
        assert_eq!(Obs::global().trace.status(), None);
    }
}
