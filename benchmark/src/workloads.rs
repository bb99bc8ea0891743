//! The four benchmark workloads.
//!
//! Each workload generates every input from the seed, builds the system
//! through the public constructors, and drives it from one thread in a
//! closed loop: the next `run_rounds` / `publish` / `set_online` call is
//! issued when the previous one returns. `set_parallel_rounds(false)`
//! keeps the engine on its serial path (the box has two cores and the
//! parent process waits on the other).
//!
//! A run has a timed **set-up** phase (input generation + construction,
//! plus warm-up where the workload measures a converged overlay), a timed
//! **measured** phase, and an untimed **post** phase (health probe,
//! overlay audit, and — traced runs only — the product's own analysis
//! calls and the kernel replays).

use crate::host::{read_rss, thread_cpu_ns};
use crate::probe::{Probe, NOMINAL_NS_PER_OP};
use crate::replay;
use crate::spans::{SpanId, Spans};
use std::collections::BTreeMap;
use std::time::Instant;
use vitis::monitor::PubSubStats;
use vitis::runtime::{PubSubProtocol, SystemRuntime};
use vitis::system::{PubSub, SystemParams, VitisSystem};
use vitis::topic::{TopicId, TopicSet};
use vitis::topo;
use vitis_baselines::{OptSystem, RvrSystem};
use vitis_overlay::rt::RtParams;
use vitis_sim::antientropy::AeConfig;
use vitis_sim::churn::{ChurnKind, ChurnTrace};
use vitis_sim::engine::EngineStats;
use vitis_sim::fault::{FaultEpisode, FaultPlan, LossScope, Span};
use vitis_sim::perf::EngineCounters;
use vitis_sim::time::Duration;
use vitis_sim::trace::{Trace, TraceHandle};
use vitis_workloads::{Correlation, SkypeModel, SubscriptionModel};

/// Workload names, in the order every report lists them.
pub const GOSSIP: &str = "gossip_2k";
pub const PUBLISH: &str = "publish_1k";
pub const CHURN_REPAIR: &str = "churn_repair_300";
pub const BASELINES: &str = "baselines";
pub const WORKLOADS: [&str; 4] = [GOSSIP, PUBLISH, CHURN_REPAIR, BASELINES];

/// Why each workload exists (one line each; `BENCHMARK.json` carries them).
pub const WHY: [&str; 4] = [
    "Control plane only: a cold start of 2000 nodes exercises peer sampling, T-Man merges, gateway election, relay refresh and the scheduler; a small probe batch just defines the delivery metrics.",
    "Data plane: a converged 1000-node overlay under 4000 publications, dominated by forwarding, relay fan-out and delivery accounting; a control-plane gain should show here only in setup_s.",
    "The same layers used differently: trace-driven join/leave, a loss burst and a partition through FaultedNetwork, hardening and anti-entropy on, loss attribution every window.",
    "RVR then OPT bypass core::{node,gateway,relay} but share sim, overlay, runtime and monitor: a Vitis-only gain predicts no change here, a shared-layer gain must show.",
];

/// Ring capacity of the product trace installed by traced runs.
const TRACE_CAPACITY: usize = 1 << 20;
/// Topology-sampler period (rounds) of traced runs.
const TOPO_EVERY: u64 = 10;
/// Step time after which the machine-speed probe is sampled again.
const PROBE_EVERY_NS: u64 = 100_000_000;
/// Ring accuracy at which `core.runtime.converge_round` fires.
const CONVERGED: f64 = 0.99;

/// All sizes of one benchmark configuration. `full()` is what every
/// reported number uses; `smoke()` is a tenth of the nodes and rounds and
/// exists only to exercise the code paths quickly.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// How many times each workload performs its set-up (all but the last
    /// system are dropped): short set-ups are timed several times over and
    /// `setup_s` is the median one, not a single few-millisecond sample.
    pub gossip_setups: u32,
    pub publish_setups: u32,
    pub churn_setups: u32,
    pub base_setups: u32,

    pub gossip_nodes: usize,
    pub gossip_cold_rounds: u64,
    pub gossip_probe_events: usize,
    pub gossip_drain_rounds: u64,

    pub publish_nodes: usize,
    pub publish_warmup_rounds: u64,
    pub publish_windows: u64,
    pub publish_rounds_per_window: u64,
    pub publish_events_per_round: usize,

    pub churn_nodes: usize,
    pub churn_horizon_hours: u64,
    pub churn_window_hours: u64,
    pub churn_rounds_per_hour: u64,
    pub churn_events_per_window: usize,

    pub rvr_nodes: usize,
    pub opt_nodes: usize,
    pub base_warmup_rounds: u64,
    pub base_windows: u64,
    pub base_rounds_per_window: u64,
    pub base_events_per_round: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            gossip_setups: 8,
            publish_setups: 1,
            churn_setups: 128,
            base_setups: 4,

            gossip_nodes: 2000,
            gossip_cold_rounds: 10,
            gossip_probe_events: 200,
            gossip_drain_rounds: 2,

            publish_nodes: 1000,
            publish_warmup_rounds: 30,
            publish_windows: 2,
            publish_rounds_per_window: 4,
            publish_events_per_round: 500,

            churn_nodes: 300,
            churn_horizon_hours: 48,
            churn_window_hours: 4,
            churn_rounds_per_hour: 8,
            churn_events_per_window: 50,

            rvr_nodes: 600,
            opt_nodes: 3000,
            base_warmup_rounds: 20,
            base_windows: 3,
            base_rounds_per_window: 4,
            base_events_per_round: 100,
        }
    }

    pub fn smoke() -> Sizes {
        let f = Sizes::full();
        Sizes {
            gossip_setups: 2,
            churn_setups: 2,
            base_setups: 2,
            gossip_nodes: f.gossip_nodes / 10,
            gossip_cold_rounds: 4,
            gossip_probe_events: f.gossip_probe_events / 10,
            publish_nodes: f.publish_nodes / 10,
            publish_warmup_rounds: 25,
            publish_windows: 1,
            publish_events_per_round: f.publish_events_per_round / 10,
            churn_nodes: f.churn_nodes / 3,
            churn_rounds_per_hour: 2,
            churn_events_per_window: f.churn_events_per_window / 5,
            rvr_nodes: f.rvr_nodes / 6,
            opt_nodes: f.opt_nodes / 10,
            base_warmup_rounds: 10,
            base_windows: 1,
            base_events_per_round: f.base_events_per_round / 10,
            ..f
        }
    }

    /// Population the per-node memory metric divides by.
    pub fn rss_population(&self, workload: &str) -> usize {
        match workload {
            GOSSIP => self.gossip_nodes,
            PUBLISH => self.publish_nodes,
            CHURN_REPAIR => self.churn_nodes,
            // RVR owns the process peak: ≈ 179 MB when it finishes, against
            // ≤ 90 MB resident at any point of the five times larger OPT.
            _ => self.rvr_nodes,
        }
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every metric this run computed, by name. Untraced runs fill the
    /// end-to-end metrics and the deterministic counts; traced runs add
    /// span timings, memory checkpoints and kernel replays.
    pub values: BTreeMap<String, f64>,
    /// Hash of every simulated statistic (see [`Digest`]).
    pub sim_digest: u64,
    /// Publish calls issued while at least one node was online.
    pub attempted: u64,
    /// Those that returned `None`.
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub check_failures: Vec<String>,
}

/// FNV-1a over the simulated statistics: equal digests mean the repeats
/// (and the traced and untraced run) simulated exactly the same thing.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.u64(s.len() as u64);
    }
    /// The top 48 bits: a report carries every number as an `f64`.
    pub fn finish(self) -> u64 {
        self.0 >> 16
    }
}

/// Time spent in a timed stretch of the run.
#[derive(Clone, Copy, Debug, Default)]
struct Clock {
    /// On-CPU nanoseconds of the driver thread, as read.
    cpu_ns: u64,
    wall_ns: u64,
    /// On-CPU nanoseconds scaled to the quiet machine: each *step* (one
    /// round with the publications before it, a window close, a build) is
    /// scaled by the probe samples around it. See [`crate::probe`].
    calibrated_ns: f64,
}

impl std::ops::AddAssign for Clock {
    fn add_assign(&mut self, other: Clock) {
        self.cpu_ns += other.cpu_ns;
        self.wall_ns += other.wall_ns;
        self.calibrated_ns += other.calibrated_ns;
    }
}

/// Engine counters at one instant; two marks bracket a measured phase.
#[derive(Clone, Copy)]
struct EngineMark {
    counters: EngineCounters,
    stats: EngineStats,
}

fn mark<P: PubSubProtocol>(sys: &SystemRuntime<P>) -> EngineMark {
    EngineMark {
        counters: sys.engine().perf_counters(),
        stats: sys.engine().stats(),
    }
}

/// Everything a run accumulates across its windows and systems.
#[derive(Default)]
struct Acc {
    publish_calls: u64,
    publish_none: u64,
    windows: u64,
    expected: u64,
    delivered: u64,
    useful: u64,
    relay: u64,
    /// Σ `mean_hops × delivered` over windows.
    hop_sum: f64,
    control_sent: u64,
    data_sent: u64,
    kind_sent: BTreeMap<String, u64>,
    net_event_drops: u64,
    loss_reports: u64,
    recovered: u64,
    // Engine deltas over the measured phase(s).
    act_start: u64,
    act_round: u64,
    act_message: u64,
    act_stop: u64,
    sched_batches: u64,
    sched_overflow: u64,
    queue_hwm: u64,
    messages_lost: u64,
    messages_to_dead: u64,
    messages_suppressed: u64,
    digest: Digest,
    failures: Vec<String>,
}

impl Acc {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Close a measurement window: fold its stats in and reset.
    fn take_window<P: PubSubProtocol>(&mut self, sys: &mut SystemRuntime<P>, spans: &mut Spans) {
        let s: PubSubStats = spans.time("core.monitor.stats", || sys.stats());
        self.windows += 1;
        let window = self.windows;
        self.check(s.delivered <= s.expected, || {
            format!(
                "window {window}: delivered {} > expected {}",
                s.delivered, s.expected
            )
        });
        self.expected += s.expected;
        self.delivered += s.delivered;
        self.useful += s.useful_msgs;
        self.relay += s.relay_msgs;
        self.hop_sum += s.mean_hops * s.delivered as f64;
        self.control_sent += s.control_sent;
        self.data_sent += s.data_sent;
        let drops = sys.engine().network_event_drops().len() as u64;
        self.net_event_drops += drops;
        let d = &mut self.digest;
        for v in [
            s.published,
            s.expected,
            s.delivered,
            s.useful_msgs,
            s.relay_msgs,
            u64::from(s.max_hops),
            s.max_latency_ticks,
            s.control_sent,
            s.data_sent,
            drops,
            sys.alive_count() as u64,
        ] {
            d.u64(v);
        }
        d.f64(s.mean_hops);
        d.f64(s.mean_latency_ticks);
        d.f64(s.control_bytes_per_round);
        for k in &s.traffic_by_kind {
            d.str(&k.kind);
            d.u64(k.sent);
            d.u64(k.delivered);
            *self.kind_sent.entry(k.kind.clone()).or_default() += k.sent;
        }
        spans.time("core.monitor.reset", || sys.reset_metrics());
    }

    /// Classify the current window's misses and check the exact-sum rule.
    /// Call before [`Acc::take_window`] (which resets the window).
    fn take_loss_report<P: PubSubProtocol>(&mut self, sys: &SystemRuntime<P>, spans: &mut Spans) {
        let report = spans.time("core.monitor.loss_report", || sys.loss_report());
        self.loss_reports += 1;
        let classified: u64 = report.by_reason.iter().map(|(_, c)| c).sum();
        self.check(report.delivered <= report.expected, || {
            format!(
                "loss report: delivered {} > expected {}",
                report.delivered, report.expected
            )
        });
        let missed = report.expected.saturating_sub(report.delivered);
        self.check(classified == missed, || {
            format!("loss report: buckets sum to {classified}, expected - delivered = {missed}")
        });
        for (reason, count) in &report.by_reason {
            self.digest.str(reason.as_str());
            self.digest.u64(*count);
        }
    }

    fn add_engine(&mut self, from: &EngineMark, to: &EngineMark) {
        let (a, b) = (&from.counters, &to.counters);
        self.act_start += b.activations_start - a.activations_start;
        self.act_round += b.activations_round - a.activations_round;
        self.act_message += b.activations_message - a.activations_message;
        self.act_stop += b.activations_stop - a.activations_stop;
        self.sched_batches += b.sched_batches - a.sched_batches;
        self.sched_overflow += b.sched_overflow - a.sched_overflow;
        self.queue_hwm = self.queue_hwm.max(b.queue_hwm);
        self.messages_lost += to.stats.messages_lost - from.stats.messages_lost;
        self.messages_to_dead += to.stats.messages_to_dead - from.stats.messages_to_dead;
        self.messages_suppressed += to.stats.messages_suppressed - from.stats.messages_suppressed;
        for v in [
            b.queue_hwm,
            b.activations_start,
            b.activations_round,
            b.activations_message,
            b.activations_stop,
            b.sched_batches,
            b.sched_overflow,
            to.stats.messages_sent,
            to.stats.messages_delivered,
            to.stats.messages_lost,
            to.stats.messages_to_dead,
            to.stats.messages_suppressed,
            to.stats.rounds_executed,
        ] {
            self.digest.u64(v);
        }
    }

    fn activations(&self) -> u64 {
        self.act_start + self.act_round + self.act_message + self.act_stop
    }
}

/// The per-run harness state shared by all workloads.
struct Run<'a> {
    spans: &'a mut Spans,
    acc: Acc,
    values: BTreeMap<String, f64>,
    trace: Option<TraceHandle>,
    /// When the current step of the running clock started.
    timing: Option<(u64, Instant)>,
    /// The running clock.
    clock: Clock,
    /// The median set-up of each `setup` call, summed (`baselines` sets up
    /// two systems), and the measured phase(s).
    setup_time: Clock,
    measure_time: Clock,
    probe: Probe,
    /// The latest probe sample and the step time accumulated since.
    last_probe: f64,
    cpu_since_probe: u64,
    converge_round: Option<u64>,
    ring_accuracy: f64,
    /// The system under test runs behind a `FaultedNetwork` / with the
    /// anti-entropy layer on (selects which kernel counts apply).
    faulted: bool,
    repair: bool,
}

impl<'a> Run<'a> {
    fn new(spans: &'a mut Spans) -> Self {
        Run {
            trace: spans.recording().then(|| Trace::shared(TRACE_CAPACITY)),
            spans,
            acc: Acc::default(),
            values: BTreeMap::new(),
            timing: None,
            clock: Clock::default(),
            setup_time: Clock::default(),
            measure_time: Clock::default(),
            probe: Probe::new(),
            last_probe: NOMINAL_NS_PER_OP,
            cpu_since_probe: 0,
            converge_round: None,
            ring_accuracy: 0.0,
            faulted: false,
            repair: false,
        }
    }

    /// Whether this is the traced run.
    fn traced(&self) -> bool {
        self.spans.recording()
    }

    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Memory checkpoint: resident set now, without the probe's share.
    fn rss_checkpoint(&mut self, name: &str) {
        let kb = read_rss().now_kb.saturating_sub(self.probe.rss_kb) as f64;
        let slot = self.values.entry(name.to_string()).or_insert(0.0);
        *slot = slot.max(kb);
    }

    fn generate_subs(&mut self, nodes: usize, corr: Correlation, seed: u64) -> SystemParams {
        let model = SubscriptionModel::paper_scaled(nodes, corr);
        let subs = self
            .spans
            .time("workloads.subscriptions.generate", || model.generate(seed));
        let mut p = SystemParams::new(
            subs.into_iter().map(TopicSet::from_iter).collect(),
            model.num_topics,
        );
        p.seed = seed;
        p.cfg.est_n = nodes.max(2);
        p
    }

    /// Construct a system and, on traced runs, switch on the product's own
    /// watching (event trace + periodic topology sampler).
    fn build<P: PubSubProtocol>(&mut self, params: SystemParams, keep: bool) -> SystemRuntime<P> {
        self.faulted = !params.faults.is_empty();
        self.repair = params.repair.enabled;
        let mut sys = self
            .spans
            .time("core.runtime.build", || SystemRuntime::<P>::new(params));
        self.lap();
        sys.set_parallel_rounds(false);
        if let Some(trace) = self.trace.as_ref().filter(|_| keep) {
            sys.install_trace(trace.clone());
            sys.set_topo_sampling(Some(TOPO_EVERY));
        }
        if keep {
            self.rss_checkpoint("rss_kb.after_build");
        }
        sys
    }

    /// Start the clock from zero.
    fn start_clock(&mut self) {
        self.last_probe = self.probe.sample();
        self.cpu_since_probe = 0;
        self.clock = Clock::default();
        self.timing = Some((thread_cpu_ns(), Instant::now()));
    }

    /// Close the current step of the running clock.
    fn lap(&mut self) {
        let Some((cpu0, wall0)) = self.timing else {
            return;
        };
        let (cpu1, wall1) = (thread_cpu_ns(), Instant::now());
        // Probe again once enough work has passed (short steps share a
        // sample); a step is calibrated by the samples on either side.
        self.cpu_since_probe += cpu1 - cpu0;
        let before = self.last_probe;
        if self.cpu_since_probe >= PROBE_EVERY_NS {
            self.last_probe = self.probe.sample();
            self.cpu_since_probe = 0;
        }
        let probe = (before + self.last_probe) / 2.0;
        self.clock += Clock {
            cpu_ns: cpu1 - cpu0,
            wall_ns: (wall1 - wall0).as_nanos() as u64,
            calibrated_ns: (cpu1 - cpu0) as f64 * NOMINAL_NS_PER_OP / probe,
        };
        // The probe's own time belongs to no step.
        self.timing = Some((thread_cpu_ns(), Instant::now()));
    }

    /// Close the last step and stop the clock.
    fn stop_clock(&mut self) -> Clock {
        self.lap();
        self.timing = None;
        self.clock
    }

    /// The set-up phase: perform `make` `times` times, each on its own
    /// clock, keeping the last system (only that one gets the traced run's
    /// watching installed). The median set-up is what `setup_s` reports.
    fn setup<S>(&mut self, times: u32, make: impl Fn(&mut Self, bool) -> S) -> S {
        let span = self.spans.begin("bench.setup");
        let mut clocks = Vec::new();
        for _ in 1..times {
            self.start_clock();
            let discarded = make(self, false);
            clocks.push(self.stop_clock());
            drop(discarded);
        }
        self.start_clock();
        let sys = make(self, true);
        clocks.push(self.stop_clock());
        self.spans.end(span);
        clocks.sort_by(|a, b| a.calibrated_ns.total_cmp(&b.calibrated_ns));
        self.setup_time += clocks[clocks.len() / 2];
        sys
    }

    /// Start the measured phase.
    fn begin_measure(&mut self) -> SpanId {
        let span = self.spans.begin("bench.measure");
        self.start_clock();
        span
    }

    fn end_measure(&mut self, span: SpanId) {
        let clock = self.stop_clock();
        self.measure_time += clock;
        self.spans.end(span);
    }

    /// One gossip round: a step of its own, together with whatever the
    /// driver did since the previous step (the publications before it).
    fn round<P: PubSubProtocol>(&mut self, sys: &mut SystemRuntime<P>) {
        self.spans.time("core.runtime.round", || sys.run_rounds(1));
        self.lap();
    }

    /// Close a measurement window (stats + reset) as one step.
    fn close_window<P: PubSubProtocol>(&mut self, sys: &mut SystemRuntime<P>, loss_report: bool) {
        if loss_report {
            self.acc.take_loss_report(sys, self.spans);
        }
        self.acc.take_window(sys, self.spans);
        self.lap();
    }

    /// `count` publications round-robin over the topics from `cursor`.
    fn publish_round_robin<P: PubSubProtocol>(
        &mut self,
        sys: &mut SystemRuntime<P>,
        cursor: &mut u32,
        count: usize,
    ) {
        let topics = sys.workload().num_topics() as u32;
        for _ in 0..count {
            let topic = TopicId(*cursor);
            *cursor = (*cursor + 1) % topics;
            let got = self
                .spans
                .time("core.runtime.publish", || sys.publish(topic));
            self.acc.publish_calls += 1;
            self.acc.publish_none += u64::from(got.is_none());
        }
    }

    /// `windows` × [`rounds` × (`events` publications, one round) + one
    /// drain round], each window closed with stats + reset.
    fn publish_windows<P: PubSubProtocol>(
        &mut self,
        sys: &mut SystemRuntime<P>,
        windows: u64,
        rounds: u64,
        events: usize,
        loss_report_on_last: bool,
    ) {
        let mut cursor = 0u32;
        for w in 0..windows {
            let span = self.spans.begin("bench.window");
            for _ in 0..rounds {
                self.publish_round_robin(sys, &mut cursor, events);
                self.round(sys);
            }
            self.round(sys);
            self.close_window(sys, loss_report_on_last && w + 1 == windows);
            self.spans.end(span);
        }
    }

    /// Run the kernel replays (traced runs only) and scale their ns/op to
    /// the quiet machine, like every other time the report multiplies
    /// them against.
    fn replay(&mut self, kernels: impl FnOnce(&mut Spans, &mut BTreeMap<String, f64>)) {
        if !self.traced() {
            return;
        }
        let before = self.probe.sample();
        kernels(self.spans, &mut self.values);
        let factor = NOMINAL_NS_PER_OP / ((before + self.probe.sample()) / 2.0);
        for k in crate::metrics::KERNELS {
            if let Some(ns) = self.values.get_mut(&format!("{}_ns", k.layer)) {
                *ns *= factor;
            }
        }
    }

    /// Sample ring accuracy after a round until it first reaches
    /// [`CONVERGED`] (traced runs only).
    fn sample_convergence(&mut self, round: u64, accuracy: impl FnOnce() -> f64) {
        if self.traced() && self.converge_round.is_none() {
            let acc = self.spans.time("bench.converge_sample", accuracy);
            if acc >= CONVERGED {
                self.converge_round = Some(round);
            }
        }
    }

    /// Post phase shared by every system: health probe, snapshot + audit,
    /// and on traced runs the product's analysis calls.
    fn post<P: PubSubProtocol>(&mut self, sys: &SystemRuntime<P>, label: &str, audit_gate: bool) {
        let probe = self
            .spans
            .time("core.runtime.health_probe", || sys.health_probe());
        if let Some(r) = probe.ring_accuracy {
            self.ring_accuracy = r;
            self.acc.digest.f64(r);
        }
        self.acc.digest.u64(probe.alive);
        self.acc.digest.f64(probe.mean_degree);
        let snap = self
            .spans
            .time("core.topo.snapshot", || sys.overlay_snapshot());
        let violations = self.spans.time("core.topo.audit", || topo::audit(&snap));
        self.add("core.topo.violations", violations.len() as f64);
        if audit_gate {
            // In a stable, fault-free overlay no link may point at a dead
            // node, no view may overflow and no rendezvous may keep an
            // upstream. A dangling upstream (`asymmetric_upstream`) does
            // turn up now and then (about one link in one of twenty seeds,
            // healed by the soft-state TTL), so that kind gets a small
            // allowance instead of making the gate depend on the seed.
            let (dangling, hard): (Vec<_>, Vec<_>) = violations
                .iter()
                .partition(|v| v.kind == "asymmetric_upstream");
            let allowance = sys.alive_count() / 200;
            self.acc.check(hard.is_empty() && dangling.len() <= allowance, || {
                format!(
                    "{label}: topo::audit found {} violations ({} dangling upstreams, {allowance} allowed), first: {:?}",
                    violations.len(),
                    dangling.len(),
                    hard.first().or(dangling.first())
                )
            });
        }
        let nodes = sys.alive_count().max(1) as f64;
        self.set(
            "core.runtime.footprint_bytes_per_node",
            sys.footprint_estimate() as f64 / nodes,
        );
        self.acc.recovered += sys.recovered_deliveries();
        if self.traced() {
            let metrics = self
                .spans
                .time("core.topo.analyze", || topo::analyze(&snap, usize::MAX));
            std::hint::black_box(&metrics);
            // The monitor window was reset by the last `take_window`, so
            // this times the classifier's fixed cost (graph + scan).
            let report = self
                .spans
                .time("core.monitor.loss_report", || sys.loss_report());
            std::hint::black_box(&report);
        }
    }

    /// Serialise the product trace (to a sink: the disk is not what is
    /// being measured) and record its counters.
    fn finish_trace(&mut self) {
        let Some(trace) = self.trace.take() else {
            return;
        };
        let t = trace.borrow();
        self.spans.time("sim.trace.write_jsonl", || {
            t.write_jsonl(&mut std::io::sink())
                .expect("a sink cannot fail")
        });
        self.values
            .insert("sim.trace.recorded".into(), t.total_recorded() as f64);
        self.values
            .insert("sim.trace.evicted".into(), t.evicted() as f64);
    }

    /// Turn the accumulated state into the outcome's named values.
    /// Per-layer timings read off the driver's spans (traced run).
    fn span_metrics(&mut self) {
        use crate::metrics::Percentiles;
        let spans = &*self.spans;
        let mut out: Vec<(&str, f64)> = [
            (
                "workloads.subscriptions.generate_ms",
                "workloads.subscriptions.generate",
            ),
            ("workloads.skype.generate_ms", "workloads.skype.generate"),
            ("core.runtime.build_ms", "core.runtime.build"),
            ("core.runtime.health_probe_ms", "core.runtime.health_probe"),
            ("core.monitor.stats_ms", "core.monitor.stats"),
            ("core.monitor.reset_ms", "core.monitor.reset"),
            ("core.monitor.loss_report_ms", "core.monitor.loss_report"),
            ("core.topo.snapshot_ms", "core.topo.snapshot"),
            ("core.topo.analyze_ms", "core.topo.analyze"),
            ("core.topo.audit_ms", "core.topo.audit"),
            ("sim.trace.write_jsonl_ms", "sim.trace.write_jsonl"),
        ]
        .map(|(metric, span)| (metric, spans.total_ms(span)))
        .to_vec();
        let p50 = |span: &str| Percentiles::of(spans.durations_ns(span)).p50;
        let rounds = Percentiles::of(spans.durations_ns("core.runtime.round"));
        out.extend([
            (
                "baselines.rvr.wall_s",
                spans.total_ms("baselines.rvr") / 1e3,
            ),
            (
                "baselines.opt.wall_s",
                spans.total_ms("baselines.opt") / 1e3,
            ),
            ("core.runtime.round_ms_p50", rounds.p50 / 1e6),
            ("core.runtime.round_ms_hi", rounds.hi / 1e6),
            ("core.runtime.round_hi_pct", rounds.hi_pct),
            ("core.runtime.round_ms_max", rounds.max / 1e6),
            ("core.runtime.rounds", rounds.count as f64),
            (
                "core.runtime.publish_us_p50",
                p50("core.runtime.publish") / 1e3,
            ),
            (
                "core.runtime.set_online_us_p50",
                p50("core.runtime.set_online") / 1e3,
            ),
            (
                "core.runtime.converge_round",
                self.converge_round.unwrap_or(0) as f64,
            ),
        ]);
        for (name, v) in out {
            self.set(name, v);
        }
    }

    /// The count each replayed kernel's ns/op is multiplied by, stored as
    /// `_count.<layer>` (`_`-prefixed entries are inputs of the report, not
    /// metrics).
    fn kernel_counts(&mut self, acc: &Acc) {
        let sent = |kind: &str| acc.kind_sent.get(kind).copied().unwrap_or(0) as f64;
        let value = |name: &str| self.values.get(name).copied().unwrap_or(0.0);
        let when = |on: bool, v: f64| if on { v } else { 0.0 };
        let merges = sent("rt_req") + sent("rt_resp");
        let (rounds, messages) = (acc.act_round as f64, acc.act_message as f64);
        let counts = [
            ("sim.engine.null_activation", acc.activations() as f64),
            ("sim.network.latency", messages),
            ("sim.fault.faulted_latency", when(self.faulted, messages)),
            (
                "overlay.peer_sampling.exchange",
                sent("ps_req") + sent("ps_resp"),
            ),
            ("overlay.rt.select_neighbors", merges),
            ("overlay.rt.build_exchange_buffer", merges),
            ("overlay.routing.next_hop", sent("relay_req") + sent("join")),
            ("overlay.graph.components", acc.loss_reports as f64),
            (
                "core.utility.utility",
                merges * value("_candidates_per_merge"),
            ),
            (
                "core.gateway.revise_proposal",
                rounds * value("_subs_per_node"),
            ),
            ("core.relay.fanout", (acc.useful + acc.relay) as f64),
            ("core.relay.tick_expire", rounds),
            ("core.monitor.record_control_tx", acc.control_sent as f64),
            ("core.monitor.record_delivery", acc.useful as f64),
            ("core.monitor.hop_path_extend", sent("notification")),
            ("sim.antientropy.digest", when(self.repair, rounds)),
            ("sim.antientropy.on_digest", sent("ae_digest")),
            ("sim.trace.record", value("sim.trace.recorded")),
        ];
        for (layer, count) in counts {
            self.set(&format!("_count.{layer}"), count);
        }
    }

    fn finish(mut self, workload: &str, sizes: &Sizes) -> Outcome {
        self.finish_trace();
        let rss = read_rss();
        let acc = std::mem::take(&mut self.acc);
        let secs = |c: Clock| {
            (
                c.calibrated_ns / 1e9,
                c.cpu_ns as f64 / 1e9,
                c.wall_ns as f64 / 1e9,
            )
        };
        let (setup_s, setup_raw, setup_wall) = secs(self.setup_time);
        let (cpu_s, measure_raw, measure_wall) = secs(self.measure_time);
        for (name, v) in [
            ("bench.setup.cpu_raw_s", setup_raw),
            ("bench.measure.cpu_raw_s", measure_raw),
            ("bench.setup.wall_s", setup_wall),
            ("bench.measure.wall_s", measure_wall),
            // Share of the measured phase the thread was kept off the CPU,
            // and how much slower than the quiet box the machine ran.
            (
                "bench.measure.stall_pct",
                100.0 * (1.0 - measure_raw / measure_wall),
            ),
            ("bench.machine_slowdown", measure_raw / cpu_s),
        ] {
            self.set(name, v);
        }
        let peak_kb = rss.peak_kb.saturating_sub(self.probe.rss_kb) as f64;
        let delivered = acc.delivered.max(1) as f64;
        let node_rounds = acc.act_round.max(1) as f64;
        let data_msgs = acc.useful + acc.relay;

        // End-to-end metrics.
        self.set("setup_s", setup_s);
        self.set("cpu_s", cpu_s);
        self.set("node_rounds_per_s", acc.act_round as f64 / cpu_s);
        self.set("activations_per_s", acc.activations() as f64 / cpu_s);
        self.set("deliveries_per_s", acc.delivered as f64 / cpu_s);
        self.set(
            "peak_rss_kb_per_node",
            peak_kb / sizes.rss_population(workload) as f64,
        );
        self.set(
            "hit_ratio",
            acc.delivered as f64 / acc.expected.max(1) as f64,
        );
        self.set(
            "overhead_pct",
            100.0 * acc.relay as f64 / data_msgs.max(1) as f64,
        );
        self.set("mean_hops", acc.hop_sum / delivered);
        self.set(
            "control_msgs_per_node_round",
            acc.control_sent as f64 / node_rounds,
        );
        self.set("data_msgs_per_delivery", acc.data_sent as f64 / delivered);
        self.set("ring_accuracy", self.ring_accuracy);

        // Deterministic per-layer counts.
        self.set("sim.engine.activations_round", acc.act_round as f64);
        self.set("sim.engine.activations_message", acc.act_message as f64);
        self.set("sim.engine.activations_start", acc.act_start as f64);
        self.set("sim.engine.activations_stop", acc.act_stop as f64);
        self.set("sim.engine.queue_hwm", acc.queue_hwm as f64);
        self.set("sim.engine.messages_lost", acc.messages_lost as f64);
        self.set("sim.engine.messages_to_dead", acc.messages_to_dead as f64);
        self.set(
            "sim.engine.messages_suppressed",
            acc.messages_suppressed as f64,
        );
        self.set("sim.event.sched_batches", acc.sched_batches as f64);
        self.set("sim.event.sched_overflow", acc.sched_overflow as f64);
        self.set(
            "sim.event.events_per_batch",
            acc.activations() as f64 / acc.sched_batches.max(1) as f64,
        );
        self.set(
            "sim.engine.msgs_per_node_round",
            acc.act_message as f64 / node_rounds,
        );
        for kind in crate::metrics::MSG_KINDS {
            let sent = acc.kind_sent.get(kind).copied().unwrap_or(0);
            self.set(&format!("msg.{kind}.sent"), sent as f64);
        }
        self.set("core.monitor.useful_msgs", acc.useful as f64);
        self.set("core.monitor.relay_msgs", acc.relay as f64);
        self.set(
            "core.node.notifications_per_delivery",
            acc.kind_sent.get("notification").copied().unwrap_or(0) as f64 / delivered,
        );
        self.set("sim.fault.net_event_drops", acc.net_event_drops as f64);
        self.set("sim.antientropy.recovered", acc.recovered as f64);
        self.set(
            "sim.antientropy.recovered_share",
            acc.recovered as f64 / acc.expected.max(1) as f64,
        );
        self.set(
            "sim.antientropy.exhausted",
            vitis_sim::antientropy::exhausted_pull_status().unwrap_or(0) as f64,
        );
        self.set("core.monitor.missed", (acc.expected - acc.delivered) as f64);
        self.set("rss_kb.peak", peak_kb);

        self.rss_checkpoint("rss_kb.end");
        if self.traced() {
            self.span_metrics();
            self.kernel_counts(&acc);
        }

        let mut digest = acc.digest;
        digest.u64(acc.publish_calls);
        digest.u64(acc.publish_none);
        digest.u64(acc.recovered);
        Outcome {
            values: self.values,
            sim_digest: digest.finish(),
            attempted: acc.publish_calls.max(1),
            failed: acc.publish_none,
            check_failures: acc.failures,
        }
    }
}

/// Run one workload once. `spans.recording()` selects the traced run.
pub fn run(workload: &str, seed: u64, sizes: &Sizes, spans: &mut Spans) -> Result<Outcome, String> {
    let mut run = Run::new(spans);
    match workload {
        GOSSIP => gossip(&mut run, seed, sizes),
        PUBLISH => publish(&mut run, seed, sizes),
        CHURN_REPAIR => churn_repair(&mut run, seed, sizes),
        BASELINES => baselines(&mut run, seed, sizes),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }
    Ok(run.finish(workload, sizes))
}

/// Control plane only: a cold start, then a small probe batch so the
/// delivery metrics are defined.
fn gossip(run: &mut Run<'_>, seed: u64, z: &Sizes) {
    let mut sys: VitisSystem = run.setup(z.gossip_setups, |run, keep| {
        let params = run.generate_subs(z.gossip_nodes, Correlation::High, seed);
        run.build(params, keep)
    });

    let measure = run.begin_measure();
    let from = mark(&sys);
    run.spans.time("core.monitor.reset", || sys.reset_metrics());
    for r in 1..=z.gossip_cold_rounds {
        run.round(&mut sys);
        run.sample_convergence(r, || sys.ring_accuracy());
    }
    run.rss_checkpoint("rss_kb.after_warmup");
    let mut cursor = 0u32;
    run.publish_round_robin(&mut sys, &mut cursor, z.gossip_probe_events);
    for _ in 0..z.gossip_drain_rounds {
        run.round(&mut sys);
    }
    run.close_window(&mut sys, false);
    run.acc.add_engine(&from, &mark(&sys));
    run.end_measure(measure);

    let post = run.spans.begin("bench.post");
    run.post(&sys, "gossip", false);
    run.replay(|spans, values| replay::run_vitis(&sys, spans, values));
    run.spans.end(post);
}

/// Data plane: a converged overlay under a sustained publication load.
fn publish(run: &mut Run<'_>, seed: u64, z: &Sizes) {
    let mut sys: VitisSystem = run.setup(z.publish_setups, |run, keep| {
        let params = run.generate_subs(z.publish_nodes, Correlation::High, seed);
        let mut sys: VitisSystem = run.build(params, keep);
        for r in 1..=z.publish_warmup_rounds {
            run.round(&mut sys);
            run.sample_convergence(r, || sys.ring_accuracy());
        }
        run.spans.time("core.monitor.reset", || sys.reset_metrics());
        run.rss_checkpoint("rss_kb.after_warmup");
        sys
    });

    let measure = run.begin_measure();
    let from = mark(&sys);
    run.publish_windows(
        &mut sys,
        z.publish_windows,
        z.publish_rounds_per_window,
        z.publish_events_per_round,
        true,
    );
    run.acc.add_engine(&from, &mark(&sys));
    run.end_measure(measure);

    let hit = run.acc.delivered as f64 / run.acc.expected.max(1) as f64;
    run.acc.check(hit >= 0.99, || {
        format!("publish: hit ratio {hit:.4} < 0.99 on a converged, fault-free overlay")
    });
    let post = run.spans.begin("bench.post");
    run.post(&sys, "publish", true);
    run.replay(|spans, values| replay::run_vitis(&sys, spans, values));
    run.spans.end(post);
}

/// Overlay mutation beside dissemination: trace-driven churn, a loss
/// burst, a partition, the hardening switches and anti-entropy repair.
fn churn_repair(run: &mut Run<'_>, seed: u64, z: &Sizes) {
    let n = z.churn_nodes;
    let h = z.churn_horizon_hours;
    let model = SkypeModel {
        num_nodes: n,
        horizon_hours: h as f64,
        flash_crowd_hour: h as f64 * 2.0 / 3.0,
        mean_off_hours: 10.0,
        ..SkypeModel::default()
    };
    let tph = model.ticks_per_hour;
    let (mut sys, churn): (VitisSystem, ChurnTrace) = run.setup(z.churn_setups, |run, keep| {
        let churn = run
            .spans
            .time("workloads.skype.generate", || model.generate(seed));
        let mut params = run.generate_subs(n, Correlation::Low, seed);
        run.lap();
        params.round_period = Duration(tph / z.churn_rounds_per_hour);
        params.grace = Duration(2 * params.round_period.ticks());
        params.faults = FaultPlan::new(vec![
            FaultEpisode::LossBurst {
                prob: 0.2,
                span: Span::new(h * 7 / 24 * tph, h * 10 / 24 * tph),
                scope: LossScope::All,
            },
            FaultEpisode::Partition {
                groups: vec![(0..n as u32 / 4).collect()],
                span: Span::new(h / 2 * tph, h * 7 / 12 * tph),
            },
        ])
        .expect("the fault plan is valid by construction");
        params.cfg.publish_retries = 2;
        params.cfg.gateway_failover = true;
        params.cfg.max_event_hops = 32;
        params.repair = AeConfig::on();
        let mut sys: VitisSystem = run.build(params, keep);
        // The trace assumes everyone starts offline.
        for logical in 0..n as u32 {
            run.spans
                .time("core.runtime.set_online", || sys.set_online(logical, false));
        }
        run.rss_checkpoint("rss_kb.after_warmup");
        (sys, churn)
    });

    let measure = run.begin_measure();
    let from = mark(&sys);
    let round_ticks = tph / z.churn_rounds_per_hour;
    let events = churn.events();
    let mut cursor = 0usize;
    let mut churn_ops = 0u64;
    let mut hour = 0u64;
    while hour < h {
        let window = run.spans.begin("bench.window");
        let window_end = (hour + z.churn_window_hours).min(h) * tph;
        run.spans.time("core.monitor.reset", || sys.reset_metrics());
        if sys.alive_count() > 0 {
            for _ in 0..z.churn_events_per_window {
                let got = run
                    .spans
                    .time("core.runtime.publish", || sys.publish_weighted());
                run.acc.publish_calls += 1;
                run.acc.publish_none += u64::from(got.is_none());
            }
        }
        // Replay the churn trace one gossip round at a time.
        while sys.now().ticks() < window_end {
            let round = run.spans.begin("core.runtime.round");
            let round_end = (sys.now().ticks() + round_ticks).min(window_end);
            while cursor < events.len() && events[cursor].time.ticks() < round_end {
                let e = events[cursor];
                cursor += 1;
                let now = sys.now().ticks();
                if e.time.ticks() > now {
                    run.spans.time("core.runtime.run_ticks", || {
                        sys.run_ticks(e.time.ticks() - now)
                    });
                }
                run.spans.time("core.runtime.set_online", || {
                    sys.set_online(e.node, e.kind == ChurnKind::Join)
                });
                churn_ops += 1;
            }
            let now = sys.now().ticks();
            if round_end > now {
                run.spans
                    .time("core.runtime.run_ticks", || sys.run_ticks(round_end - now));
            }
            run.spans.end(round);
            run.lap();
        }
        run.close_window(&mut sys, true);
        run.spans.end(window);
        hour += z.churn_window_hours;
    }
    run.acc.add_engine(&from, &mark(&sys));
    run.acc.digest.u64(churn_ops);
    run.end_measure(measure);
    run.set("core.runtime.churn_ops", churn_ops as f64);

    let post = run.spans.begin("bench.post");
    run.post(&sys, "churn_repair", false);
    run.replay(|spans, values| replay::run_vitis(&sys, spans, values));
    run.spans.end(post);
}

/// The two comparison systems: they bypass `core::{node,gateway,relay}`
/// but share the simulator, the overlay substrate, the runtime and the
/// monitor with Vitis.
fn baselines(run: &mut Run<'_>, seed: u64, z: &Sizes) {
    fn one<P: PubSubProtocol>(
        run: &mut Run<'_>,
        label: &'static str,
        nodes: usize,
        seed: u64,
        z: &Sizes,
        after: impl FnOnce(&mut Run<'_>, &SystemRuntime<P>),
    ) {
        let mut sys: SystemRuntime<P> = run.setup(z.base_setups, |run, keep| {
            let params = run.generate_subs(nodes, Correlation::High, seed);
            run.build(params, keep)
        });

        let measure = run.begin_measure();
        let system = run.spans.begin(label);
        let from = mark(&sys);
        let (exp0, del0) = (run.acc.expected, run.acc.delivered);
        run.spans.time("core.monitor.reset", || sys.reset_metrics());
        for _ in 0..z.base_warmup_rounds {
            run.round(&mut sys);
        }
        // Close the (publication-free) warm-up window so its control
        // traffic is counted, then measure the publication windows.
        run.close_window(&mut sys, false);
        run.rss_checkpoint("rss_kb.after_warmup");
        run.publish_windows(
            &mut sys,
            z.base_windows,
            z.base_rounds_per_window,
            z.base_events_per_round,
            false,
        );
        run.acc.add_engine(&from, &mark(&sys));
        run.spans.end(system);
        run.end_measure(measure);
        let hit = (run.acc.delivered - del0) as f64 / (run.acc.expected - exp0).max(1) as f64;
        run.set(&format!("{label}.hit_ratio"), hit);

        let post = run.spans.begin("bench.post");
        run.post(&sys, label, false);
        after(run, &sys);
        run.spans.end(post);
    }
    one::<vitis_baselines::RvrProtocol>(
        run,
        "baselines.rvr",
        z.rvr_nodes,
        seed,
        z,
        |run, sys: &RvrSystem| {
            // RVR's table is Vitis's with every non-ring slot small-world and a
            // zero utility (see `RvrNode::rt_params`).
            run.replay(|spans, values| {
                let cfg = vitis::config::VitisConfig::default();
                let live = replay::live_state(
                    sys,
                    |n| n.routing_table(),
                    RtParams {
                        rt_size: cfg.rt_size,
                        k_sw: cfg.rt_size - 2,
                        est_n: z.rvr_nodes,
                    },
                    cfg.age_threshold,
                    None,
                    0,
                );
                let span = spans.begin("bench.replay");
                replay::run_shared(&live, values);
                spans.end(span);
            });
        },
    );
    // RVR is dropped here, before OPT is built.
    one::<vitis_baselines::OptProtocol>(
        run,
        "baselines.opt",
        z.opt_nodes,
        seed,
        z,
        |_, _: &OptSystem| {},
    );
}
