//! The metric tables: every name the benchmark emits, with its unit,
//! direction and bound, plus the small statistics the reports use.
//!
//! `BENCHMARK.json` lists exactly these names (a test checks it).

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far `compare` lets a simulated metric move the wrong way between
/// two sets of the same seed before the row reads "worse".
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Share of the first set's value.
    Rel(f64),
    /// Absolute amount, in the metric's unit.
    Abs(f64),
}

impl Tolerance {
    pub fn amount(self, base: f64) -> f64 {
        match self {
            Tolerance::Rel(r) => r * base.abs(),
            Tolerance::Abs(a) => a,
        }
    }

    pub fn describe(self) -> String {
        match self {
            Tolerance::Rel(r) => format!("{:.0}%", r * 100.0),
            Tolerance::Abs(a) => format!("{a} abs"),
        }
    }
}

/// Where a metric's value comes from, which decides how the repeats of a
/// run are combined and what `compare` holds it to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Host time or memory: differs from run to run. A run reports the
    /// median of its repeats and `compare` applies `bound`.
    Host,
    /// A simulated quantity: bit-identical in every repeat of a seed (a
    /// gate checks it). Between two sets of the same seed `compare`
    /// applies this tolerance, the issue's; `bound` is wider because the
    /// external driver compares medians over *different* seeds.
    Simulated(Tolerance),
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `BENCHMARK.json`'s `bound`: the share of the parent's median a
    /// later change may lose. Three times the widest ten-seed spread
    /// measured on any workload, rounded up to a whole percent, at most
    /// 0.25 (README, "Where the bounds come from").
    pub bound: f64,
    pub kind: Kind,
    pub definition: &'static str,
}

impl EndToEnd {
    /// What `compare` allows between two sets of the same seed.
    pub fn tolerance(&self) -> Tolerance {
        match self.kind {
            Kind::Host => Tolerance::Rel(self.bound),
            Kind::Simulated(t) => t,
        }
    }
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
        definition: "calibrated on-CPU seconds of input generation + construction (+ warm-up to convergence on publish_1k): the median set-up of a repeat",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
        definition: "calibrated on-CPU seconds of the measured phase (one driver thread; wall-clock on a quiet machine)",
    },
    EndToEnd {
        name: "node_rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        definition: "on_round activations in the measured phase / cpu_s",
    },
    EndToEnd {
        name: "activations_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        definition: "all protocol activations (start+round+message+stop) in the measured phase / cpu_s",
    },
    EndToEnd {
        name: "deliveries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
        definition: "first-arrival (event, subscriber) deliveries / cpu_s",
    },
    EndToEnd {
        name: "peak_rss_kb_per_node",
        unit: "kB",
        better: Better::Lower,
        bound: 0.13,
        kind: Kind::Host,
        definition: "process VmHWM (without the probe) / population of the workload (RVR's on baselines: it owns the peak)",
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.06,
        kind: Kind::Simulated(Tolerance::Abs(0.002)),
        definition: "delivered / expected (event, subscriber) pairs, pooled over windows and systems",
    },
    EndToEnd {
        name: "overhead_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.17,
        kind: Kind::Simulated(Tolerance::Abs(0.5)),
        definition: "relay (uninterested-receiver) data messages / all data messages received",
    },
    EndToEnd {
        name: "mean_hops",
        unit: "hops",
        better: Better::Lower,
        bound: 0.11,
        kind: Kind::Simulated(Tolerance::Abs(0.05)),
        definition: "delivery-weighted mean hop count (the paper's propagation delay)",
    },
    EndToEnd {
        name: "control_msgs_per_node_round",
        unit: "count",
        better: Better::Lower,
        bound: 0.11,
        kind: Kind::Simulated(Tolerance::Rel(0.01)),
        definition: "control-class messages sent in the measured phase / on_round activations",
    },
    EndToEnd {
        name: "data_msgs_per_delivery",
        unit: "count",
        better: Better::Lower,
        bound: 0.13,
        kind: Kind::Simulated(Tolerance::Rel(0.01)),
        definition: "data-class messages sent / deliveries (network cost of one useful delivery)",
    },
    EndToEnd {
        name: "ring_accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.23,
        kind: Kind::Simulated(Tolerance::Abs(0.01)),
        definition: "share of online nodes whose successor is the true ring successor, at the end (RVR's on baselines)",
    },
];

/// Message kinds `Protocol::classify` reports that get a `msg.<kind>.sent`
/// metric (the driver-injected `publish_cmd` and OPT's rare `disconnect`
/// are covered by the digest only).
pub const MSG_KINDS: [&str; 16] = [
    "ps_req",
    "ps_resp",
    "rt_req",
    "rt_resp",
    "profile",
    "relay_req",
    "notification",
    "pub_ack",
    "retry_pub",
    "ae_digest",
    "ae_want",
    "ae_push",
    "join",
    "heartbeat",
    "connect_req",
    "connect_ack",
];

/// One kernel the traced run replays on state read back from the live
/// system. Its `<layer>_ns` is multiplied by a matching count of the same
/// run (see `workloads::kernel_counts`) to estimate the share of the
/// measured phase it explains.
#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    pub layer: &'static str,
    /// The count its ns/op is multiplied by, in words.
    pub count: &'static str,
    /// Its time is already inside another kernel's (or outside the
    /// untraced run altogether), so it is left out of the sum behind
    /// `est_share.unattributed`.
    pub nested: bool,
}

const fn kernel(layer: &'static str, count: &'static str, nested: bool) -> Kernel {
    Kernel {
        layer,
        count,
        nested,
    }
}

pub const KERNELS: [Kernel; 18] = [
    kernel(
        "sim.engine.null_activation",
        "all protocol activations",
        false,
    ),
    kernel(
        "sim.network.latency",
        "message activations (inside null_activation)",
        true,
    ),
    kernel(
        "sim.fault.faulted_latency",
        "message activations when a fault plan is installed (inside null_activation)",
        true,
    ),
    kernel(
        "overlay.peer_sampling.exchange",
        "ps_req + ps_resp sent",
        false,
    ),
    kernel(
        "overlay.rt.select_neighbors",
        "rt_req + rt_resp sent (one merge-and-select each)",
        false,
    ),
    kernel(
        "overlay.rt.build_exchange_buffer",
        "rt_req + rt_resp sent",
        false,
    ),
    kernel("overlay.routing.next_hop", "relay_req sent", false),
    kernel(
        "overlay.graph.components",
        "loss_report + health_probe calls x sampled topics",
        false,
    ),
    kernel(
        "core.utility.utility",
        "merges x candidates per merge (inside select_neighbors)",
        true,
    ),
    kernel(
        "core.gateway.revise_proposal",
        "round activations x subscriptions per node",
        false,
    ),
    kernel("core.relay.fanout", "data messages received", false),
    kernel("core.relay.tick_expire", "round activations", false),
    kernel(
        "core.monitor.record_control_tx",
        "control messages sent",
        false,
    ),
    kernel(
        "core.monitor.record_delivery",
        "data messages received by subscribers",
        false,
    ),
    kernel("core.monitor.hop_path_extend", "notifications sent", false),
    kernel(
        "sim.antientropy.digest",
        "round activations when repair is on",
        false,
    ),
    kernel("sim.antientropy.on_digest", "ae_digest sent", false),
    kernel("sim.trace.record", "trace records (traced run only)", true),
];

/// One per-layer metric: `(name, unit, better)`.
pub type PerLayer = (String, &'static str, Better);

/// Every per-layer name, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut push = |name: &str, unit: &'static str, better: Better| {
        out.push((name.to_string(), unit, better));
    };
    // Spans around driver calls (busy time).
    for (name, unit) in [
        ("workloads.subscriptions.generate_ms", "ms"),
        ("workloads.skype.generate_ms", "ms"),
        ("core.runtime.build_ms", "ms"),
        ("core.runtime.round_ms_p50", "ms"),
        ("core.runtime.round_ms_hi", "ms"),
        ("core.runtime.round_hi_pct", "%"),
        ("core.runtime.round_ms_max", "ms"),
        ("core.runtime.rounds", "count"),
        ("core.runtime.publish_us_p50", "us"),
        ("core.runtime.set_online_us_p50", "us"),
        ("core.runtime.health_probe_ms", "ms"),
        ("core.monitor.stats_ms", "ms"),
        ("core.monitor.reset_ms", "ms"),
        ("core.monitor.loss_report_ms", "ms"),
        ("core.topo.snapshot_ms", "ms"),
        ("core.topo.analyze_ms", "ms"),
        ("core.topo.audit_ms", "ms"),
        ("sim.trace.write_jsonl_ms", "ms"),
        ("baselines.rvr.wall_s", "s"),
        ("baselines.opt.wall_s", "s"),
        ("trace_overhead_pct", "%"),
        ("bench.setup.cpu_raw_s", "s"),
        ("bench.measure.cpu_raw_s", "s"),
        ("bench.setup.wall_s", "s"),
        ("bench.measure.wall_s", "s"),
        ("bench.measure.stall_pct", "%"),
        ("bench.machine_slowdown", "ratio"),
    ] {
        push(name, unit, Lower);
    }
    // Deterministic counts from public accessors (work done).
    for name in [
        "sim.engine.activations_round",
        "sim.engine.activations_message",
        "sim.engine.activations_start",
        "sim.engine.activations_stop",
        "sim.engine.queue_hwm",
        "sim.engine.messages_lost",
        "sim.engine.messages_to_dead",
        "sim.engine.messages_suppressed",
        "sim.event.sched_batches",
        "sim.event.sched_overflow",
    ] {
        push(name, "count", Lower);
    }
    push("sim.event.events_per_batch", "count", Higher);
    push("sim.engine.msgs_per_node_round", "count", Lower);
    for kind in MSG_KINDS {
        push(&format!("msg.{kind}.sent"), "count", Lower);
    }
    push("core.monitor.useful_msgs", "count", Higher);
    push("core.monitor.relay_msgs", "count", Lower);
    push("core.node.notifications_per_delivery", "count", Lower);
    push("core.runtime.churn_ops", "count", Higher);
    push("sim.fault.net_event_drops", "count", Lower);
    push("sim.antientropy.recovered", "count", Higher);
    push("sim.antientropy.recovered_share", "ratio", Higher);
    push("sim.antientropy.exhausted", "count", Lower);
    push("core.monitor.missed", "count", Lower);
    push("core.topo.violations", "count", Lower);
    push("sim.trace.recorded", "count", Lower);
    push("sim.trace.evicted", "count", Lower);
    push("core.runtime.footprint_bytes_per_node", "B", Lower);
    push("rss_kb.after_build", "kB", Lower);
    push("rss_kb.after_warmup", "kB", Lower);
    push("rss_kb.end", "kB", Lower);
    push("rss_kb.peak", "kB", Lower);
    push("core.runtime.converge_round", "count", Lower);
    push("baselines.rvr.hit_ratio", "ratio", Higher);
    push("baselines.opt.hit_ratio", "ratio", Higher);
    // Kernel replays and the share of the measured phase each explains.
    for k in KERNELS {
        push(&format!("{}_ns", k.layer), "ns", Lower);
    }
    for k in KERNELS {
        push(&format!("est_share.{}", k.layer), "ratio", Lower);
    }
    push("est_share.unattributed", "ratio", Lower);
    out
}

/// The unit of a metric, `"count"` for names that are not metrics.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| per_layer().into_iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("count")
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses; for fewer than two samples
/// both equal the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Median, the highest percentile with at least ten samples beyond it,
/// and the maximum of a timing sample (nanoseconds in, nanoseconds out).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    pub count: usize,
    pub p50: f64,
    /// Zero below twenty samples.
    pub hi: f64,
    /// Which percentile `hi` is.
    pub hi_pct: f64,
    pub max: f64,
}

impl Percentiles {
    pub fn of(mut ns: Vec<u64>) -> Percentiles {
        ns.sort_unstable();
        let n = ns.len();
        if n == 0 {
            return Percentiles::default();
        }
        let as_f: Vec<f64> = ns.iter().map(|&v| v as f64).collect();
        let (hi, hi_pct) = if n >= 20 {
            (as_f[n - 11], 100.0 * (n - 10) as f64 / n as f64)
        } else {
            (0.0, 0.0)
        };
        Percentiles {
            count: n,
            p50: median(&as_f),
            hi,
            hi_pct,
            max: as_f[n - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let p = Percentiles::of((1..=100).collect());
        assert_eq!(p.hi, 90.0);
        assert_eq!(p.hi_pct, 90.0);
        assert_eq!(p.max, 100.0);
        assert_eq!(Percentiles::of((1..=19).collect()).hi, 0.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        assert!(END_TO_END.len() <= 16);
        assert!(
            per_layer().len() <= 128,
            "{} per-layer names",
            per_layer().len()
        );
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}
