//! The fixed-seed golden scenarios behind `determinism_golden`: parameters,
//! drivers and the canonical snapshot rendering compared byte for byte
//! against `tests/golden/`.

use rand::Rng;
use std::fmt::Write as _;
use vitis::monitor::PubSubStats;
use vitis::system::{PubSub, SystemParams};
use vitis::topic::{TopicId, TopicSet};
use vitis_sim::antientropy::AeConfig;
use vitis_sim::fault::{FaultEpisode, FaultPlan, LossScope, Span};
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::time::SimTime;
use vitis_sim::trace::Trace;

pub const NODES: usize = 100;
pub const TOPICS: usize = 12;
pub const SUBS_PER_NODE: usize = 4;
pub const SEED: u64 = 2024;

pub fn golden_params() -> SystemParams {
    let mut rng = stream_rng(SEED, domain::WORKLOAD, 1);
    let subscriptions: Vec<TopicSet> = (0..NODES)
        .map(|_| TopicSet::from_iter((0..SUBS_PER_NODE).map(|_| rng.gen_range(0..TOPICS as u32))))
        .collect();
    let mut p = SystemParams::new(subscriptions, TOPICS);
    p.seed = SEED;
    p
}

/// [`golden_params`] plus a fixed [`FaultPlan`] exercising every episode
/// kind, with the Vitis hardening knobs on (publisher retries, bounded
/// TTL, gateway failover).
pub fn faulted_params() -> SystemParams {
    let mut p = golden_params();
    let period = p.round_period.ticks();
    p.faults = FaultPlan::new(vec![
        FaultEpisode::LatencySpike {
            factor: 4.0,
            span: Span::new(8 * period, 12 * period),
        },
        FaultEpisode::LossBurst {
            prob: 0.3,
            span: Span::new(20 * period, 23 * period),
            scope: LossScope::All,
        },
        FaultEpisode::Partition {
            groups: vec![(50..70).collect()],
            span: Span::new(21 * period, 24 * period),
        },
        FaultEpisode::Freeze {
            nodes: vec![30, 31, 32],
            span: Span::new(22 * period, 25 * period),
        },
        FaultEpisode::CorrelatedCrash {
            nodes: vec![40, 41],
            at: SimTime(22 * period),
        },
    ])
    .expect("golden fault plan is valid");
    p.cfg.publish_retries = 2;
    p.cfg.publish_ack_timeout = 64;
    p.cfg.max_event_hops = 32;
    p.cfg.gateway_failover = true;
    p
}

/// [`faulted_params`] with the anti-entropy repair layer switched on:
/// the same fault gauntlet, but nodes now gossip digests of their recent
/// events and pull what the faults cost them. Drives the `vitis_repair`
/// golden, which pins the whole repair path — digest cadence, pull
/// retries/backoff, recovery delivery accounting, and the `ae_*` ledger
/// kinds — to a bit-exact snapshot.
pub fn repair_params() -> SystemParams {
    let mut p = faulted_params();
    p.repair = AeConfig::on();
    p
}

/// [`run_scenario`] plus the cumulative recovered-delivery count, so the
/// repair golden pins recoveries explicitly rather than only through the
/// trace fingerprint.
pub fn run_repair_scenario(sys: &mut dyn PubSub) -> String {
    let mut out = run_scenario(sys);
    writeln!(out, "recovered_deliveries={}", sys.recovered_deliveries()).unwrap();
    out
}

/// Bit-exact float rendering: decimal (for human diffs) plus raw bits.
fn f(out: &mut String, name: &str, v: f64) {
    writeln!(out, "{name}={v:?} bits={:#018x}", v.to_bits()).unwrap();
}

fn render_stats(out: &mut String, s: &PubSubStats) {
    writeln!(out, "published={}", s.published).unwrap();
    writeln!(out, "expected={}", s.expected).unwrap();
    writeln!(out, "delivered={}", s.delivered).unwrap();
    f(out, "hit_ratio", s.hit_ratio);
    f(out, "mean_hops", s.mean_hops);
    writeln!(out, "max_hops={}", s.max_hops).unwrap();
    writeln!(out, "useful_msgs={}", s.useful_msgs).unwrap();
    writeln!(out, "relay_msgs={}", s.relay_msgs).unwrap();
    f(out, "overhead_pct", s.overhead_pct);
    f(out, "mean_latency_ticks", s.mean_latency_ticks);
    writeln!(out, "max_latency_ticks={}", s.max_latency_ticks).unwrap();
    f(out, "control_bytes_per_round", s.control_bytes_per_round);
    writeln!(out, "control_sent={}", s.control_sent).unwrap();
    writeln!(out, "data_sent={}", s.data_sent).unwrap();
    for k in &s.traffic_by_kind {
        writeln!(
            out,
            "kind {} {:?} sent={} delivered={}",
            k.kind, k.class, k.sent, k.delivered
        )
        .unwrap();
    }
}

/// FNV-1a over the trace JSONL: a byte-identity fingerprint that keeps the
/// golden files reviewable (the full trace runs to thousands of lines).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn run_scenario(sys: &mut dyn PubSub) -> String {
    let trace = Trace::shared(1 << 16);
    // Lifecycle + forensics events only: per-message records would swamp
    // the fingerprint without adding determinism coverage (the per-kind
    // ledger already counts every message).
    trace.borrow_mut().set_record_messages(false);
    sys.install_trace(trace.clone());
    sys.run_rounds(20);
    sys.reset_metrics();
    for t in 0..TOPICS as u32 {
        sys.publish(TopicId(t));
    }
    // Crash a tenth of the network mid-dissemination, then bring it back:
    // exercises set_online incarnation handling and loss classification.
    for logical in 0..10 {
        sys.set_online(logical, false);
    }
    sys.run_rounds(5);
    for logical in 0..10 {
        sys.set_online(logical, true);
    }
    sys.run_rounds(2);

    let stats = sys.stats();
    let report = sys.loss_report();
    let probe = sys.health_probe();

    let mut out = String::new();
    writeln!(out, "now={}", sys.now().0).unwrap();
    writeln!(out, "alive={}", sys.alive_count()).unwrap();
    f(&mut out, "mean_degree", sys.mean_degree());
    render_stats(&mut out, &stats);
    writeln!(
        out,
        "loss expected={} delivered={}",
        report.expected, report.delivered
    )
    .unwrap();
    for (reason, count) in &report.by_reason {
        writeln!(out, "loss {}={count}", reason.as_str()).unwrap();
    }
    let overhead = sys.per_node_overhead(1);
    writeln!(out, "per_node_overhead n={}", overhead.len()).unwrap();
    f(
        &mut out,
        "per_node_overhead_sum",
        overhead.iter().sum::<f64>(),
    );
    writeln!(out, "probe alive={}", probe.alive).unwrap();
    f(&mut out, "probe_mean_degree", probe.mean_degree);
    match probe.ring_accuracy {
        Some(v) => f(&mut out, "probe_ring_accuracy", v),
        None => writeln!(out, "probe_ring_accuracy=None").unwrap(),
    }
    match probe.mean_view_age {
        Some(v) => f(&mut out, "probe_mean_view_age", v),
        None => writeln!(out, "probe_mean_view_age=None").unwrap(),
    }
    writeln!(
        out,
        "probe clusters={:?} largest={:?}",
        probe.clusters, probe.largest_cluster
    )
    .unwrap();
    let jsonl = trace.borrow().to_jsonl();
    writeln!(out, "trace_lines={}", jsonl.lines().count()).unwrap();
    writeln!(out, "trace_fnv1a={:#018x}", fnv1a(jsonl.as_bytes())).unwrap();
    out
}

pub fn check_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        got == want,
        "{name} diverged from {}.\nGot:\n{got}\nWant:\n{want}\n\
         If the change is intentional, regenerate with UPDATE_GOLDEN=1.",
        path.display()
    );
}
