//! Shared [`PubSub`] conformance suite.
//!
//! Every system built on [`SystemRuntime`] must honor the same driver
//! contract; these checks state it executably, once, and each system's
//! test suite instantiates them (see `tests/pubsub_conformance.rs` in the
//! umbrella crate). Each check panics with a labelled message on
//! violation, so a failing instantiation names both the system and the
//! broken clause.
//!
//! The suite assumes a freshly built system whose workload can publish on
//! topics `0..topics` and that has at least `2 × churn_nodes` logical
//! nodes.

use crate::runtime::{PubSub, PubSubProtocol, SystemRuntime};
use crate::topic::TopicId;

/// Run the full suite on a freshly built system.
pub fn check_pubsub_conformance<P: PubSubProtocol>(
    sys: &mut SystemRuntime<P>,
    name: &str,
    topics: u32,
    churn_nodes: u32,
) {
    check_reset_zeroes_stats(sys, name, topics);
    check_loss_report_partitions_misses(sys, name, topics, churn_nodes);
    check_set_online_idempotent(sys, name, churn_nodes);
    check_agrees_with_engine(sys, name);
    check_perf_surface(sys, name);
}

/// After `reset_metrics`, every counter of the stats snapshot is zero.
pub fn check_reset_zeroes_stats(sys: &mut impl PubSub, name: &str, topics: u32) {
    sys.run_rounds(10);
    for t in 0..topics {
        sys.publish(TopicId(t));
    }
    sys.run_rounds(3);
    sys.reset_metrics();
    let s = sys.stats();
    assert_eq!(s.published, 0, "{name}: published after reset");
    assert_eq!(s.expected, 0, "{name}: expected after reset");
    assert_eq!(s.delivered, 0, "{name}: delivered after reset");
    assert_eq!(s.useful_msgs, 0, "{name}: useful_msgs after reset");
    assert_eq!(s.relay_msgs, 0, "{name}: relay_msgs after reset");
    assert_eq!(s.control_sent, 0, "{name}: control_sent after reset");
    assert_eq!(s.data_sent, 0, "{name}: data_sent after reset");
    assert_eq!(s.max_hops, 0, "{name}: max_hops after reset");
    assert_eq!(s.max_latency_ticks, 0, "{name}: max_latency after reset");
    let kind_sent: u64 = s.traffic_by_kind.iter().map(|k| k.sent).sum();
    assert_eq!(kind_sent, 0, "{name}: per-kind ledger after reset");
}

/// `loss_report` per-reason counts sum exactly to `expected - delivered`,
/// and its totals agree with the stats snapshot — including under churn
/// that strands some expected subscribers.
pub fn check_loss_report_partitions_misses(
    sys: &mut impl PubSub,
    name: &str,
    topics: u32,
    churn_nodes: u32,
) {
    sys.run_rounds(15);
    sys.reset_metrics();
    for t in 0..topics {
        sys.publish(TopicId(t));
    }
    for logical in 0..churn_nodes {
        sys.set_online(logical, false);
    }
    sys.run_rounds(4);
    let s = sys.stats();
    let report = sys.loss_report();
    assert_eq!(report.expected, s.expected, "{name}: report.expected");
    assert_eq!(report.delivered, s.delivered, "{name}: report.delivered");
    let sum: u64 = report.by_reason.iter().map(|&(_, c)| c).sum();
    assert_eq!(
        sum,
        s.expected - s.delivered,
        "{name}: loss reasons must partition the missed pairs"
    );
    for logical in 0..churn_nodes {
        sys.set_online(logical, true);
    }
}

/// `set_online` is idempotent (repeating the current state is a no-op)
/// and incarnation-safe (repeated offline/online toggles of the same
/// logical node keep the population consistent and the system running).
pub fn check_set_online_idempotent(sys: &mut impl PubSub, name: &str, churn_nodes: u32) {
    sys.run_rounds(5);
    let full = sys.alive_count();
    // Idempotent in the online state...
    sys.set_online(0, true);
    assert_eq!(sys.alive_count(), full, "{name}: online->online is a no-op");
    // ...and in the offline state.
    sys.set_online(0, false);
    let down = sys.alive_count();
    assert_eq!(down, full - 1, "{name}: offline removes exactly one node");
    sys.set_online(0, false);
    assert_eq!(
        sys.alive_count(),
        down,
        "{name}: offline->offline is a no-op"
    );
    sys.set_online(0, true);
    assert_eq!(sys.alive_count(), full, "{name}: rejoin restores the node");
    // Rapid repeated toggles must neither lose slots nor wedge the run
    // (each rejoin starts a fresh incarnation in the same slot).
    for _ in 0..3 {
        for logical in 0..churn_nodes {
            sys.set_online(logical, false);
        }
        sys.run_rounds(1);
        for logical in 0..churn_nodes {
            sys.set_online(logical, true);
        }
        sys.run_rounds(1);
    }
    assert_eq!(
        sys.alive_count(),
        full,
        "{name}: toggle storm must conserve the population"
    );
    sys.run_rounds(3);
}

/// The perf surface is live and structurally consistent: activations
/// accumulate as the system runs, the queue high-water mark is nonzero
/// once rounds are scheduled, and the footprint estimate tracks the
/// alive population.
pub fn check_perf_surface(sys: &mut impl PubSub, name: &str) {
    let before = sys.perf_counters();
    assert!(
        before.activations_start as usize >= sys.alive_count(),
        "{name}: every alive node was started at least once"
    );
    assert!(
        before.queue_hwm > 0,
        "{name}: round scheduling fills the queue"
    );
    sys.run_rounds(2);
    let after = sys.perf_counters();
    assert!(
        after.activations_round > before.activations_round,
        "{name}: running rounds accumulates round activations"
    );
    assert!(
        after.total_activations() >= before.total_activations(),
        "{name}: activation totals are monotone"
    );
    let full = sys.footprint_estimate();
    assert!(full > 0, "{name}: footprint estimate covers live nodes");
    sys.set_online(0, false);
    assert!(
        sys.footprint_estimate() < full,
        "{name}: footprint estimate shrinks when a node leaves"
    );
    sys.set_online(0, true);
}

/// `alive_count` and the structural readers are views of engine state,
/// not independent bookkeeping: the alive count mirrors the engine, and
/// the degree distribution, `mean_degree`, the topology snapshot's links
/// and the overlay graph all read the same links.
pub fn check_agrees_with_engine<P: PubSubProtocol>(sys: &SystemRuntime<P>, name: &str) {
    assert_eq!(
        sys.alive_count(),
        sys.engine().alive_count(),
        "{name}: alive_count mirrors the engine"
    );
    let snapshot = sys.overlay_snapshot();
    let degrees: Vec<u64> = snapshot
        .nodes
        .iter()
        .map(|n| n.links.len() as u64)
        .collect();
    assert_eq!(
        sys.degree_distribution(),
        degrees,
        "{name}: one degree per alive node, its snapshot link count"
    );
    let expect = degrees.iter().sum::<u64>() as f64 / degrees.len() as f64;
    assert_eq!(
        sys.mean_degree().to_bits(),
        expect.to_bits(),
        "{name}: mean_degree is the engine-wide degree mean"
    );
    assert_eq!(
        sys.overlay_graph().num_edges(),
        snapshot.overlay_graph().num_edges(),
        "{name}: the overlay graph is the snapshot's graph"
    );
}
