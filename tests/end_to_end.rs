//! Cross-crate integration tests: workloads → systems → metrics, driving
//! the same pipeline as the experiment harness.

use std::sync::Arc;
use vitis::prelude::*;
use vitis_baselines::{OptSystem, RvrNode, RvrSystem};
use vitis_overlay::rt::HybridRt;
use vitis_sim::fault::{FaultEpisode, FaultPlan, LossScope, Span};
use vitis_workloads::{Correlation, SubscriptionModel};

fn params(corr: Correlation, n: usize, seed: u64) -> SystemParams {
    let model = SubscriptionModel {
        num_nodes: n,
        num_topics: n / 2,
        num_buckets: (n / 100).max(4),
        subs_per_node: 25.min(n / 4),
        correlation: corr,
    };
    let subs: Vec<TopicSet> = model
        .generate(seed)
        .into_iter()
        .map(TopicSet::from_iter)
        .collect();
    let mut p = SystemParams::new(subs, model.num_topics);
    p.seed = seed;
    p
}

fn warm_and_publish(sys: &mut dyn PubSub, topics: usize) -> PubSubStats {
    sys.run_rounds(55);
    sys.reset_metrics();
    for t in 0..topics as u32 {
        sys.publish(TopicId(t));
        if t % 25 == 24 {
            sys.run_rounds(1);
        }
    }
    sys.run_rounds(8);
    sys.stats()
}

/// The paper's central comparison, end to end, over seeds 1–10. On every
/// seed: full delivery for Vitis, its overhead a fraction of RVR's over
/// fewer hops, and OPT with zero overhead but incomplete delivery under a
/// degree bound. RVR's full delivery is a rate, not a per-seed fact: its
/// hit ratio is above 0.99 on 6 of the 10 seeds with uniformly shuffled
/// bootstrap lists and on all 10 with slot-rejection sampling, and above
/// 0.98 on every seed with both (ROADMAP item 4).
#[test]
fn three_system_comparison_matches_paper_shape() {
    let n = 500;
    let mut rvr_hits = Vec::new();
    for seed in 1..=10 {
        let p = params(Correlation::High, n, seed);
        let topics = p.num_topics;

        let mut vitis = VitisSystem::new(p.clone());
        let vs = warm_and_publish(&mut vitis, topics);
        let mut rvr = RvrSystem::new(p.clone());
        let rs = warm_and_publish(&mut rvr, topics);
        let mut opt = OptSystem::new(p);
        let os = warm_and_publish(&mut opt, topics);

        assert!(
            vs.hit_ratio > 0.99,
            "seed {seed}: vitis hit {}",
            vs.hit_ratio
        );
        assert!(
            vs.overhead_pct < rs.overhead_pct / 2.0,
            "seed {seed}: vitis {}% vs rvr {}%",
            vs.overhead_pct,
            rs.overhead_pct
        );
        assert_eq!(os.relay_msgs, 0);
        assert!(
            os.hit_ratio < vs.hit_ratio,
            "seed {seed}: opt {}",
            os.hit_ratio
        );
        assert!(
            vs.mean_hops < rs.mean_hops,
            "seed {seed}: vitis {} hops vs rvr {}",
            vs.mean_hops,
            rs.mean_hops
        );
        rvr_hits.push(rs.hit_ratio);
    }
    let full = rvr_hits.iter().filter(|&&h| h > 0.99).count();
    assert!(
        full >= 6,
        "rvr hit > 0.99 on {full} of 10 seeds: {rvr_hits:?}"
    );
    assert!(rvr_hits.iter().all(|&h| h > 0.98), "rvr hits {rvr_hits:?}");
}

/// Correlation ordering: high-correlation subscriptions produce less relay
/// traffic than random ones under Vitis.
#[test]
fn correlation_reduces_vitis_overhead() {
    let n = 400;
    let mut hi = VitisSystem::new(params(Correlation::High, n, 5));
    let hs = warm_and_publish(&mut hi, n / 2);
    let mut rnd = VitisSystem::new(params(Correlation::Random, n, 5));
    let rs = warm_and_publish(&mut rnd, n / 2);
    assert!(
        hs.overhead_pct < rs.overhead_pct,
        "high-corr {}% vs random {}%",
        hs.overhead_pct,
        rs.overhead_pct
    );
    assert!(hs.hit_ratio > 0.98 && rs.hit_ratio > 0.98);
}

/// Determinism across the whole pipeline: same seed, same numbers; the
/// numbers survive a rebuild of every layer.
#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let mut sys = VitisSystem::new(params(Correlation::Low, 300, 9));
        let s = warm_and_publish(&mut sys, 150);
        (s.delivered, s.useful_msgs, s.relay_msgs, s.max_hops)
    };
    assert_eq!(run(), run());
}

/// Churn storm: drop a third of the network at once, heal, verify recovery;
/// then a mass rejoin (flash crowd), heal, verify again.
#[test]
fn flash_crowd_recovery() {
    let n = 450;
    let mut sys = VitisSystem::new(params(Correlation::Low, n, 17));
    sys.run_rounds(50);
    for logical in 0..(n / 3) as u32 {
        sys.set_online(logical, false);
    }
    sys.run_rounds(20);
    sys.reset_metrics();
    for t in 0..(n / 2) as u32 {
        sys.publish(TopicId(t));
    }
    sys.run_rounds(8);
    let s = sys.stats();
    assert!(s.hit_ratio > 0.97, "after mass leave: {}", s.hit_ratio);

    for logical in 0..(n / 3) as u32 {
        sys.set_online(logical, true);
    }
    sys.run_rounds(20);
    sys.reset_metrics();
    for t in 0..(n / 2) as u32 {
        sys.publish(TopicId(t));
    }
    sys.run_rounds(8);
    let s = sys.stats();
    assert!(s.hit_ratio > 0.97, "after flash crowd: {}", s.hit_ratio);
    assert_eq!(sys.alive_count(), n);
}

/// Runs `flash_crowd_recovery`'s churn schedule on `sys` (warm up, crash a
/// third of the nodes, rejoin them) and checks after each phase that every
/// online node advertises its logical node's own subscription handle and
/// that every descriptor in its routing table carries the handle of the
/// node it names.
fn handles_stay_through_churn<P: PubSubProtocol>(
    mut sys: SystemRuntime<P>,
    own: impl Fn(&P::Node) -> &Subs,
    table: impl Fn(&P::Node) -> &HybridRt<Subs>,
) {
    let check = |sys: &SystemRuntime<P>| {
        let workload = sys.workload();
        let mut descriptors = 0;
        for (idx, node) in sys.engine().alive_nodes() {
            assert!(Arc::ptr_eq(own(node), workload.subs_of(idx.0)), "{idx:?}");
            for e in table(node).iter() {
                let want = workload.subs_of(e.addr.0);
                assert!(
                    Arc::ptr_eq(&e.payload, want),
                    "{idx:?} describes {:?}",
                    e.addr
                );
                descriptors += 1;
            }
        }
        assert!(descriptors > 0);
    };
    let third = sys.alive_count() as u32 / 3;
    sys.run_rounds(50);
    check(&sys);
    for logical in 0..third {
        sys.set_online(logical, false);
    }
    sys.run_rounds(20);
    check(&sys);
    for logical in 0..third {
        sys.set_online(logical, true);
    }
    sys.run_rounds(20);
    check(&sys);
}

/// A logical node's subscription handle is the workload's for the whole
/// run, across crashes and rejoins: the invariant behind the cache keyed
/// on a peer (the election's common-topic pairs) and behind heartbeats
/// that only re-age a table entry. Checked for both ring-based systems.
#[test]
fn subscription_handles_stay_the_workloads_through_churn() {
    let p = params(Correlation::Low, 450, 17);
    let vitis = VitisSystem::new(p.clone());
    handles_stay_through_churn(vitis, VitisNode::subscriptions, VitisNode::routing_table);
    let rvr = RvrSystem::new(p);
    handles_stay_through_churn(rvr, RvrNode::subscriptions, RvrNode::routing_table);
}

/// OPT's degree/coverage trade-off end to end: unbounded (`rt_size` of
/// `usize::MAX`) beats bounded on hit ratio at the cost of degree.
#[test]
fn opt_trades_degree_for_coverage() {
    let mut p = params(Correlation::High, 400, 23);
    let topics = p.num_topics;
    p.cfg.rt_size = 10;
    let mut bounded = OptSystem::new(p.clone());
    let bs = warm_and_publish(&mut bounded, topics);
    p.cfg.rt_size = usize::MAX;
    let mut unbounded = OptSystem::new(p);
    let us = warm_and_publish(&mut unbounded, topics);
    assert!(us.hit_ratio >= bs.hit_ratio);
    assert!(unbounded.mean_degree() > bounded.mean_degree());
}

/// Robustness beyond the paper's evaluation: 5 % message loss keeps
/// delivery near-complete.
#[test]
fn extensions_survive_hostile_settings() {
    let mut p = params(Correlation::Low, 300, 31);
    let topics = p.num_topics;
    p.faults = FaultPlan::new(vec![FaultEpisode::LossBurst {
        prob: 0.05,
        span: Span::new(0, u64::MAX),
        scope: LossScope::All,
    }])
    .expect("valid fault plan");
    let mut sys = VitisSystem::new(p);
    let s = warm_and_publish(&mut sys, topics);
    assert!(s.hit_ratio > 0.93, "lossy: hit {}", s.hit_ratio);
}

/// Control-plane bandwidth is bounded per node per round and the latency
/// statistics populate: the degree bound translates into a gossip cost
/// independent of network size (the paper's scalability argument).
#[test]
fn control_bandwidth_is_bounded_and_latency_populates() {
    let mut small = VitisSystem::new(params(Correlation::Low, 200, 41));
    let s_small = warm_and_publish(&mut small, 100);
    let mut large = VitisSystem::new(params(Correlation::Low, 500, 41));
    let s_large = warm_and_publish(&mut large, 250);
    assert!(s_small.control_bytes_per_round > 0.0);
    assert!(s_large.control_bytes_per_round > 0.0);
    // Per-node control cost grows with subscriptions carried, not with N:
    // allow a generous factor but far below linear scaling (2.5x nodes).
    let ratio = s_large.control_bytes_per_round / s_small.control_bytes_per_round;
    assert!(
        ratio < 1.8,
        "control bytes/round grew {ratio:.2}x for 2.5x nodes"
    );
    // Latency: at least one hop's worth of ticks, bounded by the run.
    assert!(s_large.mean_latency_ticks >= 1.0);
    assert!(s_large.max_latency_ticks >= s_large.mean_latency_ticks as u64);
}
