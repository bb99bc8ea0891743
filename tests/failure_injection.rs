//! Targeted failure injection: kill exactly the nodes the structure leans
//! on (rendezvous, gateways) and verify the soft state heals; plus gossip
//! cost bounds.

use vitis::monitor::LossReason;
use vitis::prelude::*;
use vitis_baselines::{OptSystem, RvrSystem};
use vitis_sim::event::NodeIdx;
use vitis_sim::fault::{FaultEpisode, FaultPlan, LossScope, Span};
use vitis_workloads::{Correlation, SubscriptionModel};

fn system(n: usize, seed: u64) -> VitisSystem {
    let model = SubscriptionModel {
        num_nodes: n,
        num_topics: n / 2,
        num_buckets: (n / 100).max(4),
        subs_per_node: 20,
        correlation: Correlation::Low,
    };
    let subs: Vec<TopicSet> = model
        .generate(seed)
        .into_iter()
        .map(TopicSet::from_iter)
        .collect();
    let mut params = SystemParams::new(subs, model.num_topics);
    params.seed = seed;
    let mut sys = VitisSystem::new(params);
    sys.run_rounds(55);
    sys
}

fn rendezvous_of(sys: &VitisSystem, topic: TopicId) -> Vec<u32> {
    sys.engine()
        .alive_nodes()
        .filter(|(_, n)| {
            n.relay_table()
                .get(topic)
                .is_some_and(|e| e.is_rendezvous())
        })
        .map(|(i, _)| i.0)
        .collect()
}

/// Crash the rendezvous node of a topic: the next lookups elect a new one
/// and delivery recovers to full.
#[test]
fn rendezvous_crash_heals() {
    let mut sys = system(300, 5);
    // Find a topic with an established rendezvous.
    let mut target = None;
    for t in 0..sys.workload().num_topics() as u32 {
        let r = rendezvous_of(&sys, TopicId(t));
        if r.len() == 1 {
            target = Some((TopicId(t), r[0]));
            break;
        }
    }
    let (topic, rdv) = target.expect("some topic has an established rendezvous");
    sys.set_online(rdv, false);
    sys.run_rounds(12); // detect + re-elect + rebuild relay paths
    let new_rdv = rendezvous_of(&sys, topic);
    assert!(
        !new_rdv.contains(&rdv),
        "dead node still believed to be rendezvous"
    );
    sys.reset_metrics();
    sys.publish(topic);
    sys.run_rounds(6);
    let s = sys.stats();
    assert!(s.expected > 0);
    assert_eq!(
        s.delivered, s.expected,
        "delivery must fully recover after the rendezvous crash"
    );
}

/// Crash every gateway of a topic at once: remaining subscribers re-elect
/// within the gossip radius and delivery recovers.
#[test]
fn gateway_mass_crash_heals() {
    let mut sys = system(300, 7);
    let topic = TopicId(0);
    let gws: Vec<u32> = sys
        .engine()
        .alive_nodes()
        .filter(|(_, n)| n.is_gateway(topic))
        .map(|(i, _)| i.0)
        .collect();
    assert!(!gws.is_empty(), "topic 0 has no gateways after warmup");
    for g in &gws {
        sys.set_online(*g, false);
    }
    sys.run_rounds(12);
    let new_gws = sys
        .engine()
        .alive_nodes()
        .filter(|(_, n)| n.is_gateway(topic))
        .count();
    assert!(new_gws >= 1, "no new gateways elected");
    sys.reset_metrics();
    sys.publish(topic);
    sys.run_rounds(6);
    let s = sys.stats();
    assert!(
        s.hit_ratio > 0.99,
        "hit after gateway crash {}",
        s.hit_ratio
    );
}

/// Control traffic per node per round is bounded: the engine's message
/// counters grow linearly with rounds, not with rounds², and the per-node
/// rate is a small constant multiple of the table size.
#[test]
fn gossip_message_rate_is_bounded() {
    let mut sys = system(200, 9);
    let stats0 = sys.engine().stats();
    let rounds = 20u64;
    sys.run_rounds(rounds);
    let stats1 = sys.engine().stats();
    let msgs = stats1.messages_sent - stats0.messages_sent;
    let per_node_per_round = msgs as f64 / (200.0 * rounds as f64);
    // Per round a node sends: 1 PS exchange (+1 reply), 1 RT exchange
    // (+1 reply), ≤15 heartbeats, a few relay refreshes. Far below 40.
    assert!(
        per_node_per_round < 40.0,
        "control message rate {per_node_per_round:.1}/node/round"
    );
    assert!(per_node_per_round > 5.0, "suspiciously quiet gossip");
}

/// In-transit drops of a lossy network surface as `LossReason::Network`
/// in loss attribution, for all three systems, and the per-reason counts
/// still account for every missed delivery exactly (the invariant the
/// `analyze` exact-sum check relies on). Vitis's flood redundancy rides
/// out 25 % loss on all but a few in ten thousand deliveries, so one batch
/// of 20 events can miss nothing. So 20 events go out every round for 50
/// rounds (29 000 expected deliveries); Vitis missed 8 of them with
/// uniformly shuffled bootstrap lists and 29 with slot-rejection sampling.
#[test]
fn lossy_network_misses_attribute_to_network() {
    const EVENTS_PER_TOPIC: u32 = 50;
    let model = SubscriptionModel {
        num_nodes: 150,
        num_topics: 20,
        num_buckets: 4,
        subs_per_node: 5,
        correlation: Correlation::Low,
    };
    let subs: Vec<TopicSet> = model
        .generate(3)
        .into_iter()
        .map(TopicSet::from_iter)
        .collect();
    let mut params = SystemParams::new(subs, model.num_topics);
    params.seed = 3;
    params.faults = FaultPlan::new(vec![FaultEpisode::LossBurst {
        prob: 0.25,
        span: Span::new(0, u64::MAX),
        scope: LossScope::All,
    }])
    .expect("valid fault plan");
    let mut systems: Vec<(&str, Box<dyn PubSub>)> = vec![
        ("vitis", Box::new(VitisSystem::new(params.clone()))),
        ("rvr", Box::new(RvrSystem::new(params.clone()))),
        ("opt", Box::new(OptSystem::new(params))),
    ];
    for (name, sys) in &mut systems {
        sys.run_rounds(40);
        sys.reset_metrics();
        for _ in 0..EVENTS_PER_TOPIC {
            for t in 0..model.num_topics as u32 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(1);
        }
        sys.run_rounds(3);
        let s = sys.stats();
        let report = sys.loss_report();
        assert!(s.expected > 0, "{name}: no expected deliveries");
        assert!(
            s.delivered < s.expected,
            "{name}: a 25% lossy network must cause misses"
        );
        let network = report
            .by_reason
            .iter()
            .find(|(r, _)| *r == LossReason::Network)
            .map_or(0, |(_, c)| *c);
        assert!(
            network > 0,
            "{name}: no miss attributed to the network ({:?})",
            report.by_reason
        );
        let total: u64 = report.by_reason.iter().map(|(_, c)| c).sum();
        assert_eq!(
            total,
            report.expected - report.delivered,
            "{name}: loss reasons must exactly cover the misses"
        );
    }
}

/// Half the network crashes at once and the survivors re-converge to a
/// consistent ring within a bounded number of rounds.
#[test]
fn ring_reconverges_after_mass_crash() {
    let mut sys = system(300, 13);
    for logical in 0..150 {
        sys.set_online(logical, false);
    }
    sys.run_rounds(25);
    assert_eq!(sys.alive_count(), 150);
    assert!(
        sys.ring_accuracy() > 0.97,
        "ring accuracy after losing half the network: {}",
        sys.ring_accuracy()
    );
    let _ = NodeIdx(0);
}
