//! Lookup-consistency invariants over live overlay snapshots: with a
//! converged ring, every node's greedy lookup for a topic must land on the
//! same rendezvous node — the property that guarantees all clusters of a
//! topic are stitched together (Section III-B: "all the lookups end up at
//! the rendezvous node; the lookup consistency is ensured by the ring").

use vitis::prelude::*;
use vitis_overlay::id::Id;
use vitis_overlay::routing::greedy_walk;
use vitis_sim::event::NodeIdx;
use vitis_workloads::{Correlation, SubscriptionModel};

fn converged_system(n: usize, seed: u64) -> VitisSystem {
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
    sys.run_rounds(60);
    sys
}

/// Snapshot every node's routing candidates and greedy-walk from many
/// sources toward several topics: all walks for a topic must terminate at
/// one node, and that node must be the globally ring-closest to `hash(t)`.
#[test]
fn all_lookups_agree_on_the_rendezvous() {
    let sys = converged_system(300, 3);
    let engine = sys.engine();
    assert!(sys.ring_accuracy() > 0.99, "ring not converged");

    let id_of = |x: NodeIdx| engine.node(x).expect("alive").ring_id();
    let neighbors_of = |x: NodeIdx| -> Vec<(Id, NodeIdx)> {
        engine
            .node(x)
            .expect("alive")
            .routing_table()
            .route_candidates()
            .into_iter()
            .filter(|(_, a)| engine.is_alive(*a))
            .collect()
    };
    let all_ids: Vec<Id> = engine.alive_nodes().map(|(_, n)| n.ring_id()).collect();

    let sources: Vec<NodeIdx> = engine.alive_nodes().map(|(i, _)| i).step_by(17).collect();
    for t in (0..sys.workload().num_topics() as u32).step_by(13) {
        let target = TopicId(t).ring_id();
        let truly_closest = {
            let i = vitis_overlay::id::closest_to(target, &all_ids).expect("nonempty");
            all_ids[i]
        };
        let mut terminals = std::collections::BTreeSet::new();
        for &src in &sources {
            let walk = greedy_walk(src, target, 5_000, id_of, neighbors_of)
                .expect("greedy walk must terminate");
            terminals.insert(walk.rendezvous());
        }
        assert_eq!(
            terminals.len(),
            1,
            "topic {t}: lookups split across {terminals:?}"
        );
        let rdv = *terminals.iter().next().expect("checked non-empty");
        assert_eq!(
            id_of(rdv),
            truly_closest,
            "topic {t}: rendezvous is not the ring-closest node"
        );
    }
}

/// The relay soft state agrees with the walks: for a sampled topic, exactly
/// the nodes claiming the rendezvous role are the walks' terminals.
#[test]
fn relay_state_matches_lookup_terminals() {
    let sys = converged_system(250, 11);
    let engine = sys.engine();
    let mut checked = 0;
    for t in (0..sys.workload().num_topics() as u32).step_by(11) {
        let topic = TopicId(t);
        let claimants: Vec<NodeIdx> = engine
            .alive_nodes()
            .filter(|(_, n)| {
                n.relay_table()
                    .get(topic)
                    .is_some_and(|e| e.is_rendezvous())
            })
            .map(|(i, _)| i)
            .collect();
        // Topics whose relay structure is currently established must have
        // exactly one rendezvous claimant on a converged ring.
        if !claimants.is_empty() {
            checked += 1;
            assert_eq!(
                claimants.len(),
                1,
                "topic {t}: multiple rendezvous claimants {claimants:?}"
            );
        }
    }
    assert!(checked > 3, "too few topics with active relay state");
}
