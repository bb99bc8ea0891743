//! Failure edges of the anti-entropy repair layer at system level:
//! advertisers that crash or are cut off mid-pull, duplicate recoveries
//! racing the flood, and repair across an active partition. The
//! cache-expiry edge (a pull answered after its entry aged out) is covered
//! at unit level in `vitis_sim::antientropy` (`cache_ages_out_...`).

use std::rc::Rc;
use vitis::monitor::LossReason;
use vitis::prelude::*;
use vitis_baselines::{OptNode, RvrNode};
use vitis_sim::antientropy::{AeConfig, CACHE_ROUNDS};
use vitis_sim::fault::{FaultEpisode, FaultPlan, LossScope, Span};
use vitis_sim::prelude::{MsgTag, Protocol};
use vitis_workloads::{Correlation, SubscriptionModel};

fn lossy_repair_params(seed: u64) -> SystemParams {
    let model = SubscriptionModel {
        num_nodes: 150,
        num_topics: 20,
        num_buckets: 4,
        subs_per_node: 5,
        correlation: Correlation::Low,
    };
    let subs: Vec<TopicSet> = model
        .generate(seed)
        .into_iter()
        .map(TopicSet::from_iter)
        .collect();
    let mut params = SystemParams::new(subs, model.num_topics);
    params.seed = seed;
    params.repair = AeConfig::on();
    params
}

fn conservation(sys: &dyn PubSub, label: &str) {
    let report = sys.loss_report();
    let total: u64 = report.by_reason.iter().map(|(_, c)| c).sum();
    assert_eq!(
        total,
        report.expected - report.delivered,
        "{label}: loss reasons must exactly cover the misses"
    );
}

/// Digests and pulls aimed at peers that crash or are cut off
/// mid-exchange: the engine silently drops sends to dead nodes and the
/// partition drops every message to and from the cut-off group, so
/// outstanding pulls must drain through the retry cap (rotating to other
/// advertisers or exhausting their budget) rather than hanging forever.
/// After the dust settles, no alive node may hold a pending pull, and
/// loss attribution must still balance exactly.
#[test]
fn pulls_drain_when_advertisers_crash_or_are_partitioned() {
    let mut params = lossy_repair_params(11);
    // Force real gaps so pulls actually happen, and cut a few nodes off
    // over the dissemination + repair window; their digests and pulls
    // cross the boundary late or never pay off.
    let period = params.round_period.ticks();
    params.faults = FaultPlan::new(vec![
        FaultEpisode::LossBurst {
            prob: 0.35,
            span: Span::new(0, u64::MAX),
            scope: LossScope::All,
        },
        FaultEpisode::Partition {
            groups: vec![vec![5, 6, 7, 8]],
            span: Span::new(40 * period, 46 * period),
        },
    ])
    .expect("valid fault plan");
    let mut sys = VitisSystem::new(params);
    sys.run_rounds(40);
    sys.reset_metrics();
    for t in 0..20u32 {
        sys.publish(TopicId(t));
    }
    // Let floods, digests and first pulls go out, then crash a block of
    // nodes — some of them are advertisers with pulls aimed at them.
    sys.run_rounds(2);
    for logical in 100..125 {
        sys.set_online(logical, false);
    }
    // Two cache lifetimes: a recovery re-caches its event, so the last
    // digest advertising a gap can go out well past the first lifetime.
    // Over seeds 1–24 the last pending pull clears 13–79 rounds after the
    // crash; on this seed, 51.
    sys.run_rounds(2 * CACHE_ROUNDS);
    let stuck: Vec<u32> = sys
        .engine()
        .alive_nodes()
        .filter(|(_, n)| n.repair().pending() > 0)
        .map(|(i, _)| i.0)
        .collect();
    assert!(
        stuck.is_empty(),
        "pulls must drain (satisfied or exhausted), still pending at {stuck:?}"
    );
    conservation(&sys, "crash/partition");
}

/// Duplicate recovery of an already-delivered event is idempotent. On a
/// lossy network, repair pushes race late flood copies; the monitor's
/// first-arrival semantics mean `delivered` can never exceed `expected`,
/// duplicates (either order) change nothing, and the recovered tally
/// counts only first arrivals. Against a repair-off run at the same
/// seed, repair must strictly add deliveries, never distort accounting.
#[test]
fn duplicate_recoveries_are_idempotent() {
    let run = |repair: bool| {
        let mut params = lossy_repair_params(23);
        // Vitis's flood redundancy rides out moderate loss on its own
        // (at 30% it still delivers 100% given enough rounds); 60% over
        // a short window leaves real gaps for repair to close.
        params.faults = FaultPlan::new(vec![FaultEpisode::LossBurst {
            prob: 0.6,
            span: Span::new(0, u64::MAX),
            scope: LossScope::All,
        }])
        .expect("valid fault plan");
        if !repair {
            params.repair = AeConfig::default();
        }
        let mut sys = VitisSystem::new(params);
        sys.run_rounds(40);
        sys.reset_metrics();
        for t in 0..20u32 {
            sys.publish(TopicId(t));
        }
        sys.run_rounds(12);
        conservation(&sys, if repair { "repair-on" } else { "repair-off" });
        let s = sys.stats();
        assert!(
            s.delivered <= s.expected,
            "first-arrival dedup bound violated: {} > {}",
            s.delivered,
            s.expected
        );
        (s, sys.recovered_deliveries())
    };
    let (off, off_rec) = run(false);
    let (on, on_rec) = run(true);
    assert_eq!(off_rec, 0, "repair-off run must recover nothing");
    assert!(on_rec > 0, "0.3 loss must leave gaps for repair to close");
    assert!(
        on.delivered > off.delivered,
        "repair must add deliveries ({} vs {})",
        on.delivered,
        off.delivered
    );
    assert!(
        on_rec <= on.delivered,
        "recovered tally counts first arrivals only"
    );
}

/// Repair never leaks across an active partition. Topic 0 is subscribed
/// only inside the isolated group; a publish from the majority side while
/// the partition holds must deliver to nobody — the flood and every
/// digest/pull/push crossing the boundary is dropped. After heal, the
/// flood is long dead (bounded TTL), so every delivery that closes the
/// gap is a repair recovery pulled from majority-side caches. Both hold
/// on each of seeds 31–42. Whether the digest gossip reaches the isolated
/// group within 20 rounds of the heal is a rate: 4 of the 12 seeds with
/// uniformly shuffled bootstrap lists, 6 with slot-rejection sampling,
/// each recovering all 20 isolated subscribers or none (ROADMAP item 7).
#[test]
fn repair_does_not_cross_an_active_partition() {
    const N: usize = 120;
    const TOPICS: usize = 8;
    let isolated: Vec<u32> = (90..110).collect();
    let subs: Vec<TopicSet> = (0..N as u32)
        .map(|i| {
            if isolated.contains(&i) {
                TopicSet::from_iter([0u32])
            } else {
                // Majority nodes spread over topics 1..8; topic 0 stays
                // exclusive to the isolated group.
                TopicSet::from_iter((0..4).map(|k| 1 + (i * 4 + k) % (TOPICS as u32 - 1)))
            }
        })
        .collect();
    let mut recovering = 0;
    for seed in 31..=42 {
        let mut params = SystemParams::new(subs.clone(), TOPICS);
        params.seed = seed;
        params.repair = AeConfig::on();
        let period = params.round_period.ticks();
        params.faults = FaultPlan::new(vec![FaultEpisode::Partition {
            groups: vec![isolated.clone()],
            span: Span::new(40 * period, 52 * period),
        }])
        .expect("valid fault plan");
        let mut sys = VitisSystem::new(params);
        sys.run_rounds(40);
        sys.reset_metrics();
        let event = sys.publish_from(0, TopicId(0));
        assert!(event.is_some(), "publisher 0 is alive");
        sys.run_rounds(10); // still partitioned until round 52
        let mid = sys.stats();
        assert_eq!(mid.expected, isolated.len() as u64);
        assert_eq!(
            mid.delivered, 0,
            "seed {seed}: no copy — flood or repair — may cross the active partition"
        );
        assert_eq!(sys.recovered_deliveries(), 0);
        // Heal, then give the digest gossip time to reach the formerly
        // isolated subscribers (well inside the 30-round cache TTL).
        sys.run_rounds(20);
        let end = sys.stats();
        assert_eq!(
            end.delivered,
            sys.recovered_deliveries(),
            "seed {seed}: the flood died during the partition — every delivery is a recovery"
        );
        conservation(&sys, "partition");
        if end.delivered > 0 {
            recovering += 1;
            let network = sys
                .loss_report()
                .by_reason
                .iter()
                .find(|(r, _)| *r == LossReason::Network)
                .map_or(0, |&(_, c)| c);
            assert!(
                network < isolated.len() as u64,
                "seed {seed}: recoveries must shrink the Network-attributed gap"
            );
        }
    }
    assert!(
        recovering >= 4,
        "post-heal repair recovered on {recovering} of 12 seeds"
    );
}

/// All three systems carry the one `DissemMsg` in their wire enums: each
/// tags its five kinds with the same ledger kinds and plane, prices them
/// by the same bytes, and attributes a lost copy, flooded or pushed, to
/// its event (`LossReason::Network`).
#[test]
fn every_system_tags_and_attributes_repair_messages_alike() {
    fn check<P: Protocol<Msg: From<DissemMsg>>>() {
        let (event, topic) = (EventId(7), TopicId(1));
        let copy = Notification {
            event,
            topic,
            hops: 2,
            path: Default::default(),
        };
        for (msg, tag, bytes, event) in [
            (
                DissemMsg::Notification(copy.clone()),
                MsgTag::data("notification"),
                16,
                Some(7),
            ),
            (
                DissemMsg::Publish { event, topic },
                MsgTag::data("publish_cmd"),
                16,
                None,
            ),
            (
                DissemMsg::Digest(Rc::new(vec![(7, 1)])),
                MsgTag::control("ae_digest"),
                12,
                None,
            ),
            (
                DissemMsg::Want(vec![7]),
                MsgTag::control("ae_want"),
                8,
                None,
            ),
            (DissemMsg::Push(copy), MsgTag::data("ae_push"), 16, Some(7)),
        ] {
            assert_eq!((msg.tag(), msg.event()), (tag, event));
            let wire = P::Msg::from(msg);
            assert_eq!(
                (P::classify(&wire), P::wire_bytes(&wire), P::event_of(&wire)),
                (tag, bytes, event),
                "{}",
                std::any::type_name::<P>()
            );
        }
    }
    check::<VitisNode>();
    check::<RvrNode>();
    check::<OptNode>();
}
