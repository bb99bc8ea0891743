//! Property-based tests for the Vitis core data structures.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use vitis::gateway::{revise_proposal, Proposal};
use vitis::monitor::Monitor;
use vitis::relay::{RelayTable, MAX_LOOKUP_HOPS};
use vitis::topic::{RateTable, Subs, TopicId, TopicSet};
use vitis::utility;
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_overlay::rt::HybridRt;
use vitis_sim::event::NodeIdx;
use vitis_sim::time::SimTime;

fn ts(v: &[u32]) -> TopicSet {
    TopicSet::from_iter(v.iter().copied())
}

/// The relay table as it was before a hop became one lookup: three entry
/// points, each finding (or creating) the topic's entry for itself.
#[derive(Default)]
struct ThreeLookupTable(BTreeMap<u32, ModelEntry>);

#[derive(Default, Debug, PartialEq)]
struct ModelEntry {
    upstream: Option<(u32, u16)>,
    downstream: Vec<(u32, u16)>,
    rendezvous: bool,
}

impl ThreeLookupTable {
    fn add_downstream(&mut self, topic: u32, from: u32) {
        let e = self.0.entry(topic).or_default();
        match e.downstream.iter_mut().find(|(n, _)| *n == from) {
            Some(link) => link.1 = 0,
            None => e.downstream.push((from, 0)),
        }
    }

    fn set_upstream(&mut self, topic: u32, next: u32) {
        let e = self.0.entry(topic).or_default();
        e.upstream = Some((next, 0));
        e.rendezvous = false;
    }

    fn mark_rendezvous(&mut self, topic: u32) {
        let e = self.0.entry(topic).or_default();
        e.upstream = None;
        e.rendezvous = true;
    }

    fn tick(&mut self) {
        for e in self.0.values_mut() {
            let links = e.upstream.iter_mut().chain(&mut e.downstream);
            links.for_each(|(_, age)| *age = age.saturating_add(1));
        }
    }

    fn retain_links(&mut self, keep: impl Fn(u32, u16) -> bool) {
        self.0.retain(|_, e| {
            e.upstream = e.upstream.filter(|&(n, age)| keep(n, age));
            e.downstream.retain(|&(n, age)| keep(n, age));
            e.upstream.is_some() || !e.downstream.is_empty()
        });
    }
}

/// `RelayTable::fanout` as it was: a fresh vector of the upstream link and
/// the downstream links, minus the sender.
fn fanout_before(rt: &RelayTable, topic: TopicId, from: Option<NodeIdx>) -> Vec<NodeIdx> {
    let Some(e) = rt.get(topic) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if let Some(up) = e.upstream() {
        if Some(up) != from {
            out.push(up);
        }
    }
    for down in e.downstreams() {
        if Some(down) != from && !out.contains(&down) {
            out.push(down);
        }
    }
    out
}

proptest! {
    /// A TopicSet built by `from_iter` behaves like a reference BTreeSet of
    /// the same ids: membership, ascending iteration, length, and the
    /// positions `for_each_common` reports.
    #[test]
    fn topicset_matches_btreeset(
        a in proptest::collection::vec(0u32..40, 0..60),
        b in proptest::collection::vec(0u32..40, 0..60),
    ) {
        let (set, other) = (TopicSet::from_iter(a.clone()), TopicSet::from_iter(b.clone()));
        let reference: BTreeSet<u32> = a.into_iter().collect();
        let other_ref: BTreeSet<u32> = b.into_iter().collect();
        prop_assert_eq!(set.len(), reference.len());
        let got: Vec<u32> = set.iter().map(|t| t.0).collect();
        let ids: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(&got, &ids);
        for t in 0..41 {
            prop_assert_eq!(set.contains(TopicId(t)), reference.contains(&t));
        }
        let mut common = Vec::new();
        set.for_each_common(&other, |i, j, t| common.push((i, j, t.0)));
        let other_ids: Vec<u32> = other_ref.iter().copied().collect();
        let want: Vec<(usize, usize, u32)> = reference
            .intersection(&other_ref)
            .map(|t| {
                let i = ids.binary_search(t).unwrap();
                (i, other_ids.binary_search(t).unwrap(), *t)
            })
            .collect();
        prop_assert_eq!(common, want);
    }

    /// Intersection size via merge equals the reference computation.
    #[test]
    fn intersection_matches_reference(
        a in proptest::collection::vec(0u32..60, 0..40),
        b in proptest::collection::vec(0u32..60, 0..40),
    ) {
        let sa = ts(&a);
        let sb = ts(&b);
        let ra: BTreeSet<u32> = a.iter().copied().collect();
        let rb: BTreeSet<u32> = b.iter().copied().collect();
        prop_assert_eq!(sa.intersection_len(&sb), ra.intersection(&rb).count());
    }

    /// Utility is symmetric, in [0, 1], and 1 only for identical non-empty
    /// rate-positive sets.
    #[test]
    fn utility_bounds_and_symmetry(
        a in proptest::collection::vec(0u32..30, 0..20),
        b in proptest::collection::vec(0u32..30, 0..20),
        rates in proptest::collection::vec(0.0f64..10.0, 30),
    ) {
        let sa = ts(&a);
        let sb = ts(&b);
        let rt = RateTable::from_rates(rates);
        let u = utility(&sa, &sb, &rt);
        prop_assert!((0.0..=1.0).contains(&u));
        prop_assert_eq!(u, utility(&sb, &sa, &rt));
        // Weighted overlap masses are consistent: inter <= union.
        let (i, un) = sa.weighted_overlap(&sb, &rt);
        prop_assert!(i <= un + 1e-12);
    }

    /// Monitor hit ratio is always in [0, 1] and deliveries never exceed
    /// expectations.
    #[test]
    fn monitor_bounds(
        expected in proptest::collection::vec(0u32..30, 0..20),
        deliveries in proptest::collection::vec((0u32..40, 1u32..20), 0..60),
    ) {
        let m = Monitor::new();
        let exp: Vec<NodeIdx> = expected.iter().map(|&i| NodeIdx(i)).collect();
        let e = m.register_event(TopicId(0), SimTime(0), exp);
        for &(node, hops) in &deliveries {
            m.record_delivery(e, NodeIdx(node), hops, SimTime(5));
        }
        let s = m.snapshot();
        prop_assert!(s.delivered <= s.expected);
        prop_assert!((0.0..=1.0).contains(&s.hit_ratio));
        if s.delivered > 0 {
            prop_assert!(s.mean_hops >= 1.0);
            prop_assert!(s.mean_hops <= s.max_hops as f64);
        }
    }

    /// Relay fanout never returns the sender and never duplicates targets.
    #[test]
    fn relay_fanout_excludes_sender(
        downs in proptest::collection::vec(0u32..10, 0..10),
        upstream in proptest::option::of(0u32..10),
        from in proptest::option::of(0u32..10),
    ) {
        let mut rt = RelayTable::new();
        let t = TopicId(1);
        for &d in &downs {
            rt.entry(t).refresh_downstream(NodeIdx(d));
        }
        if let Some(u) = upstream {
            rt.entry(t).route(Some(NodeIdx(u)));
        }
        let from_idx = from.map(NodeIdx);
        let fan = rt.fanout(t, from_idx);
        if let Some(f) = from_idx {
            prop_assert!(!fan.contains(&f));
        }
        let mut dedup = fan.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), fan.len());
    }

    /// A relay hop (`RelayTable::lookup_hop`, one table search) leaves the
    /// table the old `add_downstream` → `set_upstream` / `mark_rendezvous`
    /// sequence left and returns the request to send on, whatever ageing,
    /// expiry and peer removal happen in between.
    /// Each op is `(kind, topic, a, b)`. Eight topics and eleven peers make
    /// entries with several downstream links side by side in the table, so
    /// spilling, promotion of the next link when the first expires or its
    /// peer goes, and removal of a middle link all happen next to other
    /// topics' links. Fewer than 255 ops keep every age below the point
    /// where the table's byte ages saturate.
    #[test]
    fn single_lookup_relay_hop_equals_the_three_lookup_sequence(
        ops in proptest::collection::vec((0u32..7, 0u32..8, 0u32..12, 0u32..12), 0..200),
    ) {
        let mut rt = RelayTable::new();
        let mut model = ThreeLookupTable::default();
        for &(kind, topic, a, b) in &ops {
            match kind {
                // A hop: a refresh at the path's origin (no downstream), a
                // forwarded request, or one that has used up its hop
                // budget and so installs the downstream link only.
                0..=3 => {
                    let from = (a > 0).then_some(a);
                    let capped = kind == 3 && from.is_some();
                    let next = (b > 0).then_some(b);
                    let hops = match from {
                        _ if capped => MAX_LOOKUP_HOPS,
                        Some(_) => MAX_LOOKUP_HOPS - 1,
                        None => 0,
                    };
                    // The routing table holds one neighbor, `b`, at the
                    // topic's ring id. The node sits at the antipode when
                    // the test wants `b` as the next hop, and on the
                    // topic's ring id itself, where no neighbor is closer,
                    // when it wants the rendezvous claim.
                    let target = TopicId(topic).ring_id();
                    let mut table = HybridRt::new();
                    table.succ = Some(Entry::fresh(NodeIdx(b), target, Subs::default()));
                    let me = if next.is_some() { Id(target.0 ^ (1 << 63)) } else { target };

                    let from_idx = from.map(NodeIdx);
                    let sent = rt.lookup_hop(TopicId(topic), from_idx, hops, me, &table);
                    let want = next.filter(|_| !capped).map(|n| (NodeIdx(n), hops + 1));
                    prop_assert_eq!(sent, want);

                    if let Some(from) = from {
                        model.add_downstream(topic, from);
                    }
                    match next {
                        _ if capped => {}
                        Some(next) => model.set_upstream(topic, next),
                        None => model.mark_rendezvous(topic),
                    }
                }
                4 => {
                    rt.tick();
                    model.tick();
                }
                5 => {
                    let ttl = (a % 4) as u16;
                    rt.expire(ttl);
                    model.retain_links(|_, age| age <= ttl);
                }
                _ => {
                    rt.remove_peer(NodeIdx(a));
                    model.retain_links(|n, _| n != a);
                }
            }
            let got: BTreeMap<u32, ModelEntry> = rt
                .entries()
                .map(|(t, e)| {
                    let entry = ModelEntry {
                        upstream: e.upstream().map(|n| n.0).zip(e.upstream_age()),
                        downstream: e.downstream_links().map(|(n, age)| (n.0, age)).collect(),
                        rendezvous: e.is_rendezvous(),
                    };
                    (t.0, entry)
                })
                .collect();
            prop_assert_eq!(&got, &model.0);
            prop_assert_eq!(rt.len(), model.0.len());
        }
    }

    /// Appending the fan-out to the caller's targets gives the targets, in
    /// the order, that `fanout` plus the caller's own `contains` check
    /// gave — for every sender, and whatever the caller already holds.
    #[test]
    fn appending_fanout_equals_fanout_then_dedup(
        downs in proptest::collection::vec(0u32..10, 0..10),
        upstream in proptest::option::of(0u32..10),
        own_targets in proptest::collection::vec(0u32..14, 0..8),
    ) {
        let mut rt = RelayTable::new();
        let t = TopicId(1);
        for &d in &downs {
            rt.entry(t).refresh_downstream(NodeIdx(d));
        }
        if let Some(u) = upstream {
            rt.entry(t).route(Some(NodeIdx(u)));
        }
        for came_from in std::iter::once(None).chain((0..14).map(|f| Some(NodeIdx(f)))) {
            // The caller's own targets: distinct, never the sender.
            let mut own: Vec<NodeIdx> = Vec::new();
            for &o in &own_targets {
                if Some(NodeIdx(o)) != came_from && !own.contains(&NodeIdx(o)) {
                    own.push(NodeIdx(o));
                }
            }
            for topic in [t, TopicId(2)] {
                let before = fanout_before(&rt, topic, came_from);
                prop_assert_eq!(&rt.fanout(topic, came_from), &before);
                let mut want = own.clone();
                for r in before {
                    if !want.contains(&r) {
                        want.push(r);
                    }
                }
                let mut got = own.clone();
                rt.fanout_into(topic, came_from, &mut got);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Gateway revision always returns either the self-proposal or one of
    /// the offered ones, with hops within the radius.
    #[test]
    fn revise_proposal_stays_in_offered_set(
        self_id: u64,
        d_max in 1u32..10,
        offers in proptest::collection::vec((1u32..20, any::<u64>(), 0u32..12), 0..10),
    ) {
        let me = NodeIdx(0);
        let topic = TopicId(3);
        // One proposal per distinct neighbor, and a gateway's id is a
        // function of its address — both hold in the real protocol (a
        // neighbor advertises a single proposal; ids are hashes of
        // addresses).
        let proposals: Vec<(NodeIdx, Proposal)> = offers.iter().enumerate()
            .map(|(i, &(nbr, gw_id, hops))| {
                let _ = nbr;
                (NodeIdx(i as u32 + 1), Proposal {
                    gw_id: Id(gw_id),
                    gw_addr: NodeIdx(vitis_sim::rng::mix64(gw_id) as u32),
                    parent: NodeIdx(i as u32 + 1),
                    hops,
                })
            }).collect();
        let refs: Vec<(NodeIdx, &Proposal)> = proposals.iter().map(|(n, p)| (*n, p)).collect();
        let out = revise_proposal(me, Id(self_id), topic, d_max, refs, |_| false);
        if out.gw_addr == me {
            prop_assert_eq!(out.hops, 0);
        } else {
            prop_assert!(out.hops <= d_max);
            prop_assert!(proposals.iter().any(|(_, p)| p.gw_addr == out.gw_addr));
            // Adopted proposals are never ring-farther than self.
            let target = topic.ring_id();
            prop_assert!(target.ring_distance(out.gw_id) <= target.ring_distance(Id(self_id)));
        }
    }
}
