//! Relay-path soft state.
//!
//! A relay path is the greedy lookup path from a cluster gateway to the
//! topic's rendezvous node. Every node on the path — subscriber or not —
//! installs a relay entry: one *upstream* link pointing toward the
//! rendezvous and any number of *downstream* links pointing back toward the
//! gateways whose lookups passed through. Notifications travel up to the
//! rendezvous and back down every other branch, which is what stitches the
//! disjoint clusters of a topic together.
//!
//! The state is soft: gateways re-issue their lookups every round, each pass
//! refreshes the links it uses, and anything unrefreshed for `ttl` rounds is
//! dropped — this is how the structure heals around churn.
//!
//! # Layout
//!
//! The relay table is the per-node owner that grows with N (DESIGN §12), so
//! it is laid out for bytes. One node's table is two arrays, both sorted by
//! topic:
//!
//! * one [`RelaySlot`] of 16 bytes per entry: the topic, the upstream link
//!   as a `NodeIdx` with a sentinel for "none", the *first* downstream link
//!   inline, a byte-sized age for each, and the rendezvous claim;
//! * one [`SpilledLink`] of 12 bytes per further downstream link, in a
//!   table-wide array that holds every entry's second and later links,
//!   grouped by topic and in insertion order within a topic.
//!
//! An entry with at most one downstream link owns no allocation of its own,
//! and the table costs two allocations however many entries it holds.
//!
//! **Promotion.** When an entry's inline downstream link expires or its
//! peer is removed, the entry's first surviving spilled link moves inline.
//! The downstream order is therefore insertion order at all times, which
//! matters because it is [`RelayTable::fanout_into`]'s order and so event
//! order.
//!
//! Ages saturate at 255. A TTL of 255 or more could never expire a link,
//! which is why [`RELAY_TTL`] is held below 255 at compile time.
//!
//! [`RelayEntry`] is a borrowed read view of one entry;
//! [`RelayTable::entry`] hands out a [`RelayEntryMut`] write handle.

use crate::topic::TopicId;
use std::mem::size_of;
use std::ops::Range;
use vitis_sim::event::NodeIdx;

/// No link: a slot's upstream at the rendezvous or before the first route,
/// its downstream before the first refresh. Engine slots are dense from
/// zero, so no node has this index.
const NONE: NodeIdx = NodeIdx(u32::MAX);

/// Rounds a relay link (and an RVR tree link) survives without a refresh:
/// the `ttl` Vitis and RVR pass to [`RelayTable::expire`].
pub const RELAY_TTL: u16 = 5;

// Byte-sized ages saturate at 255, so a link could never outlive a TTL of
// 255 or more.
const _: () = assert!(RELAY_TTL < 255);

fn link(n: NodeIdx) -> Option<NodeIdx> {
    (n != NONE).then_some(n)
}

/// One relay entry as the table stores it.
#[derive(Clone, Copy, Debug)]
pub struct RelaySlot {
    topic: TopicId,
    /// Next hop toward the rendezvous, or [`NONE`].
    up: NodeIdx,
    /// The first downstream link, or [`NONE`]; when it is `NONE` the entry
    /// has no spilled links either.
    down: NodeIdx,
    up_age: u8,
    down_age: u8,
    /// Whether this node currently believes it is the topic's rendezvous.
    rendezvous: bool,
    /// Whether the entry has links in [`RelayTable::spilled`].
    spilled: bool,
}

/// An entry's second or later downstream link.
#[derive(Clone, Copy, Debug)]
pub struct SpilledLink {
    topic: TopicId,
    node: NodeIdx,
    age: u8,
}

/// Where `topic`'s spilled links sit in `spilled`: an empty range at their
/// insertion point if it has none.
fn spill_range(spilled: &[SpilledLink], topic: TopicId) -> Range<usize> {
    let start = spilled.partition_point(|l| l.topic < topic);
    let run = spilled[start..].iter().take_while(|l| l.topic == topic);
    start..start + run.count()
}

/// One topic's relay state at one node, borrowed from its table.
#[derive(Clone, Copy, Debug)]
pub struct RelayEntry<'a> {
    slot: &'a RelaySlot,
    spilled: &'a [SpilledLink],
}

impl<'a> RelayEntry<'a> {
    /// The upstream next hop, if any.
    pub fn upstream(self) -> Option<NodeIdx> {
        link(self.slot.up)
    }

    /// The downstream links, in insertion order.
    pub fn downstreams(self) -> impl Iterator<Item = NodeIdx> + 'a {
        self.downstream_links().map(|(n, _)| n)
    }

    /// Whether this node is the rendezvous for the topic.
    pub fn is_rendezvous(self) -> bool {
        self.slot.rendezvous
    }

    /// Freshness age of the upstream link, if one exists.
    pub fn upstream_age(self) -> Option<u16> {
        self.upstream().map(|_| self.slot.up_age.into())
    }

    /// The downstream links with their freshness ages, in insertion order.
    pub fn downstream_links(self) -> impl Iterator<Item = (NodeIdx, u16)> + 'a {
        let first = link(self.slot.down).map(|n| (n, self.slot.down_age.into()));
        let rest = self.spilled.iter().map(|l| (l.node, l.age.into()));
        first.into_iter().chain(rest)
    }
}

/// Write access to one entry of a [`RelayTable`], from
/// [`RelayTable::entry`].
pub struct RelayEntryMut<'a> {
    table: &'a mut RelayTable,
    i: usize,
}

impl RelayEntryMut<'_> {
    /// A relay request arrived from `from` (a gateway or an earlier path
    /// node): install the downstream link, or reset its age.
    pub fn refresh_downstream(&mut self, from: NodeIdx) {
        debug_assert_ne!(from, NONE);
        let RelayTable { slots, spilled } = &mut *self.table;
        let slot = &mut slots[self.i];
        if slot.down == NONE || slot.down == from {
            slot.down = from;
            slot.down_age = 0;
            return;
        }
        let range = spill_range(spilled, slot.topic);
        match spilled[range.clone()].iter_mut().find(|l| l.node == from) {
            Some(l) => l.age = 0,
            None => {
                let link = SpilledLink {
                    topic: slot.topic,
                    node: from,
                    age: 0,
                };
                spilled.insert(range.end, link);
                slot.spilled = true;
            }
        }
    }

    /// Record where the lookup goes from here. `Some(next)` installs (or
    /// refreshes) the upstream link and clears any rendezvous claim — if
    /// churn moved the greedy next hop, the old link is replaced. `None`
    /// means no neighbor is closer to `hash(topic)`: the lookup terminated
    /// here, so this node is the rendezvous and has no upstream.
    pub fn route(&mut self, next: Option<NodeIdx>) {
        debug_assert_ne!(next, Some(NONE));
        let slot = &mut self.table.slots[self.i];
        slot.up = next.unwrap_or(NONE);
        slot.up_age = 0;
        slot.rendezvous = next.is_none();
    }
}

/// All relay entries held by one node.
#[derive(Clone, Debug, Default)]
pub struct RelayTable {
    /// One slot per entry, sorted by topic.
    slots: Vec<RelaySlot>,
    /// Every entry's second and later downstream links, sorted by topic and
    /// in insertion order within a topic.
    spilled: Vec<SpilledLink>,
}

impl RelayTable {
    /// An empty table.
    pub fn new() -> Self {
        RelayTable::default()
    }

    fn pos(&self, topic: TopicId) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&topic, |s| s.topic)
    }

    fn view<'a>(&'a self, slot: &'a RelaySlot) -> RelayEntry<'a> {
        let spilled = if slot.spilled {
            &self.spilled[spill_range(&self.spilled, slot.topic)]
        } else {
            &[]
        };
        RelayEntry { slot, spilled }
    }

    /// The entry for `topic`, created empty if absent — the one key search
    /// of a relay hop. The lookup step then works on the entry in hand:
    /// [`RelayEntryMut::refresh_downstream`] for the link the request
    /// arrived over, the greedy next-hop scan, and [`RelayEntryMut::route`]
    /// with its outcome.
    pub fn entry(&mut self, topic: TopicId) -> RelayEntryMut<'_> {
        let i = self.pos(topic).unwrap_or_else(|i| {
            let slot = RelaySlot {
                topic,
                up: NONE,
                down: NONE,
                up_age: 0,
                down_age: 0,
                rendezvous: false,
                spilled: false,
            };
            self.slots.insert(i, slot);
            i
        });
        RelayEntryMut { table: self, i }
    }

    /// Prefetch the first two levels of a topic search (the slots at n/2,
    /// n/4 and 3n/4) in the slot array and in the spilled-link array: the
    /// cold probes [`RelayTable::entry`] and its spilled-link lookup start
    /// with, warmed while other handlers run. Reads only the two vectors'
    /// headers.
    pub fn prefetch(&self) {
        fn probes<T>(v: &[T]) {
            let n = v.len();
            for i in [n / 2, n / 4, 3 * n / 4] {
                if let Some(x) = v.get(i) {
                    vitis_sim::perf::prefetch(x);
                }
            }
        }
        probes(&self.slots);
        probes(&self.spilled);
    }

    /// Heap bytes of the slot array and the spilled-link array, as
    /// Σ capacity × element size.
    pub fn heap_bytes(&self) -> u64 {
        let slots = self.slots.capacity() * size_of::<RelaySlot>();
        (slots + self.spilled.capacity() * size_of::<SpilledLink>()) as u64
    }

    /// The entry for `topic`, if any.
    pub fn get(&self, topic: TopicId) -> Option<RelayEntry<'_>> {
        self.pos(topic).ok().map(|i| self.view(&self.slots[i]))
    }

    /// Whether this node holds relay state for `topic`.
    pub fn has(&self, topic: TopicId) -> bool {
        self.pos(topic).is_ok()
    }

    /// Number of topics with relay state here.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Append the forwarding fan-out for a notification on `topic` arriving
    /// from `from` to `out`: the upstream link, then every downstream link,
    /// minus the sender and minus anything `out` already holds (the
    /// caller's own targets). Appends nothing if this node has no relay
    /// state for the topic. Allocates only when `out` must grow.
    pub fn fanout_into(&self, topic: TopicId, from: Option<NodeIdx>, out: &mut Vec<NodeIdx>) {
        let Some(e) = self.get(topic) else {
            return;
        };
        for link in e.upstream().into_iter().chain(e.downstreams()) {
            if Some(link) != from && !out.contains(&link) {
                out.push(link);
            }
        }
    }

    /// [`RelayTable::fanout_into`] a fresh vector, for callers off the
    /// forwarding path (tests, the repo benchmark's kernel replay).
    pub fn fanout(&self, topic: TopicId, from: Option<NodeIdx>) -> Vec<NodeIdx> {
        let mut out = Vec::new();
        self.fanout_into(topic, from, &mut out);
        out
    }

    /// Age all links by one round. The ages of absent links are never
    /// read, so every age is bumped.
    pub fn tick(&mut self) {
        for s in &mut self.slots {
            s.up_age = s.up_age.saturating_add(1);
            s.down_age = s.down_age.saturating_add(1);
        }
        for l in &mut self.spilled {
            l.age = l.age.saturating_add(1);
        }
    }

    /// Drop links unrefreshed for more than `ttl` rounds, and entries left
    /// with no links at all. A linkless rendezvous claim is dropped too: the
    /// next lookup that terminates here re-creates it for free.
    pub fn expire(&mut self, ttl: u16) {
        self.retain_links(|_, age| u16::from(age) <= ttl);
    }

    /// Remove a failed neighbor from every entry.
    pub fn remove_peer(&mut self, peer: NodeIdx) {
        self.retain_links(|n, _| n != peer);
    }

    /// Keep the links `keep(peer, age)` accepts, promoting an entry's first
    /// surviving spilled link when its inline one goes, and drop entries
    /// left with no link. One pass over both arrays, in place: both are in
    /// topic order, so each slot's spilled links are the next run of
    /// `spilled`.
    fn retain_links(&mut self, keep: impl Fn(NodeIdx, u8) -> bool) {
        let RelayTable { slots, spilled } = self;
        let (mut kept, mut read, mut write) = (0, 0, 0);
        for i in 0..slots.len() {
            let mut s = slots[i];
            if s.up != NONE && !keep(s.up, s.up_age) {
                s.up = NONE;
            }
            if s.down != NONE && !keep(s.down, s.down_age) {
                s.down = NONE;
            }
            if s.spilled {
                let first = write;
                while read < spilled.len() && spilled[read].topic == s.topic {
                    let l = spilled[read];
                    read += 1;
                    if !keep(l.node, l.age) {
                        continue;
                    }
                    if s.down == NONE {
                        (s.down, s.down_age) = (l.node, l.age);
                    } else {
                        spilled[write] = l;
                        write += 1;
                    }
                }
                s.spilled = write > first;
            }
            if s.up != NONE || s.down != NONE {
                slots[kept] = s;
                kept += 1;
            }
        }
        debug_assert_eq!(read, spilled.len(), "a spilled link without its slot");
        slots.truncate(kept);
        spilled.truncate(write);
    }

    /// Every entry with its topic, in topic order (for telemetry exports).
    pub fn entries(&self) -> impl Iterator<Item = (TopicId, RelayEntry<'_>)> + '_ {
        self.slots.iter().map(|s| (s.topic, self.view(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeIdx {
        NodeIdx(i)
    }
    const T: TopicId = TopicId(3);

    #[test]
    fn fanout_forwards_everywhere_except_sender() {
        let mut rt = RelayTable::new();
        rt.entry(T).refresh_downstream(n(1));
        rt.entry(T).refresh_downstream(n(2));
        rt.entry(T).route(Some(n(9)));
        let f = rt.fanout(T, Some(n(1)));
        assert_eq!(f, vec![n(9), n(2)]);
        let f = rt.fanout(T, Some(n(9)));
        assert_eq!(f, vec![n(1), n(2)]);
        let f = rt.fanout(T, None);
        assert_eq!(f, vec![n(9), n(1), n(2)]);
        assert!(rt.fanout(TopicId(99), None).is_empty());
    }

    #[test]
    fn rendezvous_has_no_upstream() {
        let mut rt = RelayTable::new();
        rt.entry(T).route(Some(n(9)));
        rt.entry(T).route(None);
        let e = rt.get(T).unwrap();
        assert!(e.is_rendezvous());
        assert_eq!(e.upstream(), None);
        // Re-routing later clears the rendezvous claim.
        rt.entry(T).route(Some(n(4)));
        assert!(!rt.get(T).unwrap().is_rendezvous());
    }

    #[test]
    fn refresh_resets_ages() {
        let mut rt = RelayTable::new();
        rt.entry(T).refresh_downstream(n(1));
        rt.tick();
        rt.tick();
        rt.entry(T).refresh_downstream(n(1)); // refresh
        rt.expire(1);
        assert!(rt.has(T));
        assert_eq!(rt.get(T).unwrap().downstreams().count(), 1);
    }

    #[test]
    fn expiry_drops_stale_links_and_empty_entries() {
        let mut rt = RelayTable::new();
        rt.entry(T).refresh_downstream(n(1));
        rt.entry(T).route(Some(n(9)));
        for _ in 0..3 {
            rt.tick();
        }
        rt.expire(2);
        assert!(!rt.has(T), "fully stale entry must vanish");
    }

    #[test]
    fn partial_expiry_keeps_fresh_links() {
        let mut rt = RelayTable::new();
        rt.entry(T).refresh_downstream(n(1));
        for _ in 0..3 {
            rt.tick();
        }
        rt.entry(T).refresh_downstream(n(2)); // fresh
        rt.expire(2);
        let e = rt.get(T).unwrap();
        assert_eq!(e.downstreams().collect::<Vec<_>>(), vec![n(2)]);
    }

    #[test]
    fn expired_first_link_is_replaced_by_the_next_in_order() {
        const T2: TopicId = TopicId(7);
        let mut rt = RelayTable::new();
        // A neighbouring topic's spilled links sit on both sides of T's.
        rt.entry(TopicId(1)).refresh_downstream(n(20));
        rt.entry(TopicId(1)).refresh_downstream(n(21));
        rt.entry(T).refresh_downstream(n(1));
        rt.tick();
        rt.entry(T).refresh_downstream(n(2));
        rt.entry(T).refresh_downstream(n(3));
        rt.entry(T).refresh_downstream(n(4));
        rt.entry(T2).refresh_downstream(n(30));
        rt.entry(T2).refresh_downstream(n(31));
        rt.tick();
        rt.entry(T).refresh_downstream(n(3));
        rt.entry(TopicId(1)).refresh_downstream(n(20));
        rt.entry(TopicId(1)).refresh_downstream(n(21));
        rt.entry(T2).refresh_downstream(n(30));
        rt.entry(T2).refresh_downstream(n(31));
        // n1 is two rounds old, n2 and n4 one, n3 was just refreshed.
        rt.expire(1);
        let e = rt.get(T).unwrap();
        let links: Vec<_> = e.downstream_links().collect();
        assert_eq!(links, vec![(n(2), 1), (n(3), 0), (n(4), 1)]);
        // A new link still goes last, and the promoted link goes the same
        // way when its turn comes.
        rt.entry(T).refresh_downstream(n(5));
        rt.remove_peer(n(2));
        let links: Vec<_> = rt.get(T).unwrap().downstream_links().collect();
        assert_eq!(links, vec![(n(3), 0), (n(4), 1), (n(5), 0)]);
        assert_eq!(rt.fanout(T, None), vec![n(3), n(4), n(5)]);
        // Neighbouring topics kept their links and their order.
        let other: Vec<_> = rt.get(TopicId(1)).unwrap().downstreams().collect();
        assert_eq!(other, vec![n(20), n(21)]);
        let other: Vec<_> = rt.get(T2).unwrap().downstreams().collect();
        assert_eq!(other, vec![n(30), n(31)]);
    }

    #[test]
    fn remove_peer_heals_entries() {
        let mut rt = RelayTable::new();
        rt.entry(T).refresh_downstream(n(1));
        rt.entry(T).route(Some(n(9)));
        rt.remove_peer(n(9));
        assert!(rt.has(T)); // downstream survives
        assert_eq!(rt.get(T).unwrap().upstream(), None);
        rt.remove_peer(n(1));
        assert!(!rt.has(T));
    }

    #[test]
    fn duplicate_downstream_not_added() {
        let mut rt = RelayTable::new();
        rt.entry(T).refresh_downstream(n(1));
        rt.entry(T).refresh_downstream(n(1));
        assert_eq!(rt.get(T).unwrap().downstreams().count(), 1);
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn upstream_replacement_resets_target_and_age() {
        let mut rt = RelayTable::new();
        rt.entry(T).route(Some(n(9)));
        rt.tick();
        rt.tick();
        assert_eq!(rt.get(T).unwrap().upstream_age(), Some(2));
        // Churn moved the rendezvous: the greedy next hop changes.
        rt.entry(T).route(Some(n(4)));
        let e = rt.get(T).unwrap();
        assert_eq!(e.upstream(), Some(n(4)));
        assert_eq!(e.upstream_age(), Some(0));
    }

    #[test]
    fn downstream_removal_under_churn_keeps_other_ages() {
        let mut rt = RelayTable::new();
        rt.entry(T).refresh_downstream(n(1));
        rt.tick();
        rt.entry(T).refresh_downstream(n(2)); // younger link
        rt.remove_peer(n(1));
        let e = rt.get(T).unwrap();
        assert_eq!(e.downstreams().collect::<Vec<_>>(), vec![n(2)]);
        // Removal must not disturb the surviving link's freshness age.
        assert_eq!(e.downstream_links().collect::<Vec<_>>(), vec![(n(2), 0)]);
    }

    #[test]
    fn rendezvous_remarking_cycle() {
        let mut rt = RelayTable::new();
        rt.entry(T).route(None);
        assert!(rt.get(T).unwrap().is_rendezvous());
        // A joining node takes over the rendezvous position...
        rt.entry(T).route(Some(n(5)));
        let e = rt.get(T).unwrap();
        assert!(!e.is_rendezvous());
        assert_eq!(e.upstream(), Some(n(5)));
        // ...then crashes and the lookup terminates here again.
        rt.entry(T).route(None);
        let e = rt.get(T).unwrap();
        assert!(e.is_rendezvous());
        assert_eq!(e.upstream(), None);
    }

    #[test]
    fn crashed_peer_removed_across_topics() {
        const T2: TopicId = TopicId(7);
        let mut rt = RelayTable::new();
        // The crashed node appears as upstream of one topic and downstream
        // of another.
        rt.entry(T).route(Some(n(3)));
        rt.entry(T).refresh_downstream(n(1));
        rt.entry(T2).refresh_downstream(n(3));
        rt.entry(T2).route(None);
        rt.entry(T2).refresh_downstream(n(8));
        rt.remove_peer(n(3));
        let e = rt.get(T).unwrap();
        assert_eq!(e.upstream(), None);
        assert_eq!(e.downstreams().collect::<Vec<_>>(), vec![n(1)]);
        let e2 = rt.get(T2).unwrap();
        assert!(e2.is_rendezvous());
        assert_eq!(e2.downstreams().collect::<Vec<_>>(), vec![n(8)]);
        // No entry anywhere still references the crashed node.
        for (_, e) in rt.entries() {
            assert_ne!(e.upstream(), Some(n(3)));
            assert!(e.downstreams().all(|d| d != n(3)));
        }
    }

    #[test]
    fn entries_iterates_in_topic_order() {
        let mut rt = RelayTable::new();
        rt.entry(TopicId(9)).refresh_downstream(n(1));
        rt.entry(TopicId(2)).refresh_downstream(n(1));
        rt.entry(TopicId(5)).refresh_downstream(n(1));
        let order: Vec<TopicId> = rt.entries().map(|(t, _)| t).collect();
        assert_eq!(order, vec![TopicId(2), TopicId(5), TopicId(9)]);
    }
}
