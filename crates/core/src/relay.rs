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
//! One hop of the walk is [`RelayTable::lookup_hop`]. RVR builds its
//! Scribe trees with the same hop; only the walk's starters differ
//! (elected gateways for Vitis, every subscriber for RVR).
//!
//! The state is soft: gateways re-issue their lookups every round, each pass
//! refreshes the links it uses, and anything unrefreshed for [`RELAY_TTL`]
//! rounds is dropped — this is how the structure heals around churn.
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
//! **Fences.** Beside each array the table keeps, inline, the topics at
//! positions k·n/([`FENCES`] + 1) for k = 1..=[`FENCES`] (`u32::MAX` for a
//! position past the end): 2 × 32 bytes. A search counts the fences at or
//! below its topic and searches only the block between two of them, about
//! a ninth of the array, so [`RelayTable::prefetch`] knows before a relay
//! hop runs exactly which cache lines its searches will read. The fences
//! are rebuilt wherever an array changes shape: an entry's creation, a
//! link's spill and [`RelayTable::expire`] / [`RelayTable::remove_peer`].
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

use crate::topic::{Subs, TopicId};
use std::mem::{size_of, size_of_val};
use std::ops::Range;
use vitis_overlay::id::Id;
use vitis_overlay::routing::next_hop;
use vitis_overlay::rt::HybridRt;
use vitis_sim::event::NodeIdx;

/// No link: a slot's upstream at the rendezvous or before the first route,
/// its downstream before the first refresh. Engine slots are dense from
/// zero, so no node has this index.
const NONE: NodeIdx = NodeIdx(u32::MAX);

/// Rounds a relay link (and an RVR tree link) survives without a refresh:
/// the `ttl` Vitis and RVR pass to [`RelayTable::expire`], and the age from
/// which the topology audit (`crate::topo::audit`) counts a link as expiring.
pub const RELAY_TTL: u16 = 5;

// Byte-sized ages saturate at 255, so a link could never outlive a TTL of
// 255 or more.
const _: () = assert!(RELAY_TTL < 255);

/// Safety cap on the hops of a walk [`RelayTable::lookup_hop`] takes one
/// hop at a time (Vitis's relay requests, RVR's joins): a request that has
/// taken this many hops is not forwarded again.
pub const MAX_LOOKUP_HOPS: u32 = 128;

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

/// Fences per array of a [`RelayTable`] (see "Fences" in the module
/// documentation).
pub const FENCES: usize = 8;

/// The topics at positions k·n/([`FENCES`] + 1), k = 1..=[`FENCES`], of a
/// sorted n-element array; `u32::MAX` for a position past its end.
#[derive(Clone, Copy, Debug)]
struct Fences([u32; FENCES]);

impl Default for Fences {
    fn default() -> Self {
        Fences([u32::MAX; FENCES])
    }
}

impl Fences {
    fn of<T>(v: &[T], key: impl Fn(&T) -> TopicId) -> Self {
        let n = v.len();
        let at = |k: usize| {
            v.get((k + 1) * n / (FENCES + 1))
                .map_or(u32::MAX, |x| key(x).0)
        };
        Fences(std::array::from_fn(at))
    }

    /// The block of an `n`-element array that follows the fences `below`
    /// accepts: with b of them, positions b·n/(F + 1) .. (b + 1)·n/(F + 1).
    /// `below` must accept a prefix of the fences.
    fn block(&self, n: usize, below: impl Fn(u32) -> bool) -> Range<usize> {
        let b = self.0.iter().filter(|&&f| below(f)).count();
        b * n / (FENCES + 1)..(b + 1) * n / (FENCES + 1)
    }
}

/// Whether debug builds check the fenced searches for `topic` against a
/// search of the whole array. Every eighth topic: checking every search
/// made the debug `cargo test --workspace` 13 % slower (167 → 189 s,
/// medians of three runs a side on a 2-core x86_64 host).
fn checked(topic: TopicId) -> bool {
    topic.0.is_multiple_of(8)
}

/// The block of `spilled` that holds the first link whose topic is at least
/// `topic`, or whose end is that link's position.
fn spill_block(fences: &Fences, n: usize, topic: TopicId) -> Range<usize> {
    fences.block(n, |f| f < topic.0)
}

/// Where `topic`'s spilled links sit in `spilled`: an empty range at their
/// insertion point if it has none.
fn spill_range(spilled: &[SpilledLink], fences: &Fences, topic: TopicId) -> Range<usize> {
    let block = spill_block(fences, spilled.len(), topic);
    let start = block.start + spilled[block].partition_point(|l| l.topic < topic);
    debug_assert!(
        !checked(topic) || start == spilled.partition_point(|l| l.topic < topic),
        "fenced spilled-link search for {topic:?}"
    );
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
        let RelayTable {
            slots,
            spilled,
            spill_fences,
            ..
        } = &mut *self.table;
        let slot = &mut slots[self.i];
        if slot.down == NONE || slot.down == from {
            slot.down = from;
            slot.down_age = 0;
            return;
        }
        let range = spill_range(spilled, spill_fences, slot.topic);
        match spilled[range.clone()].iter_mut().find(|l| l.node == from) {
            Some(l) => l.age = 0,
            None => {
                let link = SpilledLink {
                    topic: slot.topic,
                    node: from,
                    age: 0,
                };
                spilled.insert(range.end, link);
                *spill_fences = Fences::of(spilled, |l| l.topic);
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
    /// `slots`' fences.
    slot_fences: Fences,
    /// `spilled`'s fences.
    spill_fences: Fences,
}

impl RelayTable {
    /// An empty table.
    pub fn new() -> Self {
        RelayTable::default()
    }

    /// The block of `slots` that holds `topic`, or whose end is its
    /// insertion point.
    fn slot_block(&self, topic: TopicId) -> Range<usize> {
        self.slot_fences.block(self.slots.len(), |f| f <= topic.0)
    }

    /// `topic`'s position in `slots`, or its insertion point. The keys are
    /// unique, so the block's answer is the whole array's.
    fn pos(&self, topic: TopicId) -> Result<usize, usize> {
        let block = self.slot_block(topic);
        let start = block.start;
        let found = self.slots[block]
            .binary_search_by_key(&topic, |s| s.topic)
            .map(|i| start + i)
            .map_err(|i| start + i);
        debug_assert!(
            !checked(topic) || found == self.slots.binary_search_by_key(&topic, |s| s.topic),
            "fenced slot search for {topic:?}"
        );
        found
    }

    fn view<'a>(&'a self, slot: &'a RelaySlot) -> RelayEntry<'a> {
        let spilled = if slot.spilled {
            &self.spilled[spill_range(&self.spilled, &self.spill_fences, slot.topic)]
        } else {
            &[]
        };
        RelayEntry { slot, spilled }
    }

    /// One step of the greedy lookup toward `hash(topic)` at this node, on
    /// one table search: the hop of a Vitis relay request and of an RVR
    /// join alike. `from` is the node the request arrived from (`None` at
    /// the node that starts the walk, where `hops` is 0), `hops` the hops
    /// it has taken, `me` and `rt` this node's ring id and routing table.
    ///
    /// The step refreshes the downstream link to `from`. A request that has
    /// taken [`MAX_LOOKUP_HOPS`] hops stops there and installs nothing
    /// else. Otherwise the step records the greedy next hop with
    /// [`RelayEntryMut::route`] (the rendezvous claim if no neighbor is
    /// closer) and returns the request to send on: `(next, hops + 1)`.
    pub fn lookup_hop(
        &mut self,
        topic: TopicId,
        from: Option<NodeIdx>,
        hops: u32,
        me: Id,
        rt: &HybridRt<Subs>,
    ) -> Option<(NodeIdx, u32)> {
        let mut entry = self.entry(topic);
        if let Some(from) = from {
            entry.refresh_downstream(from);
        }
        if hops >= MAX_LOOKUP_HOPS {
            return None;
        }
        let next = next_hop(me, topic.ring_id(), rt.iter().map(|e| (e.id, e.addr)));
        entry.route(next);
        next.map(|next| (next, hops + 1))
    }

    /// The entry for `topic`, created empty if absent — the one key search
    /// of a [`RelayTable::lookup_hop`].
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
            self.slot_fences = Fences::of(&self.slots, |s| s.topic);
            i
        });
        RelayEntryMut { table: self, i }
    }

    /// Prefetch every cache line a search for `topic` reads: its block of
    /// slots, and its block of spilled links with the link after it (the
    /// first a run count past the block reads). The cold lines
    /// [`RelayTable::entry`] and its spilled-link lookup would miss on,
    /// warmed while other handlers run. Reads only the vectors' headers and
    /// the inline fences.
    pub fn prefetch(&self, topic: TopicId) {
        fn lines<T>(block: &[T]) {
            vitis_sim::perf::prefetch_range(block.as_ptr(), size_of_val(block));
        }
        let (slots, spilled) = self.search_blocks(topic);
        lines(slots);
        lines(spilled);
    }

    /// The parts of the two arrays that [`RelayTable::prefetch`] warms for
    /// `topic`.
    fn search_blocks(&self, topic: TopicId) -> (&[RelaySlot], &[SpilledLink]) {
        let n = self.spilled.len();
        let spill = spill_block(&self.spill_fences, n, topic);
        let spill = spill.start..n.min(spill.end + 1);
        (&self.slots[self.slot_block(topic)], &self.spilled[spill])
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
        let RelayTable {
            slots,
            spilled,
            slot_fences,
            spill_fences,
        } = self;
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
        *slot_fences = Fences::of(slots, |s| s.topic);
        *spill_fences = Fences::of(spilled, |l| l.topic);
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

    /// The fence-free twin of a [`RelayTable`]: its entries in topic order,
    /// each with its links in insertion order, found by a search of the
    /// whole vector.
    #[derive(Default)]
    struct Plain(Vec<PlainEntry>);

    #[derive(Debug, PartialEq)]
    struct PlainEntry {
        topic: TopicId,
        up: Option<(NodeIdx, u16)>,
        rendezvous: bool,
        down: Vec<(NodeIdx, u16)>,
    }

    impl Plain {
        fn entry(&mut self, topic: TopicId) -> &mut PlainEntry {
            let i = self.0.binary_search_by_key(&topic, |e| e.topic);
            let i = i.unwrap_or_else(|i| {
                let e = PlainEntry {
                    topic,
                    up: None,
                    rendezvous: false,
                    down: Vec::new(),
                };
                self.0.insert(i, e);
                i
            });
            &mut self.0[i]
        }

        fn refresh_downstream(&mut self, topic: TopicId, from: NodeIdx) {
            let e = self.entry(topic);
            match e.down.iter_mut().find(|(n, _)| *n == from) {
                Some(link) => link.1 = 0,
                None => e.down.push((from, 0)),
            }
        }

        fn route(&mut self, topic: TopicId, next: Option<NodeIdx>) {
            let e = self.entry(topic);
            e.up = next.map(|n| (n, 0));
            e.rendezvous = next.is_none();
        }

        fn tick(&mut self) {
            for e in &mut self.0 {
                for (_, age) in e.up.iter_mut().chain(&mut e.down) {
                    *age = (*age + 1).min(255);
                }
            }
        }

        fn retain_links(&mut self, keep: impl Fn(NodeIdx, u16) -> bool) {
            for e in &mut self.0 {
                e.up = e.up.filter(|&(n, age)| keep(n, age));
                e.down.retain(|&(n, age)| keep(n, age));
            }
            self.0.retain(|e| e.up.is_some() || !e.down.is_empty());
        }
    }

    fn observe(rt: &RelayTable) -> Vec<PlainEntry> {
        let entry = |(topic, e): (TopicId, RelayEntry<'_>)| PlainEntry {
            topic,
            up: e.upstream().zip(e.upstream_age()),
            rendezvous: e.is_rendezvous(),
            down: e.downstream_links().collect(),
        };
        rt.entries().map(entry).collect()
    }

    /// The fenced searches for `topic` against whole-array ones.
    fn assert_searches_agree(rt: &RelayTable, topic: TopicId) {
        let plain = rt.slots.binary_search_by_key(&topic, |s| s.topic);
        assert_eq!(rt.pos(topic), plain, "slot search for {topic:?}");
        let start = rt.spilled.partition_point(|l| l.topic < topic);
        let end = rt.spilled.partition_point(|l| l.topic <= topic);
        let fenced = spill_range(&rt.spilled, &rt.spill_fences, topic);
        assert_eq!(fenced, start..end, "spilled search for {topic:?}");
    }

    /// Whether a run of equal spilled topics spans one of the fences.
    fn a_run_crosses_a_fence(spilled: &[SpilledLink]) -> bool {
        let n = spilled.len();
        (1..=FENCES)
            .map(|k| k * n / (FENCES + 1))
            .any(|p| p > 0 && p < n && spilled[p - 1].topic == spilled[p].topic)
    }

    #[test]
    fn fenced_searches_equal_whole_array_searches() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Sizes each array was seen at: 0, 1, 2..=FENCES, more.
        let bucket = |n: usize| match n {
            0 => 0,
            1 => 1,
            n if n <= FENCES => 2,
            _ => 3,
        };
        let mut sizes = [[0u32; 4]; 2];
        let (mut crossing_runs, mut extreme_keys) = (0, 0);
        for case in 0..300 {
            let mut rng = SmallRng::seed_from_u64(case);
            // Few distinct topics keep some tables at most FENCES long;
            // few nodes make long runs of one topic's spilled links.
            let topics = rng.gen_range(1..24u32);
            let nodes = rng.gen_range(2..16u32);
            let topic = |k: u32| match k {
                0 => TopicId(0),
                k if k == topics - 1 => TopicId(u32::MAX),
                k => TopicId(k * 1000),
            };
            let (mut rt, mut twin) = (RelayTable::new(), Plain::default());
            for _ in 0..rng.gen_range(0..400) {
                let t = topic(rng.gen_range(0..topics));
                let node = n(rng.gen_range(0..nodes));
                match rng.gen_range(0..100) {
                    0..=44 => {
                        rt.entry(t).refresh_downstream(node);
                        twin.refresh_downstream(t, node);
                    }
                    45..=69 => {
                        let next = (rng.gen_range(0..5) > 0).then_some(node);
                        rt.entry(t).route(next);
                        twin.route(t, next);
                    }
                    70..=84 => {
                        rt.tick();
                        twin.tick();
                    }
                    85..=93 => {
                        let ttl = rng.gen_range(0..8);
                        rt.expire(ttl);
                        twin.retain_links(|_, age| age <= ttl);
                    }
                    _ => {
                        rt.remove_peer(node);
                        twin.retain_links(|n, _| n != node);
                    }
                }
                assert_eq!(observe(&rt), twin.0, "case {case}");
                assert_eq!(rt.slot_fences.0, Fences::of(&rt.slots, |s| s.topic).0);
                assert_eq!(rt.spill_fences.0, Fences::of(&rt.spilled, |l| l.topic).0);
                let held = [0, u32::MAX].map(TopicId);
                extreme_keys += held.iter().all(|&t| rt.has(t)) as u32;
                crossing_runs += a_run_crosses_a_fence(&rt.spilled) as u32;
                sizes[0][bucket(rt.slots.len())] += 1;
                sizes[1][bucket(rt.spilled.len())] += 1;
                for k in 0..topics {
                    assert_searches_agree(&rt, topic(k));
                    assert_searches_agree(&rt, TopicId(k * 1000 + 500));
                }
                assert_searches_agree(&rt, TopicId(1));
                assert_searches_agree(&rt, TopicId(u32::MAX - 1));
            }
        }
        for (array, seen) in ["slots", "spilled"].iter().zip(sizes) {
            assert!(seen.iter().all(|&c| c > 0), "{array} sizes {seen:?}");
        }
        assert!(crossing_runs > 0, "no run of spilled links crossed a fence");
        assert!(
            extreme_keys > 0,
            "topics 0 and u32::MAX never held together"
        );
    }

    #[test]
    fn prefetch_reads_only_in_bounds_blocks() {
        fn inside<T>(part: &[T], whole: &[T]) -> bool {
            let (p, w) = (part.as_ptr_range(), whole.as_ptr_range());
            part.is_empty() || (w.start <= p.start && p.end <= w.end)
        }
        // Each topic with two downstream links: one inline, one spilled.
        let table = |topics: &[u32]| {
            let mut rt = RelayTable::new();
            for &t in topics {
                rt.entry(TopicId(t)).refresh_downstream(n(1));
                rt.entry(TopicId(t)).refresh_downstream(n(2));
            }
            rt
        };
        let below_fences: Vec<u32> = (0..=FENCES as u32).collect();
        let up_to_max: Vec<u32> = (1..=FENCES as u32).chain([u32::MAX]).collect();
        let tables = [
            table(&[]),
            table(&[5]),
            table(&[u32::MAX]),
            table(&below_fences),
            table(&up_to_max),
        ];
        for rt in &tables {
            let probes = rt
                .entries()
                .map(|(t, _)| t)
                .chain([TopicId(0), TopicId(u32::MAX)]);
            for topic in probes {
                rt.prefetch(topic);
                let (slots, spilled) = rt.search_blocks(topic);
                assert!(inside(slots, &rt.slots) && inside(spilled, &rt.spilled));
                assert!(slots.len() <= rt.len().div_ceil(FENCES + 1));
                if rt.has(topic) {
                    assert!(slots.iter().any(|s| s.topic == topic), "{topic:?}");
                    assert!(spilled.iter().any(|l| l.topic == topic), "{topic:?}");
                }
            }
        }
        assert_eq!(tables[0].search_blocks(TopicId(u32::MAX)).0.len(), 0);
        assert_eq!(tables[0].search_blocks(TopicId(u32::MAX)).1.len(), 0);
        assert_eq!(tables[3].len(), FENCES + 1);
    }
}
