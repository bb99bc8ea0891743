//! Relay-path soft state.
//!
//! A relay path is the greedy lookup path from a cluster gateway to the
//! topic's rendezvous node. Every node on the path — subscriber or not —
//! installs a [`RelayEntry`]: one *upstream* link pointing toward the
//! rendezvous and any number of *downstream* links pointing back toward the
//! gateways whose lookups passed through. Notifications travel up to the
//! rendezvous and back down every other branch, which is what stitches the
//! disjoint clusters of a topic together.
//!
//! The state is soft: gateways re-issue their lookups every round, each pass
//! refreshes the links it uses, and anything unrefreshed for `ttl` rounds is
//! dropped — this is how the structure heals around churn.

use crate::topic::TopicId;
use crate::smallmap::SmallMap;
use vitis_sim::event::NodeIdx;

/// Per-topic relay state at one node.
#[derive(Clone, Debug, Default)]
pub struct RelayEntry {
    /// Next hop toward the rendezvous, with its freshness age. `None` at the
    /// rendezvous node itself.
    upstream: Option<(NodeIdx, u16)>,
    /// Links back toward gateways, with freshness ages.
    downstream: Vec<(NodeIdx, u16)>,
    /// Whether this node currently believes it is the topic's rendezvous.
    rendezvous: bool,
}

impl RelayEntry {
    /// The upstream next hop, if any.
    pub fn upstream(&self) -> Option<NodeIdx> {
        self.upstream.map(|(n, _)| n)
    }

    /// The downstream links.
    pub fn downstreams(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.downstream.iter().map(|&(n, _)| n)
    }

    /// Whether this node is the rendezvous for the topic.
    pub fn is_rendezvous(&self) -> bool {
        self.rendezvous
    }

    /// Freshness age of the upstream link, if one exists.
    pub fn upstream_age(&self) -> Option<u16> {
        self.upstream.map(|(_, age)| age)
    }

    /// The downstream links with their freshness ages.
    pub fn downstream_links(&self) -> impl Iterator<Item = (NodeIdx, u16)> + '_ {
        self.downstream.iter().copied()
    }

    /// A relay request arrived from `from` (a gateway or an earlier path
    /// node): install the downstream link, or reset its age.
    pub fn refresh_downstream(&mut self, from: NodeIdx) {
        match self.downstream.iter_mut().find(|(n, _)| *n == from) {
            Some(link) => link.1 = 0,
            None => self.downstream.push((from, 0)),
        }
    }

    /// Record where the lookup goes from here. `Some(next)` installs (or
    /// refreshes) the upstream link and clears any rendezvous claim — if
    /// churn moved the greedy next hop, the old link is replaced. `None`
    /// means no neighbor is closer to `hash(topic)`: the lookup terminated
    /// here, so this node is the rendezvous and has no upstream.
    pub fn route(&mut self, next: Option<NodeIdx>) {
        self.upstream = next.map(|n| (n, 0));
        self.rendezvous = next.is_none();
    }
}

/// All relay entries held by one node.
#[derive(Clone, Debug, Default)]
pub struct RelayTable {
    entries: SmallMap<TopicId, RelayEntry>,
}

impl RelayTable {
    /// An empty table.
    pub fn new() -> Self {
        RelayTable::default()
    }

    /// The entry for `topic`, created empty if absent — the one key search
    /// of a relay hop. The lookup step then works on the entry in hand:
    /// [`RelayEntry::refresh_downstream`] for the link the request arrived
    /// over, the greedy next-hop scan, and [`RelayEntry::route`] with its
    /// outcome.
    pub fn entry(&mut self, topic: TopicId) -> &mut RelayEntry {
        self.entries.entry_or_default(topic)
    }

    /// Heap bytes of the entry array and every entry's downstream list, as
    /// Σ capacity × element size.
    pub fn heap_bytes(&self) -> u64 {
        let links: usize = self.entries.values().map(|e| e.downstream.capacity()).sum();
        self.entries.heap_bytes() + (links * std::mem::size_of::<(NodeIdx, u16)>()) as u64
    }

    /// The entry for `topic`, if any.
    pub fn get(&self, topic: TopicId) -> Option<&RelayEntry> {
        self.entries.get(&topic)
    }

    /// Whether this node holds relay state for `topic`.
    pub fn has(&self, topic: TopicId) -> bool {
        self.entries.contains_key(&topic)
    }

    /// Number of topics with relay state here.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append the forwarding fan-out for a notification on `topic` arriving
    /// from `from` to `out`: the upstream link, then every downstream link,
    /// minus the sender and minus anything `out` already holds (the
    /// caller's own targets). Appends nothing if this node has no relay
    /// state for the topic. Allocates only when `out` must grow.
    pub fn fanout_into(&self, topic: TopicId, from: Option<NodeIdx>, out: &mut Vec<NodeIdx>) {
        let Some(e) = self.entries.get(&topic) else {
            return;
        };
        let links = e.upstream.iter().chain(&e.downstream);
        for &(link, _) in links {
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

    /// Age all links by one round.
    pub fn tick(&mut self) {
        for e in self.entries.values_mut() {
            if let Some((_, age)) = &mut e.upstream {
                *age = age.saturating_add(1);
            }
            for (_, age) in &mut e.downstream {
                *age = age.saturating_add(1);
            }
        }
    }

    /// Drop links unrefreshed for more than `ttl` rounds, and entries left
    /// with no links at all. A linkless rendezvous claim is dropped too: the
    /// next lookup that terminates here re-creates it for free.
    pub fn expire(&mut self, ttl: u16) {
        self.entries.retain(|_, e| {
            if e.upstream.is_some_and(|(_, age)| age > ttl) {
                e.upstream = None;
            }
            e.downstream.retain(|&(_, age)| age <= ttl);
            e.upstream.is_some() || !e.downstream.is_empty()
        });
    }

    /// Remove a failed neighbor from every entry.
    pub fn remove_peer(&mut self, peer: NodeIdx) {
        self.entries.retain(|_, e| {
            if e.upstream.is_some_and(|(n, _)| n == peer) {
                e.upstream = None;
            }
            e.downstream.retain(|&(n, _)| n != peer);
            e.upstream.is_some() || !e.downstream.is_empty()
        });
    }

    /// Topics with active relay state (for metrics/tests).
    pub fn topics(&self) -> impl Iterator<Item = TopicId> + '_ {
        self.entries.keys().copied()
    }

    /// Every entry with its topic, in topic order (for telemetry exports).
    pub fn entries(&self) -> impl Iterator<Item = (TopicId, &RelayEntry)> + '_ {
        self.entries.iter().map(|(&t, e)| (t, e))
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
