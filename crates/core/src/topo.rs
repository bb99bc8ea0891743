//! Overlay topology snapshots, structural health metrics and the relay
//! invariant auditor.
//!
//! Vitis's correctness is structural before it is behavioral: same-topic
//! subscribers must be stitched into connected relay paths, each topic
//! must resolve to a unique rendezvous, and gossip views must stay
//! bounded. Delivery metrics (hit ratio, latency) only show the *symptoms*
//! of structural decay; this module observes the structure itself.
//!
//! The entry point is [`OverlaySnapshot`] — a dense, self-contained export
//! of every online node's per-kind links, relay entries and gateway
//! beliefs, produced by `PubSub::overlay_snapshot`. Everything here is a
//! pure function of the snapshot:
//!
//! * [`analyze`] computes per-round structural metrics — topic
//!   connectivity with and without relay stitching, rendezvous
//!   uniqueness, the largest gateway load, link count and mean view age,
//!   and sampled relay-path stretch — as the flat
//!   [`vitis_sim::trace::TopoProbe`] a `topo` record carries.
//! * [`audit`] checks the relay-layer invariants (upstream/downstream
//!   symmetry, no links to departed nodes, bounded views, rendezvous
//!   marked iff terminal) and reports violations with node/topic
//!   provenance.
//!
//! Iteration orders are deterministic throughout (slot order for nodes,
//! topic order for relay state), so identical snapshots produce
//! byte-identical exports.

use crate::relay::RelayTable;
use crate::topic::TopicId;
use std::collections::{BTreeMap, BTreeSet};
use vitis_overlay::graph::Graph;
use vitis_overlay::id::Id;
use vitis_overlay::rt::HybridRt;
use vitis_sim::event::NodeIdx;
pub use vitis_sim::trace::TopoProbe;
use vitis_sim::trace::TraceEvent;

/// One overlay link as exported by a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopoLink {
    /// The neighbor's engine slot.
    pub peer: NodeIdx,
    /// Stable link-kind label (`"succ"`, `"pred"`, `"sw"`, `"friend"`,
    /// or `"mesh"` for kind-less overlays).
    pub kind: &'static str,
    /// Gossip freshness age, `None` where the overlay keeps no ages.
    pub age: Option<u16>,
}

impl TopoLink {
    /// Every entry of a hybrid routing table, with its link kind and age,
    /// in successor / predecessor / small-world / friend order.
    pub fn of_table<P: Clone>(rt: &HybridRt<P>) -> impl Iterator<Item = TopoLink> + '_ {
        rt.iter_kinds().map(|(kind, e)| TopoLink {
            peer: e.addr,
            kind: kind.as_str(),
            age: Some(e.age),
        })
    }
}

/// One topic's relay state at one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelayTopo {
    /// The topic.
    pub topic: TopicId,
    /// Next hop toward the rendezvous, if any.
    pub upstream: Option<NodeIdx>,
    /// Rounds since the upstream link was last installed or refreshed.
    /// Fresh links (below [`RELAY_SYMMETRY_GRACE`]) may still have their
    /// install message in flight, so the auditor gives them grace.
    pub upstream_age: Option<u16>,
    /// Links back toward the gateways whose lookups passed through.
    pub downstream: Vec<NodeIdx>,
    /// Whether this node claims to be the topic's rendezvous.
    pub rendezvous: bool,
}

impl RelayTopo {
    /// Every entry of a relay (or multicast-tree) table, in topic order.
    pub fn of_table(table: &RelayTable) -> Vec<RelayTopo> {
        table
            .entries()
            .map(|(topic, e)| RelayTopo {
                topic,
                upstream: e.upstream(),
                upstream_age: e.upstream_age(),
                downstream: e.downstreams().collect(),
                rendezvous: e.is_rendezvous(),
            })
            .collect()
    }
}

/// Everything one node exports into a topology snapshot.
#[derive(Clone, Debug)]
pub struct NodeTopo {
    /// The node's engine slot.
    pub node: NodeIdx,
    /// The node's ring identifier.
    pub ring_id: Id,
    /// Subscribed topics, ascending.
    pub subs: Vec<TopicId>,
    /// Current overlay links with kind and age.
    pub links: Vec<TopoLink>,
    /// Relay entries, in topic order.
    pub relays: Vec<RelayTopo>,
    /// Per subscribed topic, the node this node currently believes is the
    /// topic's cluster gateway (from the gossiped proposal). Empty for
    /// systems without gateway election.
    pub gateway_view: Vec<(TopicId, NodeIdx)>,
    /// Configured view-size bound, `None` for unbounded overlays.
    pub view_bound: Option<usize>,
    /// Relay soft-state TTL, `None` for overlays without relay state. A
    /// link whose age has reached the TTL is in its final round before
    /// collection, so the auditor treats it as already dead.
    pub relay_ttl: Option<u16>,
}

/// A dense structural snapshot of the whole overlay at one instant:
/// every online node's [`NodeTopo`], in slot order.
#[derive(Clone, Debug, Default)]
pub struct OverlaySnapshot {
    /// Simulated time the snapshot was taken at, in ticks.
    pub now: u64,
    /// Engine slot-space size (node indices are `< num_slots`).
    pub num_slots: usize,
    /// Online nodes, sorted by slot.
    pub nodes: Vec<NodeTopo>,
}

impl OverlaySnapshot {
    /// The exported state of `idx`, or `None` if it was offline at
    /// snapshot time.
    pub fn node(&self, idx: NodeIdx) -> Option<&NodeTopo> {
        self.nodes
            .binary_search_by_key(&idx, |n| n.node)
            .ok()
            .map(|i| &self.nodes[i])
    }

    /// Whether `idx` was online at snapshot time.
    pub fn is_alive(&self, idx: NodeIdx) -> bool {
        self.node(idx).is_some()
    }

    /// Alive subscribers per topic, derived by inverting the per-node
    /// subscription lists. Topics and subscriber lists are sorted.
    pub fn subscribers_by_topic(&self) -> BTreeMap<TopicId, Vec<u32>> {
        let mut map: BTreeMap<TopicId, Vec<u32>> = BTreeMap::new();
        for n in &self.nodes {
            for &t in &n.subs {
                map.entry(t).or_default().push(n.node.0);
            }
        }
        map
    }

    /// The undirected overlay graph over online nodes (links to offline
    /// peers are ignored — routing-table staleness is expected, not an
    /// error).
    pub fn overlay_graph(&self) -> Graph {
        let mut g = Graph::new(self.num_slots);
        for n in &self.nodes {
            for l in &n.links {
                if self.is_alive(l.peer) {
                    g.add_edge(n.node.0, l.peer.0);
                }
            }
        }
        g
    }
}

/// Evenly spaced sample of up to `max` items out of `0..len`.
fn sample_indices(len: usize, max: usize) -> Vec<usize> {
    if len <= max || max == 0 {
        return (0..len).collect();
    }
    let step = len as f64 / max as f64;
    (0..max).map(|i| (i as f64 * step) as usize).collect()
}

/// Walk the upstream relay chain for `topic` starting at `start`.
/// Returns `Some(hops, terminal)` when the chain reaches a rendezvous
/// claimant; `None` for broken chains (missing entry, departed node,
/// cycle, or a headless end).
fn walk_upstream(snap: &OverlaySnapshot, topic: TopicId, start: NodeIdx) -> Option<(u32, NodeIdx)> {
    let mut cur = start;
    let mut hops = 0u32;
    let mut seen = BTreeSet::new();
    loop {
        if !seen.insert(cur) {
            return None; // cycle
        }
        let entry = snap.node(cur)?.relays.iter().find(|r| r.topic == topic)?;
        if entry.rendezvous {
            return Some((hops, cur));
        }
        cur = entry.upstream?;
        hops += 1;
    }
}

/// Compute the structural health metrics of a snapshot (the audit's
/// violation count aside, which [`probe`] adds).
///
/// Per-topic connectivity is computed over at most `max_topics` evenly
/// spaced subscribed topics (all of them when `max_topics` is large
/// enough); `TopoProbe::sampled_topics` records how many were analysed.
pub fn analyze(snap: &OverlaySnapshot, max_topics: usize) -> TopoProbe {
    let mut p = TopoProbe {
        nodes: snap.nodes.len() as u64,
        ..TopoProbe::default()
    };
    let graph = snap.overlay_graph();

    // Live links, and the mean age of those that carry one.
    let (mut age_sum, mut aged_links) = (0u64, 0u64);
    for n in &snap.nodes {
        for l in n.links.iter().filter(|l| snap.is_alive(l.peer)) {
            p.links += 1;
            if let Some(age) = l.age {
                age_sum += u64::from(age);
                aged_links += 1;
            }
        }
    }
    p.mean_view_age = (aged_links > 0).then(|| age_sum as f64 / aged_links as f64);

    // Relay state inventory: per-topic edges, holders and rendezvous
    // claimants; dead links counted globally.
    let mut relay_edges: BTreeMap<TopicId, Vec<(u32, u32)>> = BTreeMap::new();
    let mut relay_holders: BTreeMap<TopicId, BTreeSet<u32>> = BTreeMap::new();
    let mut rendezvous_claims: BTreeMap<TopicId, u64> = BTreeMap::new();
    for n in &snap.nodes {
        for r in &n.relays {
            relay_holders.entry(r.topic).or_default().insert(n.node.0);
            if r.rendezvous {
                *rendezvous_claims.entry(r.topic).or_default() += 1;
            }
            for peer in r.upstream.iter().chain(r.downstream.iter()) {
                if snap.is_alive(*peer) {
                    relay_edges
                        .entry(r.topic)
                        .or_default()
                        .push((n.node.0, peer.0));
                } else {
                    p.dead_links += 1;
                }
            }
        }
    }
    for (&t, holders) in &relay_holders {
        match rendezvous_claims.get(&t).copied().unwrap_or(0) {
            0 if !holders.is_empty() => p.headless_topics += 1,
            c if c >= 2 => p.rendezvous_conflicts += 1,
            _ => {}
        }
    }

    // Gateway load: distinct topics each node fronts, per anyone's view.
    let mut believed: BTreeSet<(NodeIdx, TopicId)> = BTreeSet::new();
    for n in &snap.nodes {
        for &(t, gw) in &n.gateway_view {
            believed.insert((gw, t));
        }
    }
    let mut loads: BTreeMap<u32, u64> = BTreeMap::new();
    for (gw, _) in &believed {
        *loads.entry(gw.0).or_default() += 1;
    }
    p.max_gateway_load = loads.values().copied().max().unwrap_or(0);

    // Per-topic connectivity: components of the alive-subscriber induced
    // subgraph (fragmentation), then again with the topic's relay edges
    // added and relay holders allowed as intermediate vertices (what the
    // relay layer actually stitches).
    let by_topic = snap.subscribers_by_topic();
    let topics: Vec<TopicId> = by_topic.keys().copied().collect();
    let sampled = sample_indices(topics.len(), max_topics);
    let mut frac_sum = 0.0f64;
    let mut stretch_sum = 0.0f64;
    let mut stretch_n = 0u64;
    for &i in &sampled {
        let t = topics[i];
        let subs = &by_topic[&t];
        if subs.is_empty() {
            continue;
        }
        p.sampled_topics += 1;
        p.components += graph.components_within(subs).len() as u64;

        let mut stitched = graph.clone();
        if let Some(edges) = relay_edges.get(&t) {
            for &(a, b) in edges {
                stitched.add_edge(a, b);
            }
        }
        let mut vertices: BTreeSet<u32> = subs.iter().copied().collect();
        if let Some(holders) = relay_holders.get(&t) {
            vertices.extend(holders.iter().copied());
        }
        let vertices: Vec<u32> = vertices.into_iter().collect();
        let sub_set: BTreeSet<u32> = subs.iter().copied().collect();
        let mut largest_subs = 0usize;
        for comp in stitched.components_within(&vertices) {
            let in_comp = comp.iter().filter(|v| sub_set.contains(v)).count();
            if in_comp > 0 {
                p.stitched_components += 1;
                largest_subs = largest_subs.max(in_comp);
            }
        }
        frac_sum += largest_subs as f64 / subs.len() as f64;

        // Relay-path stretch: upstream-chain length from each believed
        // gateway vs. the overlay-graph BFS distance to the rendezvous.
        let mut gateways: Vec<NodeIdx> = Vec::new();
        for n in &snap.nodes {
            if n.gateway_view
                .iter()
                .any(|&(gt, gw)| gt == t && gw == n.node)
            {
                gateways.push(n.node);
            }
        }
        for gw in gateways {
            let Some((hops, terminal)) = walk_upstream(snap, t, gw) else {
                continue;
            };
            if hops == 0 {
                continue; // the gateway is the rendezvous itself
            }
            let dist = graph.bfs_hops(gw.0)[terminal.0 as usize];
            if let Some(d) = dist.filter(|&d| d > 0) {
                stretch_sum += f64::from(hops) / f64::from(d);
                stretch_n += 1;
            }
        }
    }
    if p.sampled_topics > 0 {
        p.largest_component_frac = frac_sum / p.sampled_topics as f64;
    }
    p.mean_relay_stretch = (stretch_n > 0).then(|| stretch_sum / stretch_n as f64);
    p
}

/// One invariant violation, with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The node whose exported state violates the invariant.
    pub node: NodeIdx,
    /// The topic involved, if the invariant is per-topic.
    pub topic: Option<TopicId>,
    /// Stable snake_case invariant name.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// Rounds of grace before a missing upstream/downstream backlink counts
/// as an `asymmetric_upstream` violation. Upstream links are installed
/// at send time and the matching downstream at delivery, so a link must
/// survive one full round before its backlink is guaranteed observable.
pub const RELAY_SYMMETRY_GRACE: u16 = 2;

/// Audit the relay-layer invariants of a snapshot. Returns violations in
/// deterministic (slot, topic) order; an empty vector means the overlay
/// is structurally sound.
///
/// Invariants checked:
/// * `view_overflow` — a node holds more links than its configured bound.
/// * `rendezvous_with_upstream` — an entry claims rendezvous (terminal)
///   while also holding an upstream link.
/// * `dead_upstream` / `dead_downstream` — a relay link references a node
///   absent from the snapshot (departed). Expected transiently under
///   churn (soft state heals by TTL); must be zero in a stable network.
/// * `asymmetric_upstream` — node A's upstream for a topic points at a
///   live node B, but B holds no matching downstream link back to A.
///   The two ends are installed by different events (A at send time, B
///   when the relay request arrives), so links younger than
///   [`RELAY_SYMMETRY_GRACE`] rounds get grace — their install message
///   may still be in flight. Links whose age has reached the node's
///   configured relay TTL are exempt at the other end of their life:
///   both halves expire when `age > ttl`, but round clocks are
///   desynchronized, so at the TTL boundary the peer may already have
///   collected its backlink one tick before A collects the upstream —
///   that final-round window is dead soft state, not a dangling link. A
///   link between grace and TTL without a backlink is genuinely dangling.
pub fn audit(snap: &OverlaySnapshot) -> Vec<Violation> {
    let mut out = Vec::new();
    for n in &snap.nodes {
        if let Some(bound) = n.view_bound {
            if n.links.len() > bound {
                out.push(Violation {
                    node: n.node,
                    topic: None,
                    kind: "view_overflow",
                    detail: format!("{} links exceed bound {bound}", n.links.len()),
                });
            }
        }
        for r in &n.relays {
            if r.rendezvous && r.upstream.is_some() {
                out.push(Violation {
                    node: n.node,
                    topic: Some(r.topic),
                    kind: "rendezvous_with_upstream",
                    detail: format!("rendezvous claim with upstream {:?}", r.upstream),
                });
            }
            if let Some(up) = r.upstream {
                match snap.node(up) {
                    None => out.push(Violation {
                        node: n.node,
                        topic: Some(r.topic),
                        kind: "dead_upstream",
                        detail: format!("upstream {} departed", up.0),
                    }),
                    Some(peer) => {
                        let symmetric = peer
                            .relays
                            .iter()
                            .find(|pr| pr.topic == r.topic)
                            .is_some_and(|pr| pr.downstream.contains(&n.node));
                        let past_grace = r.upstream_age.is_none_or(|a| a >= RELAY_SYMMETRY_GRACE);
                        let expiring = n
                            .relay_ttl
                            .zip(r.upstream_age)
                            .is_some_and(|(ttl, a)| a >= ttl);
                        if !symmetric && past_grace && !expiring {
                            out.push(Violation {
                                node: n.node,
                                topic: Some(r.topic),
                                kind: "asymmetric_upstream",
                                detail: format!(
                                    "upstream link (age {:?}) has no downstream back from {}",
                                    r.upstream_age, up.0
                                ),
                            });
                        }
                    }
                }
            }
            for d in &r.downstream {
                if !snap.is_alive(*d) {
                    out.push(Violation {
                        node: n.node,
                        topic: Some(r.topic),
                        kind: "dead_downstream",
                        detail: format!("downstream {} departed", d.0),
                    });
                }
            }
        }
    }
    out
}

/// Convenience: full probe of a snapshot — [`analyze`] plus the
/// [`audit`] violation count folded in. What the periodic sampler and
/// the health time series record.
pub fn probe(snap: &OverlaySnapshot, max_topics: usize) -> TopoProbe {
    let mut p = analyze(snap, max_topics);
    p.violations = audit(snap).len() as u64;
    p
}

/// Sampled-topic cap of a `topo` record (evenly spaced over the
/// subscribed topics; see [`analyze`]).
pub const TOPO_SAMPLE_TOPICS: usize = 64;

/// The `topo` record of `snap` (docs/METRICS.md §10): its [`probe`] over
/// [`TOPO_SAMPLE_TOPICS`], in the round `round_period` puts its time in.
/// Every producer of the record — the runtime sampler, the `resilience`
/// series, the `topology` subcommand — calls this.
pub fn sample(snap: &OverlaySnapshot, round_period: u64) -> TraceEvent {
    TraceEvent::TopoSample {
        round: snap.now / round_period.max(1),
        now: snap.now,
        probe: probe(snap, TOPO_SAMPLE_TOPICS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(slot: u32) -> NodeTopo {
        NodeTopo {
            node: NodeIdx(slot),
            ring_id: Id(u64::from(slot) << 32),
            subs: Vec::new(),
            links: Vec::new(),
            relays: Vec::new(),
            gateway_view: Vec::new(),
            view_bound: Some(4),
            relay_ttl: Some(5),
        }
    }

    fn link(peer: u32, age: u16) -> TopoLink {
        TopoLink {
            peer: NodeIdx(peer),
            kind: "sw",
            age: Some(age),
        }
    }

    const T: TopicId = TopicId(0);

    /// Two 2-node subscriber clusters {0,1} and {2,3}, stitched through
    /// the non-subscriber relay node 4: 1 (gateway) → 4 → 2 (rendezvous).
    fn stitched_snapshot() -> OverlaySnapshot {
        let mut nodes: Vec<NodeTopo> = (0..5).map(node).collect();
        for n in &mut nodes[..4] {
            n.subs = vec![T];
        }
        nodes[0].links = vec![link(1, 0)];
        nodes[1].links = vec![link(0, 1)];
        nodes[2].links = vec![link(3, 0)];
        nodes[3].links = vec![link(2, 2)];
        nodes[1].gateway_view = vec![(T, NodeIdx(1))];
        nodes[0].gateway_view = vec![(T, NodeIdx(1))];
        nodes[1].relays = vec![RelayTopo {
            topic: T,
            upstream: Some(NodeIdx(4)),
            upstream_age: Some(3),
            downstream: vec![],
            rendezvous: false,
        }];
        nodes[4].relays = vec![RelayTopo {
            topic: T,
            upstream: Some(NodeIdx(2)),
            upstream_age: Some(3),
            downstream: vec![NodeIdx(1)],
            rendezvous: false,
        }];
        nodes[2].relays = vec![RelayTopo {
            topic: T,
            upstream: None,
            upstream_age: None,
            downstream: vec![NodeIdx(4)],
            rendezvous: true,
        }];
        OverlaySnapshot {
            now: 64,
            num_slots: 5,
            nodes,
        }
    }

    #[test]
    fn relay_paths_stitch_components() {
        let snap = stitched_snapshot();
        let p = analyze(&snap, 16);
        assert_eq!(p.nodes, 5);
        assert_eq!(p.sampled_topics, 1);
        // Overlay alone: {0,1} and {2,3}.
        assert_eq!(p.components, 2);
        // Relay edges 1–4–2 join everything.
        assert_eq!(p.stitched_components, 1);
        assert!((p.largest_component_frac - 1.0).abs() < 1e-12);
        assert_eq!(p.rendezvous_conflicts, 0);
        assert_eq!(p.headless_topics, 0);
        assert_eq!(p.dead_links, 0);
        assert_eq!(p.max_gateway_load, 1);
        // Gateway 1 reaches rendezvous 2 in 2 relay hops; the overlay
        // graph has no path at all, so no stretch sample is possible.
        assert_eq!(p.mean_relay_stretch, None);
        // 4 directed live links, ages 0,1,0,2.
        assert_eq!(p.links, 4);
        assert_eq!(p.mean_view_age, Some(0.75));
        assert!(audit(&snap).is_empty());
    }

    #[test]
    fn stretch_uses_overlay_distance() {
        let mut snap = stitched_snapshot();
        // Give the overlay a direct 1–2 edge: relay chain (2 hops) over
        // BFS distance 1 → stretch 2.
        snap.nodes[1].links.push(link(2, 0));
        let p = analyze(&snap, 16);
        assert_eq!(p.mean_relay_stretch, Some(2.0));
        // The direct edge also merges the overlay-only components.
        assert_eq!(p.components, 1);
    }

    #[test]
    fn broken_chain_counts_headless_topics() {
        let mut snap = stitched_snapshot();
        // The rendezvous loses its claim (entry expired): node 2 keeps
        // only the downstream link.
        snap.nodes[2].relays[0].rendezvous = false;
        let p = analyze(&snap, 16);
        assert_eq!(p.headless_topics, 1);
        assert_eq!(p.mean_relay_stretch, None);
    }

    #[test]
    fn rendezvous_conflicts_detected() {
        let mut snap = stitched_snapshot();
        snap.nodes[3].relays = vec![RelayTopo {
            topic: T,
            upstream: None,
            upstream_age: None,
            downstream: vec![NodeIdx(2)],
            rendezvous: true,
        }];
        let p = analyze(&snap, 16);
        assert_eq!(p.rendezvous_conflicts, 1);
    }

    #[test]
    fn dead_relay_links_counted_and_audited() {
        let mut snap = stitched_snapshot();
        // Node 4 departs; 1's upstream and 2's downstream now dangle.
        snap.nodes.remove(4);
        let p = analyze(&snap, 16);
        assert_eq!(p.dead_links, 2);
        assert_eq!(p.stitched_components, 2, "stitching is lost");
        let v = audit(&snap);
        let kinds: Vec<&str> = v.iter().map(|x| x.kind).collect();
        assert_eq!(kinds, vec!["dead_upstream", "dead_downstream"]);
        assert_eq!(v[0].node, NodeIdx(1));
        assert_eq!(v[0].topic, Some(T));
        assert_eq!(p.violations, 0, "analyze() does not audit");
        assert_eq!(probe(&snap, 16).violations, 2);
    }

    #[test]
    fn asymmetric_upstream_and_terminal_invariants() {
        let mut snap = stitched_snapshot();
        // Drop 4's downstream link back to 1.
        snap.nodes[4].relays[0].downstream.clear();
        let v = audit(&snap);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "asymmetric_upstream");
        assert_eq!(v[0].node, NodeIdx(1));
        // A fresh upstream link gets grace: its relay request (which
        // installs the backlink at delivery) may still be in flight.
        snap.nodes[1].relays[0].upstream_age = Some(RELAY_SYMMETRY_GRACE - 1);
        assert!(audit(&snap).is_empty());
        // A link at the TTL boundary is exempt too: the peer's
        // desynchronized clock may already have collected its backlink
        // one tick before this node collects the upstream.
        snap.nodes[1].relays[0].upstream_age = Some(5);
        assert!(audit(&snap).is_empty());
        // ... but only where a relay TTL is configured.
        snap.nodes[1].relay_ttl = None;
        assert_eq!(audit(&snap).len(), 1);

        // A rendezvous claim with an upstream link is terminal-invariant
        // breakage.
        let mut snap = stitched_snapshot();
        snap.nodes[4].relays[0].rendezvous = true;
        let v = audit(&snap);
        assert!(v.iter().any(|x| x.kind == "rendezvous_with_upstream"));
    }

    #[test]
    fn view_bound_enforced() {
        let mut snap = stitched_snapshot();
        snap.nodes[0].view_bound = Some(1);
        snap.nodes[0].links = vec![link(1, 0), link(2, 0)];
        let v = audit(&snap);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "view_overflow");
        // Unbounded overlays are never flagged.
        snap.nodes[0].view_bound = None;
        assert!(audit(&snap).is_empty());
    }

    #[test]
    fn topic_sampling_is_even_and_bounded() {
        assert_eq!(sample_indices(3, 8), vec![0, 1, 2]);
        assert_eq!(sample_indices(8, 4), vec![0, 2, 4, 6]);
        assert_eq!(sample_indices(0, 4), Vec::<usize>::new());
        let s = sample_indices(1000, 64);
        assert_eq!(s.len(), 64);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn snapshot_lookup_is_by_slot() {
        let snap = stitched_snapshot();
        assert_eq!(snap.node(NodeIdx(3)).unwrap().node, NodeIdx(3));
        assert!(snap.node(NodeIdx(9)).is_none());
        assert!(snap.is_alive(NodeIdx(0)));
        let subs = snap.subscribers_by_topic();
        assert_eq!(subs[&T], vec![0, 1, 2, 3]);
    }
}
