//! Greedy rendezvous routing over the hybrid overlay.
//!
//! A lookup for `hash(t)` moves, hop by hop, to the neighbor whose id
//! minimizes the circular distance to the target; it terminates at the node
//! that is closer than all of its neighbors — with a converged ring, the
//! globally closest node, i.e. the topic's rendezvous node. Any link may be
//! used: ring, small-world, or friend (the paper's relay paths "can include
//! any kinds of links").

use crate::id::Id;
use vitis_sim::event::NodeIdx;

/// Safety cap on the hops of a lookup the protocols forward one
/// [`next_hop`] at a time (Vitis's relay requests, RVR's joins): a request
/// that has taken this many hops is not forwarded again.
pub const MAX_LOOKUP_HOPS: u32 = 128;

/// Greedy next hop: among `neighbors`, the one strictly ring-closer to
/// `target` than `self_id`; `None` means this node is locally closest (the
/// rendezvous for `target`, once the ring has converged). Ties break by
/// lower raw id then address, for determinism.
pub fn next_hop<I>(self_id: Id, target: Id, neighbors: I) -> Option<NodeIdx>
where
    I: IntoIterator<Item = (Id, NodeIdx)>,
{
    let own = target.ring_distance(self_id);
    let mut best: Option<(u64, u64, NodeIdx)> = None;
    for (id, addr) in neighbors {
        let d = target.ring_distance(id);
        if d >= own {
            continue;
        }
        let key = (d, id.0, addr);
        match best {
            Some((bd, braw, baddr)) if (bd, braw, baddr) <= key => {}
            _ => best = Some(key),
        }
    }
    best.map(|(_, _, addr)| addr)
}

/// Result of a whole-path greedy walk over a static snapshot (used by tests
/// and by the harness to validate lookup consistency outside the engine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupPath {
    /// Nodes traversed, starting with the source, ending at the rendezvous.
    pub path: Vec<NodeIdx>,
}

impl LookupPath {
    /// Number of hops (edges) taken.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The terminal (rendezvous) node.
    pub fn rendezvous(&self) -> NodeIdx {
        *self.path.last().expect("path never empty")
    }
}

/// Walk a greedy lookup over a static neighbor snapshot.
///
/// `neighbors_of(node)` yields `(id, addr)` pairs; `id_of(node)` gives a
/// node's ring id. Gives up (returns `None`) after `max_hops`, which only
/// happens on an inconsistent snapshot (greedy distance is strictly
/// decreasing, so cycles are impossible otherwise).
pub fn greedy_walk(
    source: NodeIdx,
    target: Id,
    max_hops: usize,
    id_of: impl Fn(NodeIdx) -> Id,
    neighbors_of: impl Fn(NodeIdx) -> Vec<(Id, NodeIdx)>,
) -> Option<LookupPath> {
    let mut path = vec![source];
    let mut cur = source;
    for _ in 0..max_hops {
        match next_hop(id_of(cur), target, neighbors_of(cur)) {
            Some(nxt) => {
                path.push(nxt);
                cur = nxt;
            }
            None => return Some(LookupPath { path }),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_hop_picks_strict_improvement_only() {
        let me = Id(100);
        let target = Id(0);
        // Neighbor at 150 is farther, neighbor at 60 closer, 40 closest.
        let hops = vec![
            (Id(150), NodeIdx(1)),
            (Id(60), NodeIdx(2)),
            (Id(40), NodeIdx(3)),
        ];
        assert_eq!(next_hop(me, target, hops), Some(NodeIdx(3)));
        assert_eq!(next_hop(me, target, vec![(Id(150), NodeIdx(1))]), None);
        assert_eq!(next_hop(me, target, vec![]), None);
    }

    #[test]
    fn next_hop_handles_wraparound_targets() {
        let me = Id(10);
        let target = Id(u64::MAX - 2); // just counter-clockwise of 0
        let hops = vec![(Id(5), NodeIdx(1)), (Id(u64::MAX - 100), NodeIdx(2))];
        // distance(me→t) = 13; node1 is at distance 8; node2 at 98.
        assert_eq!(next_hop(me, target, hops), Some(NodeIdx(1)));
    }

    /// Full ring of n nodes with succ/pred links plus one long link each:
    /// greedy walk must reach the globally closest node from everywhere.
    #[test]
    fn greedy_walk_terminates_at_global_closest() {
        let n: u64 = 64;
        let step = u64::MAX / n;
        let id_of = |x: NodeIdx| Id(x.0 as u64 * step);
        let neighbors_of = |x: NodeIdx| {
            let i = x.0 as u64;
            let succ = (i + 1) % n;
            let pred = (i + n - 1) % n;
            let long = (i + n / 2) % n;
            vec![
                (id_of(NodeIdx(succ as u32)), NodeIdx(succ as u32)),
                (id_of(NodeIdx(pred as u32)), NodeIdx(pred as u32)),
                (id_of(NodeIdx(long as u32)), NodeIdx(long as u32)),
            ]
        };
        let target = Id(5 * step + 3); // closest node: index 5
        for src in 0..n as u32 {
            let lp = greedy_walk(NodeIdx(src), target, 200, id_of, neighbors_of)
                .expect("walk must terminate");
            assert_eq!(lp.rendezvous(), NodeIdx(5), "from {src}");
            assert!(lp.hops() <= (n / 4 + 1) as usize);
        }
    }

    #[test]
    fn greedy_walk_zero_hops_when_source_is_rendezvous() {
        let id_of = |_x: NodeIdx| Id(0);
        let neighbors_of = |_x: NodeIdx| vec![];
        let lp = greedy_walk(NodeIdx(7), Id(123), 10, id_of, neighbors_of).unwrap();
        assert_eq!(lp.hops(), 0);
        assert_eq!(lp.rendezvous(), NodeIdx(7));
    }
}
