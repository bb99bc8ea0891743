//! Gateway election (the paper's Algorithm 5).
//!
//! Inside each topic cluster, nodes gossip *proposals* `(gateway, parent,
//! hops)` piggybacked on their profile heartbeats. Every round a node
//! re-derives its proposal for each subscribed topic: it starts from itself
//! and adopts a neighbor's proposal when that proposal's gateway id is
//! ring-closer to `hash(topic)` and still within the hop radius `d`. The
//! node whose proposal converges to itself is a gateway and builds the
//! cluster's relay path. Consensus is *not* required: extra gateways cost
//! some relay traffic but improve robustness and intra-cluster delay.

use crate::topic::TopicId;
use vitis_overlay::id::Id;
use vitis_sim::event::NodeIdx;

/// A gateway proposal as gossiped inside a cluster.
///
/// 20 bytes at 4-byte alignment, so a `(TopicId, Proposal)` pair in an
/// advertisement is the 24 bytes `msg::wire::profile_bytes` charges: every
/// node holds its neighbors' advertisements, and the natural layout
/// padded each pair to 32. Proposals are always copied, never borrowed by
/// field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C, packed(4))]
pub struct Proposal {
    /// Ring id of the proposed gateway.
    pub gw_id: Id,
    /// Address of the proposed gateway.
    pub gw_addr: NodeIdx,
    /// The neighbor this proposal was adopted from (self for an origin
    /// proposal) — the loop-avoidance parent of Algorithm 5.
    pub parent: NodeIdx,
    /// Cluster-hops from the proposing node to the gateway.
    pub hops: u32,
}

impl Proposal {
    /// The origin proposal: the node proposes itself at distance zero.
    pub fn self_proposal(self_addr: NodeIdx, self_id: Id) -> Proposal {
        Proposal {
            gw_id: self_id,
            gw_addr: self_addr,
            parent: self_addr,
            hops: 0,
        }
    }
}

/// Fold one neighbor's advertised proposal `new` into the running
/// proposal `prop` for a topic whose rendezvous id is `target` — the body
/// of Algorithm 5's loop. Folding the interested neighbors of a topic
/// through this, in order, from the self-proposal is [`revise_proposal`].
pub fn revise_step(
    prop: &mut Proposal,
    self_addr: NodeIdx,
    target: Id,
    d_max: u32,
    nbr: NodeIdx,
    new: &Proposal,
    rt_contains: impl Fn(NodeIdx) -> bool,
) {
    // Loop avoidance: never adopt a proposal that was itself adopted
    // from us, and otherwise require the neighbor to be the proposal's
    // origin-adjacent parent or the parent to be outside our table
    // (Algorithm 5 line 7, plus the self-parent guard the pseudocode
    // leaves implicit).
    if new.parent == self_addr {
        return;
    }
    if new.parent != nbr && rt_contains(new.parent) {
        return;
    }
    let current_dist = target.ring_distance(prop.gw_id);
    let new_dist = target.ring_distance(new.gw_id);
    let closer =
        new_dist < current_dist || (new_dist == current_dist && new.gw_id.0 < prop.gw_id.0);
    let adopt = (closer && new.hops + 1 < d_max)
        || (new.gw_addr == prop.gw_addr && new.hops + 1 < prop.hops);
    if adopt {
        *prop = Proposal {
            gw_id: new.gw_id,
            gw_addr: new.gw_addr,
            parent: nbr,
            hops: new.hops + 1,
        };
    }
}

/// One revision of Algorithm 5 for a single topic.
///
/// `neighbor_proposals` yields, for each routing-table neighbor that is
/// itself subscribed to `topic`, that neighbor's most recently advertised
/// proposal. `rt_contains` tests routing-table membership for the
/// loop-avoidance check.
///
/// Returns the revised proposal; `revised.gw_addr == self_addr` means this
/// node currently considers itself the gateway and must refresh the relay
/// path.
pub fn revise_proposal<'a, I>(
    self_addr: NodeIdx,
    self_id: Id,
    topic: TopicId,
    d_max: u32,
    neighbor_proposals: I,
    rt_contains: impl Fn(NodeIdx) -> bool,
) -> Proposal
where
    I: IntoIterator<Item = (NodeIdx, &'a Proposal)>,
{
    let target = topic.ring_id();
    let mut prop = Proposal::self_proposal(self_addr, self_id);
    for (nbr, new) in neighbor_proposals {
        revise_step(&mut prop, self_addr, target, d_max, nbr, new, &rt_contains);
    }
    prop
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeIdx {
        NodeIdx(i)
    }

    // Pick a topic and derive ids at controlled ring distances from it.
    fn topic() -> TopicId {
        TopicId(7)
    }

    fn id_at(offset: u64) -> Id {
        Id(topic().ring_id().0.wrapping_add(offset))
    }

    #[test]
    fn isolated_node_proposes_itself() {
        let p = revise_proposal(n(0), id_at(100), topic(), 5, std::iter::empty(), |_| false);
        assert_eq!(p, Proposal::self_proposal(n(0), id_at(100)));
    }

    #[test]
    fn adopts_closer_gateway_within_radius() {
        let better = Proposal {
            gw_id: id_at(10),
            gw_addr: n(5),
            parent: n(5), // origin-adjacent
            hops: 0,
        };
        let p = revise_proposal(
            n(0),
            id_at(100),
            topic(),
            5,
            [(n(5), &better)],
            |_| false,
        );
        assert_eq!(p.gw_addr, n(5));
        assert_eq!(p.parent, n(5));
        assert_eq!(p.hops, 1);
    }

    #[test]
    fn rejects_beyond_hop_radius() {
        let better = Proposal {
            gw_id: id_at(10),
            gw_addr: n(5),
            parent: n(5),
            hops: 4, // hops+1 = 5, not < d = 5
        };
        let p = revise_proposal(n(0), id_at(100), topic(), 5, [(n(5), &better)], |_| false);
        assert_eq!(p.gw_addr, n(0), "must keep self-proposal");
    }

    #[test]
    fn rejects_proposals_parented_on_self() {
        // Neighbor 5 adopted *our* old proposal; taking it back would loop.
        let echo = Proposal {
            gw_id: id_at(10),
            gw_addr: n(9),
            parent: n(0),
            hops: 1,
        };
        let p = revise_proposal(n(0), id_at(100), topic(), 5, [(n(5), &echo)], |_| false);
        assert_eq!(p.gw_addr, n(0));
    }

    #[test]
    fn rejects_third_party_parent_inside_rt() {
        // Neighbor 5 adopted from node 6, and 6 is also our neighbor: we
        // should wait to hear from 6 directly rather than via 5.
        let relayed = Proposal {
            gw_id: id_at(10),
            gw_addr: n(9),
            parent: n(6),
            hops: 1,
        };
        let in_rt = |x: NodeIdx| x == n(6);
        let p = revise_proposal(n(0), id_at(100), topic(), 5, [(n(5), &relayed)], in_rt);
        assert_eq!(p.gw_addr, n(0));
        // …but accept it if 6 is NOT in our table.
        let p = revise_proposal(n(0), id_at(100), topic(), 5, [(n(5), &relayed)], |_| false);
        assert_eq!(p.gw_addr, n(9));
        assert_eq!(p.hops, 2);
    }

    #[test]
    fn same_gateway_shorter_path_wins() {
        // We already point at gw 9 via a long path; a neighbor offers the
        // same gateway closer. Build the initial state by feeding two
        // proposals in sequence: first a 3-hop path, then a 1-hop one.
        let long = Proposal {
            gw_id: id_at(10),
            gw_addr: n(9),
            parent: n(5),
            hops: 3,
        };
        let short = Proposal {
            gw_id: id_at(10),
            gw_addr: n(9),
            parent: n(6),
            hops: 0,
        };
        let p = revise_proposal(
            n(0),
            id_at(100),
            topic(),
            10,
            [(n(5), &long), (n(6), &short)],
            |_| false,
        );
        assert_eq!(p.gw_addr, n(9));
        assert_eq!(p.hops, 1);
        assert_eq!(p.parent, n(6));
    }

    /// Simulate proposal convergence on a path cluster a–b–c–d–e where `a`
    /// has the id closest to the topic: everyone converges to gateway `a`
    /// within diameter rounds.
    #[test]
    fn converges_on_a_path_cluster() {
        let ids = [id_at(1), id_at(50), id_at(90), id_at(200), id_at(300)];
        let addrs: Vec<NodeIdx> = (0..5).map(n).collect();
        let mut props: Vec<Proposal> = (0..5)
            .map(|i| Proposal::self_proposal(addrs[i], ids[i]))
            .collect();
        let neighbors = |i: usize| -> Vec<usize> {
            match i {
                0 => vec![1],
                4 => vec![3],
                k => vec![k - 1, k + 1],
            }
        };
        for _round in 0..5 {
            let snapshot = props.clone();
            for i in 0..5 {
                let nbrs: Vec<(NodeIdx, &Proposal)> = neighbors(i)
                    .into_iter()
                    .map(|j| (addrs[j], &snapshot[j]))
                    .collect();
                let rt = |x: NodeIdx| neighbors(i).iter().any(|&j| addrs[j] == x);
                props[i] = revise_proposal(addrs[i], ids[i], topic(), 10, nbrs, rt);
            }
        }
        for (i, p) in props.iter().enumerate() {
            assert_eq!(p.gw_addr, addrs[0], "node {i} did not converge");
            assert_eq!(p.hops, i as u32);
        }
    }

    /// With a small radius d, far nodes keep their own gateway — the
    /// mechanism that makes gateways-per-cluster scale with diameter.
    #[test]
    fn radius_splits_long_clusters() {
        let ids = [id_at(1), id_at(50), id_at(90), id_at(200), id_at(300)];
        let addrs: Vec<NodeIdx> = (0..5).map(n).collect();
        let mut props: Vec<Proposal> = (0..5)
            .map(|i| Proposal::self_proposal(addrs[i], ids[i]))
            .collect();
        let neighbors = |i: usize| -> Vec<usize> {
            match i {
                0 => vec![1],
                4 => vec![3],
                k => vec![k - 1, k + 1],
            }
        };
        let d = 3; // hops must stay < 3
        for _round in 0..6 {
            let snapshot = props.clone();
            for i in 0..5 {
                let nbrs: Vec<(NodeIdx, &Proposal)> = neighbors(i)
                    .into_iter()
                    .map(|j| (addrs[j], &snapshot[j]))
                    .collect();
                let rt = |x: NodeIdx| neighbors(i).iter().any(|&j| addrs[j] == x);
                props[i] = revise_proposal(addrs[i], ids[i], topic(), d, nbrs, rt);
            }
        }
        // Nodes 0..=2 reach gateway 0 (hops 0,1,2 < 3); nodes 3,4 cannot.
        for (i, p) in props.iter().take(3).enumerate() {
            assert_eq!(p.gw_addr, addrs[0], "node {i}");
        }
        assert_ne!(props[3].gw_addr, addrs[0]);
        assert_ne!(props[4].gw_addr, addrs[0]);
        // At least one extra gateway emerges among the far nodes.
        assert!(props[3].gw_addr == addrs[3] || props[4].gw_addr == addrs[4] || props[3].gw_addr == addrs[4] || props[4].gw_addr == addrs[3]);
    }
}
