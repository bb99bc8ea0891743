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
///
/// Adoption is decided before the loop-avoidance guards: the guards only
/// veto, and they are pure, so the order does not change the result — but
/// most proposals a settled election sees are not adoptable, and
/// `rt_contains` is a table scan. Ring distances are compared only when
/// the gateway ids differ: a proposal for the same id is never closer.
pub fn revise_step(
    prop: &mut Proposal,
    self_addr: NodeIdx,
    target: Id,
    d_max: u32,
    nbr: NodeIdx,
    new: &Proposal,
    rt_contains: impl Fn(NodeIdx) -> bool,
) {
    let shorter = new.gw_addr == prop.gw_addr && new.hops + 1 < prop.hops;
    let adopt = shorter
        || (new.gw_id.0 != prop.gw_id.0 && new.hops + 1 < d_max && {
            let current_dist = target.ring_distance(prop.gw_id);
            let new_dist = target.ring_distance(new.gw_id);
            new_dist < current_dist || (new_dist == current_dist && new.gw_id.0 < prop.gw_id.0)
        });
    if !adopt {
        return;
    }
    // Loop avoidance: never adopt a proposal that was itself adopted
    // from us, and otherwise require the neighbor to be the proposal's
    // origin-adjacent parent or the parent to be outside our table
    // (Algorithm 5 line 7, plus the self-parent guard the pseudocode
    // leaves implicit).
    if new.parent == self_addr || (new.parent != nbr && rt_contains(new.parent)) {
        return;
    }
    *prop = Proposal {
        gw_id: new.gw_id,
        gw_addr: new.gw_addr,
        parent: nbr,
        hops: new.hops + 1,
    };
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
        let p = revise_proposal(n(0), id_at(100), topic(), 5, [(n(5), &better)], |_| false);
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

    /// The guard-first step the adoption-first `revise_step` replaced,
    /// kept as the reference it must match.
    fn revise_step_guard_first(
        prop: &mut Proposal,
        self_addr: NodeIdx,
        target: Id,
        d_max: u32,
        nbr: NodeIdx,
        new: &Proposal,
        rt_contains: impl Fn(NodeIdx) -> bool,
    ) {
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

    /// Random folds through both steps from the same start: parents that
    /// are self, the neighbor, a connected node or a stranger; gateway ids
    /// equal to the running proposal's or not, including an id shared by
    /// two addresses and two ids equally far from the target; hop counts
    /// on both sides of the radius and of the running proposal's.
    #[test]
    fn adoption_first_equals_the_guard_first_step() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(38);
        let me = n(0);
        // Nodes 1..=4 are neighbors, 5..=8 connected, 9.. strangers.
        let connected = |x: NodeIdx| (1..=8).contains(&x.0);
        let target = topic().ring_id();
        // Offsets 30 and -30 are equally far from the target.
        let ids = [
            id_at(10),
            id_at(30),
            Id(target.0.wrapping_sub(30)),
            id_at(90),
            id_at(500),
        ];
        // [parent kind][same gateway id][adopted]
        let mut seen = [[[0usize; 2]; 2]; 4];
        for _ in 0..4000 {
            let d_max = rng.gen_range(1..7);
            let start = Proposal {
                gw_id: ids[rng.gen_range(0..ids.len())],
                gw_addr: n(rng.gen_range(0..12)),
                parent: n(rng.gen_range(0..12)),
                hops: rng.gen_range(0..8),
            };
            let (mut a, mut b) = (start, start);
            for _ in 0..rng.gen_range(1..6) {
                let nbr = n(rng.gen_range(1..=4));
                let kind = rng.gen_range(0..4);
                let parent = match kind {
                    0 => me,
                    1 => nbr,
                    2 => n(rng.gen_range(5..=8)),
                    _ => n(rng.gen_range(9..12)),
                };
                let mut new = Proposal {
                    gw_id: ids[rng.gen_range(0..ids.len())],
                    gw_addr: n(rng.gen_range(0..12)),
                    parent,
                    hops: rng.gen_range(0..8),
                };
                if rng.gen_bool(0.4) {
                    new.gw_id = a.gw_id;
                }
                if rng.gen_bool(0.6) {
                    new.gw_addr = a.gw_addr;
                }
                let before = a;
                revise_step(&mut a, me, target, d_max, nbr, &new, connected);
                revise_step_guard_first(&mut b, me, target, d_max, nbr, &new, connected);
                assert_eq!(a, b, "{before:?} + {new:?} from {nbr:?}, d {d_max}");
                let same = new.gw_id.0 == before.gw_id.0;
                seen[kind][usize::from(same)][usize::from(a != before)] += 1;
            }
        }
        // Every parent kind and id relation is met, and a proposal from
        // the neighbor or a stranger is adopted for either id relation.
        for (kind, by_id) in seen.iter().enumerate() {
            for counts in by_id {
                assert!(counts[0] > 50, "{seen:?}");
                assert!(kind == 0 || kind == 2 || counts[1] > 50, "{seen:?}");
            }
        }
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
        assert!(
            props[3].gw_addr == addrs[3]
                || props[4].gw_addr == addrs[4]
                || props[3].gw_addr == addrs[4]
                || props[4].gw_addr == addrs[3]
        );
    }
}
