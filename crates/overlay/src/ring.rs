//! Ring (successor/predecessor) maintenance helpers.
//!
//! Two routing-table entries are always dedicated to the ring: the nodes
//! with the closest ids clockwise (successor) and counter-clockwise
//! (predecessor) among everything learnt so far. T-Man gossip makes this
//! converge to the true ring quickly, which is what gives lookups a single
//! consistent rendezvous node per topic.

use crate::entry::Entry;
use crate::id::Id;

/// Index of the candidate that is the best successor of `self_id`: the one
/// with the smallest non-zero clockwise distance. Ties (duplicate ids) break
/// by address for determinism.
pub fn find_successor<P>(self_id: Id, candidates: &[Entry<P>]) -> Option<usize> {
    best_by_distance(candidates, |e| self_id.distance_cw(e.id))
}

/// Index of the best predecessor of `self_id`: smallest non-zero
/// counter-clockwise distance.
pub fn find_predecessor<P>(self_id: Id, candidates: &[Entry<P>]) -> Option<usize> {
    best_by_distance(candidates, |e| e.id.distance_cw(self_id))
}

fn best_by_distance<P>(candidates: &[Entry<P>], dist: impl Fn(&Entry<P>) -> u64) -> Option<usize> {
    let mut best: Option<(usize, u64, u32)> = None;
    for (i, e) in candidates.iter().enumerate() {
        let d = dist(e);
        if d == 0 {
            continue; // self or id collision with self
        }
        let key = (d, e.addr.0);
        match best {
            Some((_, bd, ba)) if (bd, ba) <= key => {}
            _ => best = Some((i, d, e.addr.0)),
        }
    }
    best.map(|(i, _, _)| i)
}

/// Measure ring correctness over a snapshot: given each alive node's id and
/// its believed successor id, the fraction of nodes whose successor is the
/// true ring successor. 1.0 means the ring has converged.
pub fn ring_accuracy(nodes: &[(Id, Option<Id>)]) -> f64 {
    if nodes.is_empty() {
        return 1.0;
    }
    let mut ids: Vec<Id> = nodes.iter().map(|&(id, _)| id).collect();
    ids.sort();
    let true_succ = |id: Id| -> Id {
        // Next id in sorted order after the first copy of `id`, wrapping.
        let i = ids.partition_point(|&x| x < id);
        match ids.get(i) {
            Some(&x) if x == id => ids[(i + 1) % ids.len()],
            _ => id,
        }
    };
    let correct = nodes
        .iter()
        .filter(|&&(id, succ)| succ == Some(true_succ(id)))
        .count();
    correct as f64 / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitis_sim::event::NodeIdx;

    fn e(addr: u32, id: u64) -> Entry<()> {
        Entry {
            addr: NodeIdx(addr),
            id: Id(id),
            age: 0,
            payload: (),
        }
    }

    #[test]
    fn successor_is_closest_clockwise() {
        let cands = [e(1, 50), e(2, 120), e(3, 101)];
        assert_eq!(find_successor(Id(100), &cands), Some(2));
        // Wraps: from 120 the successor among {50, 101} is 50.
        let cands2 = [e(1, 50), e(3, 101)];
        assert_eq!(find_successor(Id(120), &cands2), Some(0));
    }

    #[test]
    fn predecessor_is_closest_counterclockwise() {
        let cands = [e(1, 50), e(2, 120), e(3, 99)];
        assert_eq!(find_predecessor(Id(100), &cands), Some(2));
        // Wraps: from 40 the predecessor among {50, 120} is 120.
        let cands2 = [e(1, 50), e(2, 120)];
        assert_eq!(find_predecessor(Id(40), &cands2), Some(1));
    }

    #[test]
    fn self_id_is_skipped() {
        let cands = [e(1, 100), e(2, 101)];
        assert_eq!(find_successor(Id(100), &cands), Some(1));
        assert_eq!(find_predecessor(Id(101), &cands), Some(0));
        assert_eq!(find_successor(Id(7), &[e(1, 7)]), None);
    }

    #[test]
    fn ring_accuracy_full_and_partial() {
        // Perfect ring over ids 10, 20, 30.
        let perfect = vec![
            (Id(10), Some(Id(20))),
            (Id(20), Some(Id(30))),
            (Id(30), Some(Id(10))),
        ];
        assert_eq!(ring_accuracy(&perfect), 1.0);
        let broken = vec![
            (Id(10), Some(Id(30))), // skips 20
            (Id(20), Some(Id(30))),
            (Id(30), None),
        ];
        assert!((ring_accuracy(&broken) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ring_accuracy(&[]), 1.0);
        // Duplicate ids: each copy's true successor is the id after the
        // first copy in sorted order, here the other copy.
        let dup = vec![
            (Id(10), Some(Id(10))),
            (Id(10), Some(Id(20))),
            (Id(20), Some(Id(10))),
        ];
        assert!((ring_accuracy(&dup) - 2.0 / 3.0).abs() < 1e-12);
    }
}
