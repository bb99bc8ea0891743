//! Node descriptors as exchanged by gossip protocols.
//!
//! An [`Entry`] is what one node knows about another: its address (engine
//! slot), its ring identifier, a gossip age (freshness counter), and a
//! protocol-specific payload (e.g. a subscription profile for Vitis, `()`
//! for the subscription-oblivious RVR baseline).

use crate::id::Id;
use std::borrow::Borrow;
use vitis_sim::event::NodeIdx;

/// A descriptor of a remote node carried in gossip messages and views.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry<P> {
    /// The node's engine address.
    pub addr: NodeIdx,
    /// The node's ring identifier.
    pub id: Id,
    /// Gossip age in rounds since this descriptor was created at its
    /// subject. Lower is fresher.
    pub age: u16,
    /// Protocol payload (subscription profile, etc.).
    pub payload: P,
}

impl<P> Entry<P> {
    /// A freshly minted descriptor (age zero).
    pub fn fresh(addr: NodeIdx, id: Id, payload: P) -> Self {
        Entry {
            addr,
            id,
            age: 0,
            payload,
        }
    }
}

impl<P: Clone> Entry<P> {
    /// Copy with age reset to zero (used when a node advertises itself).
    pub fn refreshed(&self) -> Self {
        Entry {
            age: 0,
            ..self.clone()
        }
    }
}

/// Merge `incoming` descriptors into `buf`, de-duplicating by address and
/// keeping the *freshest* (lowest-age) descriptor for each node. `O(n·m)`
/// over small gossip buffers, which beats hashing at these sizes.
pub fn merge_dedup<P: Clone>(buf: &mut Vec<Entry<P>>, incoming: &[Entry<P>]) {
    merge_with(buf, incoming, Entry::clone);
}

/// [`merge_dedup`] for descriptors the caller owns (a received buffer, a
/// freshly minted self-descriptor): the same rule, moving what it keeps.
pub fn merge_dedup_owned<P>(buf: &mut Vec<Entry<P>>, incoming: impl IntoIterator<Item = Entry<P>>) {
    merge_with(buf, incoming, |e| e);
}

/// The one merge rule: an `incoming` descriptor replaces the buffered one
/// for its address only when strictly fresher, and is appended when the
/// address is new. `keep` turns an accepted item into an owned descriptor.
fn merge_with<P, E: Borrow<Entry<P>>>(
    buf: &mut Vec<Entry<P>>,
    incoming: impl IntoIterator<Item = E>,
    keep: impl Fn(E) -> Entry<P>,
) {
    for e in incoming {
        let (addr, age) = (e.borrow().addr, e.borrow().age);
        match buf.iter_mut().find(|b| b.addr == addr) {
            Some(existing) => {
                if age < existing.age {
                    *existing = keep(e);
                }
            }
            None => buf.push(keep(e)),
        }
    }
}

/// Remove every descriptor of `addr` from `buf` (e.g. drop self-references
/// after a merge).
pub fn remove_addr<P>(buf: &mut Vec<Entry<P>>, addr: NodeIdx) {
    buf.retain(|e| e.addr != addr);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(addr: u32, age: u16) -> Entry<u32> {
        Entry {
            addr: NodeIdx(addr),
            id: Id(addr as u64 * 10),
            age,
            payload: addr,
        }
    }

    #[test]
    fn merge_keeps_freshest_per_addr() {
        let mut buf = vec![e(1, 5), e(2, 0)];
        merge_dedup(&mut buf, &[e(1, 2), e(2, 9), e(3, 1)]);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.iter().find(|x| x.addr == NodeIdx(1)).unwrap().age, 2);
        assert_eq!(buf.iter().find(|x| x.addr == NodeIdx(2)).unwrap().age, 0);
        assert_eq!(buf.iter().find(|x| x.addr == NodeIdx(3)).unwrap().age, 1);
    }

    #[test]
    fn merge_equal_age_keeps_existing() {
        let mut buf = vec![Entry {
            payload: 100u32,
            ..e(1, 3)
        }];
        merge_dedup(&mut buf, &[e(1, 3)]);
        assert_eq!(buf[0].payload, 100);
    }

    #[test]
    fn owned_merge_follows_the_same_rule() {
        let incoming = [e(1, 2), e(2, 9), e(3, 1), e(3, 0), e(1, 2)];
        let mut by_ref = vec![e(1, 5), e(2, 0)];
        let mut by_move = by_ref.clone();
        merge_dedup(&mut by_ref, &incoming);
        merge_dedup_owned(&mut by_move, incoming.to_vec());
        assert_eq!(by_move, by_ref);
        assert_eq!(by_move.len(), 3);
    }

    #[test]
    fn remove_addr_drops_all_copies() {
        let mut buf = vec![e(1, 0), e(2, 0), e(1, 4)];
        remove_addr(&mut buf, NodeIdx(1));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].addr, NodeIdx(2));
    }

    #[test]
    fn refreshed_resets_age() {
        let x = e(4, 9).refreshed();
        assert_eq!(x, Entry { age: 0, ..e(4, 9) });
    }
}
