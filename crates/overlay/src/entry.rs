//! Node descriptors as exchanged by gossip protocols.
//!
//! An [`Entry`] is what one node knows about another: its address (engine
//! slot), its ring identifier, a gossip age (freshness counter), and a
//! protocol-specific payload (e.g. a subscription profile for Vitis, `()`
//! for the subscription-oblivious RVR baseline).

use crate::id::Id;
use std::borrow::Borrow;
use std::cell::Cell;
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
/// keeping the *freshest* (lowest-age) descriptor for each node. Linear in
/// `buf` plus `incoming`: each address is looked up in the thread's
/// [`AddrIndex`].
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
/// Where `buf` already holds an address twice, the first copy is the one
/// compared and replaced.
fn merge_with<P, E: Borrow<Entry<P>>>(
    buf: &mut Vec<Entry<P>>,
    incoming: impl IntoIterator<Item = E>,
    keep: impl Fn(E) -> Entry<P>,
) {
    let mut index = AddrIndex::of(buf.iter().map(|b| b.addr));
    for e in incoming {
        let (addr, age) = (e.borrow().addr, e.borrow().age);
        match index.get_or_insert(addr, buf.len()) {
            Some(i) => {
                if age < buf[i].age {
                    buf[i] = keep(e);
                }
            }
            None => buf.push(keep(e)),
        }
    }
}

/// The most engine slots an [`AddrIndex`] indexes: 2^26 slots, 256 MiB of
/// index. Engine slots are dense from zero, so only a sentinel address
/// (an unstarted node's `NodeIdx(u32::MAX)`) can reach it.
const MAX_INDEXED: usize = 1 << 26;

thread_local! {
    /// The scratch [`AddrIndex`] borrows: its `slots` are all-zero and its
    /// `marked` list empty whenever no index is held on this thread. It is
    /// per thread, not per node, and holds 4 B per engine slot up to the
    /// highest address indexed here.
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            slots: Vec::new(),
            marked: Vec::new(),
        })
    };
}

#[derive(Default)]
struct Scratch {
    /// `slots[a]`: 1 + the position recorded for address `a`, 0 for an
    /// address not in the index.
    slots: Vec<u32>,
    /// The addresses with a non-zero slot, to clear.
    marked: Vec<u32>,
}

/// A position per address, kept in the thread's scratch: what lets a
/// gossip merge find a descriptor by address without scanning its buffer.
/// Dropping it clears the slots it set, panic or not, and hands the
/// scratch back.
pub struct AddrIndex {
    scratch: Scratch,
}

impl AddrIndex {
    /// Index `addrs` at their positions in the sequence; a repeated
    /// address keeps its first position.
    pub fn of(addrs: impl IntoIterator<Item = NodeIdx>) -> Self {
        let mut index = AddrIndex {
            scratch: SCRATCH.take(),
        };
        for (i, addr) in addrs.into_iter().enumerate() {
            index.get_or_insert(addr, i);
        }
        index
    }

    /// Whether `addr` is indexed.
    #[inline]
    pub fn contains(&self, addr: NodeIdx) -> bool {
        self.scratch.slots.get(addr.index()).is_some_and(|&k| k > 0)
    }

    /// The position recorded for `addr`, or `None` after recording
    /// `pos` for it.
    ///
    /// # Panics
    /// Panics if `addr` is not below 2^26, the index's bound.
    #[inline]
    fn get_or_insert(&mut self, addr: NodeIdx, pos: usize) -> Option<usize> {
        let Scratch { slots, marked } = &mut self.scratch;
        let a = addr.index();
        if a >= slots.len() {
            assert!(a < MAX_INDEXED, "{addr:?} is not an engine slot");
            slots.resize(a + 1, 0);
        }
        match slots[a] {
            0 => {
                slots[a] = pos as u32 + 1;
                marked.push(addr.0);
                None
            }
            k => Some(k as usize - 1),
        }
    }
}

impl Drop for AddrIndex {
    fn drop(&mut self) {
        let Scratch { slots, marked } = &mut self.scratch;
        for a in marked.drain(..) {
            slots[a as usize] = 0;
        }
        let scratch = std::mem::take(&mut self.scratch);
        // `try_with`: a drop must not panic, even during thread exit.
        let _ = SCRATCH.try_with(|s| s.set(scratch));
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

    /// The merge rule as it ran before the index: a linear `find` for
    /// each incoming descriptor, `O(n·m)`. The reference the indexed
    /// merge is tested against.
    fn merge_linear(buf: &mut Vec<Entry<u32>>, incoming: &[Entry<u32>]) {
        for e in incoming {
            match buf.iter_mut().find(|b| b.addr == e.addr) {
                Some(existing) => {
                    if e.age < existing.age {
                        *existing = e.clone();
                    }
                }
                None => buf.push(e.clone()),
            }
        }
    }

    /// The thread's scratch, handed back unchanged after a look.
    fn scratch_is_clear() -> bool {
        let scratch = SCRATCH.take();
        let clear = scratch.marked.is_empty() && scratch.slots.iter().all(|&k| k == 0);
        SCRATCH.set(scratch);
        clear
    }

    fn indexed_len() -> usize {
        let scratch = SCRATCH.take();
        let len = scratch.slots.len();
        SCRATCH.set(scratch);
        len
    }

    /// The indexed merge keeps, replaces and appends what the linear
    /// reference does, in the same positions: buffers that repeat an
    /// address (the first copy is the one compared), incoming lists that
    /// repeat addresses among themselves and against the buffer, fresher,
    /// equal and staler, and address ranges that grow from case to case,
    /// so that later merges index addresses past the index's length. Many
    /// merges run in a row on this one thread, by reference and by move,
    /// and the scratch is all-zero after each.
    #[test]
    fn indexed_merges_equal_the_linear_reference() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(52);
        let (mut replaced, mut past_end) = (0, 0);
        for case in 0..400u32 {
            let span = 4 + case * 2;
            let draw = |rng: &mut SmallRng, n: usize| -> Vec<Entry<u32>> {
                (0..n)
                    .map(|_| Entry {
                        payload: rng.gen(),
                        ..e(rng.gen_range(0..span), rng.gen_range(0..6))
                    })
                    .collect()
            };
            let n = rng.gen_range(0..24);
            let buf = draw(&mut rng, n);
            let m = rng.gen_range(0..40);
            let incoming = draw(&mut rng, m);
            let index_len = indexed_len();
            past_end += usize::from(incoming.iter().any(|x| x.addr.index() >= index_len));
            let mut want = buf.clone();
            merge_linear(&mut want, &incoming);
            let (mut by_ref, mut by_move) = (buf.clone(), buf.clone());
            merge_dedup(&mut by_ref, &incoming);
            assert!(scratch_is_clear(), "case {case}");
            merge_dedup_owned(&mut by_move, incoming.clone());
            assert!(scratch_is_clear(), "case {case}");
            assert_eq!(by_ref, want, "case {case}");
            assert_eq!(by_move, want, "case {case}");
            replaced += want.iter().zip(&buf).filter(|(w, b)| w != b).count();
        }
        assert!(replaced > 100, "fresher copies must replace in place");
        assert!(past_end > 100, "merges must index past the index's end");
    }

    /// A merge that panics part-way — here its `keep` on the third
    /// descriptor it accepts — leaves the thread's index all-zero, so the
    /// next merge on the thread reads only its own positions.
    #[test]
    fn the_index_is_all_zero_after_a_merge_that_panics() {
        let caught = std::panic::catch_unwind(|| {
            let mut buf = vec![e(1, 5), e(700, 2)];
            let accepted = std::cell::Cell::new(0);
            merge_with(&mut buf, [e(1, 0), e(9, 0), e(900, 1)], |x| {
                accepted.set(accepted.get() + 1);
                assert!(accepted.get() < 3, "a merge that panics");
                x
            });
        });
        assert!(caught.is_err());
        assert!(indexed_len() > 900, "the index is handed back");
        assert!(scratch_is_clear());
        let mut buf = vec![e(9, 3)];
        merge_dedup(&mut buf, &[e(1, 4), e(9, 1)]);
        assert_eq!(buf, vec![e(9, 1), e(1, 4)]);
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
