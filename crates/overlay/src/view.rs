//! A bounded partial view of the network.

use crate::entry::{merge_dedup, Entry};
use rand::Rng;
use vitis_sim::event::NodeIdx;

/// A capacity-bounded set of [`Entry`] descriptors, de-duplicated by
/// address. Eviction keeps the freshest descriptors (Newscast semantics).
#[derive(Clone, Debug)]
pub struct View<P> {
    entries: Vec<Entry<P>>,
    capacity: usize,
}

impl<P: Clone> View<P> {
    /// An empty view with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Heap bytes of the descriptor array (capacity × descriptor size).
    pub fn heap_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<Entry<P>>()) as u64
    }

    /// The view's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries (unordered).
    pub fn entries(&self) -> &[Entry<P>] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the view holds a descriptor of `addr`.
    pub fn contains(&self, addr: NodeIdx) -> bool {
        self.entries.iter().any(|e| e.addr == addr)
    }

    /// Age every descriptor by one round (saturating).
    pub fn age_all(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// Merge `incoming`, drop descriptors of `self_addr`, keep the freshest
    /// `capacity` entries (ties broken by address for determinism).
    pub fn merge(&mut self, incoming: &[Entry<P>], self_addr: NodeIdx) {
        merge_dedup(&mut self.entries, incoming);
        self.entries.retain(|e| e.addr != self_addr);
        if self.entries.len() > self.capacity {
            // Addresses are unique after the dedup, so the keys are too
            // and the unstable sort puts them in the stable sort's order.
            self.entries.sort_unstable_by_key(|e| (e.age, e.addr.0));
            debug_assert!(self
                .entries
                .windows(2)
                .all(|w| (w[0].age, w[0].addr) < (w[1].age, w[1].addr)));
            self.entries.truncate(self.capacity);
        }
    }

    /// Remove the descriptor of `addr`, if present.
    pub fn remove(&mut self, addr: NodeIdx) {
        self.entries.retain(|e| e.addr != addr);
    }

    /// Remove every descriptor older than `max_age`.
    pub fn expire(&mut self, max_age: u16) {
        self.entries.retain(|e| e.age <= max_age);
    }

    /// A uniformly random entry, if any.
    pub fn random<R: Rng>(&self, rng: &mut R) -> Option<&Entry<P>> {
        if self.entries.is_empty() {
            None
        } else {
            Some(&self.entries[rng.gen_range(0..self.entries.len())])
        }
    }

    /// Clone out all entries (e.g. to build a gossip buffer).
    pub fn to_vec(&self) -> Vec<Entry<P>> {
        self.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn e(addr: u32, age: u16) -> Entry<()> {
        Entry {
            addr: NodeIdx(addr),
            id: Id(addr as u64),
            age,
            payload: (),
        }
    }

    #[test]
    fn merge_respects_capacity_keeping_freshest() {
        let mut v: View<()> = View::new(3);
        v.merge(&[e(1, 5), e(2, 1), e(3, 3), e(4, 0)], NodeIdx(99));
        assert_eq!(v.len(), 3);
        assert!(v.contains(NodeIdx(4)));
        assert!(v.contains(NodeIdx(2)));
        assert!(v.contains(NodeIdx(3)));
        assert!(!v.contains(NodeIdx(1)));
    }

    /// The truncating sort is unstable, and keeps what a stable sort
    /// kept, in its order: random views of few distinct ages, so most
    /// keys tie on age and differ only by address.
    #[test]
    fn truncation_keeps_the_stable_sorts_order() {
        let mut rng = SmallRng::seed_from_u64(53);
        for _ in 0..500 {
            let capacity = rng.gen_range(1..12);
            let mut v: View<()> = View::new(capacity);
            let mut reference: Vec<Entry<()>> = Vec::new();
            for _ in 0..4 {
                let incoming: Vec<Entry<()>> = (0..rng.gen_range(0..16))
                    .map(|_| e(rng.gen_range(0..24), rng.gen_range(0..3)))
                    .collect();
                let me = NodeIdx(rng.gen_range(0..24));
                v.merge(&incoming, me);
                merge_dedup(&mut reference, &incoming);
                reference.retain(|e| e.addr != me);
                if reference.len() > capacity {
                    reference.sort_by_key(|e| (e.age, e.addr.0));
                    reference.truncate(capacity);
                }
                let got: Vec<(NodeIdx, u16)> =
                    v.entries().iter().map(|e| (e.addr, e.age)).collect();
                let want: Vec<(NodeIdx, u16)> = reference.iter().map(|e| (e.addr, e.age)).collect();
                assert_eq!(got, want);
                v.age_all();
                for e in &mut reference {
                    e.age = e.age.saturating_add(1);
                }
            }
        }
    }

    #[test]
    fn merge_drops_self() {
        let mut v: View<()> = View::new(4);
        v.merge(&[e(1, 0), e(7, 0)], NodeIdx(7));
        assert_eq!(v.len(), 1);
        assert!(!v.contains(NodeIdx(7)));
    }

    #[test]
    fn aging_and_expiry() {
        let mut v: View<()> = View::new(4);
        v.merge(&[e(1, 0), e(2, 2)], NodeIdx(9));
        v.age_all();
        v.expire(2);
        assert!(v.contains(NodeIdx(1)));
        assert!(!v.contains(NodeIdx(2)));
    }

    #[test]
    fn random_draws_from_view() {
        let mut v: View<()> = View::new(8);
        v.merge(&[e(1, 0), e(2, 0), e(3, 0)], NodeIdx(9));
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(v.random(&mut rng).unwrap().addr);
        }
        assert_eq!(seen.len(), 3);
        let empty: View<()> = View::new(2);
        assert!(empty.random(&mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: View<()> = View::new(0);
    }
}
