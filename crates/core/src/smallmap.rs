//! A compact sorted-vector map for per-node hot state.
//!
//! Nodes hold small maps keyed by neighbor: Vitis's neighbor table of
//! remembered advertisements and reverse links (bounded by the view size,
//! < 32 entries) and OPT's link table. A `BTreeMap` spends a heap
//! allocation per node (or per leaf) and chases pointers on every lookup;
//! at N = 100k–1M nodes that dominates the round loop's cache behavior.
//! [`SmallMap`] stores the entries as a single `Vec<(K, V)>` kept sorted by
//! key: lookups are a binary search over one contiguous allocation,
//! iteration is a linear scan in ascending key order — the *same*
//! deterministic order `BTreeMap` iteration produced, so replacing one with
//! the other is behavior- and golden-trace-preserving.
//!
//! The API mirrors the `BTreeMap` subset the node code uses (`get`,
//! `insert`, `remove`, `retain`, `iter`, `keys`, `values_mut`, …). The
//! relay table, the one keyed map that grows with N, has a layout of its
//! own (`crate::relay`).

/// A map backed by a `Vec<(K, V)>` sorted by `K`.
///
/// Insertions and removals are `O(n)` shifts — the right trade for the
/// read-mostly maps in per-node state, where the contiguous layout wins on
/// every lookup and scan. A lookup's cost is its first, cold probe into the
/// entry array, not the search: a hash index over the relay table (then a
/// `SmallMap`) moved that miss to the next access instead of removing it
/// (DESIGN §14), so callers on a hot path look a key up once and keep the
/// entry. Hiding the miss is what pays: the relay table, searched once per
/// relay hop, has its first probes prefetched a few events before the hop
/// runs (`RelayTable::prefetch`, from the engine's look-ahead hint). The
/// neighbor map, prefetched the same way for profile messages, measured no
/// faster (DESIGN §14).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> SmallMap<K, V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        SmallMap::default()
    }

    /// Heap bytes of the entry array (capacity × entry size); what a value
    /// owns on the heap is the caller's to add.
    pub fn heap_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<(K, V)>()) as u64
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn pos(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.pos(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.pos(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.pos(key).is_ok()
    }

    /// Insert `value` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.pos(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.pos(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Keep only the entries for which `f` returns true, preserving order.
    /// A retain that leaves the map less than half full gives capacity
    /// back, to half again its length, so capacity stays at most
    /// 2 × len + 4 after every retain: a map that once held many entries
    /// does not keep their bytes.
    pub fn retain<F: FnMut(&K, &mut V) -> bool>(&mut self, mut f: F) {
        self.entries.retain_mut(|(k, v)| f(k, v));
        let len = self.entries.len();
        if self.entries.capacity() > 2 * len + 4 {
            self.entries.shrink_to(len + len / 2);
        }
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a SmallMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        fn split<K, V>(e: &(K, V)) -> (&K, &V) {
            (&e.0, &e.1)
        }
        self.entries.iter().map(split as fn(&(K, V)) -> (&K, &V))
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for SmallMap<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut m = SmallMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: SmallMap<u32, &str> = SmallMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.insert(3, "THREE"), Some("three"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&3), Some(&"THREE"));
        assert_eq!(m.get(&2), None);
        assert!(m.contains_key(&1));
        assert_eq!(m.remove(&1), Some("one"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iterates_in_ascending_key_order() {
        let mut m: SmallMap<u32, u32> = SmallMap::new();
        for k in [9, 2, 7, 4, 0] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![0, 2, 4, 7, 9]);
        let pairs: Vec<(u32, u32)> = (&m).into_iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(0, 0), (2, 20), (4, 40), (7, 70), (9, 90)]);
    }

    #[test]
    fn matches_btreemap_on_random_ops() {
        use std::collections::BTreeMap;
        let mut small: SmallMap<u16, u64> = SmallMap::new();
        let mut tree: BTreeMap<u16, u64> = BTreeMap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 64) as u16;
            match x % 5 {
                0 | 1 => {
                    assert_eq!(small.insert(k, step), tree.insert(k, step));
                }
                2 => {
                    assert_eq!(small.remove(&k), tree.remove(&k));
                }
                3 => {
                    assert_eq!(small.get(&k), tree.get(&k));
                    assert_eq!(small.contains_key(&k), tree.contains_key(&k));
                }
                _ => {
                    match small.get_mut(&k) {
                        Some(v) => *v += 1,
                        None => {
                            small.insert(k, 1);
                        }
                    }
                    *tree.entry(k).or_default() += 1;
                }
            }
            if step % 97 == 0 {
                // Every third retain empties most of the map, so the
                // capacity bound is exercised after a shrink too.
                let keep = |k: &u16| {
                    if step % 3 == 0 {
                        k.is_multiple_of(8)
                    } else {
                        !k.is_multiple_of(3)
                    }
                };
                small.retain(|k, _| keep(k));
                tree.retain(|k, _| keep(k));
                let (len, cap) = (small.len(), small.entries.capacity());
                assert!(cap <= 2 * len + 4, "capacity {cap} for {len} entries");
                assert!(small.iter().eq(tree.iter()), "step {step}");
            }
        }
        let a: Vec<(u16, u64)> = small.iter().map(|(&k, &v)| (k, v)).collect();
        let b: Vec<(u16, u64)> = tree.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn get_mut_and_values_mut_update_in_place() {
        let mut m: SmallMap<u8, Vec<u8>> = SmallMap::new();
        m.insert(2, vec![20]);
        m.insert(1, vec![10]);
        m.get_mut(&2).unwrap().push(21);
        assert_eq!(m.get(&2), Some(&vec![20, 21]));
        for v in m.values_mut() {
            v.push(99);
        }
        assert_eq!(m.get(&1), Some(&vec![10, 99]));
        let vals: Vec<&Vec<u8>> = m.values().collect();
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn retain_preserves_sorted_order() {
        let mut m: SmallMap<u32, u32> = (0..20u32).map(|k| (k, k)).collect();
        m.retain(|k, v| {
            *v += 1;
            k % 2 == 0
        });
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, (0..20).filter(|k| k % 2 == 0).collect::<Vec<_>>());
        assert_eq!(m.get(&4), Some(&5));
    }
}
