//! A compact sorted-array map for per-node hot state.
//!
//! Nodes hold small maps keyed by neighbor: Vitis's neighbor table of
//! remembered advertisements and reverse links (a few dozen entries) and
//! OPT's link table. A
//! `BTreeMap` spends a heap allocation per node (or per leaf) and chases
//! pointers on every lookup; at N = 100k–1M nodes that dominates the round
//! loop's cache behavior.
//!
//! **Layout.** [`SmallMap`] keeps its keys and its values in two parallel
//! arrays, `keys: Vec<K>` and `vals: Vec<V>`, both ordered by ascending
//! key: the value at position `i` belongs to the key at position `i`.
//! Every operation moves the two in lockstep. A lookup binary-searches the
//! key array alone, so for `NodeIdx` keys it reads 4-byte keys, 16 to a
//! cache line (2–3 lines for a 40-neighbor table), and then touches the
//! one value it found; with `(K, V)` pairs of 48 bytes each probe was a
//! line of its own. Iteration walks both arrays in ascending key order —
//! the *same* deterministic order `BTreeMap` iteration produced, so
//! replacing one with the other is behavior- and golden-trace-preserving.
//!
//! **Key prefetch.** [`SmallMap::prefetch_keys`] warms every line of the
//! key array, the whole of what a search reads before it finds its value.
//! Vitis calls it from the engine's look-ahead hint for a profile message,
//! whose handler starts with a search of the neighbor map. When the map
//! held pairs, a hint that warmed the first two search levels measured no
//! faster: the probes under them stayed cold. With the keys apart the hint
//! covers the whole search (DESIGN §14, "Neighbour-map keys and the
//! folded hop").
//!
//! The API mirrors the `BTreeMap` subset the node code uses (`get`,
//! `insert`, `remove`, `retain`, `iter`, `keys`, `values_mut`, …). The
//! relay table, the one keyed map that grows with N, has a layout of its
//! own (`crate::relay`).

/// A map backed by two parallel arrays, keys and values, sorted by `K`.
///
/// Insertions and removals are `O(n)` shifts of both arrays — the right
/// trade for the read-mostly maps in per-node state, where the contiguous
/// layout wins on every lookup and scan. A lookup's cost is its cold
/// probes into the key array, not the comparisons, so callers on a hot
/// path look a key up once and keep the value, and a caller that knows a
/// search is coming warms the keys first ([`SmallMap::prefetch_keys`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallMap<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> SmallMap<K, V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        SmallMap::default()
    }

    /// Heap bytes of the two arrays (Σ capacity × element size); what a
    /// value owns on the heap is the caller's to add.
    pub fn heap_bytes(&self) -> u64 {
        let keys = self.keys.capacity() * std::mem::size_of::<K>();
        (keys + self.vals.capacity() * std::mem::size_of::<V>()) as u64
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn pos(&self, key: &K) -> Result<usize, usize> {
        self.keys.binary_search(key)
    }

    /// Prefetch every cache line of the key array: what a search for any
    /// key reads. A hint only; it reads the array's header and nothing
    /// else, and an empty map prefetches nothing.
    pub fn prefetch_keys(&self) {
        let keys = self.prefetched_keys();
        if !keys.is_empty() {
            vitis_sim::perf::prefetch_range(keys.as_ptr(), size_of_val(keys));
        }
    }

    /// The keys [`SmallMap::prefetch_keys`] warms: the live ones, not the
    /// spare capacity.
    fn prefetched_keys(&self) -> &[K] {
        &self.keys
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.pos(key).ok().map(|i| &self.vals[i])
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.pos(key) {
            Ok(i) => Some(&mut self.vals[i]),
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
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], value)),
            Err(i) => {
                self.keys.insert(i, key);
                self.vals.insert(i, value);
                None
            }
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.pos(key) {
            Ok(i) => {
                self.keys.remove(i);
                Some(self.vals.remove(i))
            }
            Err(_) => None,
        }
    }

    /// Keep only the entries for which `f` returns true, preserving order.
    /// The values are retained by `Vec::retain_mut` and the keys compacted
    /// beside them, so each dropped value is dropped once, in place. A
    /// retain that leaves the map less than half full gives capacity
    /// back, to half again its length, so both arrays' capacities stay at
    /// most 2 × len + 4 after every retain: a map that once held many
    /// entries does not keep their bytes.
    pub fn retain<F: FnMut(&K, &mut V) -> bool>(&mut self, mut f: F) {
        let mut keys = KeptKeys {
            keys: &mut self.keys,
            kept: 0,
            read: 0,
        };
        self.vals.retain_mut(|v| {
            let k = keys.keys[keys.read];
            let keep = f(&k, v);
            if keep {
                keys.keys[keys.kept] = k;
                keys.kept += 1;
            }
            keys.read += 1;
            keep
        });
        drop(keys);
        let len = self.keys.len();
        if self.keys.capacity() > 2 * len + 4 {
            self.keys.shrink_to(len + len / 2);
            self.vals.shrink_to(len + len / 2);
        }
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.into_iter()
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.keys.iter()
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.vals.iter()
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.vals.iter_mut()
    }
}

/// The key side of [`SmallMap::retain`]: keys `..kept` are the kept ones,
/// `kept..read` those of dropped values, `read..` the unvisited. Dropping
/// it removes the middle run, so the keys end in step with what
/// `retain_mut` left of the values, also when the predicate panics (the
/// value it was testing, at `read`, is then kept).
struct KeptKeys<'a, K> {
    keys: &'a mut Vec<K>,
    kept: usize,
    read: usize,
}

impl<K> Drop for KeptKeys<'_, K> {
    fn drop(&mut self) {
        self.keys.drain(self.kept..self.read);
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a SmallMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter().zip(&self.vals)
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

    /// The split arrays are one sorted map: as many keys as values, keys
    /// strictly ascending.
    fn assert_in_step<K: Ord + Copy + std::fmt::Debug, V>(m: &SmallMap<K, V>) {
        assert_eq!(m.keys.len(), m.vals.len());
        assert!(m.keys.windows(2).all(|w| w[0] < w[1]), "{:?}", m.keys);
    }

    #[test]
    fn matches_btreemap_on_random_ops() {
        use std::cell::Cell;
        use std::collections::BTreeMap;
        use std::rc::Rc;
        /// A value that owns heap data and counts its own drops.
        struct Val {
            id: usize,
            n: u64,
            drops: Rc<Cell<u32>>,
        }
        impl Drop for Val {
            fn drop(&mut self) {
                self.drops.set(self.drops.get() + 1);
            }
        }
        fn val(made: &mut Vec<Rc<Cell<u32>>>, n: u64) -> (usize, Val) {
            made.push(Rc::new(Cell::new(0)));
            let id = made.len() - 1;
            let drops = Rc::clone(&made[id]);
            (id, Val { id, n, drops })
        }
        let mut made: Vec<Rc<Cell<u32>>> = Vec::new();
        let seen = |v: Option<Val>| v.map(|v| (v.id, v.n));
        // The reference holds each value's id and number.
        let mut small: SmallMap<u16, Val> = SmallMap::new();
        let mut tree: BTreeMap<u16, (usize, u64)> = BTreeMap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 64) as u16;
            match x % 5 {
                0 | 1 => {
                    let (id, v) = val(&mut made, step);
                    assert_eq!(seen(small.insert(k, v)), tree.insert(k, (id, step)));
                }
                2 => {
                    assert_eq!(seen(small.remove(&k)), tree.remove(&k));
                }
                3 => {
                    let got = small.get(&k).map(|v| (v.id, v.n));
                    assert_eq!(got, tree.get(&k).copied());
                    assert_eq!(small.contains_key(&k), tree.contains_key(&k));
                }
                _ => {
                    match small.get_mut(&k) {
                        Some(v) => v.n += 1,
                        None => {
                            let (id, v) = val(&mut made, 1);
                            small.insert(k, v);
                            tree.insert(k, (id, 0));
                        }
                    }
                    tree.get_mut(&k).unwrap().1 += 1;
                }
            }
            assert_in_step(&small);
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
                assert_in_step(&small);
                let len = small.len();
                for cap in [small.keys.capacity(), small.vals.capacity()] {
                    assert!(cap <= 2 * len + 4, "capacity {cap} for {len} entries");
                }
                let pairs = small.iter().map(|(k, v)| (k, (v.id, v.n)));
                assert!(pairs.eq(tree.iter().map(|(k, &v)| (k, v))), "step {step}");
                // Every value replaced, removed or retained away was
                // dropped once; every value still held, never.
                let live: Vec<usize> = tree.values().map(|&(id, _)| id).collect();
                for (id, drops) in made.iter().enumerate() {
                    assert_eq!(drops.get(), u32::from(!live.contains(&id)), "value {id}");
                }
            }
        }
        let a: Vec<(u16, u64)> = small.iter().map(|(&k, v)| (k, v.n)).collect();
        let b: Vec<(u16, u64)> = tree.iter().map(|(&k, &(_, n))| (k, n)).collect();
        assert_eq!(a, b);
        drop(small);
        assert!(made.iter().all(|d| d.get() == 1));
    }

    #[test]
    fn a_panicking_retain_leaves_the_arrays_in_step() {
        let mut m: SmallMap<u32, String> = (0..10u32).map(|k| (k, k.to_string())).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.retain(|&k, _| {
                assert!(k != 6, "predicate panics");
                k % 2 == 0
            })
        }));
        assert!(caught.is_err());
        assert_in_step(&m);
        for (k, v) in &m {
            assert_eq!(*v, k.to_string());
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, [0, 2, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn prefetch_reads_only_the_live_keys() {
        let empty: SmallMap<u32, u64> = SmallMap::new();
        let single: SmallMap<u32, u64> = [(7, 70)].into_iter().collect();
        let mut shrunk: SmallMap<u32, u64> = (0..200u32).map(|k| (k, u64::from(k))).collect();
        shrunk.retain(|&k, _| k % 50 == 0);
        let mut emptied = shrunk.clone();
        emptied.retain(|_, _| false);
        for m in [&empty, &single, &shrunk, &emptied] {
            m.prefetch_keys();
            let block = m.prefetched_keys();
            assert_eq!(block.as_ptr_range(), m.keys.as_ptr_range());
            assert_eq!(size_of_val(block), m.len() * size_of::<u32>());
        }
        assert_eq!((shrunk.len(), emptied.len()), (4, 0));
        assert!(shrunk.keys.capacity() <= 2 * 4 + 4);
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
