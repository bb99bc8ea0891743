//! The circular identifier space shared by node ids and topic ids.
//!
//! The paper: *"Node ids and topic ids share the same identifier space and
//! are generated by a globally known hash function that generates ids that
//! are uniformly distributed in the identifier space, e.g., SHA-1."*
//!
//! We use a 64-bit space (`u64` with wrap-around) and the SplitMix64
//! finalizer as the globally known hash — uniform, deterministic and fast,
//! which is all the protocols require of SHA-1 here.

use vitis_sim::rng::mix64;

/// An identifier on the ring: either a node's identity or a topic's
/// rendezvous key (`hash(t)`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(pub u64);

impl std::fmt::Debug for Id {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Id({:016x})", self.0)
    }
}

impl std::fmt::Display for Id {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Id {
    /// The rendezvous identifier of a topic: `hash(t)`.
    ///
    /// Topics and nodes share the space, so this uses the same hash with a
    /// domain tag to keep topic ids from colliding with node ids derived
    /// from the same integer.
    #[inline]
    pub fn of_topic(topic: u32) -> Id {
        Id(mix64(0x7_091C_0000_0000 ^ topic as u64))
    }

    /// The identifier of a node given its stable logical key.
    #[inline]
    pub fn of_node(node_key: u64) -> Id {
        Id(mix64(0x20DE_0000_0000 ^ node_key))
    }

    /// Clockwise (increasing-id, wrap-around) distance from `self` to `to`.
    #[inline]
    pub fn distance_cw(self, to: Id) -> u64 {
        to.0.wrapping_sub(self.0)
    }

    /// Minimal circular distance between `self` and `other` — the metric
    /// used for rendezvous closeness ("the node with the closest id to
    /// `hash(t)`").
    #[inline]
    pub fn ring_distance(self, other: Id) -> u64 {
        let cw = self.distance_cw(other);
        cw.min(cw.wrapping_neg())
    }
}

/// Find the index of the candidate ring-closest to `target`. Ties broken by
/// smaller raw id; returns `None` for an empty slice.
pub fn closest_to(target: Id, candidates: &[Id]) -> Option<usize> {
    let mut best: Option<(usize, u64, u64)> = None;
    for (i, &c) in candidates.iter().enumerate() {
        let d = target.ring_distance(c);
        let key = (d, c.0);
        match best {
            Some((_, bd, braw)) if (bd, braw) <= key => {}
            _ => best = Some((i, d, c.0)),
        }
    }
    best.map(|(i, _, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cw_distance_wraps() {
        let a = Id(u64::MAX - 1);
        let b = Id(3);
        assert_eq!(a.distance_cw(b), 5);
        assert_eq!(b.distance_cw(a), u64::MAX - 4);
    }

    #[test]
    fn ring_distance_is_symmetric_and_minimal() {
        let a = Id(10);
        let b = Id(u64::MAX - 9);
        assert_eq!(a.ring_distance(b), 20);
        assert_eq!(b.ring_distance(a), 20);
        assert_eq!(a.ring_distance(a), 0);
        // Antipodal point.
        let c = Id(10u64.wrapping_add(u64::MAX / 2 + 1));
        assert_eq!(a.ring_distance(c), u64::MAX / 2 + 1);
    }

    #[test]
    fn closest_to_scans_all() {
        let cands = [Id(5), Id(100), Id(90)];
        assert_eq!(closest_to(Id(95), &cands), Some(2));
        assert_eq!(closest_to(Id(0), &cands), Some(0));
        assert_eq!(closest_to(Id(0), &[]), None);
    }

    #[test]
    fn hash_functions_are_uniformish_and_distinct() {
        // Node ids and topic ids from the same integer must not collide.
        for k in 0..1000u32 {
            assert_ne!(Id::of_topic(k), Id::of_node(k as u64));
        }
        // Crude uniformity probe: mean of hashed values near the midpoint.
        let n = 10_000u64;
        let mean = (0..n)
            .map(|k| Id::of_node(k).0 as u128)
            .sum::<u128>()
            / n as u128;
        let mid = (u64::MAX / 2) as u128;
        let dev = mean.abs_diff(mid) as f64 / mid as f64;
        assert!(dev < 0.02, "relative deviation {dev}");
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Id(0xAB).to_string(), "00000000000000ab");
    }
}
