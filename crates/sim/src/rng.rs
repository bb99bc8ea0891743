//! Deterministic random-number management.
//!
//! Every source of randomness in a simulation run is derived from a single
//! master seed, so a run is exactly reproducible from `(code, config, seed)`.
//! Seeds for independent streams (the engine itself, each node incarnation,
//! workload generators, …) are derived with SplitMix64, which is the standard
//! seed-expansion function and guarantees well-separated streams even for
//! adjacent stream indices.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One step of the SplitMix64 generator: returns the next output and advances
/// the state. Used both as a seed expander and as the globally known hash
/// function for identifier derivation (see `vitis-overlay`).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a 64-bit key with the SplitMix64 finalizer (stateless form).
#[inline]
pub fn mix64(key: u64) -> u64 {
    let mut s = key;
    splitmix64(&mut s)
}

/// Derive the seed for an independent stream from a master seed.
///
/// `domain` separates different *kinds* of streams (e.g. engine vs nodes vs
/// workloads) and `index` separates instances within a kind.
#[inline]
pub fn derive_seed(master: u64, domain: u64, index: u64) -> u64 {
    let mut s = master ^ mix64(domain).rotate_left(17) ^ mix64(index.wrapping_add(0xA5A5_5A5A));
    // Two extra rounds decorrelate adjacent (domain, index) pairs.
    splitmix64(&mut s);
    splitmix64(&mut s)
}

/// Stream-domain constants used by the engine and the protocol crates.
pub mod domain {
    /// The engine's own stream (round phases, loss-burst draws).
    pub const ENGINE: u64 = 1;
    /// Per-node protocol streams (indexed by slot and incarnation).
    pub const NODE: u64 = 2;
    /// Workload generation (subscriptions, traces, rates).
    pub const WORKLOAD: u64 = 3;
    /// Publication scheduling in experiment harnesses.
    pub const PUBLISH: u64 = 4;
}

/// Build a [`SmallRng`] for a derived stream.
#[inline]
pub fn stream_rng(master: u64, dom: u64, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(master, dom, index))
}

/// Build the per-node RNG for a given slot and incarnation.
///
/// Incarnations matter under churn: a node that leaves and re-joins must not
/// replay its previous random choices.
#[inline]
pub fn node_rng(master: u64, slot: u32, incarnation: u32) -> SmallRng {
    stream_rng(
        master,
        domain::NODE,
        ((slot as u64) << 32) | incarnation as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_reference_values() {
        // Reference vector for seed 0 from the SplitMix64 literature.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(42, 1, 7), derive_seed(42, 1, 7));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(42, domain::NODE, 0);
        let b = derive_seed(42, domain::NODE, 1);
        let c = derive_seed(42, domain::ENGINE, 0);
        let d = derive_seed(43, domain::NODE, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn node_rng_streams_diverge_across_incarnations() {
        let mut r1 = node_rng(1, 5, 0);
        let mut r2 = node_rng(1, 5, 1);
        let xs: Vec<u64> = (0..8).map(|_| r1.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| r2.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn same_stream_replays_identically() {
        let mut r1 = node_rng(9, 3, 2);
        let mut r2 = node_rng(9, 3, 2);
        for _ in 0..32 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn mix64_is_a_bijection_probe() {
        // Not a full bijection proof, but distinct inputs in a small range
        // must produce distinct outputs (collision would indicate a broken
        // finalizer constant).
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(mix64(k)));
        }
    }
}
