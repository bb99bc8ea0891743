//! Property-based tests for the simulator substrate.

use proptest::prelude::*;
use vitis_sim::churn::{ChurnEvent, ChurnKind, ChurnTrace};
use vitis_sim::metrics::{Histogram, Summary};
use vitis_sim::rng::{derive_seed, mix64};
use vitis_sim::stats::{frequency, percentile, Zipf};
use vitis_sim::time::SimTime;

proptest! {
    /// Summary mean/min/max always bracket correctly and match a naive
    /// computation.
    #[test]
    fn summary_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::new();
        s.record_all(xs.iter().copied());
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - naive_mean).abs() < 1e-6 * (1.0 + naive_mean.abs()));
        prop_assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        prop_assert!(s.min() <= s.mean() && s.mean() <= s.max());
        prop_assert!(s.variance() >= 0.0);
    }

    /// Histograms conserve observations.
    #[test]
    fn histogram_conserves_mass(
        bins in 1usize..20,
        upper in 1.0f64..1e4,
        xs in proptest::collection::vec(-10.0f64..2e4, 0..100),
    ) {
        let mut h = Histogram::new(bins, upper);
        for &x in &xs {
            h.record(x);
        }
        let total: u64 = (0..=bins).map(|i| h.count(i)).sum();
        prop_assert_eq!(total, xs.len() as u64);
        let frac: f64 = (0..=bins).map(|i| h.fraction(i)).sum();
        if !xs.is_empty() {
            prop_assert!((frac - 1.0).abs() < 1e-9);
        }
    }

    /// Percentiles are monotone in `p` and bounded by the extremes.
    #[test]
    fn percentile_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo);
        let b = percentile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        prop_assert!(percentile(&xs, 0.0) <= a + 1e-9);
        prop_assert!(b <= percentile(&xs, 100.0) + 1e-9);
    }

    /// Frequency table counts sum to the number of observations.
    #[test]
    fn frequency_conserves(xs in proptest::collection::vec(0u64..50, 0..200)) {
        let f = frequency(&xs);
        prop_assert_eq!(f.iter().map(|&(_, c)| c).sum::<u64>(), xs.len() as u64);
        for w in f.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    /// Zipf PMF is a probability distribution and sampling hits the support.
    #[test]
    fn zipf_is_distribution(n in 1u64..500, s in 0.0f64..4.0, u in 0.0f64..1.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (1..=n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        let draw = z.sample_from_uniform(u);
        prop_assert!((1..=n).contains(&draw));
    }

    /// Seed derivation is injective-ish across domains/indices (no collisions
    /// in small ranges) and stable.
    #[test]
    fn derive_seed_stable_and_spread(master: u64, d1 in 0u64..8, d2 in 0u64..8, i1 in 0u64..64, i2 in 0u64..64) {
        prop_assert_eq!(derive_seed(master, d1, i1), derive_seed(master, d1, i1));
        if (d1, i1) != (d2, i2) {
            prop_assert_ne!(derive_seed(master, d1, i1), derive_seed(master, d2, i2));
        }
        let _ = mix64(master);
    }

    /// Any alternating join/leave sequence forms a valid trace, and
    /// `online_at` equals a naive replay.
    #[test]
    fn churn_trace_online_matches_replay(
        spec in proptest::collection::vec((0u32..10, 1u64..1000, 1u64..1000), 0..20),
        probe in 0u64..2500,
    ) {
        // Build alternating sessions per node from (node, start-gap, len).
        let mut events = Vec::new();
        let mut clock = [0u64; 10];
        for &(node, gap, len) in &spec {
            let start = clock[node as usize] + gap;
            let end = start + len;
            events.push(ChurnEvent { time: SimTime(start), node, kind: ChurnKind::Join });
            events.push(ChurnEvent { time: SimTime(end), node, kind: ChurnKind::Leave });
            clock[node as usize] = end + 1;
        }
        let trace = ChurnTrace::new(events.clone()).unwrap();
        // Naive replay.
        let mut online = [false; 10];
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.time);
        for e in &sorted {
            if e.time.0 <= probe {
                online[e.node as usize] = e.kind == ChurnKind::Join;
            }
        }
        let expect = online.iter().filter(|&&b| b).count();
        prop_assert_eq!(trace.online_at(SimTime(probe)), expect);
    }
}
