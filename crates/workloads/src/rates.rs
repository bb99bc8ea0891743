//! Publication-rate models (Section IV-D).
//!
//! The paper sweeps a power-law event-rate distribution over topics with
//! exponent α from 0.3 (near-uniform) to 3 (a single hot topic dominates)
//! and shows Vitis adapts its clustering to the hot topics.

use rand::seq::SliceRandom;
use vitis_sim::rng::{domain, stream_rng};

/// Uniform rate 1 for every topic (the default outside Figure 7).
pub fn uniform_rates(num_topics: usize) -> Vec<f64> {
    vec![1.0; num_topics]
}

/// Power-law rates: topic with popularity rank `k` (1-based) gets rate
/// `k^(−alpha)`, normalized so the total mass equals `num_topics` (keeping
/// the overall event volume comparable across α). The rank-to-topic
/// assignment is a seeded random permutation so hot topics are spread over
/// the id space.
pub fn powerlaw_rates(num_topics: usize, alpha: f64, seed: u64) -> Vec<f64> {
    assert!(num_topics > 0);
    assert!(alpha.is_finite() && alpha >= 0.0);
    let raw: Vec<f64> = (1..=num_topics).map(|k| (k as f64).powf(-alpha)).collect();
    let total: f64 = raw.iter().sum();
    let scale = num_topics as f64 / total;
    let mut topics: Vec<usize> = (0..num_topics).collect();
    let mut rng = stream_rng(seed, domain::WORKLOAD, 0x4A7E);
    topics.shuffle(&mut rng);
    let mut rates = vec![0.0; num_topics];
    for (rank0, &t) in topics.iter().enumerate() {
        rates[t] = raw[rank0] * scale;
    }
    rates
}

/// The share of the total rate mass carried by the hottest `k` topics — a
/// skew diagnostic used in tests and experiment output.
pub fn top_k_share(rates: &[f64], k: usize) -> f64 {
    let total: f64 = rates.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
    sorted.iter().take(k).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rates_are_ones() {
        let r = uniform_rates(5);
        assert_eq!(r, vec![1.0; 5]);
    }

    #[test]
    fn powerlaw_mass_is_normalized() {
        for alpha in [0.3, 1.0, 3.0] {
            let r = powerlaw_rates(100, alpha, 1);
            let total: f64 = r.iter().sum();
            assert!((total - 100.0).abs() < 1e-6, "alpha {alpha}: total {total}");
            assert!(r.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn skew_grows_with_alpha() {
        let s03 = top_k_share(&powerlaw_rates(1000, 0.3, 2), 10);
        let s1 = top_k_share(&powerlaw_rates(1000, 1.0, 2), 10);
        let s3 = top_k_share(&powerlaw_rates(1000, 3.0, 2), 10);
        assert!(s03 < s1 && s1 < s3, "{s03} {s1} {s3}");
        assert!(s03 < 0.05, "alpha 0.3 is near uniform: {s03}");
        assert!(s3 > 0.95, "alpha 3 is dominated by hot topics: {s3}");
    }

    #[test]
    fn hot_topics_are_shuffled_across_ids() {
        let r = powerlaw_rates(1000, 2.0, 3);
        // The hottest topic should usually not be topic 0.
        let hottest = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let r2 = powerlaw_rates(1000, 2.0, 4);
        let hottest2 = r2
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_ne!(
            hottest, hottest2,
            "different seeds place hot topics differently"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(powerlaw_rates(50, 1.5, 9), powerlaw_rates(50, 1.5, 9));
    }

    #[test]
    fn top_k_share_handles_edges() {
        assert_eq!(top_k_share(&[], 3), 0.0);
        assert_eq!(top_k_share(&[0.0, 0.0], 1), 0.0);
        assert!((top_k_share(&[1.0, 1.0, 2.0], 1) - 0.5).abs() < 1e-12);
    }
}
