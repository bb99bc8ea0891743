//! Statistical helpers used by workload generators and the experiment
//! harness: percentiles, CCDFs, discrete power-law sampling and the
//! maximum-likelihood power-law exponent estimator used to regenerate the
//! Twitter degree analysis (Figure 8's "alpha = 1.65" fit).

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`-th percentile (0–100) using linear interpolation between order
/// statistics (NIST R-7). Returns NaN for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = rank - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Frequency table: `(value, count)` for each distinct value, ascending.
/// This is the raw series of the paper's Figure 8 (degree vs frequency).
pub fn frequency(xs: &[u64]) -> Vec<(u64, u64)> {
    let mut v = xs.to_vec();
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for x in v {
        match out.last_mut() {
            Some((vx, c)) if *vx == x => *c += 1,
            _ => out.push((x, 1)),
        }
    }
    out
}

/// Continuous-approximation MLE for the exponent of a power law
/// `p(x) ∝ x^(−α)` for `x ≥ x_min`:
///
/// `α̂ = 1 + n / Σ ln(x_i / (x_min − ½))`
///
/// (Clauset–Shalizi–Newman discrete correction). Observations below `x_min`
/// are ignored. Returns `None` if fewer than two observations qualify.
pub fn powerlaw_mle(xs: &[u64], x_min: u64) -> Option<f64> {
    debug_assert!(x_min >= 1);
    let denom_shift = x_min as f64 - 0.5;
    let mut n = 0u64;
    let mut sum_ln = 0.0;
    for &x in xs {
        if x >= x_min {
            n += 1;
            sum_ln += (x as f64 / denom_shift).ln();
        }
    }
    if n < 2 || sum_ln <= 0.0 {
        None
    } else {
        Some(1.0 + n as f64 / sum_ln)
    }
}

/// Generalized harmonic number `H_{n,s} = Σ_{k=1..n} k^(−s)`, the
/// normalization constant of a Zipf distribution.
pub fn harmonic(n: u64, s: f64) -> f64 {
    (1..=n).map(|k| (k as f64).powf(-s)).sum()
}

/// A discrete bounded power-law (Zipf) distribution over ranks `1..=n` with
/// exponent `s`: `P(k) = k^(−s) / H_{n,s}`. Sampling is done by inverse
/// transform over the precomputed CDF (O(log n) per draw).
///
/// This is the distribution used for per-topic publication rates in the
/// α-sweep experiment (Figure 7).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create a Zipf distribution over `1..=n` with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let h = harmonic(n, s);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s) / h;
            cdf.push(acc);
        }
        // Guard against floating point drift at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: u64) -> f64 {
        let i = (k - 1) as usize;
        let prev = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        self.cdf[i] - prev
    }

    /// Draw a rank in `1..=n` from a uniform `u ∈ [0,1)`.
    pub fn sample_from_uniform(&self, u: f64) -> u64 {
        let i = self.cdf.partition_point(|&c| c <= u);
        (i.min(self.cdf.len() - 1) + 1) as u64
    }

    /// Draw a rank using the provided RNG.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> u64 {
        self.sample_from_uniform(rng.gen::<f64>())
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mean_and_percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn frequency_counts_distinct_values() {
        assert_eq!(frequency(&[3, 1, 3, 3, 2]), vec![(1, 1), (2, 1), (3, 3)]);
        assert!(frequency(&[]).is_empty());
    }

    #[test]
    fn powerlaw_mle_recovers_exponent() {
        // Draw from a Zipf with s = 1.65 over a wide support and check the
        // estimator lands near the true exponent.
        // Estimate above x_min = 5: the discrete-correction MLE is biased at
        // x_min = 1 and the bounded support truncates the extreme tail.
        let z = Zipf::new(1_000_000, 1.65);
        let mut rng = SmallRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..100_000).map(|_| z.sample(&mut rng)).collect();
        let alpha = powerlaw_mle(&xs, 5).unwrap();
        assert!(
            (alpha - 1.65).abs() < 0.1,
            "estimated alpha = {alpha}, expected ~1.65"
        );
    }

    #[test]
    fn powerlaw_mle_requires_enough_data() {
        assert_eq!(powerlaw_mle(&[], 1), None);
        assert_eq!(powerlaw_mle(&[5], 1), None);
        assert_eq!(powerlaw_mle(&[1, 1, 1], 2), None);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(1000, 0.8);
        let total: f64 = (1..=1000).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(100, 2.0);
        assert!(z.pmf(1) > 10.0 * z.pmf(10));
        let mut rng = SmallRng::seed_from_u64(7);
        let draws: Vec<u64> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let ones = draws.iter().filter(|&&d| d == 1).count() as f64 / draws.len() as f64;
        assert!((ones - z.pmf(1)).abs() < 0.02);
    }

    #[test]
    fn zipf_sample_from_uniform_edges() {
        let z = Zipf::new(10, 1.0);
        assert_eq!(z.sample_from_uniform(0.0), 1);
        assert_eq!(z.sample_from_uniform(0.999_999_999), 10);
    }

    #[test]
    fn harmonic_known_values() {
        assert!((harmonic(1, 1.0) - 1.0).abs() < 1e-12);
        assert!((harmonic(2, 1.0) - 1.5).abs() < 1e-12);
        assert!((harmonic(4, 0.0) - 4.0).abs() < 1e-12);
    }
}
