//! Measurement primitives: sample summaries and fixed-bin histograms.
//!
//! These are intentionally simple, allocation-light containers; the
//! evaluation-metric *semantics* (hit ratio, traffic overhead, propagation
//! delay) live with the protocols that define them.

/// Streaming summary of a sample: count, mean, variance (Welford), min, max.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record all items of an iterator.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.record(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over `[0, upper)` with `bins` equal-width bins plus an
/// overflow bin. Used e.g. for the per-node traffic-overhead distribution
/// of Figure 5 (percent values, 0–100).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    upper: f64,
    total: u64,
}

impl Histogram {
    /// Create a histogram over `[0, upper)` with `bins` bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `upper <= 0`.
    pub fn new(bins: usize, upper: f64) -> Self {
        assert!(bins > 0 && upper > 0.0);
        Histogram {
            counts: vec![0; bins + 1], // last bin = overflow
            upper,
            total: 0,
        }
    }

    /// Record one observation (negative values clamp to the first bin).
    pub fn record(&mut self, x: f64) {
        let bins = self.counts.len() - 1;
        let idx = if x < 0.0 {
            0
        } else if x >= self.upper {
            bins
        } else {
            ((x / self.upper) * bins as f64) as usize
        };
        self.counts[idx.min(bins)] += 1;
        self.total += 1;
    }

    /// Number of bins (excluding overflow).
    pub fn num_bins(&self) -> usize {
        self.counts.len() - 1
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw count of bin `i` (use `num_bins()` as the overflow index).
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Fraction of observations in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Lower edge of bin `i`.
    pub fn bin_lower(&self, i: usize) -> f64 {
        self.upper * i as f64 / self.num_bins() as f64
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) of the recorded sample by
    /// linear interpolation within the first bin whose cumulative count
    /// reaches `q · total`.
    ///
    /// Returns `NaN` for an empty histogram. Quantiles that land in the
    /// overflow bin return `upper` (the histogram cannot see beyond its
    /// range); `q` outside `[0, 1]` is clamped.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let bins = self.num_bins();
        let width = self.upper / bins as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c;
            if next as f64 >= target && c > 0 {
                if i == bins {
                    return self.upper; // overflow bin: values are >= upper
                }
                let within = (target - cum as f64) / c as f64;
                return self.bin_lower(i) + width * within.clamp(0.0, 1.0);
            }
            cum = next;
        }
        self.upper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_closed_form() {
        let mut s = Summary::new();
        s.record_all([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic sample is 4.0; unbiased is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        whole.record_all(xs.iter().copied());
        let mut left = Summary::new();
        left.record_all(xs[..37].iter().copied());
        let mut right = Summary::new();
        right.record_all(xs[37..].iter().copied());
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_single_sample_has_zero_variance() {
        let mut s = Summary::new();
        s.record(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn summary_merge_with_empty_is_identity_both_ways() {
        let mut filled = Summary::new();
        filled.record_all([1.0, 2.0, 3.0]);
        let snapshot = filled;
        filled.merge(&Summary::new());
        assert_eq!(filled.count(), snapshot.count());
        assert_eq!(filled.mean(), snapshot.mean());
        assert_eq!(filled.variance(), snapshot.variance());

        let mut empty = Summary::new();
        empty.merge(&snapshot);
        assert_eq!(empty.count(), 3);
        assert_eq!(empty.mean(), 2.0);
        assert_eq!(empty.min(), 1.0);
        assert_eq!(empty.max(), 3.0);
    }

    #[test]
    fn summary_empty_max_is_nan_and_std_dev_zero() {
        let s = Summary::new();
        assert!(s.max().is_nan());
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(10, 100.0);
        h.record(0.0); // bin 0
        h.record(9.99); // bin 0
        h.record(10.0); // bin 1
        h.record(99.9); // bin 9
        h.record(100.0); // overflow
        h.record(-1.0); // clamps to bin 0
        assert_eq!(h.count(0), 3);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.count(10), 1);
        assert_eq!(h.total(), 6);
        assert!((h.fraction(0) - 0.5).abs() < 1e-12);
        assert_eq!(h.bin_lower(1), 10.0);
    }

    #[test]
    fn histogram_exact_upper_bound_counts_as_overflow() {
        let mut h = Histogram::new(4, 8.0);
        h.record(8.0); // exactly the upper bound -> overflow bin
        h.record(7.999_999); // just below -> last regular bin
        assert_eq!(h.count(h.num_bins()), 1);
        assert_eq!(h.count(3), 1);
        // The bin edges cover [0, upper) exactly.
        assert_eq!(h.bin_lower(0), 0.0);
        assert_eq!(h.bin_lower(4), 8.0);
    }

    #[test]
    fn percentile_empty_is_nan() {
        let h = Histogram::new(10, 100.0);
        assert!(h.percentile(0.5).is_nan());
        assert!(h.percentile(0.0).is_nan());
        assert!(h.percentile(1.0).is_nan());
    }

    #[test]
    fn percentile_interpolates_within_bins() {
        let mut h = Histogram::new(10, 100.0);
        // 100 uniform samples at bin centers: 0.5, 1.5, ..., 99.5.
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        // Each bin holds 10 samples; the median lands mid-histogram.
        let p50 = h.percentile(0.5);
        assert!((p50 - 50.0).abs() < 10.0, "p50 was {p50}");
        let p90 = h.percentile(0.9);
        assert!((p90 - 90.0).abs() < 10.0, "p90 was {p90}");
        // Quantiles are monotone in q.
        assert!(h.percentile(0.25) <= h.percentile(0.75));
        // Out-of-range q clamps instead of panicking.
        assert!(h.percentile(-0.5) <= h.percentile(1.5));
    }

    #[test]
    fn percentile_overflow_bin_saturates_at_upper() {
        let mut h = Histogram::new(4, 8.0);
        h.record(100.0); // overflow
        h.record(200.0); // overflow
        assert_eq!(h.percentile(0.5), 8.0);
        assert_eq!(h.percentile(1.0), 8.0);
        // Mixed: one in-range sample, one overflow — p25 stays in range.
        let mut m = Histogram::new(4, 8.0);
        m.record(1.0);
        m.record(100.0);
        assert!(m.percentile(0.25) < 8.0);
        assert_eq!(m.percentile(1.0), 8.0);
    }

    #[test]
    fn percentile_single_bin_sample() {
        let mut h = Histogram::new(10, 100.0);
        h.record(35.0);
        let p = h.percentile(0.5);
        // The lone sample's bin is [30, 40).
        assert!((30.0..40.0).contains(&p), "p50 was {p}");
    }

    #[test]
    fn histogram_empty_fractions_are_zero() {
        let h = Histogram::new(3, 1.0);
        assert_eq!(h.total(), 0);
        for i in 0..=h.num_bins() {
            assert_eq!(h.fraction(i), 0.0);
        }
    }
}
