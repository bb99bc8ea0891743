//! Synthetic subscription patterns (Section IV-A of the paper, after the
//! preference-clustering model of Wong et al.).
//!
//! All three patterns give every node the same number of subscriptions and
//! every topic a uniform expected popularity; they differ only in how much
//! the subscription sets of different nodes *correlate*:
//!
//! * **Random** — each node picks `subs_per_node` topics uniformly from all
//!   `num_topics`.
//! * **Low correlation** — topics are grouped into `num_buckets` buckets;
//!   each node picks 5 buckets and draws `subs_per_node / 5` topics from
//!   each.
//! * **High correlation** — each node picks 2 buckets and draws
//!   `subs_per_node / 2` topics from each.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use vitis_sim::rng::{domain, stream_rng};

/// The interest-correlation level of a synthetic subscription pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Correlation {
    /// Uniform random topic choice.
    Random,
    /// 5 buckets per node (the paper's "low correlation").
    Low,
    /// 2 buckets per node (the paper's "high correlation").
    High,
}

impl Correlation {
    /// Number of buckets a node draws from, or `None` for fully random.
    pub fn buckets_per_node(self) -> Option<usize> {
        match self {
            Correlation::Random => None,
            Correlation::Low => Some(5),
            Correlation::High => Some(2),
        }
    }

    /// Display label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Correlation::Random => "random",
            Correlation::Low => "low correlation",
            Correlation::High => "high correlation",
        }
    }

    /// Single-word label, safe for identifiers such as run ids.
    pub fn slug(self) -> &'static str {
        match self {
            Correlation::Random => "random",
            Correlation::Low => "low",
            Correlation::High => "high",
        }
    }
}

/// Parameters of the synthetic subscription generator. Paper defaults:
/// 10 000 nodes, 5000 topics, 100 buckets, 50 subscriptions per node.
#[derive(Clone, Copy, Debug)]
pub struct SubscriptionModel {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of topics.
    pub num_topics: usize,
    /// Number of topic buckets for the correlated patterns.
    pub num_buckets: usize,
    /// Subscriptions per node.
    pub subs_per_node: usize,
    /// Correlation level.
    pub correlation: Correlation,
}

impl SubscriptionModel {
    /// The paper's default setting scaled to `num_nodes` nodes, keeping the
    /// topics-per-node and topic/bucket ratios of the original (5000 topics
    /// and 100 buckets at 10 000 nodes).
    pub fn paper_scaled(num_nodes: usize, correlation: Correlation) -> Self {
        let num_topics = (num_nodes / 2).max(20);
        let num_buckets = (num_topics / 50).max(4);
        SubscriptionModel {
            num_nodes,
            num_topics,
            num_buckets,
            subs_per_node: 50.min(num_topics / 2).max(2),
            correlation,
        }
    }

    /// Generate one subscription set per node. Deterministic in `seed`.
    ///
    /// Each set is returned as a sorted de-duplicated topic-id list; sets
    /// may be slightly smaller than `subs_per_node` when duplicates are
    /// drawn (matching how such generators are typically implemented).
    pub fn generate(&self, seed: u64) -> Vec<Vec<u32>> {
        assert!(self.num_topics >= 1 && self.num_nodes >= 1);
        let mut rng = stream_rng(seed, domain::WORKLOAD, 0xBEEF);
        match self.correlation.buckets_per_node() {
            None => self.generate_random(&mut rng),
            Some(k) => self.generate_bucketed(k, &mut rng),
        }
    }

    fn generate_random(&self, rng: &mut SmallRng) -> Vec<Vec<u32>> {
        (0..self.num_nodes)
            .map(|_| {
                let mut v: Vec<u32> = (0..self.subs_per_node)
                    .map(|_| rng.gen_range(0..self.num_topics as u32))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect()
    }

    fn generate_bucketed(&self, buckets_per_node: usize, rng: &mut SmallRng) -> Vec<Vec<u32>> {
        let nb = self.num_buckets.min(self.num_topics).max(1);
        // A node cannot draw from more buckets than it has subscriptions
        // (or than exist): clamp so the subscription-count bound holds even
        // for degenerate sizings.
        let buckets_per_node = buckets_per_node.clamp(1, self.subs_per_node.max(1)).min(nb);
        let per_bucket = self.subs_per_node / buckets_per_node;
        // Topics are striped over buckets: topic t belongs to bucket t % nb.
        let bucket_topics: Vec<Vec<u32>> = (0..nb)
            .map(|b| {
                (0..self.num_topics as u32)
                    .filter(|t| (*t as usize) % nb == b)
                    .collect()
            })
            .collect();
        let mut all_buckets: Vec<usize> = (0..nb).collect();
        (0..self.num_nodes)
            .map(|_| {
                all_buckets.shuffle(rng);
                let mut v = Vec::with_capacity(self.subs_per_node);
                for &b in all_buckets.iter().take(buckets_per_node) {
                    let topics = &bucket_topics[b];
                    for _ in 0..per_bucket.max(1) {
                        v.push(topics[rng.gen_range(0..topics.len())]);
                    }
                }
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect()
    }
}

/// Pairwise Jaccard similarities over a random sample of node pairs.
///
/// Note that with uniform topic popularity the *mean* similarity is nearly
/// identical across the three patterns (the expected intersection is fixed
/// by the subscription count); correlation shows up in the upper tail —
/// correlated patterns produce many zero-overlap pairs and a fat tail of
/// strongly overlapping ones, which is exactly what Equation 1's friend
/// selection exploits.
pub fn jaccard_samples(subs: &[Vec<u32>], sample_pairs: usize, seed: u64) -> Vec<f64> {
    if subs.len() < 2 || sample_pairs == 0 {
        return Vec::new();
    }
    let mut rng = stream_rng(seed, domain::WORKLOAD, 0x3ACA);
    let mut out = Vec::with_capacity(sample_pairs);
    for _ in 0..sample_pairs {
        let i = rng.gen_range(0..subs.len());
        let mut j = rng.gen_range(0..subs.len());
        while j == i {
            j = rng.gen_range(0..subs.len());
        }
        out.push(jaccard(&subs[i], &subs[j]));
    }
    out
}

fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(corr: Correlation) -> SubscriptionModel {
        // Paper-proportioned: 50 topics per bucket, so the high-correlation
        // pattern's 25 draws per bucket do not saturate a bucket.
        SubscriptionModel {
            num_nodes: 400,
            num_topics: 500,
            num_buckets: 10,
            subs_per_node: 50,
            correlation: corr,
        }
    }

    #[test]
    fn sizes_are_close_to_target() {
        for corr in [Correlation::Random, Correlation::Low, Correlation::High] {
            let subs = model(corr).generate(1);
            assert_eq!(subs.len(), 400);
            for s in &subs {
                assert!(s.len() <= 50);
                assert!(s.len() >= 30, "{corr:?}: only {} topics", s.len());
                assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
                assert!(s.iter().all(|&t| t < 500));
            }
        }
    }

    #[test]
    fn correlation_shows_in_the_upper_tail() {
        let p95 = |c: Correlation| {
            let xs = jaccard_samples(&model(c).generate(2), 4000, 9);
            vitis_sim::stats::percentile(&xs, 95.0)
        };
        let r = p95(Correlation::Random);
        let lo = p95(Correlation::Low);
        let hi = p95(Correlation::High);
        assert!(
            hi > lo && lo > r,
            "expected p95: hi > lo > random, got {hi} {lo} {r}"
        );
        assert!(
            hi > 1.5 * r,
            "high correlation should be strong: {hi} vs {r}"
        );
    }

    #[test]
    fn correlated_patterns_have_many_disjoint_pairs() {
        let frac_zero = |c: Correlation| {
            let xs = jaccard_samples(&model(c).generate(2), 4000, 9);
            xs.iter().filter(|&&x| x == 0.0).count() as f64 / xs.len() as f64
        };
        assert!(frac_zero(Correlation::High) > 0.3);
        assert!(frac_zero(Correlation::Random) < 0.1);
    }

    #[test]
    fn topic_popularity_stays_roughly_uniform() {
        // "In all the above subscription patterns, the average topic
        // popularity is uniform."
        for corr in [Correlation::Random, Correlation::High] {
            let subs = model(corr).generate(3);
            let mut pop = vec![0u32; 500];
            for s in &subs {
                for &t in s {
                    pop[t as usize] += 1;
                }
            }
            let mean = pop.iter().sum::<u32>() as f64 / 500.0;
            let loaded = pop.iter().filter(|&&p| p as f64 > 5.0 * mean).count();
            assert!(
                loaded < 10,
                "{corr:?}: {loaded} topics are >5x mean popularity"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = model(Correlation::High).generate(7);
        let b = model(Correlation::High).generate(7);
        let c = model(Correlation::High).generate(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_scaled_defaults() {
        let m = SubscriptionModel::paper_scaled(10_000, Correlation::Low);
        assert_eq!(m.num_topics, 5000);
        assert_eq!(m.num_buckets, 100);
        assert_eq!(m.subs_per_node, 50);
        let small = SubscriptionModel::paper_scaled(100, Correlation::Low);
        assert!(small.num_topics >= 20);
        assert!(small.subs_per_node >= 2);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 0.0);
    }
}
