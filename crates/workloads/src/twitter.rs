//! A synthetic Twitter-like follow graph (the paper's Section IV-E trace).
//!
//! **Substitution note** (see DESIGN.md §3): the WOSN'10 Twitter dataset
//! used by the paper is not available offline. The paper relies on exactly
//! three of its properties: every user is both a subscriber (it follows)
//! and a topic (it is followed); in- and out-degrees follow a power law
//! with α ≈ 1.65; and the evaluation runs on a ~10 000-node BFS sample.
//! This module generates a directed graph with those properties and
//! re-implements the BFS sampling procedure the paper describes.
//!
//! Generation: each user draws an out-degree from a bounded Zipf(α) and an
//! *attractiveness* weight from the same family; follow targets are drawn
//! proportionally to attractiveness, which yields a power-law in-degree
//! with the same exponent family.

use rand::Rng;
use std::collections::HashSet;
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::stats::{powerlaw_mle, Zipf};

/// Parameters of the synthetic follow-graph generator.
#[derive(Clone, Copy, Debug)]
pub struct TwitterModel {
    /// Users in the full synthetic graph (the paper's full log has ~2.4 M;
    /// anything ≳ 5× the sample size works).
    pub num_users: usize,
    /// Power-law exponent for degrees (paper estimate: 1.65).
    pub alpha: f64,
    /// Upper bound on a user's out-degree (keeps generation linear).
    pub max_out_degree: usize,
}

impl Default for TwitterModel {
    fn default() -> Self {
        TwitterModel {
            num_users: 60_000,
            alpha: 1.65,
            max_out_degree: 2_000,
        }
    }
}

/// A directed follow graph: `follows[u]` lists the users `u` follows
/// (sorted). Subscriptions and topics share the node index space.
#[derive(Clone, Debug)]
pub struct FollowGraph {
    /// Per-user sorted followee lists.
    pub follows: Vec<Vec<u32>>,
}

/// Summary statistics of a follow graph (regenerates the paper's Figure 9
/// table for our synthetic trace).
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Number of users (= number of topics).
    pub num_users: usize,
    /// Number of follow relations (edges).
    pub num_edges: usize,
    /// Mean out-degree (subscriptions per node).
    pub mean_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: u64,
    /// Maximum in-degree (largest audience).
    pub max_in_degree: u64,
    /// Fraction of users following nobody.
    pub frac_no_followees: f64,
    /// Fraction of users with no followers.
    pub frac_no_followers: f64,
    /// MLE power-law exponent of the out-degree distribution (x ≥ 5).
    pub alpha_out: Option<f64>,
    /// MLE power-law exponent of the in-degree distribution (x ≥ 5).
    pub alpha_in: Option<f64>,
}

impl FollowGraph {
    /// Generate the full synthetic graph. Deterministic in `seed`.
    pub fn generate(model: &TwitterModel, seed: u64) -> FollowGraph {
        let n = model.num_users;
        assert!(n >= 2, "need at least two users");
        let mut rng = stream_rng(seed, domain::WORKLOAD, 0x7117);
        let out_deg_dist = Zipf::new(model.max_out_degree.min(n - 1) as u64, model.alpha);
        // Attractiveness weights: heavy-tailed so the in-degree inherits the
        // power law. Drawn from the same Zipf family.
        let attr_dist = Zipf::new((n as u64).min(100_000), model.alpha);
        let weights: Vec<f64> = (0..n).map(|_| attr_dist.sample(&mut rng) as f64).collect();
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cum.push(acc);
        }
        let total = acc;
        let mut follows = Vec::with_capacity(n);
        let mut chosen: HashSet<u32> = HashSet::new();
        for u in 0..n {
            let d = out_deg_dist.sample(&mut rng) as usize;
            chosen.clear();
            // Rejection-sample distinct targets ∝ attractiveness; cap the
            // attempts so pathological draws cannot loop forever.
            let mut attempts = 0;
            while chosen.len() < d && attempts < d * 20 {
                attempts += 1;
                let x = rng.gen::<f64>() * total;
                let v = cum.partition_point(|&c| c <= x).min(n - 1) as u32;
                if v as usize != u {
                    chosen.insert(v);
                }
            }
            let mut list: Vec<u32> = chosen.iter().copied().collect();
            list.sort_unstable();
            follows.push(list);
        }
        FollowGraph { follows }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.follows.len()
    }

    /// Whether the graph has no users.
    pub fn is_empty(&self) -> bool {
        self.follows.is_empty()
    }

    /// Out-degrees of all users.
    pub fn out_degrees(&self) -> Vec<u64> {
        self.follows.iter().map(|f| f.len() as u64).collect()
    }

    /// In-degrees of all users.
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.len()];
        for f in &self.follows {
            for &v in f {
                d[v as usize] += 1;
            }
        }
        d
    }

    /// Summary statistics (our Figure 9).
    pub fn stats(&self) -> TraceStats {
        let out = self.out_degrees();
        let inn = self.in_degrees();
        let num_edges: u64 = out.iter().sum();
        TraceStats {
            num_users: self.len(),
            num_edges: num_edges as usize,
            mean_out_degree: if self.is_empty() {
                0.0
            } else {
                num_edges as f64 / self.len() as f64
            },
            max_out_degree: out.iter().copied().max().unwrap_or(0),
            max_in_degree: inn.iter().copied().max().unwrap_or(0),
            frac_no_followees: frac_zero(&out),
            frac_no_followers: frac_zero(&inn),
            alpha_out: powerlaw_mle(&out, 5),
            alpha_in: powerlaw_mle(&inn, 5),
        }
    }

    /// The paper's sampling procedure: multiple BFS passes from random
    /// seeds, following *followee* edges, until ~`target` users are
    /// collected; then the induced subgraph (subscriptions to users outside
    /// the sample are dropped and ids are re-indexed densely).
    pub fn bfs_sample(&self, target: usize, seed: u64) -> FollowGraph {
        let n = self.len();
        let target = target.min(n);
        let mut rng = stream_rng(seed, domain::WORKLOAD, 0xBF5);
        let mut in_sample = vec![false; n];
        let mut sample: Vec<u32> = Vec::with_capacity(target);
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        while sample.len() < target {
            if queue.is_empty() {
                // Start (or restart) from a fresh random seed user; fall
                // back to a scan when random probing keeps hitting already
                // sampled users (relevant when the sample nears the graph).
                let mut s = rng.gen_range(0..n as u32);
                let mut guard = 0;
                while in_sample[s as usize] && guard < 100 {
                    s = rng.gen_range(0..n as u32);
                    guard += 1;
                }
                if in_sample[s as usize] {
                    match (0..n as u32).find(|&v| !in_sample[v as usize]) {
                        Some(v) => s = v,
                        None => break,
                    }
                }
                in_sample[s as usize] = true;
                sample.push(s);
                queue.push_back(s);
                continue;
            }
            let u = queue.pop_front().expect("checked non-empty");
            for &v in &self.follows[u as usize] {
                if sample.len() >= target {
                    break;
                }
                if !in_sample[v as usize] {
                    in_sample[v as usize] = true;
                    sample.push(v);
                    queue.push_back(v);
                }
            }
        }
        // Re-index densely and keep only intra-sample follows.
        let mut new_id = vec![u32::MAX; n];
        for (i, &u) in sample.iter().enumerate() {
            new_id[u as usize] = i as u32;
        }
        let follows = sample
            .iter()
            .map(|&u| {
                let mut f: Vec<u32> = self.follows[u as usize]
                    .iter()
                    .filter_map(|&v| {
                        let nv = new_id[v as usize];
                        (nv != u32::MAX).then_some(nv)
                    })
                    .collect();
                f.sort_unstable();
                f
            })
            .collect();
        FollowGraph { follows }
    }
}

fn frac_zero(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x == 0).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> TwitterModel {
        TwitterModel {
            num_users: 4000,
            alpha: 1.65,
            max_out_degree: 500,
        }
    }

    #[test]
    fn generation_is_deterministic_and_self_loop_free() {
        let m = small_model();
        let a = FollowGraph::generate(&m, 1);
        let b = FollowGraph::generate(&m, 1);
        assert_eq!(a.follows, b.follows);
        for (u, f) in a.follows.iter().enumerate() {
            assert!(!f.contains(&(u as u32)), "self-follow at {u}");
            assert!(f.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }

    #[test]
    fn follow_degrees_are_heavy_tailed_with_target_alpha() {
        let g = FollowGraph::generate(&small_model(), 2);
        let s = g.stats();
        assert_eq!(s.num_users, 4000);
        assert!(
            s.max_out_degree > 20,
            "out tail too light: {}",
            s.max_out_degree
        );
        assert!(
            s.max_in_degree > 20,
            "in tail too light: {}",
            s.max_in_degree
        );
        let a_out = s.alpha_out.expect("enough data");
        assert!(
            (a_out - 1.65).abs() < 0.35,
            "out-degree alpha {a_out}, want ≈1.65"
        );
        let a_in = s.alpha_in.expect("enough data");
        assert!((a_in - 1.65).abs() < 0.6, "in-degree alpha {a_in}");
    }

    #[test]
    fn bfs_sample_has_requested_size_and_valid_edges() {
        let g = FollowGraph::generate(&small_model(), 3);
        let s = g.bfs_sample(800, 4);
        assert_eq!(s.len(), 800);
        for f in &s.follows {
            assert!(f.iter().all(|&v| (v as usize) < 800));
        }
        // The sample keeps a meaningful number of intra-sample edges.
        let edges: u64 = s.out_degrees().iter().sum();
        assert!(edges > 400, "sample too sparse: {edges} edges");
    }

    #[test]
    fn bfs_sample_preserves_degree_shape() {
        // "We took several samples and the similarity of in-degree and
        // out-degree distribution of the samples and that of the full log
        // was confirmed."
        let g = FollowGraph::generate(
            &TwitterModel {
                num_users: 12_000,
                ..small_model()
            },
            5,
        );
        let s = g.bfs_sample(3000, 6);
        let alpha_sample = powerlaw_mle(&s.in_degrees(), 5);
        assert!(alpha_sample.is_some());
        let a = alpha_sample.unwrap();
        assert!((1.2..2.6).contains(&a), "sample in-degree alpha {a}");
    }

    #[test]
    fn sample_larger_than_graph_is_whole_graph() {
        let g = FollowGraph::generate(
            &TwitterModel {
                num_users: 100,
                alpha: 1.65,
                max_out_degree: 20,
            },
            7,
        );
        let s = g.bfs_sample(1000, 8);
        assert_eq!(s.len(), 100);
    }
}
