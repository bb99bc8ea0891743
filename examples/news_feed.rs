//! News feed: a Twitter-like workload on Vitis.
//!
//! Every user is both a publisher (its timeline is a topic) and a
//! subscriber (it follows other users). The follow graph is a synthetic
//! power-law graph with the same statistical profile the paper reports for
//! its Twitter trace (α ≈ 1.65), BFS-sampled exactly as Section IV-E
//! describes.
//!
//! ```text
//! cargo run --release --example news_feed
//! ```

use vitis::prelude::*;
use vitis_workloads::{FollowGraph, TwitterModel};

fn main() {
    // Generate a 6000-user synthetic follow graph and BFS-sample 1200.
    let model = TwitterModel {
        num_users: 6000,
        alpha: 1.65,
        max_out_degree: 1000,
    };
    let full = FollowGraph::generate(&model, 7);
    let sample = full.bfs_sample(1200, 8);
    let stats = sample.stats();
    println!(
        "follow graph: {} users, {} follows, mean {:.1} followees/user, max audience {}",
        stats.num_users, stats.num_edges, stats.mean_out_degree, stats.max_in_degree
    );

    // Topics are user ids: following user u = subscribing to topic u.
    // Every author also sees its own timeline, which keeps the publisher
    // inside its topic's cluster.
    let n = sample.len();
    let subs: Vec<TopicSet> = sample
        .follows
        .iter()
        .enumerate()
        .map(|(u, f)| TopicSet::from_iter(f.iter().copied().chain([u as u32])))
        .collect();
    let mut params = SystemParams::new(subs, n);
    params.seed = 99;
    let mut sys = VitisSystem::new(params);

    println!("converging the overlay…");
    sys.run_rounds(50);

    // A tweet wave: the 300 most-followed users each post once.
    let mut by_audience: Vec<(usize, u64)> = sample.in_degrees().into_iter().enumerate().collect();
    by_audience.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
    sys.reset_metrics();
    let mut posted = 0;
    for &(user, audience) in &by_audience {
        if audience == 0 {
            break;
        }
        // The author itself publishes on its own timeline topic.
        if sys
            .publish_from(user as u32, TopicId(user as u32))
            .is_some()
        {
            posted += 1;
        }
        if posted == 300 {
            break;
        }
    }
    sys.run_rounds(8);

    let s = sys.stats();
    println!("tweets posted   : {posted}");
    println!(
        "deliveries      : {}/{} ({:.2}%)",
        s.delivered,
        s.expected,
        100.0 * s.hit_ratio
    );
    println!("traffic overhead: {:.1}%", s.overhead_pct);
    println!("propagation     : {:.2} hops mean", s.mean_hops);
    assert!(s.hit_ratio > 0.95, "hit ratio {}", s.hit_ratio);
    println!("ok: feeds delivered with a bounded degree of 15 links/user.");
}
