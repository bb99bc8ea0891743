//! Quickstart: build a Vitis network, subscribe, publish, measure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vitis::prelude::*;
use vitis_sim::time::Duration;

fn main() {
    // 500 nodes, 250 topics, ~20 subscriptions each, grouped interests:
    // nodes 2k..2k+1 share a taste bucket, a common social pattern.
    let num_nodes = 500usize;
    let num_topics = 250usize;
    let subscriptions: Vec<TopicSet> = (0..num_nodes)
        .map(|i| {
            let bucket = (i / 50) as u32 * 25 % num_topics as u32;
            TopicSet::from_iter((0..20).map(|k| (bucket + k) % num_topics as u32))
        })
        .collect();

    let mut params = SystemParams::new(subscriptions, num_topics);
    params.seed = 2026;
    params.round_period = Duration(64);
    let mut sys = VitisSystem::new(params);

    println!("gossiping until the overlay converges…");
    sys.run_rounds(40);
    println!(
        "ring accuracy {:.1}%  mean degree {:.1}",
        100.0 * sys.ring_accuracy(),
        sys.mean_degree()
    );

    // Publish one event per topic, let dissemination finish.
    sys.reset_metrics();
    for t in 0..num_topics as u32 {
        sys.publish(TopicId(t));
    }
    sys.run_rounds(6);

    let s = sys.stats();
    println!("published      : {}", s.published);
    println!("hit ratio      : {:.2}%", 100.0 * s.hit_ratio);
    println!(
        "traffic overhead: {:.1}% (relay share of data messages)",
        s.overhead_pct
    );
    println!(
        "propagation    : {:.2} hops mean, {} max",
        s.mean_hops, s.max_hops
    );

    // Cluster view of one topic: how many disjoint subscriber clusters the
    // gateway/relay machinery has to stitch together.
    let clusters = sys.topic_clusters(TopicId(0));
    println!(
        "topic 0: {} subscribers in {} cluster(s), sizes {:?}",
        clusters.iter().map(|c| c.len()).sum::<usize>(),
        clusters.len(),
        clusters.iter().map(|c| c.len()).collect::<Vec<_>>()
    );

    assert!(
        s.hit_ratio > 0.99,
        "expected full delivery, got {}",
        s.hit_ratio
    );
    println!("ok: every subscriber got every event.");
}
