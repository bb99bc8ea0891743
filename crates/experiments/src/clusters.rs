//! Supplementary diagnostic: cluster structure per topic.
//!
//! The paper's Figures 1–2 are conceptual sketches of the mechanism —
//! biased neighbor selection groups subscribers into a few clusters per
//! topic; gateways and relay paths stitch them together. This experiment
//! makes those sketches measurable: clusters per topic, cluster sizes,
//! gateways per topic and relay-path footprint, across correlation levels.

use crate::fig4::CORRELATIONS;
use crate::obs::Obs;
use crate::report::Figure;
use crate::runner::synthetic_params;
use crate::scale::Scale;
use vitis::system::{PubSub, VitisSystem};
use vitis::topic::TopicId;
use vitis_sim::metrics::Summary;
use vitis_workloads::Correlation;

/// Aggregated cluster-structure diagnostics for one configuration.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Mean clusters per topic (lower = better grouping).
    pub mean_clusters: f64,
    /// Mean size of the largest cluster per topic.
    pub mean_largest: f64,
    /// Mean gateways per topic.
    pub mean_gateways: f64,
    /// Mean relay-state holders (relay nodes) per topic.
    pub mean_relay_holders: f64,
    /// Fraction of topics with a single cluster.
    pub single_cluster_frac: f64,
}

/// Measure cluster structure after convergence at a correlation level.
pub fn cluster_stats(scale: &Scale, corr: Correlation) -> ClusterStats {
    let index = CORRELATIONS.iter().position(|&c| c == corr).unwrap_or(0);
    let mut ctx = Obs::global().start("clusters", corr.slug(), index);
    let mut sys = VitisSystem::new(synthetic_params(scale, corr));
    ctx.phase("build");
    ctx.install_trace(&mut sys);
    sys.run_rounds(scale.warmup_rounds);
    ctx.phase("warmup");
    ctx.sample(scale.warmup_rounds, &sys);
    ctx.finish(scale, &sys);
    let mut clusters = Summary::new();
    let mut largest = Summary::new();
    let mut gateways = Summary::new();
    let mut relays = Summary::new();
    let mut single = 0usize;
    let mut counted = 0usize;
    let probe_topics = scale.topics.min(200);
    for t in 0..probe_topics as u32 {
        let topic = TopicId(t);
        let comps = sys.topic_clusters(topic);
        if comps.is_empty() {
            continue;
        }
        counted += 1;
        clusters.record(comps.len() as f64);
        largest.record(comps.iter().map(|c| c.len()).max().unwrap_or(0) as f64);
        if comps.len() == 1 {
            single += 1;
        }
        let gws = sys
            .engine()
            .alive_nodes()
            .filter(|(_, n)| n.is_gateway(topic))
            .count();
        gateways.record(gws as f64);
        let rel = sys
            .engine()
            .alive_nodes()
            .filter(|(_, n)| n.relay_table().has(topic) && !n.subscriptions().contains(topic))
            .count();
        relays.record(rel as f64);
    }
    ClusterStats {
        mean_clusters: clusters.mean(),
        mean_largest: largest.mean(),
        mean_gateways: gateways.mean(),
        mean_relay_holders: relays.mean(),
        single_cluster_frac: if counted == 0 {
            0.0
        } else {
            single as f64 / counted as f64
        },
    }
}

/// Run the diagnostic over the three correlation levels.
pub fn run(scale: &Scale) -> Figure {
    let mut fig = Figure::new(
        "Cluster structure per topic (diagnostic for Figures 1-2)",
        "-",
        "-",
    );
    for corr in CORRELATIONS {
        let s = cluster_stats(scale, corr);
        fig.note(format!(
            "{}: clusters/topic {:.2} (largest {:.1} nodes, {:.0}% single-cluster), \
             gateways/topic {:.2}, relay nodes/topic {:.2}",
            corr.label(),
            s.mean_clusters,
            s.mean_largest,
            100.0 * s.single_cluster_frac,
            s.mean_gateways,
            s.mean_relay_holders,
        ));
    }
    fig.note("expectation: higher correlation => fewer, larger clusters and fewer relay nodes");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clustering mechanism itself: correlated subscriptions produce
    /// fewer clusters per topic than random ones.
    #[test]
    fn correlation_consolidates_clusters() {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 45;
        let hi = cluster_stats(&sc, Correlation::High);
        let rnd = cluster_stats(&sc, Correlation::Random);
        assert!(
            hi.mean_clusters < rnd.mean_clusters,
            "high {} vs random {}",
            hi.mean_clusters,
            rnd.mean_clusters
        );
        assert!(hi.mean_gateways >= 1.0);
        assert!(hi.single_cluster_frac > rnd.single_cluster_frac);
    }
}
