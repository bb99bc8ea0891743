//! Figure 5: distribution of per-node traffic overhead.
//!
//! The paper's answer to "doesn't Vitis just concentrate load on gateways
//! and rendezvous nodes?" — the per-node overhead histogram shows Vitis
//! increasing the fraction of nodes in the lowest bucket while cutting the
//! fraction above 20 % overhead to less than a third of RVR's.

use crate::report::{Figure, Series};
use crate::runner::{sweep, synthetic_params, Job, PublishPlan};
use crate::scale::Scale;
use vitis_baselines::System;
use vitis_sim::metrics::Histogram;
use vitis_workloads::Correlation;

/// Histogram bins over overhead percent.
pub const BINS: usize = 10;

/// Collect the per-node overhead distribution of one system run.
fn distribution(per_node: &[f64]) -> Vec<(f64, f64)> {
    let mut h = Histogram::new(BINS, 100.0);
    for &pct in per_node {
        h.record(pct);
    }
    // Merge the overflow bin (exactly 100 %) into the last regular bin.
    let mut points: Vec<(f64, f64)> = (0..BINS).map(|i| (h.bin_lower(i), h.fraction(i))).collect();
    if let Some(last) = points.last_mut() {
        last.1 += h.fraction(BINS);
    }
    points
}

/// Fraction of nodes whose overhead exceeds `threshold` percent.
pub fn fraction_above(per_node: &[f64], threshold: f64) -> f64 {
    if per_node.is_empty() {
        return 0.0;
    }
    per_node.iter().filter(|&&x| x > threshold).count() as f64 / per_node.len() as f64
}

/// One system on one subscription pattern.
fn job(scale: &Scale, system: System, corr: Correlation) -> Job {
    let pattern = match corr {
        Correlation::High => "correlated",
        _ => "random",
    };
    Job {
        series: format!("{} - {pattern}", system.label()),
        x: 0.0,
        system,
        params: synthetic_params(scale, corr),
        plan: PublishPlan::RoundRobin,
        label: format!("{}-{}", system.name(), corr.slug()),
    }
}

/// Run the experiment: Vitis and RVR on correlated and random
/// subscriptions, per-node distribution over nodes with at least one
/// data-plane message.
pub fn run(scale: &Scale) -> Vec<Figure> {
    let mut jobs = Vec::new();
    for system in [System::Vitis, System::Rvr] {
        for corr in [Correlation::High, Correlation::Random] {
            jobs.push(job(scale, system, corr));
        }
    }
    let points = sweep("fig5", scale, jobs);

    let mut fig = Figure::new(
        "Figure 5: distribution of per-node traffic overhead",
        "overhead bin lower edge (%)",
        "fraction of nodes",
    );
    for p in &points {
        fig.push_series(Series::new(
            p.series.clone(),
            distribution(&p.per_node_overhead),
        ));
    }
    for p in &points {
        fig.note(format!(
            "{}: {:.1}% of nodes above 20% overhead",
            p.series,
            100.0 * fraction_above(&p.per_node_overhead, 20.0)
        ));
    }
    fig.note(
        "paper: Vitis grows the <=10% bucket and cuts nodes above 20% overhead to \
         less than a third of RVR's",
    );
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_is_normalized() {
        let d = distribution(&[0.0, 5.0, 15.0, 99.9, 100.0]);
        let total: f64 = d.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(d.len(), BINS);
        assert_eq!(d[0].0, 0.0);
    }

    #[test]
    fn fraction_above_counts_strictly() {
        assert_eq!(fraction_above(&[10.0, 20.0, 30.0, 40.0], 20.0), 0.5);
        assert_eq!(fraction_above(&[], 20.0), 0.0);
    }

    /// At smoke scale: fewer Vitis nodes carry heavy relay load than RVR
    /// nodes on correlated subscriptions.
    #[test]
    fn vitis_has_fewer_overloaded_nodes() {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 45;
        sc.events = 120;
        let jobs = vec![
            job(&sc, System::Vitis, Correlation::High),
            job(&sc, System::Rvr, Correlation::High),
        ];
        let pts = sweep("fig5", &sc, jobs);
        let fv = fraction_above(&pts[0].per_node_overhead, 20.0);
        let fr = fraction_above(&pts[1].per_node_overhead, 20.0);
        assert!(fv < fr, "vitis {fv} vs rvr {fr} above 20% overhead");
    }
}
