//! Figure 7: publication-rate skew sweep (α from 0.3 to 3).
//!
//! Per-topic event rates follow a power law with exponent α; Equation 1
//! weights subscription overlap by rate, so as α grows Vitis re-clusters
//! around the hot topics and the random-subscription curves approach the
//! correlated ones. Events are drawn rate-weighted, as the rates define
//! the actual workload.

use crate::fig4::CORRELATIONS;
use crate::report::Figure;
use crate::runner::{plot, sweep, Job, PublishPlan};
use crate::scale::Scale;
use vitis::topic::RateTable;
use vitis_baselines::System;
use vitis_workloads::{powerlaw_rates, Correlation};

/// The α values swept (log-scaled axis in the paper).
pub const ALPHAS: [f64; 6] = [0.3, 0.5, 1.0, 1.5, 2.0, 3.0];

/// One system under rate skew α. RVR is subscription-oblivious, so rates
/// only change which topics carry its events.
fn job(scale: &Scale, system: System, corr: Correlation, alpha: f64) -> Job {
    let mut job = Job::synthetic(scale, system, corr, alpha, &format!("-a{alpha}"));
    job.params.rates = RateTable::from_rates(powerlaw_rates(scale.topics, alpha, scale.seed));
    job.plan = PublishPlan::RateWeighted;
    job
}

/// Run the sweep; returns the overhead and delay figures.
pub fn run(scale: &Scale) -> Vec<Figure> {
    let mut jobs = Vec::new();
    for corr in CORRELATIONS {
        jobs.extend(ALPHAS.map(|a| job(scale, System::Vitis, corr, a)));
    }
    jobs.extend(ALPHAS.map(|a| job(scale, System::Rvr, Correlation::Random, a)));
    let points = sweep("fig7", scale, jobs);

    let mut overhead = plot(
        Figure::new(
            "Figure 7(a): traffic overhead vs publication-rate skew alpha",
            "alpha",
            "overhead %",
        ),
        &points,
        |s| s.overhead_pct,
    );
    let delay = plot(
        Figure::new(
            "Figure 7(b): propagation delay vs publication-rate skew alpha",
            "alpha",
            "hops",
        ),
        &points,
        |s| s.mean_hops,
    );
    overhead.note(
        "paper: as alpha grows, the random-subscription curve approaches the \
         high-correlation one (rate weighting re-clusters around hot topics)",
    );
    vec![overhead, delay]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rate skew narrows the random-vs-correlated overhead gap.
    #[test]
    fn skew_helps_random_subscriptions() {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 45;
        sc.events = 120;
        let jobs = [0.3, 3.0].map(|a| job(&sc, System::Vitis, Correlation::Random, a));
        let pts = sweep("fig7", &sc, jobs);
        let (flat, skewed) = (&pts[0].stats, &pts[1].stats);
        assert!(
            skewed.overhead_pct < flat.overhead_pct + 1.0,
            "alpha 3 overhead {} should not exceed alpha 0.3 {}",
            skewed.overhead_pct,
            flat.overhead_pct
        );
        assert!(flat.hit_ratio > 0.85 && skewed.hit_ratio > 0.85);
    }
}
