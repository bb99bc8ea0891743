//! Figure 6: routing-table size sweep (15–35).
//!
//! Larger tables help both systems but for different reasons: RVR gets more
//! small-world links (shorter rendezvous routes, leaner trees); Vitis keeps
//! its sw-link count fixed and turns every extra slot into a friend link
//! (better clustering, fewer relay paths). The paper notes Vitis's delay
//! with random subscriptions overtaking RVR's beyond ~30 entries.

use crate::fig4::CORRELATIONS;
use crate::report::Figure;
use crate::runner::{plot, sweep, Job};
use crate::scale::Scale;
use vitis_baselines::System;
use vitis_workloads::Correlation;

/// Routing-table sizes swept.
pub const RT_SIZES: [usize; 5] = [15, 20, 25, 30, 35];

/// One system at one table size. Vitis keeps `k_sw` at 1, so every extra
/// slot becomes a friend; RVR ignores `k_sw` and fills every slot beyond
/// the ring with sw links.
fn job(scale: &Scale, system: System, corr: Correlation, rt_size: usize) -> Job {
    let mut job = Job::synthetic(
        scale,
        system,
        corr,
        rt_size as f64,
        &format!("-rt{rt_size}"),
    );
    job.params.cfg.rt_size = rt_size;
    job.params.cfg.k_sw = 1;
    job
}

/// Run the sweep; returns the overhead and delay figures.
pub fn run(scale: &Scale) -> Vec<Figure> {
    let mut jobs = Vec::new();
    for corr in CORRELATIONS {
        jobs.extend(RT_SIZES.map(|rt| job(scale, System::Vitis, corr, rt)));
    }
    jobs.extend(RT_SIZES.map(|rt| job(scale, System::Rvr, Correlation::Random, rt)));
    let points = sweep("fig6", scale, jobs);

    let mut overhead = plot(
        Figure::new(
            "Figure 6(a): traffic overhead vs routing table size",
            "routing table size",
            "overhead %",
        ),
        &points,
        |s| s.overhead_pct,
    );
    let mut delay = plot(
        Figure::new(
            "Figure 6(b): propagation delay vs routing table size",
            "routing table size",
            "hops",
        ),
        &points,
        |s| s.mean_hops,
    );
    overhead.note("paper: both systems improve with bigger tables; Vitis stays well below RVR");
    delay.note("paper: Vitis (random subs) overtakes RVR beyond ~30 entries");
    vec![overhead, delay]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_tables_reduce_vitis_overhead() {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 45;
        sc.events = 120;
        let jobs = [15, 35].map(|rt| job(&sc, System::Vitis, Correlation::Low, rt));
        let pts = sweep("fig6", &sc, jobs);
        let (small, big) = (&pts[0].stats, &pts[1].stats);
        assert!(
            big.overhead_pct <= small.overhead_pct + 2.0,
            "rt 35 {} should not exceed rt 15 {}",
            big.overhead_pct,
            small.overhead_pct
        );
        assert!(big.hit_ratio > 0.9);
    }

    #[test]
    fn rvr_delay_improves_with_more_sw_links() {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 45;
        sc.events = 120;
        let jobs = [15, 35].map(|rt| job(&sc, System::Rvr, Correlation::Random, rt));
        let pts = sweep("fig6", &sc, jobs);
        let (small, big) = (&pts[0].stats, &pts[1].stats);
        assert!(
            big.mean_hops < small.mean_hops + 0.5,
            "more sw links should not slow RVR: {} vs {}",
            big.mean_hops,
            small.mean_hops
        );
    }
}
