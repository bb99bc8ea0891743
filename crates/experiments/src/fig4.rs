//! Figure 4: friends vs sw-neighbors.
//!
//! Routing tables are fixed at 15 entries (2 ring links); the sweep moves
//! the remaining 13 between small-world links and friends. The paper shows
//! traffic overhead dropping sharply as friends replace sw links (88 %
//! reduction at high correlation) while propagation delay falls for
//! correlated subscriptions and rises slightly for random ones; RVR is the
//! flat reference line.

use crate::report::Figure;
use crate::runner::{plot, sweep, Job, Point};
use crate::scale::Scale;
use vitis_baselines::System;
use vitis_workloads::Correlation;

/// The friend counts swept on the x axis.
pub const FRIEND_COUNTS: [usize; 7] = [0, 2, 4, 6, 8, 10, 12];

/// The three correlation levels plotted.
pub const CORRELATIONS: [Correlation; 3] =
    [Correlation::High, Correlation::Low, Correlation::Random];

/// One Vitis configuration of the sweep.
fn vitis_job(scale: &Scale, corr: Correlation, friends: usize) -> Job {
    let mut job = Job::synthetic(
        scale,
        System::Vitis,
        corr,
        friends as f64,
        &format!("-f{friends}"),
    );
    job.params.cfg = job.params.cfg.with_friends(friends);
    job
}

/// The RVR reference, measured once.
fn rvr_job(scale: &Scale) -> Job {
    Job::synthetic(scale, System::Rvr, Correlation::Random, 0.0, "")
}

/// Run the sweep; returns the overhead and delay figures.
pub fn run(scale: &Scale) -> Vec<Figure> {
    let mut jobs = Vec::new();
    for corr in CORRELATIONS {
        jobs.extend(FRIEND_COUNTS.map(|f| vitis_job(scale, corr, f)));
    }
    jobs.push(rvr_job(scale));
    let mut points = sweep("fig4", scale, jobs);

    // RVR is friend-count independent: draw it flat across the sweep.
    let rvr = points.pop().expect("the RVR job is last");
    points.extend(FRIEND_COUNTS.map(|f| Point {
        x: f as f64,
        ..rvr.clone()
    }));

    let mut overhead = plot(
        Figure::new(
            "Figure 4(a): traffic overhead vs number of friends",
            "friends (of 15 links)",
            "overhead %",
        ),
        &points,
        |s| s.overhead_pct,
    );
    let mut delay = plot(
        Figure::new(
            "Figure 4(b): propagation delay vs number of friends",
            "friends (of 15 links)",
            "hops",
        ),
        &points,
        |s| s.mean_hops,
    );
    overhead.note(format!(
        "RVR hit ratio {:.3}; expectation: all systems ~1.0 here",
        rvr.stats.hit_ratio
    ));
    overhead.note(
        "paper: Vitis overhead falls ~88% (high corr) as friends replace sw links; \
         Vitis < 1/3 of RVR even with random subscriptions",
    );
    delay.note("paper: delay improves with friends for correlated subs, degrades for random");
    vec![overhead, delay]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline trend at smoke scale: more friends => less overhead,
    /// and Vitis at full friends beats RVR.
    // Tracking: slowest single test in the experiments crate; the trend it
    // checks is also covered by tests/end_to_end.rs (correlation_reduces_
    // vitis_overhead) on every run.
    #[test]
    #[ignore = "slow (~13 s at quick scale): three full measurement runs; run with `cargo test -- --ignored`"]
    fn overhead_falls_with_friends_and_beats_rvr() {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 45;
        sc.events = 120;
        let jobs = vec![
            vitis_job(&sc, Correlation::High, 2),
            vitis_job(&sc, Correlation::High, 12),
            rvr_job(&sc),
        ];
        let pts = sweep("fig4", &sc, jobs);
        let (lo, hi, rvr) = (&pts[0].stats, &pts[1].stats, &pts[2].stats);
        assert!(
            hi.overhead_pct < lo.overhead_pct,
            "friends should cut overhead: {} -> {}",
            lo.overhead_pct,
            hi.overhead_pct
        );
        assert!(
            hi.overhead_pct < rvr.overhead_pct / 2.0,
            "vitis {} vs rvr {}",
            hi.overhead_pct,
            rvr.overhead_pct
        );
        assert!(hi.hit_ratio > 0.9 && rvr.hit_ratio > 0.9);
    }
}
