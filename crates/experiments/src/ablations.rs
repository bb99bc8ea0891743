//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * **A1 — gateway election** (Algorithm 5): with election off, every
//!   subscriber builds its own relay path (Scribe-style inside Vitis);
//!   relay traffic should rise substantially.
//! * **A2 — Equation 1 friend selection**: with utility ranking off,
//!   friends are random peers; clustering collapses and relay traffic
//!   rises toward RVR levels.
//! * **A3 — small-world link count**: Symphony's routing cost is
//!   `O(log²N / k)`; more sw links cut lookup (and thus inter-cluster)
//!   delay at the price of fewer friend slots.

use crate::report::{Figure, Series};
use crate::runner::{plot, sweep, Job, Point};
use crate::scale::Scale;
use vitis::config::VitisConfig;
use vitis_baselines::System;
use vitis_workloads::Correlation;

/// The on (x = 1) and off (x = 0) jobs of a boolean config knob, on
/// high-correlation subscriptions; run labels `<knob>-true|false`.
fn on_off(scale: &Scale, knob: &str, set: fn(&mut VitisConfig, bool)) -> [Job; 2] {
    [true, false].map(|on| {
        let mut job = Job::synthetic(
            scale,
            System::Vitis,
            Correlation::High,
            on as u64 as f64,
            "",
        );
        set(&mut job.params.cfg, on);
        job.label = format!("{knob}-{on}");
        job
    })
}

/// A1: gateway election.
fn gateway_jobs(scale: &Scale) -> [Job; 2] {
    on_off(scale, "gateway", |c, on| c.gateway_election = on)
}

/// A2: Equation 1 utility ranking (off: random friends).
fn utility_jobs(scale: &Scale) -> [Job; 2] {
    on_off(scale, "utility", |c, on| c.utility_selection = on)
}

/// A3: `k` small-world links (table size fixed at 15), random
/// subscriptions.
fn sw_job(scale: &Scale, k: usize) -> Job {
    let mut job = Job::synthetic(scale, System::Vitis, Correlation::Random, k as f64, "");
    job.params.cfg.k_sw = k;
    job.series = "Vitis delay".to_string();
    job.label = format!("sw{k}");
    job
}

/// An on/off ablation: the overhead curve plus one note per setting.
fn toggle_figure(fig: Figure, knob: &str, points: &[Point], expectation: &str) -> Figure {
    let mut fig = plot(fig, points, |s| s.overhead_pct);
    for p in points {
        fig.note(format!(
            "{knob}={}: overhead {:.1}% delay {:.2} hops hit {:.3}",
            p.x == 1.0,
            p.stats.overhead_pct,
            p.stats.mean_hops,
            p.stats.hit_ratio
        ));
    }
    fig.note(expectation);
    fig
}

/// Run the three ablations as one sweep; returns the A1, A2 and A3
/// figures.
pub fn run(scale: &Scale) -> Vec<Figure> {
    let mut jobs = Vec::new();
    jobs.extend(gateway_jobs(scale));
    jobs.extend(utility_jobs(scale));
    jobs.extend([1, 2, 4, 8].map(|k| sw_job(scale, k)));
    let points = sweep("ablations", scale, jobs);
    let (gateway, rest) = points.split_at(2);
    let (utility, sw) = rest.split_at(2);

    let a1 = toggle_figure(
        Figure::new(
            "Ablation A1: gateway election (Algorithm 5)",
            "election enabled (0/1)",
            "overhead %",
        ),
        "election",
        gateway,
        "expectation: per-subscriber relay paths (election off) raise relay traffic",
    );
    let a2 = toggle_figure(
        Figure::new(
            "Ablation A2: Equation 1 friend selection vs random friends",
            "utility ranking enabled (0/1)",
            "overhead %",
        ),
        "utility",
        utility,
        "expectation: random friends destroy clustering; overhead rises sharply",
    );
    let mut a3 = plot(
        Figure::new(
            "Ablation A3: small-world links vs propagation delay (random subs)",
            "sw links k",
            "hops",
        ),
        sw,
        |s| s.mean_hops,
    );
    a3.push_series(Series::new(
        "Vitis overhead %",
        sw.iter().map(|p| (p.x, p.stats.overhead_pct)).collect(),
    ));
    a3.note(
        "expectation: delay falls with k (O(log^2 N / k) routing); overhead rises (fewer friends)",
    );
    vec![a1, a2, a3]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Scale {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 45;
        sc.events = 120;
        sc
    }

    #[test]
    fn gateway_election_cuts_overhead() {
        let sc = sc();
        let pts = sweep("ablations", &sc, gateway_jobs(&sc));
        let (on, off) = (pts[0].stats.overhead_pct, pts[1].stats.overhead_pct);
        assert!(pts[0].stats.hit_ratio > 0.9);
        assert!(
            on <= off + 1.0,
            "election on {on}% should not exceed off {off}%"
        );
    }

    #[test]
    fn utility_selection_is_what_creates_clusters() {
        let sc = sc();
        let pts = sweep("ablations", &sc, utility_jobs(&sc));
        let (on, off) = (pts[0].stats.overhead_pct, pts[1].stats.overhead_pct);
        assert!(
            on < off,
            "utility ranking must cut overhead: on {on}% vs off {off}%"
        );
    }
}
