//! The one harness behind every figure: build a system, warm it up,
//! publish a measured batch of events, let dissemination drain, and
//! collect stats ([`measure_obs`]); and the one sweep that runs a
//! figure's table of such measurements in parallel ([`sweep`]).

use crate::obs::{Obs, RunCtx};
use crate::report::{Figure, Series};
use crate::scale::Scale;
use rayon::prelude::*;
use vitis::monitor::PubSubStats;
use vitis::system::{PubSub, SystemParams};
use vitis::topic::{TopicId, TopicSet};
use vitis_baselines::System;
use vitis_workloads::Correlation;

/// How the measured events pick their topics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PublishPlan {
    /// Round-robin over all topics (uniform rates — the default setting).
    RoundRobin,
    /// Rate-weighted random topics (the α-sweep of Figure 7).
    RateWeighted,
}

/// Build `SystemParams` for a synthetic-subscription experiment.
pub fn synthetic_params(scale: &Scale, correlation: Correlation) -> SystemParams {
    let subs: Vec<TopicSet> = scale
        .subscription_model(correlation)
        .generate(scale.seed)
        .into_iter()
        .map(TopicSet::from_iter)
        .collect();
    params_from_subs(scale, subs, scale.topics)
}

/// Build `SystemParams` from explicit subscription sets (trace-driven
/// experiments).
pub fn params_from_subs(
    scale: &Scale,
    subscriptions: Vec<TopicSet>,
    num_topics: usize,
) -> SystemParams {
    let mut p = SystemParams::new(subscriptions, num_topics);
    p.seed = scale.seed;
    p.cfg.est_n = scale.nodes.max(2);
    p
}

/// Wall-clock milliseconds of the four phases of one [`measure_obs`] run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseMs {
    /// From [`Obs::start`] until the system is built.
    pub build: f64,
    /// The warmup rounds.
    pub warmup: f64,
    /// The publish window.
    pub measure: f64,
    /// The drain rounds.
    pub drain: f64,
}

/// Warm up, publish the measured batch, drain, and return the stats with
/// the wall-clock each phase took.
///
/// Events are published in ten spaced chunks so dissemination load overlaps
/// rounds realistically instead of arriving as a single burst. The run
/// scope records phase timers, one convergence sample per measured round,
/// per-round health probes into the event trace when enabled, and the
/// final stats record — all submitted to the global [`Obs`] sinks.
///
/// Create `ctx` with [`Obs::start`] *before* building the system so the
/// "build" phase timer covers construction.
pub fn measure_obs(
    sys: &mut dyn PubSub,
    scale: &Scale,
    plan: PublishPlan,
    mut ctx: RunCtx,
) -> (PubSubStats, PhaseMs) {
    let build = ctx.phase("build");
    ctx.install_trace(sys);
    sys.run_rounds(scale.warmup_rounds);
    let warmup = ctx.phase("warmup");
    sys.reset_metrics();
    let chunk = (scale.events / 10).max(1);
    let mut published = 0usize;
    let mut topic_cursor = 0u32;
    let mut round = 0u64;
    while published < scale.events {
        for _ in 0..chunk.min(scale.events - published) {
            match plan {
                PublishPlan::RoundRobin => {
                    sys.publish(TopicId(topic_cursor));
                    topic_cursor = (topic_cursor + 1) % scale.topics as u32;
                }
                PublishPlan::RateWeighted => {
                    sys.publish_weighted();
                }
            }
            published += 1;
        }
        sys.run_rounds(1);
        round += 1;
        ctx.sample(round, &*sys);
    }
    let measure = ctx.phase("measure");
    for _ in 0..scale.drain_rounds {
        sys.run_rounds(1);
        round += 1;
        ctx.sample(round, &*sys);
    }
    let drain = ctx.phase("drain");
    if ctx.has_trace() {
        // Close the measurement window with the loss-attribution pass:
        // every still-missed (event, subscriber) pair gets a classified
        // `drop_event` record in the installed trace.
        let _ = sys.loss_report();
    }
    let stats = ctx.finish(scale, &*sys);
    let phases = PhaseMs {
        build,
        warmup,
        measure,
        drain,
    };
    (stats, phases)
}

/// One measurement of a figure, as data: which curve and x it lands on,
/// what to build, how to publish, and how its run is labelled.
pub struct Job {
    /// Legend label of the curve this point belongs to.
    pub series: String,
    /// Position on the figure's x axis.
    pub x: f64,
    /// The system to build.
    pub system: System,
    /// What to build it from (its `seed` is the run's seed).
    pub params: SystemParams,
    /// How the measured events pick their topics.
    pub plan: PublishPlan,
    /// Sweep-point label of the run id (`figure/label#index`).
    pub label: String,
}

impl Job {
    /// A round-robin job on synthetic subscriptions, named the way
    /// Figures 4, 6 and 7 plot them: one Vitis curve per correlation level
    /// (`Vitis - high correlation`, run label `vitis-high<tag>`), one curve
    /// for a subscription-oblivious baseline (`RVR`, `rvr<tag>`). The
    /// caller adjusts `params` and `plan` for its sweep.
    pub fn synthetic(scale: &Scale, system: System, corr: Correlation, x: f64, tag: &str) -> Job {
        let (series, label) = match system {
            System::Vitis => (
                format!("Vitis - {}", corr.label()),
                format!("vitis-{}{tag}", corr.slug()),
            ),
            _ => (
                system.label().to_string(),
                format!("{}{tag}", system.name()),
            ),
        };
        Job {
            series,
            x,
            system,
            params: synthetic_params(scale, corr),
            plan: PublishPlan::RoundRobin,
            label,
        }
    }
}

/// A measured [`Job`].
#[derive(Clone, Debug)]
pub struct Point {
    /// Legend label of the curve this point belongs to.
    pub series: String,
    /// Position on the figure's x axis.
    pub x: f64,
    /// Stats of the measurement window.
    pub stats: PubSubStats,
    /// Per-node overhead percentages over nodes that received at least
    /// one data-plane message (Figure 5's distribution).
    pub per_node_overhead: Vec<f64>,
}

/// Map `items` on the Rayon workers, handing `f` each item's index. Run
/// ids are built from that index — fixed before the fan-out — so they do
/// not depend on which worker starts first.
pub(crate) fn par_indexed<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    indexed.into_par_iter().map(|(i, t)| f(i, t)).collect()
}

/// Run every job of `figure` through [`measure_obs`] on the measurement
/// plan of `scale`, in parallel; points come back in job order. Job `i`
/// records under the run id `figure/label#i`.
pub fn sweep(figure: &str, scale: &Scale, jobs: impl IntoIterator<Item = Job>) -> Vec<Point> {
    par_indexed(jobs, |index, job| {
        let ctx = Obs::global().start(figure, &job.label, index);
        let scale = Scale {
            seed: job.params.seed,
            ..*scale
        };
        let mut sys = job.system.build(job.params);
        let (stats, _) = measure_obs(sys.as_mut(), &scale, job.plan, ctx);
        Point {
            series: job.series,
            x: job.x,
            stats,
            per_node_overhead: sys.per_node_overhead(1),
        }
    })
}

/// Plot `points` into `fig`: one curve per series in first-appearance
/// order, each by ascending x, reading `y` off the point's stats.
pub fn plot(mut fig: Figure, points: &[Point], y: impl Fn(&PubSubStats) -> f64) -> Figure {
    let mut curves: Vec<Series> = Vec::new();
    for p in points {
        let at = (p.x, y(&p.stats));
        match curves.iter_mut().find(|s| s.label == p.series) {
            Some(s) => s.points.push(at),
            None => curves.push(Series::new(p.series.clone(), vec![at])),
        }
    }
    for mut s in curves {
        s.points
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite x"));
        fig.push_series(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        let mut s = Scale::proportional(150, 7);
        s.warmup_rounds = 30;
        s.events = 50;
        s.drain_rounds = 6;
        s
    }

    #[test]
    fn sweep_measures_all_three_systems_in_job_order() {
        let sc = tiny();
        let job = |system, corr, plan| Job {
            plan,
            ..Job::synthetic(&sc, system, corr, 0.0, "")
        };
        let jobs = vec![
            job(System::Vitis, Correlation::High, PublishPlan::RoundRobin),
            job(System::Rvr, Correlation::Random, PublishPlan::RoundRobin),
            job(System::Opt, Correlation::Random, PublishPlan::RateWeighted),
        ];
        assert_eq!(jobs[0].label, "vitis-high");
        assert_eq!(jobs[1].label, "rvr");
        let pts = sweep("test", &sc, jobs);
        let series: Vec<&str> = pts.iter().map(|p| p.series.as_str()).collect();
        assert_eq!(series, ["Vitis - high correlation", "RVR", "OPT"]);
        assert_eq!(pts[0].stats.published, 50);
        assert!(
            pts[0].stats.hit_ratio > 0.9,
            "hit {}",
            pts[0].stats.hit_ratio
        );
        assert!(
            pts[1].stats.hit_ratio > 0.8,
            "rvr hit {}",
            pts[1].stats.hit_ratio
        );
        assert_eq!(pts[2].stats.relay_msgs, 0);
        assert!(!pts[1].per_node_overhead.is_empty());
    }

    #[test]
    fn plot_groups_by_series_and_sorts_by_x() {
        let pt = |series: &str, x: f64, hops: f64| Point {
            series: series.to_string(),
            x,
            stats: PubSubStats {
                mean_hops: hops,
                ..PubSubStats::default()
            },
            per_node_overhead: Vec::new(),
        };
        let points = [pt("b", 2.0, 5.0), pt("a", 1.0, 3.0), pt("b", 1.0, 4.0)];
        let fig = plot(Figure::new("t", "x", "y"), &points, |s| s.mean_hops);
        assert_eq!(
            fig.series,
            vec![
                Series::new("b", vec![(1.0, 4.0), (2.0, 5.0)]),
                Series::new("a", vec![(1.0, 3.0)]),
            ]
        );
    }
}
