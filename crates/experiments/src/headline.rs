//! The headline comparison with error bars: Vitis vs RVR vs OPT on
//! high-correlation and random subscriptions, replicated over independent
//! seeds. This is the statistical backbone behind the single-run figures —
//! it shows the paper-shape orderings are stable, not seed luck.

use crate::report::Figure;
use crate::runner::{sweep, synthetic_params, Job, Point, PublishPlan};
use crate::scale::Scale;
use vitis_baselines::System;
use vitis_sim::metrics::Summary;
use vitis_workloads::Correlation;

/// Mean ± standard deviation of a replicated metric.
#[derive(Clone, Copy, Debug)]
pub struct Replicated {
    /// Sample mean across replicas.
    pub mean: f64,
    /// Sample standard deviation across replicas.
    pub std: f64,
}

impl Replicated {
    fn from_summary(s: &Summary) -> Replicated {
        Replicated {
            mean: s.mean(),
            std: s.std_dev(),
        }
    }
}

/// Replicated metrics of one (system, correlation) cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Hit ratio.
    pub hit: Replicated,
    /// Traffic overhead percent.
    pub overhead: Replicated,
    /// Mean propagation hops.
    pub delay: Replicated,
}

fn aggregate<'a>(replicas: impl Iterator<Item = &'a Point>) -> Cell {
    let mut hit = Summary::new();
    let mut overhead = Summary::new();
    let mut delay = Summary::new();
    for p in replicas {
        hit.record(p.stats.hit_ratio);
        overhead.record(p.stats.overhead_pct);
        delay.record(p.stats.mean_hops);
    }
    Cell {
        hit: Replicated::from_summary(&hit),
        overhead: Replicated::from_summary(&overhead),
        delay: Replicated::from_summary(&delay),
    }
}

/// The `replicas` jobs of one (system, correlation) cell, one per
/// independent seed; they share a series, which is also the cell's row
/// name in the table.
fn cell_jobs(scale: &Scale, system: System, corr: Correlation, replicas: usize) -> Vec<Job> {
    (0..replicas as u64)
        .map(|r| {
            let mut sc = *scale;
            sc.seed = scale.seed.wrapping_add(r.wrapping_mul(0x9E37_79B9));
            Job {
                series: format!("{system:?} / {}", corr.label()),
                x: r as f64,
                system,
                params: synthetic_params(&sc, corr),
                plan: PublishPlan::RoundRobin,
                label: format!("{}-{}-r{r}", system.name(), corr.slug()),
            }
        })
        .collect()
}

/// Run the replicated headline table.
pub fn run(scale: &Scale, replicas: usize) -> Vec<Figure> {
    let mut jobs = Vec::new();
    for corr in [Correlation::High, Correlation::Random] {
        for system in System::ALL {
            jobs.extend(cell_jobs(scale, system, corr, replicas));
        }
    }
    let points = sweep("headline", scale, jobs);

    let mut fig = Figure::new(
        format!("Headline comparison, {replicas} replicas (mean ± std)"),
        "-",
        "-",
    );
    for cell in points.chunks(replicas.max(1)) {
        let c = aggregate(cell.iter());
        fig.note(format!(
            "{}: hit {:.3}±{:.3}  overhead {:.1}±{:.1}%  delay {:.2}±{:.2} hops",
            cell[0].series,
            c.hit.mean,
            c.hit.std,
            c.overhead.mean,
            c.overhead.std,
            c.delay.mean,
            c.delay.std,
        ));
    }
    fig.note("paper shape: Vitis & RVR hit ~1.0, OPT lower; overhead Vitis << RVR, OPT ~0");
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ordering survives replication at smoke scale.
    #[test]
    fn replicated_ordering_is_stable() {
        let mut sc = Scale::proportional(250, 7);
        sc.warmup_rounds = 40;
        sc.events = 80;
        let mut jobs = cell_jobs(&sc, System::Vitis, Correlation::High, 3);
        jobs.extend(cell_jobs(&sc, System::Rvr, Correlation::High, 3));
        let pts = sweep("headline", &sc, jobs);
        let v = aggregate(pts[..3].iter());
        let r = aggregate(pts[3..].iter());
        assert!(v.hit.mean > 0.95);
        assert!(r.hit.mean > 0.95);
        // Separation is larger than the combined noise.
        assert!(
            v.overhead.mean + v.overhead.std < r.overhead.mean - r.overhead.std,
            "vitis {}±{} vs rvr {}±{}",
            v.overhead.mean,
            v.overhead.std,
            r.overhead.mean,
            r.overhead.std
        );
    }
}
