//! Figure 11: node-degree distribution of OPT with *unbounded* degree.
//!
//! The paper's scalability argument against pure correlation-based designs:
//! to reach full coverage on Twitter subscriptions, more than two thirds of
//! OPT nodes need degree above 15 and a heavy tail forms (0.3 % above 200,
//! max 708 in the paper's run).

use crate::fig10::twitter_params;
use crate::obs::Obs;
use crate::report::{Figure, Series};
use crate::scale::Scale;
use vitis::system::PubSub;
use vitis_baselines::OptSystem;

/// Degree statistics of the unbounded run.
#[derive(Clone, Debug)]
pub struct DegreeStats {
    /// All node degrees.
    pub degrees: Vec<u64>,
    /// Fraction of nodes with degree above 15.
    pub frac_above_15: f64,
    /// Maximum observed degree.
    pub max_degree: u64,
}

/// Run unbounded OPT (`rt_size` of `usize::MAX`) on the Twitter sample
/// until link churn settles, then snapshot the degree distribution.
pub fn degree_stats(scale: &Scale) -> DegreeStats {
    let mut ctx = Obs::global().start("fig11", "opt-unbounded", 0);
    let mut params = twitter_params(scale);
    params.cfg.rt_size = usize::MAX;
    let mut sys = OptSystem::new(params);
    ctx.phase("build");
    ctx.install_trace(&mut sys);
    sys.run_rounds(scale.warmup_rounds);
    ctx.phase("warmup");
    ctx.sample(scale.warmup_rounds, &sys);
    ctx.finish(scale, &sys);
    let degrees = sys.degree_distribution();
    let n = degrees.len().max(1) as f64;
    let frac_above_15 = degrees.iter().filter(|&&d| d > 15).count() as f64 / n;
    let max_degree = degrees.iter().copied().max().unwrap_or(0);
    DegreeStats {
        degrees,
        frac_above_15,
        max_degree,
    }
}

/// Run the experiment and build the histogram figure (fraction of nodes
/// per degree bucket, like the paper's bar plot).
pub fn run(scale: &Scale) -> Figure {
    let stats = degree_stats(scale);
    let mut fig = Figure::new(
        "Figure 11: node degree distribution in OPT (unbounded)",
        "node degree (bucket lower edge)",
        "fraction of nodes",
    );
    let n = stats.degrees.len().max(1) as f64;
    let mut points = Vec::new();
    let bucket = 10u64;
    let max_bucket = 20; // 0..200, matching the paper's plotted range
    for b in 0..max_bucket {
        let lo = b * bucket;
        let hi = lo + bucket;
        let c = stats.degrees.iter().filter(|&&d| d >= lo && d < hi).count();
        points.push((lo as f64, c as f64 / n));
    }
    fig.push_series(Series::new("OPT", points));
    fig.note(format!(
        "{:.1}% of nodes above degree 15; {:.2}% above 200; max degree {}",
        100.0 * stats.frac_above_15,
        100.0 * stats.degrees.iter().filter(|&&d| d > 200).count() as f64 / n,
        stats.max_degree
    ));
    fig.note("paper: >2/3 of nodes above degree 15, 0.3% above 200, max 708");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_opt_needs_large_degrees() {
        // At smoke scale the Twitter sample has far fewer subscriptions per
        // node than the paper's (~80), so absolute degree thresholds scale
        // down; the invariants are the heavy tail and the cap overflow.
        let mut sc = Scale::quick();
        sc.warmup_rounds = 40;
        let s = degree_stats(&sc);
        assert!(
            s.frac_above_15 > 0.05,
            "a meaningful share should exceed degree 15: {}",
            s.frac_above_15
        );
        assert!(s.max_degree > 30, "max degree {}", s.max_degree);
        let mean = s.degrees.iter().sum::<u64>() as f64 / s.degrees.len().max(1) as f64;
        assert!(
            s.max_degree as f64 > 4.0 * mean,
            "tail should dwarf the mean: max {} vs mean {mean:.1}",
            s.max_degree
        );
    }
}
