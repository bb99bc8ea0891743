//! Figure 10: the three systems on Twitter subscriptions, routing-table
//! size 15–35.
//!
//! Every user is both subscriber and topic (topics = nodes), subscriptions
//! are the followee lists of the BFS sample. The paper's findings: Vitis
//! and RVR hold 100 % hit ratio at every degree while bounded OPT tops out
//! around 80 %; Vitis's overhead is ~30–40 % below RVR's; Vitis is ~1.5×
//! faster than RVR and ~1.7× faster than OPT.

use crate::fig6::RT_SIZES;
use crate::fig8_9::sampled_trace;
use crate::report::Figure;
use crate::runner::{params_from_subs, plot, sweep, Job, PublishPlan};
use crate::scale::Scale;
use vitis::system::SystemParams;
use vitis::topic::TopicSet;
use vitis_baselines::System;

/// Subscription sets of the Twitter sample (topics = node indices).
pub fn twitter_params(scale: &Scale) -> SystemParams {
    let trace = sampled_trace(scale);
    let n = trace.len();
    let subs: Vec<TopicSet> = trace
        .follows
        .iter()
        .map(|f| TopicSet::from_iter(f.iter().copied()))
        .collect();
    params_from_subs(scale, subs, n)
}

/// The measurement plan on the Twitter subscriptions: topics = nodes
/// there, so the round-robin and the event batch are capped at the sample's
/// population.
fn twitter_scale(scale: &Scale, twitter: &SystemParams) -> Scale {
    Scale {
        topics: twitter.num_topics,
        events: scale.events.min(twitter.num_topics),
        ..*scale
    }
}

/// One system at one table size (OPT: degree bound) on `twitter`.
fn job(twitter: &SystemParams, system: System, rt_size: usize) -> Job {
    let mut params = twitter.clone();
    params.cfg.rt_size = rt_size;
    params.cfg.k_sw = 1;
    Job {
        series: system.label().to_string(),
        x: rt_size as f64,
        system,
        params,
        plan: PublishPlan::RoundRobin,
        label: format!("{}-rt{rt_size}", system.name()),
    }
}

/// Run the sweep; returns the hit-ratio, overhead and delay figures.
pub fn run(scale: &Scale) -> Vec<Figure> {
    let twitter = twitter_params(scale);
    let mut jobs = Vec::new();
    for system in System::ALL {
        jobs.extend(RT_SIZES.map(|rt| job(&twitter, system, rt)));
    }
    let points = sweep("fig10", &twitter_scale(scale, &twitter), jobs);

    let mut hit = plot(
        Figure::new(
            "Figure 10(a): hit ratio vs routing table size (Twitter)",
            "routing table size",
            "hit ratio %",
        ),
        &points,
        |s| 100.0 * s.hit_ratio,
    );
    let mut overhead = plot(
        Figure::new(
            "Figure 10(b): traffic overhead vs routing table size (Twitter)",
            "routing table size",
            "overhead %",
        ),
        &points,
        |s| s.overhead_pct,
    );
    let mut delay = plot(
        Figure::new(
            "Figure 10(c): propagation delay vs routing table size (Twitter)",
            "routing table size",
            "hops",
        ),
        &points,
        |s| s.mean_hops,
    );
    hit.note("paper: Vitis and RVR at 100%; OPT ~80% even at degree 35");
    overhead.note("paper: OPT ~0; Vitis 30-40% below RVR");
    delay.note("paper: Vitis ~1.5x faster than RVR, ~1.7x faster than OPT");
    vec![hit, overhead, delay]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ordering that defines Figure 10: Vitis ≥ OPT on hit ratio,
    /// OPT ≈ 0 overhead, Vitis below RVR on overhead.
    #[test]
    fn twitter_ordering_holds_at_smoke_scale() {
        let mut sc = Scale::quick();
        sc.warmup_rounds = 50;
        sc.events = 150;
        let twitter = twitter_params(&sc);
        let jobs = System::ALL.map(|system| job(&twitter, system, 15));
        let pts = sweep("fig10", &twitter_scale(&sc, &twitter), jobs);
        let (v, r, o) = (&pts[0].stats, &pts[1].stats, &pts[2].stats);
        assert!(v.hit_ratio > 0.9, "vitis hit {}", v.hit_ratio);
        assert!(r.hit_ratio > 0.9, "rvr hit {}", r.hit_ratio);
        assert!(
            o.hit_ratio < v.hit_ratio,
            "opt {} vs vitis {}",
            o.hit_ratio,
            v.hit_ratio
        );
        assert!(o.overhead_pct < 1.0, "opt overhead {}", o.overhead_pct);
        assert!(
            v.overhead_pct < r.overhead_pct,
            "vitis {} vs rvr {}",
            v.overhead_pct,
            r.overhead_pct
        );
    }
}
