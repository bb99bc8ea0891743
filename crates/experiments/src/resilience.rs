//! Resilience: the three systems under scheduled fault episodes.
//!
//! Every `(system, severity)` point runs the same deterministic timeline:
//! fault-free warmup, baseline measurement windows, a partition episode
//! isolating `⌈severity·N⌉` nodes, then post-heal windows feeding a
//! [`ReconvergenceTracker`]. The sweep emits two curves per system —
//! hit ratio *during* the episode vs severity, and time from heal until
//! the hit ratio re-enters the pre-fault tolerance band.
//!
//! The Vitis runs enable the protocol-hardening knobs (publisher retries,
//! gateway failover, bounded event TTL); RVR and OPT have no equivalent,
//! which is exactly the robustness gap the experiment measures.

use crate::obs::Obs;
use crate::report::{Figure, Series};
use crate::runner::{par_indexed, synthetic_params};
use crate::scale::Scale;
use vitis::monitor::{LossReason, PubSubStats, ReconvergenceTracker};
use vitis::system::{PubSub, SystemParams};
use vitis::topic::TopicId;
use vitis_baselines::System;
use vitis_sim::antientropy::AeConfig;
use vitis_sim::fault::{FaultEpisode, FaultPlan, Span};
use vitis_sim::time::SimTime;
use vitis_sim::trace::TraceEvent;
use vitis_workloads::Correlation;

// The timeline, in rounds (tick spans derive from the round period).

/// Fractions of the network isolated by the partition episode.
const SEVERITIES: [f64; 3] = [0.1, 0.25, 0.5];
/// Measurement windows establishing the pre-fault baseline.
const BASELINE_WINDOWS: u64 = 2;
/// Windows the partition stays up.
const EPISODE_WINDOWS: u64 = 3;
/// Maximum windows observed after healing before a run is declared
/// non-reconverged.
const RECOVERY_WINDOWS: u64 = 12;
/// Rounds per measurement window (publish batch + dissemination).
const WINDOW_ROUNDS: u64 = 3;
/// Reconvergence band: recovered once `hit ≥ baseline − TOLERANCE`.
const TOLERANCE: f64 = 0.02;
/// Rounds between the heal and the fault-loss attribution pass. The
/// episode-published events stay registered through this grace, so a
/// repair layer (when enabled) gets a chance to pull fault-time losses
/// back before they are attributed.
const REPAIR_GRACE_ROUNDS: u64 = 6;

/// Fault-free convergence rounds before any measurement.
fn warmup_rounds(scale: &Scale) -> u64 {
    scale.warmup_rounds.max(20)
}

/// Events published per window, round-robin over topics.
fn events_per_window(scale: &Scale) -> usize {
    scale.topics.min(20)
}

/// The round the partition starts in.
fn episode_start_round(scale: &Scale) -> u64 {
    warmup_rounds(scale) + BASELINE_WINDOWS * WINDOW_ROUNDS
}

/// Ticks from run start until the partition heals.
fn episode_end_tick(scale: &Scale, round_period: u64) -> u64 {
    (episode_start_round(scale) + EPISODE_WINDOWS * WINDOW_ROUNDS) * round_period
}

/// The partition episode for one severity: nodes `0..⌈s·N⌉` of the
/// scale's `N` split off for the episode span. Severities that round to
/// zero nodes (or the whole network) produce an empty plan.
fn fault_plan(scale: &Scale, severity: f64, round_period: u64) -> FaultPlan {
    let n = scale.nodes;
    let k = ((severity * n as f64).ceil() as usize).min(n);
    if k == 0 || k == n {
        return FaultPlan::empty();
    }
    let start = episode_start_round(scale) * round_period;
    let end = episode_end_tick(scale, round_period);
    FaultPlan::new(vec![FaultEpisode::Partition {
        groups: vec![(0..k as u32).collect()],
        span: Span::new(start, end),
    }])
    .expect("partition plan is valid by construction")
}

/// Outcome of one `(system, severity)` run.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceOutcome {
    /// Fraction of nodes isolated during the episode.
    pub severity: f64,
    /// Mean hit ratio over the pre-fault baseline windows.
    pub baseline_hit: f64,
    /// Hit ratio pooled over the episode windows (one measurement window
    /// spanning the whole episode, taken at the heal).
    pub episode_hit: f64,
    /// Hit ratio of the last observed post-heal window.
    pub recovered_hit: f64,
    /// Rounds from heal until the hit ratio re-entered the tolerance
    /// band, or `None` if it never did within the observation horizon.
    pub recovery_rounds: Option<f64>,
    /// `LossReason::Network` misses among the episode-published events,
    /// attributed `REPAIR_GRACE_ROUNDS` after the heal
    /// — the fault-time loss gap the repair layer exists to close.
    pub fault_net_losses: u64,
    /// First-arrival deliveries that came in through the repair layer
    /// (cumulative over the run; zero with repair off).
    pub recovered_deliveries: u64,
    /// Anti-entropy messages sent (`ae_digest` + `ae_want` + `ae_push`)
    /// across all measurement windows — the repair wire-cost.
    pub repair_msgs: u64,
}

/// Per-round overlay-health series of one resilience run: one `topo`
/// record ([`vitis::topo::sample`], docs/METRICS.md §10) after every
/// window round. Correlates the hit-ratio collapse during a partition
/// with the structural decay that causes it (fragmenting components,
/// aging views, dangling relays). `None` keeps no series and takes no
/// snapshots: the sweep only pays for them when the metrics sink wants
/// the series (or a test collects it directly).
pub type TopoSeries = Option<Vec<TraceEvent>>;

/// Snapshot the overlay now into `series`, if one is kept.
fn sample_topo(series: &mut TopoSeries, sys: &dyn PubSub, round_period: u64) {
    if let Some(samples) = series {
        samples.push(vitis::topo::sample(&sys.overlay_snapshot(), round_period));
    }
}

/// Publish one window's event batch round-robin over topics.
fn publish_window(sys: &mut dyn PubSub, scale: &Scale, topic_cursor: &mut u32) {
    for _ in 0..events_per_window(scale) {
        sys.publish(TopicId(*topic_cursor));
        *topic_cursor = (*topic_cursor + 1) % scale.topics as u32;
    }
}

/// One measurement window: publish the batch, run the window round by
/// round (probing overlay health after each), return the window's stats.
fn window_stats(
    sys: &mut dyn PubSub,
    scale: &Scale,
    topic_cursor: &mut u32,
    round_period: u64,
    topo: &mut TopoSeries,
) -> PubSubStats {
    sys.reset_metrics();
    publish_window(sys, scale, topic_cursor);
    for _ in 0..WINDOW_ROUNDS {
        sys.run_rounds(1);
        sample_topo(topo, sys, round_period);
    }
    sys.stats()
}

/// Anti-entropy messages sent in a stats window (the repair wire-cost).
fn ae_sent(stats: &PubSubStats) -> u64 {
    stats
        .traffic_by_kind
        .iter()
        .filter(|k| k.kind.starts_with("ae_"))
        .map(|k| k.sent)
        .sum()
}

/// Drive one already-constructed system (whose params carry the matching
/// [`FaultPlan`]) through the timeline, feeding per-round overlay-health
/// probes into `topo`.
pub fn run_system(
    sys: &mut dyn PubSub,
    scale: &Scale,
    severity: f64,
    round_period: u64,
    topo: &mut TopoSeries,
) -> ResilienceOutcome {
    let mut cursor = 0u32;
    let mut repair_msgs = 0u64;
    sys.run_rounds(warmup_rounds(scale));
    sample_topo(topo, sys, round_period); // pre-fault structural baseline
    let mut baseline = 0.0;
    for _ in 0..BASELINE_WINDOWS {
        let s = window_stats(sys, scale, &mut cursor, round_period, topo);
        baseline += s.hit_ratio;
        repair_msgs += ae_sent(&s);
    }
    baseline /= BASELINE_WINDOWS as f64;

    // Episode phase: one pooled measurement window spanning every episode
    // window, so the events published under the partition stay registered
    // through the post-heal repair grace and the loss attribution below
    // observes any repair-layer recoveries.
    sys.reset_metrics();
    for _ in 0..EPISODE_WINDOWS {
        publish_window(sys, scale, &mut cursor);
        for _ in 0..WINDOW_ROUNDS {
            sys.run_rounds(1);
            sample_topo(topo, sys, round_period);
        }
    }
    let episode = sys.stats().hit_ratio;
    // The partition heals here; grant the grace before attributing the
    // fault-time losses.
    for _ in 0..REPAIR_GRACE_ROUNDS {
        sys.run_rounds(1);
        sample_topo(topo, sys, round_period);
    }
    let fault_net_losses = sys
        .loss_report()
        .by_reason
        .iter()
        .filter(|(r, _)| *r == LossReason::Network)
        .map(|&(_, c)| c)
        .sum();
    repair_msgs += ae_sent(&sys.stats());

    let heal = SimTime(episode_end_tick(scale, round_period));
    let mut tracker = ReconvergenceTracker::new(baseline, heal, TOLERANCE);
    let mut last = episode;
    for _ in 0..RECOVERY_WINDOWS {
        let s = window_stats(sys, scale, &mut cursor, round_period, topo);
        last = s.hit_ratio;
        repair_msgs += ae_sent(&s);
        tracker.observe(sys.now(), last);
        if tracker.recovered() {
            break;
        }
    }
    ResilienceOutcome {
        severity,
        baseline_hit: baseline,
        episode_hit: episode,
        recovered_hit: last,
        recovery_rounds: tracker
            .recovery_time()
            .map(|d| d.ticks() as f64 / round_period as f64),
        fault_net_losses,
        recovered_deliveries: sys.recovered_deliveries(),
        repair_msgs,
    }
}

/// Construct `system` and run the timeline as point `index` of the
/// sweep. With `repair` on, every node runs the anti-entropy layer at its
/// default (enabled) configuration.
pub fn run_point(
    system: System,
    scale: &Scale,
    severity: f64,
    repair: bool,
    index: usize,
) -> ResilienceOutcome {
    let mut params: SystemParams = synthetic_params(scale, Correlation::Low);
    let period = params.round_period.ticks();
    params.faults = fault_plan(scale, severity, period);
    if repair {
        params.repair = AeConfig::on();
    }
    let tag = if repair { "+ae" } else { "" };
    let label = format!("{}{tag}-s{severity}", system.name());
    let mut ctx = Obs::global().start("resilience", &label, index);
    if system == System::Vitis {
        // Hardening on: retries re-flood unacknowledged publishes after
        // the heal, failover re-elects around silent gateways, and the
        // TTL stops partition-trapped traffic.
        params.cfg.publish_retries = 2;
        params.cfg.gateway_failover = true;
        params.cfg.max_event_hops = 64;
    }
    let mut sys = system.build(params);
    ctx.phase("build");
    let mut topo: TopoSeries = Obs::global().metrics.is_open().then(Vec::new);
    let outcome = run_system(sys.as_mut(), scale, severity, period, &mut topo);
    ctx.phase("run");
    // The overlay-health series goes through the metrics sink (the
    // resilience sweep runs without a trace sink), one stamped `topo`
    // record per sampled round.
    topo.into_iter()
        .flatten()
        .for_each(|sample| ctx.record(sample));
    // The reconvergence record: `rounds` stays `null` for runs that never
    // re-entered the band, so downstream analysis can tell "never
    // recovered" from "recovered slowly" (no sentinel values).
    ctx.record(TraceEvent::Reconv {
        system: system.name().into(),
        severity_pct: (100.0 * severity).round() as u32,
        repair,
        rounds: outcome.recovery_rounds.map(|r| r.round() as u64),
    });
    ctx.finish(scale, &*sys);
    outcome
}

/// Sweep severity across all three systems; returns the
/// hit-ratio-vs-severity and recovery-time-vs-severity figures, plus —
/// when `repair` is on — the repair cost/effect figure. With `repair`
/// on, every `(system, severity)` point runs twice at identical seeds
/// (anti-entropy off and on), so the figures carry paired curves.
pub fn run(scale: &Scale, repair: bool) -> Vec<Figure> {
    let modes: &[bool] = if repair { &[false, true] } else { &[false] };
    // One curve per (system, mode), its severities adjacent.
    let points = System::ALL.iter().flat_map(|&s| {
        modes
            .iter()
            .flat_map(move |&ae| SEVERITIES.map(|sev| (s, ae, sev)))
    });
    let outcomes = par_indexed(points, |index, (system, ae, sev)| {
        (system, ae, run_point(system, scale, sev, ae, index))
    });

    let mut hit = Figure::new(
        "Resilience: hit ratio during a partition episode",
        "% of nodes isolated",
        "hit ratio % (episode windows)",
    );
    let mut rec = Figure::new(
        "Resilience: reconvergence time after the partition heals",
        "% of nodes isolated",
        "rounds to re-enter the baseline band",
    );
    let mut cost = Figure::new(
        "Resilience: anti-entropy repair cost and effect",
        "% of nodes isolated",
        "messages / deliveries per run",
    );
    for curve in outcomes.chunks(SEVERITIES.len()) {
        let (system, ae, _) = curve[0];
        let label = &format!("{}{}", system.label(), if ae { "+AE" } else { "" });
        let mine: Vec<&ResilienceOutcome> = curve.iter().map(|(_, _, o)| o).collect();
        hit.push_series(Series::new(
            label,
            mine.iter()
                .map(|o| (100.0 * o.severity, 100.0 * o.episode_hit))
                .collect(),
        ));
        // Only the points that actually reconverged are plotted; runs
        // that never re-entered the band get an explicit note instead
        // of a sentinel value.
        rec.push_series(Series::new(
            label,
            mine.iter()
                .filter_map(|o| o.recovery_rounds.map(|r| (100.0 * o.severity, r)))
                .collect(),
        ));
        for o in &mine {
            if o.recovery_rounds.is_none() {
                rec.note(format!(
                    "unrecovered: {label} at {:.0}% isolated never re-entered the band \
                     within {} post-heal windows",
                    100.0 * o.severity,
                    RECOVERY_WINDOWS
                ));
            }
        }
        if repair {
            if ae {
                cost.push_series(Series::new(
                    format!("{label} repair msgs"),
                    mine.iter()
                        .map(|o| (100.0 * o.severity, o.repair_msgs as f64))
                        .collect(),
                ));
                cost.push_series(Series::new(
                    format!("{label} recovered deliveries"),
                    mine.iter()
                        .map(|o| (100.0 * o.severity, o.recovered_deliveries as f64))
                        .collect(),
                ));
            }
            for o in &mine {
                cost.note(format!(
                    "fault-time Network losses, {label} at {:.0}%: {}",
                    100.0 * o.severity,
                    o.fault_net_losses
                ));
            }
        }
    }
    hit.note(format!(
        "baseline windows before the episode; tolerance band {:.0}% of baseline hit ratio",
        100.0 * TOLERANCE
    ));
    hit.note(
        "Vitis runs with hardening on: publish_retries=2, gateway_failover, max_event_hops=64",
    );
    rec.note(format!(
        "reconvergence observed for at most {} windows after the heal; unrecovered runs are \
         listed above, not plotted",
        RECOVERY_WINDOWS
    ));
    let mut figs = vec![hit, rec];
    if repair {
        cost.note("fault-time losses attributed after the post-heal repair grace; paired runs share seeds");
        figs.push(cost);
    }
    figs
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitis::topo::TopoProbe;

    #[test]
    fn fault_plan_scales_with_severity() {
        let sc = Scale::proportional(100, 1);
        assert!(fault_plan(&sc, 0.0, 64).is_empty());
        let p = fault_plan(&sc, 0.25, 64);
        assert_eq!(p.episodes().len(), 1);
        match &p.episodes()[0] {
            FaultEpisode::Partition { groups, span } => {
                assert_eq!(groups[0].len(), 25);
                assert_eq!(span.end, SimTime(episode_end_tick(&sc, 64)));
                assert!(span.start < span.end);
            }
            other => panic!("expected a partition, got {other:?}"),
        }
    }

    /// The acceptance check at reduced scale: after the partition heals,
    /// every system's hit ratio returns to within the tolerance band of
    /// its own pre-fault baseline, in finite time. (The N=500 variant is
    /// the ignored test below.)
    #[test]
    fn all_systems_reconverge_after_partition_heals() {
        let mut sc = Scale::proportional(150, 19);
        sc.warmup_rounds = 25;
        for system in System::ALL {
            let o = run_point(system, &sc, 0.25, false, 0);
            let system = system.name();
            assert!(o.baseline_hit > 0.9, "{system} baseline {}", o.baseline_hit);
            assert!(
                o.episode_hit < o.baseline_hit,
                "{system}: partition must hurt ({} vs {})",
                o.episode_hit,
                o.baseline_hit
            );
            assert!(
                o.recovery_rounds.is_some(),
                "{system} never reconverged (last hit {}, baseline {})",
                o.recovered_hit,
                o.baseline_hit
            );
        }
    }

    /// Overlay-health readings of one severity-0.4 partition run at
    /// `seed`: the mean view age (peak before the episode, peak during
    /// it, last sample) and the dangling-relay count (peak before the
    /// episode, peak from its start on, last sample).
    struct HealthReadings {
        age: [f64; 3],
        violations: [u64; 3],
    }

    fn health_readings(seed: u64) -> HealthReadings {
        let mut sc = Scale::proportional(150, seed);
        sc.warmup_rounds = 25;
        let severity = 0.4;
        let mut params = synthetic_params(&sc, Correlation::Low);
        let period = params.round_period.ticks();
        params.faults = fault_plan(&sc, severity, period);
        let mut sys = System::Vitis.build(params);
        let mut topo: TopoSeries = Some(Vec::new());
        run_system(sys.as_mut(), &sc, severity, period, &mut topo);
        for _ in 0..4 {
            sys.run_rounds(3);
            sample_topo(&mut topo, sys.as_ref(), period);
        }
        // `(round, probe)` of each sample.
        let samples: Vec<(u64, TopoProbe)> = topo
            .unwrap()
            .into_iter()
            .map(|ev| match ev {
                TraceEvent::TopoSample { round, probe, .. } => (round, probe),
                other => panic!("not a topo record: {other:?}"),
            })
            .collect();
        assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
        let ep_start = episode_start_round(&sc);
        let ep_end = ep_start + EPISODE_WINDOWS * WINDOW_ROUNDS;
        let pre: Vec<_> = samples.iter().filter(|s| s.0 <= ep_start).collect();
        let during: Vec<_> = samples
            .iter()
            .filter(|s| s.0 > ep_start && s.0 <= ep_end)
            .collect();
        let from_start: Vec<_> = samples.iter().filter(|s| s.0 > ep_start).collect();
        let (last_round, last) = samples.last().expect("a topo sample");
        assert!(!pre.is_empty() && !during.is_empty() && *last_round > ep_end);
        let age = |s: &&(u64, TopoProbe)| s.1.mean_view_age.unwrap_or(0.0);
        let peak_age = |v: &[&(u64, TopoProbe)]| v.iter().map(age).fold(0.0, f64::max);
        let peak_viol = |v: &[&(u64, TopoProbe)]| v.iter().map(|s| s.1.violations).max().unwrap();
        HealthReadings {
            age: [
                peak_age(&pre),
                peak_age(&during),
                last.mean_view_age.unwrap_or(0.0),
            ],
            violations: [peak_viol(&pre), peak_viol(&from_start), last.violations],
        }
    }

    /// The overlay-health series must show structural decay while the
    /// partition is up and recovery after it heals — the correlate of
    /// the hit-ratio dip the sweep reports. View age is checked per seed;
    /// the dangling-relay count is summed over seeds 19–22, because one
    /// seed's peak is a handful of entries (6–16 over seeds 15–26 with
    /// uniformly shuffled bootstrap lists, 4–20 with slot-rejection
    /// sampling; 0 before the fault on every seed with both).
    #[test]
    fn overlay_health_series_shows_fragmentation_and_recovery() {
        let mut viol = [0u64; 3];
        for seed in 19..=22 {
            let r = health_readings(seed);
            let [pre_age, ep_age, final_age] = r.age;
            // Gossip-layer decay: views starve while the partition blocks
            // refreshes, so the mean view age spikes during the episode...
            assert!(
                ep_age > 1.5 * pre_age,
                "seed {seed}: no view-age decay: episode {ep_age} vs pre-fault {pre_age}"
            );
            // ...and returns to the pre-fault regime after the heal.
            assert!(
                final_age < 1.5 * pre_age,
                "seed {seed}: view age did not recover: {final_age} vs pre-fault {pre_age}"
            );
            for (sum, v) in viol.iter_mut().zip(r.violations) {
                *sum += v;
            }
        }
        // Relay-layer decay: backlinks expire (RELAY_TTL) while locally
        // refreshed upstream beliefs persist, so dangling-relay audit
        // violations surge through the episode and the repair churn just
        // after the heal, then clear as refreshes re-install both ends.
        let [pre_viol, decay_viol, final_viol] = viol;
        assert!(
            decay_viol > 3 * pre_viol.max(1),
            "no relay decay: peak {decay_viol} vs pre-fault {pre_viol}"
        );
        assert!(
            final_viol < decay_viol / 4,
            "relay damage did not heal: {final_viol} vs peak {decay_viol}"
        );
    }

    /// The repair layer must close part of the fault-time loss gap: at
    /// identical seeds, the run with anti-entropy on recovers deliveries
    /// through pulls, pays a nonzero (bounded) wire-cost, and ends the
    /// post-heal attribution with strictly fewer `Network` losses.
    #[test]
    fn repair_reduces_fault_time_network_losses() {
        let mut sc = Scale::proportional(150, 19);
        sc.warmup_rounds = 25;
        let off = run_point(System::Vitis, &sc, 0.25, false, 0);
        let on = run_point(System::Vitis, &sc, 0.25, true, 1);
        assert_eq!(off.recovered_deliveries, 0, "repair off must never recover");
        assert_eq!(off.repair_msgs, 0, "repair off must send no ae_* traffic");
        assert!(off.fault_net_losses > 0, "partition must drop something");
        assert!(on.recovered_deliveries > 0, "repair on must recover");
        assert!(
            on.repair_msgs > 0,
            "repair on must be accounted in the ledger"
        );
        assert!(
            on.fault_net_losses < off.fault_net_losses,
            "repair must shrink Network losses: {} vs {}",
            on.fault_net_losses,
            off.fault_net_losses
        );
    }

    #[test]
    #[ignore = "slow (N=500 acceptance run): cargo test --release -- --ignored"]
    fn n500_repair_strictly_reduces_network_losses() {
        let mut sc = Scale::proportional(500, 42);
        sc.warmup_rounds = 30;
        for system in System::ALL {
            let off = run_point(system, &sc, 0.25, false, 0);
            let on = run_point(system, &sc, 0.25, true, 1);
            let system = system.name();
            assert!(
                on.fault_net_losses < off.fault_net_losses,
                "{system}: repair did not shrink Network losses ({} vs {})",
                on.fault_net_losses,
                off.fault_net_losses
            );
            assert!(on.recovered_deliveries > 0, "{system}: nothing recovered");
        }
    }

    #[test]
    #[ignore = "slow (N=500 acceptance run): cargo test --release -- --ignored"]
    fn n500_partition_heal_recovers_within_band() {
        let mut sc = Scale::proportional(500, 42);
        sc.warmup_rounds = 30;
        for system in System::ALL {
            let o = run_point(system, &sc, 0.25, false, 0);
            let system = system.name();
            assert!(
                o.recovery_rounds.is_some(),
                "{system}: infinite recovery time (last {}, baseline {})",
                o.recovered_hit,
                o.baseline_hit
            );
            assert!(
                o.recovered_hit >= o.baseline_hit - TOLERANCE,
                "{system}: recovered hit {} not within 2% of baseline {}",
                o.recovered_hit,
                o.baseline_hit
            );
        }
    }
}
