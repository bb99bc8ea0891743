//! The `scale` subcommand: a node-count sweep benchmarking all three
//! systems, emitting per-phase wall-clock, peak memory and dissemination
//! throughput in the shared BENCH format ([`crate::benchfmt`]).
//!
//! Points run **sequentially** (unlike the Rayon figure sweeps) so the
//! allocator peak measured after each point belongs to that point alone:
//! [`vitis_sim::perf::reset_mem_peak`] rebases the high-water mark before
//! each system is built. Wall-clock numbers never feed simulation state —
//! the simulations themselves stay bit-deterministic for a fixed seed.
//!
//! The default ladder stops at 10 000 nodes (the paper's scale, and what
//! CI's deep job can afford); `--max-nodes 1000000` unlocks the full
//! trajectory. Rungs above the paper scale switch to a reduced *frontier*
//! plan (fewer rounds/events, Vitis only) so the 100k–1M points measure
//! engine scaling without paying the baselines' superlinear costs; the
//! sweep logs exactly what each rung runs, and `--budget-secs` caps the
//! total wall-clock by skipping whole rungs once the budget is spent.

use crate::benchfmt::BenchEntry;
use crate::obs::Obs;
use crate::runner::{measure_obs, synthetic_params, PhaseMs, PublishPlan};
use crate::scale::Scale;
use std::time::Instant;
use vitis_baselines::System;
use vitis_sim::perf;
use vitis_workloads::Correlation;

/// The full node-count trajectory. Entries above `max_nodes` are skipped
/// (the 100k–1M points take serious wall-clock and memory).
pub const LADDER: [usize; 9] = [
    2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
];

/// Default `--max-nodes`: the paper's 10 000-node setting.
pub const DEFAULT_MAX_NODES: usize = 10_000;

/// Largest rung that runs the full three-system paper plan; larger rungs
/// use the reduced frontier plan and benchmark Vitis only.
pub const PAPER_PLAN_MAX: usize = 10_000;

/// One benchmarked (system, node-count) point.
#[derive(Clone, Debug)]
pub struct BenchPoint {
    /// System label (`vitis` / `rvr` / `opt`).
    pub system: &'static str,
    /// Node count of this point.
    pub nodes: usize,
    /// Wall-clock per phase, milliseconds.
    pub ms: PhaseMs,
    /// Allocator peak since the point started (0 without `perf-alloc`).
    pub peak_bytes: u64,
    /// Allocator live bytes at the end of the run, less what was live
    /// before the system was built (0 without `perf-alloc`).
    pub live_bytes: u64,
    /// The system's structural footprint by owner at the end of the run
    /// ([`vitis::system::PubSub::footprint`]).
    pub footprint: Vec<(&'static str, u64)>,
    /// Deliveries achieved in the window.
    pub delivered: u64,
    /// Deliveries per wall-clock second over measure + drain.
    pub deliveries_per_sec: f64,
    /// Hit ratio of the window (sanity context, never gated).
    pub hit_ratio: f64,
}

impl BenchPoint {
    /// Flatten into BENCH entries named `scale/{system}/{nodes}/...`:
    /// `footprint_bytes` is the sum of the `mem/{owner}_bytes` rows, and
    /// `peak_bytes` / `live_bytes` appear only when the counting allocator
    /// measured them.
    pub fn entries(&self) -> Vec<BenchEntry> {
        let footprint: u64 = self.footprint.iter().map(|&(_, bytes)| bytes).sum();
        let name = |metric: &str| format!("scale/{}/{}/{metric}", self.system, self.nodes);
        let mut rows = vec![
            ("build_ms", self.ms.build, "ms"),
            ("warmup_ms", self.ms.warmup, "ms"),
            ("measure_ms", self.ms.measure, "ms"),
            ("drain_ms", self.ms.drain, "ms"),
            ("deliveries_per_sec", self.deliveries_per_sec, "per_sec"),
            ("footprint_bytes", footprint as f64, "bytes"),
            ("delivered", self.delivered as f64, "count"),
            ("hit_ratio", self.hit_ratio, "ratio"),
        ];
        if self.peak_bytes > 0 {
            rows.push(("peak_bytes", self.peak_bytes as f64, "bytes"));
            rows.push(("live_bytes", self.live_bytes as f64, "bytes"));
        }
        let split = self.footprint.iter().map(|&(owner, bytes)| {
            BenchEntry::new(name(&format!("mem/{owner}_bytes")), bytes as f64, "bytes")
        });
        rows.into_iter()
            .map(|(metric, value, unit)| BenchEntry::new(name(metric), value, unit))
            .chain(split)
            .collect()
    }
}

/// The sweep's measurement plan at `nodes`: paper proportions, but a
/// fixed-size publish window so throughput numbers compare across the
/// ladder (the work per event grows with N; the event count must not).
pub fn sweep_scale(nodes: usize, seed: u64) -> Scale {
    let mut s = Scale::proportional(nodes, seed);
    s.warmup_rounds = 30;
    s.events = 200;
    s.drain_rounds = 8;
    s
}

/// The reduced measurement plan for rungs beyond the paper scale: enough
/// rounds to exercise steady-state gossip and a publish window, small
/// enough that a 1M-node rung finishes in minutes rather than hours.
/// Numbers from the same rung remain comparable across commits (the plan
/// is keyed on `nodes` only); they are *not* comparable to `sweep_scale`
/// rungs, which is why the ladder never mixes plans at one node count.
pub fn frontier_scale(nodes: usize, seed: u64) -> Scale {
    let mut s = Scale::proportional(nodes, seed);
    if nodes > 100_000 {
        s.warmup_rounds = 5;
        s.events = 50;
        s.drain_rounds = 3;
    } else {
        s.warmup_rounds = 10;
        s.events = 100;
        s.drain_rounds = 4;
    }
    s
}

/// The plan for `nodes`: the paper plan up to [`PAPER_PLAN_MAX`], the
/// frontier plan above it.
pub fn plan_for(nodes: usize, seed: u64) -> Scale {
    if nodes <= PAPER_PLAN_MAX {
        sweep_scale(nodes, seed)
    } else {
        frontier_scale(nodes, seed)
    }
}

/// Run point `index` of the sweep: one system at one node count, through
/// the same [`measure_obs`] window as every figure, under the run id
/// `scale/<system>-<nodes>#<index>` — so with `--trace-out` or
/// `--metrics-out` the point's records leave through [`Obs`]'s sinks the
/// moment it completes, stamped and headed by `trace_meta` like any other
/// run's, and an aborted sweep keeps every finished point's records.
pub fn bench_point(system: System, scale: &Scale, index: usize) -> BenchPoint {
    perf::reset_mem_peak();

    let label = format!("{}-{}", system.name(), scale.nodes);
    let ctx = Obs::global().start("scale", &label, index);
    let params = synthetic_params(scale, Correlation::High);
    let live_before = perf::mem_snapshot().live_bytes;
    let mut sys = system.build(params);
    let (stats, ms) = measure_obs(sys.as_mut(), scale, PublishPlan::RoundRobin, ctx);
    let mem = perf::mem_snapshot();

    let window_secs = (ms.measure + ms.drain) / 1e3;
    BenchPoint {
        system: system.name(),
        nodes: scale.nodes,
        ms,
        peak_bytes: mem.peak_bytes,
        live_bytes: mem.live_bytes.saturating_sub(live_before),
        footprint: sys.footprint(),
        delivered: stats.delivered,
        deliveries_per_sec: if window_secs > 0.0 {
            stats.delivered as f64 / window_secs
        } else {
            0.0
        },
        hit_ratio: stats.hit_ratio,
    }
}

/// Run the sweep over every ladder point `<= max_nodes`, returning the
/// flattened BENCH entries. Rungs up to [`PAPER_PLAN_MAX`] run all three
/// systems on the paper plan; larger rungs run Vitis only on the reduced
/// frontier plan (logged per rung — nothing is skipped silently).
///
/// `budget_secs` (when given) caps total wall-clock: once spent, the
/// remaining rungs are skipped with a log line. Progress goes to stderr,
/// and `on_point` sees every finished point.
pub fn run_sweep(
    max_nodes: usize,
    seed: u64,
    budget_secs: Option<u64>,
    mut on_point: impl FnMut(&BenchPoint),
) -> Vec<BenchEntry> {
    let started = Instant::now();
    let mut entries = Vec::new();
    let mut index = 0;
    let ladder: Vec<usize> = LADDER.iter().copied().filter(|&n| n <= max_nodes).collect();
    let skipped = LADDER.len() - ladder.len();
    if skipped > 0 {
        eprintln!(
            "scale: stopping at {max_nodes} nodes ({skipped} larger ladder points skipped; \
             raise --max-nodes for the full trajectory)"
        );
    }
    for &nodes in &ladder {
        if budget_secs.is_some_and(|b| started.elapsed().as_secs() >= b) {
            eprintln!(
                "scale: wall-clock budget ({}s) spent — skipping the {nodes}-node rung and \
                 everything above it",
                budget_secs.unwrap_or(0)
            );
            break;
        }
        let scale = plan_for(nodes, seed);
        let systems = if nodes <= PAPER_PLAN_MAX {
            &System::ALL[..]
        } else {
            eprintln!(
                "scale: {nodes} nodes uses the frontier plan (warmup {}, events {}, drain {}) \
                 and benchmarks vitis only",
                scale.warmup_rounds, scale.events, scale.drain_rounds
            );
            &System::ALL[..1]
        };
        for &system in systems {
            eprintln!("scale: {} @ {nodes} nodes...", system.name());
            let point = bench_point(system, &scale, index);
            index += 1;
            on_point(&point);
            entries.extend(point.entries());
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_scale_fixes_the_window() {
        let s = sweep_scale(2_000, 42);
        assert_eq!(s.events, 200);
        assert_eq!(s.warmup_rounds, 30);
        assert_eq!(s.drain_rounds, 8);
        assert_eq!(s.topics, 1_000); // paper proportions preserved
    }

    #[test]
    fn tiny_sweep_emits_full_entry_set() {
        // Below the real ladder: drive bench_point directly at toy size so
        // the test stays fast while exercising the whole path.
        let scale = {
            let mut s = sweep_scale(200, 7);
            s.warmup_rounds = 15;
            s.events = 30;
            s
        };
        let point = bench_point(System::Vitis, &scale, 0);
        assert_eq!(point.nodes, 200);
        assert!(point.delivered > 0, "toy sweep must deliver events");
        assert!(point.deliveries_per_sec > 0.0);
        let entries = point.entries();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"scale/vitis/200/measure_ms"));
        assert!(names.contains(&"scale/vitis/200/deliveries_per_sec"));
        // The split names every owner and sums to the footprint row.
        let value = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.value);
        let split: f64 = entries
            .iter()
            .filter(|e| e.name.starts_with("scale/vitis/200/mem/"))
            .map(|e| e.value)
            .sum();
        assert!(split > 0.0);
        assert_eq!(value("scale/vitis/200/footprint_bytes"), Some(split));
        for owner in ["slots", "queue", "monitor", "substrate", "relay", "gateway"] {
            let row = format!("scale/vitis/200/mem/{owner}_bytes");
            assert!(value(&row).is_some_and(|b| b > 0.0), "{row}");
        }
        // The allocator's rows appear only when it is counting.
        for row in ["scale/vitis/200/peak_bytes", "scale/vitis/200/live_bytes"] {
            assert_eq!(names.contains(&row), cfg!(feature = "perf-alloc"), "{row}");
        }
    }

    #[test]
    fn ladder_is_bounded_by_max_nodes() {
        let within: Vec<usize> = LADDER.iter().copied().filter(|&n| n <= 10_000).collect();
        assert_eq!(within, vec![2_000, 5_000, 10_000]);
    }

    #[test]
    fn ladder_reaches_one_million() {
        assert_eq!(*LADDER.last().unwrap(), 1_000_000);
        // Strictly increasing: one plan per node count, no duplicate rungs.
        assert!(LADDER.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn plans_split_at_the_paper_scale() {
        // Paper rungs keep the PR6 plan byte-for-byte so BENCH numbers
        // stay comparable across PRs.
        let paper = plan_for(10_000, 42);
        assert_eq!(
            (paper.warmup_rounds, paper.events, paper.drain_rounds),
            (30, 200, 8)
        );
        let mid = plan_for(50_000, 42);
        assert_eq!((mid.warmup_rounds, mid.events, mid.drain_rounds), (10, 100, 4));
        let big = plan_for(500_000, 42);
        assert_eq!((big.warmup_rounds, big.events, big.drain_rounds), (5, 50, 3));
        // Proportional workload shape is preserved at every tier.
        assert_eq!(big.nodes, 500_000);
    }

    #[test]
    fn zero_budget_skips_every_rung() {
        let entries = run_sweep(10_000, 42, Some(0), |_| {
            panic!("no point should run under a zero budget")
        });
        assert!(entries.is_empty());
    }
}
