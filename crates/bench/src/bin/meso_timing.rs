//! Meso-scale wall-clock timings.
//!
//! Times four groups — `gossip_round`, `dissemination`, `system_build` and
//! `dispatch` — with plain `std::time::Instant`. Emits medians
//! (microseconds; nanoseconds per activation for `dispatch`) in the shared
//! `vitis-bench-v1` BENCH schema (`vitis_experiments::benchfmt`) — the
//! same format as `vitis-experiments scale` — so any two reports diff
//! with the `bench-diff` binary:
//!
//! ```text
//! cargo run -p vitis-bench --release --bin meso_timing [-- --out FILE]
//! ```

use std::time::Instant;
use vitis_experiments::benchfmt::{self, BenchEntry};
use vitis::system::{PubSub, SystemParams, VitisSystem};
use vitis::topic::TopicSet;
use vitis_baselines::{OptSystem, RvrSystem};
use vitis_workloads::{Correlation, SubscriptionModel};

fn params(n: usize) -> SystemParams {
    let model = SubscriptionModel {
        num_nodes: n,
        num_topics: n / 2,
        num_buckets: (n / 100).max(4),
        subs_per_node: 25,
        correlation: Correlation::Low,
    };
    let subs: Vec<TopicSet> = model
        .generate(7)
        .into_iter()
        .map(TopicSet::from_iter)
        .collect();
    let mut p = SystemParams::new(subs, model.num_topics);
    p.seed = 7;
    p
}

/// Median over `samples` calls of `sample`.
fn median(samples: usize, sample: impl FnMut() -> f64) -> f64 {
    let mut times: Vec<f64> = std::iter::repeat_with(sample).take(samples).collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let mid = times.len() / 2;
    if times.len().is_multiple_of(2) {
        (times[mid - 1] + times[mid]) / 2.0
    } else {
        times[mid]
    }
}

/// Median wall time in microseconds over `samples` runs of `f`.
fn median_us(samples: usize, mut f: impl FnMut()) -> f64 {
    median(samples, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e6
    })
}

fn round_bench(sys: &mut dyn PubSub, samples: usize) -> f64 {
    sys.run_rounds(20);
    median_us(samples, || sys.run_rounds(1))
}

fn dissemination_bench(sys: &mut dyn PubSub, samples: usize) -> f64 {
    sys.run_rounds(30);
    median_us(samples, || {
        for _ in 0..20 {
            sys.publish_weighted();
        }
        sys.run_rounds(5);
        sys.reset_metrics();
    })
}

fn main() {
    const SAMPLES: usize = 15;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => {
                    eprintln!("error: --out needs a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("usage: meso_timing [--out FILE]   (unexpected argument: {other})");
                std::process::exit(2);
            }
        }
    }
    let mut entries: Vec<(String, f64)> = Vec::new();

    for &n in &[250usize, 600] {
        entries.push((
            format!("gossip_round/vitis/{n}"),
            round_bench(&mut VitisSystem::new(params(n)), SAMPLES),
        ));
        entries.push((
            format!("gossip_round/rvr/{n}"),
            round_bench(&mut RvrSystem::new(params(n)), SAMPLES),
        ));
        entries.push((
            format!("gossip_round/opt/{n}"),
            round_bench(&mut OptSystem::new(params(n)), SAMPLES),
        ));
    }

    let n = 400;
    entries.push((
        format!("dissemination/vitis/{n}"),
        dissemination_bench(&mut VitisSystem::new(params(n)), SAMPLES),
    ));
    entries.push((
        format!("dissemination/rvr/{n}"),
        dissemination_bench(&mut RvrSystem::new(params(n)), SAMPLES),
    ));
    entries.push((
        format!("dissemination/opt/{n}"),
        dissemination_bench(&mut OptSystem::new(params(n)), SAMPLES),
    ));

    let n = 600;
    let p = params(n);
    entries.push((
        format!("system_build/vitis/{n}"),
        median_us(SAMPLES, || drop(VitisSystem::new(p.clone()))),
    ));
    entries.push((
        format!("system_build/rvr/{n}"),
        median_us(SAMPLES, || drop(RvrSystem::new(p.clone()))),
    ));
    entries.push((
        format!("system_build/opt/{n}"),
        median_us(SAMPLES, || drop(OptSystem::new(p.clone()))),
    ));

    let mut bench: Vec<BenchEntry> = entries
        .into_iter()
        .map(|(name, us)| BenchEntry::new(name, (us * 10.0).round() / 10.0, "us"))
        .collect();

    // Null activations at three node-state sizes: equal, to within cache
    // effects, as long as dispatch does not move the node.
    for (bytes, mut run) in vitis_bench::dispatch::cases(2000) {
        let ns = median(SAMPLES, || run(20));
        let name = format!("dispatch/null_activation/{bytes}");
        bench.push(BenchEntry::new(name, (ns * 10.0).round() / 10.0, "ns"));
    }
    let text = benchfmt::render(&bench);
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {} BENCH entries to {path}", bench.len());
        }
        None => print!("{text}"),
    }
}
