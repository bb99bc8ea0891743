//! Whole-system benchmarks: cost of one gossip round and of one full
//! publish wave for each of the three systems, at two network sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vitis::system::{PubSub, SystemParams, VitisSystem};
use vitis::topic::{TopicId, TopicSet};
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

fn bench_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip_round");
    g.sample_size(10);
    for &n in &[250usize, 600] {
        g.bench_with_input(BenchmarkId::new("vitis", n), &n, |b, &n| {
            let mut sys = VitisSystem::new(params(n));
            sys.run_rounds(20); // steady state
            b.iter(|| sys.run_rounds(1));
        });
        g.bench_with_input(BenchmarkId::new("rvr", n), &n, |b, &n| {
            let mut sys = RvrSystem::new(params(n));
            sys.run_rounds(20);
            b.iter(|| sys.run_rounds(1));
        });
        g.bench_with_input(BenchmarkId::new("opt", n), &n, |b, &n| {
            let mut sys = OptSystem::new(params(n));
            sys.run_rounds(20);
            b.iter(|| sys.run_rounds(1));
        });
    }
    g.finish();
}

/// Dissemination meso-bench: one measured burst end to end — publish a
/// rate-weighted batch, drain it over enough rounds that notifications
/// reach the whole subscriber set, then reset. Exercises the full
/// runtime path (publish scheduling → engine rounds → monitor
/// accounting) rather than a single round in isolation.
fn bench_dissemination(c: &mut Criterion) {
    let mut g = c.benchmark_group("dissemination");
    g.sample_size(10);
    let n = 400;
    g.bench_function("vitis", |b| {
        let mut sys = VitisSystem::new(params(n));
        sys.run_rounds(30);
        b.iter(|| {
            for _ in 0..20 {
                sys.publish_weighted();
            }
            sys.run_rounds(5);
            sys.reset_metrics();
        });
    });
    g.bench_function("rvr", |b| {
        let mut sys = RvrSystem::new(params(n));
        sys.run_rounds(30);
        b.iter(|| {
            for _ in 0..20 {
                sys.publish_weighted();
            }
            sys.run_rounds(5);
            sys.reset_metrics();
        });
    });
    g.bench_function("opt", |b| {
        let mut sys = OptSystem::new(params(n));
        sys.run_rounds(30);
        b.iter(|| {
            for _ in 0..20 {
                sys.publish_weighted();
            }
            sys.run_rounds(5);
            sys.reset_metrics();
        });
    });
    g.finish();
}

/// Construction cost including the params clone a three-system
/// comparison pays per system — the path subscription interning is
/// meant to cheapen.
fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("system_build");
    g.sample_size(10);
    let n = 600;
    let p = params(n);
    g.bench_function("vitis", |b| {
        b.iter(|| VitisSystem::new(p.clone()));
    });
    g.bench_function("rvr", |b| {
        b.iter(|| RvrSystem::new(p.clone()));
    });
    g.bench_function("opt", |b| {
        b.iter(|| OptSystem::new(p.clone()));
    });
    g.finish();
}

fn bench_publish_wave(c: &mut Criterion) {
    let mut g = c.benchmark_group("publish_wave_50_events");
    g.sample_size(10);
    let n = 300;
    g.bench_function("vitis", |b| {
        let mut sys = VitisSystem::new(params(n));
        sys.run_rounds(40);
        b.iter(|| {
            for t in 0..50 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(3);
        });
    });
    g.bench_function("rvr", |b| {
        let mut sys = RvrSystem::new(params(n));
        sys.run_rounds(40);
        b.iter(|| {
            for t in 0..50 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(3);
        });
    });
    g.finish();
}

/// What an activation costs the engine when the handler does nothing, at
/// three node-state sizes (see `vitis_bench::dispatch`): the same, as
/// long as dispatch does not move the node.
fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    g.sample_size(10);
    for (bytes, mut run) in vitis_bench::dispatch::cases(2000) {
        g.bench_function(BenchmarkId::new("null_round_2000_nodes", bytes), |b| {
            b.iter(|| run(1));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_round,
    bench_dissemination,
    bench_build,
    bench_publish_wave
);
criterion_main!(benches);
