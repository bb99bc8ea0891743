//! The span profiler under parallel sweep workers: every worker thread
//! keeps its own span stack, and the per-path aggregate merged into the
//! global registry must be exact — the same counts as a sequential run,
//! regardless of scheduling.

use rayon::prelude::*;
use vitis_sim::perf;

#[test]
fn span_aggregation_is_deterministic_by_label_under_rayon() {
    perf::set_enabled(true);
    perf::reset_spans();

    const POINTS: usize = 64;
    const INNER: usize = 5;
    let results: Vec<u64> = (0..POINTS as u64)
        .into_par_iter()
        .map(|i| {
            let _sweep = perf::span("sweep_point");
            let mut acc = i;
            for _ in 0..INNER {
                let _step = perf::span("simulate");
                // Deterministic busy work standing in for one run.
                for k in 0..500u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
            }
            {
                let _collect = perf::span("collect");
                acc ^= acc >> 33;
            }
            acc
        })
        .collect();
    assert_eq!(results.len(), POINTS);

    perf::set_enabled(false);
    let spans = perf::take_spans();
    let stat = |path: &str| {
        spans
            .iter()
            .find(|(p, _)| p == path)
            .unwrap_or_else(|| panic!("missing span path {path:?}"))
            .1
    };

    // Counts are exact no matter how Rayon scheduled the points.
    assert_eq!(stat("sweep_point").count, POINTS as u64);
    assert_eq!(stat("sweep_point;simulate").count, (POINTS * INNER) as u64);
    assert_eq!(stat("sweep_point;collect").count, POINTS as u64);
    // Only the three folded paths exist — no cross-thread path bleed.
    assert_eq!(spans.len(), 3);
    // Parent totals dominate child totals; self + children ≈ total.
    let parent = stat("sweep_point");
    let children = stat("sweep_point;simulate").total_ns + stat("sweep_point;collect").total_ns;
    assert!(parent.total_ns >= children);
    assert!(parent.self_ns <= parent.total_ns);

    // A second identical sweep merges into a drained registry with the
    // same counts: aggregation is a pure function of the label structure.
    perf::set_enabled(true);
    let again: Vec<u64> = (0..POINTS as u64)
        .into_par_iter()
        .map(|i| {
            let _sweep = perf::span("sweep_point");
            for _ in 0..INNER {
                let _step = perf::span("simulate");
            }
            let _collect = perf::span("collect");
            i
        })
        .collect();
    perf::set_enabled(false);
    assert_eq!(again.len(), POINTS);
    let spans2 = perf::take_spans();
    let counts: Vec<(String, u64)> = spans2.iter().map(|(p, s)| (p.clone(), s.count)).collect();
    assert_eq!(
        counts,
        vec![
            ("sweep_point".to_string(), POINTS as u64),
            ("sweep_point;collect".to_string(), POINTS as u64),
            ("sweep_point;simulate".to_string(), (POINTS * INNER) as u64),
        ]
    );
}
