//! `bench-diff`'s exit status, driven through the built binary: a gate
//! that compared nothing must not pass.

use std::path::PathBuf;
use std::process::Command;
use vitis_experiments::benchfmt::{render, BenchEntry};

fn bench_file(name: &str, entries: &[BenchEntry]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench_diff_{}_{name}.json", std::process::id()));
    std::fs::write(&path, render(entries)).expect("write BENCH file");
    path
}

/// Run `bench-diff` on the two files, then remove them.
fn exit_code(baseline: &PathBuf, current: &PathBuf) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args([baseline, current])
        .output()
        .expect("run bench-diff");
    for file in [baseline, current] {
        std::fs::remove_file(file).expect("remove BENCH file");
    }
    out.status.code()
}

#[test]
fn files_with_no_gated_metric_in_common_are_bad_input() {
    let a = bench_file(
        "disjoint_a",
        &[
            BenchEntry::new("scale/vitis/2000/warmup_ms", 100.0, "ms"),
            BenchEntry::new("scale/vitis/2000/hit_ratio", 0.9, "ratio"),
        ],
    );
    let b = bench_file(
        "disjoint_b",
        &[
            BenchEntry::new("gossip_round/vitis/500", 100.0, "us"),
            // Shared, but informational: still nothing gated in common.
            BenchEntry::new("scale/vitis/2000/hit_ratio", 0.9, "ratio"),
        ],
    );
    assert_eq!(exit_code(&a, &b), Some(2));
}

#[test]
fn a_shared_row_within_tolerance_passes() {
    let a = bench_file(
        "shared_a",
        &[BenchEntry::new("scale/vitis/2000/warmup_ms", 100.0, "ms")],
    );
    let b = bench_file(
        "shared_b",
        &[
            BenchEntry::new("scale/vitis/2000/warmup_ms", 110.0, "ms"),
            BenchEntry::new("scale/vitis/5000/warmup_ms", 500.0, "ms"),
        ],
    );
    assert_eq!(exit_code(&a, &b), Some(0));
}

#[test]
fn a_peak_bytes_row_grown_past_tolerance_fails_the_gate() {
    let rows = |peak: f64| {
        [
            BenchEntry::new("scale/vitis/2000/warmup_ms", 100.0, "ms"),
            BenchEntry::new("scale/vitis/2000/peak_bytes", peak, "bytes"),
            // Counts never gate, whatever they do.
            BenchEntry::new("scale/vitis/2000/delivered", peak, "count"),
        ]
    };
    let grown = bench_file("bytes_grown", &rows(65e6));
    assert_eq!(
        exit_code(&bench_file("bytes_a", &rows(50e6)), &grown),
        Some(1)
    );
    let flat = bench_file("bytes_flat", &rows(55e6));
    assert_eq!(
        exit_code(&bench_file("bytes_b", &rows(50e6)), &flat),
        Some(0)
    );
}
