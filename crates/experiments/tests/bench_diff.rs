//! `bench-diff`'s exit status, driven through the built binary: a gate
//! that compared nothing must not pass, and bytes are held to the lowest
//! value on record.

use std::path::{Path, PathBuf};
use std::process::Command;
use vitis_experiments::benchfmt::{render, BenchEntry};

fn bench_file(name: &str, entries: &[BenchEntry]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench_diff_{}_{name}.json", std::process::id()));
    std::fs::write(&path, render(entries)).expect("write BENCH file");
    path
}

/// Run `bench-diff` on the two files, then remove them.
fn exit_code(baseline: &Path, current: &Path) -> Option<i32> {
    exit_code_of(&[baseline.to_path_buf(), current.to_path_buf()])
}

/// Run `bench-diff` on `files` (baselines oldest first, then the current
/// one), then remove them.
fn exit_code_of(files: &[PathBuf]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(files)
        .output()
        .expect("run bench-diff");
    for file in files {
        std::fs::remove_file(file).expect("remove BENCH file");
    }
    out.status.code()
}

#[test]
fn one_file_is_bad_input() {
    let only = bench_file(
        "only",
        &[BenchEntry::new("scale/vitis/2000/warmup_ms", 100.0, "ms")],
    );
    assert_eq!(exit_code_of(&[only]), Some(2));
}

#[test]
fn bytes_are_held_to_the_lowest_baseline_and_time_to_the_newest() {
    let rows = |warmup: f64, peak: f64| {
        [
            BenchEntry::new("scale/vitis/2000/warmup_ms", warmup, "ms"),
            BenchEntry::new("scale/vitis/2000/peak_bytes", peak, "bytes"),
        ]
    };
    // Bytes crept up by less than the tolerance per baseline: 40 → 48 →
    // 56 MB beats the newest baseline (+16.7 %) and exceeds the lowest by
    // 40 %.
    let files = [
        bench_file("lowest_old", &rows(100.0, 40e6)),
        bench_file("lowest_new", &rows(100.0, 48e6)),
        bench_file("lowest_cur", &rows(100.0, 56e6)),
    ];
    assert_eq!(exit_code_of(&files), Some(1));
    // Within the tolerance of the lowest passes, wherever that lowest is.
    let files = [
        bench_file("within_old", &rows(100.0, 40e6)),
        bench_file("within_new", &rows(100.0, 60e6)),
        bench_file("within_cur", &rows(100.0, 45e6)),
    ];
    assert_eq!(exit_code_of(&files), Some(0));
    // A bytes row only an older baseline holds still gates.
    let files = [
        bench_file("older_old", &rows(100.0, 40e6)),
        bench_file(
            "older_new",
            &[BenchEntry::new("scale/vitis/2000/warmup_ms", 100.0, "ms")],
        ),
        bench_file("older_cur", &rows(100.0, 56e6)),
    ];
    assert_eq!(exit_code_of(&files), Some(1));
    // Time rows compare against the newest baseline only: twice the
    // oldest's warm-up, but within the tolerance of the newest, passes.
    let files = [
        bench_file("time_old", &rows(50.0, 40e6)),
        bench_file("time_new", &rows(90.0, 40e6)),
        bench_file("time_cur", &rows(100.0, 40e6)),
    ];
    assert_eq!(exit_code_of(&files), Some(0));
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
