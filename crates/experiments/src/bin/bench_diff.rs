//! Compare two BENCH files (`vitis-bench-v1`) and gate on regressions.
//!
//! ```text
//! bench-diff BASELINE.json CURRENT.json [--tolerance PCT]
//! ```
//!
//! Every metric name present in **both** files is compared; names unique
//! to one side are listed but never gate (the ladder may legitimately
//! grow or shrink with `--max-nodes`). The unit decides the direction:
//! time units (`ms`/`us`/`ns`) and `bytes` regress when the current value
//! rises more than the tolerance above baseline, `per_sec` regresses when
//! it falls more than the tolerance below, and informational units
//! (`count`, `ratio`) are printed for context only. Exit status 1 when any
//! gated metric regressed, 2 on usage or parse errors — and 2 when the
//! files have no gated metric in common, so a gate pointed at the wrong
//! file (or at a successor whose names all changed) fails instead of
//! passing on nothing.
//!
//! Wall-clock benchmarks are noisy; the default tolerance is 25%, wide
//! enough that CI only trips on structural slowdowns.

use std::process::ExitCode;
use vitis_experiments::benchfmt::{self, BenchEntry, Direction};

/// Default tolerance, percent.
const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<&String> = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE_PCT;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => return usage("--tolerance needs a non-negative number (percent)"),
            },
            "--help" | "-h" => return usage(""),
            _ if !a.starts_with('-') => files.push(a),
            other => return usage(&format!("unexpected argument: {other}")),
        }
    }
    let [baseline_path, current_path] = files[..] else {
        return usage("need exactly two BENCH files: baseline and current");
    };
    let baseline = match load(baseline_path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match load(current_path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {current_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut regressions = 0usize;
    let mut compared = 0usize;
    println!("# bench-diff: {baseline_path} -> {current_path} (tolerance {tolerance}%)");
    for b in &baseline {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            println!("  only-in-baseline  {}", b.name);
            continue;
        };
        if !b.value.is_finite() || !c.value.is_finite() || b.value == 0.0 {
            println!("  skip              {} (non-finite or zero baseline)", b.name);
            continue;
        }
        let delta_pct = (c.value - b.value) / b.value * 100.0;
        let verdict = match benchfmt::direction_of(&b.unit) {
            Direction::Informational => "info",
            Direction::LowerIsBetter => {
                compared += 1;
                if delta_pct > tolerance {
                    regressions += 1;
                    "REGRESSED"
                } else {
                    "ok"
                }
            }
            Direction::HigherIsBetter => {
                compared += 1;
                if delta_pct < -tolerance {
                    regressions += 1;
                    "REGRESSED"
                } else {
                    "ok"
                }
            }
        };
        println!(
            "  {verdict:<17} {} {:.6} -> {:.6} {} ({delta_pct:+.1}%)",
            b.name, b.value, c.value, b.unit
        );
    }
    for c in &current {
        if !baseline.iter().any(|b| b.name == c.name) {
            println!("  only-in-current   {}", c.name);
        }
    }
    println!("# {compared} gated metrics compared, {regressions} regressed");
    if compared == 0 {
        eprintln!(
            "error: {baseline_path} and {current_path} share no gated metric: nothing was compared"
        );
        return ExitCode::from(2);
    }
    if regressions > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn load(path: &str) -> Result<Vec<BenchEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    benchfmt::parse(&text)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: bench-diff BASELINE.json CURRENT.json [--tolerance PCT]\n\
         \tCompares vitis-bench-v1 files (from `vitis-experiments scale` or\n\
         \t`meso_timing`). Time units and bytes gate on increases, per_sec on\n\
         \tdecreases, count/ratio are informational. Default tolerance: 25%.\n\
         \tExit 1 on regression, 2 on bad input (including two files with no\n\
         \tgated metric in common)."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
