//! Compare BENCH files (`vitis-bench-v1`) and gate on regressions.
//!
//! ```text
//! bench-diff BASELINE.json... CURRENT.json [--tolerance PCT]
//! ```
//!
//! The last file is the current one; the files before it are baselines,
//! oldest first. A row is compared when the current file and a baseline
//! both name it; names unique to one side are listed but never gate (the
//! ladder may legitimately grow or shrink with `--max-nodes`). The unit
//! decides the direction and the reference:
//! - time units (`ms`/`us`/`ns`) regress when the current value rises more
//!   than the tolerance above the newest baseline's, and `per_sec` when it
//!   falls more than the tolerance below it;
//! - `bytes` regress when the current value rises more than the tolerance
//!   above the *lowest* value any baseline holds for the row, so bytes
//!   cannot creep up by less than a tolerance per baseline;
//! - informational units (`count`, `ratio`) are printed for context only.
//!
//! Exit status 1 when any gated row regressed, 2 on usage or parse
//! errors — and 2 when no gated row was compared, so a gate pointed at the
//! wrong file (or at a successor whose names all changed) fails instead of
//! passing on nothing.
//!
//! Wall-clock benchmarks are noisy; the default tolerance is 25%, wide
//! enough that CI only trips on structural slowdowns.

#![forbid(unsafe_code)]

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
    let Some((current_path, baseline_paths)) = files
        .split_last()
        .filter(|(_, baselines)| !baselines.is_empty())
    else {
        return usage("need BENCH files: one or more baselines, then the current one");
    };
    let mut loaded = Vec::with_capacity(files.len());
    for path in &files {
        match load(path) {
            Ok(e) => loaded.push(e),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let current = loaded.pop().expect("the current file was loaded last");
    let baselines = loaded;
    let newest = baselines.len() - 1;

    // The rows to judge: the newest baseline's, then any bytes row only an
    // older baseline holds.
    let mut rows: Vec<&BenchEntry> = baselines[newest].iter().collect();
    for b in baselines.iter().flatten() {
        if b.unit == "bytes" && !rows.iter().any(|r| r.name == b.name) {
            rows.push(b);
        }
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let names = baseline_paths
        .iter()
        .map(|p| p.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "# bench-diff: {names} -> {current_path} (tolerance {tolerance}%; bytes against the lowest baseline)"
    );
    for b in rows {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            println!("  only-in-baseline  {}", b.name);
            continue;
        };
        // A bytes row's reference is the lowest value on record, with the
        // newest baseline that holds it; any other row's is the newest
        // baseline's.
        let (base, from) = if b.unit == "bytes" {
            let values = baselines.iter().enumerate().filter_map(|(i, file)| {
                let v = file.iter().find(|e| e.name == b.name)?.value;
                v.is_finite().then_some((v, i))
            });
            let lowest = values.reduce(|low, v| if v.0 <= low.0 { v } else { low });
            lowest.unwrap_or((f64::NAN, newest))
        } else {
            (b.value, newest)
        };
        if !base.is_finite() || !c.value.is_finite() || base == 0.0 {
            println!(
                "  skip              {} (non-finite or zero baseline)",
                b.name
            );
            continue;
        }
        let delta_pct = (c.value - base) / base * 100.0;
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
        let older = if from == newest {
            String::new()
        } else {
            format!(" [lowest: {}]", baseline_paths[from])
        };
        println!(
            "  {verdict:<17} {} {base:.6} -> {:.6} {} ({delta_pct:+.1}%){older}",
            b.name, c.value, b.unit
        );
    }
    for c in &current {
        if !baselines.iter().flatten().any(|b| b.name == c.name) {
            println!("  only-in-current   {}", c.name);
        }
    }
    println!("# {compared} gated metrics compared, {regressions} regressed");
    if compared == 0 {
        eprintln!(
            "error: {current_path} shares no gated metric with {names}: nothing was compared"
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
        "usage: bench-diff BASELINE.json... CURRENT.json [--tolerance PCT]\n\
         \tCompares vitis-bench-v1 files (from `vitis-experiments scale`);\n\
         \tthe last file is the current one, the others are\n\
         \tbaselines, oldest first. Time units gate on increases and per_sec\n\
         \ton decreases against the newest baseline; bytes gate on increases\n\
         \tagainst the lowest baseline value; count/ratio are informational.\n\
         \tDefault tolerance: 25%. Exit 1 on regression, 2 on bad input\n\
         \t(including files with no gated metric in common)."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
