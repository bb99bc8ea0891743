//! Orchestration: the parent process that runs each workload repeat in a
//! fresh child (so `VmHWM` and the allocator state belong to that repeat
//! alone), takes the median over the repeats, applies the correctness
//! gates and prints the reports.
//!
//! Children report, and `run` writes its set file, in the repository's
//! BENCH format (`vitis_experiments::benchfmt`): flat `name, value, unit`
//! entries.

use crate::metrics::{self, median, quartiles, Kind, END_TO_END, KERNELS};
use crate::spans::Spans;
use crate::workloads::{self, Outcome, Sizes, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use vitis_experiments::benchfmt::{self, BenchEntry};
use vitis_sim::trace::{push_f64, push_json_str};

/// `BENCHMARK.json`'s `run_seconds`: about what the [`REPEATS`] repeats of
/// a run take on this box at this commit. A run does a fixed amount of
/// simulated work (the digest and the simulated metrics must not depend
/// on how fast the host is), so `--seconds` does not change it.
pub const RUN_SECONDS: u64 = 20;
/// Untraced repeats of a workload in one run: host metrics are reported
/// as their median.
pub const REPEATS: usize = 3;

/// One child's report: every value it computed, by name. Names starting
/// with `_` are inputs of the parent's report, not metrics.
pub type Report = BTreeMap<String, f64>;

const DIGEST: &str = "_sim_digest";
const ATTEMPTED: &str = "_attempted";
const FAILED: &str = "_failed";
const GATES_FAILED: &str = "_gates_failed";

fn get(r: &Report, name: &str) -> f64 {
    r.get(name).copied().unwrap_or(0.0)
}

/// The digest as the reports print it.
fn digest_hex(r: &Report) -> String {
    format!("{:012x}", get(r, DIGEST) as u64)
}

/// Flatten an outcome and the span self-time table into a report.
pub fn report_of(o: &Outcome, spans: &Spans) -> Report {
    let mut r = o.values.clone();
    // The digest is 48 bits wide, so an `f64` carries it exactly.
    r.insert(DIGEST.into(), o.sim_digest as f64);
    r.insert(ATTEMPTED.into(), o.attempted as f64);
    r.insert(FAILED.into(), o.failed as f64);
    r.insert(GATES_FAILED.into(), o.check_failures.len() as f64);
    for (name, t) in spans.layer_table() {
        r.insert(format!("_span.{name}.count"), t.count as f64);
        r.insert(format!("_span.{name}.total_ms"), t.total_ns as f64 / 1e6);
        r.insert(format!("_span.{name}.self_ms"), t.self_ns as f64 / 1e6);
    }
    r
}

/// Run one workload once in this process.
pub fn run_in_process(
    workload: &str,
    seed: u64,
    traced: bool,
    smoke: bool,
    spans_out: Option<&Path>,
) -> Result<(Outcome, Spans), String> {
    let sizes = if smoke { Sizes::smoke() } else { Sizes::full() };
    let mut spans = Spans::new(traced);
    let outcome = workloads::run(workload, seed, &sizes, &mut spans)?;
    if let Some(path) = spans_out {
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            spans.write_jsonl(&format!("{workload}-seed{seed}"), &mut w)?;
            std::io::Write::flush(&mut w)
        };
        write().map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok((outcome, spans))
}

/// Entry point of a child process: run, print the report as a BENCH
/// document on standard output and the failed gates on standard error.
pub fn child_main(
    workload: &str,
    seed: u64,
    traced: bool,
    smoke: bool,
    spans_out: Option<&str>,
) -> Result<bool, String> {
    let (outcome, spans) = run_in_process(workload, seed, traced, smoke, spans_out.map(Path::new))?;
    for f in &outcome.check_failures {
        eprintln!("GATE FAILED ({workload}, seed {seed}): {f}");
    }
    let entries: Vec<BenchEntry> = report_of(&outcome, &spans)
        .into_iter()
        .map(|(name, v)| {
            let unit = metrics::unit_of(&name);
            BenchEntry::new(name, v, unit)
        })
        .collect();
    print!("{}", benchfmt::render(&entries));
    Ok(true)
}

/// Spawn a child for one repeat and wait for it.
fn spawn_child(
    workload: &str,
    seed: u64,
    traced: bool,
    smoke: bool,
    spans_out: Option<&Path>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = spans_out {
        cmd.arg("--spans-out").arg(p);
    }
    // `output` waits until the child has ended.
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child for {workload} exited with {}", out.status));
    }
    let entries = benchfmt::parse(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("child report: {e}"))?;
    Ok(entries.into_iter().map(|e| (e.name, e.value)).collect())
}

/// Directory for spans and set files: beside the executable, so always
/// inside the (ignored) build directory of whichever checkout runs it.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("benchmark-out")
}

/// The untraced repeats of one workload.
pub struct WorkloadSet {
    pub workload: String,
    pub reports: Vec<Report>,
    /// Cross-repeat checks that failed, plus a line per repeat with
    /// failed gates (the child printed which).
    pub failures: Vec<String>,
}

impl WorkloadSet {
    fn new(workload: &str, reports: Vec<Report>) -> WorkloadSet {
        let mut failures: Vec<String> = Vec::new();
        for (i, r) in reports.iter().enumerate() {
            if get(r, GATES_FAILED) > 0.0 {
                failures.push(format!(
                    "repeat {}: {} gate(s) failed (listed above)",
                    i + 1,
                    get(r, GATES_FAILED)
                ));
            }
        }
        if let Some(i) = reports
            .iter()
            .position(|r| get(r, DIGEST) != get(&reports[0], DIGEST))
        {
            failures.push(format!(
                "sim_digest differs between repeats: {} (repeat 1) vs {} (repeat {})",
                digest_hex(&reports[0]),
                digest_hex(&reports[i]),
                i + 1
            ));
        }
        let set = WorkloadSet {
            workload: workload.to_string(),
            reports,
            failures: Vec::new(),
        };
        for m in END_TO_END {
            let values = set.values(m.name);
            if values.len() != set.reports.len() {
                failures.push(format!("{} missing from a repeat", m.name));
            }
            if matches!(m.kind, Kind::Simulated(_))
                && values.windows(2).any(|w| w[0].to_bits() != w[1].to_bits())
            {
                failures.push(format!(
                    "simulated metric {} differs between repeats: {values:?}",
                    m.name
                ));
            }
            if values.iter().any(|v| !v.is_finite() || *v == 0.0) {
                failures.push(format!("{} is zero or not finite: {values:?}", m.name));
            }
        }
        WorkloadSet { failures, ..set }
    }

    /// A metric's value in each repeat.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.reports
            .iter()
            .filter_map(|r| r.get(metric).copied())
            .collect()
    }

    fn sum(&self, name: &str) -> u64 {
        self.reports.iter().map(|r| get(r, name) as u64).sum()
    }
}

/// Run the untraced repeats of one workload.
fn untraced_set(workload: &str, seed: u64, smoke: bool) -> Result<WorkloadSet, String> {
    let reports = (0..REPEATS)
        .map(|_| spawn_child(workload, seed, false, smoke, None))
        .collect::<Result<_, _>>()?;
    Ok(WorkloadSet::new(workload, reports))
}

/// The per-layer values of one workload: the traced child's own numbers
/// plus what needs both runs (`trace_overhead_pct`, `est_share.*`).
pub struct TracedResult {
    pub values: BTreeMap<String, f64>,
    pub failures: Vec<String>,
}

pub fn combine_traced(untraced: &Report, traced: &Report) -> TracedResult {
    let mut failures = Vec::new();
    for (which, r) in [("untraced", untraced), ("traced", traced)] {
        if get(r, GATES_FAILED) > 0.0 {
            failures.push(format!(
                "{which} run: {} gate(s) failed (listed above)",
                get(r, GATES_FAILED)
            ));
        }
    }
    if get(untraced, DIGEST) != get(traced, DIGEST) {
        failures.push(format!(
            "tracing perturbed the simulation: sim_digest {} untraced vs {} traced",
            digest_hex(untraced),
            digest_hex(traced)
        ));
    }
    let cpu_s = get(untraced, "cpu_s");
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _, _) in metrics::per_layer() {
        // Memory is read from the untraced run: the traced one also holds
        // the product's million-record trace ring.
        let source = if name.starts_with("rss_kb.") {
            untraced
        } else {
            traced
        };
        values.insert(name.clone(), get(source, &name));
    }
    values.insert(
        "trace_overhead_pct".into(),
        100.0 * (get(traced, "cpu_s") / cpu_s - 1.0),
    );
    let mut explained = 0.0;
    for k in KERNELS {
        let share = get(traced, &format!("{}_ns", k.layer))
            * get(traced, &format!("_count.{}", k.layer))
            / (cpu_s * 1e9);
        values.insert(format!("est_share.{}", k.layer), share);
        if !k.nested {
            explained += share;
        }
    }
    values.insert("est_share.unattributed".into(), 1.0 - explained);
    TracedResult { values, failures }
}

/// One workload untraced and then traced, combined and printed.
/// Returns the per-layer result and the two children's reports.
fn traced_pair(
    workload: &str,
    seed: u64,
    smoke: bool,
    out_dir: &Path,
) -> Result<(TracedResult, Report, Report), String> {
    let spans_out = out_dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let untraced = spawn_child(workload, seed, false, smoke, None)?;
    let traced = spawn_child(workload, seed, true, smoke, Some(&spans_out))?;
    let result = combine_traced(&untraced, &traced);
    print_per_layer(workload, &result, &traced);
    println!("spans: {}", spans_out.display());
    Ok((result, untraced, traced))
}

fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1e6 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn print_end_to_end(set: &WorkloadSet) {
    let (attempted, failed) = (set.sum(ATTEMPTED), set.sum(FAILED));
    println!(
        "\n== {} · end to end · {} repeats · sim_digest {} · publishes {attempted} failed {failed} ({:.3}%)",
        set.workload,
        set.reports.len(),
        set.reports.first().map(digest_hex).unwrap_or_default(),
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{:<30} {:>14} {:>14} {:>14}  {:<6} {:<7} {:>6}  same-seed bound",
        "metric", "median", "q1", "q3", "unit", "better", "bound"
    );
    for m in END_TO_END {
        let values = set.values(m.name);
        let (q1, q3) = quartiles(&values);
        println!(
            "{:<30} {:>14} {:>14} {:>14}  {:<6} {:<7} {:>5.0}%  {}",
            m.name,
            fmt_num(median(&values)),
            fmt_num(q1),
            fmt_num(q3),
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.tolerance().describe()
        );
    }
    if let Some(r) = set.reports.first() {
        println!(
            "missed (event, subscriber) deliveries per repeat: {:.0} (a simulated outcome: see hit_ratio)",
            get(r, "core.monitor.missed")
        );
    }
    for f in &set.failures {
        println!("GATE FAILED: {f}");
    }
}

fn print_per_layer(workload: &str, t: &TracedResult, traced: &Report) {
    println!("\n== {workload} · per layer (traced run)");
    println!("{:<44} {:>16}  {:<6} better", "metric", "value", "unit");
    for (name, unit, better) in metrics::per_layer() {
        println!(
            "{:<44} {:>16}  {:<6} {}",
            name,
            fmt_num(t.values[&name]),
            unit,
            better.as_str()
        );
    }
    println!("\n-- {workload} · span self-time by layer (ms)");
    println!(
        "{:<36} {:>8} {:>12} {:>12}",
        "span", "count", "total", "self"
    );
    for (key, count) in traced {
        let Some(name) = key
            .strip_prefix("_span.")
            .and_then(|k| k.strip_suffix(".count"))
        else {
            continue;
        };
        println!(
            "{name:<36} {count:>8.0} {:>12.2} {:>12.2}",
            get(traced, &format!("_span.{name}.total_ms")),
            get(traced, &format!("_span.{name}.self_ms"))
        );
    }
    for f in &t.failures {
        println!("GATE FAILED: {f}");
    }
}

/// The result object the external driver reads.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, &'static str)>,
) -> String {
    let mut o = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.into_iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        push_json_str(&mut o, &name);
        o.push_str(":{\"value\":");
        push_f64(&mut o, value);
        o.push_str(",\"unit\":");
        push_json_str(&mut o, unit);
        o.push('}');
    }
    o.push_str("}}");
    o
}

/// `--workload … --seed … --seconds … --trace …`: the form the external
/// driver runs. The result object is the last line of standard output.
pub fn contract_run(workload: &str, seed: u64, trace: bool) -> Result<bool, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let (correct, line) = if trace {
        let (result, untraced, traced) = traced_pair(workload, seed, false, &default_out_dir())?;
        let sum = |name| (get(&untraced, name) + get(&traced, name)) as u64;
        (
            result.failures.is_empty(),
            result_line(
                result.failures.is_empty(),
                sum(ATTEMPTED),
                sum(FAILED),
                metrics::per_layer()
                    .into_iter()
                    .map(|(name, unit, _)| (name.clone(), result.values[&name], unit)),
            ),
        )
    } else {
        let set = untraced_set(workload, seed, false)?;
        print_end_to_end(&set);
        (
            set.failures.is_empty(),
            result_line(
                set.failures.is_empty(),
                set.sum(ATTEMPTED),
                set.sum(FAILED),
                END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), median(&set.values(m.name)), m.unit)),
            ),
        )
    };
    println!("{line}");
    Ok(correct)
}

/// `run`: every workload, untraced; prints every end-to-end metric and
/// writes the set file `compare` reads.
pub fn run_all(seed: u64, smoke: bool, out: Option<&str>) -> Result<bool, String> {
    let mut entries = vec![
        BenchEntry::new("seed", seed as f64, "count"),
        BenchEntry::new("smoke", f64::from(u8::from(smoke)), "count"),
    ];
    let mut ok = true;
    for workload in WORKLOADS {
        let set = untraced_set(workload, seed, smoke)?;
        print_end_to_end(&set);
        ok &= set.failures.is_empty();
        for (name, v) in [
            ("sim_digest", get(&set.reports[0], DIGEST)),
            ("attempted", set.sum(ATTEMPTED) as f64),
            ("failed", set.sum(FAILED) as f64),
        ] {
            entries.push(BenchEntry::new(format!("{workload}/{name}"), v, "count"));
        }
        for m in END_TO_END {
            for (i, v) in set.values(m.name).into_iter().enumerate() {
                entries.push(BenchEntry::new(
                    format!("{workload}/{}/r{}", m.name, i + 1),
                    v,
                    m.unit,
                ));
            }
        }
    }
    let path = out.map(PathBuf::from).unwrap_or_else(|| {
        default_out_dir().join(format!(
            "set-seed{seed}{}.json",
            if smoke { "-smoke" } else { "" }
        ))
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, benchfmt::render(&entries))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\n-- definitions");
    for m in END_TO_END {
        println!("{:<30} {}", m.name, m.definition);
    }
    println!("\nset written to {}", path.display());
    println!(
        "correctness gates: {}",
        if ok { "all passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// `trace`: every workload once untraced and once traced; prints every
/// per-layer metric and the span self-time table, writes `spans.jsonl`.
pub fn trace_all(seed: u64, smoke: bool, out_dir: Option<&str>) -> Result<bool, String> {
    let dir = out_dir.map(PathBuf::from).unwrap_or_else(default_out_dir);
    let mut ok = true;
    for workload in WORKLOADS {
        let (result, _, _) = traced_pair(workload, seed, smoke, &dir)?;
        ok &= result.failures.is_empty();
    }
    println!("\n-- est_share.<layer> = <layer>_ns x count / untraced cpu_s, with count:");
    for k in KERNELS {
        println!(
            "{:<36} {}{}",
            k.layer,
            k.count,
            if k.nested {
                " [not in the unattributed sum]"
            } else {
                ""
            }
        );
    }
    println!(
        "\ncorrectness gates: {}",
        if ok { "all passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// `BENCHMARK.json`, from the tables the binary itself uses.
pub fn spec_text() -> String {
    let mut o = String::from("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    for (i, word) in command.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        push_json_str(&mut o, word);
    }
    let _ = write!(
        o,
        "],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    // One object per line, `fields` already rendered.
    let rows = |o: &mut String, rows: Vec<String>| {
        let n = rows.len();
        for (i, row) in rows.into_iter().enumerate() {
            let _ = writeln!(o, "    {{{row}}}{}", if i + 1 < n { "," } else { "" });
        }
    };
    let field = |key: &str, value: &str| {
        let mut f = format!("\"{key}\": ");
        push_json_str(&mut f, value);
        f
    };
    rows(
        &mut o,
        WORKLOADS
            .iter()
            .zip(workloads::WHY)
            .map(|(name, why)| format!("{}, {}", field("name", name), field("why", why)))
            .collect(),
    );
    o.push_str("  ],\n  \"end_to_end\": [\n");
    rows(
        &mut o,
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{}, {}, {}, \"bound\": {}",
                    field("name", m.name),
                    field("unit", m.unit),
                    field("better", m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    );
    o.push_str("  ],\n  \"per_layer\": [\n");
    rows(
        &mut o,
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit, better)| {
                format!(
                    "{}, {}, {}",
                    field("name", &name),
                    field("unit", unit),
                    field("better", better.as_str())
                )
            })
            .collect(),
    );
    o.push_str("  ]\n}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_spec_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            on_disk,
            spec_text(),
            "regenerate with `benchmark spec > BENCHMARK.json`"
        );
    }

    /// Every workload at smoke size, untraced and traced, in-process:
    /// gates hold, the digest survives tracing, and every name
    /// `BENCHMARK.json` lists is emitted.
    #[test]
    fn smoke_every_workload() {
        let per_layer: Vec<String> = metrics::per_layer().into_iter().map(|m| m.0).collect();
        for workload in WORKLOADS {
            let run = |traced| {
                let (outcome, spans) = run_in_process(workload, 42, traced, true, None).unwrap();
                // The 0.99 hit-ratio gate is sized for the full workload; a
                // 100-node smoke overlay can miss it without anything being wrong.
                let gates: Vec<&String> = outcome
                    .check_failures
                    .iter()
                    .filter(|f| !f.contains("hit ratio"))
                    .collect();
                assert!(gates.is_empty(), "{workload}: {gates:?}");
                report_of(&outcome, &spans)
            };
            let (untraced, again, traced) = (run(false), run(false), run(true));
            assert_eq!(
                get(&untraced, DIGEST),
                get(&again, DIGEST),
                "{workload}: repeat digest"
            );
            assert_eq!(
                get(&untraced, DIGEST),
                get(&traced, DIGEST),
                "{workload}: traced digest"
            );
            for m in END_TO_END {
                let v = untraced.get(m.name).copied();
                assert!(
                    v.is_some_and(|v| v.is_finite() && v != 0.0),
                    "{workload}: {} = {v:?}",
                    m.name
                );
            }
            let combined = combine_traced(&untraced, &traced);
            for name in &per_layer {
                assert!(combined.values[name].is_finite(), "{workload}: {name}");
            }
            assert!(
                combined.values["est_share.unattributed"] < 1.0,
                "{workload}: nothing attributed"
            );
            assert!(
                combined.values["sim.trace.recorded"] > 0.0,
                "{workload}: trace not installed"
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 0, 0, [("cpu_s".to_string(), 1.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
