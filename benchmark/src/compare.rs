//! `compare A.json B.json`: judge two sets written by `run` (A is the
//! parent, B the change — or two sets of the same code, to see whether
//! the machine is steady enough to measure on).
//!
//! One row per (workload, metric). A set's *value* is the median of its
//! repeats, its *spread* their interquartile range; `tol` is the metric's
//! bound (for a simulated metric, its same-seed tolerance) applied to A's
//! value:
//!
//! * `better` — every repeat of B reads better than every repeat of A, and
//!   the values differ by more than A's spread;
//! * `worse` — B's value is worse than A's by more than `tol`, and either
//!   both spreads are within `tol` or every repeat of B reads worse than
//!   every repeat of A;
//! * `unresolved` — a spread exceeds `tol` (and the repeats overlap), so
//!   the sets cannot show the metric unchanged;
//! * `within bound` — otherwise.
//!
//! Exits non-zero when any row is `worse`.

use crate::metrics::{median, quartiles, Better, EndToEnd, END_TO_END};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use vitis_experiments::benchfmt;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Direction-aware "how much worse is `b` than `a`" (positive = worse).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Judge the repeats `b` of a metric against the repeats `a`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let tol = m.tolerance().amount(median(a));
    let spread = iqr(a).max(iqr(b));
    let extreme = |values: &[f64], want_best: bool| {
        let pick_min = (m.better == Better::Lower) == want_best;
        values
            .iter()
            .copied()
            .reduce(|x, y| if pick_min { x.min(y) } else { x.max(y) })
            .unwrap_or(0.0)
    };
    // Strictly separated samples: B's worst run still beats A's best, or
    // B's best run is still worse than A's worst.
    let all_better = worse_by(m.better, extreme(a, true), extreme(b, false)) < 0.0;
    let all_worse = worse_by(m.better, extreme(a, false), extreme(b, true)) > 0.0;
    let delta = worse_by(m.better, median(a), median(b));
    if all_better && -delta > iqr(a) {
        Verdict::Better
    } else if delta > tol && (spread <= tol || all_worse) {
        Verdict::Worse
    } else if spread > tol {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// A set file: the values of its entries by name.
struct SetFile(BTreeMap<String, f64>);

fn load(path: &str) -> Result<SetFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let entries = benchfmt::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let set = SetFile(entries.into_iter().map(|e| (e.name, e.value)).collect());
    if !set.0.contains_key("seed") {
        return Err(format!("{path}: not a set file written by `benchmark run`"));
    }
    Ok(set)
}

impl SetFile {
    /// The repeats `<workload>/<metric>/r1`, `r2`, … in order.
    fn repeats(&self, workload: &str, metric: &str) -> Vec<f64> {
        (1..)
            .map_while(|i| self.0.get(&format!("{workload}/{metric}/r{i}")).copied())
            .collect()
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.0["seed"] != b.0["seed"] {
        println!(
            "note: seeds differ ({} vs {}): simulated metrics are expected to differ",
            a.0["seed"], b.0["seed"]
        );
    }
    println!(
        "{:<18} {:<30} {:>13} {:>13} {:>9} {:>11} {:>11}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "A q1..q3", "B q1..q3"
    );
    let mut counts = [0usize; 4];
    for workload in WORKLOADS {
        let digest = |set: &SetFile| set.0.get(&format!("{workload}/sim_digest")).copied();
        match (digest(&a), digest(&b)) {
            (Some(x), Some(y)) => println!(
                "{workload:<18} {:<30} {:>13} {:>13} {:>9} {:>11} {:>11}  {}",
                "sim_digest",
                format!("{:012x}", x as u64),
                format!("{:012x}", y as u64),
                "",
                "",
                "",
                if x == y { "identical" } else { "different" }
            ),
            _ => return Err(format!("{workload} is missing from one of the sets")),
        }
        for m in &END_TO_END {
            let (va, vb) = (a.repeats(workload, m.name), b.repeats(workload, m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}/{} is missing from one of the sets",
                    m.name
                ));
            }
            let verdict = judge(m, &va, &vb);
            counts[verdict as usize] += 1;
            let (ma, mb) = (median(&va), median(&vb));
            let pct = |x: f64, base: f64| {
                if base != 0.0 {
                    format!("{:.2}%", 100.0 * x / base.abs())
                } else {
                    "n/a".into()
                }
            };
            println!(
                "{workload:<18} {:<30} {ma:>13.6} {mb:>13.6} {:>9} {:>11} {:>11}  {}",
                m.name,
                pct(mb - ma, ma),
                pct(iqr(&va), ma),
                pct(iqr(&vb), mb),
                verdict.as_str()
            );
        }
    }
    println!(
        "\n{} better, {} within bound, {} worse, {} unresolved (q1..q3 is the repeats' interquartile range as a share of the median)",
        counts[Verdict::Better as usize],
        counts[Verdict::WithinBound as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == "cpu_s").unwrap()
    }

    fn rate() -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == "deliveries_per_s")
            .unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // 25% bound on cpu_s (lower is better).
        assert_eq!(
            judge(wall(), &[10.0, 10.1, 9.9], &[10.2, 10.3, 10.1]),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(wall(), &[10.0, 10.1, 9.9], &[12.6, 12.5, 12.7]),
            Verdict::Worse
        );
        assert_eq!(
            judge(wall(), &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]),
            Verdict::Better
        );
        // Spread wider than the bound and overlapping runs: unresolved.
        assert_eq!(
            judge(wall(), &[10.0, 13.0, 8.0], &[11.5, 14.0, 9.0]),
            Verdict::Unresolved
        );
        // Wide spread but strictly separated: still worse.
        assert_eq!(
            judge(wall(), &[10.0, 13.0, 8.0], &[20.0, 24.0, 16.0]),
            Verdict::Worse
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            judge(rate(), &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate(), &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Better
        );
    }

    #[test]
    fn identical_simulated_values_are_within_bound() {
        let hit = END_TO_END.iter().find(|m| m.name == "hit_ratio").unwrap();
        assert_eq!(
            judge(hit, &[0.999, 0.999, 0.999], &[0.999, 0.999, 0.999]),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(hit, &[0.999, 0.999, 0.999], &[0.99, 0.99, 0.99]),
            Verdict::Worse
        );
    }
}
