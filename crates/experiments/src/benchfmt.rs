//! The shared BENCH file format (`vitis-bench-v1`).
//!
//! One schema for every wall-clock benchmark artifact in the repo: the
//! `scale` subcommand's `BENCH_current.json`, the repo benchmark's set
//! files, and anything CI wants to diff across commits. The file is a
//! single valid JSON object, laid out one entry per line so it also
//! greps and diffs like JSONL:
//!
//! ```text
//! {"schema":"vitis-bench-v1","entries":[
//! {"name":"scale/vitis/2000/measure_ms","value":812.4,"unit":"ms"},
//! {"name":"scale/vitis/2000/deliveries_per_sec","value":151204.0,"unit":"per_sec"}
//! ]}
//! ```
//!
//! Units carry the comparison direction for [`crate::benchfmt`]'s
//! consumers (`bench-diff`): time units (`ms`/`us`/`ns`) and `bytes` are
//! lower-is-better, `per_sec` is higher-is-better, and everything else
//! (`count`, `ratio`) is informational context that never gates.

use vitis_sim::record::{parse_line, write_record};

/// The schema tag heading every BENCH file.
pub const SCHEMA: &str = "vitis-bench-v1";

vitis_sim::record! {
    /// One measured quantity: a slash-separated name, a value, and the unit
    /// that tells consumers how to compare it. An entry line of the file is
    /// this record, written by the codec every JSONL record goes through.
    #[derive(Clone, Debug, PartialEq)]
    pub struct BenchEntry {
        /// Hierarchical metric name, e.g. `scale/vitis/2000/measure_ms`.
        pub name: String,
        /// Measured value.
        pub value: f64,
        /// Unit: `ms`, `us`, `ns`, `per_sec`, `bytes`, `count`, `ratio`.
        pub unit: String,
    }
}

impl BenchEntry {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// How `bench-diff` treats a unit when comparing two files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (time units, bytes): gate on increases.
    LowerIsBetter,
    /// Larger is better (throughput): gate on decreases.
    HigherIsBetter,
    /// Context only (counts, ratios): never gates.
    Informational,
}

/// The comparison direction a unit implies.
pub fn direction_of(unit: &str) -> Direction {
    match unit {
        "ms" | "us" | "ns" | "bytes" => Direction::LowerIsBetter,
        "per_sec" => Direction::HigherIsBetter,
        _ => Direction::Informational,
    }
}

/// Render entries as a BENCH file (valid JSON, one entry per line).
pub fn render(entries: &[BenchEntry]) -> String {
    let mut o = String::with_capacity(64 + entries.len() * 64);
    o.push_str("{\"schema\":\"");
    o.push_str(SCHEMA);
    o.push_str("\",\"entries\":[\n");
    for (i, e) in entries.iter().enumerate() {
        write_record(&mut o, None, e);
        if i + 1 < entries.len() {
            o.push(',');
        }
        o.push('\n');
    }
    o.push_str("]}\n");
    o
}

/// Parse a BENCH file produced by [`render`] (or hand-edited in the same
/// one-entry-per-line layout). Returns a labelled error on schema
/// mismatch or a malformed entry line.
pub fn parse(text: &str) -> Result<Vec<BenchEntry>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty BENCH file")?;
    if !header.contains(&format!("\"schema\":\"{SCHEMA}\"")) {
        return Err(format!(
            "missing schema tag {SCHEMA:?} in header {header:?}"
        ));
    }
    let mut entries = Vec::new();
    for line in lines {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "]}" {
            continue;
        }
        let (_, entry) = parse_line(line).map_err(|e| format!("{e} in {line:?}"))?;
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let entries = vec![
            BenchEntry::new("scale/vitis/2000/measure_ms", 812.4, "ms"),
            BenchEntry::new("scale/vitis/2000/deliveries_per_sec", 151204.0, "per_sec"),
            BenchEntry::new("scale/vitis/2000/peak_bytes", 1.5e9, "bytes"),
        ];
        let text = render(&entries);
        assert!(text.starts_with("{\"schema\":\"vitis-bench-v1\",\"entries\":[\n"));
        assert!(text.ends_with("]}\n"));
        assert_eq!(parse(&text).unwrap(), entries);
    }

    #[test]
    fn empty_file_round_trips() {
        let text = render(&[]);
        assert_eq!(parse(&text).unwrap(), Vec::<BenchEntry>::new());
    }

    #[test]
    fn nan_renders_as_null_and_parses_back() {
        let text = render(&[BenchEntry::new("x", f64::NAN, "ratio")]);
        assert!(text.contains("\"value\":null"));
        let back = parse(&text).unwrap();
        assert!(back[0].value.is_nan());
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        assert!(parse("{\"schema\":\"other-v9\",\"entries\":[\n]}\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn units_imply_directions() {
        assert_eq!(direction_of("ms"), Direction::LowerIsBetter);
        assert_eq!(direction_of("us"), Direction::LowerIsBetter);
        assert_eq!(direction_of("per_sec"), Direction::HigherIsBetter);
        assert_eq!(direction_of("bytes"), Direction::LowerIsBetter);
        assert_eq!(direction_of("count"), Direction::Informational);
        assert_eq!(direction_of("ratio"), Direction::Informational);
    }

    /// Fence for the parser: every `docs/results/BENCH_*.json` listed in
    /// `tests/golden/bench_parse_digests.txt` still parses to the entries
    /// recorded for it — per file, the entry count and an FNV-1a hash over
    /// each entry's name, value bits and unit. Every committed BENCH file
    /// is listed; the floor below is their count.
    /// `benchmark/` reads its own sets through [`parse`].
    #[test]
    fn committed_bench_files_parse_to_the_recorded_entries() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let recorded =
            std::fs::read_to_string(format!("{root}/tests/golden/bench_parse_digests.txt"))
                .unwrap();
        assert!(recorded.lines().count() >= 62);
        for want in recorded.lines() {
            let f = want.split(' ').next().unwrap();
            let text = std::fs::read_to_string(format!("{root}/docs/results/{f}")).unwrap();
            let entries = parse(&text).unwrap_or_else(|e| panic!("{f}: {e}"));
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes.iter().chain(&[0xff]) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for e in &entries {
                eat(e.name.as_bytes());
                eat(&e.value.to_bits().to_le_bytes());
                eat(e.unit.as_bytes());
            }
            assert_eq!(format!("{f} {} {h:016x}", entries.len()), want);
        }
    }

    #[test]
    fn escaped_names_survive() {
        let entries = vec![BenchEntry::new(
            "weird \"name\"\nwith\tescapes",
            1.0,
            "count",
        )];
        let text = render(&entries);
        assert_eq!(parse(&text).unwrap(), entries);
    }
}
