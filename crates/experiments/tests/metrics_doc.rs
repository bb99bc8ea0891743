//! `docs/METRICS.md` is a schema reference, so it is checked against the
//! record table it describes ([`mod@vitis_sim::record`]): every field of every
//! record type must appear in a worked example or a field table of that
//! type, and no example or table may name a field the table lacks.
//!
//! What the test reads from the document:
//!
//! * every fenced `json` block — one wrapped object, or one object per
//!   line. An object with a `"type"` is an example of that record; one
//!   with `"entries"` is a BENCH document, each entry an example;
//! * every table headed `| Type | Fields | …`: a row documents the fields
//!   its second cell names for the record type its first cell names;
//! * every table under a `<!-- fields of `type` -->` marker: the first
//!   cell of a row names fields of that record type.

use std::collections::{BTreeMap, BTreeSet};
use vitis_experiments::benchfmt::BenchEntry;
use vitis_experiments::obs::RunRecord;
use vitis_sim::record::{parse_value, Record, Value};
use vitis_sim::trace::TraceEvent;

/// How the BENCH entry, which has no `"type"`, is named below.
const BENCH_ENTRY: &str = "(BENCH entry)";

/// Every record type the binary writes, with its field paths.
fn table() -> BTreeMap<&'static str, Vec<String>> {
    [
        TraceEvent::schema(),
        RunRecord::schema(),
        BenchEntry::schema(),
    ]
    .into_iter()
    .flatten()
    .map(|(tag, fields)| (tag.unwrap_or(BENCH_ENTRY), fields))
    .collect()
}

/// The member paths of `v` (`outer.inner`, `outer[].inner`), descending no
/// further than a path the record declares: below it keys are data.
fn paths(v: &Value, prefix: &str, fields: &[String], out: &mut BTreeSet<String>) {
    match v {
        Value::Obj(members) if prefix.is_empty() || !fields.iter().any(|f| f == prefix) => {
            for (key, member) in members {
                let path = match prefix {
                    "" => key.clone(),
                    _ => format!("{prefix}.{key}"),
                };
                paths(member, &path, fields, out);
            }
        }
        Value::Arr(items) if !items.is_empty() => {
            for item in items {
                paths(item, &format!("{prefix}[]"), fields, out);
            }
        }
        _ => {
            out.insert(prefix.to_string());
        }
    }
}

/// The words of `cell` set in backticks.
fn backticked(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

#[test]
fn metrics_md_names_every_field_of_every_record_and_no_other() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/METRICS.md"
    ))
    .unwrap();
    let table = table();
    let mut documented: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut problems: Vec<String> = Vec::new();

    // Worked examples.
    let mut example = |o: &Value, tag: &str| {
        let Some((&tag, fields)) = table.get_key_value(tag) else {
            return problems.push(format!("example of unknown record type {tag:?}"));
        };
        let mut named = BTreeSet::new();
        paths(o, "", fields, &mut named);
        named.remove("type");
        if !fields.iter().any(|f| f == "run") {
            named.remove("run"); // the stamp, not a field
        }
        for path in &named {
            // An empty array shows its key, not what its elements hold.
            if !fields.iter().any(|f| f == path || f.starts_with(&format!("{path}[]."))) {
                problems.push(format!("example of {tag:?} names unknown field {path:?}"));
            }
        }
        documented.entry(tag).or_default().extend(named);
    };
    for block in doc.split("```json\n").skip(1) {
        let block = block.split("```").next().unwrap();
        let objects: Vec<Value> = match parse_value(block) {
            Some(whole) => vec![whole],
            None => block
                .lines()
                .map(|l| parse_value(l).unwrap_or_else(|| panic!("example is not JSON: {l}")))
                .collect(),
        };
        for o in &objects {
            if let Some(tag) = o.get("type").and_then(Value::as_str) {
                example(o, tag);
            } else if let Some(Value::Arr(entries)) = o.get("entries") {
                entries.iter().for_each(|e| example(e, BENCH_ENTRY));
            } else {
                panic!("example is neither a record nor a BENCH document: {o:?}");
            }
        }
    }

    // Field tables.
    let mut lines = doc.lines().peekable();
    while let Some(line) = lines.next() {
        let marked = line
            .strip_prefix("<!-- fields of `")
            .and_then(|rest| rest.strip_suffix("` -->"));
        if marked.is_none() && !line.starts_with("| Type | Fields |") {
            continue;
        }
        if marked.is_some() {
            lines.next(); // the header row
        }
        lines.next(); // the |---| row
        while let Some(row) = lines.next_if(|l| l.starts_with('|')) {
            let cells: Vec<&str> = row.split('|').collect();
            let (tag, names) = match marked {
                Some(tag) => (tag, backticked(cells[1])),
                None => (backticked(cells[1])[0], backticked(cells[2])),
            };
            let Some((&tag, fields)) = table.get_key_value(tag) else {
                problems.push(format!("table row for unknown record type {tag:?}"));
                continue;
            };
            for name in names {
                // A row may name a nested member as a whole (`stats`, `samples`).
                let within = |f: &String| f.strip_prefix(name).is_some_and(|r| r.starts_with(['.', '[']));
                if !fields.iter().any(|f| f == name || within(f)) {
                    problems.push(format!("row of {tag:?} names unknown field {name:?}"));
                }
                documented.entry(tag).or_default().insert(name.to_string());
            }
        }
    }

    for (tag, fields) in &table {
        for field in fields {
            if !documented.get(tag).is_some_and(|d| d.contains(field)) {
                problems.push(format!("({tag:?}, {field:?}) is in no example or row"));
            }
        }
    }
    assert!(problems.is_empty(), "docs/METRICS.md:\n{}", problems.join("\n"));
}
