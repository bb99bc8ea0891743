//! The driver-side span recorder of the traced run.
//!
//! The benchmark wraps each call into a layer (`run_rounds`, `publish`,
//! `stats`, …) in a span named after the layer's module path. Spans are
//! kept in memory and written out when the run ends. With recording off
//! (every end-to-end run) `time`/`begin`/`end` cost one branch, so the
//! untraced numbers carry no instrumentation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Handle of an open span (`None` while recording is off).
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Spans {
    on: bool,
    origin: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<u32>,
}

/// Per-layer totals derived from the span tree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::end`]. Spans nest by call order.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.recs.len() as u32;
        let start_ns = self.now_ns();
        self.recs.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close in LIFO order");
        self.recs[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every closed span called `name`, in call order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.end_ns - r.start_ns)
            .collect()
    }

    /// Summed duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e6
    }

    /// Self-time table keyed by span name. A span's self time is its
    /// duration minus the part its direct children cover (children of one
    /// parent never overlap: the driver is single-threaded).
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p as usize] += r.end_ns - r.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (r, covered) in self.recs.iter().zip(child_ns) {
            let dur = r.end_ns - r.start_ns;
            let row = table.entry(r.name).or_default();
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(covered);
        }
        table
    }

    /// One JSON object per span: `run` is the shared workload-run id,
    /// `id`/`parent` link the tree, times are nanoseconds from run start.
    pub fn write_jsonl(&self, run_id: &str, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let mut line = String::new();
        for (i, r) in self.recs.iter().enumerate() {
            line.clear();
            let _ = writeln!(
                line,
                "{{\"run\":\"{run_id}\",\"id\":{i},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.parent.map_or("null".to_string(), |p| p.to_string()),
                r.name,
                r.start_ns,
                r.end_ns
            );
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.time("inner", || ());
        s.end(outer);
        let t = s.layer_table();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["outer"].count, 1);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert!(t["inner"].total_ns >= 2_000_000);

        let mut off = Spans::new(false);
        let id = off.begin("x");
        off.end(id);
        assert_eq!(off.time("y", || 7), 7);
        assert!(off.layer_table().is_empty());
    }
}
