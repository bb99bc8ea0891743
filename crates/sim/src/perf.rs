//! Low-overhead performance telemetry: nested wall-clock spans, engine
//! activity counters and allocator-level memory accounting.
//!
//! This module answers "where does simulator *time and memory* go" — the
//! complement of [`crate::trace`], which records what the *protocols* did.
//! Three layers, each independently usable:
//!
//! * **Spans** — [`span`] opens a named, nested wall-clock span on a
//!   thread-local stack; dropping the returned guard closes it. Spans
//!   aggregate per *folded path* (`"measure;run_rounds;engine.run_until"`)
//!   into count/total/min/max/self-time, merged across threads (Rayon
//!   sweep workers) into a process-global registry drained by
//!   [`take_spans`]. Disabled (the default) a span is one relaxed atomic
//!   load — no clock read, no allocation.
//! * **Engine counters** — [`EngineCounters`], filled by
//!   [`crate::engine::Engine`] unconditionally (plain integer adds on
//!   paths that already mutate engine state): queue-depth high-water mark
//!   and per-kind node activations. Deterministic, so harnesses may put
//!   them in reproducible artifacts.
//! * **Memory** — a counting [`GlobalAlloc`] wrapper ([`CountingAlloc`])
//!   registered as the global allocator only under the `perf-alloc`
//!   feature, reporting live/peak bytes and allocation counts via
//!   [`mem_snapshot`]; plus structural footprint *estimates* computed by
//!   the runtime layer without any allocator hook.
//!
//! Wall-clock never feeds simulation state: enabling or disabling any
//! layer here leaves fixed-seed runs bit-identical (the golden tests
//! assert this). Spans export as [`SpanRecord`]s and memory as a
//! [`MemSnapshot`] through the record codec ([`mod@crate::record`]), and as
//! flamegraph-compatible folded lines (`path self_ns`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Span profiler
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

static GLOBAL_SPANS: LazyLock<Mutex<HashMap<String, SpanStat>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Turn the span profiler on or off process-wide (the CLI's `--perf-out`
/// flag). Off by default; while off, [`span`] is a no-op.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the span profiler is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

crate::record! {
    /// Aggregated statistics of one span path.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SpanStat {
        /// Times the span was entered.
        pub count: u64,
        /// Total wall-clock nanoseconds, children included.
        pub total_ns: u64,
        /// Shortest single occurrence in nanoseconds.
        pub min_ns: u64,
        /// Longest single occurrence in nanoseconds.
        pub max_ns: u64,
        /// Nanoseconds spent in this span *excluding* child spans (the value
        /// flamegraphs want).
        pub self_ns: u64,
    }
}

crate::record! {
    /// One span of a `--perf-out` file (schema: `docs/METRICS.md` §9).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SpanRecord = "span" {
        /// The `;`-joined folded path.
        pub path: String,
        /// Its aggregate.
        pub stat: SpanStat [flat],
    }
}

impl SpanStat {
    fn record(&mut self, elapsed_ns: u64, self_ns: u64) {
        if self.count == 0 || elapsed_ns < self.min_ns {
            self.min_ns = elapsed_ns;
        }
        if elapsed_ns > self.max_ns {
            self.max_ns = elapsed_ns;
        }
        self.count += 1;
        self.total_ns += elapsed_ns;
        self.self_ns += self_ns;
    }

    fn merge(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min_ns < self.min_ns {
            self.min_ns = other.min_ns;
        }
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

struct Frame {
    path: String,
    start: Instant,
    child_ns: u64,
}

struct ThreadSpans {
    stack: Vec<Frame>,
    agg: HashMap<String, SpanStat>,
}

thread_local! {
    static THREAD_SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans {
        stack: Vec::new(),
        agg: HashMap::new(),
    });
}

/// Closes its span when dropped. Hold it in a `let _guard = ...` binding
/// for the extent of the measured region.
#[must_use = "a span closes when its guard drops; bind it to a variable"]
pub struct SpanGuard {
    armed: bool,
}

/// Open a named span nested under the calling thread's innermost open
/// span. Aggregation is keyed by the `;`-joined path of labels, so the
/// same label under different parents is tracked separately. No-op (one
/// atomic load) while the profiler is disabled.
pub fn span(label: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: false };
    }
    THREAD_SPANS.with(|t| {
        let mut t = t.borrow_mut();
        let path = match t.stack.last() {
            Some(parent) => {
                let mut p = String::with_capacity(parent.path.len() + 1 + label.len());
                p.push_str(&parent.path);
                p.push(';');
                p.push_str(label);
                p
            }
            None => label.to_string(),
        };
        t.stack.push(Frame {
            path,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    SpanGuard { armed: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        THREAD_SPANS.with(|t| {
            let mut t = t.borrow_mut();
            let Some(frame) = t.stack.pop() else { return };
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let self_ns = elapsed.saturating_sub(frame.child_ns);
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += elapsed;
            }
            t.agg.entry(frame.path).or_default().record(elapsed, self_ns);
            // The thread-local aggregate publishes to the global registry
            // whenever the stack unwinds to its root, so short-lived sweep
            // workers never strand their samples.
            if t.stack.is_empty() {
                publish(&mut t.agg);
            }
        });
    }
}

fn publish(agg: &mut HashMap<String, SpanStat>) {
    if agg.is_empty() {
        return;
    }
    let mut global = GLOBAL_SPANS.lock().expect("perf span registry poisoned");
    for (path, stat) in agg.drain() {
        global.entry(path).or_default().merge(&stat);
    }
}

/// Drain the global span registry: every `(folded path, stats)` pair
/// recorded since the last call, sorted by path. The calling thread's
/// pending aggregate is published first; other threads publish whenever
/// their span stack unwinds to its root.
pub fn take_spans() -> Vec<(String, SpanStat)> {
    THREAD_SPANS.with(|t| publish(&mut t.borrow_mut().agg));
    let mut out: Vec<(String, SpanStat)> = GLOBAL_SPANS
        .lock()
        .expect("perf span registry poisoned")
        .drain()
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Discard all recorded spans (global registry plus the calling thread's
/// pending aggregate).
pub fn reset_spans() {
    THREAD_SPANS.with(|t| t.borrow_mut().agg.clear());
    GLOBAL_SPANS
        .lock()
        .expect("perf span registry poisoned")
        .clear();
}

/// Render one span as a flamegraph folded-stack line: the `;`-joined
/// path, a space, and the span's **self** nanoseconds (so parent and
/// child time is never double-counted when collapsed).
pub fn folded_line(path: &str, s: &SpanStat) -> String {
    format!("{path} {}", s.self_ns)
}

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

/// Always-on activity counters kept by [`crate::engine::Engine`]:
/// deterministic integers safe to embed in reproducible artifacts.
///
/// Messages queued/delivered per round are derived from these plus
/// [`crate::engine::EngineStats`] (`messages_sent / rounds_executed`
/// etc.); the high-water mark and activation split are what the stats
/// alone cannot reconstruct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Highest number of pending events ever observed in the event queue
    /// (after a push) — the engine's instantaneous memory/latency
    /// pressure.
    pub queue_hwm: u64,
    /// `on_start` activations (node joins and rejoins).
    pub activations_start: u64,
    /// `on_round` activations (gossip rounds actually executed).
    pub activations_round: u64,
    /// `on_message` activations (messages dispatched into a protocol).
    pub activations_message: u64,
    /// `on_stop` activations (leaves and crashes).
    pub activations_stop: u64,
    /// Dense batch drains executed by the calendar-queue scheduler (one
    /// per distinct timestamp with pending events). `total_activations /
    /// sched_batches` approximates events handled per scheduler pass.
    pub sched_batches: u64,
    /// Events pushed beyond the calendar ring's horizon into the overflow
    /// list (long timers, far-future retries). High values relative to
    /// total events indicate the ring is undersized for the workload.
    pub sched_overflow: u64,
}

impl EngineCounters {
    /// Total protocol activations of any kind.
    pub fn total_activations(&self) -> u64 {
        self.activations_start
            + self.activations_round
            + self.activations_message
            + self.activations_stop
    }
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

static MEM_LIVE: AtomicU64 = AtomicU64::new(0);
static MEM_PEAK: AtomicU64 = AtomicU64::new(0);
static MEM_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts live bytes, peak bytes and
/// allocation calls into process-global atomics.
///
/// Registered as the `#[global_allocator]` only when the `perf-alloc`
/// feature is enabled, so default builds pay nothing; [`mem_snapshot`]
/// reports whether counting was compiled in.
pub struct CountingAlloc;

#[inline]
fn note_alloc(size: usize) {
    MEM_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = MEM_LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    MEM_PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn note_dealloc(size: usize) {
    MEM_LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`, only adding relaxed
// atomic accounting; the layout contracts are forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[cfg(feature = "perf-alloc")]
#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

crate::record! {
    /// A point-in-time view of the counting allocator; the last record of
    /// a `--perf-out` file.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct MemSnapshot = "mem" {
        /// Whether the counting allocator is compiled in (`perf-alloc`
        /// feature); all fields are zero when it is not.
        pub counting: bool,
        /// Bytes currently allocated and not yet freed.
        pub live_bytes: u64,
        /// Highest `live_bytes` observed since process start or the last
        /// [`reset_mem_peak`].
        pub peak_bytes: u64,
        /// Allocation calls (alloc/alloc_zeroed, plus one per realloc).
        pub allocations: u64,
    }
}

/// Read the allocator counters. Zeroes (with `counting == false`) unless
/// built with the `perf-alloc` feature.
pub fn mem_snapshot() -> MemSnapshot {
    MemSnapshot {
        counting: cfg!(feature = "perf-alloc"),
        live_bytes: MEM_LIVE.load(Ordering::Relaxed),
        peak_bytes: MEM_PEAK.load(Ordering::Relaxed),
        allocations: MEM_ALLOCS.load(Ordering::Relaxed),
    }
}

/// Restart peak tracking from the current live size, so per-phase peak
/// attribution (e.g. one sweep point at a time) is possible.
pub fn reset_mem_peak() {
    MEM_PEAK.store(MEM_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Heap bytes of a std hash table with room for `capacity` entries of
/// `entry` bytes each: a power-of-two bucket array at load factor 7/8, one
/// control byte per bucket and a trailing control group. For the
/// structural `heap_bytes()` reports, which read containers and not the
/// allocator.
pub fn hash_table_bytes(capacity: usize, entry: usize) -> u64 {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8 / 7).next_power_of_two();
    (buckets * (entry + 1) + 16) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share the process-global ENABLED flag and registry, so
    /// they serialize on one lock instead of clobbering each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset_spans();
        {
            let _a = span("outer");
            let _b = span("inner");
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn nested_spans_fold_paths_and_split_self_time() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset_spans();
        {
            let _a = span("outer");
            for _ in 0..3 {
                let _b = span("inner");
                std::hint::black_box(vec![0u8; 256]);
            }
        }
        set_enabled(false);
        let spans = take_spans();
        let paths: Vec<&str> = spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer;inner"]);
        let outer = &spans[0].1;
        let inner = &spans[1].1;
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(inner.min_ns <= inner.max_ns);
        assert!(inner.total_ns >= inner.min_ns * 3);
        // Outer's self time excludes the inner spans.
        assert!(outer.self_ns <= outer.total_ns);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn sibling_spans_with_one_label_share_a_path() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset_spans();
        {
            let _a = span("root");
            {
                let _b = span("work");
            }
            {
                let _b = span("work");
            }
        }
        set_enabled(false);
        let spans = take_spans();
        let work = spans
            .iter()
            .find(|(p, _)| p == "root;work")
            .expect("folded path present");
        assert_eq!(work.1.count, 2);
    }

    #[test]
    fn stat_merge_is_count_exact() {
        let mut a = SpanStat::default();
        a.record(10, 10);
        a.record(30, 25);
        let mut b = SpanStat::default();
        b.record(5, 5);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 45);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 30);
        assert_eq!(a.self_ns, 40);
        // Merging an empty stat changes nothing.
        let before = a;
        a.merge(&SpanStat::default());
        assert_eq!(a, before);
    }

    #[test]
    fn jsonl_and_folded_rendering() {
        use crate::record::to_json;
        let stat = SpanStat {
            count: 2,
            total_ns: 300,
            min_ns: 100,
            max_ns: 200,
            self_ns: 250,
        };
        assert_eq!(folded_line("a;b", &stat), "a;b 250");
        let span = SpanRecord {
            path: "a;b".to_string(),
            stat,
        };
        assert_eq!(
            to_json(None, &span),
            "{\"type\":\"span\",\"path\":\"a;b\",\"count\":2,\"total_ns\":300,\
             \"min_ns\":100,\"max_ns\":200,\"self_ns\":250}"
        );
        let m = MemSnapshot {
            counting: false,
            live_bytes: 1,
            peak_bytes: 2,
            allocations: 3,
        };
        assert_eq!(
            to_json(None, &m),
            "{\"type\":\"mem\",\"counting\":false,\"live_bytes\":1,\"peak_bytes\":2,\"allocations\":3}"
        );
    }

    #[test]
    fn engine_counter_totals() {
        let c = EngineCounters {
            queue_hwm: 9,
            activations_start: 1,
            activations_round: 2,
            activations_message: 3,
            activations_stop: 4,
            sched_batches: 5,
            sched_overflow: 6,
        };
        assert_eq!(c.total_activations(), 10);
    }

    #[test]
    fn mem_snapshot_reports_feature_state() {
        let m = mem_snapshot();
        assert_eq!(m.counting, cfg!(feature = "perf-alloc"));
        #[cfg(feature = "perf-alloc")]
        {
            // With the counting allocator live, allocating must move the
            // counters.
            let before = mem_snapshot();
            let v = std::hint::black_box(vec![0u8; 1 << 16]);
            let during = mem_snapshot();
            assert!(during.allocations > before.allocations);
            assert!(during.peak_bytes >= before.live_bytes + (1 << 16));
            drop(v);
        }
    }
}
