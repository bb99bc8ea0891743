//! Low-overhead performance telemetry — engine activity counters and
//! allocator-level memory accounting — and the cache-prefetch hint the
//! engine's batch loop issues.
//!
//! This module answers "where does simulator *memory* go, and how busy was
//! the engine" — the complement of [`crate::trace`], which records what
//! the *protocols* did. Wall-clock phase timing lives in the harness
//! (`RunCtx::phase` in `vitis-experiments`), not here. Two layers, each
//! independently usable:
//!
//! * **Engine counters** — [`EngineCounters`], filled by
//!   [`crate::engine::Engine`] unconditionally (plain integer adds on
//!   paths that already mutate engine state): queue-depth high-water mark
//!   and per-kind node activations. Deterministic, so harnesses may put
//!   them in reproducible artifacts.
//! * **Memory** — a counting [`GlobalAlloc`] wrapper ([`CountingAlloc`])
//!   registered as the global allocator only under the `perf-alloc`
//!   feature, reporting live and peak bytes via [`mem_snapshot`]; plus
//!   structural footprint *estimates* computed by the runtime layer
//!   without any allocator hook.
//!
//! Neither layer feeds simulation state: building with or without
//! `perf-alloc` leaves fixed-seed runs bit-identical. Nor does
//! [`prefetch`], which only tells the CPU which cache line is wanted next.
//!
//! This module holds the crate's only `unsafe` code: the allocator wrapper
//! and the prefetch instruction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Node removals (`Engine::remove_node`); no handler runs.
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

/// A [`System`]-backed allocator that counts live and peak bytes into
/// process-global atomics.
///
/// Registered as the `#[global_allocator]` only when the `perf-alloc`
/// feature is enabled, so default builds pay nothing; [`mem_snapshot`]
/// reports whether counting was compiled in.
pub struct CountingAlloc;

#[inline]
fn note_alloc(size: usize) {
    let live = MEM_LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    MEM_PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn note_dealloc(size: usize) {
    MEM_LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`, only adding relaxed
// atomic accounting; the layout contracts are forwarded unchanged.
#[allow(unsafe_code)]
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

/// A point-in-time view of the counting allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Whether the counting allocator is compiled in (`perf-alloc`
    /// feature); all fields are zero when it is not.
    pub counting: bool,
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// Highest `live_bytes` observed since process start or the last
    /// [`reset_mem_peak`].
    pub peak_bytes: u64,
}

/// Read the allocator counters. Zeroes (with `counting == false`) unless
/// built with the `perf-alloc` feature.
pub fn mem_snapshot() -> MemSnapshot {
    MemSnapshot {
        counting: cfg!(feature = "perf-alloc"),
        live_bytes: MEM_LIVE.load(Ordering::Relaxed),
        peak_bytes: MEM_PEAK.load(Ordering::Relaxed),
    }
}

/// Restart peak tracking from the current live size, so per-phase peak
/// attribution (e.g. one sweep point at a time) is possible.
pub fn reset_mem_peak() {
    MEM_PEAK.store(MEM_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Cache prefetch
// ---------------------------------------------------------------------------

/// Ask the CPU to pull the cache line holding `ptr` into L1. A hint only:
/// it never faults, whatever `ptr` is, and changes nothing a program can
/// observe but its timing. A no-op off x86_64.
#[inline(always)]
pub fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `prefetcht0` reads no memory architecturally and cannot fault
    // on any address, mapped or not; SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// [`prefetch`] every 64-byte cache line that `bytes` bytes from `ptr`
/// touch.
#[inline(always)]
pub fn prefetch_range<T>(ptr: *const T, bytes: usize) {
    let skew = ptr as usize % 64;
    let first_line = ptr.cast::<u8>().wrapping_sub(skew);
    for off in (0..bytes + skew).step_by(64) {
        prefetch(first_line.wrapping_add(off));
    }
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
            assert!(during.peak_bytes >= before.live_bytes + (1 << 16));
            drop(v);
        }
    }
}
