//! The discrete-event scheduler.
//!
//! Two queue implementations live here:
//!
//! * `EventQueue` — the production scheduler: a bucketed **calendar queue**
//!   with a ring of one-tick buckets plus an overflow list for far-future
//!   events. Pops are O(1) amortized, and a whole timestamp's worth of
//!   events leaves in one move (`EventQueue::pop_batch` hands the bucket's
//!   vector out), which is what lets the engine execute gossip rounds
//!   batch-wise instead of one heap pop per message.
//! * `HeapQueue` — the original binary min-heap, compiled only under
//!   `cfg(test)` as the reference implementation for differential tests
//!   (the CI smoke job asserts both schedulers produce identical event
//!   orderings on a randomized trace).
//!
//! Both pop events in `(time, insertion order)`, so ordering is fully
//! deterministic even when many events share a timestamp. The calendar
//! queue gets insertion order from its layout alone (below) and stores no
//! sequence number; the heap oracle still carries one.
//!
//! # Scheduling contract (calendar queue)
//!
//! The calendar queue exploits the engine's monotonic clock: events may only
//! be scheduled at or after the timestamp of the last popped event (the
//! *floor*). The discrete-event loop guarantees this — a handler running at
//! time `t` schedules at `t + latency` with `latency >= 0` — and the queue
//! `debug_assert`s it.
//!
//! # Invariants
//!
//! * **Bucket purity** — every non-empty bucket holds events of exactly one
//!   absolute tick. A bucket at index `i` can only be filled with time `T`
//!   where `T ≡ i (mod RING)` and `T ∈ [floor, floor + RING)`; there is
//!   exactly one such `T` for a given floor, and events at `T - RING` are
//!   impossible because they would predate the floor.
//! * **Push order within a bucket** — bucket vectors are append-only, and
//!   the overflow list is kept and redistributed in push order. Overflow
//!   events are redistributed *eagerly* whenever the floor advances: an
//!   overflow event at time `T` was pushed while `floor ≤ T - RING`,
//!   whereas any direct bucket push at `T` requires `floor > T - RING`;
//!   redistribution happens at the exact pop where the floor first crosses
//!   `T - RING`, so it lands in the (necessarily empty) bucket before any
//!   direct push at `T` and FIFO order equals push order.
//! * **A drained bucket owns no memory** — `pop_batch` gives the bucket's
//!   vector away as the batch and leaves an unallocated one behind, so the
//!   ring's capacity is what is *pending*, rounded up by `Vec` growth, not
//!   the busiest tick each of its 1 024 buckets ever hosted.

use crate::time::SimTime;
use std::{cell::Cell, mem::size_of};
#[cfg(test)]
use std::{cmp::Ordering, collections::BinaryHeap};

/// Identifies a node *slot* in the engine. Slots are stable for the lifetime
/// of a simulation: a node that leaves and re-joins re-uses its slot with a
/// bumped incarnation number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The slot index as a usize, for indexing engine-internal vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A heap entry of the reference scheduler: the sequence number breaks
/// timestamp ties in insertion order.
#[cfg(test)]
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

#[cfg(test)]
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
#[cfg(test)]
impl<E> Eq for Scheduled<E> {}

#[cfg(test)]
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Number of one-tick buckets in the calendar ring. With the default
/// 64-tick round period this covers 16 rounds of lookahead; anything
/// farther (long timers, retry backoffs) goes to the overflow list and is
/// redistributed as the clock approaches.
const RING: usize = 1024;

/// Deterministic calendar-queue scheduler: pops events in
/// `(time, insertion order)`, with dense per-timestamp batch draining.
///
/// See the module docs for the scheduling contract and invariants.
pub(crate) struct EventQueue<E> {
    /// `RING` one-tick buckets; `buckets[t % RING]` holds the events at
    /// absolute tick `t` for `t ∈ [floor, floor + RING)`, in push order.
    buckets: Vec<Vec<E>>,
    /// Absolute tick stored in each bucket (valid while non-empty). Only
    /// the bucket-purity checks read it, so only debug builds keep it.
    #[cfg(debug_assertions)]
    bucket_time: Vec<u64>,
    /// `(tick, event)` scheduled at or beyond `floor + RING` at push time,
    /// in push order. Redistributed into the ring when the floor advances.
    overflow: Vec<(u64, E)>,
    /// Minimum timestamp in `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
    /// Timestamp of the last popped event; no live event is earlier.
    floor: u64,
    /// Ring offsets `[0, hint)` from the floor are known empty — a scan
    /// cursor so repeated peeks don't rescan; lowered by pushes.
    hint: Cell<u64>,
    len: usize,
    batches_popped: u64,
    overflow_pushes: u64,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..RING).map(|_| Vec::new()).collect(),
            #[cfg(debug_assertions)]
            bucket_time: vec![0; RING],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            floor: 0,
            hint: Cell::new(0),
            len: 0,
            batches_popped: 0,
            overflow_pushes: 0,
        }
    }

    /// Schedule `event` at `time`. `time` must be at or after the last
    /// popped timestamp (debug-asserted; clamped in release builds).
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time.0 >= self.floor,
            "push at t={} below scheduler floor {}",
            time.0,
            self.floor
        );
        let t = time.0.max(self.floor);
        self.len += 1;
        if t - self.floor >= RING as u64 {
            self.overflow_pushes += 1;
            self.overflow_min = self.overflow_min.min(t);
            self.overflow.push((t, event));
        } else {
            let off = t - self.floor;
            if off < self.hint.get() {
                self.hint.set(off);
            }
            let i = (t % RING as u64) as usize;
            #[cfg(debug_assertions)]
            self.stamp(i, t);
            self.buckets[i].push(event);
        }
    }

    /// Timestamp of the earliest pending event, if any. Does not advance
    /// the floor — the engine may still push earlier events after peeking.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(t) = self.scan_ring() {
            return Some(SimTime(t));
        }
        // Ring empty: the earliest live event is in the overflow list.
        debug_assert!(self.overflow_min != u64::MAX);
        Some(SimTime(self.overflow_min))
    }

    /// First non-empty tick in `[floor, floor + RING)`, advancing the
    /// scan-cursor hint past known-empty offsets.
    fn scan_ring(&self) -> Option<u64> {
        let mut off = self.hint.get();
        while off < RING as u64 {
            let i = ((self.floor + off) % RING as u64) as usize;
            if !self.buckets[i].is_empty() {
                self.hint.set(off);
                #[cfg(debug_assertions)]
                assert_eq!(self.bucket_time[i], self.floor + off);
                return Some(self.floor + off);
            }
            off += 1;
        }
        self.hint.set(RING as u64);
        None
    }

    /// Advance the floor to `t` and eagerly pull every overflow event whose
    /// time now falls inside the ring window into its bucket.
    fn advance_floor(&mut self, t: u64) {
        debug_assert!(t >= self.floor);
        if t == self.floor {
            return;
        }
        self.floor = t;
        self.hint.set(0);
        if self.overflow_min < self.floor + RING as u64 {
            self.redistribute();
        }
    }

    fn redistribute(&mut self) {
        let horizon = self.floor + RING as u64;
        let drained = std::mem::take(&mut self.overflow);
        let mut min = u64::MAX;
        for (t, event) in drained {
            if t < horizon {
                let i = (t % RING as u64) as usize;
                #[cfg(debug_assertions)]
                self.stamp(i, t);
                self.buckets[i].push(event);
            } else {
                min = min.min(t);
                self.overflow.push((t, event));
            }
        }
        self.overflow_min = min;
    }

    /// Debug builds: check that bucket `i` is empty or already holds tick
    /// `t` (bucket purity), and record `t` as its tick.
    #[cfg(debug_assertions)]
    fn stamp(&mut self, i: usize, t: u64) {
        assert!(
            self.buckets[i].is_empty() || self.bucket_time[i] == t,
            "bucket purity violated: bucket {i} holds t={}, pushing t={t}",
            self.bucket_time[i],
        );
        self.bucket_time[i] = t;
    }

    /// Pop the earliest pending event. The engine drains by batch; tests
    /// use this to check single-event order against the heap oracle.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let t = self.peek_time()?.0;
        self.advance_floor(t);
        let i = (t % RING as u64) as usize;
        #[cfg(debug_assertions)]
        assert!(!self.buckets[i].is_empty() && self.bucket_time[i] == t);
        let event = self.buckets[i].remove(0);
        self.len -= 1;
        Some((SimTime(t), event))
    }

    /// Take *all* events at the earliest pending timestamp (in insertion
    /// order), with that timestamp: the bucket's own vector, moved out.
    /// Events pushed at the same timestamp while the batch is being
    /// processed form the next batch — the order a one-at-a-time heap gives.
    pub fn pop_batch(&mut self) -> Option<(SimTime, Vec<E>)> {
        let t = self.peek_time()?.0;
        self.advance_floor(t);
        let i = (t % RING as u64) as usize;
        #[cfg(debug_assertions)]
        assert!(!self.buckets[i].is_empty() && self.bucket_time[i] == t);
        let batch = std::mem::take(&mut self.buckets[i]);
        self.len -= batch.len();
        self.batches_popped += 1;
        Some((SimTime(t), batch))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the queue owns: Σ capacity × element size over the ring,
    /// its buckets and the overflow list (not the debug builds' ticks).
    pub fn heap_bytes(&self) -> u64 {
        let slots: usize = self.buckets.iter().map(Vec::capacity).sum();
        (slots * size_of::<E>()
            + self.buckets.capacity() * size_of::<Vec<E>>()
            + self.overflow.capacity() * size_of::<(u64, E)>()) as u64
    }

    /// How many batch drains ([`EventQueue::pop_batch`]) have run.
    /// Deterministic: a fixed-seed run always produces the same count.
    pub fn batches_popped(&self) -> u64 {
        self.batches_popped
    }

    /// How many pushes landed beyond the ring horizon and went to the
    /// overflow list. Deterministic.
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }
}

/// The original binary min-heap scheduler, kept as the reference
/// implementation: unlike the calendar queue it accepts pushes at any
/// timestamp. Differential tests assert both produce identical orderings
/// under the engine's monotonic scheduling contract.
#[cfg(test)]
pub(crate) struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

#[cfg(test)]
impl<E> HeapQueue<E> {
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Drain all events at the earliest pending timestamp, mirroring
    /// [`EventQueue::pop_batch`].
    pub fn pop_batch(&mut self) -> Option<(SimTime, Vec<E>)> {
        let t = self.peek_time()?;
        let mut batch = Vec::new();
        while self.peek_time() == Some(t) {
            batch.push(self.pop().expect("peeked event vanished").1);
        }
        Some((t, batch))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), "b");
        q.push(SimTime(1), "a");
        q.push(SimTime(9), "c");
        assert_eq!(q.pop(), Some((SimTime(1), "a")));
        assert_eq!(q.pop(), Some((SimTime(5), "b")));
        assert_eq!(q.pop(), Some((SimTime(9), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(7), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(3), 0);
        assert_eq!(q.pop(), Some((SimTime(3), 0)));
        q.push(SimTime(4), 2);
        assert_eq!(q.pop(), Some((SimTime(4), 2)));
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(8), ());
        q.push(SimTime(2), ());
        assert_eq!(q.peek_time(), Some(SimTime(2)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_batch_drains_one_timestamp_in_push_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(4), "x");
        q.push(SimTime(2), "a");
        q.push(SimTime(2), "b");
        q.push(SimTime(2), "c");
        assert_eq!(q.pop_batch(), Some((SimTime(2), vec!["a", "b", "c"])));
        // Same-tick pushes during batch processing form the next batch.
        q.push(SimTime(2), "late");
        assert_eq!(q.pop_batch(), Some((SimTime(2), vec!["late"])));
        assert_eq!(q.pop_batch(), Some((SimTime(4), vec!["x"])));
        assert!(q.is_empty());
        assert_eq!(q.pop_batch(), None);
        assert_eq!(q.batches_popped(), 3);
    }

    #[test]
    fn queue_capacity_follows_what_is_pending() {
        // A gossip run in miniature: every tick a burst of ≈ 3 000 events
        // lands one tick ahead (messages) and 30 land 64 ticks ahead
        // (re-armed round ticks), so ≈ 5 000 events are pending at any time
        // while every bucket of the ring hosts a full burst twice over.
        let mut q = EventQueue::new();
        let mut rng = Lcg(0xb0c4e7);
        q.push(SimTime(1), 0u64);
        for _ in 0..2000 {
            // The batch is dropped here, as the engine drops it once handled.
            let t = q.pop_batch().expect("the schedule re-arms itself").0;
            let drained = (t.0 % RING as u64) as usize;
            assert_eq!(
                q.buckets[drained].capacity(),
                0,
                "a drained bucket owns no memory"
            );
            for id in 0..2500 + rng.next() % 1000 {
                q.push(SimTime(t.0 + 1), id);
            }
            for id in 0..30 {
                q.push(SimTime(t.0 + 64), id);
            }
        }
        assert!(q.len() > 4000, "pending {}", q.len());
        let ring = RING * (size_of::<Vec<u64>>() + size_of::<u64>());
        let budget = (4 * q.len() + 64) * size_of::<u64>() + ring;
        assert!(
            q.heap_bytes() <= budget as u64,
            "{} B held for {} pending events (budget {budget} B)",
            q.heap_bytes(),
            q.len()
        );
    }

    #[test]
    fn far_future_events_wrap_past_the_ring_horizon() {
        // Events beyond floor + RING go to overflow and must come back out
        // in global (time, push) order, including times that alias the same
        // bucket index across ring epochs.
        let r = RING as u64;
        let mut q = EventQueue::new();
        q.push(SimTime(5), "near");
        q.push(SimTime(5 + r), "one-epoch"); // same bucket index as "near"
        q.push(SimTime(5 + 3 * r), "three-epochs");
        q.push(SimTime(2 * r + 1), "mid");
        assert_eq!(q.overflow_pushes(), 3);
        assert_eq!(q.pop(), Some((SimTime(5), "near")));
        assert_eq!(q.pop(), Some((SimTime(5 + r), "one-epoch")));
        assert_eq!(q.pop(), Some((SimTime(2 * r + 1), "mid")));
        // Push more while the far event is still in overflow.
        q.push(SimTime(2 * r + 2), "after-mid");
        assert_eq!(q.pop(), Some((SimTime(2 * r + 2), "after-mid")));
        assert_eq!(q.pop(), Some((SimTime(5 + 3 * r), "three-epochs")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_redistribution_preserves_insertion_order() {
        // An overflow event and a direct push at the same timestamp: the
        // overflow event was scheduled first and must pop
        // first even though it spent time parked in the overflow list.
        let r = RING as u64;
        let target = 2 * r; // far future at push time
        let mut q = EventQueue::new();
        q.push(SimTime(1), "a");
        q.push(SimTime(target), "parked"); // overflow
        assert_eq!(q.pop(), Some((SimTime(1), "a")));
        // Walk the floor forward until `target` is inside the ring window.
        q.push(SimTime(target - r + 10), "step");
        assert_eq!(q.pop(), Some((SimTime(target - r + 10), "step")));
        // Now floor = target - r + 10 > target - RING: "parked" has been
        // redistributed. A direct push at the same tick must pop after it.
        q.push(SimTime(target), "direct");
        assert_eq!(
            q.pop_batch(),
            Some((SimTime(target), vec!["parked", "direct"]))
        );
    }

    #[test]
    fn len_counts_ring_and_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), 0u32);
        q.push(SimTime(RING as u64 * 5), 1);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    /// Deterministic xorshift for the differential trace below.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The CI smoke check: the calendar queue and the reference heap must
    /// produce bit-identical `(time, event)` sequences on a randomized
    /// push/pop trace that respects the engine's monotonic contract,
    /// including far-future pushes that exercise the overflow path.
    #[test]
    fn calendar_and_heap_schedulers_agree_on_random_trace() {
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut rng = Lcg(0x5eed_cafe);
        let mut clock = 0u64; // last popped time = scheduling floor
        let mut next_id = 0u64;
        let mut cal_out: Vec<(u64, u64)> = Vec::new();
        let mut heap_out: Vec<(u64, u64)> = Vec::new();

        for step in 0..5000 {
            let op = rng.next() % 10;
            if op < 6 {
                // Push 1..=3 events at clock + delta, delta spanning the
                // ring (0..3*RING) so overflow and wraparound are hit.
                for _ in 0..=(rng.next() % 3) {
                    let delta = rng.next() % (3 * RING as u64);
                    let t = SimTime(clock + delta);
                    cal.push(t, next_id);
                    heap.push(t, next_id);
                    next_id += 1;
                }
            } else if op < 8 {
                // Single pop.
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "pop diverged at step {step}");
                if let Some((t, id)) = a {
                    clock = t.0;
                    cal_out.push((t.0, id));
                    heap_out.push((t.0, id));
                }
            } else {
                // Batch drain of one timestamp.
                let a = cal.pop_batch();
                let b = heap.pop_batch();
                assert_eq!(a, b, "batch diverged at step {step}");
                if let Some((t, batch)) = a {
                    clock = t.0;
                    cal_out.extend(batch.iter().map(|&id| (t.0, id)));
                    heap_out.extend(batch.iter().map(|&id| (t.0, id)));
                }
            }
            assert_eq!(cal.len(), heap.len(), "len diverged at step {step}");
        }
        // Drain both fully.
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "drain diverged");
            match a {
                Some((t, id)) => cal_out.push((t.0, id)),
                None => break,
            }
        }
        assert!(cal.is_empty() && heap.is_empty());
        // The combined sequence is sorted by (time, insertion order).
        for w in cal_out.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
        }
        assert_eq!(cal_out.len(), next_id as usize);
        assert!(cal.overflow_pushes() > 0, "trace never exercised overflow");
        let _ = heap_out;
    }
}
