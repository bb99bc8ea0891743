//! The machine-speed probe behind the calibrated time metrics.
//!
//! This sandbox shares its host: for minutes at a time the same code runs
//! 1.5–2× slower because a neighbour is thrashing the memory system, and
//! no amount of repeating inside one 20-second run averages that away.
//! So the benchmark carries its own yardstick: a fixed, allocation-heavy,
//! cache-missing loop (a miniature of what the simulator does to memory)
//! that is timed between the steps of a run. A step's on-CPU time is
//! scaled by `NOMINAL_NS_PER_OP / (probe ns per op around that step)`:
//! seconds on this box when it is quiet. On a quiet box the factor is 1.
//!
//! The probe is benchmark code only — nothing in the repository can make
//! it faster or slower — so a change to the simulator moves the calibrated
//! time exactly as it moves the raw time; only the machine's state cancels.
//! The raw times are reported next to the calibrated ones
//! (`bench.*.cpu_raw_s`, `bench.machine_slowdown`).
//!
//! The README records the experiment behind this (ten-seed spread of the
//! measured phase 11–18 % raw, 4–6 % calibrated) and where the assumption
//! is weak: code whose working set stays in the core's own cache (the 2 ms
//! set-ups of `churn_repair_300`) is not slowed by what slows the probe.

use crate::host::{read_rss, thread_cpu_ns};
use std::hint::black_box;

/// Probe cost on this box when nothing else runs on the host: the unit
/// the calibrated seconds are expressed in.
pub const NOMINAL_NS_PER_OP: f64 = 50.0;

/// 500k separately boxed 128-byte cells (≈70 MB with allocator overhead:
/// larger than the last-level cache), boxed in shuffled order so that
/// neighbouring indices are far apart in memory.
const CELLS: usize = 500_000;
/// Operations per sample (≈0.8 ms on the quiet box).
const OPS: u64 = 15_000;

pub struct Probe {
    // Boxed on purpose: each cell is its own heap allocation, like the
    // simulator's many small per-node objects.
    #[allow(clippy::vec_box)]
    cells: Vec<Box<[u64; 16]>>,
    x: u64,
    /// Resident memory the probe itself added, to be left out of the
    /// workload's memory metric.
    pub rss_kb: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    pub fn new() -> Probe {
        let before = read_rss().now_kb;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        // A random allocation order (Fisher–Yates).
        let mut order: Vec<u32> = (0..CELLS as u32).collect();
        for i in (1..CELLS).rev() {
            order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
        }
        let mut slots: Vec<Option<Box<[u64; 16]>>> = (0..CELLS).map(|_| None).collect();
        for &o in &order {
            slots[o as usize] = Some(Box::new([u64::from(o); 16]));
        }
        let cells = slots.into_iter().flatten().collect();
        Probe {
            cells,
            x,
            rss_kb: read_rss().now_kb.saturating_sub(before),
        }
    }

    /// Time one batch of probe operations: on-CPU nanoseconds per op.
    /// Each op reads three words of a random cell, writes one, and every
    /// eighth op makes and drops a small heap allocation.
    pub fn sample(&mut self) -> f64 {
        let n = self.cells.len() as u64;
        let mut acc = 0u64;
        let t = thread_cpu_ns();
        for k in 0..OPS {
            let cell = &mut self.cells[(xorshift(&mut self.x) % n) as usize];
            acc = acc
                .wrapping_add(cell[0])
                .wrapping_add(cell[7])
                .wrapping_add(cell[15]);
            cell[3] = acc;
            if k % 8 == 0 {
                black_box(vec![acc; 6]);
            }
        }
        let ns = thread_cpu_ns() - t;
        self.x ^= black_box(acc) & 1;
        ns as f64 / OPS as f64
    }
}
