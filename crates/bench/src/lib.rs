//! # vitis-bench
//!
//! Criterion benchmark targets for the Vitis reproduction:
//!
//! * `microbench` — the hot per-round primitives (Equation 1 utility,
//!   subscription-set merges, greedy routing, Algorithm 4 selection, Zipf
//!   sampling),
//! * `gossip_round` — cost of a full gossip round and of a publish wave for
//!   each system at several network sizes, and of a null activation at
//!   three node-state sizes ([`dispatch`]),
//! * `figures` — one bench per paper figure, running the same harness code
//!   as `vitis-experiments` at a reduced scale,
//! * `ablation` — the A1/A2/A3 ablations of DESIGN.md.
//!
//! Run with `cargo bench -p vitis-bench` (or `cargo bench --workspace`).
//! The library holds only what the `gossip_round` bench and the
//! `meso_timing` binary share.

#![warn(missing_docs)]

pub mod dispatch;
