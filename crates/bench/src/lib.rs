//! # vitis-bench
//!
//! What the repo benchmark (`benchmark/`) and the `scale` ladder do not
//! time yet:
//!
//! * the `meso_timing` binary — wall-clock medians of a gossip round, a
//!   publish wave and system construction for each system at several
//!   network sizes, in the shared BENCH format,
//! * [`dispatch`] — the cost of a null activation at three node-state
//!   sizes, which `meso_timing` reports as `dispatch/null_activation/*`.
//!
//! Run with `cargo run -p vitis-bench --release --bin meso_timing`.

#![warn(missing_docs)]

pub mod dispatch;
