//! # vitis-suite
//!
//! Umbrella crate of the Vitis reproduction (IPDPS 2011): re-exports every
//! layer of the stack so examples and integration tests can reach the
//! whole API through one dependency.
//!
//! * [`vitis`] — the Vitis protocol and system API (start here).
//! * [`vitis_baselines`] — the RVR and OPT comparison systems.
//! * [`vitis_overlay`] — the gossip overlay substrate.
//! * [`vitis_sim`] — the deterministic discrete-event engine.
//! * [`vitis_workloads`] — subscription/rate/trace generators.
//! * [`vitis_experiments`] — the per-figure experiment harness.
//!
//! See `README.md` for the project tour, `DESIGN.md` for the system
//! inventory and reproduction notes, and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vitis;
pub use vitis_baselines;
pub use vitis_experiments;
pub use vitis_overlay;
pub use vitis_sim;
pub use vitis_workloads;
