//! # vitis-workloads
//!
//! Workload generators for the Vitis evaluation:
//!
//! * [`subscriptions`] — the synthetic random / low-correlation /
//!   high-correlation bucket patterns of Section IV-A,
//! * [`rates`] — uniform and power-law per-topic publication rates
//!   (Section IV-D's α sweep),
//! * [`twitter`] — a synthetic power-law follow graph with the statistical
//!   profile the paper reports for its Twitter trace (α ≈ 1.65), plus the
//!   BFS sampling procedure of Section IV-E,
//! * [`skype`] — a synthetic superpeer availability trace with heavy-tailed
//!   sessions, diurnal modulation and a flash-crowd episode, standing in
//!   for the Skype trace of Section IV-F.
//!
//! The Twitter and Skype generators are documented substitutions for
//! datasets that are not available offline; DESIGN.md §3 records what the
//! paper used, what is built here, and why the substitution preserves the
//! behaviours the experiments exercise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod rates;
pub mod skype;
pub mod subscriptions;
pub mod twitter;

pub use rates::{powerlaw_rates, uniform_rates};
pub use skype::SkypeModel;
pub use subscriptions::{Correlation, SubscriptionModel};
pub use twitter::{FollowGraph, TwitterModel};
