//! # vitis-experiments
//!
//! The experiment harness that regenerates every figure of the Vitis paper
//! (IPDPS 2011, Section IV), plus the ablation studies from DESIGN.md:
//!
//! Section IV is one procedure — build Vitis, RVR or OPT on the same
//! subscriptions, warm up, publish, drain, read hit ratio / overhead /
//! hops — with one parameter varied per figure. [`runner`] is that
//! procedure, once: [`runner::measure_obs`] is the measurement window,
//! a [`runner::Job`] one measurement as data, [`runner::sweep`] the
//! parallel run of a figure's job table, [`runner::plot`] the points as
//! curves. A figure module is its job table plus its notes.
//!
//! | Module | Paper artifact | Built on |
//! |---|---|---|
//! | [`fig4`] | Fig. 4(a,b) — friends vs sw-neighbors | `sweep` |
//! | [`fig5`] | Fig. 5 — per-node overhead distribution | `sweep` |
//! | [`fig6`] | Fig. 6(a,b) — routing-table size sweep | `sweep` |
//! | [`fig7`] | Fig. 7(a,b) — publication-rate skew sweep | `sweep` |
//! | [`fig8_9`] | Fig. 8 & 9 — Twitter trace analysis | the workload alone |
//! | [`fig10`] | Fig. 10(a,b,c) — three systems on Twitter subscriptions | `sweep` |
//! | [`fig11`] | Fig. 11 — unbounded OPT degree distribution | warm-up only |
//! | [`fig12`] | Fig. 12(a,b,c) — churn (Skype-like trace) | own timeline |
//! | [`ablations`] | A1 gateway election, A2 utility ranking, A3 sw links | `sweep` |
//! | [`headline`] | the three systems over independent seeds, mean ± std | `sweep` |
//! | [`clusters`] | supplementary cluster-structure diagnostic (Figs. 1–2) | warm-up only |
//! | [`resilience`] | fault-episode severity sweep (hit ratio + reconvergence) | own timeline |
//! | [`topology`] | overlay structural-health telemetry + invariant audit | own timeline |
//! | [`scalebench`] | the `scale` ladder's BENCH rows | `measure_obs` |
//!
//! Every module picks its system through [`vitis_baselines::System`].
//! Sweep points are embarrassingly parallel; each builds its own
//! single-threaded simulation, and Rayon fans the points out across cores.
//! [`obs`] holds the `--metrics-out` / `--trace-out` sinks they record
//! into; a run's id is its figure, label and job index. Every record of
//! every sink is declared once, with `vitis_sim::record!`.
//!
//! Run from the CLI: `cargo run -p vitis-experiments --release -- all
//! --nodes 2000` (use `--paper` for the full 10 000-node setting).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod analyze;
pub mod benchfmt;
pub mod clusters;
pub mod fig10;
pub mod headline;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8_9;
pub mod obs;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod scale;
pub mod scalebench;
pub mod topology;

pub use report::{Figure, Series};
pub use scale::Scale;
