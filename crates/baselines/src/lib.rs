//! # vitis-baselines
//!
//! The two baseline publish/subscribe systems the paper evaluates Vitis
//! against, built on the same substrate (Newscast peer sampling, T-Man
//! overlay construction) for a fair comparison:
//!
//! * [`rvr`] — **RVR**, a structured rendezvous-routing design equivalent
//!   to Scribe/Bayeux: fixed node degree, subscription-oblivious small-world
//!   tables, a multicast tree per topic rooted at the rendezvous node.
//! * [`opt`] — **OPT**, an unstructured overlay-per-topic design equivalent
//!   to SpiderCast: correlation-aware greedy link coverage; zero relay
//!   traffic, but a bounded degree cannot keep every topic subgraph
//!   connected and the unbounded variant needs arbitrarily large degrees.
//!
//! Both read the run's one [`vitis::config::VitisConfig`], which
//! [`vitis::runtime::SystemRuntime::new`] validates and shares with every
//! node, as Vitis does: RVR its table size `rt_size`, `est_n` and
//! `age_threshold`; OPT `rt_size` as its degree bound (`usize::MAX` for the
//! unbounded variant) and `age_threshold`.
//!
//! [`systems`] exposes each as a [`vitis::runtime::PubSubProtocol`]
//! adapter ([`RvrProtocol`], [`OptProtocol`]) plugged into the shared
//! [`vitis::runtime::SystemRuntime`], which provides the whole-network
//! [`vitis::runtime::PubSub`] driver; [`RvrSystem`] and [`OptSystem`] are
//! type aliases over that runtime. [`System`] names the three systems of
//! the evaluation (Vitis included) as one value that builds any of them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod opt;
pub mod rvr;
pub mod systems;

pub use opt::OptNode;
pub use rvr::RvrNode;
pub use systems::{OptProtocol, OptSystem, RvrProtocol, RvrSystem, System};
