//! # vitis-sim
//!
//! A deterministic discrete-event / cycle-driven peer-to-peer network
//! simulator — the PeerSim-equivalent substrate for the Vitis
//! publish/subscribe reproduction.
//!
//! The engine is fully deterministic: a run is a pure function of
//! `(protocol code, configuration, master seed)`. Protocols are per-node
//! state machines implementing [`protocol::Protocol`]; they exchange
//! messages through a pluggable [`network::NetworkModel`] and receive
//! periodic, per-node-desynchronized round ticks — PeerSim's event-driven
//! mode running periodic (gossip) protocols. Events are scheduled by a
//! calendar-queue scheduler ([`event`]) and drained in dense per-timestamp
//! batches by the one executor, [`engine::Engine::run_until`], on the
//! calling thread.
//!
//! ```
//! use vitis_sim::prelude::*;
//!
//! struct Counter(u32);
//! impl Protocol for Counter {
//!     type Msg = ();
//!     fn on_start(&mut self, _: &mut Context<'_, ()>) {}
//!     fn on_round(&mut self, _: &mut Context<'_, ()>) { self.0 += 1; }
//!     fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeIdx, _: ()) {}
//! }
//!
//! let mut eng: Engine<Counter> = Engine::new(EngineConfig::default());
//! let a = eng.add_node(Counter(0));
//! eng.run_rounds(10);
//! assert!(eng.node(a).unwrap().0 >= 9);
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to `perf`: the counting allocator and the prefetch
// hint, each allowed where it stands.
#![deny(unsafe_code)]

pub mod antientropy;
pub mod churn;
pub mod engine;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod perf;
pub mod protocol;
pub mod record;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

/// Convenience re-exports for protocol implementations and harnesses.
pub mod prelude {
    pub use crate::antientropy::{AeConfig, AntiEntropy};
    pub use crate::churn::{ChurnEvent, ChurnKind, ChurnTrace};
    pub use crate::engine::{Engine, EngineConfig, EngineStats};
    pub use crate::event::NodeIdx;
    pub use crate::fault::{
        FaultEpisode, FaultPlan, FaultPlanError, FaultedNetwork, LossScope, Span,
    };
    pub use crate::metrics::{Histogram, Summary};
    pub use crate::network::{ConstantLatency, NetworkModel};
    pub use crate::perf::{EngineCounters, MemSnapshot};
    pub use crate::protocol::{Context, Protocol};
    pub use crate::time::{Duration, SimTime};
    pub use crate::trace::{
        HealthProbe, KindTraffic, MsgTag, Sample, Trace, TraceEvent, TraceHandle, TrafficClass,
    };
}
