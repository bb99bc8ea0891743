//! # vitis
//!
//! A from-scratch implementation of **Vitis** — the gossip-based hybrid
//! overlay for internet-scale topic-based publish/subscribe introduced by
//! Rahimian, Girdzijauskas, Payberah and Haridi (IEEE IPDPS 2011).
//!
//! Vitis combines two ostensibly opposite mechanisms under a *bounded node
//! degree*:
//!
//! * **unstructured clustering** — a gossip preference function (Equation 1,
//!   [`utility()`]) groups nodes with similar subscriptions into clusters, so
//!   most dissemination is flooding among interested peers; and
//! * **structured rendezvous routing** — a Symphony-style navigable
//!   small-world ring lets each cluster elect a few *gateways*
//!   ([`gateway`], Algorithm 5) that greedily route to the topic's
//!   rendezvous node, stitching all clusters of a topic together over
//!   short relay paths ([`relay`]).
//!
//! The result delivers every event to every subscriber (100 % hit ratio)
//! while relay (uninteresting) traffic stays far below a Scribe-like
//! rendezvous-routing design, and propagation delay stays `O(log²N)`.
//!
//! ## Quick start
//!
//! ```
//! use vitis::prelude::*;
//!
//! // 64 nodes, 16 topics, 4 random subscriptions each.
//! let mut sys = random_system(64, 16, 4, 7);
//! sys.run_rounds(30); // let gossip converge
//! sys.reset_metrics();
//! for t in 0..16 {
//!     sys.publish(TopicId(t));
//! }
//! sys.run_rounds(5); // let dissemination finish
//! let stats = sys.stats();
//! assert!(stats.hit_ratio > 0.95, "hit ratio {}", stats.hit_ratio);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod conformance;
pub mod dissemination;
pub mod gateway;
pub mod harness;
pub mod monitor;
pub mod msg;
pub mod node;
pub mod relay;
pub mod runtime;
pub mod smallmap;
pub mod system;
pub mod topic;
pub mod topo;
pub mod utility;

pub use utility::utility;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::VitisConfig;
    pub use crate::gateway::Proposal;
    pub use crate::harness::Workload;
    pub use crate::monitor::{EventId, Monitor, PubSubStats};
    pub use crate::msg::{DissemMsg, Notification, ProfileMsg, VitisMsg};
    pub use crate::node::VitisNode;
    pub use crate::runtime::{PubSubProtocol, SystemRuntime};
    pub use crate::smallmap::SmallMap;
    pub use crate::system::{random_system, PubSub, SystemParams, VitisProtocol, VitisSystem};
    pub use crate::topic::{RateTable, Subs, TopicId, TopicSet};
    pub use crate::utility::utility;
}
