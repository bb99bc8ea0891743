//! # vitis-overlay
//!
//! The gossip overlay substrate shared by Vitis and its baselines:
//!
//! * a circular 64-bit [`id::Id`] space shared by node and topic ids,
//! * bounded partial [`view::View`]s of [`entry::Entry`] descriptors,
//! * the gossip [`peer_sampling`] service (Newscast),
//! * Symphony-style [`smallworld`] link selection and [`ring`] maintenance,
//! * the T-Man-driven [`rt::HybridRt`] routing table: the paper's
//!   Algorithm 4 neighbor selection, the exchange buffer of Algorithm 2 and
//!   notify-style ring repair,
//! * the [`substrate`] that assembles sampling, the T-Man exchange and
//!   failure detection into the one membership component every node type
//!   holds,
//! * greedy rendezvous [`routing`], and
//! * static [`graph`] analysis (topic clusters, hop counts, degrees).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod entry;
pub mod graph;
pub mod id;
pub mod peer_sampling;
pub mod ring;
pub mod routing;
pub mod rt;
pub mod smallworld;
pub mod substrate;
pub mod view;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::entry::{merge_dedup, remove_addr, Entry};
    pub use crate::graph::Graph;
    pub use crate::id::{closest_to, Id};
    pub use crate::peer_sampling::{Newscast, PeerSampling};
    pub use crate::ring::{find_predecessor, find_successor, ring_accuracy};
    pub use crate::routing::{greedy_walk, next_hop, LookupPath};
    pub use crate::rt::{build_exchange_buffer, select_neighbors, HybridRt, LinkKind, RtParams};
    pub use crate::smallworld::{harmonic_distance, select_sw_neighbor};
    pub use crate::substrate::{Sampler, Substrate};
    pub use crate::view::View;
}
