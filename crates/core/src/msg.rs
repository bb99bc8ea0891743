//! The Vitis wire protocol.

use crate::gateway::Proposal;
use crate::monitor::{EventId, HopPath};
use crate::topic::{Subs, TopicId};
use std::rc::Rc;
use vitis_overlay::entry::Entry;
use vitis_sim::trace::MsgTag;

/// A published-event notification as it travels the overlay. The paper
/// separates a small notification from a payload pull over the same path;
/// we model the combined transfer as one data-plane message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notification {
    /// The event being disseminated.
    pub event: EventId,
    /// Its topic.
    pub topic: TopicId,
    /// Hops taken from the publisher to the receiving node.
    pub hops: u32,
    /// Causal provenance: slots visited by this copy, publisher first.
    /// Forensic metadata only — excluded from wire-size accounting (the
    /// real protocol does not ship it), never consulted for routing.
    pub path: HopPath,
}

/// The periodic profile/heartbeat message (Algorithm 6): the sender's
/// subscriptions plus its current gateway proposals, shared via `Rc` so the
/// per-neighbor fan-out clones are free.
#[derive(Clone, Debug)]
pub struct ProfileMsg {
    /// The sender's ring identifier (lets a receiver that does not know the
    /// sender adopt it as a ring neighbor — the notify-style repair that
    /// keeps successor/predecessor links symmetric).
    pub id: vitis_overlay::id::Id,
    /// The sender's subscription set.
    pub subs: Subs,
    /// The sender's gateway proposal per subscribed topic. Invariant: one
    /// proposal for each topic of `subs`, in its order — so ascending by
    /// topic without duplicates. It holds by construction: a heartbeat
    /// is sent right after the election that built the list from `subs`.
    /// The receiver caches where the topics it shares with `subs` sit and,
    /// while later heartbeats carry the same `subs` handle, reads their
    /// proposals at those positions; a list that broke the invariant would
    /// silently fold the wrong votes. Both ends `debug_assert!` it.
    pub proposals: Rc<Vec<(TopicId, Proposal)>>,
}

/// The anti-entropy repair messages (DESIGN §13), one declaration for
/// the wire enums of Vitis, RVR and OPT, each of which carries it in a
/// single `Repair` variant; [`crate::dissemination::Dissemination`] makes
/// and handles all three.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairMsg {
    /// Digest (IHAVE): `(event id, topic)` pairs the sender holds in its
    /// repair cache. Shared via `Rc` so the per-target fan-out clones are
    /// free.
    Digest(Rc<Vec<(u64, u32)>>),
    /// Pull request (IWANT): event ids the sender is missing and asks the
    /// receiver to re-serve from its cache.
    Want(Vec<u64>),
    /// Recovery push: a cached notification re-served in answer to a
    /// [`RepairMsg::Want`]. Data-plane — it carries the event payload, and
    /// its hop count includes the repair hop.
    Push(Notification),
}

impl RepairMsg {
    /// The traffic-ledger kind: `ae_digest` and `ae_want` are control
    /// plane, `ae_push` data plane.
    pub fn tag(&self) -> MsgTag {
        match self {
            RepairMsg::Digest(_) => MsgTag::control("ae_digest"),
            RepairMsg::Want(_) => MsgTag::control("ae_want"),
            RepairMsg::Push(_) => MsgTag::data("ae_push"),
        }
    }

    /// The event a push carries: a lost push is a lost copy of its event,
    /// so network-loss attribution treats repair and flood alike.
    pub fn event(&self) -> Option<u64> {
        match self {
            RepairMsg::Push(n) => Some(n.event.0),
            _ => None,
        }
    }
}

/// All messages exchanged by Vitis nodes.
#[derive(Clone, Debug)]
pub enum VitisMsg {
    /// Peer-sampling exchange request (Newscast buffer).
    PsReq(Vec<Entry<Subs>>),
    /// Peer-sampling exchange reply.
    PsResp(Vec<Entry<Subs>>),
    /// T-Man routing-table exchange request (Algorithm 2).
    RtReq(Vec<Entry<Subs>>),
    /// T-Man routing-table exchange reply (Algorithm 3).
    RtResp(Vec<Entry<Subs>>),
    /// Profile heartbeat (Algorithms 6–7).
    Profile(ProfileMsg),
    /// A gateway's greedy lookup toward `hash(topic)`, installing relay
    /// soft state hop by hop.
    RelayRequest {
        /// Topic whose relay path is being built/refreshed.
        topic: TopicId,
        /// Hops taken so far (safety-capped).
        hops: u32,
    },
    /// Data-plane event notification.
    Notification(Notification),
    /// Harness stimulus: this node publishes `event` on `topic` now.
    PublishCmd {
        /// Pre-registered event id.
        event: EventId,
        /// Topic to publish on.
        topic: TopicId,
    },
    /// Acknowledgment from a gateway/relay holder back to the publisher:
    /// the rendezvous infrastructure saw this event. Only emitted when
    /// publisher retries are enabled (`publish_retries > 0`).
    PubAck {
        /// The acknowledged event.
        event: EventId,
    },
    /// Self-addressed retry timer: if `event` is still unacknowledged when
    /// this fires, re-flood it and re-arm with doubled backoff. Never
    /// crosses the network.
    RetryPublish {
        /// The event awaiting acknowledgment.
        event: EventId,
        /// Its topic, for the re-flood.
        topic: TopicId,
        /// Retry attempt number, 1-based; drives the backoff exponent.
        attempt: u32,
    },
    /// Anti-entropy repair traffic. Only sent when the repair layer is
    /// enabled.
    Repair(RepairMsg),
}

/// Approximate serialized sizes, in bytes, for bandwidth accounting, the
/// encoding rules every system's [`Protocol::wire_bytes`] applies: a node
/// descriptor is address (4) + ring id (8) + age (2) = 14 bytes plus 4
/// bytes per subscribed topic in its profile payload; proposals are 24
/// bytes each (topic + gateway id + gateway/parent addresses + hops). A
/// fixed-size message is its fields plus 4 bytes of framing.
///
/// [`Protocol::wire_bytes`]: vitis_sim::protocol::Protocol::wire_bytes
pub mod wire {
    use super::*;

    /// Bytes of one gossip descriptor including its subscription payload.
    pub fn entry_bytes(e: &Entry<Subs>) -> u64 {
        14 + 4 * e.payload.len() as u64
    }

    /// Bytes of a descriptor buffer.
    pub fn buffer_bytes(buf: &[Entry<Subs>]) -> u64 {
        buf.iter().map(entry_bytes).sum()
    }

    /// Bytes of a profile carrying `topics` subscribed topics and
    /// `proposals` gateway proposals, behind the sender's ring id.
    fn profile_rule(topics: usize, proposals: usize) -> u64 {
        8 + 4 * topics as u64 + 24 * proposals as u64
    }

    /// Bytes of a profile heartbeat.
    pub fn profile_bytes(pm: &ProfileMsg) -> u64 {
        profile_rule(pm.subs.len(), pm.proposals.len())
    }

    /// Bytes of a message that carries a subscription set and nothing the
    /// profile rule does not cover (RVR's heartbeat, OPT's connection
    /// handshake): a profile with no proposals.
    pub fn subs_bytes(subs: &Subs) -> u64 {
        profile_rule(subs.len(), 0)
    }

    /// Bytes of a relay request (topic + hop counter + framing). RVR's
    /// tree join is the same lookup hop and the same size.
    pub const RELAY_REQUEST_BYTES: u64 = 12;

    /// Bytes of a publish acknowledgment (event id + framing).
    pub const PUB_ACK_BYTES: u64 = 12;

    /// Bytes of a bare liveness heartbeat (OPT's): framing only.
    pub const HEARTBEAT_BYTES: u64 = 4;

    /// Bytes of a notification or a publish command: their 16-byte
    /// framing. The monitor counts the data plane in messages, not bytes.
    pub const NOTIFICATION_BYTES: u64 = 16;

    /// Bytes of an anti-entropy repair message, in every system: a digest
    /// and a want by their entries, a recovery push as the notification
    /// transfer again.
    pub fn repair_bytes(msg: &RepairMsg) -> u64 {
        match msg {
            RepairMsg::Digest(entries) => {
                entries.len() as u64 * vitis_sim::antientropy::DIGEST_ENTRY_BYTES
            }
            RepairMsg::Want(ids) => ids.len() as u64 * vitis_sim::antientropy::WANT_ID_BYTES,
            RepairMsg::Push(_) => NOTIFICATION_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::Proposal;
    use crate::topic::TopicSet;
    use vitis_overlay::id::Id;
    use vitis_sim::event::NodeIdx;

    fn entry(n_topics: u32) -> Entry<Subs> {
        Entry::fresh(
            NodeIdx(1),
            Id(5),
            Subs::new(TopicSet::from_iter(0..n_topics)),
        )
    }

    #[test]
    fn wire_sizes_scale_with_contents() {
        assert_eq!(wire::entry_bytes(&entry(0)), 14);
        assert_eq!(wire::entry_bytes(&entry(50)), 14 + 200);
        let buf = vec![entry(10), entry(20)];
        assert_eq!(wire::buffer_bytes(&buf), (14 + 40) + (14 + 80));
        let pm = ProfileMsg {
            id: Id(1),
            subs: Subs::new(TopicSet::from_iter(0..3)),
            proposals: Rc::new(vec![(
                TopicId(0),
                Proposal::self_proposal(NodeIdx(0), Id(0)),
            )]),
        };
        assert_eq!(wire::profile_bytes(&pm), 8 + 12 + 24);
        // A subscriptions-only message is a profile with no proposals.
        assert_eq!(wire::subs_bytes(&pm.subs), 8 + 12);
        // A bare heartbeat is its framing.
        assert_eq!(wire::HEARTBEAT_BYTES, 4);
    }

    #[test]
    fn repair_sizes_count_entries_and_price_a_push_as_a_notification() {
        let digest = RepairMsg::Digest(Rc::new(vec![(1, 0), (2, 0), (3, 1)]));
        assert_eq!(wire::repair_bytes(&digest), 3 * 12);
        assert_eq!(wire::repair_bytes(&RepairMsg::Want(vec![4, 5])), 2 * 8);
        assert_eq!(wire::repair_bytes(&RepairMsg::Want(Vec::new())), 0);
        let push = RepairMsg::Push(Notification {
            event: EventId(1),
            topic: TopicId(0),
            hops: 2,
            path: HopPath::default(),
        });
        assert_eq!(wire::repair_bytes(&push), 16);
        assert_eq!(wire::NOTIFICATION_BYTES, 16);
    }
}
