//! RVR — the structured rendezvous-routing baseline.
//!
//! A Scribe/Bayeux-equivalent built on the same substrate as Vitis (Newscast
//! peer sampling, T-Man-maintained ring, Symphony small-world links) but
//! *oblivious to subscriptions*: all non-ring routing-table entries are
//! small-world links and there are no friend links. Every subscriber of a
//! topic periodically routes a join request toward `hash(topic)`; the nodes
//! on the path install per-topic tree soft state (parent toward the
//! rendezvous, children back toward subscribers). Events climb the
//! publisher's path to the rendezvous and flood down the whole tree — every
//! non-subscriber on a path is pure relay traffic, which is exactly the
//! overhead Vitis's clustering removes.

use vitis::config::VitisConfig;
use vitis::dissemination::Dissemination;
use vitis::monitor::Monitor;
use vitis::msg::{wire, DissemMsg, Notification};
use vitis::relay::{RelayTable, RELAY_TTL};
use vitis::topic::{Subs, TopicId};
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_overlay::rt::{HybridRt, RtParams};
use vitis_overlay::substrate::{Sampler, Substrate};
use vitis_sim::antientropy::{AeConfig, AntiEntropy};
use vitis_sim::event::NodeIdx;
use vitis_sim::prelude::{Context, MsgTag, Protocol};

/// RVR wire protocol.
#[derive(Clone, Debug)]
pub enum RvrMsg {
    /// Peer-sampling exchange request.
    PsReq(Vec<Entry<Subs>>),
    /// Peer-sampling exchange reply.
    PsResp(Vec<Entry<Subs>>),
    /// T-Man routing-table exchange request.
    RtReq(Vec<Entry<Subs>>),
    /// T-Man routing-table exchange reply.
    RtResp(Vec<Entry<Subs>>),
    /// Liveness heartbeat to routing-table neighbors, carrying the
    /// sender's ring id for notify-style ring repair.
    Heartbeat(Id, Subs),
    /// A subscriber's (or forwarder's) join step toward the rendezvous,
    /// installing tree soft state (Scribe JOIN).
    Join {
        /// The topic whose tree is being joined/refreshed.
        topic: TopicId,
        /// Hops taken so far.
        hops: u32,
    },
    /// The data plane: copies travelling the tree, publish stimuli and
    /// repair traffic.
    Dissem(DissemMsg),
}

impl From<DissemMsg> for RvrMsg {
    fn from(msg: DissemMsg) -> Self {
        RvrMsg::Dissem(msg)
    }
}

/// An RVR peer. A join takes Vitis's relay-path hop,
/// [`RelayTable::lookup_hop`], so it travels at most
/// [`MAX_LOOKUP_HOPS`](vitis::relay::MAX_LOOKUP_HOPS) hops, and
/// the tree soft state it installs expires after [`RELAY_TTL`] rounds.
pub struct RvrNode {
    /// Membership substrate, the same one Vitis runs on. The subscriptions
    /// ride in the descriptors but no merge ever ranks by them.
    net: Substrate<Subs>,
    /// Per-topic multicast-tree soft state (same structure as Vitis relay
    /// paths: upstream = parent toward rendezvous, downstream = children).
    tree: RelayTable,
    /// Dedup, delivery accounting and the anti-entropy repair layer (inert
    /// unless the `repair` argument of [`RvrNode::new`] enables it); owns
    /// the node's monitor handle.
    dissem: Dissemination,
}

impl RvrNode {
    /// Create a node with the given ring id, subscriptions, anti-entropy
    /// configuration and bootstrap contacts. Of the Vitis configuration RVR reads `rt_size` (its fixed
    /// degree, every slot beyond the two ring links a small-world link),
    /// `est_n` and `age_threshold`.
    pub fn new(
        id: Id,
        subs: Subs,
        cfg: &VitisConfig,
        monitor: Monitor,
        repair: AeConfig,
        bootstrap: Vec<Entry<Subs>>,
    ) -> Self {
        let params = RtParams {
            rt_size: cfg.rt_size,
            // Subscription-oblivious: everything beyond the ring is a
            // small-world link; no friend slots exist.
            k_sw: cfg.rt_size.saturating_sub(2),
            est_n: cfg.est_n,
        };
        let sampler = Sampler::new(id, subs, bootstrap);
        RvrNode {
            net: Substrate::new(sampler, params, cfg.age_threshold),
            tree: RelayTable::new(),
            dissem: Dissemination::new(monitor, repair),
        }
    }

    /// The anti-entropy repair layer (read access for tests).
    pub fn repair(&self) -> &AntiEntropy<Notification> {
        self.dissem.repair()
    }

    /// This node's ring identifier.
    pub fn ring_id(&self) -> Id {
        self.net.id()
    }

    /// This node's subscriptions.
    pub fn subscriptions(&self) -> &Subs {
        self.net.payload()
    }

    /// The current routing table.
    pub fn routing_table(&self) -> &HybridRt<Subs> {
        self.net.rt()
    }

    /// The heap bytes this node owns beyond its inline state, one call per
    /// owner (see `VitisNode::heap_bytes`).
    pub fn heap_bytes(&self, mut owner: impl FnMut(&'static str, u64)) {
        owner("substrate", self.net.heap_bytes());
        owner("relay", self.tree.heap_bytes());
        owner("dissemination", self.dissem.heap_bytes());
    }

    /// The per-topic tree soft state.
    pub fn tree_table(&self) -> &RelayTable {
        &self.tree
    }
}

impl Protocol for RvrNode {
    type Msg = RvrMsg;

    fn classify(msg: &RvrMsg) -> MsgTag {
        match msg {
            RvrMsg::PsReq(_) => MsgTag::control("ps_req"),
            RvrMsg::PsResp(_) => MsgTag::control("ps_resp"),
            RvrMsg::RtReq(_) => MsgTag::control("rt_req"),
            RvrMsg::RtResp(_) => MsgTag::control("rt_resp"),
            RvrMsg::Heartbeat(..) => MsgTag::control("heartbeat"),
            RvrMsg::Join { .. } => MsgTag::control("join"),
            RvrMsg::Dissem(m) => m.tag(),
        }
    }

    fn wire_bytes(msg: &RvrMsg) -> u64 {
        match msg {
            RvrMsg::PsReq(b) | RvrMsg::PsResp(b) | RvrMsg::RtReq(b) | RvrMsg::RtResp(b) => {
                wire::buffer_bytes(b)
            }
            RvrMsg::Heartbeat(_, subs) => wire::subs_bytes(subs),
            RvrMsg::Join { .. } => wire::RELAY_REQUEST_BYTES,
            RvrMsg::Dissem(m) => wire::dissem_bytes(m),
        }
    }

    fn event_of(msg: &RvrMsg) -> Option<u64> {
        match msg {
            RvrMsg::Dissem(m) => m.event(),
            _ => None,
        }
    }

    /// A join hop starts with a search of the tree table; warm the lines
    /// the search for its topic reads, as Vitis does for its relay requests.
    fn prefetch(&self, msg: Option<&RvrMsg>) {
        if let Some(&RvrMsg::Join { topic, .. }) = msg {
            self.tree.prefetch(topic);
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, RvrMsg>) {
        let contacts = self.net.start(ctx.self_idx);
        self.net.merge(contacts, false, |_| 0.0, ctx.rng);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, RvrMsg>) {
        // Peer sampling.
        if let Some((partner, buf)) = self.net.sampling_round(ctx.rng) {
            ctx.send(partner, RvrMsg::PsReq(buf));
        }

        // T-Man exchange.
        if let Some(partner) = self.net.uniform_partner(ctx.rng) {
            ctx.send(partner, RvrMsg::RtReq(self.net.exchange_buffer()));
        }

        // Failure detection.
        for dead in self.net.detect_failures() {
            self.tree.remove_peer(dead);
        }

        // Tree soft state decays unless refreshed by the joins below.
        self.tree.tick();
        self.tree.expire(RELAY_TTL);

        // Every subscriber re-joins every subscribed tree each round
        // (Scribe keep-alive).
        let subs = self.net.payload().clone();
        for topic in subs.iter() {
            let (me, rt) = (self.net.id(), self.net.rt());
            if let Some((next, hops)) = self.tree.lookup_hop(topic, None, 0, me, rt) {
                ctx.send(next, RvrMsg::Join { topic, hops });
            }
        }

        // Heartbeats keep neighbor entries fresh.
        for e in self.net.rt().iter() {
            ctx.send(e.addr, RvrMsg::Heartbeat(self.net.id(), subs.clone()));
        }

        // Anti-entropy repair. Entirely inert — no sends, no RNG draws —
        // unless the layer is enabled, so default runs stay bit-identical.
        self.dissem.round_step(ctx, || self.net.rt().addrs());
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RvrMsg>, from: NodeIdx, msg: RvrMsg) {
        match msg {
            RvrMsg::PsReq(buf) => {
                let reply = self.net.on_ps_request(from, &buf, ctx.rng);
                ctx.send(from, RvrMsg::PsResp(reply));
            }
            RvrMsg::PsResp(buf) => self.net.on_ps_response(&buf),
            RvrMsg::RtReq(buf) => {
                let reply = self.net.on_rt_request(buf, false, |_| 0.0, ctx.rng);
                ctx.send(from, RvrMsg::RtResp(reply));
            }
            RvrMsg::RtResp(buf) => self.net.merge(buf, false, |_| 0.0, ctx.rng),
            RvrMsg::Heartbeat(id, subs) => {
                self.net.on_heartbeat(from, id, &subs);
            }
            RvrMsg::Join { topic, hops } => {
                let (me, rt) = (self.net.id(), self.net.rt());
                if let Some((next, hops)) = self.tree.lookup_hop(topic, Some(from), hops, me, rt) {
                    ctx.send(next, RvrMsg::Join { topic, hops });
                }
            }
            RvrMsg::Dissem(msg) => {
                // RVR's `forward_targets`: every tree link of the copy's
                // topic but the one it came in on. A publisher is a
                // subscriber, so it sits in the tree: its copy climbs to
                // the rendezvous and floods down.
                let tree = &self.tree;
                let subs = self.net.payload();
                self.dissem
                    .on_message(ctx, from, subs, msg, |copy, came_from, targets| {
                        tree.fanout_into(copy.topic, came_from, targets)
                    });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitis::topic::TopicSet;
    use vitis_sim::engine::{Engine, EngineConfig};
    use vitis_sim::time::Duration;

    fn build_net(n: usize, subs_of: impl Fn(usize) -> Vec<u32>) -> (Engine<RvrNode>, Monitor) {
        let cfg = VitisConfig {
            est_n: 64,
            ..VitisConfig::default()
        };
        let monitor = Monitor::new();
        let mut eng = Engine::new(EngineConfig {
            seed: 9,
            round_period: Duration(64),
            desynchronize_rounds: true,
        });
        let mut directory: Vec<Entry<Subs>> = Vec::new();
        for i in 0..n {
            let subs: Subs = Subs::new(TopicSet::from_iter(subs_of(i)));
            let id = Id::of_node(i as u64);
            let boot: Vec<Entry<Subs>> = directory.iter().rev().take(4).cloned().collect();
            let node = RvrNode::new(
                id,
                subs.clone(),
                &cfg,
                monitor.clone(),
                AeConfig::default(),
                boot,
            );
            let slot = eng.add_node(node);
            directory.push(Entry::fresh(slot, id, subs));
        }
        (eng, monitor)
    }

    /// A join that arrives having taken `MAX_LOOKUP_HOPS` hops refreshes
    /// the child link it came over and stops: no send, no upstream, no
    /// root claim. One hop earlier it still goes on to the ring-closer
    /// neighbor.
    #[test]
    fn a_join_at_the_hop_cap_installs_only_its_downstream_link() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use vitis::relay::MAX_LOOKUP_HOPS;
        use vitis_sim::protocol::capture_sends;
        use vitis_sim::time::SimTime;
        let topic = TopicId(5);
        let (child, closer) = (NodeIdx(9), NodeIdx(4));
        let cfg = VitisConfig::default();
        let subs = Subs::new(TopicSet::from_iter([]));
        let mut node = RvrNode::new(
            Id(1 << 40),
            subs.clone(),
            &cfg,
            Monitor::new(),
            AeConfig::default(),
            Vec::new(),
        );
        let mut rng = SmallRng::seed_from_u64(7);
        node.net.start(NodeIdx(0));
        let nbr = Entry::fresh(closer, topic.ring_id(), subs);
        node.net.merge(vec![nbr], false, |_| 0.0, &mut rng);
        assert_eq!(node.routing_table().len(), 1);
        let mut join = |node: &mut RvrNode, hops| {
            capture_sends(NodeIdx(0), SimTime(0), &mut rng, |ctx| {
                node.on_message(ctx, child, RvrMsg::Join { topic, hops })
            })
        };

        let sent = join(&mut node, MAX_LOOKUP_HOPS);
        assert!(sent.is_empty(), "{sent:?}");
        let e = node.tree_table().get(topic).unwrap();
        assert_eq!(e.downstreams().collect::<Vec<_>>(), [child]);
        assert_eq!(e.upstream(), None);
        assert!(!e.is_rendezvous());

        let sent = join(&mut node, MAX_LOOKUP_HOPS - 1);
        let [(to, RvrMsg::Join { hops, .. })] = sent[..] else {
            panic!("one join expected: {sent:?}");
        };
        assert_eq!((to, hops), (closer, MAX_LOOKUP_HOPS));
        assert_eq!(
            node.tree_table().get(topic).unwrap().upstream(),
            Some(closer)
        );
    }

    /// Every RVR control message is priced by the `wire` rule Vitis's
    /// counterpart uses: descriptor buffers alike, a join as a relay
    /// request, a heartbeat as a profile with no proposals.
    #[test]
    fn every_message_has_its_wire_size() {
        let subs = Subs::new(TopicSet::from_iter([1, 4, 9]));
        let buf = vec![Entry::fresh(NodeIdx(1), Id(5), subs.clone())];
        let buf_bytes = wire::buffer_bytes(&buf);
        let sizes = [
            (RvrMsg::PsReq(buf.clone()), buf_bytes),
            (RvrMsg::PsResp(buf.clone()), buf_bytes),
            (RvrMsg::RtReq(buf.clone()), buf_bytes),
            (RvrMsg::RtResp(buf), buf_bytes),
            (
                RvrMsg::Heartbeat(Id(3), subs.clone()),
                wire::subs_bytes(&subs),
            ),
            (
                RvrMsg::Join {
                    topic: TopicId(1),
                    hops: 4,
                },
                wire::RELAY_REQUEST_BYTES,
            ),
        ];
        for (msg, bytes) in sizes {
            assert_eq!(RvrNode::wire_bytes(&msg), bytes, "{msg:?}");
        }
    }

    #[test]
    fn every_topic_tree_has_one_rendezvous_after_convergence() {
        let (mut eng, _) = build_net(48, |i| vec![(i % 3) as u32]);
        eng.run_rounds(35);
        for t in 0..3u32 {
            let rdvs = eng
                .alive_nodes()
                .filter(|(_, n)| {
                    n.tree_table()
                        .get(TopicId(t))
                        .is_some_and(|e| e.is_rendezvous())
                })
                .count();
            assert_eq!(rdvs, 1, "topic {t} has {rdvs} rendezvous nodes");
        }
    }

    #[test]
    fn subscribers_sit_in_their_topic_tree() {
        let (mut eng, _) = build_net(48, |i| vec![(i % 3) as u32]);
        eng.run_rounds(30);
        for (_, n) in eng.alive_nodes() {
            for t in n.subscriptions().iter() {
                assert!(
                    n.tree_table().has(t),
                    "subscriber lacks tree state for its topic"
                );
            }
        }
    }

    #[test]
    fn publish_delivers_through_the_tree() {
        let (mut eng, monitor) = build_net(48, |i| if i % 2 == 0 { vec![0] } else { vec![1] });
        eng.run_rounds(35);
        let expected: Vec<NodeIdx> = (1..24).map(|k| NodeIdx(k * 2)).collect();
        let e = monitor.register_event(TopicId(0), eng.now(), expected);
        eng.inject(
            NodeIdx(0),
            DissemMsg::Publish {
                event: e,
                topic: TopicId(0),
            }
            .into(),
        );
        eng.run_rounds(4);
        let (exp, del) = monitor.event_progress(e).unwrap();
        assert_eq!(exp, 23);
        assert!(del >= 22, "tree delivered {del}/{exp}");
    }
}
