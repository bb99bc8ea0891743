//! The Vitis node: the per-peer protocol state machine tying together peer
//! sampling, T-Man neighbor selection (Algorithm 4), profile gossip with
//! gateway election (Algorithms 5–7), relay-path construction and event
//! dissemination.

use crate::config::VitisConfig;
use crate::dissemination::Dissemination;
use crate::gateway::{revise_proposal, Proposal};
use crate::monitor::{EventId, HopPath, Monitor};
use crate::msg::{wire, Notification, ProfileMsg, VitisMsg};
use crate::relay::RelayTable;
use crate::smallmap::SmallMap;
use crate::topic::{RateTable, Subs, TopicId};
use crate::utility::utility;
use std::collections::HashSet;
use std::sync::Arc;
use vitis_overlay::entry::{merge_dedup, Entry};
use vitis_overlay::id::Id;
use vitis_overlay::peer_sampling::{Newscast, PeerSampling};
use vitis_overlay::routing::next_hop;
use vitis_overlay::rt::{build_exchange_buffer, select_neighbors, HybridRt, RtParams};
use vitis_sim::antientropy::{self, AeConfig, AntiEntropy};
use vitis_sim::event::NodeIdx;
use vitis_sim::prelude::{Context, MsgTag, ParallelProtocol, Protocol, StopReason};
use vitis_sim::rng::mix64;

/// State of a reverse link (a neighbor relationship initiated by the peer).
struct ReverseLink {
    subs: Subs,
    age: u16,
}

/// A neighbor's latest advertised gateway proposals plus the rounds elapsed
/// since the advertising heartbeat. The age only matters when gateway
/// failover is enabled: stale advertisements past the failure-detection
/// threshold are then excluded from elections, so a silent (crashed, frozen
/// or partitioned-away) gateway loses its electorate within `age_threshold`
/// rounds instead of whenever its descriptor finally expires.
struct NbrProposals {
    props: Arc<Vec<(TopicId, Proposal)>>,
    age: u16,
}

/// A Vitis peer. Construct with [`VitisNode::new`] and hand to the engine;
/// the [`crate::system::VitisSystem`] wrapper does this for whole networks.
pub struct VitisNode {
    cfg: Arc<VitisConfig>,
    rates: Arc<RateTable>,
    /// Engine address; fixed at `on_start`.
    addr: NodeIdx,
    /// Ring identifier.
    id: Id,
    /// Own subscriptions.
    subs: Subs,
    /// Peer sampling service (Newscast, as in the paper's evaluation).
    sampling: Newscast<Subs>,
    /// The bounded hybrid routing table.
    rt: HybridRt<Subs>,
    /// Bootstrap contacts consumed at `on_start`.
    bootstrap: Vec<Entry<Subs>>,
    /// Own gateway proposal per subscribed topic (recomputed each round).
    proposals: SmallMap<TopicId, Proposal>,
    /// Latest proposals advertised by each neighbor (routing-table or
    /// reverse), with staleness for the failover path.
    nbr_proposals: SmallMap<NodeIdx, NbrProposals>,
    /// Reverse links: nodes that hold *us* in their routing table, learned
    /// from their heartbeats. Overlay links are connections — flooding and
    /// gateway election must see them from both ends, or weakly-connected
    /// cluster pockets become unreachable.
    reverse: SmallMap<NodeIdx, ReverseLink>,
    /// Relay-path soft state.
    relays: RelayTable,
    /// Events this node published that still await a gateway/relay-holder
    /// acknowledgment. Empty unless `publish_retries > 0`.
    pending_pubs: HashSet<EventId>,
    /// What happens to a notification here: dedup, delivery accounting and
    /// the anti-entropy repair layer (default-off; see
    /// [`VitisNode::with_repair`]). Owns the node's monitor handle and the
    /// round counter.
    dissem: Dissemination,
}

impl VitisNode {
    /// Create a node with the given ring id, subscriptions and bootstrap
    /// contacts. The engine address is learnt at `on_start`.
    pub fn new(
        id: Id,
        subs: Subs,
        cfg: Arc<VitisConfig>,
        rates: Arc<RateTable>,
        monitor: Monitor,
        bootstrap: Vec<Entry<Subs>>,
    ) -> Self {
        let sampling = Newscast::new(cfg.sampling_view);
        VitisNode {
            cfg,
            rates,
            addr: NodeIdx(u32::MAX),
            id,
            subs,
            sampling,
            rt: HybridRt::new(),
            bootstrap,
            proposals: SmallMap::new(),
            nbr_proposals: SmallMap::new(),
            reverse: SmallMap::new(),
            relays: RelayTable::new(),
            pending_pubs: HashSet::new(),
            dissem: Dissemination::new(monitor),
        }
    }

    /// Configure the anti-entropy repair layer (builder-style; the
    /// default configuration keeps it off and inert).
    pub fn with_repair(mut self, cfg: AeConfig) -> Self {
        self.dissem.set_repair(cfg);
        self
    }

    /// The anti-entropy repair state (tests/telemetry).
    pub fn repair(&self) -> &AntiEntropy<Notification> {
        self.dissem.repair()
    }

    fn monitor(&self) -> &Monitor {
        self.dissem.monitor()
    }

    /// This node's ring identifier.
    pub fn ring_id(&self) -> Id {
        self.id
    }

    /// This node's subscription set.
    pub fn subscriptions(&self) -> &Subs {
        &self.subs
    }

    /// The current routing table (for snapshots and tests).
    pub fn routing_table(&self) -> &HybridRt<Subs> {
        &self.rt
    }

    /// The relay soft state (for snapshots and tests).
    pub fn relay_table(&self) -> &RelayTable {
        &self.relays
    }

    /// Number of live reverse links (peers holding us in their tables).
    pub fn reverse_degree(&self) -> usize {
        self.reverse.len()
    }

    /// Whether this node currently believes it is a gateway for `topic`.
    pub fn is_gateway(&self, topic: TopicId) -> bool {
        self.proposals
            .get(&topic)
            .is_some_and(|p| p.gw_addr == self.addr)
    }

    /// The node's current proposal for `topic`, if subscribed.
    pub fn proposal(&self, topic: TopicId) -> Option<&Proposal> {
        self.proposals.get(&topic)
    }

    /// Replace this node's subscriptions (subscribe/unsubscribe API). The
    /// change propagates with the next profile heartbeat.
    pub fn set_subscriptions(&mut self, subs: Subs) {
        self.subs = subs;
        self.proposals.retain(|t, _| self.subs.contains(*t));
    }

    fn self_entry(&self) -> Entry<Subs> {
        Entry::fresh(self.addr, self.id, self.subs.clone())
    }

    fn rt_params(&self) -> RtParams {
        RtParams {
            rt_size: self.cfg.rt_size,
            k_sw: self.cfg.k_sw,
            est_n: self.cfg.est_n,
        }
    }

    /// Merge a received T-Man buffer with the current table and sampling
    /// list, then re-run Algorithm 4.
    fn merge_and_select(&mut self, incoming: &[Entry<Subs>], ctx: &mut Context<'_, VitisMsg>) {
        let mut candidates = self.rt.to_vec();
        merge_dedup(&mut candidates, incoming);
        merge_dedup(&mut candidates, self.sampling.sample());
        // Never select descriptors past the failure-detection threshold:
        // copies of a dead node's descriptor keep circulating in exchange
        // buffers (their ages grow in lockstep everywhere), and without this
        // filter they re-enter tables as zombie ring neighbors faster than
        // per-round expiry can purge them.
        candidates.retain(|e| e.age <= self.cfg.age_threshold);
        let keep_sw: Vec<NodeIdx> = self.rt.sw.iter().map(|e| e.addr).collect();
        let keep_friends: Vec<NodeIdx> = self.rt.friends.iter().map(|e| e.addr).collect();
        let rt = if self.cfg.utility_selection {
            let subs = self.subs.clone();
            let rates = self.rates.clone();
            select_neighbors(
                self.addr,
                self.id,
                &self.rt_params(),
                candidates,
                &keep_sw,
                &keep_friends,
                |e| utility(&subs, &e.payload, &rates),
                ctx.rng,
            )
        } else {
            // Ablation: rank friends by a deterministic pseudo-random key
            // instead of Equation 1.
            let salt = self.dissem.round() ^ (self.addr.0 as u64) << 32;
            select_neighbors(
                self.addr,
                self.id,
                &self.rt_params(),
                candidates,
                &keep_sw,
                &[],
                |e| mix64(e.addr.0 as u64 ^ salt) as f64,
                ctx.rng,
            )
        };
        self.rt = rt;
        let rt = &self.rt;
        let reverse = &self.reverse;
        self.nbr_proposals
            .retain(|addr, _| rt.contains(*addr) || reverse.contains_key(addr));
    }

    /// Recompute the gateway proposal for every subscribed topic from the
    /// neighbors' latest advertisements (Algorithm 5), then refresh the
    /// relay path wherever this node elects itself.
    fn update_profile(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        let subs = self.subs.clone();
        let mut new_props = SmallMap::new();
        for topic in subs.iter() {
            let prop = if self.cfg.gateway_election {
                // Interested neighbors over the *connection* set: our table
                // entries plus reverse links.
                let rt_nbrs = self
                    .rt
                    .iter()
                    .filter(|e| e.payload.contains(topic))
                    .map(|e| e.addr);
                let rev_nbrs = self
                    .reverse
                    .iter()
                    .filter(|(a, l)| l.subs.contains(topic) && !self.rt.contains(**a))
                    .map(|(a, _)| *a);
                // With failover on, advertisements older than the failure-
                // detection threshold have lost their vote: the advertiser
                // has gone silent, so whatever gateway it endorsed may be
                // gone too, and the election re-runs without it.
                let failover = self.cfg.gateway_failover;
                let thr = self.cfg.age_threshold;
                let with_props = rt_nbrs.chain(rev_nbrs).filter_map(|addr| {
                    self.nbr_proposals
                        .get(&addr)
                        .filter(|np| !failover || np.age <= thr)
                        .and_then(|np| np.props.iter().find(|(t, _)| *t == topic))
                        .map(|(_, p)| (addr, p))
                });
                let rt = &self.rt;
                let reverse = &self.reverse;
                revise_proposal(
                    self.addr,
                    self.id,
                    topic,
                    self.cfg.d_max_hops,
                    with_props,
                    |a| rt.contains(a) || reverse.contains_key(&a),
                )
            } else {
                // Ablation: no election — every subscriber acts as its own
                // gateway, Scribe-style.
                Proposal::self_proposal(self.addr, self.id)
            };
            if prop.gw_addr == self.addr {
                self.refresh_relay(topic, ctx);
            }
            new_props.insert(topic, prop);
        }
        self.proposals = new_props;
    }

    /// One lookup step from this node toward `hash(topic)`: install the
    /// upstream link and forward the relay request, or claim the rendezvous
    /// role if no neighbor is closer.
    fn refresh_relay(&mut self, topic: TopicId, ctx: &mut Context<'_, VitisMsg>) {
        match next_hop(self.id, topic.ring_id(), self.rt.route_candidates()) {
            Some(next) => {
                self.relays.set_upstream(topic, next);
                self.monitor()
                    .record_control_tx(self.addr, wire::RELAY_REQUEST_BYTES);
                ctx.send(next, VitisMsg::RelayRequest { topic, hops: 1 });
            }
            None => self.relays.mark_rendezvous(topic),
        }
    }

    fn on_relay_request(
        &mut self,
        ctx: &mut Context<'_, VitisMsg>,
        from: NodeIdx,
        topic: TopicId,
        hops: u32,
    ) {
        self.relays.add_downstream(topic, from);
        if hops >= self.cfg.max_lookup_hops {
            return;
        }
        match next_hop(self.id, topic.ring_id(), self.rt.route_candidates()) {
            Some(next) => {
                self.relays.set_upstream(topic, next);
                self.monitor()
                    .record_control_tx(self.addr, wire::RELAY_REQUEST_BYTES);
                ctx.send(
                    next,
                    VitisMsg::RelayRequest {
                        topic,
                        hops: hops + 1,
                    },
                );
            }
            None => self.relays.mark_rendezvous(topic),
        }
    }

    /// Forward a notification to every interested routing-table neighbor and
    /// along the topic's relay links, excluding the node it came from.
    fn forward_notification(
        &mut self,
        ctx: &mut Context<'_, VitisMsg>,
        came_from: Option<NodeIdx>,
        notif: Notification,
    ) {
        let mut targets: Vec<NodeIdx> = Vec::new();
        for e in self.rt.iter() {
            if e.payload.contains(notif.topic) && Some(e.addr) != came_from {
                targets.push(e.addr);
            }
        }
        // Links are connections: flood across reverse links too, or weakly
        // connected cluster pockets never hear the event.
        for (&addr, link) in &self.reverse {
            if link.subs.contains(notif.topic)
                && Some(addr) != came_from
                && !targets.contains(&addr)
            {
                targets.push(addr);
            }
        }
        for r in self.relays.fanout(notif.topic, came_from) {
            if !targets.contains(&r) {
                targets.push(r);
            }
        }
        for t in targets {
            self.dissem
                .send_copy(ctx, t, notif.clone(), VitisMsg::Notification);
        }
    }

    fn on_notification(
        &mut self,
        ctx: &mut Context<'_, VitisMsg>,
        from: NodeIdx,
        notif: Notification,
    ) {
        // Retry hardening: gateways and relay holders acknowledge copies
        // that came straight from the publisher — including duplicates,
        // since the previous ack (or the retransmission prompting it) may
        // itself have been lost. Must run before the dedup check.
        if self.cfg.publish_retries > 0
            && notif.hops == 1
            && (self.is_gateway(notif.topic) || self.relays.has(notif.topic))
        {
            self.monitor()
                .record_control_tx(self.addr, wire::PUB_ACK_BYTES);
            ctx.send(from, VitisMsg::PubAck { event: notif.event });
        }
        let Some(fwd) = self.dissem.receive(self.addr, &self.subs, ctx.now, notif) else {
            return;
        };
        // TTL hardening: deliver (and cache) locally but stop forwarding
        // once the copy has exhausted its hop budget, so traffic trapped by
        // a partition dies out. Disabled (u32::MAX) by default.
        if fwd.hops > self.cfg.max_event_hops {
            return;
        }
        self.forward_notification(ctx, Some(from), fwd);
    }

    fn on_publish(&mut self, ctx: &mut Context<'_, VitisMsg>, event: EventId, topic: TopicId) {
        let notif = self.dissem.publish(self.addr, event, topic);
        self.forward_notification(ctx, None, notif);
        if self.cfg.publish_retries > 0 {
            self.pending_pubs.insert(event);
            ctx.timer(
                vitis_sim::time::Duration(self.cfg.publish_ack_timeout),
                VitisMsg::RetryPublish {
                    event,
                    topic,
                    attempt: 1,
                },
            );
        }
    }

    /// A retry timer fired: if the event is still unacknowledged, re-flood
    /// it (the overlay may have re-elected gateways since) and re-arm with
    /// doubled, capped backoff until the retry budget runs out.
    fn on_retry_publish(
        &mut self,
        ctx: &mut Context<'_, VitisMsg>,
        event: EventId,
        topic: TopicId,
        attempt: u32,
    ) {
        if !self.pending_pubs.contains(&event) {
            return;
        }
        let notif = Notification {
            event,
            topic,
            hops: 1,
            path: HopPath::origin(self.addr),
        };
        self.forward_notification(ctx, None, notif);
        if attempt < self.cfg.publish_retries {
            let delay = self
                .cfg
                .publish_ack_timeout
                .checked_shl(attempt)
                .unwrap_or(u64::MAX)
                .min(self.cfg.publish_backoff_cap);
            ctx.timer(
                vitis_sim::time::Duration(delay),
                VitisMsg::RetryPublish {
                    event,
                    topic,
                    attempt: attempt + 1,
                },
            );
        } else {
            // Retry budget exhausted: give up so the set stays bounded.
            self.pending_pubs.remove(&event);
        }
    }
}

/// Parallel-execution support: the node's only shared sink is the
/// evaluation [`Monitor`], whose handler-side writes buffer as
/// [`crate::monitor::MonitorOp`]s while deferred and replay in serial
/// event order on the
/// engine thread.
impl ParallelProtocol for VitisNode {
    type Deferred = Vec<crate::monitor::MonitorOp>;

    fn set_deferred(&mut self, on: bool) {
        self.monitor().set_deferred(on);
    }

    fn take_deferred(&mut self) -> Self::Deferred {
        self.monitor().take_deferred()
    }

    fn apply_deferred(&mut self, ops: Self::Deferred) {
        self.monitor().apply_ops(ops);
    }
}

impl Protocol for VitisNode {
    type Msg = VitisMsg;

    fn classify(msg: &VitisMsg) -> MsgTag {
        match msg {
            VitisMsg::PsReq(_) => MsgTag::control("ps_req"),
            VitisMsg::PsResp(_) => MsgTag::control("ps_resp"),
            VitisMsg::RtReq(_) => MsgTag::control("rt_req"),
            VitisMsg::RtResp(_) => MsgTag::control("rt_resp"),
            VitisMsg::Profile(_) => MsgTag::control("profile"),
            VitisMsg::RelayRequest { .. } => MsgTag::control("relay_req"),
            VitisMsg::Notification(_) => MsgTag::data("notification"),
            VitisMsg::PublishCmd { .. } => MsgTag::data("publish_cmd"),
            VitisMsg::PubAck { .. } => MsgTag::control("pub_ack"),
            VitisMsg::RetryPublish { .. } => MsgTag::control("retry_pub"),
            VitisMsg::AeDigest(_) => MsgTag::control("ae_digest"),
            VitisMsg::AeWant(_) => MsgTag::control("ae_want"),
            VitisMsg::AePush(_) => MsgTag::data("ae_push"),
        }
    }

    fn event_of(msg: &VitisMsg) -> Option<u64> {
        match msg {
            VitisMsg::Notification(n) => Some(n.event.0),
            // A lost recovery push is a lost copy of its event too — the
            // net-drop attribution treats repair and flood alike.
            VitisMsg::AePush(n) => Some(n.event.0),
            _ => None,
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        self.addr = ctx.self_idx;
        let contacts = std::mem::take(&mut self.bootstrap);
        self.sampling.bootstrap(&contacts, self.addr);
        // Seed the routing table immediately so the first rounds can gossip.
        self.merge_and_select(&contacts, ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        self.monitor().record_control_round(self.addr);

        // 1. Peer sampling exchange.
        self.sampling.tick();
        let se = self.self_entry();
        if let Some((partner, buf)) = self.sampling.initiate(&se, ctx.rng) {
            self.monitor()
                .record_control_tx(self.addr, wire::buffer_bytes(&buf));
            ctx.send(partner, VitisMsg::PsReq(buf));
        }

        // 2. T-Man exchange (Algorithm 2). Half the exchanges target a ring
        //    neighbor — their buffers contain *their* ring neighbors, which
        //    is what walks the successor/predecessor pointers to the true
        //    ring. A friend-dominated table would otherwise mix almost
        //    exclusively inside its own interest cluster and converge the
        //    ring very slowly. Falls back to a sampled peer while empty.
        let partner = {
            use rand::Rng;
            let ring_pick = if ctx.rng.gen_bool(0.5) {
                match (&self.rt.succ, &self.rt.pred) {
                    (Some(s), Some(p)) => Some(if ctx.rng.gen_bool(0.5) {
                        s.addr
                    } else {
                        p.addr
                    }),
                    (Some(s), None) => Some(s.addr),
                    (None, Some(p)) => Some(p.addr),
                    (None, None) => None,
                }
            } else {
                None
            };
            ring_pick.or_else(|| {
                let addrs = self.rt.addrs();
                if addrs.is_empty() {
                    self.sampling.sample().first().map(|e| e.addr)
                } else {
                    Some(addrs[ctx.rng.gen_range(0..addrs.len())])
                }
            })
        };
        if let Some(partner) = partner {
            let buf = build_exchange_buffer(&self.rt, self.sampling.sample(), &se);
            self.monitor()
                .record_control_tx(self.addr, wire::buffer_bytes(&buf));
            ctx.send(partner, VitisMsg::RtReq(buf));
        }

        // 3. Failure detection: age and expire stale neighbors (forward and
        //    reverse).
        self.rt.age_all();
        for dead in self.rt.expire(self.cfg.age_threshold) {
            if !self.reverse.contains_key(&dead) {
                self.nbr_proposals.remove(&dead);
            }
            self.sampling.remove(dead);
            self.relays.remove_peer(dead);
        }
        let thr = self.cfg.age_threshold;
        let rt = &self.rt;
        let nbr_proposals = &mut self.nbr_proposals;
        self.reverse.retain(|addr, link| {
            link.age = link.age.saturating_add(1);
            let keep = link.age <= thr;
            if !keep && !rt.contains(*addr) {
                nbr_proposals.remove(addr);
            }
            keep
        });

        // Failover only: remembered proposal advertisements age alongside
        // the neighbors that sent them (reset on each heartbeat).
        if self.cfg.gateway_failover {
            for np in self.nbr_proposals.values_mut() {
                np.age = np.age.saturating_add(1);
            }
        }

        // 4. Relay soft state ages out unless refreshed below.
        self.relays.tick();
        self.relays.expire(self.cfg.relay_ttl);

        // 5. Gateway election + relay refresh (Algorithm 5).
        self.update_profile(ctx);

        // 6. Profile heartbeat to every neighbor (Algorithm 6).
        let pm = ProfileMsg {
            id: self.id,
            subs: self.subs.clone(),
            proposals: Arc::new(
                self.proposals
                    .iter()
                    .map(|(t, p)| (*t, *p))
                    .collect::<Vec<_>>(),
            ),
        };
        let pm_bytes = wire::profile_bytes(&pm);
        for nbr in self.rt.addrs() {
            self.monitor().record_control_tx(self.addr, pm_bytes);
            ctx.send(nbr, VitisMsg::Profile(pm.clone()));
        }

        // 7. Anti-entropy repair: retry outstanding pulls, then gossip a
        //    digest of the recent-event cache to a small random sample of
        //    the connection set (table plus reverse links). Entirely inert
        //    — no sends, no RNG draws — unless the layer is enabled, so
        //    default runs stay bit-identical.
        let (rt, reverse) = (&self.rt, &self.reverse);
        let repair = self.dissem.round_step(
            || {
                let mut nbrs = rt.addrs();
                for (&a, _) in reverse {
                    if !nbrs.contains(&a) {
                        nbrs.push(a);
                    }
                }
                nbrs
            },
            ctx.rng,
        );
        for (target, ids) in repair.pulls {
            self.monitor()
                .record_control_tx(self.addr, ids.len() as u64 * antientropy::WANT_ID_BYTES);
            ctx.send(target, VitisMsg::AeWant(ids));
        }
        if let Some(entries) = repair.digest {
            let bytes = entries.len() as u64 * antientropy::DIGEST_ENTRY_BYTES;
            for t in repair.digest_targets {
                self.monitor().record_control_tx(self.addr, bytes);
                ctx.send(t, VitisMsg::AeDigest(entries.clone()));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VitisMsg>, from: NodeIdx, msg: VitisMsg) {
        match msg {
            VitisMsg::PsReq(buf) => {
                let se = self.self_entry();
                let reply = self.sampling.on_request(&se, from, &buf, ctx.rng);
                self.monitor()
                    .record_control_tx(self.addr, wire::buffer_bytes(&reply));
                ctx.send(from, VitisMsg::PsResp(reply));
            }
            VitisMsg::PsResp(buf) => {
                self.sampling.on_response(self.addr, &buf);
            }
            VitisMsg::RtReq(buf) => {
                // Algorithm 3: reply with our own buffer first, then merge.
                let se = self.self_entry();
                let reply = build_exchange_buffer(&self.rt, self.sampling.sample(), &se);
                self.monitor()
                    .record_control_tx(self.addr, wire::buffer_bytes(&reply));
                ctx.send(from, VitisMsg::RtResp(reply));
                self.merge_and_select(&buf, ctx);
            }
            VitisMsg::RtResp(buf) => {
                self.merge_and_select(&buf, ctx);
            }
            VitisMsg::Profile(pm) => {
                // Algorithm 7: refresh the sender's entry and remember its
                // proposals for the next election step. A sender we do not
                // hold ourselves is a *reverse* neighbor (the connection's
                // other end) — track it for flooding and election, and
                // offer it to the ring-repair check.
                if self.rt.refresh(from, pm.subs.clone()) {
                    self.reverse.remove(&from);
                } else {
                    self.reverse.insert(
                        from,
                        ReverseLink {
                            subs: pm.subs.clone(),
                            age: 0,
                        },
                    );
                    self.rt.adopt_ring_candidate(self.id, from, pm.id, pm.subs);
                }
                self.nbr_proposals.insert(
                    from,
                    NbrProposals {
                        props: pm.proposals,
                        age: 0,
                    },
                );
            }
            VitisMsg::RelayRequest { topic, hops } => {
                self.on_relay_request(ctx, from, topic, hops);
            }
            VitisMsg::Notification(n) => {
                self.on_notification(ctx, from, n);
            }
            VitisMsg::PublishCmd { event, topic } => {
                self.on_publish(ctx, event, topic);
            }
            VitisMsg::PubAck { event } => {
                self.pending_pubs.remove(&event);
            }
            VitisMsg::RetryPublish {
                event,
                topic,
                attempt,
            } => {
                self.on_retry_publish(ctx, event, topic, attempt);
            }
            VitisMsg::AeDigest(entries) => {
                let wants = self.dissem.on_digest(from, &entries, &self.subs);
                if !wants.is_empty() {
                    self.monitor().record_control_tx(
                        self.addr,
                        wants.len() as u64 * antientropy::WANT_ID_BYTES,
                    );
                    ctx.send(from, VitisMsg::AeWant(wants));
                }
            }
            VitisMsg::AeWant(ids) => {
                for push in self.dissem.serve(&ids) {
                    self.dissem.send_copy(ctx, from, push, VitisMsg::AePush);
                }
            }
            VitisMsg::AePush(notif) => {
                self.dissem.recover(self.addr, &self.subs, ctx.now, notif);
            }
        }
    }

    fn on_stop(&mut self, _ctx: &mut Context<'_, VitisMsg>, _reason: StopReason) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitisConfig;
    use vitis_sim::engine::{Engine, EngineConfig};
    use vitis_sim::time::Duration;

    fn build_net(
        n: usize,
        subs_of: impl Fn(usize) -> Vec<u32>,
        topics: usize,
        cfg: VitisConfig,
    ) -> (Engine<VitisNode>, Monitor) {
        let cfg = Arc::new(cfg);
        let rates = Arc::new(crate::topic::RateTable::uniform(topics));
        let monitor = Monitor::new();
        let mut eng = Engine::new(EngineConfig {
            seed: 5,
            round_period: Duration(64),
            desynchronize_rounds: true,
        });
        let mut directory: Vec<Entry<Subs>> = Vec::new();
        for i in 0..n {
            let subs: Subs = Arc::new(crate::topic::TopicSet::from_iter(subs_of(i)));
            let id = Id::of_node(i as u64);
            let boot: Vec<Entry<Subs>> = directory.iter().rev().take(4).cloned().collect();
            let node = VitisNode::new(
                id,
                subs.clone(),
                cfg.clone(),
                rates.clone(),
                monitor.clone(),
                boot,
            );
            let slot = eng.add_node(node);
            directory.push(Entry::fresh(slot, id, subs));
        }
        (eng, monitor)
    }

    fn small_cfg() -> VitisConfig {
        VitisConfig {
            est_n: 64,
            ..VitisConfig::default()
        }
    }

    #[test]
    fn tables_fill_and_stay_bounded() {
        let (mut eng, _) = build_net(64, |i| vec![(i % 4) as u32], 4, small_cfg());
        eng.run_rounds(25);
        for (_, node) in eng.alive_nodes() {
            let rt = node.routing_table();
            assert!(rt.len() <= 15);
            assert!(rt.len() >= 5, "table too empty: {}", rt.len());
            assert!(rt.succ.is_some() && rt.pred.is_some());
        }
    }

    #[test]
    fn every_topic_gets_gateways_and_a_rendezvous() {
        let (mut eng, _) = build_net(64, |i| vec![(i % 4) as u32], 4, small_cfg());
        eng.run_rounds(25);
        for t in 0..4u32 {
            let topic = TopicId(t);
            let gws = eng
                .alive_nodes()
                .filter(|(_, n)| n.is_gateway(topic))
                .count();
            assert!(gws >= 1, "topic {t} has no gateway");
            let rdvs = eng
                .alive_nodes()
                .filter(|(_, n)| {
                    n.relay_table()
                        .get(topic)
                        .is_some_and(|e| e.is_rendezvous())
                })
                .count();
            assert!(rdvs >= 1, "topic {t} has no rendezvous");
        }
    }

    #[test]
    fn subscribers_propose_only_subscribed_topics() {
        let (mut eng, _) = build_net(48, |i| vec![(i % 3) as u32], 3, small_cfg());
        eng.run_rounds(20);
        for (_, node) in eng.alive_nodes() {
            for t in 0..3u32 {
                if node.proposal(TopicId(t)).is_some() {
                    assert!(node.subscriptions().contains(TopicId(t)));
                }
            }
        }
    }

    #[test]
    fn notification_floods_with_reverse_links() {
        let (mut eng, monitor) = build_net(48, |_| vec![0], 1, small_cfg());
        eng.run_rounds(25);
        let topic = TopicId(0);
        let expected: Vec<NodeIdx> = (1..48).map(NodeIdx).collect();
        let e = monitor.register_event(topic, eng.now(), expected);
        eng.inject(NodeIdx(0), VitisMsg::PublishCmd { event: e, topic });
        eng.run_rounds(3);
        let (exp, del) = monitor.event_progress(e).unwrap();
        assert_eq!(exp, 47);
        assert!(del >= 46, "flood covered {del}/{exp}");
        // Reverse links exist somewhere: in-degree is spread over the group.
        let rev: usize = eng.alive_nodes().map(|(_, n)| n.reverse_degree()).sum();
        assert!(rev > 0, "no reverse links learned");
    }

    #[test]
    fn set_subscriptions_updates_proposals() {
        let (mut eng, _) = build_net(32, |_| vec![0, 1], 2, small_cfg());
        eng.run_rounds(15);
        let victim = NodeIdx(3);
        let node = eng.node_mut(victim).unwrap();
        node.set_subscriptions(Arc::new(crate::topic::TopicSet::from_iter([1u32])));
        assert!(node.proposal(TopicId(0)).is_none());
        eng.run_rounds(3);
        let node = eng.node(victim).unwrap();
        assert!(!node.subscriptions().contains(TopicId(0)));
        assert!(node.proposal(TopicId(1)).is_some());
    }

    #[test]
    fn gateway_ablation_marks_every_subscriber() {
        let cfg = VitisConfig {
            gateway_election: false,
            est_n: 64,
            ..VitisConfig::default()
        };
        let (mut eng, _) = build_net(32, |_| vec![0], 1, cfg);
        eng.run_rounds(10);
        for (_, n) in eng.alive_nodes() {
            assert!(n.is_gateway(TopicId(0)), "ablation: everyone is a gateway");
        }
    }

    #[test]
    fn relay_soft_state_expires_without_refresh() {
        let (mut eng, _) = build_net(
            32,
            |i| if i < 16 { vec![0] } else { vec![] },
            1,
            small_cfg(),
        );
        eng.run_rounds(20);
        // Unsubscribe everyone: gateways stop refreshing, relays must decay.
        let idxs = eng.alive_indices();
        for i in idxs {
            let node = eng.node_mut(i).unwrap();
            node.set_subscriptions(Arc::new(crate::topic::TopicSet::new()));
        }
        eng.run_rounds(12);
        let holders = eng
            .alive_nodes()
            .filter(|(_, n)| n.relay_table().has(TopicId(0)))
            .count();
        assert_eq!(holders, 0, "relay state must decay after unsubscribe");
    }
}
