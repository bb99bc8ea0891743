//! The Vitis node: the membership [`Substrate`] (peer sampling, T-Man
//! neighbor selection, failure detection) and the [`Dissemination`]
//! component, assembled under Vitis's own routing policy — Equation 1
//! friend ranking, profile gossip with gateway election (Algorithms 5–7)
//! and relay-path construction.

use crate::config::VitisConfig;
use crate::dissemination::Dissemination;
use crate::gateway::{revise_step, Proposal};
use crate::monitor::{EventId, Monitor};
use crate::msg::{wire, DissemMsg, Notification, ProfileMsg, VitisMsg};
use crate::relay::{RelayTable, RELAY_TTL};
use crate::smallmap::SmallMap;
use crate::topic::{RateTable, Subs, TopicId, TopicSet};
use crate::utility::rank_by_utility;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;
use vitis_overlay::entry::{AddrIndex, Entry};
use vitis_overlay::id::Id;
use vitis_overlay::rt::{HybridRt, RtParams};
use vitis_overlay::substrate::{Sampler, Substrate};
use vitis_sim::antientropy::{AeConfig, AntiEntropy};
use vitis_sim::event::NodeIdx;
use vitis_sim::perf::hash_table_bytes;
use vitis_sim::prelude::{Context, MsgTag, Protocol};
use vitis_sim::rng::mix64;

/// What a node remembers of one neighbor (routing-table or reverse): the
/// subscriptions and gateway proposals its last heartbeat carried, the
/// topics it shares with us, and whether it is a *reverse link* — a peer
/// that heartbeats us without our holding it. One heartbeat writes all of
/// it, so every reverse link has an advertisement. Public only for
/// `tests/size_budget.rs`.
pub struct Neighbor {
    /// The neighbor's latest advertised proposals: one per topic of
    /// `subs`, in its order (the [`ProfileMsg::proposals`] invariant).
    advert: Rc<Vec<(TopicId, Proposal)>>,
    /// The subscriptions the advertising heartbeat carried; a reverse
    /// link's flood and election read its topics from here.
    subs: Subs,
    /// `(own index, advert index)` of every topic both our subscriptions
    /// and `subs` name, ascending: what the election folds. Computed once,
    /// when the entry is made.
    common: Box<[(u16, u16)]>,
    /// Rounds since the advertising heartbeat. Only read with gateway
    /// failover on: stale advertisements past the failure-detection
    /// threshold are then excluded from elections, so a silent (crashed or
    /// partitioned-away) gateway loses its electorate within
    /// `age_threshold` rounds instead of whenever its descriptor expires.
    advert_age: u16,
    /// Rounds since the reverse link's last heartbeat.
    link_age: u16,
    /// Whether the neighbor is a reverse link; false when it is in our
    /// table, or its link aged out.
    link: bool,
}

/// The reverse links of a neighbor table, ascending by address.
fn reverse_links(nbrs: &SmallMap<NodeIdx, Neighbor>) -> impl Iterator<Item = (NodeIdx, &Subs)> {
    nbrs.iter()
        .filter_map(|(a, n)| n.link.then_some((*a, &n.subs)))
}

/// The topics `own` and a heartbeat's `subs` both name, as `(index in
/// own, index in subs)` pairs, ascending, in one exact-size allocation.
///
/// # Panics
/// Panics if a common topic sits past index 65 535 in either set: the
/// pairs are `u16` to keep the cache at 4 bytes a topic, and a truncated
/// index would silently fold the wrong proposal. The widest set any
/// workload builds is 2 000 topics (the Twitter model).
fn common_topics(own: &TopicSet, subs: &TopicSet) -> Box<[(u16, u16)]> {
    let narrow = |i: usize| u16::try_from(i).expect("a subscription set past 65 536 topics");
    let mut pairs = Vec::with_capacity(own.len().min(subs.len()));
    own.for_each_common(subs, |i, j, _| pairs.push((narrow(i), narrow(j))));
    pairs.into_boxed_slice()
}

/// The flood's overlay targets for a `topic` notification that came from
/// `came_from`: interested routing-table neighbors in table order, then
/// interested reverse links the table lacks, ascending. Links are
/// connections: flood across reverse links too, or weakly connected
/// cluster pockets never hear the event.
fn flood_targets(
    rt: &HybridRt<Subs>,
    nbrs: &SmallMap<NodeIdx, Neighbor>,
    topic: TopicId,
    came_from: Option<NodeIdx>,
    targets: &mut Vec<NodeIdx>,
) {
    for e in rt.iter() {
        if e.payload.contains(topic) && Some(e.addr) != came_from {
            targets.push(e.addr);
        }
    }
    for (addr, subs) in reverse_links(nbrs) {
        if subs.contains(topic) && Some(addr) != came_from && !targets.contains(&addr) {
            targets.push(addr);
        }
    }
}

/// Vitis's `forward_targets`: where a copy that came from `came_from`
/// (`None` at its publisher) goes next — the flood's overlay targets, then
/// the topic's relay links — or nowhere once its hop count passes
/// `max_hops`. That TTL hardening (off by default, `u32::MAX`) lets traffic
/// trapped by a partition die out; [`Dissemination`] asks for targets only
/// after a copy is delivered and cached, so a cut copy is still both.
fn forward_targets(
    max_hops: u32,
    rt: &HybridRt<Subs>,
    nbrs: &SmallMap<NodeIdx, Neighbor>,
    relays: &RelayTable,
    copy: &Notification,
    came_from: Option<NodeIdx>,
    targets: &mut Vec<NodeIdx>,
) {
    if copy.hops > max_hops {
        return;
    }
    flood_targets(rt, nbrs, copy.topic, came_from, targets);
    relays.fanout_into(copy.topic, came_from, targets);
}

/// The anti-entropy repair layer's connection set: table entries in table
/// order, then reverse links the table lacks, ascending.
fn repair_neighbors(rt: &HybridRt<Subs>, nbrs: &SmallMap<NodeIdx, Neighbor>) -> Vec<NodeIdx> {
    let mut out = rt.addrs();
    for (a, _) in reverse_links(nbrs) {
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

/// Upper bound, in ticks, on a publisher's doubling retry backoff
/// ([`VitisConfig::publish_ack_timeout`] doubled per retry).
pub const PUBLISH_BACKOFF_CAP: u64 = 512;

/// The [`ProfileMsg::proposals`] invariant the election's cached pairs
/// rely on: one proposal per topic of `subs`, in its order.
fn proposes_for_its_subscriptions(pm: &ProfileMsg) -> bool {
    pm.proposals.iter().map(|(t, _)| *t).eq(pm.subs.iter())
}

/// A Vitis peer. Construct with [`VitisNode::new`] and hand to the engine;
/// the [`crate::system::VitisSystem`] wrapper does this for whole networks.
pub struct VitisNode {
    cfg: Rc<VitisConfig>,
    rates: Arc<RateTable>,
    /// Membership substrate: identity, the advertised subscriptions, the
    /// Newscast view (as in the paper's evaluation), the bounded hybrid
    /// routing table and its failure detector.
    net: Substrate<Subs>,
    /// Own gateway proposal per subscribed topic, ascending by topic: what
    /// the last election found, and what every heartbeat advertises. An
    /// election that finds the same list keeps this allocation, so an
    /// unchanged heartbeat allocates nothing.
    advert: Rc<Vec<(TopicId, Proposal)>>,
    /// Every neighbor whose advertisement is remembered, with its reverse
    /// link if it is one. Reverse links are nodes that hold *us* in their
    /// routing table, learned from their heartbeats. Overlay links are
    /// connections — flooding and gateway election must see them from both
    /// ends, or weakly-connected cluster pockets become unreachable.
    nbrs: SmallMap<NodeIdx, Neighbor>,
    /// Relay-path soft state.
    relays: RelayTable,
    /// Events this node published that still await a gateway/relay-holder
    /// acknowledgment. Empty unless `publish_retries > 0`.
    pending_pubs: HashSet<EventId>,
    /// What happens to a notification here: dedup, delivery accounting and
    /// the anti-entropy repair layer (default-off; set by the `repair`
    /// argument of [`VitisNode::new`]). Owns the node's monitor handle and
    /// the round counter.
    dissem: Dissemination,
}

impl VitisNode {
    /// Create a node with the given ring id, subscriptions, anti-entropy
    /// configuration and bootstrap contacts. The engine address is learnt
    /// at `on_start`.
    pub fn new(
        id: Id,
        subs: Subs,
        cfg: Rc<VitisConfig>,
        rates: Arc<RateTable>,
        monitor: Monitor,
        repair: AeConfig,
        bootstrap: Vec<Entry<Subs>>,
    ) -> Self {
        let params = RtParams {
            rt_size: cfg.rt_size,
            k_sw: cfg.k_sw,
            est_n: cfg.est_n,
        };
        let sampler = Sampler::new(id, subs, bootstrap);
        VitisNode {
            net: Substrate::new(sampler, params, cfg.age_threshold),
            cfg,
            rates,
            advert: Rc::new(Vec::new()),
            nbrs: SmallMap::new(),
            relays: RelayTable::new(),
            pending_pubs: HashSet::new(),
            dissem: Dissemination::new(monitor, repair),
        }
    }

    /// The anti-entropy repair state (tests/telemetry).
    pub fn repair(&self) -> &AntiEntropy<Notification> {
        self.dissem.repair()
    }

    /// This node's ring identifier.
    pub fn ring_id(&self) -> Id {
        self.net.id()
    }

    /// This node's subscription set.
    pub fn subscriptions(&self) -> &Subs {
        self.net.payload()
    }

    /// The current routing table (for snapshots and tests).
    pub fn routing_table(&self) -> &HybridRt<Subs> {
        self.net.rt()
    }

    /// The relay soft state (for snapshots and tests).
    pub fn relay_table(&self) -> &RelayTable {
        &self.relays
    }

    /// The heap bytes this node owns beyond its inline state, one call per
    /// owner, each Σ capacity × element size. `gateway` is the election
    /// state: advertisements (own and remembered), the neighbor table with
    /// each neighbor's common-topic pairs, and unacknowledged publishes.
    /// Subscription sets are shared handles whose bytes belong to the
    /// workload.
    pub fn heap_bytes(&self, mut owner: impl FnMut(&'static str, u64)) {
        use std::mem::size_of;
        let proposal = size_of::<(TopicId, Proposal)>();
        owner("substrate", self.net.heap_bytes());
        owner("relay", self.relays.heap_bytes());
        owner("dissemination", self.dissem.heap_bytes());
        // An advertisement is one allocation shared by its advertiser, the
        // neighbors remembering it and the heartbeats in flight: each
        // holder reports its share, so a superseded copy that only
        // neighbors still hold is counted too, and none twice.
        let share = |a: &Rc<Vec<(TopicId, Proposal)>>| {
            (a.capacity() * proposal / Rc::strong_count(a)) as u64
        };
        let pair = size_of::<(u16, u16)>();
        let adverts: u64 = self
            .nbrs
            .values()
            .map(|n| share(&n.advert) + (n.common.len() * pair) as u64)
            .sum();
        owner(
            "gateway",
            share(&self.advert)
                + adverts
                + self.nbrs.heap_bytes()
                + hash_table_bytes(self.pending_pubs.capacity(), size_of::<EventId>()),
        );
    }

    /// Number of live reverse links (peers holding us in their tables).
    pub fn reverse_degree(&self) -> usize {
        reverse_links(&self.nbrs).count()
    }

    /// Whether this node currently believes it is a gateway for `topic`.
    pub fn is_gateway(&self, topic: TopicId) -> bool {
        self.proposal(topic)
            .is_some_and(|p| p.gw_addr == self.net.addr())
    }

    /// The node's current proposal for `topic`, if subscribed.
    pub fn proposal(&self, topic: TopicId) -> Option<&Proposal> {
        self.advert
            .binary_search_by_key(&topic, |(t, _)| *t)
            .ok()
            .map(|i| &self.advert[i].1)
    }

    /// Run one substrate merge under Vitis's friend policy — Equation 1
    /// with current friends winning ties, or the ablation's pseudo-random
    /// key — then forget the advertisements of peers the merge
    /// disconnected. `merge` is handed the substrate, the
    /// tie rule and the ranking, and picks the operation: a plain merge or
    /// the reply-then-merge of a T-Man request.
    fn ranked_merge<R>(
        &mut self,
        merge: impl FnOnce(&mut Substrate<Subs>, bool, &dyn Fn(&Entry<Subs>) -> f64) -> R,
    ) -> R {
        let out = if self.cfg.utility_selection {
            let subs = self.net.payload().clone();
            rank_by_utility(&subs, &self.rates, |utility| {
                merge(&mut self.net, true, &|e| utility(&e.payload))
            })
        } else {
            // Ablation: rank friends by a deterministic pseudo-random key
            // instead of Equation 1.
            let salt = self.dissem.round() ^ (self.net.addr().0 as u64) << 32;
            merge(&mut self.net, false, &|e| {
                mix64(e.addr.0 as u64 ^ salt) as f64
            })
        };
        let in_table = AddrIndex::of(self.net.rt().iter().map(|e| e.addr));
        self.nbrs
            .retain(|addr, n| n.link || in_table.contains(*addr));
        out
    }

    /// Algorithm 7: refresh the sender's entry and remember its proposals
    /// for the next election step. A sender we do not hold ourselves is a
    /// *reverse* neighbor (the connection's other end) — track it for
    /// flooding and election, and offer it to the ring-repair check.
    fn on_profile(&mut self, from: NodeIdx, pm: ProfileMsg) {
        debug_assert!(proposes_for_its_subscriptions(&pm));
        let in_table = self.net.on_heartbeat(from, pm.id, &pm.subs);
        if let Some(n) = self.nbrs.get_mut(&from) {
            debug_assert!(Arc::ptr_eq(&n.subs, &pm.subs), "{from:?} changed handle");
            n.advert = pm.proposals;
            n.advert_age = 0;
            n.link_age = 0;
            n.link = !in_table;
        } else {
            let nbr = Neighbor {
                common: common_topics(self.net.payload(), &pm.subs),
                advert: pm.proposals,
                subs: pm.subs,
                advert_age: 0,
                link_age: 0,
                link: !in_table,
            };
            self.nbrs.insert(from, nbr);
        }
    }

    /// The failure-detection step: expire stale table entries, forgetting
    /// the advertisements and relay links of those that are not reverse
    /// links too; then age the reverse links, forgetting a neighbor whose
    /// link expires outside the table; and, with failover on, age every
    /// remembered advertisement (a heartbeat resets it).
    fn detect_failures(&mut self) {
        for dead in self.net.detect_failures() {
            if self.nbrs.get(&dead).is_some_and(|n| !n.link) {
                self.nbrs.remove(&dead);
            }
            self.relays.remove_peer(dead);
        }
        let (thr, failover) = (self.cfg.age_threshold, self.cfg.gateway_failover);
        let rt = self.net.rt();
        self.nbrs.retain(|addr, n| {
            if failover {
                n.advert_age = n.advert_age.saturating_add(1);
            }
            if n.link {
                n.link_age = n.link_age.saturating_add(1);
                if n.link_age > thr {
                    n.link = false;
                    return rt.contains(*addr);
                }
            }
            true
        });
    }

    /// Recompute the gateway proposal for every subscribed topic from the
    /// neighbors' latest advertisements (Algorithm 5), and make it the
    /// advertisement unless it equals the current one.
    ///
    /// Neighbor-major: the connection set (table entries, then reverse
    /// links not in the table) is walked once, and each neighbor's
    /// advertisement is folded into every topic both of us name, its
    /// cached common-topic pairs. A topic still meets its interested
    /// neighbors in connection-set order, so each topic's fold is the one
    /// `revise_proposal` makes.
    fn elect(&mut self) {
        let (addr, subs) = (self.net.addr(), self.net.payload());
        let own = Proposal::self_proposal(addr, self.net.id());
        let mut props = Vec::with_capacity(subs.len());
        props.extend(subs.iter().map(|t| (t, own)));
        // Ablation: no election — every subscriber acts as its own
        // gateway, Scribe-style.
        if self.cfg.gateway_election {
            let (rt, nbrs) = (self.net.rt(), &self.nbrs);
            let connected = |a: NodeIdx| rt.contains(a) || nbrs.get(&a).is_some_and(|n| n.link);
            let table = rt.iter().filter_map(|e| {
                let n = nbrs.get(&e.addr)?;
                debug_assert!(
                    Arc::ptr_eq(&e.payload, &n.subs),
                    "{:?} changed handle",
                    e.addr
                );
                Some((e.addr, n))
            });
            let reverse_only = nbrs
                .iter()
                .filter(|(a, n)| n.link && !rt.contains(**a))
                .map(|(a, n)| (*a, n));
            let targets: Vec<Id> = subs.iter().map(TopicId::ring_id).collect();
            // With failover on, advertisements older than the failure-
            // detection threshold have lost their vote: the advertiser
            // has gone silent, so whatever gateway it endorsed may be
            // gone too, and the election re-runs without it.
            let failover = self.cfg.gateway_failover;
            let (thr, d_max) = (self.cfg.age_threshold, self.cfg.d_max_hops);
            for (nbr, n) in table.chain(reverse_only) {
                if failover && n.advert_age > thr {
                    continue;
                }
                for &(i, j) in n.common.iter() {
                    let (i, j) = (usize::from(i), usize::from(j));
                    let prop = &mut props[i].1;
                    let new = &n.advert[j].1;
                    revise_step(prop, addr, targets[i], d_max, nbr, new, connected);
                }
            }
        }
        if *self.advert != props {
            self.advert = Rc::new(props);
        }
    }

    /// Gateway election, then a relay-path refresh wherever this node
    /// elects itself.
    fn update_profile(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        self.elect();
        for i in 0..self.advert.len() {
            let (topic, prop) = self.advert[i];
            if prop.gw_addr != self.net.addr() {
                continue;
            }
            let (me, rt) = (self.net.id(), self.net.rt());
            if let Some((next, hops)) = self.relays.lookup_hop(topic, None, 0, me, rt) {
                ctx.send(next, VitisMsg::RelayRequest { topic, hops });
            }
        }
    }

    /// A data-plane message from `from`, wrapped in Vitis's hardening:
    /// with publisher retries on, gateways and relay holders acknowledge
    /// copies that came straight from the publisher — before the dedup,
    /// so duplicates too, since the previous ack (or the retransmission
    /// prompting it) may itself have been lost — and a publisher arms its
    /// retry timer after the publish's copies have left.
    fn on_dissem(&mut self, ctx: &mut Context<'_, VitisMsg>, from: NodeIdx, msg: DissemMsg) {
        let retries = self.cfg.publish_retries > 0;
        let mut publish = None;
        match &msg {
            DissemMsg::Notification(n)
                if retries
                    && n.hops == 1
                    && (self.is_gateway(n.topic) || self.relays.has(n.topic)) =>
            {
                ctx.send(from, VitisMsg::PubAck { event: n.event });
            }
            &DissemMsg::Publish { event, topic } if retries => publish = Some((event, topic)),
            _ => {}
        }
        let (max_hops, rt, nbrs, relays) = (
            self.cfg.max_event_hops,
            self.net.rt(),
            &self.nbrs,
            &self.relays,
        );
        let subs = self.net.payload();
        self.dissem
            .on_message(ctx, from, subs, msg, |copy, came_from, targets| {
                forward_targets(max_hops, rt, nbrs, relays, copy, came_from, targets)
            });
        if let Some((event, topic)) = publish {
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
    /// doubled backoff, capped at [`PUBLISH_BACKOFF_CAP`], until the retry
    /// budget runs out.
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
        let (max_hops, rt, nbrs, relays) = (
            self.cfg.max_event_hops,
            self.net.rt(),
            &self.nbrs,
            &self.relays,
        );
        self.dissem
            .republish(ctx, event, topic, |copy, came_from, targets| {
                forward_targets(max_hops, rt, nbrs, relays, copy, came_from, targets)
            });
        if attempt < self.cfg.publish_retries {
            let delay = self
                .cfg
                .publish_ack_timeout
                .saturating_mul(2u64.saturating_pow(attempt))
                .min(PUBLISH_BACKOFF_CAP);
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
            VitisMsg::PubAck { .. } => MsgTag::control("pub_ack"),
            VitisMsg::RetryPublish { .. } => MsgTag::control("retry_pub"),
            VitisMsg::Dissem(m) => m.tag(),
        }
    }

    fn wire_bytes(msg: &VitisMsg) -> u64 {
        match msg {
            VitisMsg::PsReq(b) | VitisMsg::PsResp(b) | VitisMsg::RtReq(b) | VitisMsg::RtResp(b) => {
                wire::buffer_bytes(b)
            }
            VitisMsg::Profile(pm) => wire::profile_bytes(pm),
            VitisMsg::RelayRequest { .. } => wire::RELAY_REQUEST_BYTES,
            VitisMsg::PubAck { .. } => wire::PUB_ACK_BYTES,
            // RetryPublish is a self-timer and never crosses the network;
            // its size only matters for totality.
            VitisMsg::RetryPublish { .. } => 0,
            VitisMsg::Dissem(m) => wire::dissem_bytes(m),
        }
    }

    fn event_of(msg: &VitisMsg) -> Option<u64> {
        match msg {
            VitisMsg::Dissem(m) => m.event(),
            _ => None,
        }
    }

    /// A relay request's hop starts with a search of the relay table, the
    /// handler's cold miss on `gossip_2k`; warm the lines the search for its
    /// topic reads. A profile message's handler starts with a search of the
    /// neighbor map; warm its keys. The other kinds' first reads measured
    /// no gain from a hint (DESIGN §14).
    fn prefetch(&self, msg: Option<&VitisMsg>) {
        match msg {
            Some(&VitisMsg::RelayRequest { topic, .. }) => self.relays.prefetch(topic),
            Some(VitisMsg::Profile(_)) => self.nbrs.prefetch_keys(),
            _ => {}
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        let contacts = self.net.start(ctx.self_idx);
        // Seed the routing table immediately so the first rounds can gossip.
        self.ranked_merge(|net, sticky, rank| net.merge(contacts, sticky, rank, ctx.rng));
    }

    fn on_round(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        // 1. Peer sampling exchange.
        if let Some((partner, buf)) = self.net.sampling_round(ctx.rng) {
            ctx.send(partner, VitisMsg::PsReq(buf));
        }

        // 2. T-Man exchange (Algorithm 2). Half the exchanges target a ring
        //    neighbor — their buffers contain *their* ring neighbors, which
        //    is what walks the successor/predecessor pointers to the true
        //    ring. A friend-dominated table would otherwise mix almost
        //    exclusively inside its own interest cluster and converge the
        //    ring very slowly. The other half, and a node with no ring
        //    neighbor yet, draw from the whole table.
        let ring_pick = {
            use rand::Rng;
            let rt = self.net.rt();
            if ctx.rng.gen_bool(0.5) {
                match (&rt.succ, &rt.pred) {
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
            }
        };
        if let Some(partner) = ring_pick.or_else(|| self.net.uniform_partner(ctx.rng)) {
            let buf = self.net.exchange_buffer();
            ctx.send(partner, VitisMsg::RtReq(buf));
        }

        // 3. Failure detection: age and expire stale neighbors (forward and
        //    reverse).
        self.detect_failures();

        // 4. Relay soft state ages out unless refreshed below.
        self.relays.tick();
        self.relays.expire(RELAY_TTL);

        // 5. Gateway election + relay refresh (Algorithm 5).
        self.update_profile(ctx);

        // 6. Profile heartbeat to every neighbor (Algorithm 6).
        let pm = ProfileMsg {
            id: self.net.id(),
            subs: self.net.payload().clone(),
            proposals: self.advert.clone(),
        };
        debug_assert!(proposes_for_its_subscriptions(&pm));
        for e in self.net.rt().iter() {
            ctx.send(e.addr, VitisMsg::Profile(pm.clone()));
        }

        // 7. Anti-entropy repair: retry outstanding pulls, then gossip a
        //    digest of the recent-event cache to a small random sample of
        //    the connection set (table plus reverse links). Entirely inert
        //    — no sends, no RNG draws — unless the layer is enabled, so
        //    default runs stay bit-identical.
        let neighbors = || repair_neighbors(self.net.rt(), &self.nbrs);
        self.dissem.round_step(ctx, neighbors);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VitisMsg>, from: NodeIdx, msg: VitisMsg) {
        match msg {
            VitisMsg::PsReq(buf) => {
                let reply = self.net.on_ps_request(from, &buf, ctx.rng);
                ctx.send(from, VitisMsg::PsResp(reply));
            }
            VitisMsg::PsResp(buf) => self.net.on_ps_response(&buf),
            VitisMsg::RtReq(buf) => {
                let reply = self.ranked_merge(|net, sticky, rank| {
                    net.on_rt_request(buf, sticky, rank, ctx.rng)
                });
                ctx.send(from, VitisMsg::RtResp(reply));
            }
            VitisMsg::RtResp(buf) => {
                self.ranked_merge(|net, sticky, rank| net.merge(buf, sticky, rank, ctx.rng));
            }
            VitisMsg::Profile(pm) => self.on_profile(from, pm),
            VitisMsg::RelayRequest { topic, hops } => {
                let (me, rt) = (self.net.id(), self.net.rt());
                let hop = self.relays.lookup_hop(topic, Some(from), hops, me, rt);
                if let Some((next, hops)) = hop {
                    ctx.send(next, VitisMsg::RelayRequest { topic, hops });
                }
            }
            VitisMsg::Dissem(msg) => self.on_dissem(ctx, from, msg),
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitisConfig;
    use rand::rngs::SmallRng;
    use vitis_sim::engine::{Engine, EngineConfig};
    use vitis_sim::time::Duration;

    fn build_net(
        n: usize,
        subs_of: impl Fn(usize) -> Vec<u32>,
        topics: usize,
        cfg: VitisConfig,
    ) -> (Engine<VitisNode>, Monitor) {
        let cfg = Rc::new(cfg);
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
                AeConfig::default(),
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
        eng.inject(NodeIdx(0), DissemMsg::Publish { event: e, topic }.into());
        eng.run_rounds(3);
        let (exp, del) = monitor.event_progress(e).unwrap();
        assert_eq!(exp, 47);
        assert!(del >= 46, "flood covered {del}/{exp}");
        // Reverse links exist somewhere: in-degree is spread over the group.
        let rev: usize = eng.alive_nodes().map(|(_, n)| n.reverse_degree()).sum();
        assert!(rev > 0, "no reverse links learned");
    }

    /// The advertisement is the node's one copy of its election: a round
    /// whose election finds the same list keeps the allocation, and every
    /// heartbeat carries it — a neighbor that heard this node since its
    /// own last round holds the very handle the node holds.
    #[test]
    fn heartbeats_carry_the_advert_an_unchanged_election_keeps() {
        let cfg = VitisConfig {
            gateway_failover: true,
            ..small_cfg()
        };
        let (mut eng, _) = build_net(48, |i| vec![(i % 3) as u32, 3], 4, cfg);
        eng.run_rounds(20);
        let before: Vec<(NodeIdx, Advert)> = eng
            .alive_nodes()
            .map(|(i, n)| (i, n.advert.clone()))
            .collect();
        eng.run_rounds(1);
        let (mut kept, mut carried) = (0, 0);
        for (i, old) in &before {
            let node = eng.node(*i).unwrap();
            if *node.advert == **old {
                assert!(Rc::ptr_eq(&node.advert, old), "node {i:?}");
                kept += 1;
            }
            for (from, nbr) in node.nbrs.iter() {
                // With failover on, a heartbeat since the holder's last
                // round is one at age 0; it came from the sender's latest
                // round, which is the sender's current advertisement.
                if nbr.advert_age == 0 {
                    let sender = eng.node(*from).unwrap();
                    assert!(Rc::ptr_eq(&nbr.advert, &sender.advert), "{from:?} → {i:?}");
                    carried += 1;
                }
            }
        }
        assert!(
            kept > 24,
            "most elections are settled after 20 rounds: {kept}"
        );
        assert!(carried > 100, "{carried} fresh heartbeats checked");
    }

    fn subs_of(topics: &[u32]) -> Subs {
        Arc::new(crate::topic::TopicSet::from_iter(topics.iter().copied()))
    }

    /// A started node at address 0 with nothing in its tables.
    fn lone_node(subs: &[u32], cfg: VitisConfig) -> VitisNode {
        let mut node = VitisNode::new(
            Id(1 << 40),
            subs_of(subs),
            Rc::new(cfg),
            Arc::new(crate::topic::RateTable::uniform(64)),
            Monitor::new(),
            AeConfig::default(),
            Vec::new(),
        );
        node.net.start(NodeIdx(0));
        node
    }

    /// A relay request that arrives having taken `MAX_LOOKUP_HOPS` hops
    /// refreshes the downstream link it came over and stops: no send, no
    /// upstream, no rendezvous claim. One hop earlier it still goes on to
    /// the ring-closer neighbor.
    #[test]
    fn a_relay_request_at_the_hop_cap_installs_only_its_downstream_link() {
        use crate::relay::MAX_LOOKUP_HOPS;
        use rand::SeedableRng;
        use vitis_sim::protocol::capture_sends;
        use vitis_sim::time::SimTime;
        let topic = TopicId(5);
        let (gateway, closer) = (NodeIdx(9), NodeIdx(4));
        let mut node = lone_node(&[], small_cfg());
        let mut rng = SmallRng::seed_from_u64(7);
        let nbr = Entry::fresh(closer, topic.ring_id(), subs_of(&[]));
        merge(&mut node, vec![nbr], &mut rng);
        assert_eq!(node.routing_table().len(), 1);
        let mut request = |node: &mut VitisNode, hops| {
            capture_sends(NodeIdx(0), SimTime(0), &mut rng, |ctx| {
                node.on_message(ctx, gateway, VitisMsg::RelayRequest { topic, hops })
            })
        };

        let sent = request(&mut node, MAX_LOOKUP_HOPS);
        assert!(sent.is_empty(), "{sent:?}");
        let e = node.relay_table().get(topic).unwrap();
        assert_eq!(e.downstreams().collect::<Vec<_>>(), [gateway]);
        assert_eq!(e.upstream(), None);
        assert!(!e.is_rendezvous());

        let sent = request(&mut node, MAX_LOOKUP_HOPS - 1);
        let [(to, VitisMsg::RelayRequest { hops, .. })] = sent[..] else {
            panic!("one relay request expected: {sent:?}");
        };
        assert_eq!((to, hops), (closer, MAX_LOOKUP_HOPS));
        assert_eq!(
            node.relay_table().get(topic).unwrap().upstream(),
            Some(closer)
        );
    }

    type Advert = Rc<Vec<(TopicId, Proposal)>>;

    /// The neighbor state as the two maps the one table replaced, under
    /// their rules: remembered advertisements with the subscriptions their
    /// heartbeat carried and their ages, and reverse links with theirs.
    /// Each path that drops an advertisement spares the keys of a reverse
    /// link.
    #[derive(Default)]
    struct TwoMaps {
        nbr_proposals: std::collections::BTreeMap<NodeIdx, (Advert, Subs, u16)>,
        reverse: std::collections::BTreeMap<NodeIdx, (Subs, u16)>,
    }

    impl TwoMaps {
        /// A heartbeat from `from`, which the table held (`in_table`) or not.
        fn heartbeat(&mut self, from: NodeIdx, in_table: bool, subs: Subs, advert: Advert) {
            if in_table {
                self.reverse.remove(&from);
            } else {
                self.reverse.insert(from, (subs.clone(), 0));
            }
            self.nbr_proposals.insert(from, (advert, subs, 0));
        }

        /// The pruning after a merge left the table `rt`.
        fn merged(&mut self, rt: &HybridRt<Subs>) {
            let reverse = &self.reverse;
            self.nbr_proposals
                .retain(|addr, _| rt.contains(*addr) || reverse.contains_key(addr));
        }

        /// The failure-detection step that expired `dead` and left `rt`.
        fn failures(&mut self, dead: &[NodeIdx], rt: &HybridRt<Subs>, cfg: &VitisConfig) {
            for d in dead {
                if !self.reverse.contains_key(d) {
                    self.nbr_proposals.remove(d);
                }
            }
            let nbr_proposals = &mut self.nbr_proposals;
            self.reverse.retain(|addr, (_, age)| {
                *age = age.saturating_add(1);
                let keep = *age <= cfg.age_threshold;
                if !keep && !rt.contains(*addr) {
                    nbr_proposals.remove(addr);
                }
                keep
            });
            if cfg.gateway_failover {
                for (_, _, age) in nbr_proposals.values_mut() {
                    *age = age.saturating_add(1);
                }
            }
        }

        /// The one table holding the same state, for a node subscribed to
        /// `own`. A reverse link's subscriptions are its heartbeat's.
        fn table(&self, own: &TopicSet) -> SmallMap<NodeIdx, Neighbor> {
            let nbr = |(a, (advert, subs, age)): (&NodeIdx, &(Advert, Subs, u16))| {
                let link = self.reverse.get(a);
                assert!(link.is_none_or(|(s, _)| Arc::ptr_eq(s, subs)));
                let n = Neighbor {
                    advert: advert.clone(),
                    subs: subs.clone(),
                    common: common_topics(own, subs),
                    advert_age: *age,
                    link_age: link.map_or(0, |(_, age)| *age),
                    link: link.is_some(),
                };
                (*a, n)
            };
            assert!(self
                .reverse
                .keys()
                .all(|a| self.nbr_proposals.contains_key(a)));
            self.nbr_proposals.iter().map(nbr).collect()
        }

        /// Whether `nbrs` holds exactly this state, handle for handle.
        fn matches(&self, nbrs: &SmallMap<NodeIdx, Neighbor>) -> bool {
            nbrs.len() == self.nbr_proposals.len()
                && nbrs
                    .iter()
                    .zip(&self.nbr_proposals)
                    .all(|((a, n), (b, m))| {
                        let link = self.reverse.get(b);
                        a == b
                            && Rc::ptr_eq(&n.advert, &m.0)
                            && Arc::ptr_eq(&n.subs, &m.1)
                            && n.advert_age == m.2
                            && match link {
                                Some((t, age)) => {
                                    n.link && Arc::ptr_eq(&n.subs, t) && n.link_age == *age
                                }
                                None => !n.link,
                            }
                    })
        }

        /// The flood's overlay targets as the two maps chose them.
        fn flood_targets(
            &self,
            rt: &HybridRt<Subs>,
            topic: TopicId,
            came_from: Option<NodeIdx>,
        ) -> Vec<NodeIdx> {
            let mut targets: Vec<NodeIdx> = rt
                .iter()
                .filter(|e| e.payload.contains(topic) && Some(e.addr) != came_from)
                .map(|e| e.addr)
                .collect();
            for (&addr, (subs, _)) in &self.reverse {
                if subs.contains(topic) && Some(addr) != came_from && !targets.contains(&addr) {
                    targets.push(addr);
                }
            }
            targets
        }

        /// The repair layer's connection set as the two maps gave it.
        fn repair_neighbors(&self, rt: &HybridRt<Subs>) -> Vec<NodeIdx> {
            let mut nbrs = rt.addrs();
            for &a in self.reverse.keys() {
                if !nbrs.contains(&a) {
                    nbrs.push(a);
                }
            }
            nbrs
        }
    }

    /// The election as it was before the neighbor-major pass, over the two
    /// maps: per topic, the interested neighbors in connection-set order,
    /// each looked up in its advertisement, folded by `revise_proposal`.
    fn elect_topic_major(node: &VitisNode, maps: &TwoMaps) -> Vec<(TopicId, Proposal)> {
        let failover = node.cfg.gateway_failover;
        let thr = node.cfg.age_threshold;
        let rt = node.net.rt();
        node.subscriptions()
            .iter()
            .map(|topic| {
                let rt_nbrs = rt
                    .iter()
                    .filter(|e| e.payload.contains(topic))
                    .map(|e| e.addr);
                let rev_nbrs = maps
                    .reverse
                    .iter()
                    .filter(|(a, (subs, _))| subs.contains(topic) && !rt.contains(**a))
                    .map(|(a, _)| *a);
                let with_props = rt_nbrs.chain(rev_nbrs).filter_map(|addr| {
                    maps.nbr_proposals
                        .get(&addr)
                        .filter(|(_, _, age)| !failover || *age <= thr)
                        .and_then(|(advert, _, _)| advert.iter().find(|(t, _)| *t == topic))
                        .map(|(_, p)| (addr, p))
                });
                let prop = crate::gateway::revise_proposal(
                    node.net.addr(),
                    node.net.id(),
                    topic,
                    node.cfg.d_max_hops,
                    with_props,
                    |a| rt.contains(a) || maps.reverse.contains_key(&a),
                );
                (topic, prop)
            })
            .collect()
    }

    const TOPICS: u32 = 10;
    /// Peer addresses are drawn from `1..POOL`.
    const POOL: u32 = 24;

    /// Few topics: several neighbors vote on each topic and tie, so the
    /// election's result depends on the fold order.
    fn random_subs(rng: &mut SmallRng) -> Subs {
        use rand::Rng;
        let n = rng.gen_range(0..12);
        let topics: Vec<u32> = (0..n).map(|_| rng.gen_range(0..TOPICS)).collect();
        subs_of(&topics)
    }

    /// An advertisement by `addr` for `topics`, with few gateways and hop
    /// counts, and parents ranging over self (node 0), the advertiser,
    /// table members and strangers.
    fn random_advert(addr: u32, topics: &Subs, rng: &mut SmallRng) -> Advert {
        use rand::Rng;
        let props = topics
            .iter()
            .map(|t| {
                let gw = rng.gen_range(0..4);
                let prop = Proposal {
                    gw_id: Id::of_node(gw as u64),
                    gw_addr: NodeIdx(gw),
                    parent: NodeIdx(match rng.gen_range(0..6) {
                        0 => 0,
                        1 | 2 => rng.gen_range(1..POOL + 8),
                        _ => addr,
                    }),
                    hops: rng.gen_range(0..5),
                };
                (t, prop)
            })
            .collect();
        Rc::new(props)
    }

    /// One subscription handle per peer address in `0..POOL + 4`: what
    /// every descriptor and heartbeat of that peer carries, as in a run.
    fn peer_handles(rng: &mut SmallRng) -> Vec<Subs> {
        (0..POOL + 4).map(|_| random_subs(rng)).collect()
    }

    fn random_entry(addr: u32, peers: &[Subs], rng: &mut SmallRng) -> Entry<Subs> {
        use rand::Rng;
        Entry {
            addr: NodeIdx(addr),
            id: Id::of_node(addr as u64),
            age: rng.gen_range(0..4),
            payload: peers[addr as usize].clone(),
        }
    }

    /// Random connection state: a table, reverse links (some shadowing
    /// table entries), and advertisements of every age, each built over
    /// its advertiser's handle in `peers`. Every reverse link has an
    /// advertisement, as one heartbeat writes both; other peers may not.
    /// Installed in the node and returned as the two maps.
    fn randomize_connections(
        node: &mut VitisNode,
        peers: &[Subs],
        two_node_ring: bool,
        rng: &mut SmallRng,
    ) -> TwoMaps {
        use rand::Rng;
        let entry = |addr, rng: &mut SmallRng| random_entry(addr, peers, rng);
        let mut order: Vec<u32> = (1..POOL).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut next = order.into_iter();
        let mut rt = HybridRt::new();
        rt.succ = Some(entry(next.next().unwrap(), rng));
        if two_node_ring {
            rt.pred = rt.succ.clone();
        } else {
            rt.pred = Some(entry(next.next().unwrap(), rng));
            for _ in 0..rng.gen_range(0..3) {
                rt.sw.push(entry(next.next().unwrap(), rng));
            }
            for _ in 0..rng.gen_range(0..8) {
                rt.friends.push(entry(next.next().unwrap(), rng));
            }
        }
        *node.net.rt_mut() = rt;
        let mut maps = TwoMaps::default();
        for _ in 0..rng.gen_range(0..8) {
            let addr = rng.gen_range(1..POOL);
            let link = (peers[addr as usize].clone(), rng.gen_range(0..4));
            maps.reverse.insert(NodeIdx(addr), link);
        }
        let thr = node.cfg.age_threshold;
        for addr in 1..POOL {
            if !maps.reverse.contains_key(&NodeIdx(addr)) && rng.gen_bool(0.2) {
                continue;
            }
            let topics = peers[addr as usize].clone();
            let advert = random_advert(addr, &topics, rng);
            let age = rng.gen_range(0..=2 * thr);
            maps.nbr_proposals
                .insert(NodeIdx(addr), (advert, topics, age));
        }
        node.nbrs = maps.table(node.subscriptions());
        maps
    }

    #[test]
    fn neighbor_major_election_equals_the_per_topic_fold() {
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let (mut adopted, mut stale_votes, mut in_table_parents) = (0, 0, 0);
        for case in 0..600 {
            let failover = case % 2 == 0;
            let cfg = VitisConfig {
                gateway_failover: failover,
                ..VitisConfig::default()
            };
            let own: Vec<u32> = (0..rng.gen_range(0..14))
                .map(|_| rng.gen_range(0..TOPICS))
                .collect();
            let mut node = lone_node(&own, cfg);
            let peers = peer_handles(&mut rng);
            let maps = randomize_connections(&mut node, &peers, case % 5 == 0, &mut rng);
            let expected = elect_topic_major(&node, &maps);
            let thr = node.cfg.age_threshold;
            node.elect();
            assert_eq!(*node.advert, expected, "case {case}");
            // The same result again is the same advertisement.
            let advert = node.advert.clone();
            node.elect();
            assert!(Rc::ptr_eq(&advert, &node.advert), "case {case}");

            adopted += expected
                .iter()
                .filter(|(_, p)| p.gw_addr != node.net.addr())
                .count();
            stale_votes += node.nbrs.values().filter(|n| n.advert_age > thr).count();
            in_table_parents += node
                .nbrs
                .values()
                .flat_map(|n| n.advert.iter())
                .filter(|(_, p)| node.net.rt().contains(p.parent))
                .count();
            // With failover off, a stale advertisement still votes: ageing
            // every advert past the threshold must not change the result.
            if !failover {
                for n in node.nbrs.values_mut() {
                    n.advert_age = thr + 1;
                }
                node.elect();
                assert_eq!(*node.advert, expected, "case {case}, aged");
            }
        }
        assert!(adopted > 300, "the cases must adopt foreign gateways");
        assert!(stale_votes > 300 && in_table_parents > 300);
    }

    /// The one neighbor table against the two maps it replaced, driven by
    /// random sequences of the steps that write them: heartbeats from table
    /// and non-table peers, each under its sender's one handle, merges that
    /// add and drop peers, failure detection of peers with and without a
    /// reverse link, and the ageing of reverse links and (with failover)
    /// advertisements. After every step the election, the flood's targets
    /// for a random topic, the repair layer's connection set and the
    /// reverse degree must agree, the table must hold the maps' state
    /// handle for handle, and every neighbor's cached pairs must be the
    /// common topics of our subscriptions and its own.
    #[test]
    fn the_neighbor_table_follows_the_two_map_rules() {
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2024);
        // Coverage: heartbeats from table / non-table peers, merges that
        // forgot a remembered peer, deaths with / without a reverse link,
        // reverse links expired in / out of the table.
        let mut seen = [0usize; 7];
        for case in 0..400 {
            let cfg = VitisConfig {
                gateway_failover: case % 2 == 0,
                ..VitisConfig::default()
            };
            let own: Vec<u32> = (0..rng.gen_range(1..10))
                .map(|_| rng.gen_range(0..TOPICS))
                .collect();
            let mut node = lone_node(&own, cfg.clone());
            let peers = peer_handles(&mut rng);
            let mut maps = randomize_connections(&mut node, &peers, case % 7 == 0, &mut rng);
            for step in 0..60 {
                let rt_addrs = node.net.rt().addrs();
                match rng.gen_range(0..7) {
                    // A heartbeat, from a table peer or from anyone.
                    k @ (0 | 1) => {
                        let from = if k == 0 && !rt_addrs.is_empty() {
                            rt_addrs[rng.gen_range(0..rt_addrs.len())]
                        } else {
                            NodeIdx(rng.gen_range(1..POOL + 4))
                        };
                        let in_table = rt_addrs.contains(&from);
                        seen[usize::from(!in_table)] += 1;
                        let subs = peers[from.index()].clone();
                        let advert = random_advert(from.0, &subs, &mut rng);
                        let pm = ProfileMsg {
                            id: Id::of_node(from.0 as u64),
                            subs: subs.clone(),
                            proposals: advert.clone(),
                        };
                        node.on_profile(from, pm);
                        maps.heartbeat(from, in_table, subs, advert);
                    }
                    // A T-Man merge of fresh descriptors.
                    2 => {
                        let incoming = (0..rng.gen_range(0..6))
                            .map(|_| random_entry(rng.gen_range(1..POOL + 4), &peers, &mut rng))
                            .collect();
                        merge(&mut node, incoming, &mut rng);
                        let before = maps.nbr_proposals.len();
                        maps.merged(node.net.rt());
                        seen[2] += usize::from(maps.nbr_proposals.len() < before);
                    }
                    // A merge that drops table peers.
                    3 => {
                        let drop: Vec<NodeIdx> = rt_addrs
                            .iter()
                            .copied()
                            .filter(|_| rng.gen_bool(0.3))
                            .collect();
                        node.ranked_merge(|net, _, _| {
                            for &d in &drop {
                                net.rt_mut().remove(d);
                            }
                        });
                        let before = maps.nbr_proposals.len();
                        maps.merged(node.net.rt());
                        seen[2] += usize::from(maps.nbr_proposals.len() < before);
                    }
                    // A failure-detection step, first making a table peer
                    // with (or without) a reverse link due to expire.
                    k => {
                        if k == 4 {
                            let with_link = rng.gen_bool(0.5);
                            let due: Vec<NodeIdx> = rt_addrs
                                .iter()
                                .copied()
                                .filter(|a| maps.reverse.contains_key(a) == with_link)
                                .collect();
                            if !due.is_empty() {
                                let victim = due[rng.gen_range(0..due.len())];
                                let rt = node.net.rt_mut();
                                for e in [&mut rt.succ, &mut rt.pred].into_iter().flatten() {
                                    if e.addr == victim {
                                        e.age = cfg.age_threshold;
                                    }
                                }
                                for e in rt.sw.iter_mut().chain(rt.friends.iter_mut()) {
                                    if e.addr == victim {
                                        e.age = cfg.age_threshold;
                                    }
                                }
                            }
                        }
                        // What the detector expires: every slot past the
                        // threshold once aged. A peer can hold two slots
                        // and outlive one of them.
                        let dead: Vec<NodeIdx> = (node.net.rt().iter())
                            .filter(|e| e.age >= cfg.age_threshold)
                            .map(|e| e.addr)
                            .collect();
                        node.detect_failures();
                        let rt = node.net.rt();
                        for d in &dead {
                            seen[3 + usize::from(maps.reverse.contains_key(d))] += 1;
                        }
                        for (a, (_, age)) in &maps.reverse {
                            if *age == cfg.age_threshold {
                                seen[5 + usize::from(rt.contains(*a))] += 1;
                            }
                        }
                        maps.failures(&dead, rt, &cfg);
                    }
                }
                let at = format!("case {case}, step {step}");
                assert!(maps.matches(&node.nbrs), "{at}");
                for n in node.nbrs.values() {
                    let mut fresh = Vec::new();
                    node.subscriptions().for_each_common(&n.subs, |i, j, _| {
                        fresh.push((u16::try_from(i).unwrap(), u16::try_from(j).unwrap()));
                    });
                    assert_eq!(*n.common, *fresh, "{at}");
                }
                let expected = elect_topic_major(&node, &maps);
                node.elect();
                assert_eq!(*node.advert, expected, "{at}");
                let topic = TopicId(rng.gen_range(0..TOPICS));
                let came_from = rng.gen_bool(0.5).then(|| NodeIdx(rng.gen_range(1..POOL)));
                let mut targets = Vec::new();
                flood_targets(node.net.rt(), &node.nbrs, topic, came_from, &mut targets);
                let rt = node.net.rt();
                assert_eq!(targets, maps.flood_targets(rt, topic, came_from), "{at}");
                assert_eq!(
                    repair_neighbors(rt, &node.nbrs),
                    maps.repair_neighbors(rt),
                    "{at}"
                );
                assert_eq!(node.reverse_degree(), maps.reverse.len(), "{at}");
            }
        }
        assert!(
            seen.iter().all(|&n| n > 50),
            "every rule exercised: {seen:?}"
        );
    }

    #[test]
    fn election_without_neighbors_or_with_the_ablation_proposes_self() {
        let mut node = lone_node(&[3, 1, 2], small_cfg());
        node.elect();
        let own = Proposal::self_proposal(node.net.addr(), node.net.id());
        assert_eq!(
            *node.advert,
            vec![(TopicId(1), own), (TopicId(2), own), (TopicId(3), own)]
        );
        let cfg = VitisConfig {
            gateway_election: false,
            ..VitisConfig::default()
        };
        let mut node = lone_node(&[1, 2], cfg);
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let peers = peer_handles(&mut rng);
        randomize_connections(&mut node, &peers, false, &mut rng);
        node.elect();
        assert!(node.advert.iter().all(|(_, p)| *p == own));
    }

    /// Peers 1 (successor) and 2 (predecessor) take the ring slots; peers
    /// 3.. compete for the three friend slots with strictly decreasing
    /// overlap with the node's subscriptions `0..8`.
    fn friend_contest() -> (VitisNode, Vec<Entry<Subs>>) {
        let cfg = VitisConfig {
            rt_size: 5,
            k_sw: 0,
            ..VitisConfig::default()
        };
        let node = lone_node(&[0, 1, 2, 3, 4, 5, 6, 7], cfg);
        let id = node.net.id();
        let mut peers = vec![
            Entry::fresh(NodeIdx(1), Id(id.0 + 1), subs_of(&[40])),
            Entry::fresh(NodeIdx(2), Id(id.0 - 1), subs_of(&[41])),
        ];
        for k in 0..6u32 {
            let overlap: Vec<u32> = (0..8 - k).collect();
            peers.push(Entry {
                addr: NodeIdx(3 + k),
                id: Id(id.0 ^ (u64::from(k) + 1) << 50),
                age: 1,
                payload: subs_of(&overlap),
            });
        }
        (node, peers)
    }

    /// A plain T-Man merge under the node's own ranking, as `RtResp` does.
    fn merge(node: &mut VitisNode, incoming: Vec<Entry<Subs>>, rng: &mut SmallRng) {
        node.ranked_merge(|net, sticky, rank| net.merge(incoming, sticky, rank, rng));
    }

    fn friend_addrs(node: &VitisNode) -> Vec<u32> {
        let mut addrs: Vec<u32> = node.net.rt().friends.iter().map(|e| e.addr.0).collect();
        addrs.sort_unstable();
        addrs
    }

    /// Equation 1 ranks the friend contest: the three largest overlaps
    /// win, and a merge that offers nobody new keeps them.
    #[test]
    fn friends_are_the_largest_overlaps() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut node, peers) = friend_contest();
        merge(&mut node, peers, &mut rng);
        assert_eq!(friend_addrs(&node), vec![3, 4, 5]);
        merge(&mut node, Vec::new(), &mut rng);
        assert_eq!(friend_addrs(&node), vec![3, 4, 5]);
    }

    /// A merge ranked by the marked count picks the table a merge ranked
    /// by the ordered merge picks, under uniform rates of 1 and of 3, over
    /// a sequence that keeps changing the friends.
    #[test]
    fn marked_merges_equal_ordered_ones() {
        use rand::{Rng, SeedableRng};
        for rates in [RateTable::uniform(64), RateTable::from_rates(vec![3.0; 64])] {
            assert!(rates.counted_topics().is_some());
            let fresh = |rates: &RateTable| {
                let mut node = lone_node(&[0, 1, 2, 3, 4, 5, 50, 51], VitisConfig::default());
                node.rates = Arc::new(rates.clone());
                node
            };
            let ordered = rates.clone().ordered_only();
            let (mut node, mut twin) = (fresh(&rates), fresh(&ordered));
            let mut rng = SmallRng::seed_from_u64(21);
            // One handle per address.
            let handles: Vec<Subs> = (0..40)
                .map(|_| {
                    let topics: Vec<u32> = (0..rng.gen_range(1..7))
                        .map(|_| rng.gen_range(0..12) + 50 * rng.gen_range(0..2))
                        .collect();
                    subs_of(&topics)
                })
                .collect();
            let mut changes = 0;
            for step in 0..200 {
                // Start over every 20 merges: a converged table stops
                // changing its friends.
                if step % 20 == 0 {
                    (node, twin) = (fresh(&rates), fresh(&ordered));
                }
                let incoming: Vec<Entry<Subs>> = (0..rng.gen_range(0..10))
                    .map(|_| {
                        let addr = rng.gen_range(1..40u32);
                        Entry {
                            addr: NodeIdx(addr),
                            id: Id::of_node(addr as u64),
                            age: rng.gen_range(0..3),
                            payload: handles[addr as usize].clone(),
                        }
                    })
                    .collect();
                let before = friend_addrs(&node);
                merge(&mut node, incoming.clone(), &mut rng.clone());
                merge(&mut twin, incoming, &mut rng);
                assert_eq!(node.net.rt().to_vec(), twin.net.rt().to_vec());
                changes += usize::from(friend_addrs(&node) != before);
            }
            assert!(changes > 50, "the sequence must keep re-ranking: {changes}");
        }
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
        // Crash every subscriber: gateways stop refreshing, relays must
        // decay at the non-subscribers that remain.
        for i in 0..16 {
            eng.remove_node(NodeIdx(i));
        }
        eng.run_rounds(12);
        let holders = eng
            .alive_nodes()
            .filter(|(_, n)| n.relay_table().has(TopicId(0)))
            .count();
        assert_eq!(holders, 0, "relay state must decay without refreshes");
    }

    /// A retry late in a large budget waits the capped backoff: doubling
    /// the ack timeout past 64 bits saturates at [`PUBLISH_BACKOFF_CAP`]
    /// instead of wrapping to a delay of 0, which would fire the remaining
    /// retries at once and drop the event from the pending set.
    #[test]
    fn a_late_retry_waits_the_capped_backoff() {
        let cfg = VitisConfig {
            publish_retries: 64,
            ..small_cfg()
        };
        let (mut eng, monitor) = build_net(1, |_| vec![0], 1, cfg);
        let (topic, me) = (TopicId(0), NodeIdx(0));
        let event = monitor.register_event(topic, eng.now(), Vec::new());
        eng.inject(me, DissemMsg::Publish { event, topic }.into());
        eng.run_for(Duration(2));
        assert!(eng.node(me).unwrap().pending_pubs.contains(&event));
        let attempt = 59;
        eng.inject(
            me,
            VitisMsg::RetryPublish {
                event,
                topic,
                attempt,
            },
        );
        eng.run_for(Duration(4));
        assert!(
            eng.node(me).unwrap().pending_pubs.contains(&event),
            "retries {attempt}..64 ran without waiting"
        );
    }

    /// Every Vitis control message is priced by its `wire` rule (the data
    /// plane's are `msg.rs`'s table). The sizes are literals, so a change
    /// to a shared rule shows here as a change to Vitis's bytes, which
    /// every golden pins.
    #[test]
    fn every_message_has_its_wire_size() {
        let subs = |n: u32| Subs::new(TopicSet::from_iter(0..n));
        let buf = vec![
            Entry::fresh(NodeIdx(1), Id(5), subs(10)),
            Entry::fresh(NodeIdx(2), Id(6), subs(2)),
        ];
        let buf_bytes = (14 + 4 * 10) + (14 + 4 * 2);
        for msg in [
            VitisMsg::PsReq(buf.clone()),
            VitisMsg::PsResp(buf.clone()),
            VitisMsg::RtReq(buf.clone()),
            VitisMsg::RtResp(buf),
        ] {
            assert_eq!(VitisNode::wire_bytes(&msg), buf_bytes);
        }
        let profile = VitisMsg::Profile(ProfileMsg {
            id: Id(1),
            subs: subs(3),
            proposals: Rc::new(vec![
                (TopicId(0), Proposal::self_proposal(NodeIdx(0), Id(0))),
                (TopicId(1), Proposal::self_proposal(NodeIdx(0), Id(0))),
            ]),
        });
        assert_eq!(VitisNode::wire_bytes(&profile), 8 + 4 * 3 + 24 * 2);
        let (event, topic) = (EventId(7), TopicId(1));
        let sizes = [
            (VitisMsg::RelayRequest { topic, hops: 2 }, 12),
            (VitisMsg::PubAck { event }, 12),
            (
                VitisMsg::RetryPublish {
                    event,
                    topic,
                    attempt: 1,
                },
                0,
            ),
        ];
        for (msg, bytes) in sizes {
            assert_eq!(VitisNode::wire_bytes(&msg), bytes, "{msg:?}");
        }
    }
}
