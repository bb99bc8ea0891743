//! The Vitis node: the membership [`Substrate`] (peer sampling, T-Man
//! neighbor selection, failure detection) and the [`Dissemination`]
//! component, assembled under Vitis's own routing policy — Equation 1
//! friend ranking, profile gossip with gateway election (Algorithms 5–7)
//! and relay-path construction.

use crate::config::VitisConfig;
use crate::dissemination::Dissemination;
use crate::gateway::{revise_step, Proposal};
use crate::monitor::{EventId, HopPath, Monitor};
use crate::msg::{wire, Notification, ProfileMsg, VitisMsg};
use crate::relay::RelayTable;
use crate::smallmap::SmallMap;
use crate::topic::{RateTable, Subs, TopicId};
use crate::utility::utility;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::Arc;
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_overlay::routing::next_hop;
use vitis_overlay::rt::{HybridRt, RtParams};
use vitis_overlay::substrate::{Sampler, Substrate};
use vitis_sim::antientropy::{AeConfig, AntiEntropy};
use vitis_sim::event::NodeIdx;
use vitis_sim::perf::hash_table_bytes;
use vitis_sim::prelude::{Context, MsgTag, Protocol, StopReason};
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

/// How many T-Man merges a remembered Equation 1 result answers for,
/// counting the merge that computed or last used it: ranked at merge *k*
/// and not asked for again, it is still there at merge *k* + 5 and gone at
/// *k* + 6 — three gossip rounds at two merges a round. Peers come back:
/// on the benchmark's `churn_repair_300` 84 % of requests name a `(peer,
/// handle)` pair ranked within this window, against 63 % for the last
/// merge alone, at 24 bytes per retained entry. DESIGN §14 ("The T-Man
/// merge") has hit share, memo length and peak RSS by window: 7 takes
/// `gossip_2k`'s peak RSS to within 0.02 points of the 2.5 % allowed for
/// this memo on one of three seeds, and 8 is past it.
const MEMO_WINDOW: u32 = 6;

/// One remembered Equation 1 result: what `peer` scored while advertising
/// the subscription handle `subs`. Public only for `tests/size_budget.rs`.
pub struct MemoEntry {
    peer: NodeIdx,
    /// The node's merge count when this entry last answered or was made.
    used: Cell<u32>,
    subs: Subs,
    utility: f64,
}

/// The [`ProfileMsg::proposals`] invariant the election's merge relies on.
fn ascending_by_topic(props: &[(TopicId, Proposal)]) -> bool {
    props.windows(2).all(|w| w[0].0 < w[1].0)
}

/// A Vitis peer. Construct with [`VitisNode::new`] and hand to the engine;
/// the [`crate::system::VitisSystem`] wrapper does this for whole networks.
pub struct VitisNode {
    cfg: Arc<VitisConfig>,
    rates: Arc<RateTable>,
    /// Membership substrate: identity, the advertised subscriptions, the
    /// Newscast view (as in the paper's evaluation), the bounded hybrid
    /// routing table and its failure detector.
    net: Substrate<Subs>,
    /// Own gateway proposal per subscribed topic, ascending by topic
    /// (recomputed each round).
    proposals: Vec<(TopicId, Proposal)>,
    /// The proposals as last advertised; sent again while `proposals`
    /// still equals it, so an unchanged heartbeat allocates nothing.
    advert: Arc<Vec<(TopicId, Proposal)>>,
    /// Equation 1 results of the last [`MEMO_WINDOW`] T-Man merges, one
    /// per peer, ascending by address. An entry answers only for a
    /// candidate carrying the *same* handle (`Arc::ptr_eq`): holding the
    /// `Arc` keeps that allocation alive, so its address cannot be reused
    /// by a different set. Bounded by the window times the candidates of a
    /// merge.
    utility_memo: Vec<MemoEntry>,
    /// T-Man merges run so far: the clock of `utility_memo`.
    merges: u32,
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
        let params = RtParams {
            rt_size: cfg.rt_size,
            k_sw: cfg.k_sw,
            est_n: cfg.est_n,
        };
        let sampler = Sampler::new(id, subs, cfg.sampling_view, bootstrap);
        VitisNode {
            net: Substrate::new(sampler, params, cfg.age_threshold),
            cfg,
            rates,
            proposals: Vec::new(),
            advert: Arc::new(Vec::new()),
            utility_memo: Vec::new(),
            merges: 0,
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
    /// state: own proposals, advertisements (own and remembered), reverse
    /// links and unacknowledged publishes. Subscription sets are shared
    /// handles whose bytes belong to the workload.
    pub fn heap_bytes(&self, mut owner: impl FnMut(&'static str, u64)) {
        use std::mem::size_of;
        let proposal = size_of::<(TopicId, Proposal)>();
        owner("substrate", self.net.heap_bytes());
        owner("relay", self.relays.heap_bytes());
        owner("dissemination", self.dissem.heap_bytes());
        owner(
            "memo",
            (self.utility_memo.capacity() * size_of::<MemoEntry>()) as u64,
        );
        // An advertisement is one allocation shared by its advertiser, the
        // neighbors remembering it and the heartbeats in flight: each
        // holder reports its share, so a superseded copy that only
        // neighbors still hold is counted too, and none twice.
        let share = |a: &Arc<Vec<(TopicId, Proposal)>>| {
            (a.capacity() * proposal / Arc::strong_count(a)) as u64
        };
        let adverts: u64 = self.nbr_proposals.values().map(|n| share(&n.props)).sum();
        owner(
            "gateway",
            (self.proposals.capacity() * proposal) as u64
                + share(&self.advert)
                + adverts
                + self.nbr_proposals.heap_bytes()
                + self.reverse.heap_bytes()
                + hash_table_bytes(self.pending_pubs.capacity(), size_of::<EventId>()),
        );
    }

    /// Number of live reverse links (peers holding us in their tables).
    pub fn reverse_degree(&self) -> usize {
        self.reverse.len()
    }

    /// Whether this node currently believes it is a gateway for `topic`.
    pub fn is_gateway(&self, topic: TopicId) -> bool {
        self.proposal(topic)
            .is_some_and(|p| p.gw_addr == self.net.addr())
    }

    /// The node's current proposal for `topic`, if subscribed.
    pub fn proposal(&self, topic: TopicId) -> Option<&Proposal> {
        self.proposals
            .binary_search_by_key(&topic, |(t, _)| *t)
            .ok()
            .map(|i| &self.proposals[i].1)
    }

    /// Replace this node's subscriptions (subscribe/unsubscribe API). The
    /// change propagates with the next profile heartbeat.
    pub fn set_subscriptions(&mut self, subs: Subs) {
        self.proposals.retain(|(t, _)| subs.contains(*t));
        self.net.set_payload(subs);
        // Every remembered utility was computed against the old set.
        self.utility_memo.clear();
    }

    /// The one place control bytes are accounted: record the message's
    /// wire size against this node, then send it.
    fn send_control(&self, ctx: &mut Context<'_, VitisMsg>, to: NodeIdx, msg: VitisMsg) {
        self.monitor()
            .record_control_tx(self.net.addr(), wire::message_bytes(&msg));
        ctx.send(to, msg);
    }

    /// Run one substrate merge under Vitis's friend policy — Equation 1
    /// behind the memo with current friends winning ties, or the
    /// ablation's pseudo-random key — then forget the advertisements of
    /// peers the merge disconnected. `merge` is handed the substrate, the
    /// tie rule and the ranking, and picks the operation: a plain merge or
    /// the reply-then-merge of a T-Man request.
    fn ranked_merge<R>(
        &mut self,
        merge: impl FnOnce(&mut Substrate<Subs>, bool, &dyn Fn(&Entry<Subs>) -> f64) -> R,
    ) -> R {
        let out = if self.cfg.utility_selection {
            self.merges = self.merges.wrapping_add(1);
            let now = self.merges;
            let subs = self.net.payload().clone();
            let (rates, memo) = (&self.rates, &self.utility_memo);
            let misses = RefCell::new(Vec::new());
            let out = merge(&mut self.net, true, &|e| {
                if let Ok(i) = memo.binary_search_by_key(&e.addr, |m| m.peer) {
                    if Arc::ptr_eq(&memo[i].subs, &e.payload) {
                        memo[i].used.set(now);
                        return memo[i].utility;
                    }
                }
                let u = utility(&subs, &e.payload, rates);
                misses.borrow_mut().push(MemoEntry {
                    peer: e.addr,
                    used: Cell::new(now),
                    subs: e.payload.clone(),
                    utility: u,
                });
                u
            });
            self.remember(misses.into_inner());
            out
        } else {
            // Ablation: rank friends by a deterministic pseudo-random key
            // instead of Equation 1.
            let salt = self.dissem.round() ^ (self.net.addr().0 as u64) << 32;
            merge(&mut self.net, false, &|e| {
                mix64(e.addr.0 as u64 ^ salt) as f64
            })
        };
        let (rt, reverse) = (self.net.rt(), &self.reverse);
        self.nbr_proposals
            .retain(|addr, _| rt.contains(*addr) || reverse.contains_key(addr));
        out
    }

    /// Memo upkeep after a merge: drop what the window has passed, take in
    /// the merge's `misses` — a miss for a remembered peer replaces its
    /// entry, so an address never appears twice — and keep the address
    /// order. The new vector is sized to what it holds; a merge that
    /// missed nothing and aged nothing out leaves the memo as it is.
    fn remember(&mut self, mut misses: Vec<MemoEntry>) {
        let now = self.merges;
        let live = |m: &MemoEntry| now.wrapping_sub(m.used.get()) < MEMO_WINDOW - 1;
        let survivors = self.utility_memo.iter().filter(|m| live(m)).count();
        if misses.is_empty() && survivors == self.utility_memo.len() {
            return;
        }
        misses.sort_unstable_by_key(|m| m.peer);
        misses.dedup_by_key(|m| m.peer);
        let mut memo = Vec::with_capacity(survivors + misses.len());
        let mut misses = misses.into_iter().peekable();
        for old in std::mem::take(&mut self.utility_memo) {
            if !live(&old) {
                continue;
            }
            while let Some(new) = misses.next_if(|new| new.peer < old.peer) {
                memo.push(new);
            }
            if misses.peek().is_none_or(|new| new.peer != old.peer) {
                memo.push(old);
            }
        }
        memo.extend(misses);
        self.utility_memo = memo;
    }

    /// Recompute the gateway proposal for every subscribed topic from the
    /// neighbors' latest advertisements (Algorithm 5).
    ///
    /// Neighbor-major: the connection set (table entries, then reverse
    /// links not in the table) is walked once, and each neighbor's
    /// advertisement is folded into every topic that we, its descriptor
    /// and the advertisement all name, by one merge of the three sorted
    /// lists. A topic still meets its interested neighbors in connection-
    /// set order, so each topic's fold is the one `revise_proposal` makes.
    fn elect(&mut self) {
        let (addr, subs) = (self.net.addr(), self.net.payload());
        let own = Proposal::self_proposal(addr, self.net.id());
        let mut props = std::mem::take(&mut self.proposals);
        props.clear();
        props.extend(subs.iter().map(|t| (t, own)));
        // Ablation: no election — every subscriber acts as its own
        // gateway, Scribe-style.
        if self.cfg.gateway_election {
            let (rt, reverse) = (self.net.rt(), &self.reverse);
            let connected = |a: NodeIdx| rt.contains(a) || reverse.contains_key(&a);
            let table = rt.iter().map(|e| (e.addr, &e.payload));
            let reverse_only = reverse
                .iter()
                .filter(|(a, _)| !rt.contains(**a))
                .map(|(a, l)| (*a, &l.subs));
            // With failover on, advertisements older than the failure-
            // detection threshold have lost their vote: the advertiser
            // has gone silent, so whatever gateway it endorsed may be
            // gone too, and the election re-runs without it.
            let failover = self.cfg.gateway_failover;
            let thr = self.cfg.age_threshold;
            for (nbr, nbr_subs) in table.chain(reverse_only) {
                let Some(np) = self.nbr_proposals.get(&nbr) else {
                    continue;
                };
                if failover && np.age > thr {
                    continue;
                }
                let mut advertised = np.props.iter().peekable();
                subs.for_each_common(nbr_subs, |i, topic| {
                    while advertised.next_if(|(t, _)| *t < topic).is_some() {}
                    if let Some((_, new)) = advertised.next_if(|(t, _)| *t == topic) {
                        revise_step(
                            &mut props[i].1,
                            addr,
                            topic.ring_id(),
                            self.cfg.d_max_hops,
                            nbr,
                            new,
                            connected,
                        );
                    }
                });
            }
        }
        self.proposals = props;
    }

    /// Gateway election, then a relay-path refresh wherever this node
    /// elects itself.
    fn update_profile(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        self.elect();
        for i in 0..self.proposals.len() {
            let (topic, prop) = self.proposals[i];
            if prop.gw_addr == self.net.addr() {
                self.relay_hop(ctx, topic, None, 0);
            }
        }
    }

    /// One lookup step at this node toward `hash(topic)`, `hops` into the
    /// path, on one relay-table search: refresh the downstream link to
    /// `from` (`None` at the refreshing gateway, where `hops` is 0), then
    /// install the upstream link and forward the relay request, or claim
    /// the rendezvous role if no neighbor is closer. A request that has
    /// used up its hop budget leaves only the downstream link.
    fn relay_hop(
        &mut self,
        ctx: &mut Context<'_, VitisMsg>,
        topic: TopicId,
        from: Option<NodeIdx>,
        hops: u32,
    ) {
        let mut entry = self.relays.entry(topic);
        if let Some(from) = from {
            entry.refresh_downstream(from);
            if hops >= self.cfg.max_lookup_hops {
                return;
            }
        }
        let table = self.net.rt().iter().map(|e| (e.id, e.addr));
        let next = next_hop(self.net.id(), topic.ring_id(), table);
        entry.route(next);
        if let Some(next) = next {
            let hops = hops + 1;
            self.send_control(ctx, next, VitisMsg::RelayRequest { topic, hops });
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
        let topic = notif.topic;
        let (rt, reverse, relays) = (self.net.rt(), &self.reverse, &self.relays);
        self.dissem
            .send_copies(ctx, notif, VitisMsg::Notification, |targets| {
                for e in rt.iter() {
                    if e.payload.contains(topic) && Some(e.addr) != came_from {
                        targets.push(e.addr);
                    }
                }
                // Links are connections: flood across reverse links too, or
                // weakly connected cluster pockets never hear the event.
                for (&addr, link) in reverse {
                    if link.subs.contains(topic)
                        && Some(addr) != came_from
                        && !targets.contains(&addr)
                    {
                        targets.push(addr);
                    }
                }
                relays.fanout_into(topic, came_from, targets);
            });
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
            self.send_control(ctx, from, VitisMsg::PubAck { event: notif.event });
        }
        let (addr, subs) = (self.net.addr(), self.net.payload());
        let Some(fwd) = self.dissem.receive(addr, subs, ctx.now, notif) else {
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
        let notif = self.dissem.publish(self.net.addr(), event, topic);
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
            path: HopPath::origin(self.net.addr()),
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
        let contacts = self.net.start(ctx.self_idx);
        // Seed the routing table immediately so the first rounds can gossip.
        self.ranked_merge(|net, sticky, rank| net.merge(contacts, sticky, rank, ctx.rng));
    }

    fn on_round(&mut self, ctx: &mut Context<'_, VitisMsg>) {
        self.monitor().record_control_round(self.net.addr());

        // 1. Peer sampling exchange.
        if let Some((partner, buf)) = self.net.sampling_round(ctx.rng) {
            self.send_control(ctx, partner, VitisMsg::PsReq(buf));
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
            self.send_control(ctx, partner, VitisMsg::RtReq(buf));
        }

        // 3. Failure detection: age and expire stale neighbors (forward and
        //    reverse).
        for dead in self.net.detect_failures() {
            if !self.reverse.contains_key(&dead) {
                self.nbr_proposals.remove(&dead);
            }
            self.relays.remove_peer(dead);
        }
        let thr = self.cfg.age_threshold;
        let rt = self.net.rt();
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
        if *self.advert != self.proposals {
            self.advert = Arc::new(self.proposals.clone());
        }
        debug_assert!(ascending_by_topic(&self.advert));
        let pm = ProfileMsg {
            id: self.net.id(),
            subs: self.net.payload().clone(),
            proposals: self.advert.clone(),
        };
        for e in self.net.rt().iter() {
            self.send_control(ctx, e.addr, VitisMsg::Profile(pm.clone()));
        }

        // 7. Anti-entropy repair: retry outstanding pulls, then gossip a
        //    digest of the recent-event cache to a small random sample of
        //    the connection set (table plus reverse links). Entirely inert
        //    — no sends, no RNG draws — unless the layer is enabled, so
        //    default runs stay bit-identical.
        let (rt, reverse) = (self.net.rt(), &self.reverse);
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
            self.send_control(ctx, target, VitisMsg::AeWant(ids));
        }
        if let Some(entries) = repair.digest {
            for t in repair.digest_targets {
                self.send_control(ctx, t, VitisMsg::AeDigest(entries.clone()));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VitisMsg>, from: NodeIdx, msg: VitisMsg) {
        match msg {
            VitisMsg::PsReq(buf) => {
                let reply = self.net.on_ps_request(from, &buf, ctx.rng);
                self.send_control(ctx, from, VitisMsg::PsResp(reply));
            }
            VitisMsg::PsResp(buf) => self.net.on_ps_response(&buf),
            VitisMsg::RtReq(buf) => {
                let reply = self.ranked_merge(|net, sticky, rank| {
                    net.on_rt_request(buf, sticky, rank, ctx.rng)
                });
                self.send_control(ctx, from, VitisMsg::RtResp(reply));
            }
            VitisMsg::RtResp(buf) => {
                self.ranked_merge(|net, sticky, rank| net.merge(buf, sticky, rank, ctx.rng));
            }
            VitisMsg::Profile(pm) => {
                // Algorithm 7: refresh the sender's entry and remember its
                // proposals for the next election step. A sender we do not
                // hold ourselves is a *reverse* neighbor (the connection's
                // other end) — track it for flooding and election, and
                // offer it to the ring-repair check.
                if self.net.on_heartbeat(from, pm.id, &pm.subs) {
                    self.reverse.remove(&from);
                } else {
                    let link = ReverseLink {
                        subs: pm.subs,
                        age: 0,
                    };
                    self.reverse.insert(from, link);
                }
                debug_assert!(ascending_by_topic(&pm.proposals));
                self.nbr_proposals.insert(
                    from,
                    NbrProposals {
                        props: pm.proposals,
                        age: 0,
                    },
                );
            }
            VitisMsg::RelayRequest { topic, hops } => {
                self.relay_hop(ctx, topic, Some(from), hops);
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
                let wants = self.dissem.on_digest(from, &entries, self.net.payload());
                if !wants.is_empty() {
                    self.send_control(ctx, from, VitisMsg::AeWant(wants));
                }
            }
            VitisMsg::AeWant(ids) => {
                for push in self.dissem.serve(&ids) {
                    self.dissem.send_copy(ctx, from, push, VitisMsg::AePush);
                }
            }
            VitisMsg::AePush(notif) => {
                let (addr, subs) = (self.net.addr(), self.net.payload());
                self.dissem.recover(addr, subs, ctx.now, notif);
            }
        }
    }

    fn on_stop(&mut self, _ctx: &mut Context<'_, VitisMsg>, _reason: StopReason) {}
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

    fn subs_of(topics: &[u32]) -> Subs {
        Arc::new(crate::topic::TopicSet::from_iter(topics.iter().copied()))
    }

    /// A started node at address 0 with nothing in its tables.
    fn lone_node(subs: &[u32], cfg: VitisConfig) -> VitisNode {
        let mut node = VitisNode::new(
            Id(1 << 40),
            subs_of(subs),
            Arc::new(cfg),
            Arc::new(crate::topic::RateTable::uniform(64)),
            Monitor::new(),
            Vec::new(),
        );
        node.net.start(NodeIdx(0));
        node
    }

    /// The election as it was before the neighbor-major pass: per topic,
    /// the interested neighbors in connection-set order, each looked up in
    /// its advertisement, folded by `revise_proposal`.
    fn elect_topic_major(node: &VitisNode) -> Vec<(TopicId, Proposal)> {
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
                let rev_nbrs = node
                    .reverse
                    .iter()
                    .filter(|(a, l)| l.subs.contains(topic) && !rt.contains(**a))
                    .map(|(a, _)| *a);
                let with_props = rt_nbrs.chain(rev_nbrs).filter_map(|addr| {
                    node.nbr_proposals
                        .get(&addr)
                        .filter(|np| !failover || np.age <= thr)
                        .and_then(|np| np.props.iter().find(|(t, _)| *t == topic))
                        .map(|(_, p)| (addr, p))
                });
                let prop = crate::gateway::revise_proposal(
                    node.net.addr(),
                    node.net.id(),
                    topic,
                    node.cfg.d_max_hops,
                    with_props,
                    |a| rt.contains(a) || node.reverse.contains_key(&a),
                );
                (topic, prop)
            })
            .collect()
    }

    const TOPICS: u32 = 10;

    /// Random connection state: a table, reverse links (some shadowing
    /// table entries), and advertisements of every age whose topics need
    /// not match the advertiser's descriptor and whose parents range over
    /// self, the advertiser, table members and strangers.
    fn randomize_connections(node: &mut VitisNode, two_node_ring: bool, rng: &mut SmallRng) {
        use rand::Rng;
        const POOL: u32 = 24;
        // Few topics, gateways and hop counts: several neighbors vote on
        // each topic and tie, so the result depends on the fold order.
        let random_subs = |rng: &mut SmallRng| {
            let n = rng.gen_range(0..12);
            let topics: Vec<u32> = (0..n).map(|_| rng.gen_range(0..TOPICS)).collect();
            subs_of(&topics)
        };
        let entry = |addr: u32, rng: &mut SmallRng| Entry {
            addr: NodeIdx(addr),
            id: Id::of_node(addr as u64),
            age: rng.gen_range(0..4),
            payload: random_subs(rng),
        };
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
        node.reverse = SmallMap::new();
        for _ in 0..rng.gen_range(0..8) {
            let link = ReverseLink {
                subs: random_subs(rng),
                age: 0,
            };
            node.reverse.insert(NodeIdx(rng.gen_range(1..POOL)), link);
        }
        node.nbr_proposals = SmallMap::new();
        let thr = node.cfg.age_threshold;
        for addr in 1..POOL {
            if rng.gen_bool(0.2) {
                continue;
            }
            let topics = if rng.gen_bool(0.5) {
                // Usually an advertiser proposes for what its descriptor
                // says it subscribes to …
                let in_rt = node.net.rt().iter().find(|e| e.addr.0 == addr);
                let in_rev = node.reverse.get(&NodeIdx(addr)).map(|l| &l.subs);
                in_rt.map(|e| &e.payload).or(in_rev).cloned()
            } else {
                None
            }
            // … but a stale descriptor can disagree with the advert.
            .unwrap_or_else(|| random_subs(rng));
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
            node.nbr_proposals.insert(
                NodeIdx(addr),
                NbrProposals {
                    props: Arc::new(props),
                    age: rng.gen_range(0..=2 * thr),
                },
            );
        }
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
            randomize_connections(&mut node, case % 5 == 0, &mut rng);
            let expected = elect_topic_major(&node);
            node.elect();
            assert_eq!(node.proposals, expected, "case {case}");

            let thr = node.cfg.age_threshold;
            adopted += expected
                .iter()
                .filter(|(_, p)| p.gw_addr != node.net.addr())
                .count();
            stale_votes += node.nbr_proposals.values().filter(|n| n.age > thr).count();
            in_table_parents += node
                .nbr_proposals
                .values()
                .flat_map(|n| n.props.iter())
                .filter(|(_, p)| node.net.rt().contains(p.parent))
                .count();
            // With failover off, a stale advertisement still votes: ageing
            // every advert past the threshold must not change the result.
            if !failover {
                for np in node.nbr_proposals.values_mut() {
                    np.age = thr + 1;
                }
                node.elect();
                assert_eq!(node.proposals, expected, "case {case}, aged");
            }
        }
        assert!(adopted > 300, "the cases must adopt foreign gateways");
        assert!(stale_votes > 300 && in_table_parents > 300);
    }

    #[test]
    fn election_without_neighbors_or_with_the_ablation_proposes_self() {
        let mut node = lone_node(&[3, 1, 2], small_cfg());
        node.elect();
        let own = Proposal::self_proposal(node.net.addr(), node.net.id());
        assert_eq!(
            node.proposals,
            vec![(TopicId(1), own), (TopicId(2), own), (TopicId(3), own)]
        );
        let cfg = VitisConfig {
            gateway_election: false,
            ..VitisConfig::default()
        };
        let mut node = lone_node(&[1, 2], cfg);
        randomize_connections(&mut node, false, &mut rand::SeedableRng::seed_from_u64(1));
        node.elect();
        assert!(node.proposals.iter().all(|(_, p)| *p == own));
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

    fn memo_entry(node: &VitisNode, addr: u32) -> Option<&MemoEntry> {
        node.utility_memo.iter().find(|m| m.peer == NodeIdx(addr))
    }

    fn memo_is_strictly_ascending(node: &VitisNode) -> bool {
        node.utility_memo.windows(2).all(|w| w[0].peer < w[1].peer)
    }

    /// An entry ranked at merge *k* and not asked for since answers at
    /// merge *k* + `MEMO_WINDOW` − 1 and is gone at *k* + `MEMO_WINDOW`.
    /// "Answers" is made visible by poisoning the remembered value: only a
    /// recomputation can undo it.
    #[test]
    fn a_memo_entry_outlives_its_last_use_by_the_window_and_no_more() {
        use rand::SeedableRng;
        for unused in 0..=MEMO_WINDOW {
            let mut rng = SmallRng::seed_from_u64(3);
            let (mut node, peers) = friend_contest();
            merge(&mut node, peers.clone(), &mut rng);
            assert_eq!(friend_addrs(&node), vec![3, 4, 5]);
            // Ring picks are never ranked, so never remembered.
            assert_eq!(node.utility_memo.len(), 6);
            assert_eq!(memo_entry(&node, 8).unwrap().utility, 3.0 / 8.0);
            let entry = node.utility_memo.iter_mut().find(|m| m.peer == NodeIdx(8));
            entry.unwrap().utility = 2.0;
            // Merges that rank the table's own friends and nobody else.
            for _ in 0..unused {
                merge(&mut node, Vec::new(), &mut rng);
                assert_eq!(friend_addrs(&node), vec![3, 4, 5]);
            }
            let remembered = unused < MEMO_WINDOW - 1;
            assert_eq!(memo_entry(&node, 8).is_some(), remembered, "{unused}");
            assert_eq!(node.utility_memo.len(), if remembered { 6 } else { 3 });
            merge(&mut node, peers, &mut rng);
            let expected = if remembered { [3, 4, 8] } else { [3, 4, 5] };
            assert_eq!(friend_addrs(&node), expected, "unused for {unused} merges");
            assert_eq!(node.utility_memo.len(), 6);
            assert!(memo_is_strictly_ascending(&node));
        }
    }

    #[test]
    fn a_readvertisement_under_a_new_handle_replaces_the_memo_entry() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let (mut node, peers) = friend_contest();
        merge(&mut node, peers.clone(), &mut rng);
        assert_eq!(friend_addrs(&node), vec![3, 4, 5]);
        assert_eq!(memo_entry(&node, 3).unwrap().utility, 1.0);

        // The best friend moves to a disjoint set: a fresher descriptor,
        // same address, new handle. A stale hit would keep it a friend.
        let mut peers = peers;
        peers[2] = Entry::fresh(NodeIdx(3), peers[2].id, subs_of(&[50]));
        merge(&mut node, peers.clone(), &mut rng);
        assert_eq!(friend_addrs(&node), vec![4, 5, 6]);
        let entry = memo_entry(&node, 3).unwrap();
        assert!(Arc::ptr_eq(&entry.subs, &peers[2].payload));
        assert_eq!(entry.utility, 0.0);
        assert_eq!(node.utility_memo.len(), 6, "replaced, not added");
        assert!(memo_is_strictly_ascending(&node));

        // Equal contents in a different allocation: a miss that recomputes
        // the same value and re-keys the entry to the new handle.
        let old_handle = memo_entry(&node, 4).unwrap().subs.clone();
        let twin = Entry::fresh(NodeIdx(4), peers[3].id, subs_of(&[0, 1, 2, 3, 4, 5, 6]));
        assert!(*twin.payload == *old_handle && !Arc::ptr_eq(&twin.payload, &old_handle));
        merge(&mut node, vec![twin.clone()], &mut rng);
        let entry = memo_entry(&node, 4).unwrap();
        assert!(Arc::ptr_eq(&entry.subs, &twin.payload));
        assert_eq!(entry.utility, 7.0 / 8.0);
        assert_eq!(friend_addrs(&node), vec![4, 5, 6]);
        // Peers this merge did not rank are still remembered.
        assert_eq!(node.utility_memo.len(), 6);
        assert!(memo_is_strictly_ascending(&node));
    }

    #[test]
    fn set_subscriptions_clears_the_memo_and_reranks_friends() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(4);
        let (mut node, peers) = friend_contest();
        merge(&mut node, peers.clone(), &mut rng);
        assert_eq!(friend_addrs(&node), vec![3, 4, 5]);
        // Peers 6, 7, 8 hold {0..=4}, {0..=3}, {0..=2}: against the new set
        // {0, 1, 2} they are the better matches, and only a recomputation
        // can see it (every handle is unchanged).
        node.set_subscriptions(subs_of(&[0, 1, 2]));
        assert!(node.utility_memo.is_empty());
        merge(&mut node, peers, &mut rng);
        assert_eq!(friend_addrs(&node), vec![6, 7, 8]);
        assert_eq!(memo_entry(&node, 7).unwrap().utility, 3.0 / 4.0);
    }

    /// Whatever the memo remembers, a merge must pick the table a memo-less
    /// merge picks, remember only values Equation 1 gives, and stay within
    /// the window's bound.
    #[test]
    fn memoised_merges_equal_unmemoised_ones() {
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        let mut node = lone_node(&[0, 1, 2, 3, 4, 5], VitisConfig::default());
        let handles: Vec<Subs> = (0..12u32)
            .map(|k| subs_of(&[k % 5, k % 7, k % 3, 10 + k % 2]))
            .collect();
        let (mut hits, mut max_candidates, mut max_len) = (0, 0, 0);
        for _ in 0..200 {
            let incoming: Vec<Entry<Subs>> = (0..rng.gen_range(0..10))
                .map(|_| {
                    let addr = rng.gen_range(1..40u32);
                    Entry {
                        addr: NodeIdx(addr),
                        id: Id::of_node(addr as u64),
                        age: rng.gen_range(0..3),
                        payload: handles[rng.gen_range(0..handles.len())].clone(),
                    }
                })
                .collect();
            // The twin starts every merge with the same table and no memo.
            let mut twin = lone_node(&[0, 1, 2, 3, 4, 5], VitisConfig::default());
            *twin.net.rt_mut() = node.net.rt().clone();
            let before: Vec<(NodeIdx, Subs)> = node
                .utility_memo
                .iter()
                .map(|m| (m.peer, m.subs.clone()))
                .collect();
            max_candidates = max_candidates.max(node.net.rt().len() + incoming.len());
            merge(&mut node, incoming.clone(), &mut rng.clone());
            merge(&mut twin, incoming, &mut rng);
            assert_eq!(node.net.rt().to_vec(), twin.net.rt().to_vec());
            assert!(memo_is_strictly_ascending(&node));
            for m in &node.utility_memo {
                assert_eq!(
                    m.utility,
                    utility(node.subscriptions(), &m.subs, &node.rates)
                );
                // Asked for by this merge and already there before it.
                let known = |b: &(NodeIdx, Subs)| b.0 == m.peer && Arc::ptr_eq(&b.1, &m.subs);
                hits += usize::from(m.used.get() == node.merges && before.iter().any(known));
            }
            max_len = max_len.max(node.utility_memo.len());
        }
        assert!(max_len <= MEMO_WINDOW as usize * max_candidates);
        assert!(max_len > max_candidates, "the memo must outlive one merge");
        assert!(hits > 200, "the sequence must exercise memo hits: {hits}");
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
