//! The data plane shared by Vitis, RVR and OPT: its wire protocol,
//! [`DissemMsg`], and what happens *to* a copy at a node — forwarding dedup,
//! causal-path extension under a trace, delivery and forward accounting,
//! and the anti-entropy repair layer (cache, round step, digest / want /
//! push handling).
//!
//! A node type holds one [`Dissemination`], carries [`DissemMsg`] in one
//! `Dissem` variant of its wire enum, and hands every such message to
//! [`Dissemination::on_message`] with the one function it contributes,
//! `forward_targets`: *where* a copy goes next — friends + reverse links +
//! relay fan-out (Vitis), tree fan-out (RVR) or the topic-subgraph flood
//! (OPT). The component builds the publisher's first-hop copy, runs every
//! arrival, flooded or recovered, through one routine, so a node delivers
//! each event once however its copies reach it, and sends every copy and
//! repair message itself, through the node's `M: From<DissemMsg>`. What
//! the messages cost is the engine's to count, by the node type's
//! `wire_bytes`, so nothing here depends on which system sends. A node's
//! own hardening (Vitis's publish acknowledgments and retries) stays in
//! the node.

use crate::monitor::{Arrival, EventId, HopPath, Monitor};
use crate::msg::{DissemMsg, Notification};
use crate::topic::{Subs, TopicId};
use std::rc::Rc;
use vitis_sim::antientropy::{AeConfig, AntiEntropy};
use vitis_sim::event::NodeIdx;
use vitis_sim::protocol::Context;
use vitis_sim::time::SimTime;

/// The forwarding-dedup set: one bit per event id, from the lowest id the
/// node has seen (rounded down to a 64-bit word) to the highest.
///
/// [`EventId`]s are the dense counters [`Monitor::register_event`] hands
/// out, so a node's ids lie in one range of the run's counters and a bit
/// per id of that range is the whole set: an exact answer, where a hash
/// set spent 10–21 bytes per id it held. The span grows at either end as ids arrive (a copy of an older
/// event can arrive after a newer one), by half its length or to the new
/// id, whichever is further, so its heap bytes stay below
/// 2 × ((highest − lowest) / 64 + 1) × 8 B. The set is probed, never
/// iterated.
#[derive(Default)]
struct SeenSet {
    /// Word index (`id / 64`) of `words[0]`.
    first_word: u64,
    words: Vec<u64>,
}

impl SeenSet {
    /// Whether `id` was inserted.
    fn contains(&self, id: EventId) -> bool {
        let Some(i) = (id.0 >> 6).checked_sub(self.first_word) else {
            return false;
        };
        self.words
            .get(i as usize)
            .is_some_and(|w| w & (1u64 << (id.0 & 63)) != 0)
    }

    /// Add `id`; `false` if it was already there.
    fn insert(&mut self, id: EventId) -> bool {
        let word = id.0 >> 6;
        if self.words.is_empty() {
            self.first_word = word;
        }
        if word < self.first_word {
            let gap = (self.first_word - word) as usize;
            let len = self.words.len();
            self.grow_to(len + gap);
            self.words.resize(len + gap, 0);
            self.words.copy_within(..len, gap);
            self.words[..gap].fill(0);
            self.first_word = word;
        }
        let i = (word - self.first_word) as usize;
        if i >= self.words.len() {
            self.grow_to(i + 1);
            self.words.resize(i + 1, 0);
        }
        let bit = 1u64 << (id.0 & 63);
        let fresh = self.words[i] & bit == 0;
        self.words[i] |= bit;
        fresh
    }

    /// Reserve room for `len` words: at least half as many again as are
    /// held, so a span that creeps one word at a time reallocates
    /// O(log span) times, and never more than that or `len`.
    fn grow_to(&mut self, len: usize) {
        let held = self.words.len();
        if len > self.words.capacity() {
            self.words.reserve_exact(len.max(held + held / 2) - held);
        }
    }

    fn heap_bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

/// Per-node dissemination and repair state.
pub struct Dissemination {
    monitor: Monitor,
    /// Events already processed (forwarding dedup).
    seen: SeenSet,
    /// The targets of the notification being forwarded; kept between calls
    /// so steady-state forwarding allocates nothing.
    targets: Vec<NodeIdx>,
    /// Anti-entropy repair layer. Default-off: inert (no sends, no RNG
    /// draws) unless its [`AeConfig`] enables it.
    ae: AntiEntropy<Notification>,
    /// Gossip rounds executed; stamps cache entries and paces pulls.
    round: u64,
}

impl Dissemination {
    /// A fresh component writing to `monitor`, with the anti-entropy
    /// layer configured by `repair`.
    pub fn new(monitor: Monitor, repair: AeConfig) -> Self {
        Dissemination {
            monitor,
            seen: SeenSet::default(),
            targets: Vec::new(),
            ae: AntiEntropy::new(repair),
            round: 0,
        }
    }

    /// Heap bytes of the dedup set, the target buffer and the repair
    /// layer's tables. Hop paths behind cached copies (carried only under a
    /// trace) are shared with the copies in flight and not counted.
    pub fn heap_bytes(&self) -> u64 {
        self.seen.heap_bytes()
            + (self.targets.capacity() * std::mem::size_of::<NodeIdx>()) as u64
            + self.ae.heap_bytes()
    }

    /// The anti-entropy repair state (tests/telemetry).
    pub fn repair(&self) -> &AntiEntropy<Notification> {
        &self.ae
    }

    /// Gossip rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The hop path a copy carries on from `addr`: `path` extended by
    /// `addr` while the monitor has a trace installed, no path otherwise
    /// (the `deliver_event` record is a path's only reader). A publisher
    /// passes the empty path, which gives its origin path.
    fn path_through(&self, path: &HopPath, addr: NodeIdx) -> HopPath {
        if self.monitor.traced() {
            path.extend(addr)
        } else {
            HopPath::default()
        }
    }

    /// The copy of `event` that its publisher `addr` hands to its first
    /// hops: one hop out, its path at the origin. A publish and each of
    /// its retries send this copy.
    fn first_hop(&self, addr: NodeIdx, event: EventId, topic: TopicId) -> Notification {
        Notification {
            event,
            topic,
            hops: 1,
            path: self.path_through(&HopPath::default(), addr),
        }
    }

    /// `addr` publishes `event`: mark it seen, cache it (so the publisher
    /// can answer pulls for its own events) and return the first-hop copy
    /// to fan out.
    fn publish(&mut self, addr: NodeIdx, event: EventId, topic: TopicId) -> Notification {
        self.seen.insert(event);
        let first_hop = self.first_hop(addr, event, topic);
        if self.ae.enabled() {
            let origin = Notification {
                hops: 0,
                ..first_hop.clone()
            };
            self.ae.insert(event.0, topic.0, origin, self.round);
        }
        first_hop
    }

    /// A copy of `notif` arrived at `addr` (subscribed to `subs`) through
    /// normal dissemination; see `arrive`. Returns the copy to forward, one
    /// hop on — `None` for a duplicate.
    fn receive(
        &mut self,
        addr: NodeIdx,
        subs: &Subs,
        now: SimTime,
        notif: Notification,
    ) -> Option<Notification> {
        let here = self.arrive(addr, subs, now, notif, Arrival::Flooded)?;
        Some(Notification {
            hops: here.hops + 1,
            ..here
        })
    }

    /// Every copy that reaches this node, flooded or recovered, arrives
    /// here: count the reception, and for a first arrival extend the
    /// causal path (under a trace), record the delivery under `class` if
    /// `subs` holds the topic and cache the copy for pulling peers.
    /// Returns the copy as it stands here — `None` for a duplicate, which
    /// only retires the pull for its event when it is a recovered one
    /// (another pull, or the flood itself, won the race).
    fn arrive(
        &mut self,
        addr: NodeIdx,
        subs: &Subs,
        now: SimTime,
        notif: Notification,
        class: Arrival,
    ) -> Option<Notification> {
        let interested = subs.contains(notif.topic);
        self.monitor.record_data_rx(addr, interested);
        if !self.seen.insert(notif.event) {
            if class == Arrival::Recovered {
                self.ae.satisfy(notif.event.0);
            }
            return None;
        }
        // Extend the causal path with this node once; the delivery record,
        // the cached copy and every forwarded copy share it.
        let here = Notification {
            path: self.path_through(&notif.path, addr),
            ..notif
        };
        if interested {
            self.monitor
                .record_arrival(here.event, addr, here.hops, now, &here.path, class);
        }
        if self.ae.enabled() {
            self.ae
                .insert(here.event.0, here.topic.0, here.clone(), self.round);
        }
        Some(here)
    }

    /// Hand one copy of `notif` to `to` as `wrap` makes it a message: the
    /// `fwd` forensics record and the send, always together.
    fn send_copy<M: From<DissemMsg>>(
        &self,
        ctx: &mut Context<'_, M>,
        to: NodeIdx,
        notif: Notification,
        wrap: impl FnOnce(Notification) -> DissemMsg,
    ) {
        self.monitor
            .record_forward(notif.event, ctx.self_idx, to, notif.hops, ctx.now);
        ctx.send(to, wrap(notif).into());
    }

    /// Send `copy` on — the one way a node's copies leave. It came from
    /// `came_from` (`None` at its publisher); `forward_targets` appends the
    /// targets (in send order, without duplicates) to the reused target
    /// buffer, and each gets one copy with its `fwd` record.
    fn send_copies<M: From<DissemMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        copy: Notification,
        came_from: Option<NodeIdx>,
        forward_targets: impl FnOnce(&Notification, Option<NodeIdx>, &mut Vec<NodeIdx>),
    ) {
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        forward_targets(&copy, came_from, &mut targets);
        for &to in &targets {
            self.send_copy(ctx, to, copy.clone(), DissemMsg::Notification);
        }
        self.targets = targets;
    }

    /// Send the publisher's first-hop copies of `event` again, as a
    /// publish did, without marking or caching anything: a publisher's
    /// retry.
    pub(crate) fn republish<M: From<DissemMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        event: EventId,
        topic: TopicId,
        forward_targets: impl FnOnce(&Notification, Option<NodeIdx>, &mut Vec<NodeIdx>),
    ) {
        let copy = self.first_hop(ctx.self_idx, event, topic);
        self.send_copies(ctx, copy, None, forward_targets);
    }

    /// End-of-round step: count the round, age the cache, and send the
    /// repair messages in the order they must leave — a
    /// [`DissemMsg::Want`] per pull retry that is due, then, when there is
    /// a digest to gossip, one [`DissemMsg::Digest`] to each target
    /// sampled from `neighbors()`. With repair off (or nothing cached) the
    /// closure is never called and no randomness is drawn, so default
    /// runs stay bit-identical and allocate nothing here.
    pub fn round_step<M: From<DissemMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        neighbors: impl FnOnce() -> Vec<NodeIdx>,
    ) {
        self.round += 1;
        if !self.ae.enabled() {
            return;
        }
        self.ae.tick(self.round);
        for (to, ids) in self.ae.due_pulls(self.round) {
            ctx.send(to, DissemMsg::Want(ids).into());
        }
        if let Some(entries) = self.ae.digest(self.round) {
            let entries = Rc::new(entries);
            for to in self.ae.pick_targets(neighbors(), ctx.rng) {
                ctx.send(to, DissemMsg::Digest(entries.clone()).into());
            }
        }
    }

    /// A data-plane message from `from` arrived at this node, subscribed
    /// to `subs`. Copies leave through `forward_targets` (see
    /// `send_copies`), every other reply straight back to `from`:
    /// - a notification arrives (see `arrive`) and, the first time, goes
    ///   on one hop further;
    /// - a publish command marks and caches the event here and sends its
    ///   first-hop copies;
    /// - a digest gets one [`DissemMsg::Want`] back for the advertised
    ///   events on a topic in `subs` never seen here (none when there are
    ///   none);
    /// - a want gets one push, one repair hop on, per event it names that
    ///   is still cached (aged-out or never-held ids are silently absent);
    /// - a push arrives like a flooded copy, delivered as the distinct
    ///   recovered class and cached for onward repair. It is never
    ///   forwarded: recovered copies spread only through further digest
    ///   exchanges, so repair traffic stays pull-bounded.
    pub fn on_message<M: From<DissemMsg>>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: NodeIdx,
        subs: &Subs,
        msg: DissemMsg,
        forward_targets: impl FnOnce(&Notification, Option<NodeIdx>, &mut Vec<NodeIdx>),
    ) {
        let me = ctx.self_idx;
        match msg {
            DissemMsg::Notification(notif) => {
                if let Some(copy) = self.receive(me, subs, ctx.now, notif) {
                    self.send_copies(ctx, copy, Some(from), forward_targets);
                }
            }
            DissemMsg::Publish { event, topic } => {
                let copy = self.publish(me, event, topic);
                self.send_copies(ctx, copy, None, forward_targets);
            }
            DissemMsg::Digest(entries) => {
                let seen = &self.seen;
                let wants = self.ae.on_digest(
                    from,
                    &entries,
                    self.round,
                    |t| subs.contains(TopicId(t)),
                    |e| seen.contains(EventId(e)),
                );
                if !wants.is_empty() {
                    ctx.send(from, DissemMsg::Want(wants).into());
                }
            }
            DissemMsg::Want(ids) => {
                for (_, _, cached) in self.ae.serve(&ids) {
                    let push = Notification {
                        hops: cached.hops + 1,
                        ..cached
                    };
                    self.send_copy(ctx, from, push, DissemMsg::Push);
                }
            }
            DissemMsg::Push(notif) => {
                self.arrive(me, subs, ctx.now, notif, Arrival::Recovered);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicSet;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vitis_sim::antientropy::DIGEST_FANOUT;
    use vitis_sim::protocol::capture_sends;

    const T: TopicId = TopicId(3);
    const ME: NodeIdx = NodeIdx(1);
    const PEER: NodeIdx = NodeIdx(9);

    /// A repair-on component at `ME`, the subscriptions it serves, the
    /// shared monitor and one event expected there.
    fn setup() -> (Dissemination, Subs, Monitor, EventId) {
        let monitor = Monitor::new();
        let event = monitor.register_event(T, SimTime(0), vec![ME]);
        let d = Dissemination::new(monitor.clone(), AeConfig::on());
        (d, Subs::new(TopicSet::from_iter([T.0])), monitor, event)
    }

    fn copy(event: EventId, hops: u32) -> Notification {
        Notification {
            event,
            topic: T,
            hops,
            path: HopPath::origin(NodeIdx(0)),
        }
    }

    /// `d`, at `ME` and subscribed to `subs`, handles `msg` from `PEER` at
    /// time `now`: the sends it made.
    fn handle(
        d: &mut Dissemination,
        subs: &Subs,
        now: u64,
        msg: DissemMsg,
    ) -> Vec<(NodeIdx, DissemMsg)> {
        let mut rng = SmallRng::seed_from_u64(0);
        capture_sends(ME, SimTime(now), &mut rng, |ctx| {
            d.on_message(ctx, PEER, subs, msg, |_, _, _| {
                panic!("nothing is forwarded")
            })
        })
    }

    /// The digest's reply: the want sent back to `PEER`, if any.
    fn digest(d: &mut Dissemination, subs: &Subs, entries: &[(u64, u32)]) -> Option<DissemMsg> {
        let mut sent = handle(d, subs, 0, DissemMsg::Digest(Rc::new(entries.to_vec())));
        assert!(sent.len() <= 1, "a digest is answered with one want");
        sent.pop().map(|(to, msg)| {
            assert!(to == PEER && matches!(msg, DissemMsg::Want(_)), "{msg:?}");
            msg
        })
    }

    /// A push of `notif` arrives at time `now`.
    fn push(d: &mut Dissemination, subs: &Subs, now: u64, notif: Notification) {
        let sent = handle(d, subs, now, DissemMsg::Push(notif));
        assert!(sent.is_empty(), "a push is never sent on");
    }

    /// The end-of-round step's sends, with `neighbors` to gossip to.
    fn step(
        d: &mut Dissemination,
        rng: &mut SmallRng,
        neighbors: impl FnOnce() -> Vec<NodeIdx>,
    ) -> Vec<(NodeIdx, DissemMsg)> {
        capture_sends(ME, SimTime(0), rng, |ctx| d.round_step(ctx, neighbors))
    }

    /// The copies pushed back to `PEER` for its want of `ids`.
    fn serve(d: &mut Dissemination, subs: &Subs, ids: &[u64]) -> Vec<Notification> {
        let sent = handle(d, subs, 0, DissemMsg::Want(ids.to_vec()));
        sent.into_iter()
            .map(|(to, msg)| match (to, msg) {
                (PEER, DissemMsg::Push(n)) => n,
                other => panic!("not a push to the asker: {other:?}"),
            })
            .collect()
    }

    /// The bitmap against a hash set: ids in a dense window with gaps,
    /// repeats, ids below the first one inserted (the span grows downward)
    /// and ids far above it, with probes in between; and the span bound on
    /// its bytes after every insert.
    #[test]
    fn seen_set_answers_like_a_hash_set_within_its_span_bound() {
        use std::collections::HashSet;
        for seed in 0..200 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut set, mut model) = (SeenSet::default(), HashSet::new());
            let mut inserted: Vec<u64> = Vec::new();
            let start = rng.gen_range(0..1_000_000u64);
            let (mut lo, mut hi) = (u64::MAX, 0);
            for _ in 0..rng.gen_range(1..300) {
                let id = match rng.gen_range(0..10) {
                    0 => start.saturating_sub(rng.gen_range(1..5_000)),
                    1 => start + rng.gen_range(5_000..50_000),
                    2 | 3 if !inserted.is_empty() => inserted[rng.gen_range(0..inserted.len())],
                    _ => start + rng.gen_range(0..512),
                };
                let probe = id.saturating_add_signed(rng.gen_range(-100..100));
                assert_eq!(
                    set.contains(EventId(probe)),
                    model.contains(&probe),
                    "seed {seed}: probe {probe}"
                );
                assert_eq!(
                    set.insert(EventId(id)),
                    model.insert(id),
                    "seed {seed}: insert {id}"
                );
                inserted.push(id);
                (lo, hi) = (lo.min(id), hi.max(id));
                let bound = 2 * ((hi - lo) / 64 + 1) * 8;
                assert!(
                    set.heap_bytes() <= bound,
                    "seed {seed}: {} B over the span bound {bound} B",
                    set.heap_bytes()
                );
            }
            for &id in &inserted {
                assert!(set.contains(EventId(id)), "seed {seed}: lost {id}");
            }
            for _ in 0..500 {
                let probe = rng.gen_range(lo.saturating_sub(200)..hi + 200);
                assert_eq!(set.contains(EventId(probe)), model.contains(&probe));
            }
        }
    }

    /// Hop paths ride only under a trace: untraced, the publisher's copy
    /// and every copy received on carry none; once the monitor has a trace
    /// they start at the publisher and grow by one slot per receipt.
    #[test]
    fn hop_paths_are_built_only_under_a_trace() {
        let (mut d, subs, monitor, event) = setup();
        let origin = NodeIdx(0);
        let mut publisher = Dissemination::new(monitor.clone(), AeConfig::default());
        let first = publisher.publish(origin, event, T);
        assert!(first.path.nodes().is_empty());
        let fwd = d.receive(ME, &subs, SimTime(5), first).unwrap();
        assert_eq!((fwd.hops, fwd.path.nodes()), (2, &[][..]));
        let late = monitor.register_event(T, SimTime(0), vec![ME]);
        push(&mut d, &subs, 5, copy(late, 1));
        assert!(serve(&mut d, &subs, &[late.0])
            .iter()
            .all(|c| c.path.is_empty()));

        let trace = vitis_sim::trace::Trace::shared(16);
        monitor.set_trace(Some(trace.clone()));
        let traced = monitor.register_event(T, SimTime(0), vec![ME]);
        let first = publisher.publish(origin, traced, T);
        assert_eq!(first.path.nodes(), &[origin]);
        let fwd = d.receive(ME, &subs, SimTime(5), first).unwrap();
        assert_eq!((fwd.hops, fwd.path.nodes()), (2, &[origin, ME][..]));
        let pulled = monitor.register_event(T, SimTime(0), vec![ME]);
        push(&mut d, &subs, 6, copy(pulled, 1));
        let served = serve(&mut d, &subs, &[pulled.0]);
        assert_eq!(served[0].path.nodes(), &[origin, ME]);
        let paths: Vec<String> = trace
            .borrow()
            .events()
            .filter_map(|ev| match ev {
                vitis_sim::trace::TraceEvent::DeliverEvent { path, .. } => Some(path.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(paths, ["0>1", "0>1"]);
    }

    /// Copies leave through `forward_targets`, which is asked once per
    /// copy to send, with the copy as it goes on and where it came from:
    /// a first arrival one hop further from its sender, a publish at one
    /// hop from nobody. A duplicate asks for no targets and sends nothing.
    #[test]
    fn copies_leave_through_forward_targets() {
        let (mut d, subs, monitor, event) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut run = |d: &mut Dissemination, msg| {
            let mut asked = Vec::new();
            let sent = capture_sends(ME, SimTime(5), &mut rng, |ctx| {
                d.on_message(ctx, PEER, &subs, msg, |copy, came_from, targets| {
                    asked.push((copy.hops, came_from));
                    targets.extend([NodeIdx(4), NodeIdx(6)]);
                })
            });
            let sent: Vec<_> = sent
                .into_iter()
                .map(|(to, msg)| match msg {
                    DissemMsg::Notification(n) => (to, n.event, n.hops),
                    other => panic!("not a copy: {other:?}"),
                })
                .collect();
            (asked, sent)
        };
        let (asked, sent) = run(&mut d, DissemMsg::Notification(copy(event, 2)));
        assert_eq!(asked, [(3, Some(PEER))]);
        assert_eq!(sent, [(NodeIdx(4), event, 3), (NodeIdx(6), event, 3)]);
        let (asked, sent) = run(&mut d, DissemMsg::Notification(copy(event, 1)));
        assert!(asked.is_empty() && sent.is_empty(), "a duplicate");
        let own = monitor.register_event(T, SimTime(0), Vec::new());
        let (asked, sent) = run(
            &mut d,
            DissemMsg::Publish {
                event: own,
                topic: T,
            },
        );
        assert_eq!(asked, [(1, None)]);
        assert_eq!(sent, [(NodeIdx(4), own, 1), (NodeIdx(6), own, 1)]);
        assert!(d.repair().holds(own.0), "a publisher caches its event");
    }

    #[test]
    fn duplicate_arrival_counts_rx_but_delivers_and_forwards_once() {
        let (mut d, subs, monitor, event) = setup();
        let fwd = d.receive(ME, &subs, SimTime(5), copy(event, 1)).unwrap();
        assert_eq!(fwd.hops, 2);
        assert!(d.repair().holds(event.0), "first arrival is cached");
        assert!(d.receive(ME, &subs, SimTime(6), copy(event, 4)).is_none());
        push(&mut d, &subs, 7, copy(event, 2)); // a late push is a duplicate too
        let s = monitor.snapshot();
        assert_eq!(
            (s.useful_msgs, s.delivered),
            (3, 1),
            "three receptions, one delivery"
        );
        assert_eq!(monitor.recovered_deliveries(), 0);
    }

    /// A pushed copy and a flooded copy of one wanted event, in either
    /// order: whichever arrives first is delivered (under its class),
    /// cached and — if flooded — forwarded; the second only counts as a
    /// reception. The want is retired either way.
    #[test]
    fn a_push_and_a_flooded_copy_deliver_once_in_either_order() {
        for (case, push_first) in [("push first", true), ("flood first", false)] {
            let (mut d, subs, monitor, event) = setup();
            let want = digest(&mut d, &subs, &[(event.0, T.0)]);
            assert_eq!(want, Some(DissemMsg::Want(vec![event.0])));
            let (flooded, pushed) = (copy(event, 2), copy(event, 5));
            let forwarded = if push_first {
                push(&mut d, &subs, 5, pushed);
                d.receive(ME, &subs, SimTime(6), flooded)
            } else {
                let fwd = d.receive(ME, &subs, SimTime(5), flooded);
                push(&mut d, &subs, 6, pushed);
                fwd
            };
            let s = monitor.snapshot();
            assert_eq!(s.delivered, 1, "{case}: one delivery");
            assert_eq!(
                monitor.recovered_deliveries(),
                u64::from(push_first),
                "{case}: recovered only when the push came first"
            );
            assert_eq!(s.useful_msgs, 2, "{case}: both receptions count");
            assert_eq!(
                forwarded.map(|f| f.hops),
                (!push_first).then_some(3),
                "{case}: only a first flooded arrival is forwarded"
            );
            let cached = serve(&mut d, &subs, &[event.0]);
            let first_hops = if push_first { 5 } else { 2 };
            assert_eq!(
                cached.iter().map(|c| c.hops).collect::<Vec<_>>(),
                [first_hops + 1],
                "{case}: the first copy alone is cached"
            );
            assert_eq!(d.repair().pending(), 0, "{case}: no want is left");
        }
    }

    #[test]
    fn recovery_delivers_once_and_duplicates_retire_the_want() {
        let (mut d, subs, monitor, event) = setup();
        let want = digest(&mut d, &subs, &[(event.0, T.0), (77, 99)]);
        assert_eq!(
            want,
            Some(DissemMsg::Want(vec![event.0])),
            "only the subscribed topic's gap"
        );
        push(&mut d, &subs, 5, copy(event, 3));
        assert_eq!(
            (monitor.snapshot().delivered, monitor.recovered_deliveries()),
            (1, 1)
        );
        assert!(d.repair().holds(event.0), "cached for onward repair");
        assert_eq!(d.repair().pending(), 0);
        assert_eq!(
            digest(&mut d, &subs, &[(event.0, T.0)]),
            None,
            "never re-pulled"
        );
        // Force the race the duplicate branch guards: an event already
        // seen whose want is still outstanding.
        let other = monitor.register_event(T, SimTime(0), vec![ME]);
        digest(&mut d, &subs, &[(other.0, T.0)]);
        d.seen.insert(other);
        push(&mut d, &subs, 6, copy(other, 3));
        assert_eq!(d.repair().pending(), 0, "duplicate push retires the want");
        assert!(!d.repair().holds(other.0), "and caches nothing");
        assert_eq!(monitor.snapshot().delivered, 1, "nor delivers");
    }

    #[test]
    fn publisher_serves_pulls_for_its_own_event() {
        let (mut d, subs, _, event) = setup();
        let first = d.publish(ME, event, T);
        assert_eq!(first.hops, 1);
        assert!(
            d.receive(ME, &subs, SimTime(1), first).is_none(),
            "own event is seen"
        );
        let pushes = serve(&mut d, &subs, &[event.0, 12345]);
        assert_eq!(pushes.len(), 1, "unknown ids are silently absent");
        assert_eq!(
            (pushes[0].event, pushes[0].hops),
            (event, 1),
            "origin copy, one hop on"
        );
    }

    #[test]
    fn round_step_is_inert_until_there_is_a_digest_to_gossip() {
        let (mut d, subs, monitor, event) = setup();
        let mut off = Dissemination::new(monitor.clone(), AeConfig::default());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut untouched = rng.clone();
        off.publish(ME, event, T);
        let out = step(&mut off, &mut rng, || panic!("neighbors must not be built"));
        assert!(out.is_empty());
        assert_eq!(off.round(), 1, "the round still counts");
        // Enabled but with nothing cached is just as quiet.
        let out = step(&mut d, &mut rng, || panic!("neighbors must not be built"));
        assert!(out.is_empty());
        assert_eq!(
            rng.gen::<u64>(),
            untouched.gen::<u64>(),
            "no randomness drawn"
        );
        // With a cached event the digest goes to a sample of the neighbors.
        d.publish(ME, event, T);
        let out = step(&mut d, &mut rng, || (10..20).map(NodeIdx).collect());
        assert_eq!(out.len(), DIGEST_FANOUT);
        let advertised = DissemMsg::Digest(Rc::new(vec![(event.0, T.0)]));
        assert!(out
            .iter()
            .all(|(to, msg)| (10..20).contains(&to.0) && *msg == advertised));
        // A pull retry that is due leaves before the round's digests.
        let missing = monitor.register_event(T, SimTime(0), vec![ME]);
        digest(&mut d, &subs, &[(missing.0, T.0)]);
        let out =
            std::iter::repeat_with(|| step(&mut d, &mut rng, || (10..20).map(NodeIdx).collect()))
                .take(8)
                .find(|out| out.iter().any(|(_, msg)| matches!(msg, DissemMsg::Want(_))))
                .expect("the pull is retried");
        assert_eq!(out[0], (PEER, DissemMsg::Want(vec![missing.0])));
        assert_eq!(out.len(), 1 + DIGEST_FANOUT);
        assert!(out[1..]
            .iter()
            .all(|(_, msg)| matches!(msg, DissemMsg::Digest(_))));
    }
}
