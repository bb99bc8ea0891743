//! What happens *to* a notification at a node, shared by Vitis, RVR and
//! OPT: forwarding dedup, causal-path extension, delivery and forward
//! accounting, and the anti-entropy repair layer (cache, round step,
//! digest / want / push handling).
//!
//! A node type holds one [`Dissemination`] and keeps only the decision of
//! *where* a copy goes next — friends + reverse links + relay fan-out
//! (Vitis), tree fan-out (RVR) or the topic-subgraph flood (OPT) — plus its
//! own hardening. The component knows no wire enum: it returns what to
//! forward, pull or push and the node wraps that in its own message
//! variants, so a node that accounts control bytes (Vitis) does so without
//! this code branching on its caller.

use crate::monitor::{EventId, HopPath, Monitor};
use crate::msg::Notification;
use crate::topic::{Subs, TopicId};
use rand::rngs::SmallRng;
use std::rc::Rc;
use vitis_sim::antientropy::{AeConfig, AntiEntropy};
use vitis_sim::event::NodeIdx;
use vitis_sim::protocol::Context;
use vitis_sim::time::SimTime;

/// The repair traffic one round produced, for the node to put on the wire:
/// the pulls first, then the digest — the order the sends must leave in.
#[derive(Debug, Default)]
pub struct RepairRound {
    /// Pull retries due this round, as `(advertiser, missing event ids)`.
    pub pulls: Vec<(NodeIdx, Vec<u64>)>,
    /// The `(event id, topic)` digest to gossip; `None` when the layer is
    /// off or idle.
    pub digest: Option<Rc<Vec<(u64, u32)>>>,
    /// The neighbors sampled to receive the digest.
    pub digest_targets: Vec<NodeIdx>,
}

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
    /// layer's tables. Hop paths behind cached copies are shared with the
    /// copies in flight and not counted.
    pub fn heap_bytes(&self) -> u64 {
        self.seen.heap_bytes()
            + (self.targets.capacity() * std::mem::size_of::<NodeIdx>()) as u64
            + self.ae.heap_bytes()
    }

    /// The node's monitor handle, for accounting the node does itself
    /// (control bytes, rounds).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The anti-entropy repair state (tests/telemetry).
    pub fn repair(&self) -> &AntiEntropy<Notification> {
        &self.ae
    }

    /// Gossip rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// `addr` publishes `event`: mark it seen, cache it (so the publisher
    /// can answer pulls for its own events) and return the first-hop copy
    /// for the node to fan out.
    pub fn publish(&mut self, addr: NodeIdx, event: EventId, topic: TopicId) -> Notification {
        self.seen.insert(event);
        let first_hop = Notification {
            event,
            topic,
            hops: 1,
            path: HopPath::origin(addr),
        };
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
    /// normal dissemination. Counts the reception, and for a first arrival
    /// extends the causal path, records the delivery if subscribed and
    /// caches the copy for pulling peers. Returns the copy to forward, one
    /// hop on — `None` for a duplicate.
    pub fn receive(
        &mut self,
        addr: NodeIdx,
        subs: &Subs,
        now: SimTime,
        notif: Notification,
    ) -> Option<Notification> {
        let interested = subs.contains(notif.topic);
        self.monitor.record_data_rx(addr, interested);
        if !self.seen.insert(notif.event) {
            return None;
        }
        // Extend the causal path with this node once; the delivery record,
        // the cached copy and every forwarded copy share it.
        let here = Notification {
            path: notif.path.extend(addr),
            ..notif
        };
        if interested {
            self.monitor
                .record_delivery_traced(here.event, addr, here.hops, now, &here.path);
        }
        if self.ae.enabled() {
            self.ae
                .insert(here.event.0, here.topic.0, here.clone(), self.round);
        }
        Some(Notification {
            hops: here.hops + 1,
            ..here
        })
    }

    /// A repair push arrived at `addr`: deliver it as the distinct
    /// `recovered` class and cache it for onward repair. Nothing is
    /// returned for forwarding — recovered copies spread only through
    /// further digest exchanges, so repair traffic stays pull-bounded.
    pub fn recover(&mut self, addr: NodeIdx, subs: &Subs, now: SimTime, notif: Notification) {
        let interested = subs.contains(notif.topic);
        self.monitor.record_data_rx(addr, interested);
        if !self.seen.insert(notif.event) {
            // Another pull (or the flood itself) won the race; the monitor
            // would ignore the re-delivery, so just retire the want.
            self.ae.satisfy(notif.event.0);
            return;
        }
        let here = Notification {
            path: notif.path.extend(addr),
            ..notif
        };
        if interested {
            self.monitor
                .record_delivery_recovered(here.event, addr, here.hops, now, &here.path);
        }
        self.ae.insert(here.event.0, here.topic.0, here, self.round);
    }

    /// Hand one copy of `notif` to `to`: the `fwd` forensics record and the
    /// send, always together.
    pub fn send_copy<M>(
        &self,
        ctx: &mut Context<'_, M>,
        to: NodeIdx,
        notif: Notification,
        wrap: impl FnOnce(Notification) -> M,
    ) {
        self.monitor
            .record_forward(notif.event, ctx.self_idx, to, notif.hops, ctx.now);
        ctx.send(to, wrap(notif));
    }

    /// Fan `notif` out: `fill` appends the targets (in send order, without
    /// duplicates) to the node's reused target buffer, and each gets one
    /// [`Dissemination::send_copy`].
    pub fn send_copies<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        notif: Notification,
        wrap: impl Fn(Notification) -> M,
        fill: impl FnOnce(&mut Vec<NodeIdx>),
    ) {
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        fill(&mut targets);
        for &to in &targets {
            self.send_copy(ctx, to, notif.clone(), &wrap);
        }
        self.targets = targets;
    }

    /// End-of-round step: count the round, age the cache, collect the pull
    /// retries that are due and, when there is a digest to gossip, sample
    /// its targets from `neighbors()`. With repair off (or nothing cached)
    /// the closure is never called and no randomness is drawn, so default
    /// runs stay bit-identical and allocate nothing here.
    pub fn round_step(
        &mut self,
        neighbors: impl FnOnce() -> Vec<NodeIdx>,
        rng: &mut SmallRng,
    ) -> RepairRound {
        self.round += 1;
        if !self.ae.enabled() {
            return RepairRound::default();
        }
        self.ae.tick(self.round);
        let mut out = RepairRound {
            pulls: self.ae.due_pulls(self.round),
            ..RepairRound::default()
        };
        if let Some(entries) = self.ae.digest(self.round) {
            out.digest_targets = self.ae.pick_targets(&neighbors(), rng);
            out.digest = Some(Rc::new(entries));
        }
        out
    }

    /// A digest arrived from `from`: the event ids to pull from it right
    /// now (advertised, on a topic in `subs`, never seen here).
    pub fn on_digest(&mut self, from: NodeIdx, entries: &[(u64, u32)], subs: &Subs) -> Vec<u64> {
        let seen = &self.seen;
        self.ae.on_digest(
            from,
            entries,
            self.round,
            |t| subs.contains(TopicId(t)),
            |e| seen.contains(EventId(e)),
        )
    }

    /// A pull request arrived: the cached copies to push back, each one
    /// repair hop on. Aged-out or never-held ids are silently absent.
    pub fn serve(&self, ids: &[u64]) -> impl Iterator<Item = Notification> {
        self.ae
            .serve(ids)
            .into_iter()
            .map(|(_, _, cached)| Notification {
                hops: cached.hops + 1,
                ..cached
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicSet;
    use rand::{Rng, SeedableRng};
    use vitis_sim::antientropy::DIGEST_FANOUT;

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

    #[test]
    fn duplicate_arrival_counts_rx_but_delivers_and_forwards_once() {
        let (mut d, subs, monitor, event) = setup();
        let fwd = d.receive(ME, &subs, SimTime(5), copy(event, 1)).unwrap();
        assert_eq!((fwd.hops, fwd.path.nodes()), (2, &[NodeIdx(0), ME][..]));
        assert!(d.repair().holds(event.0), "first arrival is cached");
        assert!(d.receive(ME, &subs, SimTime(6), copy(event, 4)).is_none());
        d.recover(ME, &subs, SimTime(7), copy(event, 2)); // a late push is a duplicate too
        let s = monitor.snapshot();
        assert_eq!(
            (s.useful_msgs, s.delivered),
            (3, 1),
            "three receptions, one delivery"
        );
        assert_eq!(monitor.recovered_deliveries(), 0);
    }

    #[test]
    fn recovery_delivers_once_and_duplicates_retire_the_want() {
        let (mut d, subs, monitor, event) = setup();
        let wants = d.on_digest(PEER, &[(event.0, T.0), (77, 99)], &subs);
        assert_eq!(wants, vec![event.0], "only the subscribed topic's gap");
        d.recover(ME, &subs, SimTime(5), copy(event, 3));
        assert_eq!(
            (monitor.snapshot().delivered, monitor.recovered_deliveries()),
            (1, 1)
        );
        assert!(d.repair().holds(event.0), "cached for onward repair");
        assert_eq!(d.repair().pending(), 0);
        assert!(
            d.on_digest(PEER, &[(event.0, T.0)], &subs).is_empty(),
            "never re-pulled"
        );
        // Force the race the duplicate branch guards: an event already
        // seen whose want is still outstanding.
        let other = monitor.register_event(T, SimTime(0), vec![ME]);
        d.on_digest(PEER, &[(other.0, T.0)], &subs);
        d.seen.insert(other);
        d.recover(ME, &subs, SimTime(6), copy(other, 3));
        assert_eq!(d.repair().pending(), 0, "duplicate push retires the want");
        assert!(!d.repair().holds(other.0), "and caches nothing");
        assert_eq!(monitor.snapshot().delivered, 1, "nor delivers");
    }

    #[test]
    fn publisher_serves_pulls_for_its_own_event() {
        let (mut d, subs, _, event) = setup();
        let first = d.publish(ME, event, T);
        assert_eq!((first.hops, first.path.nodes()), (1, &[ME][..]));
        assert!(
            d.receive(ME, &subs, SimTime(1), first).is_none(),
            "own event is seen"
        );
        let pushes: Vec<Notification> = d.serve(&[event.0, 12345]).collect();
        assert_eq!(pushes.len(), 1, "unknown ids are silently absent");
        assert_eq!(
            (pushes[0].event, pushes[0].hops),
            (event, 1),
            "origin copy, one hop on"
        );
    }

    #[test]
    fn round_step_is_inert_until_there_is_a_digest_to_gossip() {
        let (mut d, _, monitor, event) = setup();
        let mut off = Dissemination::new(monitor, AeConfig::default());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut untouched = rng.clone();
        off.publish(ME, event, T);
        let out = off.round_step(|| panic!("neighbors must not be built"), &mut rng);
        assert!(out.pulls.is_empty() && out.digest.is_none());
        assert_eq!(off.round(), 1, "the round still counts");
        // Enabled but with nothing cached is just as quiet.
        let out = d.round_step(|| panic!("neighbors must not be built"), &mut rng);
        assert!(out.digest.is_none());
        assert_eq!(
            rng.gen::<u64>(),
            untouched.gen::<u64>(),
            "no randomness drawn"
        );
        // With a cached event the digest goes to a sample of the neighbors.
        d.publish(ME, event, T);
        let out = d.round_step(|| (10..20).map(NodeIdx).collect(), &mut rng);
        let entries = out.digest.expect("cached event is advertised");
        assert_eq!(*entries, vec![(event.0, T.0)]);
        assert_eq!(out.digest_targets.len(), DIGEST_FANOUT);
    }
}
