//! The deterministic discrete-event engine.
//!
//! The engine owns all node states, a single event queue, and the network
//! model. Determinism trumps parallel execution: [`Engine::run_until`] runs
//! every handler on the calling thread, in event order, like the PeerSim
//! loop the paper was evaluated in. Parameter sweeps parallelise one level
//! up, across independent engine instances (the experiment harness runs
//! sweep points on Rayon).
//!
//! Gossip protocols are *cycle-driven* on top of the event queue: each alive
//! node receives a `RoundTick` every `round_period` ticks, desynchronized by
//! a per-node phase drawn at join time, exactly like PeerSim's event-driven
//! mode running a periodic protocol.

use crate::event::{EventQueue, NodeIdx};
use crate::network::{ConstantLatency, NetworkModel};
use crate::protocol::{Context, Effect, Protocol};
use crate::rng;
use crate::time::{Duration, SimTime};
use crate::trace::{KindTraffic, TraceEvent, TraceHandle, TrafficLedger};
use rand::rngs::SmallRng;
use rand::Rng;
use std::mem::size_of;

/// Engine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Master seed; every RNG stream in the run derives from it.
    pub seed: u64,
    /// Gossip round period in ticks. Each node ticks once per period.
    pub round_period: Duration,
    /// If true, each node's tick phase is drawn uniformly in `[0, period)`;
    /// if false, all nodes tick in lock-step (useful in unit tests).
    pub desynchronize_rounds: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0xC0FFEE,
            round_period: Duration(64),
            desynchronize_rounds: true,
        }
    }
}

/// Per-slot bookkeeping.
struct Slot<P: Protocol> {
    proto: Option<P>,
    rng: SmallRng,
    incarnation: u32,
    joined_at: SimTime,
}

enum Ev<M> {
    Deliver {
        to: NodeIdx,
        from: NodeIdx,
        msg: M,
    },
    /// Periodic gossip tick. The incarnation guard discards ticks scheduled
    /// for a previous life of the slot.
    RoundTick {
        node: NodeIdx,
        incarnation: u32,
    },
}

impl<M> Ev<M> {
    /// The slot this event is addressed to.
    fn node(&self) -> NodeIdx {
        match *self {
            Ev::Deliver { to, .. } => to,
            Ev::RoundTick { node, .. } => node,
        }
    }
}

/// How many events ahead in a batch [`Engine::run_until`] prefetches the
/// destination slot (every cache line of it), and how many ahead it passes
/// the destination node its [`Protocol::prefetch`] hint. The hint reads the
/// node, so it trails the slot prefetch: by then the node's line has had
/// `SLOT_AHEAD - HINT_AHEAD` handlers' time to arrive.
///
/// Swept on the repo benchmark's `gossip_2k` `cpu_s` (seed 42, a 2-core
/// x86_64 host, medians of 4–6 runs): no look-ahead 2.68 s; `(SLOT_AHEAD,
/// HINT_AHEAD)` = (4, 2) 2.36 s, (8, 4) 2.30 s, (12, 6) 2.37 s, (16, 8)
/// 2.46 s, (24, 12) 2.37 s. Runs of one setting spread ±5 %, so any
/// distance from 4 to 24 does about as well; (8, 4) read best.
const SLOT_AHEAD: usize = 8;
const HINT_AHEAD: usize = 4;
const _: () = assert!(HINT_AHEAD < SLOT_AHEAD);

/// Aggregate message-count statistics for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total messages handed to the network.
    pub messages_sent: u64,
    /// Total messages delivered (sent minus lost minus addressed-to-dead).
    pub messages_delivered: u64,
    /// Messages that arrived at a slot with no alive node.
    pub messages_to_dead: u64,
    /// Messages the network model dropped in transit (loss, partitions).
    pub messages_lost: u64,
    /// Always 0. Kept only because the repo benchmark reads it and hashes
    /// it into every `sim_digest`; no engine path suppresses a message.
    pub messages_suppressed: u64,
    /// Round ticks executed.
    pub rounds_executed: u64,
}

/// The simulation engine. `P` is the per-node protocol, `N` the network
/// model (constant one-tick latency by default).
pub struct Engine<P: Protocol, N: NetworkModel = ConstantLatency> {
    cfg: EngineConfig,
    network: N,
    slots: Vec<Slot<P>>,
    /// Slots holding a node, kept in step with every `proto` write so
    /// counting the online population is O(1).
    alive: usize,
    queue: EventQueue<Ev<P::Msg>>,
    now: SimTime,
    engine_rng: SmallRng,
    stats: EngineStats,
    counters: crate::perf::EngineCounters,
    effects_buf: Vec<Effect<P::Msg>>,
    ledger: TrafficLedger,
    trace: Option<TraceHandle>,
    /// `(event id, destination slot)` of event-bearing messages the network
    /// dropped since the last traffic-window reset (see
    /// [`Protocol::event_of`]). Feeds network-loss attribution.
    net_drops: Vec<(u64, u32)>,
    /// Events popped in the current batch but not yet handled. Added to the
    /// queue length when updating the depth high-water mark, so batch
    /// draining reports the same `queue_hwm` a one-pop-at-a-time loop would.
    pending_virtual: u64,
}

impl<P: Protocol> Engine<P, ConstantLatency> {
    /// Engine with the default constant one-tick latency network.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine::with_network(cfg, ConstantLatency::default())
    }
}

impl<P: Protocol, N: NetworkModel> Engine<P, N> {
    /// Engine with an explicit network model.
    pub fn with_network(cfg: EngineConfig, network: N) -> Self {
        let engine_rng = rng::stream_rng(cfg.seed, rng::domain::ENGINE, 0);
        Engine {
            cfg,
            network,
            slots: Vec::new(),
            alive: 0,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            engine_rng,
            stats: EngineStats::default(),
            counters: crate::perf::EngineCounters::default(),
            effects_buf: Vec::new(),
            ledger: TrafficLedger::new(),
            trace: None,
            net_drops: Vec::new(),
            pending_virtual: 0,
        }
    }

    /// Install a shared trace; the engine records lifecycle and message
    /// events into it from now on.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// A clone of the installed trace handle, if any.
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.trace.clone()
    }

    /// Per-message-kind sent/delivered counters since the last
    /// [`Engine::reset_kind_traffic`], as classified by
    /// [`Protocol::classify`].
    pub fn kind_traffic(&self) -> Vec<KindTraffic> {
        self.ledger.kinds().to_vec()
    }

    /// `(control, data)` messages sent since the last window reset.
    pub fn sent_by_class(&self) -> (u64, u64) {
        self.ledger.sent_by_class()
    }

    /// Zero the per-kind traffic counters (start of a measurement
    /// window). Aggregate [`EngineStats`] are unaffected. Also clears the
    /// per-window network-drop record.
    pub fn reset_kind_traffic(&mut self) {
        self.ledger.reset();
        self.net_drops.clear();
    }

    /// `(event id, destination slot)` pairs of event-bearing messages lost
    /// to the network since the last window reset. Ordered by drop time; a
    /// pair may repeat if several copies addressed to the same node were
    /// dropped.
    pub fn network_event_drops(&self) -> &[(u64, u32)] {
        &self.net_drops
    }

    #[inline]
    fn trace_record(&self, ev: TraceEvent) {
        if let Some(t) = &self.trace {
            t.borrow_mut().record(ev);
        }
    }

    #[inline]
    fn trace_message(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.trace {
            let mut t = t.borrow_mut();
            if t.record_messages() {
                t.record(make());
            }
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured gossip round period.
    #[inline]
    pub fn round_period(&self) -> Duration {
        self.cfg.round_period
    }

    /// The master seed of this run.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Aggregate message statistics.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Cumulative performance counters (queue-depth high-water mark,
    /// per-kind protocol activations, scheduler batch/overflow counts).
    /// Deterministic — unlike wall-clock timers, these are safe to embed in
    /// reproducible artifacts.
    #[inline]
    pub fn perf_counters(&self) -> crate::perf::EngineCounters {
        let mut c = self.counters;
        c.sched_batches = self.queue.batches_popped();
        c.sched_overflow = self.queue.overflow_pushes();
        c
    }

    /// Heap bytes of the slot table (every node's inline state and RNG,
    /// alive or not) and the scratch buffers, as Σ capacity × element size.
    /// What a node owns beyond its inline state is the protocol's to report.
    pub fn heap_bytes(&self) -> u64 {
        (self.slots.capacity() * size_of::<Slot<P>>()
            + self.effects_buf.capacity() * size_of::<Effect<P::Msg>>()
            + self.net_drops.capacity() * size_of::<(u64, u32)>()) as u64
    }

    /// Heap bytes of the event queue: its ring and bucket capacity. Heap
    /// state *behind* a pending message (a buffer, a hop path) is not counted.
    pub fn queue_bytes(&self) -> u64 {
        self.queue.heap_bytes()
    }

    /// Push an event and keep the queue-depth high-water mark current.
    /// `pending_virtual` counts batch-popped-but-unhandled events so the
    /// mark matches what a one-pop-at-a-time scheduler would report.
    #[inline]
    fn push_event(&mut self, at: SimTime, ev: Ev<P::Msg>) {
        self.queue.push(at, ev);
        let depth = self.queue.len() as u64 + self.pending_virtual;
        if depth > self.counters.queue_hwm {
            self.counters.queue_hwm = depth;
        }
    }

    /// Number of slots ever created (alive or dead).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Make room for exactly `n` more nodes, so a network built to a known
    /// size holds no growth slack in its slot table: the table doubling
    /// its way to N kept up to 1.63× the slots it used.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.slots.reserve_exact(n);
    }

    /// Slots the table has room for without reallocating.
    pub fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Number of currently alive nodes.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Whether the node in `idx` is alive.
    #[inline]
    pub fn is_alive(&self, idx: NodeIdx) -> bool {
        self.slots
            .get(idx.index())
            .is_some_and(|s| s.proto.is_some())
    }

    /// Time at which the current incarnation of `idx` joined.
    pub fn joined_at(&self, idx: NodeIdx) -> Option<SimTime> {
        let s = self.slots.get(idx.index())?;
        s.proto.as_ref().map(|_| s.joined_at)
    }

    /// Shared access to a node's protocol state, if alive.
    pub fn node(&self, idx: NodeIdx) -> Option<&P> {
        self.slots.get(idx.index()).and_then(|s| s.proto.as_ref())
    }

    /// Exclusive access to a node's protocol state, if alive.
    ///
    /// Intended for experiment harnesses injecting stimuli (e.g. a publish
    /// call) outside the message flow; protocol logic itself should stay
    /// inside handlers.
    pub fn node_mut(&mut self, idx: NodeIdx) -> Option<&mut P> {
        self.slots
            .get_mut(idx.index())
            .and_then(|s| s.proto.as_mut())
    }

    /// Iterate over `(idx, &state)` of all alive nodes, in slot order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = (NodeIdx, &P)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.proto.as_ref().map(|p| (NodeIdx(i as u32), p)))
    }

    /// Inject a message into `to` from outside the protocol flow — harness
    /// stimuli such as a publish command. Delivered one tick from now with
    /// `from == to`, like a self-timer.
    pub fn inject(&mut self, to: NodeIdx, msg: P::Msg) {
        self.push_event(self.now + Duration(1), Ev::Deliver { to, from: to, msg });
    }

    /// Add a new node in a fresh slot; runs `on_start` immediately and
    /// schedules its round ticks. Returns the slot index.
    pub fn add_node(&mut self, proto: P) -> NodeIdx {
        let idx = NodeIdx(self.slots.len() as u32);
        let node_rng = rng::node_rng(self.cfg.seed, idx.0, 0);
        self.slots.push(Slot {
            proto: Some(proto),
            rng: node_rng,
            incarnation: 0,
            joined_at: self.now,
        });
        self.alive += 1;
        self.trace_record(TraceEvent::Join {
            now: self.now.0,
            node: idx.0,
            rejoin: false,
        });
        self.start_node(idx);
        idx
    }

    /// Re-join a node into a previously vacated slot with fresh state.
    ///
    /// # Panics
    /// Panics if the slot is still alive.
    pub fn rejoin_node(&mut self, idx: NodeIdx, proto: P) {
        let slot = &mut self.slots[idx.index()];
        assert!(slot.proto.is_none(), "rejoin into alive slot {idx}");
        slot.incarnation += 1;
        slot.rng = rng::node_rng(self.cfg.seed, idx.0, slot.incarnation);
        slot.proto = Some(proto);
        slot.joined_at = self.now;
        self.alive += 1;
        self.trace_record(TraceEvent::Join {
            now: self.now.0,
            node: idx.0,
            rejoin: true,
        });
        self.start_node(idx);
    }

    fn start_node(&mut self, idx: NodeIdx) {
        self.dispatch(idx, DispatchKind::Start);
        let phase = if self.cfg.desynchronize_rounds {
            Duration(self.engine_rng.gen_range(1..=self.cfg.round_period.ticks()))
        } else {
            self.cfg.round_period
        };
        let inc = self.slots[idx.index()].incarnation;
        self.push_event(
            self.now + phase,
            Ev::RoundTick {
                node: idx,
                incarnation: inc,
            },
        );
    }

    /// Take the node in `idx` down. This is the one way a node goes down:
    /// a crash, so no handler runs and messages already sent to the slot
    /// arrive at a dead node. A no-op for an empty slot.
    pub fn remove_node(&mut self, idx: NodeIdx) {
        if !self.is_alive(idx) {
            return;
        }
        self.trace_record(TraceEvent::Leave {
            now: self.now.0,
            node: idx.0,
        });
        self.counters.activations_stop += 1;
        self.slots[idx.index()].proto = None;
        self.alive -= 1;
    }

    /// Run the simulation until simulated time `t` (inclusive of events at
    /// `t`), then advance the clock to `t`. The clock never moves backwards:
    /// a `t` in the past runs nothing and leaves `now()` where it was, so a
    /// later [`Engine::inject`] cannot schedule below the queue's floor.
    ///
    /// Events leave the calendar queue in dense per-timestamp batches (one
    /// bucket handed over per distinct tick instead of one heap pop per
    /// event, and freed once handled); handling order is identical to a
    /// one-at-a-time loop.
    ///
    /// A batch is known in full before its first event runs, so the loop
    /// looks ahead in it: before handling an event it prefetches the slot of
    /// the event `SLOT_AHEAD` places later and hands the node of the one
    /// `HINT_AHEAD` places later its [`Protocol::prefetch`] hint. The cold
    /// misses of an activation then overlap the handlers before it.
    /// Look-ahead never crosses a batch.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let (time, batch) = self.queue.pop_batch().expect("peeked event vanished");
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            self.pending_virtual = batch.len() as u64;
            let mut events = batch.into_iter();
            loop {
                let ahead = events.as_slice();
                if let Some(ev) = ahead.get(SLOT_AHEAD) {
                    if let Some(slot) = self.slots.get(ev.node().index()) {
                        crate::perf::prefetch_range(slot, size_of::<Slot<P>>());
                    }
                }
                if let Some(ev) = ahead.get(HINT_AHEAD) {
                    self.hint(ev);
                }
                let Some(ev) = events.next() else {
                    break;
                };
                self.pending_virtual -= 1;
                self.handle_event(ev);
            }
        }
        self.now = self.now.max(t);
    }

    /// Pass `ev`'s node its [`Protocol::prefetch`] hint if `ev` will
    /// activate it: the node is alive, and a tick is of its current
    /// incarnation (the conditions [`Engine::handle_event`] dispatches on;
    /// no handler can change them within a batch).
    fn hint(&self, ev: &Ev<P::Msg>) {
        let Some(slot) = self.slots.get(ev.node().index()) else {
            return;
        };
        let Some(proto) = &slot.proto else {
            return;
        };
        match ev {
            Ev::Deliver { msg, .. } => proto.prefetch(Some(msg)),
            Ev::RoundTick { incarnation, .. } if *incarnation == slot.incarnation => {
                proto.prefetch(None)
            }
            Ev::RoundTick { .. } => {}
        }
    }

    /// Advance the clock by `d` ticks, executing everything due.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// Advance by `n` gossip round periods.
    pub fn run_rounds(&mut self, n: u64) {
        for _ in 0..n {
            self.run_for(self.cfg.round_period);
        }
    }

    fn handle_event(&mut self, ev: Ev<P::Msg>) {
        match ev {
            Ev::Deliver { to, from, msg } => {
                let alive = self
                    .slots
                    .get(to.index())
                    .is_some_and(|s| s.proto.is_some());
                if alive {
                    self.stats.messages_delivered += 1;
                    let tag = P::classify(&msg);
                    self.ledger.record_deliver(tag);
                    self.trace_message(|| TraceEvent::MsgDeliver {
                        now: self.now.0,
                        from: from.0,
                        to: to.0,
                        kind: std::borrow::Cow::Borrowed(tag.kind),
                        class: tag.class,
                    });
                    self.dispatch(to, DispatchKind::Message { from, msg });
                } else {
                    self.stats.messages_to_dead += 1;
                }
            }
            Ev::RoundTick { node, incarnation } => {
                let alive = self
                    .slots
                    .get(node.index())
                    .is_some_and(|s| s.proto.is_some() && s.incarnation == incarnation);
                if alive {
                    self.stats.rounds_executed += 1;
                    self.dispatch(node, DispatchKind::Round);
                    self.push_event(
                        self.now + self.cfg.round_period,
                        Ev::RoundTick { node, incarnation },
                    );
                }
            }
        }
    }

    /// Account for a message the network dropped in transit: remember its
    /// event id for loss attribution and emit a `net_drop` trace record.
    fn record_net_drop(&mut self, from: NodeIdx, to: NodeIdx, msg: &P::Msg) {
        let event = P::event_of(msg);
        if let Some(ev) = event {
            self.net_drops.push((ev, to.0));
        }
        let tag = P::classify(msg);
        self.trace_message(|| TraceEvent::NetDrop {
            now: self.now.0,
            from: from.0,
            to: to.0,
            kind: std::borrow::Cow::Borrowed(tag.kind),
            event,
        });
    }

    fn dispatch(&mut self, idx: NodeIdx, kind: DispatchKind<P::Msg>) {
        // The handler runs on the protocol where it lives: the slot's `proto`
        // and `rng` are disjoint fields, and the effects buffer is a local,
        // so nothing is moved. Activation cost must not depend on
        // `size_of::<P>()`.
        let slot = &mut self.slots[idx.index()];
        let Some(proto) = slot.proto.as_mut() else {
            return;
        };
        match &kind {
            DispatchKind::Start => self.counters.activations_start += 1,
            DispatchKind::Round => self.counters.activations_round += 1,
            DispatchKind::Message { .. } => self.counters.activations_message += 1,
        }
        let mut effects = std::mem::take(&mut self.effects_buf);
        effects.clear();
        let mut ctx = Context::new(idx, self.now, &mut slot.rng, &mut effects);
        match kind {
            DispatchKind::Start => proto.on_start(&mut ctx),
            DispatchKind::Round => proto.on_round(&mut ctx),
            DispatchKind::Message { from, msg } => proto.on_message(&mut ctx, from, msg),
        }
        self.apply_effects(idx, &mut effects);
        self.effects_buf = effects;
    }

    /// Apply the buffered effects of one handler run on node `idx`:
    /// accounting, tracing, network latency draws and event pushes, in
    /// effect order.
    fn apply_effects(&mut self, idx: NodeIdx, effects: &mut Vec<Effect<P::Msg>>) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg } => {
                    self.stats.messages_sent += 1;
                    let tag = P::classify(&msg);
                    self.ledger.record_send(tag);
                    self.trace_message(|| TraceEvent::MsgSend {
                        now: self.now.0,
                        from: idx.0,
                        to: to.0,
                        kind: std::borrow::Cow::Borrowed(tag.kind),
                        class: tag.class,
                    });
                    if let Some(lat) = self
                        .network
                        .latency(self.now, idx, to, &mut self.engine_rng)
                    {
                        self.push_event(self.now + lat, Ev::Deliver { to, from: idx, msg });
                    } else {
                        self.stats.messages_lost += 1;
                        self.record_net_drop(idx, to, &msg);
                    }
                }
                Effect::TimerMsg { delay, msg } => {
                    self.push_event(
                        self.now + delay,
                        Ev::Deliver {
                            to: idx,
                            from: idx,
                            msg,
                        },
                    );
                }
            }
        }
    }
}

enum DispatchKind<M> {
    Start,
    Round,
    Message { from: NodeIdx, msg: M },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong test protocol: node 0 sends `Ping(k)` to node 1 each round;
    /// node 1 replies `Pong(k+1)`.
    struct PingPong {
        peer: Option<NodeIdx>,
        last_seen: u32,
        rounds: u32,
    }

    #[derive(Clone)]
    enum PpMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Protocol for PingPong {
        type Msg = PpMsg;
        fn on_start(&mut self, _ctx: &mut Context<'_, PpMsg>) {}
        fn on_round(&mut self, ctx: &mut Context<'_, PpMsg>) {
            self.rounds += 1;
            if let Some(peer) = self.peer {
                ctx.send(peer, PpMsg::Ping(self.rounds));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, PpMsg>, from: NodeIdx, msg: PpMsg) {
            match msg {
                PpMsg::Ping(k) => ctx.send(from, PpMsg::Pong(k + 1)),
                PpMsg::Pong(k) => self.last_seen = k,
            }
        }
    }

    fn pp(peer: Option<NodeIdx>) -> PingPong {
        PingPong {
            peer,
            last_seen: 0,
            rounds: 0,
        }
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            seed: 1,
            round_period: Duration(16),
            desynchronize_rounds: true,
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut eng = Engine::new(cfg());
        let b = NodeIdx(1);
        let a = eng.add_node(pp(Some(b)));
        let b2 = eng.add_node(pp(None));
        assert_eq!(b, b2);
        eng.run_rounds(5);
        let pa = eng.node(a).unwrap();
        assert!(pa.rounds >= 4, "rounds = {}", pa.rounds);
        assert!(pa.last_seen >= 2, "last_seen = {}", pa.last_seen);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut eng = Engine::new(cfg());
            let b = NodeIdx(1);
            let a = eng.add_node(pp(Some(b)));
            eng.add_node(pp(Some(a)));
            eng.run_rounds(10);
            (
                eng.stats(),
                eng.node(a).unwrap().last_seen,
                eng.node(b).unwrap().last_seen,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lockstep_mode_ticks_every_node_once_per_period() {
        let mut eng = Engine::new(EngineConfig {
            seed: 1,
            round_period: Duration(16),
            desynchronize_rounds: false,
        });
        let a = eng.add_node(pp(None));
        let b = eng.add_node(pp(None));
        eng.run_for(Duration(16 * 4));
        assert_eq!(eng.node(a).unwrap().rounds, 4);
        assert_eq!(eng.node(b).unwrap().rounds, 4);
    }

    #[test]
    fn desynchronized_phases_vary_across_seeds() {
        // With many nodes, the set of first-period tick counts must differ
        // between seeds (each phase is an independent uniform draw).
        let run = |seed| {
            let mut eng = Engine::new(EngineConfig { seed, ..cfg() });
            for _ in 0..64 {
                eng.add_node(pp(None));
            }
            eng.run_for(Duration(8));
            eng.alive_nodes().map(|(_, p)| p.rounds).collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(999));
    }

    #[test]
    fn messages_to_removed_nodes_are_dropped() {
        let mut eng = Engine::new(cfg());
        let b = NodeIdx(1);
        let a = eng.add_node(pp(Some(b)));
        eng.add_node(pp(None));
        eng.remove_node(b);
        assert!(!eng.is_alive(b));
        eng.run_rounds(3);
        assert!(eng.stats().messages_to_dead > 0);
        assert_eq!(eng.node(a).unwrap().last_seen, 0);
    }

    #[test]
    fn rejoin_bumps_incarnation_and_restarts_ticks() {
        let mut eng = Engine::new(cfg());
        let b = NodeIdx(1);
        let a = eng.add_node(pp(Some(b)));
        eng.add_node(pp(Some(a)));
        eng.run_rounds(2);
        eng.remove_node(b);
        eng.run_rounds(2);
        eng.rejoin_node(b, pp(Some(a)));
        eng.run_rounds(3);
        assert!(eng.node(b).unwrap().rounds >= 2);
        assert_eq!(eng.alive_count(), 2);
    }

    #[test]
    #[should_panic(expected = "rejoin into alive slot")]
    fn rejoin_alive_slot_panics() {
        let mut eng = Engine::new(cfg());
        let a = eng.add_node(pp(None));
        eng.rejoin_node(a, pp(None));
    }

    #[test]
    fn timers_deliver_to_self() {
        struct T {
            fired: bool,
        }
        #[derive(Clone)]
        struct Tick;
        impl Protocol for T {
            type Msg = Tick;
            fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
                ctx.timer(Duration(5), Tick);
            }
            fn on_round(&mut self, _: &mut Context<'_, Tick>) {}
            fn on_message(&mut self, _: &mut Context<'_, Tick>, from: NodeIdx, _: Tick) {
                assert_eq!(from, NodeIdx(0));
                self.fired = true;
            }
        }
        let mut eng: Engine<T> = Engine::new(cfg());
        let a = eng.add_node(T { fired: false });
        eng.run_for(Duration(6));
        assert!(eng.node(a).unwrap().fired);
    }

    /// The queue holds one `Ev` per message in flight — the unit
    /// [`Engine::queue_bytes`] counts in: the engine may add the two
    /// endpoint slots to a message and nothing else (the variant tag must
    /// keep riding in the message's own niche or padding).
    #[test]
    fn an_event_is_its_message_plus_eight_bytes() {
        use std::mem::size_of;
        #[derive(Clone)]
        #[allow(dead_code)]
        enum Wire {
            Small(u32),
            Big([u64; 3]),
        }
        assert_eq!(size_of::<Wire>(), 32);
        assert_eq!(size_of::<Ev<Wire>>(), 40);
        assert_eq!(size_of::<Ev<PpMsg>>(), 16);
    }

    #[test]
    fn dispatch_to_a_dead_slot_is_a_no_op() {
        let mut eng = Engine::new(cfg());
        let a = eng.add_node(pp(None));
        eng.remove_node(a);
        let (stats, counters) = (eng.stats(), eng.perf_counters());
        // `remove_node` guards on aliveness itself, so go underneath it:
        // every kind of activation of the vacated slot must do nothing.
        eng.dispatch(a, DispatchKind::Start);
        eng.dispatch(a, DispatchKind::Round);
        eng.dispatch(
            a,
            DispatchKind::Message {
                from: a,
                msg: PpMsg::Ping(1),
            },
        );
        assert_eq!(eng.stats(), stats);
        assert_eq!(eng.perf_counters(), counters);
        assert!(eng.node(a).is_none() && !eng.is_alive(a));
        eng.run_for(Duration(4));
        assert_eq!(eng.stats().messages_sent, 0, "no effect escaped");
    }

    #[test]
    fn node_accessors_see_the_state_a_handler_left() {
        // The handler mutates the protocol where it lives in the slot, so
        // `node()` and `node_mut()` must observe every activation's writes,
        // and a write through `node_mut()` must be what the next handler
        // starts from.
        let mut eng = Engine::new(EngineConfig {
            desynchronize_rounds: false,
            ..cfg()
        });
        let a = eng.add_node(pp(None));
        eng.run_rounds(3);
        assert_eq!(eng.node(a).unwrap().rounds, 3);
        eng.node_mut(a).unwrap().rounds = 100;
        eng.inject(a, PpMsg::Pong(7));
        eng.run_rounds(2);
        let node = eng.node(a).unwrap();
        assert_eq!((node.rounds, node.last_seen), (102, 7));
    }

    #[test]
    fn handlers_run_on_the_node_in_its_slot() {
        // `dispatch` lends every handler the protocol where its slot holds
        // it. Moving the node out and back around the call would make each
        // activation cost a copy of the node's state, and would show here
        // as a handler running at an address other than its slot's.
        type Log = std::rc::Rc<std::cell::RefCell<Vec<(NodeIdx, usize)>>>;
        struct Where(Log);
        impl Where {
            fn note(&self, ctx: &Context<'_, ()>) {
                let addr = self as *const Where as usize;
                self.0.borrow_mut().push((ctx.self_idx, addr));
            }
        }
        impl Protocol for Where {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                self.note(ctx);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, ()>) {
                self.note(ctx);
                ctx.send(ctx.self_idx, ());
            }
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, _: NodeIdx, _: ()) {
                self.note(ctx);
            }
        }

        let log = Log::default();
        let mut eng = Engine::new(cfg());
        // `on_start` runs inside `add_node`: the slots must not move after.
        eng.reserve_nodes(3);
        let nodes: Vec<NodeIdx> = (0..3).map(|_| eng.add_node(Where(log.clone()))).collect();
        eng.run_rounds(4);
        let slot_addr = |eng: &Engine<Where>, idx| eng.node(idx).unwrap() as *const Where as usize;
        let slots: Vec<usize> = nodes.iter().map(|&i| slot_addr(&eng, i)).collect();
        eng.remove_node(nodes[1]);
        let log = log.borrow();
        // Per node: a start, rounds and their messages.
        assert!(log.len() > 3 * 3, "{} activations", log.len());
        for &(idx, addr) in log.iter() {
            assert_eq!(addr, slots[idx.index()], "{idx} ran away from its slot");
        }
    }

    /// What the look-ahead tests' nodes log, in the order it happens: a
    /// hint naming `(node, message id)`, or an activation of the same with
    /// the time it ran at. A `None` message is a round tick.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Seen {
        Hint(NodeIdx, Option<u64>),
        Run(NodeIdx, Option<u64>, SimTime),
    }
    type SeenLog = std::rc::Rc<std::cell::RefCell<Vec<Seen>>>;

    /// Each round sends `fanout` uniquely numbered messages to random
    /// slots, dead ones included; a message with an even number is answered.
    /// Logs its activations and its look-ahead hints.
    struct Chatter {
        me: NodeIdx,
        slots: u32,
        fanout: u32,
        sent: u64,
        log: SeenLog,
    }

    impl Chatter {
        fn send(&mut self, ctx: &mut Context<'_, u64>, to: NodeIdx) {
            self.sent += 1;
            ctx.send(to, u64::from(self.me.0) << 32 | self.sent);
        }
    }

    impl Protocol for Chatter {
        type Msg = u64;
        fn on_start(&mut self, _: &mut Context<'_, u64>) {}
        fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
            self.log
                .borrow_mut()
                .push(Seen::Run(self.me, None, ctx.now));
            for _ in 0..self.fanout {
                let to = NodeIdx(ctx.rng.gen_range(0..self.slots));
                self.send(ctx, to);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeIdx, id: u64) {
            self.log
                .borrow_mut()
                .push(Seen::Run(self.me, Some(id), ctx.now));
            if id.is_multiple_of(2) {
                self.send(ctx, from);
            }
        }
        fn prefetch(&self, msg: Option<&u64>) {
            self.log
                .borrow_mut()
                .push(Seen::Hint(self.me, msg.copied()));
        }
    }

    /// [`Chatter`] with the default, no-op hint.
    struct Plain(Chatter);

    impl Protocol for Plain {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            self.0.on_start(ctx);
        }
        fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
            self.0.on_round(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeIdx, id: u64) {
            self.0.on_message(ctx, from, id);
        }
    }

    /// `n` lockstep chatters for six rounds. With `churn`, after two rounds
    /// the last slot crashes for good (deliveries to a dead slot), and the
    /// one before it goes down and rejoins mid-period, so its old
    /// incarnation's tick goes stale. Ticks run in slot order, so both sit
    /// past `HINT_AHEAD` in their tick batches.
    fn lookahead_scenario<P: Protocol<Msg = u64>>(
        n: u32,
        fanout: u32,
        churn: bool,
        make: impl Fn(Chatter) -> P,
    ) -> Vec<Seen> {
        let log = SeenLog::default();
        let node = |i| {
            make(Chatter {
                me: NodeIdx(i),
                slots: n,
                fanout,
                sent: 0,
                log: log.clone(),
            })
        };
        let mut eng = Engine::new(EngineConfig {
            desynchronize_rounds: false,
            ..cfg()
        });
        for i in 0..n {
            eng.add_node(node(i));
        }
        eng.run_rounds(2);
        let (dead, rejoined) = (NodeIdx(n - 1), n - 2);
        if churn {
            eng.remove_node(dead);
            eng.remove_node(NodeIdx(rejoined));
            eng.run_for(Duration(5));
            eng.rejoin_node(NodeIdx(rejoined), node(rejoined));
        }
        eng.run_rounds(4);
        log.take()
    }

    /// `(nodes, fanout, churn)`: every batch shorter than both look-ahead
    /// distances; tick batches between the two; batches longer than both,
    /// without and with dead and stale destinations.
    const LOOKAHEAD_CASES: [(u32, u32, bool); 4] = [
        (HINT_AHEAD as u32 - 1, 1, false),
        ((HINT_AHEAD + SLOT_AHEAD) as u32 / 2, 1, false),
        (40, 3, false),
        (40, 3, true),
    ];

    #[test]
    fn lookahead_hints_name_later_activations_of_the_same_batch() {
        use std::collections::BTreeMap;
        for (n, fanout, churn) in LOOKAHEAD_CASES {
            let log = lookahead_scenario(n, fanout, churn, |c| c);
            let case = format!("{n} nodes, fanout {fanout}, churn {churn}");
            // Per batch time: (activations, hints naming one of them).
            let mut batches: BTreeMap<SimTime, (usize, usize)> = BTreeMap::new();
            let mut last_run = None;
            for (p, &seen) in log.iter().enumerate() {
                let target = match seen {
                    Seen::Run(.., t) => {
                        batches.entry(t).or_default().0 += 1;
                        continue;
                    }
                    Seen::Hint(node, msg) => (node, msg),
                };
                let q = p + log[p..]
                    .iter()
                    .position(|s| matches!(*s, Seen::Run(n, m, _) if (n, m) == target))
                    .unwrap_or_else(|| panic!("{case}: {seen:?} names no later activation"));
                let times: Vec<SimTime> = log[p..=q]
                    .iter()
                    .filter_map(|s| match *s {
                        Seen::Run(.., t) => Some(t),
                        Seen::Hint(..) => None,
                    })
                    .collect();
                assert!(
                    times.iter().all(|&t| t == times[0]),
                    "{case}: {seen:?} looks past its batch"
                );
                assert!(last_run < Some(q), "{case}: {seen:?} out of dispatch order");
                last_run = Some(q);
                batches.entry(times[0]).or_default().1 += 1;
            }
            // With every destination live, each batch hints all its
            // activations but the first `HINT_AHEAD`. With churn, skipped
            // events take some of those first places.
            let mut hints = 0;
            for (t, (runs, hinted)) in batches {
                hints += hinted;
                let unhinted = runs - hinted;
                if churn {
                    assert!(unhinted <= HINT_AHEAD, "{case}: at {t:?}");
                } else {
                    assert_eq!(unhinted, runs.min(HINT_AHEAD), "{case}: at {t:?}");
                }
            }
            assert_eq!(hints > 0, n > HINT_AHEAD as u32, "{case}: {hints} hints");
        }
    }

    #[test]
    fn lookahead_hints_leave_dispatch_unchanged() {
        let runs = |log: Vec<Seen>| -> Vec<Seen> {
            log.into_iter()
                .filter(|s| matches!(s, Seen::Run(..)))
                .collect()
        };
        for (n, fanout, churn) in LOOKAHEAD_CASES {
            let hinted = runs(lookahead_scenario(n, fanout, churn, |c| c));
            let plain = runs(lookahead_scenario(n, fanout, churn, Plain));
            assert!(hinted.len() > 6 * n as usize / 2);
            assert_eq!(hinted, plain, "{n} nodes, fanout {fanout}, churn {churn}");
        }
    }

    #[test]
    fn run_until_sets_clock_even_without_events() {
        let mut eng: Engine<PingPong> = Engine::new(cfg());
        eng.run_until(SimTime(1000));
        assert_eq!(eng.now(), SimTime(1000));
    }

    #[test]
    fn run_until_never_moves_the_clock_backwards() {
        let mut eng = Engine::new(cfg());
        let a = eng.add_node(pp(None));
        eng.run_until(SimTime(500));
        eng.run_until(SimTime(100));
        assert_eq!(eng.now(), SimTime(500));
        // An injection is due one tick from *now*; with the clock rewound it
        // would land under the scheduler's floor.
        eng.inject(a, PpMsg::Pong(9));
        eng.run_until(SimTime(501));
        assert_eq!(eng.node(a).unwrap().last_seen, 9);
        assert_eq!(eng.now(), SimTime(501));
    }

    #[test]
    fn kind_traffic_follows_classify() {
        use crate::trace::{MsgTag, TrafficClass};
        struct Tagged {
            peer: Option<NodeIdx>,
        }
        impl Protocol for Tagged {
            type Msg = PpMsg;
            fn on_start(&mut self, _: &mut Context<'_, PpMsg>) {}
            fn on_round(&mut self, ctx: &mut Context<'_, PpMsg>) {
                if let Some(p) = self.peer {
                    ctx.send(p, PpMsg::Ping(0));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, PpMsg>, from: NodeIdx, msg: PpMsg) {
                if let PpMsg::Ping(k) = msg {
                    ctx.send(from, PpMsg::Pong(k));
                }
            }
            fn classify(msg: &PpMsg) -> MsgTag {
                match msg {
                    PpMsg::Ping(_) => MsgTag::control("ping"),
                    PpMsg::Pong(_) => MsgTag::data("pong"),
                }
            }
        }
        let mut eng: Engine<Tagged> = Engine::new(cfg());
        let b = NodeIdx(1);
        eng.add_node(Tagged { peer: Some(b) });
        eng.add_node(Tagged { peer: None });
        eng.run_rounds(4);
        let kinds = eng.kind_traffic();
        let ping = kinds.iter().find(|k| k.kind == "ping").expect("pings");
        let pong = kinds.iter().find(|k| k.kind == "pong").expect("pongs");
        assert_eq!(ping.class, TrafficClass::Control);
        assert_eq!(pong.class, TrafficClass::Data);
        assert!(ping.sent >= 3);
        assert_eq!(ping.sent, pong.sent, "each ping triggers one pong");
        let total: u64 = kinds.iter().map(|k| k.sent).sum();
        assert_eq!(total, eng.stats().messages_sent);
        let (control, data) = eng.sent_by_class();
        assert_eq!(control, ping.sent);
        assert_eq!(data, pong.sent);
        eng.reset_kind_traffic();
        assert!(eng
            .kind_traffic()
            .iter()
            .all(|k| k.sent == 0 && k.delivered == 0));
    }

    #[test]
    fn trace_records_lifecycle_and_messages() {
        use crate::trace::{Trace, TraceEvent};
        let mut eng = Engine::new(cfg());
        let trace = Trace::shared(4096);
        eng.set_trace(trace.clone());
        let b = NodeIdx(1);
        let a = eng.add_node(pp(Some(b)));
        eng.add_node(pp(Some(a)));
        eng.run_rounds(3);
        eng.remove_node(b);
        eng.rejoin_node(b, pp(None));
        let t = trace.borrow();
        let mut joins = 0;
        let mut rejoins = 0;
        let mut leaves = 0;
        let mut sends = 0;
        let mut delivers = 0;
        for ev in t.events() {
            match ev {
                TraceEvent::Join { rejoin: false, .. } => joins += 1,
                TraceEvent::Join { rejoin: true, .. } => rejoins += 1,
                TraceEvent::Leave { .. } => leaves += 1,
                TraceEvent::MsgSend { .. } => sends += 1,
                TraceEvent::MsgDeliver { .. } => delivers += 1,
                _ => {}
            }
        }
        assert_eq!(joins, 2);
        assert_eq!(rejoins, 1);
        assert_eq!(leaves, 1);
        assert!(sends > 0);
        assert!(delivers > 0 && delivers <= sends);
    }

    #[test]
    fn trace_message_recording_can_be_disabled() {
        use crate::trace::{Trace, TraceEvent};
        let mut eng = Engine::new(cfg());
        let trace = Trace::shared(4096);
        trace.borrow_mut().set_record_messages(false);
        eng.set_trace(trace.clone());
        let b = NodeIdx(1);
        eng.add_node(pp(Some(b)));
        eng.add_node(pp(None));
        eng.run_rounds(3);
        let t = trace.borrow();
        assert!(t.events().all(|e| !matches!(
            e,
            TraceEvent::MsgSend { .. } | TraceEvent::MsgDeliver { .. }
        )));
        assert!(t.events().any(|e| matches!(e, TraceEvent::Join { .. })));
    }

    #[test]
    fn perf_counters_match_hand_computed_values() {
        // Lockstep mode so round counts are exact: two nodes, node 0
        // pings node 1 every round, node 1 pongs back.
        let mut eng = Engine::new(EngineConfig {
            seed: 1,
            round_period: Duration(16),
            desynchronize_rounds: false,
        });
        let b = NodeIdx(1);
        eng.add_node(pp(Some(b)));
        eng.add_node(pp(None));
        // 2 starts so far; no rounds, no messages.
        let c = eng.perf_counters();
        assert_eq!(c.activations_start, 2);
        assert_eq!(c.activations_round, 0);
        assert_eq!(c.activations_message, 0);
        // Both round ticks are pending: high-water mark is 2.
        assert_eq!(c.queue_hwm, 2);

        eng.run_rounds(4);
        let c = eng.perf_counters();
        // 4 rounds × 2 nodes. Messages travel one tick, so the 4th
        // round's ping (and its pong) are still in flight when the clock
        // stops: 3 pings + 3 pongs delivered.
        assert_eq!(c.activations_round, 8);
        assert_eq!(c.activations_message, eng.stats().messages_delivered);
        assert_eq!(c.activations_message, 6);
        assert_eq!(c.activations_stop, 0);
        assert_eq!(c.total_activations(), 2 + 8 + 6);
        // Two ticks plus at most one in-flight ping and one pong.
        assert!(c.queue_hwm >= 3 && c.queue_hwm <= 4, "hwm {}", c.queue_hwm);

        eng.remove_node(b);
        assert_eq!(eng.perf_counters().activations_stop, 1);
    }

    #[test]
    fn perf_counters_are_deterministic() {
        let run = || {
            let mut eng = Engine::new(cfg());
            let b = NodeIdx(1);
            let a = eng.add_node(pp(Some(b)));
            eng.add_node(pp(Some(a)));
            eng.run_rounds(10);
            eng.perf_counters()
        };
        assert_eq!(run(), run());
    }

    /// Latency drawn uniformly from 1..=5 ticks on the engine's stream: a
    /// variable-latency network, which no system run uses, so the
    /// scenario below still reorders deliveries.
    struct Jitter;

    impl NetworkModel for Jitter {
        fn latency(
            &self,
            _: SimTime,
            _: NodeIdx,
            _: NodeIdx,
            rng: &mut SmallRng,
        ) -> Option<Duration> {
            Some(Duration(rng.gen_range(1..=5)))
        }
    }

    /// Crash the busiest receiver and rejoin it later, and crash and rejoin
    /// another node on one tick, under a jittered network with a trace
    /// installed; returns every observable output: stats, perf counters,
    /// per-node protocol state and the trace's JSONL.
    fn crash_rejoin_scenario() -> (
        EngineStats,
        crate::perf::EngineCounters,
        Vec<(u32, u32)>,
        String,
    ) {
        use crate::trace::Trace;
        let mut eng = Engine::with_network(cfg(), Jitter);
        let trace = Trace::shared(1 << 14);
        eng.set_trace(trace.clone());
        let a = eng.add_node(pp(Some(NodeIdx(1))));
        let b = eng.add_node(pp(Some(a)));
        let c = eng.add_node(pp(Some(a)));
        for _ in 0..3 {
            eng.add_node(pp(Some(a)));
        }
        for i in 0..12 {
            eng.run_for(Duration(16));
            // Crash and rejoin `c` on one tick: its old incarnation's
            // pending tick goes stale. Crash the busiest receiver (to-dead
            // deliveries) and rejoin it two periods later.
            if i == 3 {
                eng.remove_node(c);
                eng.rejoin_node(c, pp(Some(a)));
            }
            if i == 6 {
                eng.remove_node(b);
            }
            if i == 8 {
                eng.rejoin_node(b, pp(Some(a)));
            }
        }
        let states = eng
            .alive_nodes()
            .map(|(_, p)| (p.rounds, p.last_seen))
            .collect();
        let jsonl = trace.borrow().to_jsonl();
        (eng.stats(), eng.perf_counters(), states, jsonl)
    }

    #[test]
    fn crash_rejoin_scenario_is_deterministic_and_reaches_every_arm() {
        let x = crash_rejoin_scenario();
        let y = crash_rejoin_scenario();
        assert_eq!(x.0, y.0, "engine stats diverged");
        assert_eq!(x.1, y.1, "perf counters diverged");
        assert_eq!(x.2, y.2, "node states diverged");
        assert_eq!(x.3, y.3, "trace streams diverged");
        // The scenario must actually exercise the tricky arms.
        assert!(x.0.messages_to_dead > 0, "no to-dead deliveries");
        // `c` rejoined with 8 periods to go and ticks once per period; a
        // stale tick of its old incarnation that ran would add rounds.
        assert_eq!(x.2[2].0, 8, "a stale tick reached the new incarnation");
    }

    #[test]
    fn long_period_ticks_overflow_and_fire_once_per_period() {
        // A round period longer than the calendar ring (1024 ticks) makes
        // every tick reschedule land in the overflow list; each node must
        // still run exactly one round per period.
        let mut eng = Engine::new(EngineConfig {
            seed: 3,
            round_period: Duration(1500),
            desynchronize_rounds: false,
        });
        let a = eng.add_node(pp(None));
        let b = eng.add_node(pp(None));
        eng.run_for(Duration(1500 * 4));
        assert_eq!(eng.node(a).unwrap().rounds, 4);
        assert_eq!(eng.node(b).unwrap().rounds, 4);
        assert!(
            eng.perf_counters().sched_overflow > 0,
            "long-period ticks must exercise the overflow path"
        );
    }

    /// The online counter is kept in step by `add_node`, `rejoin_node` and
    /// `remove_node`; whatever order they come in, with no-op removals and
    /// rounds between them, it must equal a slot scan.
    #[test]
    fn alive_count_matches_a_slot_scan_under_random_lifecycles() {
        use rand::SeedableRng;
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut eng = Engine::new(cfg());
            for step in 0..400 {
                let idx = NodeIdx(rng.gen_range(0..eng.num_slots().max(1) as u32));
                match rng.gen_range(0..3) {
                    0 => {
                        eng.add_node(pp(Some(NodeIdx(0))));
                    }
                    1 if idx.index() < eng.num_slots() && !eng.is_alive(idx) => {
                        eng.rejoin_node(idx, pp(Some(NodeIdx(0))));
                    }
                    _ => eng.remove_node(idx),
                }
                if step % 40 == 0 {
                    eng.run_for(Duration(5));
                }
                let scan = eng.alive_nodes().count();
                assert_eq!(eng.alive_count(), scan, "seed {seed}, step {step}");
            }
        }
    }

    #[test]
    fn alive_iteration_skips_dead_slots() {
        let mut eng = Engine::new(cfg());
        let a = eng.add_node(pp(None));
        let b = eng.add_node(pp(None));
        let c = eng.add_node(pp(None));
        eng.remove_node(b);
        let alive: Vec<NodeIdx> = eng.alive_nodes().map(|(i, _)| i).collect();
        assert_eq!(alive, vec![a, c]);
        assert_eq!(eng.alive_count(), 2);
        assert_eq!(eng.num_slots(), 3);
    }
}
