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
use crate::protocol::{Context, Effect, Protocol, StopReason};
use crate::rng;
use crate::time::{Duration, SimTime};
use crate::trace::{KindTraffic, TraceEvent, TraceHandle, TrafficLedger};
use rand::rngs::SmallRng;
use rand::Rng;

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
    /// Frozen: alive but silent (fault injection). A frozen node executes
    /// no rounds and receives nothing; its pending ticks keep rescheduling
    /// so it resumes when thawed.
    frozen: bool,
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
    /// Messages suppressed because the destination was frozen.
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
    /// Slots holding a node (frozen ones included), kept in step with
    /// every `proto` write so counting the online population is O(1).
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
    /// dropped or freeze suppressed since the last traffic-window reset
    /// (see [`Protocol::event_of`]). Feeds network-loss attribution.
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
    /// to the network (or freeze suppression) since the last window reset.
    /// Ordered by drop time; a pair may repeat if several copies addressed
    /// to the same node were dropped.
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
    /// Deterministic — unlike wall-clock spans, these are safe to embed in
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
        use std::mem::size_of;
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

    /// Number of currently alive nodes, frozen ones included.
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
        self.push_event(
            self.now + Duration(1),
            Ev::Deliver {
                to,
                from: to,
                msg,
            },
        );
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
            frozen: false,
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
        slot.frozen = false;
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

    /// Freeze or thaw the node in `idx` (fault injection: alive but
    /// silent). While frozen the node executes no rounds and receives no
    /// messages — inbound deliveries are suppressed and counted, and its
    /// round ticks keep rescheduling so it resumes where it left off when
    /// thawed. No-op on dead or out-of-range slots (the flag clears on
    /// rejoin anyway).
    pub fn set_frozen(&mut self, idx: NodeIdx, frozen: bool) {
        if let Some(slot) = self.slots.get_mut(idx.index()) {
            if slot.proto.is_some() {
                slot.frozen = frozen;
            }
        }
    }

    /// Whether the node in `idx` is alive and currently frozen.
    pub fn is_frozen(&self, idx: NodeIdx) -> bool {
        self.slots
            .get(idx.index())
            .is_some_and(|s| s.proto.is_some() && s.frozen)
    }

    /// Stop the node in `idx`. With [`StopReason::Leave`] the protocol's
    /// `on_stop` effects (goodbye messages) are applied; with
    /// [`StopReason::Crash`] they are discarded.
    pub fn remove_node(&mut self, idx: NodeIdx, reason: StopReason) {
        if !self.is_alive(idx) {
            return;
        }
        self.trace_record(TraceEvent::Leave {
            now: self.now.0,
            node: idx.0,
            crash: reason == StopReason::Crash,
        });
        self.dispatch(idx, DispatchKind::Stop(reason));
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
    pub fn run_until(&mut self, t: SimTime) {
        let _span = crate::perf::span("engine.run_until");
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let (time, batch) = self.queue.pop_batch().expect("peeked event vanished");
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            self.pending_virtual = batch.len() as u64;
            for ev in batch {
                self.pending_virtual -= 1;
                self.handle_event(ev);
            }
        }
        self.now = self.now.max(t);
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
                if alive && self.slots[to.index()].frozen {
                    // Frozen destination: the message is lost as if the
                    // node's link went dark (alive but silent).
                    self.stats.messages_suppressed += 1;
                    self.record_net_drop(from, to, &msg);
                } else if alive {
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
                    if !self.slots[node.index()].frozen {
                        self.stats.rounds_executed += 1;
                        self.dispatch(node, DispatchKind::Round);
                    }
                    // Frozen nodes skip the round but keep the tick chain
                    // alive so they resume when thawed.
                    self.push_event(
                        self.now + self.cfg.round_period,
                        Ev::RoundTick { node, incarnation },
                    );
                }
            }
        }
    }

    /// Account for a message lost in transit (network drop or freeze
    /// suppression): remember its event id for loss attribution and emit a
    /// `net_drop` trace record.
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
            DispatchKind::Stop(_) => self.counters.activations_stop += 1,
        }
        let discard_effects = matches!(kind, DispatchKind::Stop(StopReason::Crash));
        let mut effects = std::mem::take(&mut self.effects_buf);
        effects.clear();
        let mut ctx = Context::new(idx, self.now, &mut slot.rng, &mut effects);
        match kind {
            DispatchKind::Start => proto.on_start(&mut ctx),
            DispatchKind::Round => proto.on_round(&mut ctx),
            DispatchKind::Message { from, msg } => proto.on_message(&mut ctx, from, msg),
            DispatchKind::Stop(reason) => proto.on_stop(&mut ctx, reason),
        }
        if discard_effects {
            effects.clear();
        } else {
            self.apply_effects(idx, &mut effects);
        }
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
                    if let Some(lat) =
                        self.network.latency(self.now, idx, to, &mut self.engine_rng)
                    {
                        self.push_event(
                            self.now + lat,
                            Ev::Deliver {
                                to,
                                from: idx,
                                msg,
                            },
                        );
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
    Stop(StopReason),
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
            eng.alive_nodes()
                .map(|(_, p)| p.rounds)
                .collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(999));
    }

    #[test]
    fn messages_to_removed_nodes_are_dropped() {
        let mut eng = Engine::new(cfg());
        let b = NodeIdx(1);
        let a = eng.add_node(pp(Some(b)));
        eng.add_node(pp(None));
        eng.remove_node(b, StopReason::Crash);
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
        eng.remove_node(b, StopReason::Leave);
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

    #[test]
    fn crash_discards_on_stop_effects() {
        struct Goodbye {
            peer: Option<NodeIdx>,
            got: u32,
        }
        #[derive(Clone)]
        struct Bye;
        impl Protocol for Goodbye {
            type Msg = Bye;
            fn on_start(&mut self, _: &mut Context<'_, Bye>) {}
            fn on_round(&mut self, _: &mut Context<'_, Bye>) {}
            fn on_message(&mut self, _: &mut Context<'_, Bye>, _: NodeIdx, _: Bye) {
                self.got += 1;
            }
            fn on_stop(&mut self, ctx: &mut Context<'_, Bye>, _: StopReason) {
                if let Some(p) = self.peer {
                    ctx.send(p, Bye);
                }
            }
        }
        let mut eng: Engine<Goodbye> = Engine::new(cfg());
        let a = eng.add_node(Goodbye { peer: None, got: 0 });
        let b = eng.add_node(Goodbye {
            peer: Some(a),
            got: 0,
        });
        let c = eng.add_node(Goodbye {
            peer: Some(a),
            got: 0,
        });
        eng.remove_node(b, StopReason::Crash);
        eng.remove_node(c, StopReason::Leave);
        eng.run_for(Duration(4));
        // Only the graceful leaver's goodbye arrives.
        assert_eq!(eng.node(a).unwrap().got, 1);
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
        eng.remove_node(a, StopReason::Crash);
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
        eng.dispatch(a, DispatchKind::Stop(StopReason::Leave));
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
        assert!(eng.kind_traffic().iter().all(|k| k.sent == 0 && k.delivered == 0));
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
        eng.remove_node(b, StopReason::Crash);
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
                TraceEvent::Leave { crash, .. } => {
                    assert!(crash);
                    leaves += 1;
                }
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
        assert!(t
            .events()
            .all(|e| !matches!(e, TraceEvent::MsgSend { .. } | TraceEvent::MsgDeliver { .. })));
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

        eng.remove_node(b, StopReason::Leave);
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

    /// Freeze the busiest receiver, crash it, rejoin it, under a jittered
    /// network with a trace installed; returns every observable output:
    /// stats, perf counters, per-node protocol state and the trace's JSONL.
    fn freeze_crash_rejoin_scenario(
    ) -> (EngineStats, crate::perf::EngineCounters, Vec<(u32, u32)>, String) {
        use crate::network::UniformLatency;
        use crate::trace::Trace;
        let mut eng = Engine::with_network(cfg(), UniformLatency { min: 1, max: 5 });
        let trace = Trace::shared(1 << 14);
        eng.set_trace(trace.clone());
        let a = eng.add_node(pp(Some(NodeIdx(1))));
        let b = eng.add_node(pp(Some(a)));
        for _ in 0..4 {
            eng.add_node(pp(Some(a)));
        }
        for i in 0..12 {
            eng.run_for(Duration(16));
            // Freeze the busiest receiver (suppressed deliveries + frozen
            // ticks), crash it (to-dead + stale ticks), then rejoin it.
            if i == 3 {
                eng.set_frozen(b, true);
            }
            if i == 6 {
                eng.set_frozen(b, false);
                eng.remove_node(b, StopReason::Crash);
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
    fn freeze_crash_rejoin_scenario_is_deterministic_and_reaches_every_arm() {
        let x = freeze_crash_rejoin_scenario();
        let y = freeze_crash_rejoin_scenario();
        assert_eq!(x.0, y.0, "engine stats diverged");
        assert_eq!(x.1, y.1, "perf counters diverged");
        assert_eq!(x.2, y.2, "node states diverged");
        assert_eq!(x.3, y.3, "trace streams diverged");
        // The scenario must actually exercise the tricky arms.
        assert!(x.0.messages_suppressed > 0, "no suppressed deliveries");
        assert!(x.0.messages_to_dead > 0, "no to-dead deliveries");
    }

    #[test]
    fn frozen_ticks_survive_far_future_rescheduling() {
        // A round period longer than the calendar ring (1024 ticks) makes
        // every tick reschedule — including a frozen node's keep-alive
        // tick — land in the overflow list; the freeze flag must still
        // suppress rounds and thawing must resume them.
        let mut eng = Engine::new(EngineConfig {
            seed: 3,
            round_period: Duration(1500),
            desynchronize_rounds: false,
        });
        let a = eng.add_node(pp(None));
        let b = eng.add_node(pp(None));
        eng.set_frozen(b, true);
        eng.run_for(Duration(1500 * 4));
        assert_eq!(eng.node(a).unwrap().rounds, 4);
        assert_eq!(eng.node(b).unwrap().rounds, 0);
        assert!(
            eng.perf_counters().sched_overflow > 0,
            "long-period ticks must exercise the overflow path"
        );
        eng.set_frozen(b, false);
        eng.run_for(Duration(1500 * 2));
        assert_eq!(eng.node(b).unwrap().rounds, 2, "thawed node resumes ticking");
    }

    /// The online counter is kept in step by `add_node`, `rejoin_node` and
    /// `remove_node`; whatever order they come in, with freezes, no-op
    /// removals and rounds between them, it must equal a slot scan.
    #[test]
    fn alive_count_matches_a_slot_scan_under_random_lifecycles() {
        use rand::SeedableRng;
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut eng = Engine::new(cfg());
            let mut frozen = 0;
            for step in 0..400 {
                let idx = NodeIdx(rng.gen_range(0..eng.num_slots().max(1) as u32));
                match rng.gen_range(0..4) {
                    0 => {
                        eng.add_node(pp(Some(NodeIdx(0))));
                    }
                    1 if idx.index() < eng.num_slots() && !eng.is_alive(idx) => {
                        eng.rejoin_node(idx, pp(Some(NodeIdx(0))));
                    }
                    2 => {
                        let reason = if rng.gen_bool(0.5) {
                            StopReason::Crash
                        } else {
                            StopReason::Leave
                        };
                        eng.remove_node(idx, reason);
                    }
                    _ => {
                        eng.set_frozen(idx, rng.gen_bool(0.5));
                        frozen += usize::from(eng.is_frozen(idx));
                    }
                }
                if step % 40 == 0 {
                    eng.run_for(Duration(5));
                }
                let scan = eng.alive_nodes().count();
                assert_eq!(eng.alive_count(), scan, "seed {seed}, step {step}");
            }
            assert!(frozen > 0, "seed {seed}: no step froze a node");
        }
    }

    #[test]
    fn alive_iteration_skips_dead_slots() {
        let mut eng = Engine::new(cfg());
        let a = eng.add_node(pp(None));
        let b = eng.add_node(pp(None));
        let c = eng.add_node(pp(None));
        eng.remove_node(b, StopReason::Leave);
        let alive: Vec<NodeIdx> = eng.alive_nodes().map(|(i, _)| i).collect();
        assert_eq!(alive, vec![a, c]);
        assert_eq!(eng.alive_count(), 2);
        assert_eq!(eng.num_slots(), 3);
    }
}
