//! The protocol interface: what a node implementation must provide and what
//! it may ask the engine to do.
//!
//! A protocol is a per-node state machine driven by three kinds of input:
//! its start, periodic round ticks (the gossip heartbeat) and incoming
//! messages. A node goes down one way, as a crash: the engine drops it
//! without running a handler. All outputs go through [`Context`], which buffers
//! *effects* (sends, timers) that the engine applies after the handler
//! returns — this keeps handlers pure with respect to the rest of the
//! network and makes runs reproducible.

use crate::event::NodeIdx;
use crate::time::{Duration, SimTime};
use crate::trace::MsgTag;
use rand::rngs::SmallRng;

/// A per-node protocol implementation.
///
/// The engine owns one value of this type per alive node. Handlers receive a
/// [`Context`] carrying the node's identity, the simulated clock, the node's
/// private RNG stream and the effect buffer.
pub trait Protocol: Sized {
    /// The message type exchanged between nodes of this protocol.
    type Msg: Clone;

    /// Called once when the node is started (joined). Typical use: contact
    /// bootstrap nodes, initialize views.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called on every periodic round tick (period set per-node at join).
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeIdx, msg: Self::Msg);

    /// Classify a message for traffic accounting and tracing: a stable
    /// kind name plus its control/data plane. An associated function (no
    /// `&self`) so the engine can tag messages without touching node
    /// state. The default lumps everything under one control-plane kind;
    /// protocols override it to get the per-kind breakdown surfaced in
    /// the engine's traffic ledger and trace output.
    fn classify(_msg: &Self::Msg) -> MsgTag {
        MsgTag::control("msg")
    }

    /// The published-event id a data-plane message carries, if any. Like
    /// [`Protocol::classify`], an associated function used by the engine —
    /// here to attribute messages the network drops in transit to the
    /// event they carried, feeding `net_drop` trace records and
    /// network-loss attribution. The default says "no event"; protocols
    /// whose messages carry event notifications should override.
    fn event_of(_msg: &Self::Msg) -> Option<u64> {
        None
    }

    /// A look-ahead hint: this node will be activated a few events from now
    /// in the current batch, by `msg` (`None` for a round tick). An
    /// implementation may issue [`crate::perf::prefetch`] for the memory
    /// that activation's handler will search first, so the miss overlaps
    /// the handlers still to run before it. It is a hint: the engine calls
    /// it only for a node it is about to activate, but may skip it. It must
    /// be cheap, a handful of prefetches, and read only: it takes `&self`
    /// and no context or RNG, so it cannot change a run's results. The
    /// default does nothing.
    fn prefetch(&self, _msg: Option<&Self::Msg>) {}
}

/// An output requested by a protocol handler, applied by the engine after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    /// Send `msg` to `to` through the network model.
    Send { to: NodeIdx, msg: M },
    /// Fire `on_message` on *this* node after `delay` with `msg` (a
    /// self-timer carrying its payload; `from` will be the node itself).
    TimerMsg { delay: Duration, msg: M },
}

/// Handler-side view of the engine: identity, clock, RNG and effect buffer.
pub struct Context<'a, M> {
    /// The node this handler runs on.
    pub self_idx: NodeIdx,
    /// Current simulated time.
    pub now: SimTime,
    /// The node's private, deterministic RNG stream.
    pub rng: &'a mut SmallRng,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(
        self_idx: NodeIdx,
        now: SimTime,
        rng: &'a mut SmallRng,
        effects: &'a mut Vec<Effect<M>>,
    ) -> Self {
        Context {
            self_idx,
            now,
            rng,
            effects,
        }
    }

    /// Send `msg` to node `to`. Delivery latency and loss follow the engine's
    /// network model. Sending to a dead or never-existing slot silently drops
    /// the message at delivery time, exactly like a datagram to a gone peer.
    pub fn send(&mut self, to: NodeIdx, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Deliver `msg` back to this node after `delay` ticks (self-timer with
    /// payload). `on_message` will be invoked with `from == self_idx`.
    pub fn timer(&mut self, delay: Duration, msg: M) {
        self.effects.push(Effect::TimerMsg { delay, msg });
    }
}

/// Run `handler` on a context outside any engine — node `self_idx` at
/// `now`, drawing from `rng` — and return the sends it made, in order;
/// self-timers are dropped. For unit tests of code that takes a
/// [`Context`], without an engine around it.
pub fn capture_sends<M>(
    self_idx: NodeIdx,
    now: SimTime,
    rng: &mut SmallRng,
    handler: impl FnOnce(&mut Context<'_, M>),
) -> Vec<(NodeIdx, M)> {
    let mut effects = Vec::new();
    handler(&mut Context::new(self_idx, now, rng, &mut effects));
    effects
        .into_iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg } => Some((to, msg)),
            Effect::TimerMsg { .. } => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_buffers_effects_in_order() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut effects: Vec<Effect<u32>> = Vec::new();
        let mut ctx = Context::new(NodeIdx(3), SimTime(10), &mut rng, &mut effects);
        ctx.send(NodeIdx(1), 100);
        ctx.timer(Duration(5), 200);
        ctx.send(NodeIdx(2), 300);
        assert_eq!(effects.len(), 3);
        match &effects[0] {
            Effect::Send { to, msg } => {
                assert_eq!(*to, NodeIdx(1));
                assert_eq!(*msg, 100);
            }
            _ => panic!("expected send"),
        }
        match &effects[1] {
            Effect::TimerMsg { delay, msg } => {
                assert_eq!(*delay, Duration(5));
                assert_eq!(*msg, 200);
            }
            _ => panic!("expected timer"),
        }
    }

    #[test]
    fn captured_sends_keep_their_order_and_drop_timers() {
        let mut rng = SmallRng::seed_from_u64(1);
        let sends = capture_sends(NodeIdx(3), SimTime(10), &mut rng, |ctx| {
            assert_eq!((ctx.self_idx, ctx.now), (NodeIdx(3), SimTime(10)));
            ctx.send(NodeIdx(1), 100);
            ctx.timer(Duration(5), 200);
            ctx.send(NodeIdx(2), 300);
        });
        assert_eq!(sends, [(NodeIdx(1), 100), (NodeIdx(2), 300)]);
    }
}
