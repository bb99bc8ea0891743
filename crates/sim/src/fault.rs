//! Deterministic fault injection: scheduled network and node failures.
//!
//! A [`FaultPlan`] is a validated, time-sorted schedule of *episodes*. Two
//! mechanisms apply it:
//!
//! * [`FaultedNetwork`] wraps any [`NetworkModel`] and applies the
//!   **transit** episodes — [`FaultEpisode::Partition`],
//!   [`FaultEpisode::LossBurst`] and [`FaultEpisode::LatencySpike`] — per
//!   message, keyed on the send-time clock the engine threads into every
//!   latency call.
//! * [`FaultDriver`] applies the **node** episodes —
//!   [`FaultEpisode::CorrelatedCrash`] and [`FaultEpisode::Freeze`] — at
//!   each action's exact timestamp: its owner steps the engine to
//!   [`FaultDriver::next_time`] and calls [`FaultDriver::apply_due`].
//!
//! Determinism: an empty plan consumes no randomness and delegates every
//! call unchanged, so a faulted run with no episodes is bit-identical to an
//! unfaulted one. Active loss bursts draw exactly one RNG value per
//! in-scope message; partitions and latency spikes consume none.

use crate::engine::Engine;
use crate::event::NodeIdx;
use crate::network::NetworkModel;
use crate::protocol::{Protocol, StopReason};
use crate::time::{Duration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// A half-open interval of simulated time: active for `start <= t < end`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// First tick the episode is active.
    pub start: SimTime,
    /// First tick the episode is no longer active.
    pub end: SimTime,
}

impl Span {
    /// Construct from raw tick bounds.
    pub const fn new(start: u64, end: u64) -> Self {
        Span {
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    /// Whether `t` falls inside the span.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Which messages a loss burst affects.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LossScope {
    /// Every message in the network.
    All,
    /// Messages whose sender *or* receiver is one of these slots.
    Nodes(Vec<u32>),
}

/// One scheduled fault. Node lists refer to engine slots
/// (`NodeIdx.0`); they are sorted and deduplicated during plan validation.
#[derive(Clone, PartialEq, Debug)]
pub enum FaultEpisode {
    /// Network partition: while active, messages crossing group boundaries
    /// are dropped. Slots not listed in any group form one implicit "rest"
    /// group — so a single group isolates it from everyone else.
    Partition {
        /// Disjoint groups of slots that can only talk internally.
        groups: Vec<Vec<u32>>,
        /// When the partition holds.
        span: Span,
    },
    /// While active, each in-scope message is independently dropped with
    /// probability `prob` (on top of whatever the inner model drops).
    LossBurst {
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
        /// When the burst is active.
        span: Span,
        /// Which messages it affects.
        scope: LossScope,
    },
    /// While active, every delivered message's latency is multiplied by
    /// `factor` (ceiling-rounded to whole ticks).
    LatencySpike {
        /// Multiplier, `>= 1`.
        factor: f64,
        /// When the spike is active.
        span: Span,
    },
    /// The listed nodes are alive but completely silent while active: they
    /// execute no rounds and all messages to them are suppressed. They
    /// resume (same state, same slot) at `span.end`.
    Freeze {
        /// Slots to freeze.
        nodes: Vec<u32>,
        /// When they are frozen.
        span: Span,
    },
    /// The listed nodes crash simultaneously at `at` (no goodbye protocol).
    /// Idempotent against churn: a node already offline is skipped.
    CorrelatedCrash {
        /// Slots to crash.
        nodes: Vec<u32>,
        /// When they crash.
        at: SimTime,
    },
}

impl FaultEpisode {
    /// When the episode starts taking effect.
    pub fn start(&self) -> SimTime {
        match self {
            FaultEpisode::Partition { span, .. }
            | FaultEpisode::LossBurst { span, .. }
            | FaultEpisode::LatencySpike { span, .. }
            | FaultEpisode::Freeze { span, .. } => span.start,
            FaultEpisode::CorrelatedCrash { at, .. } => *at,
        }
    }

    /// When the episode's last effect ends (crashes are instantaneous).
    pub fn end(&self) -> SimTime {
        match self {
            FaultEpisode::Partition { span, .. }
            | FaultEpisode::LossBurst { span, .. }
            | FaultEpisode::LatencySpike { span, .. }
            | FaultEpisode::Freeze { span, .. } => span.end,
            FaultEpisode::CorrelatedCrash { at, .. } => *at,
        }
    }
}

/// Validation errors for a [`FaultPlan`]; the index is the episode's
/// position in the input vector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPlanError {
    /// A span with `start >= end`.
    EmptySpan(usize),
    /// A loss probability outside `[0, 1]`.
    InvalidProb(usize),
    /// A latency factor below 1 or non-finite.
    InvalidFactor(usize),
    /// An episode with an empty node list (or a partition with an empty
    /// group or no groups).
    NoNodes(usize),
    /// A partition listing the same slot in two groups.
    OverlappingGroups(usize),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::EmptySpan(i) => write!(f, "episode {i}: span start >= end"),
            FaultPlanError::InvalidProb(i) => write!(f, "episode {i}: prob outside [0, 1]"),
            FaultPlanError::InvalidFactor(i) => {
                write!(f, "episode {i}: latency factor must be finite and >= 1")
            }
            FaultPlanError::NoNodes(i) => write!(f, "episode {i}: empty node list or group"),
            FaultPlanError::OverlappingGroups(i) => {
                write!(f, "episode {i}: partition groups overlap")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A validated fault schedule, sorted by episode start time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    episodes: Vec<FaultEpisode>,
}

impl TryFrom<Vec<FaultEpisode>> for FaultPlan {
    type Error = FaultPlanError;
    fn try_from(episodes: Vec<FaultEpisode>) -> Result<Self, FaultPlanError> {
        FaultPlan::new(episodes)
    }
}

impl From<FaultPlan> for Vec<FaultEpisode> {
    fn from(plan: FaultPlan) -> Self {
        plan.episodes
    }
}

impl FaultPlan {
    /// A plan with no episodes (the fault-free identity).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Validate and normalize a schedule: node lists are sorted and
    /// deduplicated, episodes sorted by start time (stable, so same-start
    /// episodes keep their given order).
    pub fn new(mut episodes: Vec<FaultEpisode>) -> Result<Self, FaultPlanError> {
        for (i, ep) in episodes.iter_mut().enumerate() {
            match ep {
                FaultEpisode::Partition { groups, span } => {
                    if span.start >= span.end {
                        return Err(FaultPlanError::EmptySpan(i));
                    }
                    if groups.is_empty() || groups.iter().any(|g| g.is_empty()) {
                        return Err(FaultPlanError::NoNodes(i));
                    }
                    let mut total = 0usize;
                    let mut all: Vec<u32> = Vec::new();
                    for g in groups.iter_mut() {
                        g.sort_unstable();
                        g.dedup();
                        total += g.len();
                        all.extend_from_slice(g);
                    }
                    all.sort_unstable();
                    all.dedup();
                    if all.len() != total {
                        return Err(FaultPlanError::OverlappingGroups(i));
                    }
                }
                FaultEpisode::LossBurst { prob, span, scope } => {
                    if span.start >= span.end {
                        return Err(FaultPlanError::EmptySpan(i));
                    }
                    if !(0.0..=1.0).contains(prob) {
                        return Err(FaultPlanError::InvalidProb(i));
                    }
                    if let LossScope::Nodes(nodes) = scope {
                        if nodes.is_empty() {
                            return Err(FaultPlanError::NoNodes(i));
                        }
                        nodes.sort_unstable();
                        nodes.dedup();
                    }
                }
                FaultEpisode::LatencySpike { factor, span } => {
                    if span.start >= span.end {
                        return Err(FaultPlanError::EmptySpan(i));
                    }
                    if !factor.is_finite() || *factor < 1.0 {
                        return Err(FaultPlanError::InvalidFactor(i));
                    }
                }
                FaultEpisode::Freeze { nodes, span } => {
                    if span.start >= span.end {
                        return Err(FaultPlanError::EmptySpan(i));
                    }
                    if nodes.is_empty() {
                        return Err(FaultPlanError::NoNodes(i));
                    }
                    nodes.sort_unstable();
                    nodes.dedup();
                }
                FaultEpisode::CorrelatedCrash { nodes, .. } => {
                    if nodes.is_empty() {
                        return Err(FaultPlanError::NoNodes(i));
                    }
                    nodes.sort_unstable();
                    nodes.dedup();
                }
            }
        }
        episodes.sort_by_key(|e| e.start());
        Ok(FaultPlan { episodes })
    }

    /// The validated episodes, sorted by start time.
    pub fn episodes(&self) -> &[FaultEpisode] {
        &self.episodes
    }

    /// Whether the plan has no episodes.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// The latest instant at which any episode still has an effect.
    pub fn horizon(&self) -> SimTime {
        self.episodes
            .iter()
            .map(|e| e.end())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Partition group of a slot: its group index, or `usize::MAX` for the
/// implicit rest-group of unlisted slots.
fn partition_group(groups: &[Vec<u32>], node: u32) -> usize {
    for (g, members) in groups.iter().enumerate() {
        if members.binary_search(&node).is_ok() {
            return g;
        }
    }
    usize::MAX
}

fn in_scope(scope: &LossScope, from: NodeIdx, to: NodeIdx) -> bool {
    match scope {
        LossScope::All => true,
        LossScope::Nodes(nodes) => {
            nodes.binary_search(&from.0).is_ok() || nodes.binary_search(&to.0).is_ok()
        }
    }
}

/// Wraps a network model with the transit episodes of a [`FaultPlan`].
///
/// Per message, in plan order: an active partition that separates sender
/// and receiver drops it (no randomness); each active in-scope loss burst
/// draws one uniform value and may drop it; active latency spikes multiply
/// the inner model's latency. With no active episode the call is an exact
/// pass-through.
#[derive(Clone, Debug)]
pub struct FaultedNetwork<M> {
    /// The fault-free model underneath.
    pub inner: M,
    /// The schedule to apply.
    pub plan: FaultPlan,
}

impl<M: NetworkModel> FaultedNetwork<M> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        FaultedNetwork { inner, plan }
    }
}

impl<M: NetworkModel> NetworkModel for FaultedNetwork<M> {
    fn latency(
        &self,
        now: SimTime,
        from: NodeIdx,
        to: NodeIdx,
        rng: &mut SmallRng,
    ) -> Option<Duration> {
        let mut factor = 1.0f64;
        for ep in self.plan.episodes() {
            match ep {
                FaultEpisode::Partition { groups, span }
                    if span.contains(now)
                        && partition_group(groups, from.0) != partition_group(groups, to.0) =>
                {
                    return None;
                }
                FaultEpisode::LossBurst { prob, span, scope }
                    if span.contains(now)
                        && in_scope(scope, from, to)
                        && rng.gen::<f64>() < *prob =>
                {
                    return None;
                }
                FaultEpisode::LatencySpike { factor: f, span } if span.contains(now) => {
                    factor *= f;
                }
                _ => {}
            }
        }
        let lat = self.inner.latency(now, from, to, rng)?;
        if factor > 1.0 {
            Some(Duration((lat.ticks() as f64 * factor).ceil() as u64))
        } else {
            Some(lat)
        }
    }
}

/// One engine-side action derived from the plan's node episodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeAction {
    Crash(u32),
    FreezeStart(u32),
    FreezeEnd(u32),
}

/// Applies the node episodes ([`FaultEpisode::CorrelatedCrash`],
/// [`FaultEpisode::Freeze`]) of a plan to an engine at their exact
/// timestamps: step the engine to [`FaultDriver::next_time`], then call
/// [`FaultDriver::apply_due`]. Crashes are idempotent against churn-driven
/// leaves: an offline slot is skipped.
pub struct FaultDriver {
    actions: Vec<(SimTime, NodeAction)>,
    cursor: usize,
}

impl FaultDriver {
    /// Extract the node actions of `plan`, time-sorted (stable: same-time
    /// actions apply in plan order, freeze-starts before their own end).
    pub fn new(plan: &FaultPlan) -> Self {
        let mut actions: Vec<(SimTime, NodeAction)> = Vec::new();
        for ep in plan.episodes() {
            match ep {
                FaultEpisode::Freeze { nodes, span } => {
                    for &n in nodes {
                        actions.push((span.start, NodeAction::FreezeStart(n)));
                        actions.push((span.end, NodeAction::FreezeEnd(n)));
                    }
                }
                FaultEpisode::CorrelatedCrash { nodes, at } => {
                    for &n in nodes {
                        actions.push((*at, NodeAction::Crash(n)));
                    }
                }
                _ => {}
            }
        }
        actions.sort_by_key(|(t, _)| *t);
        FaultDriver { actions, cursor: 0 }
    }

    /// Time of the next unapplied action.
    pub fn next_time(&self) -> Option<SimTime> {
        self.actions.get(self.cursor).map(|(t, _)| *t)
    }

    /// Apply every action with `time <= eng.now()` without advancing the
    /// clock.
    pub fn apply_due<P: Protocol, N: NetworkModel>(&mut self, eng: &mut Engine<P, N>) {
        while let Some(&(t, action)) = self.actions.get(self.cursor) {
            if t > eng.now() {
                break;
            }
            Self::apply(eng, action);
            self.cursor += 1;
        }
    }

    fn apply<P: Protocol, N: NetworkModel>(eng: &mut Engine<P, N>, action: NodeAction) {
        match action {
            // remove_node/set_frozen are no-ops on dead or unknown slots,
            // which makes crash-vs-churn races safe by construction.
            NodeAction::Crash(n) => {
                if (n as usize) < eng.num_slots() {
                    eng.remove_node(NodeIdx(n), StopReason::Crash);
                }
            }
            NodeAction::FreezeStart(n) => eng.set_frozen(NodeIdx(n), true),
            NodeAction::FreezeEnd(n) => eng.set_frozen(NodeIdx(n), false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::network::ConstantLatency;
    use crate::protocol::Context;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    fn base() -> ConstantLatency {
        ConstantLatency(Duration(2))
    }

    #[test]
    fn empty_plan_is_exact_passthrough() {
        let net = FaultedNetwork::new(base(), FaultPlan::empty());
        let mut r1 = rng();
        let mut r2 = rng();
        for t in 0..50 {
            assert_eq!(
                net.latency(SimTime(t), NodeIdx(0), NodeIdx(1), &mut r1),
                base().latency(SimTime(t), NodeIdx(0), NodeIdx(1), &mut r2),
            );
        }
        // No randomness consumed: streams still aligned.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn plan_validates_and_sorts() {
        let plan = FaultPlan::new(vec![
            FaultEpisode::Freeze {
                nodes: vec![3, 1, 3],
                span: Span::new(50, 60),
            },
            FaultEpisode::CorrelatedCrash {
                nodes: vec![2],
                at: SimTime(10),
            },
        ])
        .unwrap();
        assert_eq!(plan.episodes()[0].start(), SimTime(10));
        match &plan.episodes()[1] {
            FaultEpisode::Freeze { nodes, .. } => assert_eq!(nodes, &vec![1, 3]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(plan.horizon(), SimTime(60));
    }

    #[test]
    fn plan_rejects_invalid_episodes() {
        let bad_span = FaultPlan::new(vec![FaultEpisode::LatencySpike {
            factor: 2.0,
            span: Span::new(5, 5),
        }]);
        assert_eq!(bad_span.unwrap_err(), FaultPlanError::EmptySpan(0));
        let bad_prob = FaultPlan::new(vec![FaultEpisode::LossBurst {
            prob: 1.5,
            span: Span::new(0, 10),
            scope: LossScope::All,
        }]);
        assert_eq!(bad_prob.unwrap_err(), FaultPlanError::InvalidProb(0));
        let bad_factor = FaultPlan::new(vec![FaultEpisode::LatencySpike {
            factor: 0.5,
            span: Span::new(0, 10),
        }]);
        assert_eq!(bad_factor.unwrap_err(), FaultPlanError::InvalidFactor(0));
        let overlap = FaultPlan::new(vec![FaultEpisode::Partition {
            groups: vec![vec![1, 2], vec![2, 3]],
            span: Span::new(0, 10),
        }]);
        assert_eq!(overlap.unwrap_err(), FaultPlanError::OverlappingGroups(0));
        let empty = FaultPlan::new(vec![FaultEpisode::CorrelatedCrash {
            nodes: vec![],
            at: SimTime(1),
        }]);
        assert_eq!(empty.unwrap_err(), FaultPlanError::NoNodes(0));
    }

    #[test]
    fn partition_cuts_cross_group_traffic_only_while_active() {
        let plan = FaultPlan::new(vec![FaultEpisode::Partition {
            groups: vec![vec![0, 1], vec![2]],
            span: Span::new(10, 20),
        }])
        .unwrap();
        let net = FaultedNetwork::new(base(), plan);
        let mut r = rng();
        // Inside the span: cross-group drops, intra-group passes, and the
        // implicit rest-group (slot 9) is cut from both listed groups.
        assert!(net.latency(SimTime(15), NodeIdx(0), NodeIdx(2), &mut r).is_none());
        assert!(net.latency(SimTime(15), NodeIdx(0), NodeIdx(1), &mut r).is_some());
        assert!(net.latency(SimTime(15), NodeIdx(9), NodeIdx(0), &mut r).is_none());
        // Outside the span: everything passes.
        assert!(net.latency(SimTime(9), NodeIdx(0), NodeIdx(2), &mut r).is_some());
        assert!(net.latency(SimTime(20), NodeIdx(0), NodeIdx(2), &mut r).is_some());
    }

    #[test]
    fn loss_burst_drops_at_rate_within_scope() {
        let plan = FaultPlan::new(vec![FaultEpisode::LossBurst {
            prob: 0.5,
            span: Span::new(0, 100),
            scope: LossScope::Nodes(vec![7]),
        }])
        .unwrap();
        let net = FaultedNetwork::new(base(), plan);
        let mut r = rng();
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| net.latency(SimTime(5), NodeIdx(7), NodeIdx(1), &mut r).is_none())
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "rate = {rate}");
        // Out-of-scope traffic is untouched (and consumes no randomness).
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..100 {
            assert!(net.latency(SimTime(5), NodeIdx(1), NodeIdx(2), &mut r1).is_some());
        }
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn latency_spike_scales_inner_latency() {
        let plan = FaultPlan::new(vec![FaultEpisode::LatencySpike {
            factor: 3.0,
            span: Span::new(10, 20),
        }])
        .unwrap();
        let net = FaultedNetwork::new(base(), plan);
        let mut r = rng();
        assert_eq!(
            net.latency(SimTime(15), NodeIdx(0), NodeIdx(1), &mut r),
            Some(Duration(6))
        );
        assert_eq!(
            net.latency(SimTime(25), NodeIdx(0), NodeIdx(1), &mut r),
            Some(Duration(2))
        );
    }

    struct Nop;
    impl Protocol for Nop {
        type Msg = ();
        fn on_start(&mut self, _: &mut Context<'_, ()>) {}
        fn on_round(&mut self, _: &mut Context<'_, ()>) {}
        fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeIdx, _: ()) {}
    }

    fn engine() -> Engine<Nop> {
        Engine::new(EngineConfig {
            seed: 9,
            round_period: Duration(8),
            desynchronize_rounds: true,
        })
    }

    /// Step `eng` to `until` the way a system's runtime does: run to each
    /// due action's timestamp and apply it there, then run on to `until`.
    fn advance(eng: &mut Engine<Nop>, drv: &mut FaultDriver, until: SimTime) {
        while let Some(t) = drv.next_time().filter(|&t| t <= until) {
            eng.run_until(t);
            drv.apply_due(eng);
        }
        eng.run_until(until);
    }

    #[test]
    fn driver_applies_crash_and_freeze_at_exact_times() {
        let plan = FaultPlan::new(vec![
            FaultEpisode::CorrelatedCrash {
                nodes: vec![0, 1],
                at: SimTime(30),
            },
            FaultEpisode::Freeze {
                nodes: vec![2],
                span: Span::new(10, 40),
            },
        ])
        .unwrap();
        let mut eng = engine();
        for _ in 0..3 {
            eng.add_node(Nop);
        }
        let mut drv = FaultDriver::new(&plan);
        assert_eq!(drv.next_time(), Some(SimTime(10)));
        advance(&mut eng, &mut drv, SimTime(20));
        assert!(eng.is_frozen(NodeIdx(2)));
        assert_eq!(eng.alive_count(), 3);
        advance(&mut eng, &mut drv, SimTime(35));
        assert!(!eng.is_alive(NodeIdx(0)));
        assert!(!eng.is_alive(NodeIdx(1)));
        assert!(eng.is_frozen(NodeIdx(2)));
        advance(&mut eng, &mut drv, SimTime(100));
        assert_eq!(drv.next_time(), None);
        assert!(!eng.is_frozen(NodeIdx(2)));
        assert!(eng.is_alive(NodeIdx(2)));
    }

    #[test]
    fn crash_of_already_offline_slot_is_skipped() {
        let plan = FaultPlan::new(vec![FaultEpisode::CorrelatedCrash {
            nodes: vec![0, 5],
            at: SimTime(10),
        }])
        .unwrap();
        let mut eng = engine();
        let a = eng.add_node(Nop);
        eng.remove_node(a, StopReason::Crash);
        let mut drv = FaultDriver::new(&plan);
        // Slot 0 already offline, slot 5 never existed: both are no-ops.
        advance(&mut eng, &mut drv, SimTime(50));
        assert_eq!(drv.next_time(), None);
        assert_eq!(eng.alive_count(), 0);
    }

    #[test]
    fn apply_due_composes_without_advancing_clock() {
        let plan = FaultPlan::new(vec![FaultEpisode::Freeze {
            nodes: vec![0],
            span: Span::new(5, 15),
        }])
        .unwrap();
        let mut eng = engine();
        eng.add_node(Nop);
        let mut drv = FaultDriver::new(&plan);
        eng.run_until(SimTime(7));
        drv.apply_due(&mut eng);
        assert!(eng.is_frozen(NodeIdx(0)));
        assert_eq!(eng.now(), SimTime(7));
        eng.run_until(SimTime(15));
        drv.apply_due(&mut eng);
        assert!(!eng.is_frozen(NodeIdx(0)));
        assert_eq!(drv.next_time(), None);
    }

    #[test]
    fn frozen_node_receives_nothing_and_skips_rounds() {
        struct Chat {
            peer: Option<NodeIdx>,
            rounds: u32,
            got: u32,
        }
        #[derive(Clone)]
        struct Hi;
        impl Protocol for Chat {
            type Msg = Hi;
            fn on_start(&mut self, _: &mut Context<'_, Hi>) {}
            fn on_round(&mut self, ctx: &mut Context<'_, Hi>) {
                self.rounds += 1;
                if let Some(p) = self.peer {
                    ctx.send(p, Hi);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Hi>, _: NodeIdx, _: Hi) {
                self.got += 1;
            }
        }
        let mut eng: Engine<Chat> = Engine::new(EngineConfig {
            seed: 4,
            round_period: Duration(8),
            desynchronize_rounds: false,
        });
        let b = NodeIdx(1);
        eng.add_node(Chat {
            peer: Some(b),
            rounds: 0,
            got: 0,
        });
        eng.add_node(Chat {
            peer: None,
            rounds: 0,
            got: 0,
        });
        eng.run_rounds(3);
        let before = (eng.node(b).unwrap().rounds, eng.node(b).unwrap().got);
        eng.set_frozen(b, true);
        eng.run_rounds(3);
        let during = (eng.node(b).unwrap().rounds, eng.node(b).unwrap().got);
        assert_eq!(before, during, "frozen node must not progress");
        assert!(eng.stats().messages_suppressed > 0);
        eng.set_frozen(b, false);
        eng.run_rounds(3);
        let after = eng.node(b).unwrap();
        assert!(after.rounds > during.0, "thawed node resumes rounds");
        assert!(after.got > during.1, "thawed node receives again");
    }

    #[test]
    fn plan_conversion_boundary_validates() {
        // Episode lists from outside enter through TryFrom and leave through
        // Into: a round trip reproduces the plan, invalid input fails.
        let plan = FaultPlan::try_from(vec![
            FaultEpisode::Partition {
                groups: vec![vec![0, 1], vec![2, 3]],
                span: Span::new(10, 20),
            },
            FaultEpisode::LossBurst {
                prob: 0.3,
                span: Span::new(5, 25),
                scope: LossScope::All,
            },
        ])
        .unwrap();
        let raw: Vec<FaultEpisode> = plan.clone().into();
        assert_eq!(FaultPlan::try_from(raw).unwrap(), plan);
        let bad = vec![FaultEpisode::LossBurst {
            prob: 7.0,
            span: Span::new(0, 1),
            scope: LossScope::All,
        }];
        assert!(FaultPlan::try_from(bad).is_err());
    }
}
