//! Deterministic fault injection: scheduled message loss.
//!
//! A [`FaultPlan`] is a validated, time-sorted schedule of *episodes*, all
//! of them in transit: [`FaultEpisode::Partition`] and
//! [`FaultEpisode::LossBurst`]. [`FaultedNetwork`] wraps any
//! [`NetworkModel`] and applies them per message, keyed on the send-time
//! clock the engine threads into every latency call. A node going down is
//! churn, not a fault episode: the runtime's `set_online`.
//!
//! Determinism: an empty plan consumes no randomness and delegates every
//! call unchanged, so a faulted run with no episodes is bit-identical to an
//! unfaulted one. Active loss bursts draw exactly one RNG value per
//! message; partitions consume none.

use crate::event::NodeIdx;
use crate::network::NetworkModel;
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

/// Which messages a loss burst affects: every message in the network.
/// The one variant is what every plan in the workspace and the benchmark
/// names.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LossScope {
    /// Every message in the network.
    All,
}

/// One scheduled fault. Partition groups refer to engine slots
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
    /// While active, each message is independently dropped with
    /// probability `prob` (on top of whatever the inner model drops).
    LossBurst {
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
        /// When the burst is active.
        span: Span,
        /// Which messages it affects.
        scope: LossScope,
    },
}

impl FaultEpisode {
    /// When the episode is active.
    pub fn span(&self) -> Span {
        match self {
            FaultEpisode::Partition { span, .. } | FaultEpisode::LossBurst { span, .. } => *span,
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
    /// A partition with no groups or an empty group.
    NoNodes(usize),
    /// A partition listing the same slot in two groups.
    OverlappingGroups(usize),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::EmptySpan(i) => write!(f, "episode {i}: span start >= end"),
            FaultPlanError::InvalidProb(i) => write!(f, "episode {i}: prob outside [0, 1]"),
            FaultPlanError::NoNodes(i) => write!(f, "episode {i}: empty partition or group"),
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

impl FaultPlan {
    /// A plan with no episodes (the fault-free identity).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Validate and normalize a schedule: partition groups are sorted and
    /// deduplicated, episodes sorted by start time (stable, so same-start
    /// episodes keep their given order).
    pub fn new(mut episodes: Vec<FaultEpisode>) -> Result<Self, FaultPlanError> {
        for (i, ep) in episodes.iter_mut().enumerate() {
            let span = ep.span();
            if span.start >= span.end {
                return Err(FaultPlanError::EmptySpan(i));
            }
            match ep {
                FaultEpisode::Partition { groups, .. } => {
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
                FaultEpisode::LossBurst { prob, .. } => {
                    if !(0.0..=1.0).contains(prob) {
                        return Err(FaultPlanError::InvalidProb(i));
                    }
                }
            }
        }
        episodes.sort_by_key(|e| e.span().start);
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

/// Wraps a network model with the transit episodes of a [`FaultPlan`].
///
/// Per message, in plan order: an active partition that separates sender
/// and receiver drops it (no randomness); each active loss burst draws one
/// uniform value and may drop it. A message no episode drops
/// takes the inner model's latency, so with no active episode the call is
/// an exact pass-through.
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
        let dropped = self.plan.episodes().iter().any(|ep| match ep {
            FaultEpisode::Partition { groups, span } => {
                span.contains(now)
                    && partition_group(groups, from.0) != partition_group(groups, to.0)
            }
            FaultEpisode::LossBurst { prob, span, .. } => {
                span.contains(now) && rng.gen::<f64>() < *prob
            }
        });
        if dropped {
            return None;
        }
        self.inner.latency(now, from, to, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ConstantLatency;
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

    /// The runtime runs every system on `FaultedNetwork<ConstantLatency>`,
    /// a fault-free one with the empty plan. That must be the one-tick
    /// latency on every call and leave the engine's stream untouched.
    #[test]
    fn empty_plan_over_the_default_latency_draws_nothing() {
        let net = FaultedNetwork::new(ConstantLatency::default(), FaultPlan::empty());
        let (mut used, mut twin) = (rng(), rng());
        for i in 0..4096u32 {
            let (from, to) = (NodeIdx(i % 97), NodeIdx(i % 89));
            assert_eq!(
                net.latency(SimTime(u64::from(i)), from, to, &mut used),
                Some(Duration(1))
            );
        }
        assert_eq!(used.gen::<u64>(), twin.gen::<u64>());
    }

    #[test]
    fn plan_validates_and_sorts() {
        let plan = FaultPlan::new(vec![
            FaultEpisode::LossBurst {
                prob: 0.5,
                span: Span::new(50, 60),
                scope: LossScope::All,
            },
            FaultEpisode::Partition {
                groups: vec![vec![4, 2, 4]],
                span: Span::new(10, 20),
            },
        ])
        .unwrap();
        assert_eq!(plan.episodes()[1].span(), Span::new(50, 60));
        match &plan.episodes()[0] {
            FaultEpisode::Partition { groups, span } => {
                assert_eq!((groups, *span), (&vec![vec![2, 4]], Span::new(10, 20)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plan_rejects_invalid_episodes() {
        let bad_span = FaultPlan::new(vec![FaultEpisode::Partition {
            groups: vec![vec![1]],
            span: Span::new(5, 5),
        }]);
        assert_eq!(bad_span.unwrap_err(), FaultPlanError::EmptySpan(0));
        let bad_prob = FaultPlan::new(vec![FaultEpisode::LossBurst {
            prob: 1.5,
            span: Span::new(0, 10),
            scope: LossScope::All,
        }]);
        assert_eq!(bad_prob.unwrap_err(), FaultPlanError::InvalidProb(0));
        let overlap = FaultPlan::new(vec![FaultEpisode::Partition {
            groups: vec![vec![1, 2], vec![2, 3]],
            span: Span::new(0, 10),
        }]);
        assert_eq!(overlap.unwrap_err(), FaultPlanError::OverlappingGroups(0));
        let empty = FaultPlan::new(vec![FaultEpisode::Partition {
            groups: vec![vec![1], vec![]],
            span: Span::new(0, 10),
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
        assert!(net
            .latency(SimTime(15), NodeIdx(0), NodeIdx(2), &mut r)
            .is_none());
        assert!(net
            .latency(SimTime(15), NodeIdx(0), NodeIdx(1), &mut r)
            .is_some());
        assert!(net
            .latency(SimTime(15), NodeIdx(9), NodeIdx(0), &mut r)
            .is_none());
        // Outside the span: everything passes.
        assert!(net
            .latency(SimTime(9), NodeIdx(0), NodeIdx(2), &mut r)
            .is_some());
        assert!(net
            .latency(SimTime(20), NodeIdx(0), NodeIdx(2), &mut r)
            .is_some());
    }

    #[test]
    fn loss_burst_drops_at_rate_within_scope() {
        let plan = FaultPlan::new(vec![FaultEpisode::LossBurst {
            prob: 0.5,
            span: Span::new(0, 100),
            scope: LossScope::All,
        }])
        .unwrap();
        let net = FaultedNetwork::new(base(), plan);
        let mut r = rng();
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| {
                net.latency(SimTime(5), NodeIdx(7), NodeIdx(1), &mut r)
                    .is_none()
            })
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "rate = {rate}");
    }
}
