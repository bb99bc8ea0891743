//! The network model: per-message latency and loss.
//!
//! The paper's evaluation counts hops rather than wall-clock delay, so the
//! default model is a constant one-tick latency. A jittered model is
//! provided for robustness experiments and tests. Loss is not a model of
//! its own: [`crate::fault::FaultedNetwork`] wraps any model with a
//! time-driven fault schedule — which is why every model receives the
//! current [`SimTime`] per call.

use crate::event::NodeIdx;
use crate::time::{Duration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Decides, per message, how long delivery takes and whether the message is
/// dropped. Implementations must be deterministic given the RNG stream and
/// the simulated clock.
pub trait NetworkModel {
    /// Latency for a message sent at `now` from `from` to `to`, or `None`
    /// if the message is lost in transit.
    fn latency(
        &self,
        now: SimTime,
        from: NodeIdx,
        to: NodeIdx,
        rng: &mut SmallRng,
    ) -> Option<Duration>;
}

/// Every message takes exactly `latency` ticks; nothing is lost.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLatency(pub Duration);

impl Default for ConstantLatency {
    fn default() -> Self {
        ConstantLatency(Duration(1))
    }
}

impl NetworkModel for ConstantLatency {
    #[inline]
    fn latency(&self, _: SimTime, _: NodeIdx, _: NodeIdx, _: &mut SmallRng) -> Option<Duration> {
        Some(self.0)
    }
}

/// Latency drawn uniformly from `[min, max]` ticks; nothing is lost.
#[derive(Clone, Copy, Debug)]
pub struct UniformLatency {
    /// Inclusive lower bound, in ticks.
    pub min: u64,
    /// Inclusive upper bound, in ticks.
    pub max: u64,
}

impl NetworkModel for UniformLatency {
    #[inline]
    fn latency(
        &self,
        _: SimTime,
        _: NodeIdx,
        _: NodeIdx,
        rng: &mut SmallRng,
    ) -> Option<Duration> {
        debug_assert!(self.min <= self.max);
        Some(Duration(rng.gen_range(self.min..=self.max)))
    }
}

/// A boxed, dynamically dispatched network model, for a model chosen at
/// runtime: a system's `NetworkSpec`, wrapped in a `FaultedNetwork` when
/// its fault plan is not empty.
pub type DynNetworkModel = Box<dyn NetworkModel>;

impl NetworkModel for DynNetworkModel {
    #[inline]
    fn latency(
        &self,
        now: SimTime,
        from: NodeIdx,
        to: NodeIdx,
        rng: &mut SmallRng,
    ) -> Option<Duration> {
        (**self).latency(now, from, to, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    const T0: SimTime = SimTime(0);

    #[test]
    fn constant_latency_is_constant() {
        let m = ConstantLatency(Duration(3));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                m.latency(T0, NodeIdx(0), NodeIdx(1), &mut r),
                Some(Duration(3))
            );
        }
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let m = UniformLatency { min: 2, max: 6 };
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.latency(T0, NodeIdx(0), NodeIdx(1), &mut r).unwrap();
            assert!((2..=6).contains(&d.ticks()));
        }
    }

    #[test]
    fn dyn_model_dispatches() {
        let m: DynNetworkModel = Box::new(ConstantLatency(Duration(9)));
        let mut r = rng();
        assert_eq!(
            m.latency(T0, NodeIdx(0), NodeIdx(1), &mut r),
            Some(Duration(9))
        );
    }
}
