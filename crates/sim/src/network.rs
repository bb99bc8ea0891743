//! The network model: per-message latency and loss.
//!
//! The paper's evaluation counts hops rather than wall-clock delay, so the
//! one model is a constant latency, one tick by default. Loss is not a
//! model of its own: [`crate::fault::FaultedNetwork`] wraps any model with a
//! time-driven fault schedule — which is why every model receives the
//! current [`SimTime`] per call.

use crate::event::NodeIdx;
use crate::time::{Duration, SimTime};
use rand::rngs::SmallRng;

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
}
