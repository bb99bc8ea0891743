//! Simulated time.
//!
//! The engine measures time in abstract *ticks*. Protocols usually map one
//! gossip round to [`SimTime`] `round_period` ticks and one network hop to a
//! small number of ticks, so a round comfortably contains a request/response
//! exchange.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in abstract ticks since the simulation epoch.
///
/// `SimTime` is a transparent wrapper over `u64` with saturating semantics on
/// subtraction, so "how long ago" computations never panic on clock skew
/// introduced by scheduling jitter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (tick zero).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating duration since `earlier`. Returns zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A span of simulated time, in ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Duration(pub u64);

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Duration(ticks)
    }

    /// The raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_is_saturating() {
        let t = SimTime::MAX;
        assert_eq!(t + Duration(10), SimTime::MAX);
        assert_eq!(SimTime(5) - SimTime(10), Duration::ZERO);
        assert_eq!(SimTime(10) - SimTime(4), Duration(6));
    }

    #[test]
    fn since_is_zero_for_future_instants() {
        assert_eq!(SimTime(3).since(SimTime(9)), Duration::ZERO);
        assert_eq!(SimTime(9).since(SimTime(3)), Duration(6));
    }

    #[test]
    fn ordering_matches_tick_order() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn display_prints_raw_ticks() {
        assert_eq!(SimTime(42).to_string(), "42");
        assert_eq!(format!("{:?}", SimTime(42)), "t42");
    }
}
