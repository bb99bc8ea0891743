//! Vitis protocol configuration.

/// The settable values of a Vitis node. Defaults mirror the paper's
/// experimental settings (Section IV-A): routing-table size 15, `k = 3`
/// small-world links counting the two ring links (so one extra
/// sw-neighbor), gateway radius `d = 5`.
///
/// A value is a field only where some experiment, workload or harness sets
/// or reads it:
///
/// * `rt_size` and `k_sw`: Figures 4, 6 and 10 vary the table size and its
///   split between friends and small-world links;
/// * `gateway_election` and `utility_selection`: the two Vitis ablations;
/// * `est_n`: set to the network size by every runner;
/// * `publish_retries`, `publish_ack_timeout`, `max_event_hops` and
///   `gateway_failover`: the fault-hardening switches the resilience runs
///   and the churn workload turn on;
/// * `d_max_hops` and `age_threshold`: read by the benchmark's kernel
///   replays.
///
/// Every other value is one constant next to its reader:
/// [`crate::relay::RELAY_TTL`], [`vitis_overlay::substrate::SAMPLING_VIEW`],
/// [`vitis_overlay::routing::MAX_LOOKUP_HOPS`],
/// [`crate::node::PUBLISH_BACKOFF_CAP`], and the anti-entropy layer's sizes
/// in [`vitis_sim::antientropy`].
#[derive(Clone, Debug)]
pub struct VitisConfig {
    /// Bounded routing-table size (node degree bound). Paper default: 15.
    pub rt_size: usize,
    /// Small-world links beyond the two ring links. Paper's `k = 3` counts
    /// predecessor + successor + this many extras, so the default is 1.
    pub k_sw: usize,
    /// Gateway radius `d`: a gateway serves subscribers at most this many
    /// cluster-hops away; the number of gateways per cluster scales with
    /// the cluster diameter divided by `d`. Paper default: 5.
    pub d_max_hops: u32,
    /// Estimated network size, feeding the Symphony harmonic distance draw.
    pub est_n: usize,
    /// Routing-table entries older than this many rounds are expired
    /// (failure-detection threshold of Algorithm 6).
    pub age_threshold: u16,
    /// Ablation: when false, gateway election is disabled and *every*
    /// subscriber builds its own relay path (Scribe-like behaviour inside
    /// Vitis — isolates the contribution of Algorithm 5).
    pub gateway_election: bool,
    /// Ablation: when false, friend slots are filled with random candidates
    /// instead of Equation 1 ranking — isolates the clustering benefit.
    pub utility_selection: bool,
    /// Fault hardening: publisher-side retries. After publishing, if no
    /// gateway/relay holder acknowledges within
    /// [`VitisConfig::publish_ack_timeout`], the publisher re-floods the
    /// notification, up to this many times with capped exponential
    /// backoff. `0` (the default) disables retries and acknowledgments
    /// entirely — the fault-free path is bit-identical to earlier builds.
    pub publish_retries: u32,
    /// Ticks a publisher waits for the first acknowledgment before its
    /// first retry; subsequent retries double the wait, up to
    /// [`crate::node::PUBLISH_BACKOFF_CAP`].
    pub publish_ack_timeout: u64,
    /// Fault hardening: TTL bound on notification forwarding. Copies that
    /// have travelled this many hops are still delivered locally but no
    /// longer forwarded, so traffic trapped by a partition dies out
    /// instead of wandering. `u32::MAX` (the default) disables the bound.
    pub max_event_hops: u32,
    /// Fault hardening: gateway failover. When true, remembered neighbor
    /// proposals age each round and are discarded once they exceed
    /// [`VitisConfig::age_threshold`] without a refreshing heartbeat, so
    /// the election re-runs without the silent gateway mid-episode
    /// instead of waiting for the neighbor entry itself to expire.
    pub gateway_failover: bool,
}

impl Default for VitisConfig {
    fn default() -> Self {
        VitisConfig {
            rt_size: 15,
            k_sw: 1,
            d_max_hops: 5,
            est_n: 10_000,
            age_threshold: 5,
            gateway_election: true,
            utility_selection: true,
            publish_retries: 0,
            publish_ack_timeout: 96,
            max_event_hops: u32::MAX,
            gateway_failover: false,
        }
    }
}

impl VitisConfig {
    /// Number of friend slots implied by the sizing.
    pub fn num_friends(&self) -> usize {
        self.rt_size.saturating_sub(2 + self.k_sw)
    }

    /// Validate invariants; call after manual construction. Fails if the
    /// table cannot hold the two ring links or trivially invalid values are
    /// set.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let checks = [
            (self.rt_size >= 3, ConfigError::RtSize),
            (self.est_n >= 2, ConfigError::EstN),
            (self.d_max_hops >= 1, ConfigError::DMaxHops),
            (self.max_event_hops >= 1, ConfigError::MaxEventHops),
            (
                self.publish_retries == 0 || self.publish_ack_timeout >= 1,
                ConfigError::AckTimeout,
            ),
        ];
        match checks.into_iter().find(|(ok, _)| !ok) {
            Some((_, err)) => Err(err),
            None => Ok(()),
        }
    }

    /// The Figure 4 sweep: fix `rt_size`, dedicate 2 entries to the ring and
    /// split the remaining 13 between friends and sw links.
    pub fn with_friends(mut self, friends: usize) -> Self {
        assert!(friends + 2 <= self.rt_size, "friends exceed table");
        self.k_sw = self.rt_size - 2 - friends;
        self
    }
}

/// Why a [`VitisConfig`] was rejected by [`VitisConfig::validate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `rt_size` below 3: no room for the two ring links and one more.
    RtSize,
    /// `est_n` below 2.
    EstN,
    /// `d_max_hops` of 0.
    DMaxHops,
    /// `max_event_hops` of 0.
    MaxEventHops,
    /// Publish retries with a zero acknowledgment timeout.
    AckTimeout,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConfigError::RtSize => "rt_size must hold ring links + 1",
            ConfigError::EstN => "est_n must be at least 2",
            ConfigError::DMaxHops => "d_max_hops must be at least 1",
            ConfigError::MaxEventHops => "events need at least one hop",
            ConfigError::AckTimeout => "retries need a positive ack timeout",
        })
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = VitisConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.rt_size, 15);
        assert_eq!(c.k_sw, 1);
        assert_eq!(c.d_max_hops, 5);
        assert_eq!(c.num_friends(), 12);
    }

    #[test]
    fn with_friends_splits_table() {
        let c = VitisConfig::default().with_friends(6);
        assert_eq!(c.k_sw, 7);
        assert_eq!(c.num_friends(), 6);
        let c0 = VitisConfig::default().with_friends(0);
        assert_eq!(c0.k_sw, 13);
        assert_eq!(c0.num_friends(), 0);
    }

    #[test]
    #[should_panic(expected = "friends exceed table")]
    fn with_friends_overflow_panics() {
        let _ = VitisConfig::default().with_friends(14);
    }

    #[test]
    fn each_invalid_value_is_rejected_with_its_own_error() {
        type Set = fn(&mut VitisConfig);
        let cases: [(Set, ConfigError); 5] = [
            (|c| c.rt_size = 2, ConfigError::RtSize),
            (|c| c.est_n = 1, ConfigError::EstN),
            (|c| c.d_max_hops = 0, ConfigError::DMaxHops),
            (|c| c.max_event_hops = 0, ConfigError::MaxEventHops),
            (
                |c| (c.publish_retries, c.publish_ack_timeout) = (1, 0),
                ConfigError::AckTimeout,
            ),
        ];
        for (set, err) in cases {
            let mut c = VitisConfig::default();
            set(&mut c);
            assert_eq!(c.validate(), Err(err), "{err}");
        }
        assert_eq!(
            ConfigError::RtSize.to_string(),
            "rt_size must hold ring links + 1"
        );
    }
}
