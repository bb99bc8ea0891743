//! Protocol-generic anti-entropy repair: digest exchange (IHAVE) with
//! pull-based recovery (IWANT), in the lazy-push style of Plumtree and
//! GossipSub's gossip layer.
//!
//! Every node keeps a bounded, TTL-aged cache of recently seen events
//! (message id + topic + an opaque payload the owning protocol can
//! re-serve). Each round it gossips a compact digest of cached event ids
//! to a small random sample of its overlay neighbors; a receiver that
//! spots an id it subscribes to but never received answers with a pull
//! request, and the advertiser re-serves the payload from its cache.
//! Pulls retry with per-attempt backoff against rotating advertisers and
//! give up after a capped number of attempts, so repair traffic cannot
//! storm while a partition keeps every pull unanswerable.
//!
//! The state machine is deliberately transport-free: it never sends
//! messages itself. The owning protocol drives it from `on_round` /
//! `on_message` and maps its outputs onto protocol-specific message
//! variants, which keeps all randomness on the node's own deterministic
//! RNG stream. With `enabled = false` (the default) every entry point is an
//! inert no-op that consumes no randomness, so fixed-seed runs are
//! bit-identical to a build without the layer.

use crate::event::NodeIdx;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Nominal wire bytes of one digest entry (event id 8 + topic 4), for the
/// owning protocol's control-plane bandwidth accounting.
pub const DIGEST_ENTRY_BYTES: u64 = 12;

/// Nominal wire bytes of one pulled event id.
pub const WANT_ID_BYTES: u64 = 8;

/// Rounds a cached event stays servable before aging out.
pub const CACHE_ROUNDS: u64 = 30;

/// Maximum cached events; the oldest entries evict first.
pub const CACHE_EVENTS: usize = 512;

/// Neighbors sampled per digest round.
pub const DIGEST_FANOUT: usize = 2;

/// Maximum entries per digest (the newest cached events win).
pub const DIGEST_ENTRIES: usize = 64;

/// Pull attempts per missing event before giving up.
pub const PULL_RETRIES: u32 = 3;

/// Base backoff between pull attempts, in rounds (doubles per attempt,
/// capped at 32×).
pub const BACKOFF_ROUNDS: u64 = 2;

/// Configuration of the anti-entropy layer: whether it runs. Its sizes and
/// retry budget are the constants above, and a digest goes out every
/// round. Default-off: the zero-cost configuration changes no observable
/// behavior of the owning protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AeConfig {
    /// Master switch. Off by default; when off, every call is a no-op.
    pub enabled: bool,
}

impl AeConfig {
    /// The layer switched on.
    pub fn on() -> Self {
        AeConfig { enabled: true }
    }
}

/// One cached event, re-servable to pulling peers.
#[derive(Clone, Debug)]
struct Cached<P> {
    topic: u32,
    /// Round the entry was cached in (drives TTL aging).
    born: u64,
    payload: P,
}

/// One missing event this node is trying to pull.
#[derive(Clone, Debug)]
struct Want {
    /// Peers that advertised the event, in discovery order; retries
    /// rotate through them so a dead or overloaded advertiser is not
    /// re-asked forever.
    advertisers: Vec<NodeIdx>,
    /// Pull attempts issued so far.
    attempts: u32,
    /// Round the next attempt is due.
    due: u64,
}

/// Process-wide count of pulls abandoned after exhausting their retry
/// budget. Aggregated across every node of every system in the process —
/// purely observational (never read by protocol logic), so it cannot
/// perturb determinism.
static EXHAUSTED_PULLS: AtomicU64 = AtomicU64::new(0);

/// Count `n` freshly exhausted pulls; `true` exactly when this call moved
/// the process total away from zero — the caller's cue to emit the
/// once-per-process warning (same rate-limit discipline as the trace
/// ring-buffer overflow warning).
fn note_exhausted(n: u64) -> bool {
    n > 0 && EXHAUSTED_PULLS.fetch_add(n, Ordering::Relaxed) == 0
}

/// `Some(total abandoned pulls)` when any pull in this process exhausted
/// its retry budget — the exit-summary hook for harnesses.
pub fn exhausted_pull_status() -> Option<u64> {
    let n = EXHAUSTED_PULLS.load(Ordering::Relaxed);
    (n > 0).then_some(n)
}

/// Backoff, in rounds, before the attempt *after* number `attempts`:
/// [`BACKOFF_ROUNDS`] doubling per attempt, capped at 32×.
fn backoff(attempts: u32) -> u64 {
    BACKOFF_ROUNDS << attempts.saturating_sub(1).min(5)
}

/// Per-node anti-entropy state machine. `P` is the protocol's re-servable
/// payload (typically its notification message body).
#[derive(Clone, Debug)]
pub struct AntiEntropy<P> {
    enabled: bool,
    /// Recently seen events, ascending by event id.
    cache: Vec<(u64, Cached<P>)>,
    /// Outstanding pulls, ascending by event id.
    wants: Vec<(u64, Want)>,
    /// Pulls this node abandoned after [`PULL_RETRIES`] attempts.
    exhausted: u64,
}

impl<P: Clone> AntiEntropy<P> {
    /// A fresh state machine.
    pub fn new(cfg: AeConfig) -> Self {
        AntiEntropy {
            enabled: cfg.enabled,
            cache: Vec::new(),
            wants: Vec::new(),
            exhausted: 0,
        }
    }

    /// Heap bytes of the cache and the pull table, as Σ capacity × element
    /// size. Heap state behind a cached payload is the caller's to add.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let advertisers: usize = self
            .wants
            .iter()
            .map(|(_, w)| w.advertisers.capacity())
            .sum();
        (self.cache.capacity() * size_of::<(u64, Cached<P>)>()
            + self.wants.capacity() * size_of::<(u64, Want)>()
            + advertisers * size_of::<NodeIdx>()) as u64
    }

    /// Whether the layer is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record that this node now holds `event` (seen via normal
    /// dissemination, publish, or recovery): cache the payload for
    /// re-serving and drop any outstanding pull for it. Evicts the oldest
    /// entry when the cache is full.
    pub fn insert(&mut self, event: u64, topic: u32, payload: P, round: u64) {
        if !self.enabled {
            return;
        }
        self.satisfy(event);
        let Err(pos) = self.cache.binary_search_by_key(&event, |(e, _)| *e) else {
            return;
        };
        self.cache.insert(
            pos,
            (
                event,
                Cached {
                    topic,
                    born: round,
                    payload,
                },
            ),
        );
        if self.cache.len() > CACHE_EVENTS {
            // Evict the oldest entry (lowest born round, then lowest id —
            // both deterministic).
            let victim = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, (e, c))| (c.born, *e))
                .map(|(i, _)| i)
                .expect("cache non-empty");
            self.cache.remove(victim);
        }
    }

    /// Whether `event` is currently cached.
    pub fn holds(&self, event: u64) -> bool {
        self.cache.binary_search_by_key(&event, |(e, _)| *e).is_ok()
    }

    /// Drop any outstanding pull for `event` (it arrived some other way).
    pub fn satisfy(&mut self, event: u64) {
        if let Ok(pos) = self.wants.binary_search_by_key(&event, |(e, _)| *e) {
            self.wants.remove(pos);
        }
    }

    /// Round upkeep: age out cache entries past their TTL.
    pub fn tick(&mut self, round: u64) {
        if !self.enabled {
            return;
        }
        self.cache
            .retain(|(_, c)| round.saturating_sub(c.born) <= CACHE_ROUNDS);
    }

    /// The digest to gossip this round: `(event, topic)` pairs for the
    /// newest [`DIGEST_ENTRIES`] cached events (ascending by id), or `None`
    /// when the layer is off or the cache is empty. A digest goes out every
    /// round, so the round number does not change the answer.
    pub fn digest(&self, _round: u64) -> Option<Vec<(u64, u32)>> {
        if !self.enabled || self.cache.is_empty() {
            return None;
        }
        let skip = self.cache.len().saturating_sub(DIGEST_ENTRIES);
        Some(
            self.cache[skip..]
                .iter()
                .map(|(e, c)| (*e, c.topic))
                .collect(),
        )
    }

    /// Sample up to [`DIGEST_FANOUT`] distinct digest targets from
    /// `neighbors` (a deterministic partial shuffle on the caller's RNG
    /// stream, in place: the list is the caller's to give up). Call only
    /// when [`AntiEntropy::digest`] returned work, so a disabled or idle
    /// layer consumes no randomness.
    pub fn pick_targets(&self, mut neighbors: Vec<NodeIdx>, rng: &mut impl Rng) -> Vec<NodeIdx> {
        let k = DIGEST_FANOUT.min(neighbors.len());
        for i in 0..k {
            let j = rng.gen_range(i..neighbors.len());
            neighbors.swap(i, j);
        }
        neighbors.truncate(k);
        neighbors
    }

    /// Process a digest from `from`: every advertised event whose topic
    /// passes `interested` and that `have` does not know becomes (or
    /// refreshes) a want. Returns the ids to pull from `from` right now —
    /// only freshly discovered gaps; known wants just gain an advertiser
    /// for later retries.
    pub fn on_digest(
        &mut self,
        from: NodeIdx,
        entries: &[(u64, u32)],
        round: u64,
        mut interested: impl FnMut(u32) -> bool,
        mut have: impl FnMut(u64) -> bool,
    ) -> Vec<u64> {
        if !self.enabled {
            return Vec::new();
        }
        let mut fresh = Vec::new();
        for &(event, topic) in entries {
            if !interested(topic) || have(event) || self.holds(event) {
                continue;
            }
            match self.wants.binary_search_by_key(&event, |(e, _)| *e) {
                Ok(pos) => {
                    let w = &mut self.wants[pos].1;
                    if !w.advertisers.contains(&from) {
                        w.advertisers.push(from);
                    }
                }
                Err(pos) => {
                    self.wants.insert(
                        pos,
                        (
                            event,
                            Want {
                                advertisers: vec![from],
                                attempts: 1,
                                due: round + backoff(1),
                            },
                        ),
                    );
                    fresh.push(event);
                }
            }
        }
        fresh
    }

    /// Pull retries due this round, grouped per target peer (ascending by
    /// peer). Each due want re-asks the next advertiser in rotation;
    /// wants that exhausted their retry budget are dropped and counted —
    /// the first exhaustion in the whole process emits a rate-limited
    /// warning (totals available via [`exhausted_pull_status`]).
    pub fn due_pulls(&mut self, round: u64) -> Vec<(NodeIdx, Vec<u64>)> {
        if !self.enabled || self.wants.is_empty() {
            return Vec::new();
        }
        let mut asks: Vec<(NodeIdx, Vec<u64>)> = Vec::new();
        let mut dropped = 0u64;
        self.wants.retain_mut(|(event, w)| {
            if w.due > round {
                return true;
            }
            if w.attempts >= PULL_RETRIES {
                dropped += 1;
                return false;
            }
            let target = w.advertisers[w.attempts as usize % w.advertisers.len()];
            w.attempts += 1;
            w.due = round + backoff(w.attempts);
            match asks.binary_search_by_key(&target, |(t, _)| *t) {
                Ok(i) => asks[i].1.push(*event),
                Err(i) => asks.insert(i, (target, vec![*event])),
            }
            true
        });
        if dropped > 0 {
            self.exhausted += dropped;
            if note_exhausted(dropped) {
                eprintln!(
                    "warning: anti-entropy pull retries exhausted (an advertised event was \
                     never recovered); further exhaustions are counted silently — totals in \
                     the exit summary"
                );
            }
        }
        asks
    }

    /// Serve a pull request: `(event, topic, payload)` for every id still
    /// cached. Aged-out or never-held ids are silently absent — the
    /// puller's retry/backoff path handles the gap.
    pub fn serve(&self, ids: &[u64]) -> Vec<(u64, u32, P)> {
        ids.iter()
            .filter_map(|&id| {
                self.cache
                    .binary_search_by_key(&id, |(e, _)| *e)
                    .ok()
                    .map(|pos| {
                        let (e, c) = &self.cache[pos];
                        (*e, c.topic, c.payload.clone())
                    })
            })
            .collect()
    }

    /// Cached events (tests/telemetry).
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Outstanding pulls (tests/telemetry).
    pub fn pending(&self) -> usize {
        self.wants.len()
    }

    /// Pulls this node abandoned after exhausting their retry budget.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn on() -> AeConfig {
        AeConfig::on()
    }

    fn n(i: u32) -> NodeIdx {
        NodeIdx(i)
    }

    #[test]
    fn disabled_layer_is_inert() {
        let mut ae: AntiEntropy<&str> = AntiEntropy::new(AeConfig::default());
        ae.insert(1, 0, "x", 1);
        assert_eq!(ae.cached(), 0);
        assert_eq!(ae.digest(2), None);
        assert!(ae
            .on_digest(n(1), &[(1, 0)], 2, |_| true, |_| false)
            .is_empty());
        assert!(ae.due_pulls(10).is_empty());
    }

    #[test]
    fn cache_ages_out_and_pull_after_expiry_serves_nothing() {
        let mut ae: AntiEntropy<&str> = AntiEntropy::new(on());
        ae.insert(7, 2, "payload", 10);
        assert_eq!(ae.serve(&[7]).len(), 1);
        ae.tick(10 + CACHE_ROUNDS);
        assert_eq!(ae.serve(&[7]).len(), 1, "at TTL boundary still served");
        ae.tick(11 + CACHE_ROUNDS);
        assert!(ae.serve(&[7]).is_empty(), "aged-out entry no longer served");
        assert_eq!(ae.cached(), 0);
    }

    #[test]
    fn cache_capacity_evicts_oldest_first() {
        let mut ae: AntiEntropy<u8> = AntiEntropy::new(on());
        // Ids descend as rounds ascend, so the oldest entry is the highest
        // id: eviction goes by age, not by id.
        let last = CACHE_EVENTS as u64 + 1;
        for round in 1..=last {
            ae.insert(last + 1 - round, 0, 0, round);
        }
        assert_eq!(ae.cached(), CACHE_EVENTS);
        assert!(!ae.holds(last), "oldest entry evicted");
        assert!(ae.holds(last - 1) && ae.holds(1));
    }

    #[test]
    fn digest_carries_the_newest_entries_every_round() {
        let mut ae: AntiEntropy<u8> = AntiEntropy::new(on());
        assert_eq!(ae.digest(1), None, "nothing cached");
        let last = DIGEST_ENTRIES as u64 + 2;
        for e in 1..=last {
            ae.insert(e, e as u32 * 10, 0, e);
        }
        let newest: Vec<(u64, u32)> = (3..=last).map(|e| (e, e as u32 * 10)).collect();
        assert_eq!(ae.digest(last), Some(newest.clone()));
        assert_eq!(ae.digest(last + 1), Some(newest), "no off-cadence round");
    }

    #[test]
    fn on_digest_requests_only_interesting_gaps() {
        let mut ae: AntiEntropy<u8> = AntiEntropy::new(on());
        ae.insert(5, 0, 0, 1); // already cached
        let fresh = ae.on_digest(
            n(9),
            &[(1, 0), (2, 99), (3, 0), (5, 0)],
            4,
            |t| t != 99, // not interested in topic 99
            |e| e == 3,  // already have event 3
        );
        assert_eq!(fresh, vec![1]);
        assert_eq!(ae.pending(), 1);
        // A second digest for a known want adds an advertiser, no re-ask.
        let again = ae.on_digest(n(11), &[(1, 0)], 5, |_| true, |_| false);
        assert!(again.is_empty());
        assert_eq!(ae.pending(), 1);
    }

    #[test]
    fn retries_rotate_advertisers_and_back_off() {
        let mut ae: AntiEntropy<u8> = AntiEntropy::new(on());
        // The digest from the first advertiser is the first attempt.
        ae.on_digest(n(1), &[(42, 0)], 0, |_| true, |_| false);
        ae.on_digest(n(2), &[(42, 0)], 0, |_| true, |_| false);
        // Retry k asks the advertisers in rotation, starting with the
        // second, and each backs off twice as far as the one before.
        let mut due = BACKOFF_ROUNDS;
        for k in 1..PULL_RETRIES {
            assert!(ae.due_pulls(due - 1).is_empty(), "not due yet");
            assert_eq!(ae.due_pulls(due), vec![(n(k % 2 + 1), vec![42])]);
            due += BACKOFF_ROUNDS << k;
        }
        // Budget spent: the next due pass abandons the want.
        let before = EXHAUSTED_PULLS.load(Ordering::Relaxed);
        assert!(ae.due_pulls(100).is_empty());
        assert_eq!(ae.pending(), 0);
        assert_eq!(ae.exhausted(), 1);
        assert_eq!(EXHAUSTED_PULLS.load(Ordering::Relaxed), before + 1);
        assert!(exhausted_pull_status().is_some());
    }

    #[test]
    fn due_pulls_group_per_target_in_ascending_order() {
        let mut ae: AntiEntropy<u8> = AntiEntropy::new(on());
        ae.on_digest(n(5), &[(10, 0)], 0, |_| true, |_| false);
        ae.on_digest(n(3), &[(11, 0)], 0, |_| true, |_| false);
        ae.on_digest(n(5), &[(12, 0)], 0, |_| true, |_| false);
        let asks = ae.due_pulls(BACKOFF_ROUNDS);
        assert_eq!(asks, vec![(n(3), vec![11]), (n(5), vec![10, 12])]);
    }

    #[test]
    fn normal_arrival_satisfies_an_outstanding_want() {
        let mut ae: AntiEntropy<u8> = AntiEntropy::new(on());
        ae.on_digest(n(1), &[(8, 0)], 0, |_| true, |_| false);
        assert_eq!(ae.pending(), 1);
        ae.insert(8, 0, 0, 1); // the flood got there after all
        assert_eq!(ae.pending(), 0);
        assert!(ae.holds(8));
    }

    #[test]
    fn target_sampling_is_deterministic_and_bounded() {
        let ae: AntiEntropy<u8> = AntiEntropy::new(on());
        let nbrs: Vec<NodeIdx> = (0..10).map(NodeIdx).collect();
        let pick = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            ae.pick_targets(nbrs.clone(), &mut rng)
        };
        assert_eq!(pick(7), pick(7), "same stream, same sample");
        assert_eq!(pick(7).len(), DIGEST_FANOUT);
        let mut one = pick(7);
        one.sort();
        one.dedup();
        assert_eq!(one.len(), DIGEST_FANOUT, "targets are distinct");
        assert_eq!(
            ae.pick_targets(nbrs[..1].to_vec(), &mut SmallRng::seed_from_u64(1))
                .len(),
            1
        );
        assert!(ae
            .pick_targets(Vec::new(), &mut SmallRng::seed_from_u64(1))
            .is_empty());
    }
}
