//! Shared system-harness machinery: the workload bookkeeping every
//! publish/subscribe system (Vitis, RVR, OPT) needs around its engine —
//! ground-truth subscriber sets, publisher choice, rate-weighted topic
//! draws, and the join-grace rule for expected deliveries.

use crate::topic::{RateTable, Subs, TopicId};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use vitis_sim::event::NodeIdx;
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::time::{Duration, SimTime};

/// Ground-truth subscription state and publish-scheduling helpers. Logical
/// node ids coincide with engine slots (systems allocate slots in logical
/// order and re-join into the same slot).
///
/// A logical node's subscriptions are fixed for the run: its [`Subs`]
/// handle is made here, once, and every node built for it — at start and
/// at each rejoin — advertises that same `Arc`, so every descriptor and
/// heartbeat naming the node carries it too. Routing tables and OPT's
/// links keep the handle a peer first brought, and the Vitis cache keyed
/// on a peer (the election's common-topic pairs) `debug_assert!`s that it
/// is the one it was computed from.
pub struct Workload {
    subs: Vec<Subs>,
    topic_subscribers: Vec<Vec<u32>>,
    /// An `Arc`, not an `Rc`, because [`Workload::rates`] hands the handle
    /// out and the benchmark's replays store it as one.
    rates: Arc<RateTable>,
    cum_rates: Vec<f64>,
    grace: Duration,
    rng: SmallRng,
}

impl Workload {
    /// Build from per-node subscription sets over `num_topics` topics.
    /// Accepts owned [`TopicSet`](crate::topic::TopicSet)s or
    /// already-interned [`Subs`] handles (the latter avoids re-allocating
    /// shared subscription storage).
    ///
    /// # Panics
    /// Panics if a subscription references a topic `>= num_topics`.
    pub fn new<S: Into<Subs>>(
        subscriptions: Vec<S>,
        num_topics: usize,
        rates: RateTable,
        grace: Duration,
        seed: u64,
    ) -> Self {
        let subscriptions: Vec<Subs> = subscriptions.into_iter().map(Into::into).collect();
        let mut topic_subscribers = vec![Vec::new(); num_topics];
        for (i, s) in subscriptions.iter().enumerate() {
            for t in s.iter() {
                assert!(
                    (t.0 as usize) < num_topics,
                    "subscription to unknown topic {t}"
                );
                topic_subscribers[t.0 as usize].push(i as u32);
            }
        }
        let mut cum_rates = Vec::with_capacity(num_topics);
        let mut acc = 0.0;
        for t in 0..num_topics {
            acc += rates.rate(TopicId(t as u32)).max(0.0);
            cum_rates.push(acc);
        }
        Workload {
            subs: subscriptions,
            topic_subscribers,
            rates: Arc::new(rates),
            cum_rates,
            grace,
            rng: stream_rng(seed, domain::PUBLISH, 0),
        }
    }

    /// Number of logical nodes.
    pub fn num_nodes(&self) -> usize {
        self.subs.len()
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.topic_subscribers.len()
    }

    /// The shared rate table.
    pub fn rates(&self) -> &Arc<RateTable> {
        &self.rates
    }

    /// The subscription set of a logical node.
    pub fn subs_of(&self, logical: u32) -> &Subs {
        &self.subs[logical as usize]
    }

    /// All logical subscribers of `topic`.
    pub fn subscribers(&self, topic: TopicId) -> &[u32] {
        &self.topic_subscribers[topic.0 as usize]
    }

    /// Draw a topic with probability proportional to its publication rate
    /// (uniform if all rates are zero).
    pub fn draw_topic(&mut self) -> TopicId {
        let total = *self.cum_rates.last().unwrap_or(&0.0);
        if total <= 0.0 {
            return TopicId(self.rng.gen_range(0..self.num_topics().max(1)) as u32);
        }
        let x = self.rng.gen::<f64>() * total;
        let i = self.cum_rates.partition_point(|&c| c <= x);
        TopicId(i.min(self.num_topics() - 1) as u32)
    }

    /// Pick a random publisher for `topic` among subscribers satisfying
    /// `alive` (the paper publishes from within the topic's population).
    pub fn choose_publisher(
        &mut self,
        topic: TopicId,
        mut alive: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let cands: Vec<u32> = self.topic_subscribers[topic.0 as usize]
            .iter()
            .copied()
            .filter(|&s| alive(s))
            .collect();
        if cands.is_empty() {
            None
        } else {
            Some(cands[self.rng.gen_range(0..cands.len())])
        }
    }

    /// The expected-delivery set for an event on `topic` published at
    /// `now`: alive subscribers other than the publisher whose join time is
    /// at least the grace period in the past (the "10 seconds after the
    /// node joins" rule of Section IV-E).
    pub fn expected_subscribers(
        &self,
        topic: TopicId,
        publisher: u32,
        now: SimTime,
        mut joined_at: impl FnMut(u32) -> Option<SimTime>,
    ) -> Vec<NodeIdx> {
        self.topic_subscribers[topic.0 as usize]
            .iter()
            .copied()
            .filter(|&s| s != publisher)
            .filter_map(|s| {
                let j = joined_at(s)?;
                (j + self.grace <= now).then_some(NodeIdx(s))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicSet;

    fn ts(v: &[u32]) -> TopicSet {
        TopicSet::from_iter(v.iter().copied())
    }

    fn workload() -> Workload {
        Workload::new(
            vec![ts(&[0, 1]), ts(&[1]), ts(&[0, 2]), ts(&[])],
            3,
            RateTable::uniform(3),
            Duration(10),
            7,
        )
    }

    #[test]
    fn subscriber_index_is_inverted_correctly() {
        let w = workload();
        assert_eq!(w.subscribers(TopicId(0)), &[0, 2]);
        assert_eq!(w.subscribers(TopicId(1)), &[0, 1]);
        assert_eq!(w.subscribers(TopicId(2)), &[2]);
        assert_eq!(w.num_nodes(), 4);
        assert_eq!(w.num_topics(), 3);
    }

    #[test]
    fn choose_publisher_respects_aliveness() {
        let mut w = workload();
        assert_eq!(w.choose_publisher(TopicId(2), |_| true), Some(2));
        assert_eq!(w.choose_publisher(TopicId(2), |_| false), None);
        let p = w.choose_publisher(TopicId(0), |s| s != 0).unwrap();
        assert_eq!(p, 2);
    }

    #[test]
    fn expected_excludes_publisher_and_recent_joiners() {
        let w = workload();
        let joined = |s: u32| -> Option<SimTime> {
            match s {
                0 => Some(SimTime(0)),
                1 => Some(SimTime(95)), // joined too recently for grace 10
                _ => None,              // offline
            }
        };
        let exp = w.expected_subscribers(TopicId(1), 0, SimTime(100), joined);
        assert!(exp.is_empty());
        let exp = w.expected_subscribers(TopicId(1), 99, SimTime(100), joined);
        assert_eq!(exp, vec![NodeIdx(0)]);
        let exp = w.expected_subscribers(TopicId(1), 99, SimTime(200), joined);
        assert_eq!(exp, vec![NodeIdx(0), NodeIdx(1)]);
    }

    #[test]
    fn draw_topic_follows_rates() {
        let mut w = Workload::new(
            vec![ts(&[0])],
            3,
            RateTable::from_rates(vec![0.0, 0.0, 5.0]),
            Duration(0),
            1,
        );
        for _ in 0..100 {
            assert_eq!(w.draw_topic(), TopicId(2));
        }
    }

    #[test]
    fn draw_topic_uniform_when_rates_zero() {
        let mut w = Workload::new(
            vec![ts(&[0])],
            4,
            RateTable::from_rates(vec![0.0; 4]),
            Duration(0),
            1,
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(w.draw_topic().0);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown topic")]
    fn unknown_topic_subscription_panics() {
        Workload::new(vec![ts(&[9])], 3, RateTable::uniform(3), Duration(0), 1);
    }
}
