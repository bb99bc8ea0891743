//! Topics, subscription sets and publication-rate tables.

use std::sync::Arc;
use vitis_overlay::id::Id;

/// A topic identifier, dense from zero within a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TopicId(pub u32);

impl TopicId {
    /// The topic's rendezvous identifier `hash(t)` on the ring.
    #[inline]
    pub fn ring_id(self) -> Id {
        Id::of_topic(self.0)
    }
}

impl std::fmt::Display for TopicId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A node's subscription set: sorted, de-duplicated topic ids.
///
/// Kept sorted so that membership is a binary search and set operations are
/// linear merges — these run in the innermost loop of friend selection.
/// Immutable once built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopicSet {
    topics: Vec<u32>,
}

impl TopicSet {
    /// The empty set.
    pub fn new() -> Self {
        TopicSet { topics: Vec::new() }
    }

    /// Build from arbitrary ids (sorts and de-duplicates).
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut topics: Vec<u32> = iter.into_iter().collect();
        topics.sort_unstable();
        topics.dedup();
        TopicSet { topics }
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, t: TopicId) -> bool {
        self.topics.binary_search(&t.0).is_ok()
    }

    /// Iterate the topics in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = TopicId> + '_ {
        self.topics.iter().map(|&t| TopicId(t))
    }

    /// The set's topics below `end`, ascending, as raw ids.
    #[inline]
    pub(crate) fn below(&self, end: usize) -> &[u32] {
        let t = &self.topics[..];
        match t.last() {
            Some(&last) if last as usize >= end => &t[..t.partition_point(|&x| (x as usize) < end)],
            _ => t,
        }
    }

    /// Call `f(index in self, index in other, topic)` for every topic in
    /// both sets, in ascending order (linear merge).
    pub fn for_each_common(&self, other: &TopicSet, mut f: impl FnMut(usize, usize, TopicId)) {
        let (a, b) = (&self.topics[..], &other.topics[..]);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            if x == y {
                f(i, j, TopicId(x));
            }
            i += (x <= y) as usize;
            j += (y <= x) as usize;
        }
    }

    /// Size of the intersection with `other`.
    pub fn intersection_len(&self, other: &TopicSet) -> usize {
        let mut n = 0;
        self.for_each_common(other, |_, _, _| n += 1);
        n
    }

    /// Rate-weighted intersection and union masses against `other`:
    /// `(Σ_{t ∈ A∩B} rate(t), Σ_{t ∈ A∪B} rate(t))` in one merge pass.
    ///
    /// The merge is branch-free: which side holds the smaller topic is
    /// unpredictable, so each step takes the minimum, adds its rate to the
    /// union and `rate` or `+0.0` to the intersection, and advances both
    /// cursors by comparison results. Every addition happens in ascending
    /// topic order on the same operands a three-way branch would use, and
    /// adding `+0.0` to a sum that is never `-0.0` (it starts at `+0.0`)
    /// is exact — so the result is bit-identical to the branching merge.
    pub fn weighted_overlap(&self, other: &TopicSet, rates: &RateTable) -> (f64, f64) {
        let (a, b) = (&self.topics[..], &other.topics[..]);
        let (mut i, mut j) = (0, 0);
        let mut inter = 0.0;
        let mut union = 0.0;
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            let r = rates.rate(TopicId(x.min(y)));
            union += r;
            inter += if x == y { r } else { 0.0 };
            i += (x <= y) as usize;
            j += (y <= x) as usize;
        }
        for &t in &a[i..] {
            union += rates.rate(TopicId(t));
        }
        for &t in &b[j..] {
            union += rates.rate(TopicId(t));
        }
        (inter, union)
    }
}

impl FromIterator<u32> for TopicSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        TopicSet::from_iter(iter)
    }
}

/// Shared, immutable subscription set as carried in gossip descriptors.
///
/// An `Arc`, not an `Rc`: [`crate::system::SystemParams`] holds these
/// handles and is sent to the sweep runner's worker threads, where each
/// worker builds and runs its own system.
pub type Subs = Arc<TopicSet>;

/// Per-topic publication rates, the `rate(t)` of Equation 1. The paper's
/// default is uniform; the α-sweep experiment installs a Zipf profile.
///
/// A table whose rates are all one whole number `w`, with `n·w` at most
/// 2^53 over its `n` topics, is *counted*: every partial sum of its rates
/// is `w` times a topic count, exact in `f64` whatever the order of the
/// additions, and `w` cancels exactly in Equation 1's quotient. Equation 1
/// can then be counted in topics and still give the bits of the ordered
/// merge (`utility::rank_by_utility`).
#[derive(Clone, Debug)]
pub struct RateTable {
    rates: Vec<f64>,
    /// For a counted table, how many topics weigh its whole rate: `n`, or
    /// 0 when that rate is 0 (every topic then weighs nothing, as past
    /// the table's end). `None` sends Equation 1 down the ordered merge.
    counted: Option<usize>,
}

/// The largest total rate mass whose integer partial sums are all exact
/// in `f64` (its 53-bit significand).
const EXACT_TOTAL: u64 = 1 << 53;

/// The topics that weigh the table's rate, if `rates` is counted (see
/// [`RateTable`]).
fn counted_topics(rates: &[f64]) -> Option<usize> {
    let Some(&w) = rates.first() else {
        return Some(0);
    };
    let whole = w.fract() == 0.0 && rates.iter().all(|&r| r == w);
    // `as` saturates, and a saturated rate fails the bound.
    let exact = (w as u64)
        .checked_mul(rates.len() as u64)
        .is_some_and(|total| total <= EXACT_TOTAL);
    (whole && exact).then_some(if w == 0.0 { 0 } else { rates.len() })
}

impl RateTable {
    fn new(rates: Vec<f64>) -> Self {
        let counted = counted_topics(&rates);
        RateTable { rates, counted }
    }

    /// Uniform rate 1.0 for `num_topics` topics.
    pub fn uniform(num_topics: usize) -> Self {
        RateTable::new(vec![1.0; num_topics])
    }

    /// Explicit per-topic rates.
    ///
    /// # Panics
    /// Panics if any rate is negative or non-finite.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be finite and non-negative"
        );
        RateTable::new(rates)
    }

    /// The same rates, not counted, so Equation 1 takes the ordered merge:
    /// the reference the count is tested against.
    #[cfg(test)]
    pub(crate) fn ordered_only(mut self) -> Self {
        self.counted = None;
        self
    }

    /// For a counted table (see [`RateTable`]), the number of topics, from
    /// zero, that weigh its one rate; every other topic weighs nothing.
    #[inline]
    pub(crate) fn counted_topics(&self) -> Option<usize> {
        self.counted
    }

    /// Number of topics covered.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// The rate of a topic (0 for unknown topics, which makes them
    /// "practically ignored in the preference function", as the paper puts
    /// it for rate-zero topics).
    #[inline]
    pub fn rate(&self, t: TopicId) -> f64 {
        self.rates.get(t.0 as usize).copied().unwrap_or(0.0)
    }

    /// Total rate mass (used to normalize publish schedules).
    pub fn total(&self) -> f64 {
        self.rates.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[u32]) -> TopicSet {
        TopicSet::from_iter(v.iter().copied())
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let s = ts(&[5, 1, 5, 3]);
        assert_eq!(s.len(), 3);
        let got: Vec<u32> = s.iter().map(|t| t.0).collect();
        assert_eq!(got, vec![1, 3, 5]);
    }

    #[test]
    fn contains_finds_exactly_the_members() {
        let s = ts(&[4, 2]);
        assert!(s.contains(TopicId(2)) && s.contains(TopicId(4)));
        assert!(!s.contains(TopicId(3)) && !s.contains(TopicId(5)));
        assert!(!TopicSet::new().contains(TopicId(0)));
    }

    #[test]
    fn intersection_len_merges() {
        assert_eq!(ts(&[1, 2, 3]).intersection_len(&ts(&[2, 3, 4])), 2);
        assert_eq!(ts(&[]).intersection_len(&ts(&[1])), 0);
        assert_eq!(ts(&[7]).intersection_len(&ts(&[7])), 1);
    }

    #[test]
    fn weighted_overlap_uniform_matches_counts() {
        let rates = RateTable::uniform(10);
        let (i, u) = ts(&[1, 2, 3]).weighted_overlap(&ts(&[3, 4]), &rates);
        assert!((i - 1.0).abs() < 1e-12);
        assert!((u - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_overlap_respects_rates() {
        let rates = RateTable::from_rates(vec![0.0, 10.0, 1.0]);
        // A = {0,1}, B = {1,2}: inter = rate(1) = 10, union = 0+10+1 = 11.
        let (i, u) = ts(&[0, 1]).weighted_overlap(&ts(&[1, 2]), &rates);
        assert!((i - 10.0).abs() < 1e-12);
        assert!((u - 11.0).abs() < 1e-12);
    }

    /// The three-way-branch merge `weighted_overlap` replaced, kept as the
    /// reference the branch-free one must match bit for bit.
    fn weighted_overlap_branching(a: &TopicSet, b: &TopicSet, rates: &RateTable) -> (f64, f64) {
        let (mut i, mut j) = (0, 0);
        let (mut inter, mut union) = (0.0, 0.0);
        while i < a.topics.len() && j < b.topics.len() {
            match a.topics[i].cmp(&b.topics[j]) {
                std::cmp::Ordering::Less => {
                    union += rates.rate(TopicId(a.topics[i]));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    union += rates.rate(TopicId(b.topics[j]));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let r = rates.rate(TopicId(a.topics[i]));
                    inter += r;
                    union += r;
                    i += 1;
                    j += 1;
                }
            }
        }
        for &t in &a.topics[i..] {
            union += rates.rate(TopicId(t));
        }
        for &t in &b.topics[j..] {
            union += rates.rate(TopicId(t));
        }
        (inter, union)
    }

    #[test]
    fn weighted_overlap_is_bit_identical_to_the_branching_merge() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        const TOPICS: usize = 96;
        let mut signed_zeros = vec![0.0; TOPICS];
        for (t, r) in signed_zeros.iter_mut().enumerate() {
            *r = [-0.0, 0.0, 0.3, 1e-300][t % 4];
        }
        let tables = [
            RateTable::uniform(TOPICS),
            RateTable::from_rates((1..=TOPICS).map(|k| 1.0 / (k as f64).powf(1.3)).collect()),
            RateTable::from_rates(vec![0.0; TOPICS]),
            RateTable::from_rates(vec![-0.0; TOPICS]),
            RateTable::from_rates(signed_zeros),
        ];
        let mut rng = SmallRng::seed_from_u64(13);
        // Topics range past the tables' length: those rate 0.
        let random_set = |rng: &mut SmallRng| {
            let n = rng.gen_range(0..60);
            TopicSet::from_iter((0..n).map(|_| rng.gen_range(0..TOPICS as u32 + 32)))
        };
        let mut pairs = vec![
            (ts(&[]), ts(&[])),
            (ts(&[]), ts(&[1, 2, 100])),
            (ts(&[0, 2, 4, 200]), ts(&[1, 3, 5, 201])),
        ];
        for _ in 0..300 {
            let a = random_set(&mut rng);
            let b = random_set(&mut rng);
            let nested = TopicSet::from_iter(a.iter().map(|t| t.0).filter(|_| rng.gen_bool(0.5)));
            pairs.push((a.clone(), a.clone()));
            pairs.push((a.clone(), nested));
            pairs.push((a, b));
        }
        for rates in &tables {
            for (a, b) in &pairs {
                for (x, y) in [(a, b), (b, a)] {
                    let (i, u) = x.weighted_overlap(y, rates);
                    let (ri, ru) = weighted_overlap_branching(x, y, rates);
                    assert_eq!(i.to_bits(), ri.to_bits(), "inter {x:?} {y:?}");
                    assert_eq!(u.to_bits(), ru.to_bits(), "union {x:?} {y:?}");
                }
            }
        }
    }

    #[test]
    fn for_each_common_visits_the_intersection_in_order() {
        let a = ts(&[1, 4, 6, 9, 12]);
        let mut seen = Vec::new();
        let b = ts(&[0, 4, 5, 9, 12, 13]);
        a.for_each_common(&b, |i, j, t| seen.push((i, j, t.0)));
        assert_eq!(seen, vec![(1, 1, 4), (3, 3, 9), (4, 4, 12)]);
        seen.clear();
        b.for_each_common(&a, |i, j, t| seen.push((i, j, t.0)));
        assert_eq!(seen, vec![(1, 1, 4), (3, 3, 9), (4, 4, 12)]);
        seen.clear();
        ts(&[2, 9, 40]).for_each_common(&ts(&[1, 2, 3, 4, 40]), |i, j, t| seen.push((i, j, t.0)));
        assert_eq!(seen, vec![(0, 1, 2), (2, 4, 40)]);
        a.for_each_common(&ts(&[]), |_, _, _| panic!("empty intersection"));
    }

    #[test]
    fn rate_of_unknown_topic_is_zero() {
        let rates = RateTable::uniform(2);
        assert_eq!(rates.rate(TopicId(5)), 0.0);
        assert_eq!(rates.rate(TopicId(1)), 1.0);
        assert!((rates.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rates_rejected() {
        RateTable::from_rates(vec![1.0, -0.5]);
    }

    #[test]
    fn ring_ids_are_stable_and_distinct() {
        assert_eq!(TopicId(3).ring_id(), TopicId(3).ring_id());
        assert_ne!(TopicId(3).ring_id(), TopicId(4).ring_id());
    }
}
