//! The preference (utility) function of Equation 1.
//!
//! ```text
//!               Σ_{t ∈ subs(i) ∩ subs(j)} rate(t)
//! utility(i,j) = ---------------------------------
//!               Σ_{t ∈ subs(i) ∪ subs(j)} rate(t)
//! ```
//!
//! With uniform rates this is the Jaccard similarity of the subscription
//! sets; skewed rates weight the overlap toward hot topics, which is what
//! makes Vitis adapt its clustering to the publication workload (the α-sweep
//! of Figure 7).

use crate::topic::{RateTable, TopicSet};
use std::cell::Cell;

/// Pairwise utility of two subscription sets under a rate table. Returns
/// zero when the union has no rate mass (disjoint or all-cold topics).
///
/// This is the ordered merge: every mass is summed in ascending topic
/// order, which fractional rates (Figure 7's Zipf profile) need for their
/// bits. A ranking of many peers against one node goes through
/// `rank_by_utility`, which counts instead whenever the rates allow it.
pub fn utility(a: &TopicSet, b: &TopicSet, rates: &RateTable) -> f64 {
    let (inter, union) = a.weighted_overlap(b, rates);
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Run `rank` with Equation 1 against `own`: the evaluator it is handed
/// returns `utility(own, b, rates)`, bit for bit, for any peer set `b`.
///
/// On a counted table (see [`RateTable`]: every topic below `n` weighs one
/// whole rate `w`, every other topic nothing) an evaluation is one pass
/// over `b`'s topics below `n`, counting them, and counting those that
/// `own` holds, read from a per-thread bitmap in which `own`'s topics are
/// marked before `rank` runs and cleared after it, panic or not. Then
/// `union = |own| + |b| − inter` in topics. The ordered merge sums `w·inter`
/// and `w·union`, both exact, and `w` cancels exactly in the quotient, so
/// the counted quotient is the ordered merge's. Any other table takes
/// [`utility`]. Debug builds recompute every eighth counted evaluation
/// through the ordered merge and compare the bits.
pub(crate) fn rank_by_utility<R>(
    own: &TopicSet,
    rates: &RateTable,
    rank: impl FnOnce(&dyn Fn(&TopicSet) -> f64) -> R,
) -> R {
    let Some(topics) = rates.counted_topics() else {
        return rank(&|b| utility(own, b, rates));
    };
    let marks = Marks::set(own, topics);
    let evaluations = Cell::new(0u32);
    rank(&|b| {
        let u = marks.utility(b);
        let n = evaluations.replace(evaluations.get().wrapping_add(1));
        debug_assert!(
            !n.is_multiple_of(8) || u.to_bits() == utility(own, b, rates).to_bits(),
            "the marked count differs from the ordered merge"
        );
        u
    })
}

thread_local! {
    /// The bitmap [`Marks`] borrows: all-zero whenever no ranking is
    /// running on this thread, and as wide as the widest rate table ranked
    /// against here, one bit per topic. It is per thread, not per node.
    static SCRATCH: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// A node's own topics marked in the thread's scratch bitmap, with their
/// count. Dropping it clears the marks and hands the bitmap back.
struct Marks<'a> {
    own: &'a TopicSet,
    bits: Vec<u64>,
    /// The topics counted: those below it weigh the table's rate.
    topics: usize,
    own_count: u64,
}

impl<'a> Marks<'a> {
    /// Mark `own`'s topics below `topics`; the others weigh nothing and
    /// stay unmarked.
    fn set(own: &'a TopicSet, topics: usize) -> Self {
        let mut bits = SCRATCH.take();
        let words = topics.div_ceil(64);
        if bits.len() < words {
            bits.resize(words, 0);
        }
        let marked = own.below(topics);
        for &t in marked {
            bits[t as usize / 64] |= 1 << (t % 64);
        }
        let own_count = marked.len() as u64;
        Marks {
            own,
            bits,
            topics,
            own_count,
        }
    }

    /// Equation 1 of the marked set against `other`, counted in topics.
    #[inline]
    fn utility(&self, other: &TopicSet) -> f64 {
        let theirs = other.below(self.topics);
        let inter: u64 = theirs
            .iter()
            .map(|&t| (self.bits[t as usize / 64] >> (t % 64)) & 1)
            .sum();
        let union = self.own_count + theirs.len() as u64 - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

impl Drop for Marks<'_> {
    fn drop(&mut self) {
        // Only the marked words can be non-zero.
        for t in self.own.iter() {
            if let Some(word) = self.bits.get_mut(t.0 as usize / 64) {
                *word = 0;
            }
        }
        let bits = std::mem::take(&mut self.bits);
        // `try_with`: a drop must not panic, even during thread exit.
        let _ = SCRATCH.try_with(|scratch| scratch.set(bits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicId;

    fn ts(v: &[u32]) -> TopicSet {
        TopicSet::from_iter(v.iter().copied())
    }

    /// The worked example from Section III-A2 of the paper: p = {A,B,C},
    /// q = {C,D}, r = {C,D,E,F,G,H} with uniform rates gives
    /// utility(p,q) = 0.25, utility(p,r) = 0.125, utility(q,r) = 0.33.
    #[test]
    fn paper_worked_example() {
        let rates = RateTable::uniform(8);
        let p = ts(&[0, 1, 2]); // A B C
        let q = ts(&[2, 3]); // C D
        let r = ts(&[2, 3, 4, 5, 6, 7]); // C D E F G H
        assert!((utility(&p, &q, &rates) - 0.25).abs() < 1e-12);
        assert!((utility(&p, &r, &rates) - 0.125).abs() < 1e-12);
        assert!((utility(&q, &r, &rates) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let rates = RateTable::uniform(10);
        let a = ts(&[1, 2, 3]);
        let b = ts(&[3, 4]);
        assert_eq!(utility(&a, &b, &rates), utility(&b, &a, &rates));
    }

    #[test]
    fn identical_sets_have_utility_one() {
        let rates = RateTable::uniform(10);
        let a = ts(&[1, 5, 9]);
        assert!((utility(&a, &a, &rates) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sets_have_utility_zero() {
        let rates = RateTable::uniform(10);
        assert_eq!(utility(&ts(&[1, 2]), &ts(&[3, 4]), &rates), 0.0);
        assert_eq!(utility(&ts(&[]), &ts(&[]), &rates), 0.0);
    }

    /// "If the publication rate for topic t goes to zero … t is practically
    /// ignored in the preference function."
    #[test]
    fn rate_zero_topics_are_ignored() {
        let mut rates = vec![1.0; 6];
        rates[5] = 0.0;
        let rates = RateTable::from_rates(rates);
        let a = ts(&[0, 5]);
        let b = ts(&[0, 1]);
        // Topic 5 contributes nothing: inter = 1, union = rate(0)+rate(1) = 2.
        assert!((utility(&a, &b, &rates) - 0.5).abs() < 1e-12);
        // Sharing only a rate-zero topic is worth nothing but its union mass
        // is also zero, so other shared topics dominate.
        let c = ts(&[5]);
        let d = ts(&[5]);
        assert_eq!(utility(&c, &d, &rates), 0.0);
    }

    /// "Nodes will give a high utility to one another if they are interested
    /// in a common topic that has a high rate of events."
    #[test]
    fn hot_shared_topics_raise_utility() {
        let cold = RateTable::uniform(4);
        let mut hot_rates = vec![1.0; 4];
        hot_rates[0] = 100.0;
        let hot = RateTable::from_rates(hot_rates);
        let a = ts(&[0, 1]);
        let b = ts(&[0, 2]);
        assert!(utility(&a, &b, &hot) > utility(&a, &b, &cold));
        let _ = TopicId(0); // keep import used in doc context
    }

    /// The marked count gives the ordered merge's bits on every counted
    /// table — one whole rate, 1, 3 or 0 (of either sign), none at all, or
    /// a rate whose total reaches exactly 2^53 — and a table just past the
    /// bound, or whose whole rates differ, or that has a fractional rate,
    /// is not counted, so it ranks by the ordered merge. Each set is
    /// ranked against every other in one ranking, so marks are read many
    /// times between setting and clearing.
    #[test]
    fn marked_counts_equal_the_ordered_merge() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        const TOPICS: usize = 96;
        let max = f64::from(u32::MAX);
        let with = |last: f64| {
            let mut rates = vec![1.0; TOPICS];
            rates[TOPICS - 1] = last;
            RateTable::from_rates(rates)
        };
        // 128 topics of 2^46 total 2^53 exactly.
        let wide = |w: u64| RateTable::from_rates(vec![w as f64; 128]);
        let mut signed_zeros = vec![0.0; TOPICS];
        for (t, r) in signed_zeros.iter_mut().enumerate() {
            *r = [-0.0, 0.0, 1.0, 7.0][t % 4];
        }
        let tables = [
            (RateTable::uniform(TOPICS), true),
            (RateTable::from_rates(vec![3.0; TOPICS]), true),
            (RateTable::from_rates(vec![0.0; TOPICS]), true),
            (RateTable::from_rates(vec![-0.0; TOPICS]), true),
            (
                RateTable::from_rates((0..TOPICS).map(|t| [-0.0, 0.0][t % 2]).collect()),
                true,
            ),
            (RateTable::uniform(0), true),
            (wide(1 << 46), true),
            (wide((1 << 46) + 1), false),
            (RateTable::from_rates(signed_zeros), false),
            (
                RateTable::from_rates((0..TOPICS).map(|t| (t * 37 % 11 * 1000) as f64).collect()),
                false,
            ),
            (with(max), false),
            (with(0.5), false),
            (
                RateTable::from_rates((1..=TOPICS).map(|k| 1.0 / (k as f64).powf(1.3)).collect()),
                false,
            ),
        ];
        let mut rng = SmallRng::seed_from_u64(13);
        for (rates, counted) in &tables {
            assert_eq!(
                rates.counted_topics().is_some(),
                *counted,
                "{}",
                rates.len()
            );
            // Topics from the table's last 96 and 32 past its end: those
            // rate 0.
            let lo = rates.len().saturating_sub(TOPICS) as u32;
            let mut sets = vec![ts(&[]), ts(&[lo]), ts(&[lo + TOPICS as u32 + 5])];
            for _ in 0..60 {
                let n = rng.gen_range(0..60);
                let set =
                    TopicSet::from_iter((0..n).map(|_| lo + rng.gen_range(0..TOPICS as u32 + 32)));
                let nested =
                    TopicSet::from_iter(set.iter().map(|t| t.0).filter(|_| rng.gen_bool(0.5)));
                sets.push(set);
                sets.push(nested);
            }
            for a in &sets {
                rank_by_utility(a, rates, |counted| {
                    for b in &sets {
                        let ordered = utility(a, b, rates);
                        assert_eq!(counted(b).to_bits(), ordered.to_bits(), "{a:?} {b:?}");
                    }
                });
            }
        }
    }

    /// The scratch bitmap is all-zero again after a ranking that panics,
    /// so a later ranking on the thread reads only its own marks.
    #[test]
    fn the_scratch_is_all_zero_after_a_ranking_that_panics() {
        let rates = RateTable::uniform(200);
        let own = ts(&[1, 64, 65, 199]);
        let caught = std::panic::catch_unwind(|| {
            rank_by_utility(&own, &rates, |utility| {
                assert_eq!(utility(&ts(&[1, 64, 70, 71])), 2.0 / 6.0);
                panic!("a ranking that panics");
            })
        });
        assert!(caught.is_err());
        let bits = SCRATCH.take();
        assert_eq!(bits.len(), 4, "the bitmap is handed back");
        assert!(bits.iter().all(|&w| w == 0), "{bits:?}");
    }
}
