//! Symphony-style navigable small-world link selection.
//!
//! Symphony draws long-range link *distances* from the harmonic density
//! `p(d) ∝ 1/d` over `d ∈ [1/N, 1]` of the unit ring, which Kleinberg showed
//! yields greedy routing in `O(log²N / k)` hops with `k` such links. Vitis
//! keeps the distribution but acquires the links through gossip: each round a
//! node draws a target distance and adopts, from its current candidate
//! buffer, the node whose clockwise distance best matches the draw
//! (`select-sw-neighbor(RANDOM-DISTANCE)` of Algorithm 4).

use crate::entry::Entry;
use crate::id::Id;
use rand::Rng;

/// Draw a clockwise ring distance from the Symphony harmonic distribution,
/// scaled to the `u64` identifier space. `est_n` is the (estimated) network
/// size; draws land in `[space/est_n, space]`.
pub fn harmonic_distance<R: Rng>(est_n: usize, rng: &mut R) -> u64 {
    let n = est_n.max(2) as f64;
    // d_unit = exp((x - 1) * ln N) for x uniform in [0, 1) → density 1/d.
    let x: f64 = rng.gen();
    let d_unit = ((x - 1.0) * n.ln()).exp();
    let space = 2.0f64.powi(64);
    let d = (d_unit * space).round();
    if d >= space {
        u64::MAX
    } else {
        (d as u64).max(1)
    }
}

/// How well a candidate at clockwise distance `cand` matches a target
/// distance `want`: the absolute log-ratio, so "half as far" and "twice as
/// far" are equally bad — appropriate for a scale-free distribution.
#[inline]
fn log_mismatch(want: u64, cand: u64) -> f64 {
    ((cand.max(1) as f64).ln() - (want.max(1) as f64).ln()).abs()
}

/// Pick from `candidates` the best small-world neighbor for `self_id` given
/// a freshly drawn target distance: the candidate whose clockwise distance
/// from `self_id` is closest (in log scale) to the draw. Candidates at
/// distance zero (self) are skipped. Returns the index into `candidates`.
pub fn select_sw_neighbor<P, R: Rng>(
    self_id: Id,
    candidates: &[Entry<P>],
    est_n: usize,
    rng: &mut R,
) -> Option<usize> {
    let want = harmonic_distance(est_n, rng);
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let d = self_id.distance_cw(c.id);
        if d == 0 {
            continue;
        }
        let m = log_mismatch(want, d);
        if best.is_none_or(|(_, bm)| m < bm) {
            best = Some((i, m));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vitis_sim::event::NodeIdx;

    fn entry(id: u64) -> Entry<()> {
        Entry {
            addr: NodeIdx(id as u32),
            id: Id(id),
            age: 0,
            payload: (),
        }
    }

    #[test]
    fn harmonic_distance_in_range() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let d = harmonic_distance(1000, &mut rng);
            assert!(d >= 1);
        }
    }

    #[test]
    fn harmonic_distance_is_log_uniform() {
        // For p(d) ∝ 1/d over [space/N, space], the log of the distance is
        // uniform: each decade of scale should receive a similar share.
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 1 << 20;
        let lo_exp = 64.0 - (n as f64).log2(); // log2 of the minimum draw
        let mut decades = [0u32; 4];
        let samples = 40_000;
        for _ in 0..samples {
            let d = harmonic_distance(n, &mut rng) as f64;
            let pos = (d.log2() - lo_exp) / (64.0 - lo_exp); // 0..1
            let idx = (pos.clamp(0.0, 0.999) * 4.0) as usize;
            decades[idx] += 1;
        }
        for (i, &c) in decades.iter().enumerate() {
            let share = c as f64 / samples as f64;
            assert!(
                (share - 0.25).abs() < 0.03,
                "quartile {i} share {share}, expected ~0.25"
            );
        }
    }

    #[test]
    fn log_mismatch_symmetric_in_ratio() {
        assert!((log_mismatch(100, 200) - log_mismatch(100, 50)).abs() < 1e-12);
        assert_eq!(log_mismatch(64, 64), 0.0);
    }

    #[test]
    fn select_skips_self_and_picks_scale_match() {
        let self_id = Id(0);
        let near = entry(1 << 8);
        let far = entry(1 << 56);
        let me = entry(0);
        let cands = vec![me, near, far];
        let mut rng = SmallRng::seed_from_u64(1);
        let mut picked_near = 0;
        let mut picked_far = 0;
        // Large est_n widens the draw range to [2^4, 2^64] so both the near
        // (2^8) and far (2^56) candidates can win the log-scale match.
        for _ in 0..200 {
            match select_sw_neighbor(self_id, &cands, 1 << 60, &mut rng) {
                Some(1) => picked_near += 1,
                Some(2) => picked_far += 1,
                Some(0) => panic!("picked self"),
                _ => panic!("no pick"),
            }
        }
        // Both scales get picked; draws span the whole range.
        assert!(picked_near > 0 && picked_far > 0);
    }

    #[test]
    fn select_none_when_only_self() {
        let mut rng = SmallRng::seed_from_u64(1);
        let cands = vec![entry(0)];
        assert_eq!(select_sw_neighbor(Id(0), &cands, 100, &mut rng), None);
        assert_eq!(select_sw_neighbor::<(), _>(Id(0), &[], 100, &mut rng), None);
    }
}
