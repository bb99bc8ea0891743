//! The hybrid routing table and the generic neighbor-selection procedure
//! (the paper's Algorithm 4).
//!
//! A routing table holds, in `rt_size` total entries:
//! * the ring links — one successor and one predecessor (lookup
//!   consistency),
//! * `k_sw` small-world links drawn from the Symphony harmonic distribution
//!   (navigability), and
//! * the remaining entries as *friends*, ranked by a caller-supplied
//!   preference/utility function (similar-subscription clustering).
//!
//! With a utility that is identically zero and `k_sw = rt_size − 2` this
//! degenerates to the structured, subscription-oblivious table used by the
//! RVR baseline — the same code path serves both systems, which is exactly
//! the comparability the paper sets up.

use crate::entry::{merge_dedup, merge_dedup_owned, remove_addr, AddrIndex, Entry};
use crate::id::Id;
use crate::ring::{find_predecessor, find_successor};
use crate::smallworld::select_sw_neighbor;
use rand::Rng;
use std::cell::Cell;
use vitis_sim::event::NodeIdx;

/// Sizing parameters for neighbor selection.
#[derive(Clone, Copy, Debug)]
pub struct RtParams {
    /// Total routing-table size (node degree bound).
    pub rt_size: usize,
    /// Number of small-world links beyond the two ring links.
    pub k_sw: usize,
    /// (Estimated) network size, used by the harmonic distance draw.
    pub est_n: usize,
}

impl RtParams {
    /// Number of friend slots implied by the sizing.
    pub fn num_friends(&self) -> usize {
        self.rt_size.saturating_sub(2 + self.k_sw)
    }
}

/// The role a routing-table entry plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// Ring successor.
    Successor,
    /// Ring predecessor.
    Predecessor,
    /// Symphony small-world link.
    SmallWorld,
    /// Similarity (preference-function) link.
    Friend,
}

impl LinkKind {
    /// Stable lowercase label, used by telemetry exports.
    pub fn as_str(self) -> &'static str {
        match self {
            LinkKind::Successor => "succ",
            LinkKind::Predecessor => "pred",
            LinkKind::SmallWorld => "sw",
            LinkKind::Friend => "friend",
        }
    }
}

/// A bounded hybrid routing table.
#[derive(Clone, Debug, Default)]
pub struct HybridRt<P> {
    /// Ring successor (closest id clockwise).
    pub succ: Option<Entry<P>>,
    /// Ring predecessor (closest id counter-clockwise).
    pub pred: Option<Entry<P>>,
    /// Small-world links.
    pub sw: Vec<Entry<P>>,
    /// Friend (similarity) links.
    pub friends: Vec<Entry<P>>,
}

impl<P: Clone> HybridRt<P> {
    /// An empty table.
    pub fn new() -> Self {
        HybridRt {
            succ: None,
            pred: None,
            sw: Vec::new(),
            friends: Vec::new(),
        }
    }

    /// Heap bytes of the small-world and friend lists (the ring neighbors
    /// are inline), as Σ capacity × descriptor size.
    pub fn heap_bytes(&self) -> u64 {
        ((self.sw.capacity() + self.friends.capacity()) * std::mem::size_of::<Entry<P>>()) as u64
    }

    /// All entries with their link kind.
    pub fn iter_kinds(&self) -> impl Iterator<Item = (LinkKind, &Entry<P>)> {
        self.succ
            .iter()
            .map(|e| (LinkKind::Successor, e))
            .chain(self.pred.iter().map(|e| (LinkKind::Predecessor, e)))
            .chain(self.sw.iter().map(|e| (LinkKind::SmallWorld, e)))
            .chain(self.friends.iter().map(|e| (LinkKind::Friend, e)))
    }

    /// All entries, in successor/predecessor/sw/friend order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<P>> {
        self.iter_kinds().map(|(_, e)| e)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.succ.is_some() as usize
            + self.pred.is_some() as usize
            + self.sw.len()
            + self.friends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries of one [`LinkKind`].
    pub fn count_kind(&self, kind: LinkKind) -> usize {
        match kind {
            LinkKind::Successor => self.succ.is_some() as usize,
            LinkKind::Predecessor => self.pred.is_some() as usize,
            LinkKind::SmallWorld => self.sw.len(),
            LinkKind::Friend => self.friends.len(),
        }
    }

    /// Age of the stalest entry, if the table is non-empty.
    pub fn max_age(&self) -> Option<u16> {
        self.iter().map(|e| e.age).max()
    }

    /// Whether `addr` appears anywhere in the table.
    pub fn contains(&self, addr: NodeIdx) -> bool {
        self.iter().any(|e| e.addr == addr)
    }

    /// `(id, addr)` pairs of every neighbor, for greedy routing.
    pub fn route_candidates(&self) -> Vec<(Id, NodeIdx)> {
        self.iter().map(|e| (e.id, e.addr)).collect()
    }

    /// Addresses of every neighbor.
    pub fn addrs(&self) -> Vec<NodeIdx> {
        self.iter().map(|e| e.addr).collect()
    }

    /// Clone all entries into a gossip buffer.
    pub fn to_vec(&self) -> Vec<Entry<P>> {
        self.iter().cloned().collect()
    }

    /// All entries by value, in the order of [`HybridRt::iter`].
    pub fn into_entries(self) -> impl Iterator<Item = Entry<P>> {
        self.succ
            .into_iter()
            .chain(self.pred)
            .chain(self.sw)
            .chain(self.friends)
    }

    /// Age every entry by one round.
    pub fn age_all(&mut self) {
        for e in self
            .succ
            .iter_mut()
            .chain(self.pred.iter_mut())
            .chain(self.sw.iter_mut())
            .chain(self.friends.iter_mut())
        {
            e.age = e.age.saturating_add(1);
        }
    }

    /// Drop entries older than `max_age`; returns the removed addresses
    /// (the failure-detector expiry of Algorithm 6).
    pub fn expire(&mut self, max_age: u16) -> Vec<NodeIdx> {
        let mut removed = Vec::new();
        let mut check_opt = |slot: &mut Option<Entry<P>>| {
            if slot.as_ref().is_some_and(|e| e.age > max_age) {
                removed.push(slot.take().expect("checked above").addr);
            }
        };
        check_opt(&mut self.succ);
        check_opt(&mut self.pred);
        for list in [&mut self.sw, &mut self.friends] {
            list.retain(|e| {
                let keep = e.age <= max_age;
                if !keep {
                    removed.push(e.addr);
                }
                keep
            });
        }
        removed
    }

    /// Reset the age of `addr` to zero (receipt of a heartbeat/profile
    /// message, Algorithm 7). Returns true if present.
    pub fn refresh(&mut self, addr: NodeIdx) -> bool {
        let mut found = false;
        for e in self
            .succ
            .iter_mut()
            .chain(self.pred.iter_mut())
            .chain(self.sw.iter_mut())
            .chain(self.friends.iter_mut())
        {
            if e.addr == addr {
                e.age = 0;
                found = true;
            }
        }
        found
    }

    /// Notify-style ring repair: a heartbeat arrived from `from`, a node
    /// this table may not know. If it is ring-closer to `self_id` than the
    /// current successor or predecessor (it heartbeats us, so it very
    /// likely considers us a ring neighbor), adopt it — this keeps ring
    /// edges symmetric, so they refresh each other and lookups converge on
    /// a single rendezvous per topic. A known peer, the node's own id and a
    /// farther candidate are ignored.
    pub fn adopt_ring_candidate(&mut self, self_id: Id, from: NodeIdx, id: Id, payload: &P) {
        if self.contains(from) || id == self_id {
            return;
        }
        let d_cw = self_id.distance_cw(id);
        if self
            .succ
            .as_ref()
            .is_none_or(|s| d_cw < self_id.distance_cw(s.id))
        {
            self.succ = Some(Entry::fresh(from, id, payload.clone()));
            return;
        }
        let d_ccw = id.distance_cw(self_id);
        if self
            .pred
            .as_ref()
            .is_none_or(|p| d_ccw < p.id.distance_cw(self_id))
        {
            self.pred = Some(Entry::fresh(from, id, payload.clone()));
        }
    }

    /// Remove `addr` from every slot it occupies.
    pub fn remove(&mut self, addr: NodeIdx) {
        if self.succ.as_ref().is_some_and(|e| e.addr == addr) {
            self.succ = None;
        }
        if self.pred.as_ref().is_some_and(|e| e.addr == addr) {
            self.pred = None;
        }
        self.sw.retain(|e| e.addr != addr);
        self.friends.retain(|e| e.addr != addr);
    }
}

/// The generic `selectNeighbors` of Algorithm 4: given the merged candidate
/// buffer (own RT ∪ peer's buffer ∪ fresh peer-sampling list), pick the new
/// routing table — successor, predecessor, `k_sw` small-world links by
/// harmonic draw, and the highest-utility remainder as friends.
///
/// `keep_sw` lists the addresses of the node's *current* small-world links:
/// following Symphony, established long-range links are kept while alive and
/// re-drawn only to fill vacant slots, which keeps the navigable structure
/// (and the relay paths built over it) stable between rounds. Pass `&[]` to
/// re-draw every slot.
///
/// `keep_friends` lists the current friend links: they win utility *ties*
/// against new candidates, so equal-utility clusters keep stable edges
/// instead of reshuffling every exchange (which would transiently fragment
/// clusters mid-dissemination). Strictly better candidates still replace
/// them. Pass `&[]` for stateless selection.
///
/// `utility` ranks friend candidates (higher is better); remaining ties
/// break randomly — deterministic tie-breaking would make every member of
/// an equal-utility group pick the same top-N friends, starving the rest of
/// in-links. Candidates equal to `self_addr`/`self_id` are ignored.
#[allow(clippy::too_many_arguments)] // the selection inputs are irreducible
pub fn select_neighbors<P: Clone, R: Rng>(
    self_addr: NodeIdx,
    self_id: Id,
    params: &RtParams,
    mut candidates: Vec<Entry<P>>,
    keep_sw: &[NodeIdx],
    keep_friends: &[NodeIdx],
    utility: impl Fn(&Entry<P>) -> f64,
    rng: &mut R,
) -> HybridRt<P> {
    remove_addr(&mut candidates, self_addr);
    let mut rt = HybridRt::new();

    if let Some(i) = find_successor(self_id, &candidates) {
        rt.succ = Some(candidates.swap_remove(i));
    }
    if let Some(i) = find_predecessor(self_id, &candidates) {
        rt.pred = Some(candidates.swap_remove(i));
    }
    // The sw quota can never overflow the table: ring links take priority.
    let sw_budget = params.k_sw.min(params.rt_size.saturating_sub(rt.len()));
    for &addr in keep_sw {
        if rt.sw.len() >= sw_budget {
            break;
        }
        if let Some(i) = candidates.iter().position(|e| e.addr == addr) {
            rt.sw.push(candidates.swap_remove(i));
        }
    }
    while rt.sw.len() < sw_budget {
        match select_sw_neighbor(self_id, &candidates, params.est_n, rng) {
            Some(i) => rt.sw.push(candidates.swap_remove(i)),
            None => break,
        }
    }

    let n_friends = params.num_friends();
    if n_friends > 0 && !candidates.is_empty() {
        rt.friends = rank_friends(n_friends, candidates, keep_friends, utility, rng);
    }
    rt
}

/// The buffers [`rank_friends`] fills, as long as the longest candidate
/// list ranked on the thread.
#[derive(Default)]
struct Ranking {
    /// Each candidate's key and position.
    keys: Vec<(u128, u32)>,
    /// Whether each candidate, by position, is a winner.
    selected: Vec<bool>,
}

thread_local! {
    /// The scratch [`rank_friends`] borrows. It is per thread, not per
    /// node.
    static RANKING: Cell<Ranking> = const {
        Cell::new(Ranking {
            keys: Vec::new(),
            selected: Vec::new(),
        })
    };
}

/// Algorithm 4's friend ranking: the `n_friends` best of `candidates`, in
/// candidate order.
///
/// Rank by utility; current friends win ties (stability); remaining ties
/// break randomly (in-link diversity), and what is left after that by
/// candidate position — the order a stable sort would leave, and what
/// makes the selected *set* unique, so that a partial selection picks
/// exactly the prefix a full sort would. One draw per candidate, in
/// candidate order.
///
/// Utility, friendship and draw are one integer key, so the selection
/// compares integers: the utility's bits, inverted, above a
/// not-a-current-friend bit above the draw. A utility is never negative,
/// so its 63 low bits order as the values do; dropping the sign bit makes
/// `−0.0` tie with `+0.0`, as the values do. Current friends are looked
/// up in the thread's [`AddrIndex`].
///
/// # Panics
/// Panics if a utility is NaN or negative.
fn rank_friends<P, R: Rng>(
    n_friends: usize,
    candidates: Vec<Entry<P>>,
    keep_friends: &[NodeIdx],
    utility: impl Fn(&Entry<P>) -> f64,
    rng: &mut R,
) -> Vec<Entry<P>> {
    let Ranking {
        keys: mut ranked,
        mut selected,
    } = RANKING.take();
    ranked.clear();
    let kept = AddrIndex::of(keep_friends.iter().copied());
    ranked.extend(candidates.iter().enumerate().map(|(i, e)| {
        let u = utility(e);
        assert!(u >= 0.0, "utility must be neither NaN nor negative: {u}");
        let descending = !u.to_bits() & (u64::MAX >> 1);
        let new = !kept.contains(e.addr);
        let key =
            u128::from(descending) << 65 | u128::from(new) << 64 | u128::from(rng.gen::<u64>());
        (key, i as u32)
    }));
    drop(kept);
    if ranked.len() > n_friends {
        ranked.select_nth_unstable(n_friends - 1);
        ranked.truncate(n_friends);
    }
    selected.clear();
    selected.resize(candidates.len(), false);
    for &(_, i) in &ranked {
        selected[i as usize] = true;
    }
    // Friends keep candidate order, whatever order the ranking left.
    let mut friends = Vec::with_capacity(ranked.len());
    let winners = candidates.into_iter().zip(&selected);
    friends.extend(winners.filter_map(|(e, &keep)| keep.then_some(e)));
    RANKING.set(Ranking {
        keys: ranked,
        selected,
    });
    friends
}

/// Build the T-Man exchange buffer (Algorithm 2, lines 3–4): the fresh
/// peer-sampling list merged with the current routing table and a fresh
/// (age 0) copy of `self_entry`, whatever age the one passed in carries.
pub fn build_exchange_buffer<P: Clone>(
    rt: &HybridRt<P>,
    sample: &[Entry<P>],
    self_entry: &Entry<P>,
) -> Vec<Entry<P>> {
    let mut buf = rt.to_vec();
    merge_dedup(&mut buf, sample);
    merge_dedup_owned(&mut buf, [self_entry.refreshed()]);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn e(addr: u32, id: u64, util: f64) -> Entry<f64> {
        Entry {
            addr: NodeIdx(addr),
            id: Id(id),
            age: 0,
            payload: util,
        }
    }

    fn params(rt_size: usize, k_sw: usize) -> RtParams {
        RtParams {
            rt_size,
            k_sw,
            est_n: 64,
        }
    }

    #[test]
    fn num_friends_saturates() {
        assert_eq!(params(15, 1).num_friends(), 12);
        assert_eq!(params(3, 5).num_friends(), 0);
    }

    #[test]
    fn selection_partitions_candidates() {
        let self_id = Id(1000);
        let cands: Vec<Entry<f64>> = (0..20)
            .map(|i| e(i, (i as u64 + 1) * 500, i as f64))
            .collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let rt = select_neighbors(
            NodeIdx(99),
            self_id,
            &params(8, 2),
            cands,
            &[],
            &[],
            |x| x.payload,
            &mut rng,
        );
        // succ = id 1500 (addr 2), pred = id 500 (addr 0).
        assert_eq!(rt.succ.as_ref().unwrap().id, Id(1500));
        assert_eq!(rt.pred.as_ref().unwrap().id, Id(500));
        assert_eq!(rt.sw.len(), 2);
        assert_eq!(rt.friends.len(), 4);
        assert_eq!(rt.len(), 8);
        // No duplicates across roles.
        let mut addrs = rt.addrs();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 8);
        // Friends are the top-utility leftovers.
        let min_friend_util = rt
            .friends
            .iter()
            .map(|f| f.payload)
            .fold(f64::INFINITY, f64::min);
        assert!(min_friend_util > 10.0, "friends = {:?}", rt.friends);
    }

    #[test]
    fn selection_excludes_self() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cands = vec![e(7, 70, 1.0), e(1, 10, 1.0)];
        let rt = select_neighbors(
            NodeIdx(7),
            Id(70),
            &params(4, 0),
            cands,
            &[],
            &[],
            |x| x.payload,
            &mut rng,
        );
        assert!(!rt.contains(NodeIdx(7)));
        // The self-descriptor is dropped, so only node 1 remains; it fills
        // the successor slot and nothing is left for the predecessor.
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.succ.as_ref().unwrap().addr, NodeIdx(1));
    }

    #[test]
    fn zero_utility_and_full_sw_is_structured_table() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cands: Vec<Entry<f64>> = (0..30).map(|i| e(i, (i as u64) << 40, 0.0)).collect();
        let rt = select_neighbors(
            NodeIdx(99),
            Id(123),
            &params(8, 6),
            cands,
            &[],
            &[],
            |_| 0.0,
            &mut rng,
        );
        assert!(rt.friends.is_empty());
        assert_eq!(rt.sw.len(), 6);
        assert!(rt.succ.is_some() && rt.pred.is_some());
    }

    #[test]
    fn aging_refresh_expire_cycle() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cands: Vec<Entry<f64>> = (0..6).map(|i| e(i, (i as u64 + 1) * 100, 1.0)).collect();
        let mut rt = select_neighbors(
            NodeIdx(99),
            Id(250),
            &params(6, 1),
            cands,
            &[],
            &[],
            |x| x.payload,
            &mut rng,
        );
        let n0 = rt.len();
        for _ in 0..3 {
            rt.age_all();
        }
        // Refresh one neighbor; expire the rest at max_age 2.
        let keep = rt.addrs()[0];
        assert!(rt.refresh(keep));
        let removed = rt.expire(2);
        assert_eq!(removed.len(), n0 - 1);
        assert_eq!(rt.len(), 1);
        assert!(rt.contains(keep));
        assert!(!rt.refresh(NodeIdx(1234)));
    }

    #[test]
    fn per_kind_counts_and_max_age() {
        let mut rt: HybridRt<f64> = HybridRt::new();
        assert_eq!(rt.max_age(), None);
        rt.succ = Some(e(1, 10, 0.0));
        rt.sw.push(e(2, 20, 0.0));
        rt.sw.push(e(3, 30, 0.0));
        rt.friends.push(e(4, 40, 0.0));
        assert_eq!(rt.count_kind(LinkKind::Successor), 1);
        assert_eq!(rt.count_kind(LinkKind::Predecessor), 0);
        assert_eq!(rt.count_kind(LinkKind::SmallWorld), 2);
        assert_eq!(rt.count_kind(LinkKind::Friend), 1);
        assert_eq!(rt.max_age(), Some(0));
        rt.age_all();
        rt.sw[1].age = 7;
        assert_eq!(rt.max_age(), Some(7));
        assert_eq!(LinkKind::SmallWorld.as_str(), "sw");
        assert_eq!(LinkKind::Friend.as_str(), "friend");
    }

    #[test]
    fn remove_clears_all_roles() {
        let mut rt: HybridRt<f64> = HybridRt::new();
        rt.succ = Some(e(1, 10, 0.0));
        rt.pred = Some(e(1, 10, 0.0));
        rt.sw.push(e(2, 20, 0.0));
        rt.friends.push(e(1, 10, 0.0));
        rt.remove(NodeIdx(1));
        assert_eq!(rt.len(), 1);
        assert!(rt.contains(NodeIdx(2)));
    }

    #[test]
    fn ring_repair_adopts_only_strictly_closer_unknown_peers() {
        let me = Id(1000);
        let mut rt: HybridRt<f64> = HybridRt::new();
        rt.succ = Some(e(1, 1500, 0.0));
        rt.pred = Some(e(2, 500, 0.0));
        // A known peer, our own id and a farther candidate change nothing.
        rt.adopt_ring_candidate(me, NodeIdx(1), Id(1100), &0.0);
        rt.adopt_ring_candidate(me, NodeIdx(9), me, &0.0);
        rt.adopt_ring_candidate(me, NodeIdx(9), Id(1500), &0.0);
        rt.adopt_ring_candidate(me, NodeIdx(9), Id(400), &0.0);
        assert_eq!(rt.succ.as_ref().unwrap().addr, NodeIdx(1));
        assert_eq!(rt.pred.as_ref().unwrap().addr, NodeIdx(2));
        // Strictly closer clockwise: new successor, fresh, with the payload.
        rt.adopt_ring_candidate(me, NodeIdx(3), Id(1200), &7.0);
        let s = rt.succ.as_ref().unwrap();
        assert_eq!((s.addr, s.id, s.payload), (NodeIdx(3), Id(1200), 7.0));
        assert_eq!(s.age, 0);
        assert_eq!(rt.pred.as_ref().unwrap().addr, NodeIdx(2));
        // Strictly closer counter-clockwise: new predecessor.
        rt.adopt_ring_candidate(me, NodeIdx(4), Id(900), &0.0);
        assert_eq!(rt.pred.as_ref().unwrap().addr, NodeIdx(4));
        assert_eq!(rt.succ.as_ref().unwrap().addr, NodeIdx(3));
        // Empty slots adopt anyone.
        let mut empty: HybridRt<f64> = HybridRt::new();
        empty.adopt_ring_candidate(me, NodeIdx(5), Id(5), &0.0);
        assert_eq!(empty.succ.as_ref().unwrap().addr, NodeIdx(5));
        empty.adopt_ring_candidate(me, NodeIdx(6), Id(6), &0.0);
        assert_eq!(empty.pred.as_ref().unwrap().addr, NodeIdx(6));
    }

    /// Algorithm 4 as it ranked friends before the partial selection: a
    /// stable sort of every candidate, the first `n_friends` kept, the
    /// winners found by scanning the kept indices. The ring and small-world
    /// picks are copied as they stand.
    fn select_by_stable_sort<R: Rng>(
        self_addr: NodeIdx,
        self_id: Id,
        params: &RtParams,
        mut candidates: Vec<Entry<f64>>,
        keep_sw: &[NodeIdx],
        keep_friends: &[NodeIdx],
        rng: &mut R,
    ) -> HybridRt<f64> {
        remove_addr(&mut candidates, self_addr);
        let mut rt = HybridRt::new();
        if let Some(i) = find_successor(self_id, &candidates) {
            rt.succ = Some(candidates.swap_remove(i));
        }
        if let Some(i) = find_predecessor(self_id, &candidates) {
            rt.pred = Some(candidates.swap_remove(i));
        }
        let sw_budget = params.k_sw.min(params.rt_size.saturating_sub(rt.len()));
        for &addr in keep_sw {
            if rt.sw.len() >= sw_budget {
                break;
            }
            if let Some(i) = candidates.iter().position(|e| e.addr == addr) {
                rt.sw.push(candidates.swap_remove(i));
            }
        }
        while rt.sw.len() < sw_budget {
            match select_sw_neighbor(self_id, &candidates, params.est_n, rng) {
                Some(i) => rt.sw.push(candidates.swap_remove(i)),
                None => break,
            }
        }
        let n_friends = params.num_friends();
        if n_friends > 0 && !candidates.is_empty() {
            let mut ranked: Vec<(f64, bool, u64, usize)> = candidates
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let sticky = !keep_friends.contains(&e.addr);
                    (e.payload, sticky, rng.gen::<u64>(), i)
                })
                .collect();
            ranked.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap()
                    .then_with(|| a.1.cmp(&b.1))
                    .then_with(|| a.2.cmp(&b.2))
            });
            ranked.truncate(n_friends);
            let keep: Vec<usize> = ranked.into_iter().map(|(_, _, _, i)| i).collect();
            for (i, e) in candidates.into_iter().enumerate() {
                if keep.contains(&i) {
                    rt.friends.push(e);
                }
            }
        }
        rt
    }

    /// A generator whose 64-bit draws take four values, so that the random
    /// tie-break itself ties and the candidate position has to decide:
    /// without the position in the comparator the test below fails.
    #[derive(Clone, PartialEq, Debug)]
    struct CoarseRng(SmallRng);

    impl rand::RngCore for CoarseRng {
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64() >> 62
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest)
        }
    }

    /// The integer key selects what the comparator chain selected: utility
    /// levels that tie, current friends against new candidates at equal
    /// utility, `−0.0` against `+0.0` (equal, so the tie goes on to the
    /// friend bit and the draw), and large pseudo-random utilities as the
    /// ablation ranks by, from a small pool so that they tie too.
    #[test]
    fn partial_selection_picks_what_the_stable_sort_picked() {
        let mut gen = SmallRng::seed_from_u64(16);
        for case in 0..1200 {
            let n = gen.gen_range(0..48u32);
            let utilities: Vec<f64> = match case % 3 {
                // Two or three levels: most comparisons tie on utility.
                0 => (0..gen.gen_range(2..4u32)).map(f64::from).collect(),
                1 => vec![-0.0, 0.0, 0.5, f64::INFINITY],
                _ => (0..gen.gen_range(1..6))
                    .map(|_| (gen.gen::<u64>() >> gen.gen_range(0..64)) as f64)
                    .collect(),
            };
            let cands: Vec<Entry<f64>> = (0..n)
                .map(|i| {
                    let u = utilities[gen.gen_range(0..utilities.len())];
                    e(i, gen.gen::<u64>(), u)
                })
                .collect();
            let pick = |gen: &mut SmallRng| -> Vec<NodeIdx> {
                (0..n).filter(|_| gen.gen_bool(0.3)).map(NodeIdx).collect()
            };
            let (keep_sw, keep_friends) = (pick(&mut gen), pick(&mut gen));
            let p = params(gen.gen_range(0..20), gen.gen_range(0..4));
            let (me, my_id) = (NodeIdx(gen.gen_range(0..48)), Id(gen.gen()));
            let mut rng = CoarseRng(SmallRng::seed_from_u64(case));
            let mut oracle_rng = rng.clone();
            let got = select_neighbors(
                me,
                my_id,
                &p,
                cands.clone(),
                &keep_sw,
                &keep_friends,
                |x| x.payload,
                &mut rng,
            );
            let want = select_by_stable_sort(
                me,
                my_id,
                &p,
                cands,
                &keep_sw,
                &keep_friends,
                &mut oracle_rng,
            );
            assert_eq!(got.to_vec(), want.to_vec(), "case {case}");
            assert_eq!(
                (got.succ, got.pred, got.sw),
                (want.succ, want.pred, want.sw)
            );
            assert_eq!(rng, oracle_rng, "case {case}: same draws");
        }
    }

    #[test]
    #[should_panic(expected = "neither NaN nor negative")]
    fn a_negative_utility_panics() {
        // Ids 10 and 30 take the ring slots; id 20 is ranked.
        let cands = vec![e(1, 10, 0.0), e(2, 20, -1.0), e(3, 30, 0.0)];
        let mut rng = SmallRng::seed_from_u64(1);
        select_neighbors(
            NodeIdx(9),
            Id(0),
            &params(4, 0),
            cands,
            &[],
            &[],
            |x| x.payload,
            &mut rng,
        );
    }

    #[test]
    fn exchange_buffer_contains_fresh_self() {
        let rt: HybridRt<f64> = HybridRt {
            succ: Some(e(1, 10, 0.0)),
            pred: None,
            sw: vec![],
            friends: vec![e(2, 20, 0.0)],
        };
        let sample = vec![e(3, 30, 0.0), e(1, 10, 0.0)];
        let me = e(9, 90, 5.0);
        let buf = build_exchange_buffer(&rt, &sample, &me);
        assert_eq!(buf.len(), 4); // 1, 2, 3, self
        let self_e = buf.iter().find(|x| x.addr == NodeIdx(9)).unwrap();
        assert_eq!(self_e.age, 0);
        assert_eq!(self_e.payload, 5.0);
    }
}
