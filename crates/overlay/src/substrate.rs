//! The gossip membership substrate a node type is assembled on.
//!
//! The paper evaluates Vitis against an RVR built on the *same* substrate —
//! Newscast sampling, a T-Man-maintained ring, Symphony links — so that
//! only the routing policy differs. This module is that substrate, once.
//! [`Sampler`] is the sampling half (identity, advertised payload, the
//! [`Newscast`] view); OPT, which negotiates its own links, stops there.
//! [`Substrate`] adds the routing half: the bounded [`HybridRt`], the
//! T-Man exchange (Algorithms 2–4), heartbeat refresh with notify-style
//! ring repair, and age-based failure detection.
//!
//! Both are passive and know no wire enum: they return the partner and
//! buffer to send and the node wraps them in its own message variants.
//! Policy enters as arguments — how friends are ranked, whether current
//! friends win ties — never as a branch on which system is calling.

use crate::entry::{merge_dedup, merge_dedup_owned, Entry};
use crate::id::Id;
use crate::peer_sampling::{Newscast, PeerSampling};
use crate::rt::{build_exchange_buffer, select_neighbors, HybridRt, RtParams};
use rand::rngs::SmallRng;
use rand::Rng;
use vitis_sim::event::NodeIdx;

/// Descriptors in a node's peer-sampling view, for every node type.
pub const SAMPLING_VIEW: usize = 15;

/// Identity, advertised payload and the peer-sampling view of one node.
pub struct Sampler<P> {
    /// This node's own descriptor, always at age 0: ring id, advertised
    /// payload and the engine address, which is `NodeIdx(u32::MAX)` until
    /// [`Sampler::start`]. Kept as a descriptor so that the exchanges
    /// borrow it instead of minting a copy per buffer.
    me: Entry<P>,
    view: Newscast<P>,
    /// Bootstrap contacts consumed at start.
    bootstrap: Vec<Entry<P>>,
}

impl<P: Clone> Sampler<P> {
    /// A not-yet-started sampler with a view of [`SAMPLING_VIEW`]
    /// descriptors.
    pub fn new(id: Id, payload: P, bootstrap: Vec<Entry<P>>) -> Self {
        Sampler {
            me: Entry::fresh(NodeIdx(u32::MAX), id, payload),
            view: Newscast::new(SAMPLING_VIEW),
            bootstrap,
        }
    }

    /// Learn the engine address and seed the view from the bootstrap
    /// contacts. They are returned so that a [`Substrate`] owner can seed
    /// the routing table too, by a first [`Substrate::merge`] under its
    /// own ranking.
    pub fn start(&mut self, addr: NodeIdx) -> Vec<Entry<P>> {
        self.me.addr = addr;
        let contacts = std::mem::take(&mut self.bootstrap);
        self.view.bootstrap(&contacts, addr);
        contacts
    }

    /// The node's engine address.
    pub fn addr(&self) -> NodeIdx {
        self.me.addr
    }

    /// The node's ring identifier.
    pub fn id(&self) -> Id {
        self.me.id
    }

    /// The payload this node advertises in its own descriptor.
    pub fn payload(&self) -> &P {
        &self.me.payload
    }

    /// Replace the advertised payload; it spreads with the next exchanges.
    pub fn set_payload(&mut self, payload: P) {
        self.me.payload = payload;
    }

    /// Heap bytes of the view and the unconsumed bootstrap contacts, as
    /// Σ capacity × descriptor size. A payload's own heap (a shared
    /// subscription set) belongs to whoever made it.
    pub fn heap_bytes(&self) -> u64 {
        self.view.heap_bytes()
            + (self.bootstrap.capacity() * std::mem::size_of::<Entry<P>>()) as u64
    }

    /// The current sample of known peers.
    pub fn sample(&self) -> &[Entry<P>] {
        self.view.sample()
    }

    /// The round step: age the view and begin an exchange. Returns the
    /// partner and the request buffer, `None` while the view is empty.
    pub fn sampling_round(&mut self, rng: &mut SmallRng) -> Option<(NodeIdx, Vec<Entry<P>>)> {
        self.view.tick();
        self.view.initiate(&self.me, rng)
    }

    /// Handle an exchange request: merge it and return the reply buffer.
    pub fn on_ps_request(
        &mut self,
        from: NodeIdx,
        incoming: &[Entry<P>],
        rng: &mut SmallRng,
    ) -> Vec<Entry<P>> {
        self.view.on_request(&self.me, from, incoming, rng)
    }

    /// Handle the reply to an exchange this node initiated.
    pub fn on_ps_response(&mut self, incoming: &[Entry<P>]) {
        self.view.on_response(self.me.addr, incoming);
    }
}

/// The full substrate: a [`Sampler`] plus the T-Man-maintained routing
/// table and its failure detector. Derefs to the sampler, so identity,
/// payload and the sampling exchange read the same on both.
pub struct Substrate<P> {
    ps: Sampler<P>,
    rt: HybridRt<P>,
    params: RtParams,
    /// Failure-detection threshold in rounds: table entries older than this
    /// expire, and no merge selects a descriptor older than this.
    age_threshold: u16,
}

impl<P> std::ops::Deref for Substrate<P> {
    type Target = Sampler<P>;

    fn deref(&self) -> &Sampler<P> {
        &self.ps
    }
}

impl<P> std::ops::DerefMut for Substrate<P> {
    fn deref_mut(&mut self) -> &mut Sampler<P> {
        &mut self.ps
    }
}

impl<P: Clone> Substrate<P> {
    /// A not-yet-started substrate with an empty table.
    pub fn new(sampler: Sampler<P>, params: RtParams, age_threshold: u16) -> Self {
        Substrate {
            ps: sampler,
            rt: HybridRt::new(),
            params,
            age_threshold,
        }
    }

    /// Heap bytes of the sampler and the routing table, as Σ capacity ×
    /// descriptor size.
    pub fn heap_bytes(&self) -> u64 {
        self.ps.heap_bytes() + self.rt.heap_bytes()
    }

    /// The current routing table.
    pub fn rt(&self) -> &HybridRt<P> {
        &self.rt
    }

    /// Direct table access for tests and tools that stage a topology by
    /// hand; protocol code changes the table through the methods below.
    pub fn rt_mut(&mut self) -> &mut HybridRt<P> {
        &mut self.rt
    }

    /// A T-Man partner drawn uniformly from the table, or the first sampled
    /// peer while the table is empty. Draws from `rng` only when the table
    /// is non-empty.
    pub fn uniform_partner(&self, rng: &mut SmallRng) -> Option<NodeIdx> {
        if self.rt.is_empty() {
            self.ps.sample().first().map(|e| e.addr)
        } else {
            let pick = rng.gen_range(0..self.rt.len());
            self.rt.iter().nth(pick).map(|e| e.addr)
        }
    }

    /// The T-Man exchange buffer (Algorithm 2): table ∪ sample ∪ a fresh
    /// self-descriptor.
    pub fn exchange_buffer(&self) -> Vec<Entry<P>> {
        build_exchange_buffer(&self.rt, self.ps.sample(), &self.ps.me)
    }

    /// Merge a received T-Man buffer with the current table and the
    /// sampling list, then re-run Algorithm 4. `utility` ranks friend
    /// candidates; with `sticky_friends` the current friends win utility
    /// ties. Current small-world links are always kept while alive.
    ///
    /// The old table and `incoming` are consumed: their descriptors move
    /// into the candidate list, and only sample entries the list lacks are
    /// cloned. The list's order — table entries in [`HybridRt::iter`]
    /// order, then new incoming addresses, then new sample addresses — is
    /// part of the result: it carries Algorithm 4's `swap_remove`s, its
    /// per-candidate RNG draws and its last tie-break.
    pub fn merge(
        &mut self,
        incoming: Vec<Entry<P>>,
        sticky_friends: bool,
        utility: impl Fn(&Entry<P>) -> f64,
        rng: &mut SmallRng,
    ) {
        let old = std::mem::replace(&mut self.rt, HybridRt::new());
        let addrs = |list: &[Entry<P>]| list.iter().map(|e| e.addr).collect::<Vec<_>>();
        let keep_sw = addrs(&old.sw);
        let keep_friends = if sticky_friends {
            addrs(&old.friends)
        } else {
            Vec::new()
        };
        let sample = self.ps.sample();
        let mut candidates = Vec::with_capacity(old.len() + incoming.len() + sample.len());
        candidates.extend(old.into_entries());
        merge_dedup_owned(&mut candidates, incoming);
        merge_dedup(&mut candidates, sample);
        // Never select descriptors past the failure-detection threshold:
        // copies of a dead node's descriptor keep circulating in exchange
        // buffers (their ages grow in lockstep everywhere), and without this
        // filter they re-enter tables as zombie ring neighbors faster than
        // per-round expiry can purge them.
        candidates.retain(|e| e.age <= self.age_threshold);
        self.rt = select_neighbors(
            self.ps.me.addr,
            self.ps.me.id,
            &self.params,
            candidates,
            &keep_sw,
            &keep_friends,
            utility,
            rng,
        );
    }

    /// Handle a T-Man request (Algorithm 3): build the reply from the
    /// table as it stands, *then* merge the partner's buffer. Returns the
    /// reply for the caller to send.
    pub fn on_rt_request(
        &mut self,
        incoming: Vec<Entry<P>>,
        sticky_friends: bool,
        utility: impl Fn(&Entry<P>) -> f64,
        rng: &mut SmallRng,
    ) -> Vec<Entry<P>> {
        let reply = self.exchange_buffer();
        self.merge(incoming, sticky_friends, utility, rng);
        reply
    }

    /// A heartbeat arrived from `from`: refresh its table entry (age and
    /// payload) and return true, or — for a peer the table does not hold —
    /// offer it to notify-style ring repair and return false.
    pub fn on_heartbeat(&mut self, from: NodeIdx, id: Id, payload: &P) -> bool {
        let known = self.rt.refresh(from, payload);
        if !known {
            self.rt
                .adopt_ring_candidate(self.ps.me.id, from, id, payload);
        }
        known
    }

    /// The failure detector's round step: age the table, expire entries
    /// past the threshold and drop them from the sampling view too.
    /// Returns the expired peers so the caller can clear whatever routing
    /// state it keyed on them.
    pub fn detect_failures(&mut self) -> Vec<NodeIdx> {
        self.rt.age_all();
        let dead = self.rt.expire(self.age_threshold);
        for &d in &dead {
            self.ps.view.remove(d);
        }
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const THRESHOLD: u16 = 5;

    fn e(addr: u32, id: u64, age: u16, payload: u32) -> Entry<u32> {
        Entry {
            addr: NodeIdx(addr),
            id: Id(id),
            age,
            payload,
        }
    }

    /// A started substrate at address 0, ring id 1000, payload 7.
    fn substrate(rt_size: usize, k_sw: usize, bootstrap: Vec<Entry<u32>>) -> Substrate<u32> {
        let params = RtParams {
            rt_size,
            k_sw,
            est_n: 64,
        };
        let mut s = Substrate::new(Sampler::new(Id(1000), 7, bootstrap), params, THRESHOLD);
        s.start(NodeIdx(0));
        s
    }

    fn by_payload(e: &Entry<u32>) -> f64 {
        f64::from(e.payload)
    }

    #[test]
    fn a_stale_descriptor_wins_no_slot() {
        let mut rng = SmallRng::seed_from_u64(1);
        // Past the threshold, each of these would otherwise take a slot:
        // the closest successor, the closest predecessor, the best friend,
        // and a candidate for the small-world slot nobody else can fill.
        let stale = [
            e(1, 1001, THRESHOLD + 1, 0),
            e(2, 999, THRESHOLD + 1, 0),
            e(3, 5000, THRESHOLD + 1, 100),
            e(4, 9000, u16::MAX, 0),
        ];
        // At the threshold a descriptor is still eligible.
        let live = [e(5, 1100, THRESHOLD, 1), e(6, 900, 0, 1), e(7, 3000, 2, 2)];
        let offered: Vec<Entry<u32>> = stale.iter().chain(&live).cloned().collect();
        let mut s = substrate(6, 2, Vec::new());
        s.merge(offered.clone(), true, by_payload, &mut rng);
        let reply = s.on_rt_request(offered, true, by_payload, &mut rng);
        for dead in &stale {
            assert!(!s.rt().contains(dead.addr), "{:?} was selected", dead.addr);
            assert!(reply.iter().all(|r| r.addr != dead.addr));
        }
        assert_eq!(s.rt().succ.as_ref().unwrap().addr, NodeIdx(5));
        assert_eq!(s.rt().pred.as_ref().unwrap().addr, NodeIdx(6));
        assert_eq!(s.rt().len(), 3, "every live candidate holds a slot");
    }

    #[test]
    fn detect_failures_returns_exactly_the_expired_and_forgets_them() {
        let mut rng = SmallRng::seed_from_u64(2);
        let contacts = vec![e(1, 1100, 0, 0), e(2, 900, 0, 0), e(3, 4000, 0, 0)];
        let mut s = substrate(6, 1, contacts.clone());
        s.merge(contacts, false, |_| 0.0, &mut rng);
        assert_eq!(s.rt().len(), 3);
        // Peer 1 keeps heartbeating; the others fall silent.
        for _ in 0..THRESHOLD {
            assert!(s.on_heartbeat(NodeIdx(1), Id(1100), &9));
            assert_eq!(s.detect_failures(), Vec::<NodeIdx>::new());
        }
        let mut dead = s.detect_failures();
        dead.sort();
        assert_eq!(dead, vec![NodeIdx(2), NodeIdx(3)]);
        assert_eq!(s.detect_failures(), Vec::<NodeIdx>::new(), "reported once");
        assert_eq!(s.rt().addrs(), vec![NodeIdx(1)]);
        assert_eq!(s.rt().succ.as_ref().unwrap().payload, 9);
        // Gone from the sampling view too: the view never aged here, so
        // only the detector's feedback can have removed them, and a merge
        // with nothing new cannot bring them back.
        let sampled: Vec<NodeIdx> = s.ps.sample().iter().map(|x| x.addr).collect();
        assert_eq!(sampled, vec![NodeIdx(1)]);
        s.merge(Vec::new(), false, |_| 0.0, &mut rng);
        assert_eq!(s.rt().addrs(), vec![NodeIdx(1)]);
    }

    #[test]
    fn heartbeat_from_a_stranger_goes_to_ring_repair() {
        let mut s = substrate(6, 1, Vec::new());
        assert!(!s.on_heartbeat(NodeIdx(4), Id(1200), &3));
        let succ = s.rt().succ.as_ref().unwrap();
        assert_eq!(
            (succ.addr, succ.id, succ.payload),
            (NodeIdx(4), Id(1200), 3)
        );
    }

    #[test]
    fn a_request_is_answered_from_the_table_before_the_merge() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = substrate(4, 0, Vec::new());
        s.merge(vec![e(1, 2000, 0, 0)], false, |_| 0.0, &mut rng);
        let before = s.exchange_buffer();
        // The partner offers a closer successor and our own stale copy.
        let offered = vec![e(2, 1500, 0, 0), e(0, 1000, 3, 7)];
        let reply = s.on_rt_request(offered, false, |_| 0.0, &mut rng);
        assert_eq!(reply, before);
        let mut addrs: Vec<u32> = reply.iter().map(|x| x.addr.0).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0, 1], "old table plus a fresh self-descriptor");
        assert_eq!(reply.iter().find(|x| x.addr.0 == 0).unwrap().age, 0);
        assert_eq!(s.rt().succ.as_ref().unwrap().addr, NodeIdx(2));
        assert!(!s.rt().contains(NodeIdx(0)));
    }

    /// The merge as it assembled candidates before it moved them: clone
    /// the table, `merge_dedup` the partner's buffer and the sample into
    /// it by reference.
    fn merge_by_clone(
        s: &mut Substrate<u32>,
        incoming: &[Entry<u32>],
        sticky_friends: bool,
        rng: &mut SmallRng,
    ) {
        let mut candidates = s.rt.to_vec();
        merge_dedup(&mut candidates, incoming);
        merge_dedup(&mut candidates, s.ps.sample());
        candidates.retain(|e| e.age <= s.age_threshold);
        let addrs = |list: &[Entry<u32>]| list.iter().map(|e| e.addr).collect::<Vec<_>>();
        let keep_sw = addrs(&s.rt.sw);
        let keep_friends = if sticky_friends {
            addrs(&s.rt.friends)
        } else {
            Vec::new()
        };
        s.rt = select_neighbors(
            s.addr(),
            s.id(),
            &s.params,
            candidates,
            &keep_sw,
            &keep_friends,
            by_payload,
            rng,
        );
    }

    #[test]
    fn merge_by_move_equals_merge_by_clone() {
        use rand::Rng;
        let mut gen = SmallRng::seed_from_u64(6);
        // 24 addresses (0 is the node itself) met again and again at other
        // ages and under other payloads: every buffer repeats addresses the
        // table, the sample or the buffer itself already holds, fresher,
        // staler or past the threshold.
        let descriptor = |gen: &mut SmallRng| {
            let addr = gen.gen_range(0..24u32);
            let id = Id::of_node(u64::from(addr)).0;
            e(
                addr,
                id,
                gen.gen_range(0..THRESHOLD + 3),
                gen.gen_range(0..4),
            )
        };
        let buffer = |gen: &mut SmallRng| -> Vec<Entry<u32>> {
            (0..gen.gen_range(0..20)).map(|_| descriptor(gen)).collect()
        };
        let mut replaced = 0;
        for case in 0..300 {
            let mut moved = substrate(gen.gen_range(2..12), gen.gen_range(0..4), buffer(&mut gen));
            let mut cloned = substrate(moved.params.rt_size, moved.params.k_sw, Vec::new());
            cloned.ps.view.bootstrap(moved.ps.sample(), NodeIdx(0));
            assert_eq!(cloned.ps.sample(), moved.ps.sample());
            let mut rng = SmallRng::seed_from_u64(case);
            for step in 0..6 {
                let (incoming, sticky) = (buffer(&mut gen), gen.gen_bool(0.5));
                let mut oracle_rng = rng.clone();
                merge_by_clone(&mut cloned, &incoming, sticky, &mut oracle_rng);
                let before = moved.rt.to_vec();
                moved.merge(incoming, sticky, by_payload, &mut rng);
                assert_eq!(moved.rt.to_vec(), cloned.rt.to_vec(), "case {case}.{step}");
                assert_eq!(moved.rt.succ, cloned.rt.succ);
                assert_eq!(moved.rt.sw, cloned.rt.sw);
                assert_eq!(rng, oracle_rng, "case {case}.{step}: same draws");
                replaced += moved
                    .rt
                    .iter()
                    .filter(|now| before.iter().any(|b| b.addr == now.addr && b != *now))
                    .count();
                // Tables age between exchanges, so that buffers can be fresher.
                moved.rt.age_all();
                cloned.rt.age_all();
            }
        }
        assert!(replaced > 300, "fresher copies must replace table entries");
    }

    #[test]
    fn uniform_partner_draws_only_from_a_nonempty_table() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut s = substrate(4, 0, vec![e(9, 50, 0, 0)]);
        let untouched = rng.clone();
        assert_eq!(s.uniform_partner(&mut rng), Some(NodeIdx(9)));
        assert_eq!(rng, untouched, "the sample fallback must not draw");
        s.merge(
            vec![e(1, 2000, 0, 0), e(2, 500, 0, 0)],
            false,
            |_| 0.0,
            &mut rng,
        );
        let picks: Vec<NodeIdx> = (0..40)
            .filter_map(|_| s.uniform_partner(&mut rng))
            .collect();
        assert!(picks.iter().all(|&p| s.rt().contains(p)));
        assert!(picks.contains(&NodeIdx(1)) && picks.contains(&NodeIdx(2)));
        assert_eq!(substrate(4, 0, Vec::new()).uniform_partner(&mut rng), None);
    }

    /// `n` substrates gossiping in a synchronous loop — sampling exchange,
    /// T-Man exchange, failure detection, heartbeats — the round every node
    /// type builds on. Payloads are interest groups `addr % 4`.
    fn gossip(n: u32, k_sw: usize, rank: fn(u32, &Entry<u32>) -> f64) -> Vec<Substrate<u32>> {
        let params = RtParams {
            rt_size: 15,
            k_sw,
            est_n: 64,
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let mut nodes: Vec<Substrate<u32>> = Vec::new();
        for i in 0..n {
            let boot = (i.saturating_sub(4)..i)
                .map(|j| e(j, Id::of_node(u64::from(j)).0, 0, j % 4))
                .collect();
            let sampler = Sampler::new(Id::of_node(u64::from(i)), i % 4, boot);
            let mut s = Substrate::new(sampler, params, THRESHOLD);
            let contacts = s.start(NodeIdx(i));
            s.merge(contacts, true, |c| rank(i % 4, c), &mut rng);
            nodes.push(s);
        }
        for _ in 0..25 {
            for i in 0..n as usize {
                let me = NodeIdx(i as u32);
                let group = *nodes[i].payload();
                if let Some((to, buf)) = nodes[i].sampling_round(&mut rng) {
                    let reply = nodes[to.index()].on_ps_request(me, &buf, &mut rng);
                    nodes[i].on_ps_response(&reply);
                }
                if let Some(to) = nodes[i].uniform_partner(&mut rng) {
                    let buf = nodes[i].exchange_buffer();
                    let theirs = *nodes[to.index()].payload();
                    let reply =
                        nodes[to.index()].on_rt_request(buf, true, |c| rank(theirs, c), &mut rng);
                    nodes[i].merge(reply, true, |c| rank(group, c), &mut rng);
                }
                nodes[i].detect_failures();
                let id = nodes[i].id();
                for to in nodes[i].rt().addrs() {
                    nodes[to.index()].on_heartbeat(me, id, &group);
                }
            }
        }
        nodes
    }

    #[test]
    fn tables_fill_and_stay_bounded() {
        let same_group = |mine: u32, c: &Entry<u32>| f64::from(c.payload == mine);
        for s in gossip(64, 1, same_group) {
            let rt = s.rt();
            assert!(rt.len() <= 15);
            assert!(rt.len() >= 5, "table too empty: {}", rt.len());
            assert!(rt.succ.is_some() && rt.pred.is_some());
            assert!(!rt.contains(s.addr()));
            assert!(
                rt.friends
                    .iter()
                    .filter(|f| f.payload == *s.payload())
                    .count()
                    >= 3
            );
        }
    }

    #[test]
    fn zero_utility_tables_are_all_structure_no_friends() {
        for s in gossip(48, 13, |_, _| 0.0) {
            let rt = s.rt();
            assert!(rt.friends.is_empty());
            assert!(rt.len() <= 15);
            assert!(rt.succ.is_some() && rt.pred.is_some());
        }
    }
}
