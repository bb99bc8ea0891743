//! OPT — the unstructured overlay-per-topic baseline.
//!
//! A SpiderCast-equivalent: every node tries to keep at least
//! [`COVERAGE`] connected neighbors *per subscribed topic*, exploiting
//! subscription correlation so one link can cover many topics. Links are
//! symmetric connections negotiated with a request/accept handshake and
//! kept alive by heartbeats. Events flood the per-topic subgraph, so there
//! is no relay traffic at all — but with a bounded degree the per-topic
//! subgraphs can stay disconnected and the hit ratio drops below 100 %
//! (Figure 10), while the unbounded variant needs arbitrarily large degrees
//! (Figure 11).

use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;
use vitis::config::VitisConfig;
use vitis::dissemination::Dissemination;
use vitis::monitor::Monitor;
use vitis::msg::{wire, DissemMsg, Notification};
use vitis::smallmap::SmallMap;
use vitis::topic::{Subs, TopicSet};
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_overlay::substrate::Sampler;
use vitis_sim::antientropy::{AeConfig, AntiEntropy};
use vitis_sim::event::NodeIdx;
use vitis_sim::prelude::{Context, MsgTag, Protocol};

/// Desired connected neighbors per subscribed topic (SpiderCast's
/// coverage parameter; the paper's comparison uses small values).
pub const COVERAGE: usize = 2;

/// New connection requests issued per round (limits link churn).
pub const REQUESTS_PER_ROUND: usize = 3;

/// OPT wire protocol.
#[derive(Clone, Debug)]
pub enum OptMsg {
    /// Peer-sampling exchange request.
    PsReq(Vec<Entry<Subs>>),
    /// Peer-sampling exchange reply.
    PsResp(Vec<Entry<Subs>>),
    /// Connection request carrying the requester's subscriptions.
    ConnectReq(Subs),
    /// Connection accept carrying the accepter's subscriptions.
    ConnectAck(Subs),
    /// Liveness heartbeat between connected neighbors.
    Heartbeat,
    /// The data plane: copies flooding the topic subgraph, publish
    /// stimuli and repair traffic.
    Dissem(DissemMsg),
}

impl From<DissemMsg> for OptMsg {
    fn from(msg: DissemMsg) -> Self {
        OptMsg::Dissem(msg)
    }
}

struct Link {
    subs: Subs,
    age: u16,
}

/// An OPT peer.
pub struct OptNode {
    /// The run's configuration. OPT reads two values: `rt_size`, its
    /// degree bound (`usize::MAX` leaves the degree unbounded), and
    /// `age_threshold`, its failure-detection threshold in rounds.
    cfg: Rc<VitisConfig>,
    /// The sampling half of the membership substrate: identity, the
    /// advertised subscriptions and the Newscast view that feeds candidate
    /// discovery. OPT negotiates its own links, so no routing table.
    ps: Sampler<Subs>,
    links: SmallMap<NodeIdx, Link>,
    /// Requests in flight this round (counted against the degree bound so
    /// bursts cannot overshoot it): this round's picks, at most
    /// [`REQUESTS_PER_ROUND`] distinct addresses.
    pending: Vec<NodeIdx>,
    /// Dedup, delivery accounting and the anti-entropy repair layer (inert
    /// unless the `repair` argument of [`OptNode::new`] enables it); owns
    /// the node's monitor handle.
    dissem: Dissemination,
}

impl OptNode {
    /// Create a node with the given ring id, subscriptions, run
    /// configuration, anti-entropy configuration and bootstrap contacts.
    pub fn new(
        id: Id,
        subs: Subs,
        cfg: Rc<VitisConfig>,
        monitor: Monitor,
        repair: AeConfig,
        bootstrap: Vec<Entry<Subs>>,
    ) -> Self {
        OptNode {
            ps: Sampler::new(id, subs, bootstrap),
            cfg,
            links: SmallMap::new(),
            pending: Vec::new(),
            dissem: Dissemination::new(monitor, repair),
        }
    }

    /// The anti-entropy repair layer (read access for tests).
    pub fn repair(&self) -> &AntiEntropy<Notification> {
        self.dissem.repair()
    }

    /// This node's ring identifier.
    pub fn ring_id(&self) -> Id {
        self.ps.id()
    }

    /// This node's subscriptions.
    pub fn subscriptions(&self) -> &Subs {
        self.ps.payload()
    }

    /// The heap bytes this node owns beyond its inline state, one call per
    /// owner (see `VitisNode::heap_bytes`). The requests in flight, at most
    /// [`REQUESTS_PER_ROUND`] addresses, are not counted.
    pub fn heap_bytes(&self, mut owner: impl FnMut(&'static str, u64)) {
        owner("substrate", self.ps.heap_bytes());
        owner("links", self.links.heap_bytes());
        owner("dissemination", self.dissem.heap_bytes());
    }

    /// Connected neighbor addresses, in link-table order.
    pub fn neighbors(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.links.keys().copied()
    }

    fn at_capacity(&self) -> bool {
        self.links.len() + self.pending.len() >= self.cfg.rt_size
    }

    fn add_link(&mut self, peer: NodeIdx, subs: Subs) {
        self.links.insert(peer, Link { subs, age: 0 });
        self.pending.retain(|&p| p != peer);
    }
}

/// Greedy coverage selection: candidates from `sample` ranked by how many
/// of `own`'s topics with fewer than `coverage` links they would cover;
/// fills `picks` with up to `requests` picks with positive gain, in pick
/// order, within the degree bound `max_degree` (`usize::MAX` for none).
/// Ties go to the first candidate in sample order, and a pick is
/// `swap_remove`d from the candidates.
///
/// `own`'s topics are indexed in the thread's scratch ([`OwnIndex`]), so
/// one pass over each link's topics counts coverage, and one pass over
/// each candidate's lists the topics it shares with `own` that start
/// under-covered, as indices into `own`, in ascending order. Deficits only
/// fall, so no other shared topic can ever add gain, and each pick
/// re-scores candidates from these short lists. The buffers are the
/// scratch's, so a call allocates nothing once they have grown.
#[allow(clippy::too_many_arguments)] // the repair's inputs and the list it fills
fn pick_connect_targets(
    coverage: usize,
    requests: usize,
    max_degree: usize,
    me: NodeIdx,
    own: &TopicSet,
    links: &SmallMap<NodeIdx, Link>,
    sample: &[Entry<Subs>],
    picks: &mut Vec<NodeIdx>,
) {
    picks.clear();
    let budget = requests.min(max_degree.saturating_sub(links.len()));
    if budget == 0 {
        return;
    }
    let mut marked = OwnIndex::set(own);
    let top = marked.top;
    let Scratch {
        index,
        deficit,
        shared,
        candidates,
    } = &mut marked.scratch;
    let index = &index[..top];
    // deficit[i]: links own topic i still wants; ≤ 0 once covered.
    deficit.clear();
    deficit.resize(own.len(), coverage as isize);
    for l in links.values() {
        for_each_own(index, &l.subs, |i| deficit[i] -= 1);
    }
    if deficit.iter().all(|&d| d <= 0) {
        return;
    }
    shared.clear();
    candidates.clear();
    for e in sample {
        if e.addr == me || links.contains_key(&e.addr) {
            continue;
        }
        let start = shared.len();
        for_each_own(index, &e.payload, |i| {
            if deficit[i] > 0 {
                shared.push(i);
            }
        });
        candidates.push((e.addr, start..shared.len()));
    }
    while picks.len() < budget {
        let mut best: Option<(usize, usize)> = None;
        for (k, (_, topics)) in candidates.iter().enumerate() {
            let gain = shared[topics.clone()]
                .iter()
                .filter(|&&i| deficit[i] > 0)
                .count();
            if gain > 0 && best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((k, gain));
            }
        }
        let Some((k, _)) = best else { break };
        let (addr, topics) = candidates.swap_remove(k);
        for &i in &shared[topics] {
            deficit[i] -= 1;
        }
        picks.push(addr);
    }
}

/// Call `f(i)` for every topic of `other` that sits at position `i` of the
/// set `index` was built from, in ascending topic order: the positions
/// [`TopicSet::for_each_common`] would give, in its order. `index` ends
/// just past that set's highest topic, so the first topic beyond it ends
/// the pass.
#[inline]
fn for_each_own(index: &[u32], other: &TopicSet, mut f: impl FnMut(usize)) {
    for t in other.iter() {
        let Some(&k) = index.get(t.0 as usize) else {
            break;
        };
        if k > 0 {
            f(k as usize - 1);
        }
    }
}

/// What a coverage repair borrows from its thread: an own-topic index and
/// the buffers [`pick_connect_targets`] fills.
#[derive(Default)]
struct Scratch {
    /// `index[t]`: 1 + topic `t`'s position in the node's own set, 0 for
    /// a topic it does not hold. All-zero whenever no repair is running on
    /// this thread, and as long as the highest topic indexed here + 1
    /// (topic ids are dense from zero, see [`vitis::topic::TopicId`]).
    index: Vec<u32>,
    /// Links each own topic still wants, by position in the own set.
    deficit: Vec<isize>,
    /// The candidates' under-covered shared topics, as own positions.
    shared: Vec<usize>,
    /// Each candidate's address and its run of `shared`.
    candidates: Vec<(NodeIdx, Range<usize>)>,
}

thread_local! {
    /// The scratch [`OwnIndex`] borrows. It is per thread, not per node.
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            index: Vec::new(),
            deficit: Vec::new(),
            shared: Vec::new(),
            candidates: Vec::new(),
        })
    };
}

/// A node's own topics indexed in the thread's scratch. Dropping it clears
/// the index, panic or not, and hands the scratch back.
struct OwnIndex<'a> {
    own: &'a TopicSet,
    /// The own set's highest topic + 1 (0 when it is empty).
    top: usize,
    scratch: Scratch,
}

impl<'a> OwnIndex<'a> {
    fn set(own: &'a TopicSet) -> Self {
        let mut scratch = SCRATCH.take();
        let mut top = 0;
        for (i, t) in own.iter().enumerate() {
            top = t.0 as usize + 1;
            if scratch.index.len() < top {
                scratch.index.resize(top, 0);
            }
            scratch.index[top - 1] = i as u32 + 1;
        }
        OwnIndex { own, top, scratch }
    }
}

impl Drop for OwnIndex<'_> {
    fn drop(&mut self) {
        // Only the own topics' entries can be non-zero.
        for t in self.own.iter() {
            if let Some(k) = self.scratch.index.get_mut(t.0 as usize) {
                *k = 0;
            }
        }
        let scratch = std::mem::take(&mut self.scratch);
        // `try_with`: a drop must not panic, even during thread exit.
        let _ = SCRATCH.try_with(|s| s.set(scratch));
    }
}

impl Protocol for OptNode {
    type Msg = OptMsg;

    fn classify(msg: &OptMsg) -> MsgTag {
        match msg {
            OptMsg::PsReq(_) => MsgTag::control("ps_req"),
            OptMsg::PsResp(_) => MsgTag::control("ps_resp"),
            OptMsg::ConnectReq(..) => MsgTag::control("connect_req"),
            OptMsg::ConnectAck(..) => MsgTag::control("connect_ack"),
            OptMsg::Heartbeat => MsgTag::control("heartbeat"),
            OptMsg::Dissem(m) => m.tag(),
        }
    }

    fn wire_bytes(msg: &OptMsg) -> u64 {
        match msg {
            OptMsg::PsReq(b) | OptMsg::PsResp(b) => wire::buffer_bytes(b),
            OptMsg::ConnectReq(subs) | OptMsg::ConnectAck(subs) => wire::subs_bytes(subs),
            OptMsg::Heartbeat => wire::HEARTBEAT_BYTES,
            OptMsg::Dissem(m) => wire::dissem_bytes(m),
        }
    }

    fn event_of(msg: &OptMsg) -> Option<u64> {
        match msg {
            OptMsg::Dissem(m) => m.event(),
            _ => None,
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, OptMsg>) {
        self.ps.start(ctx.self_idx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, OptMsg>) {
        // Peer sampling drives candidate discovery.
        if let Some((partner, buf)) = self.ps.sampling_round(ctx.rng) {
            ctx.send(partner, OptMsg::PsReq(buf));
        }

        // Age links; drop the stale ones (failure detection).
        let thr = self.cfg.age_threshold;
        self.links.retain(|_, l| {
            l.age = l.age.saturating_add(1);
            l.age <= thr
        });

        // Greedy coverage repair; last round's requests are no longer in
        // flight.
        pick_connect_targets(
            COVERAGE,
            REQUESTS_PER_ROUND,
            self.cfg.rt_size,
            self.ps.addr(),
            self.ps.payload(),
            &self.links,
            self.ps.sample(),
            &mut self.pending,
        );
        for &target in &self.pending {
            ctx.send(target, OptMsg::ConnectReq(self.ps.payload().clone()));
        }

        // Heartbeats.
        for &peer in self.links.keys() {
            ctx.send(peer, OptMsg::Heartbeat);
        }

        // Anti-entropy repair. Entirely inert — no sends, no RNG draws —
        // unless the layer is enabled, so default runs stay bit-identical.
        let neighbors = || self.links.keys().copied().collect();
        self.dissem.round_step(ctx, neighbors);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, OptMsg>, from: NodeIdx, msg: OptMsg) {
        match msg {
            OptMsg::PsReq(buf) => {
                let reply = self.ps.on_ps_request(from, &buf, ctx.rng);
                ctx.send(from, OptMsg::PsResp(reply));
            }
            OptMsg::PsResp(buf) => self.ps.on_ps_response(&buf),
            OptMsg::ConnectReq(subs) => {
                // Accept while under the degree bound (always, when
                // unbounded): the accepter benefits passively from any link
                // that shares topics, and SpiderCast links are symmetric.
                let accept = self.links.contains_key(&from) || !self.at_capacity();
                if accept {
                    self.add_link(from, subs);
                    ctx.send(from, OptMsg::ConnectAck(self.ps.payload().clone()));
                }
            }
            OptMsg::ConnectAck(subs) => {
                self.add_link(from, subs);
            }
            OptMsg::Heartbeat => {
                if let Some(l) = self.links.get_mut(&from) {
                    l.age = 0;
                }
            }
            OptMsg::Dissem(msg) => {
                // OPT's `forward_targets`: every link that shares the
                // copy's topic but the one it came in on.
                let links = &self.links;
                let subs = self.ps.payload();
                self.dissem
                    .on_message(ctx, from, subs, msg, |copy, came_from, targets| {
                        let shared = links.iter().filter(|(&peer, link)| {
                            Some(peer) != came_from && link.subs.contains(copy.topic)
                        });
                        targets.extend(shared.map(|(&peer, _)| peer));
                    });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitis::topic::TopicId;
    use vitis_sim::engine::{Engine, EngineConfig};
    use vitis_sim::time::Duration;

    fn build_net(
        n: usize,
        subs_of: impl Fn(usize) -> Vec<u32>,
        cfg: VitisConfig,
    ) -> (Engine<OptNode>, Monitor) {
        let cfg = Rc::new(cfg);
        let monitor = Monitor::new();
        let mut eng = Engine::new(EngineConfig {
            seed: 13,
            round_period: Duration(64),
            desynchronize_rounds: true,
        });
        let mut directory: Vec<Entry<Subs>> = Vec::new();
        for i in 0..n {
            let subs: Subs = Subs::new(TopicSet::from_iter(subs_of(i)));
            let id = Id::of_node(i as u64);
            let boot: Vec<Entry<Subs>> = directory.iter().rev().take(4).cloned().collect();
            let node = OptNode::new(
                id,
                subs.clone(),
                cfg.clone(),
                monitor.clone(),
                AeConfig::default(),
                boot,
            );
            let slot = eng.add_node(node);
            directory.push(Entry::fresh(slot, id, subs));
        }
        (eng, monitor)
    }

    /// Every OPT message is priced by a `wire` rule: descriptor buffers as
    /// Vitis's, the handshake as a profile with no proposals, the bare
    /// heartbeat as its framing.
    #[test]
    fn every_message_has_its_wire_size() {
        let subs = Subs::new(TopicSet::from_iter([1, 4, 9]));
        let buf = vec![Entry::fresh(NodeIdx(1), Id(5), subs.clone())];
        let buf_bytes = wire::buffer_bytes(&buf);
        let sizes = [
            (OptMsg::PsReq(buf.clone()), buf_bytes),
            (OptMsg::PsResp(buf), buf_bytes),
            (OptMsg::ConnectReq(subs.clone()), wire::subs_bytes(&subs)),
            (OptMsg::ConnectAck(subs.clone()), wire::subs_bytes(&subs)),
            (OptMsg::Heartbeat, wire::HEARTBEAT_BYTES),
        ];
        for (msg, bytes) in sizes {
            assert_eq!(OptNode::wire_bytes(&msg), bytes, "{msg:?}");
        }
    }

    #[test]
    fn links_are_symmetric_connections() {
        let (mut eng, _) = build_net(32, |i| vec![(i % 2) as u32], VitisConfig::default());
        eng.run_rounds(25);
        let mut asym = 0;
        let mut total = 0;
        for (idx, n) in eng.alive_nodes() {
            for peer in n.neighbors() {
                total += 1;
                let other = eng.node(peer).unwrap();
                if !other.neighbors().any(|p| p == idx) {
                    asym += 1;
                }
            }
        }
        assert!(total > 0);
        // Handshaked links are symmetric except for in-flight churn.
        assert!(
            (asym as f64) < 0.1 * total as f64,
            "{asym}/{total} asymmetric links"
        );
    }

    #[test]
    fn coverage_reaches_target_when_unbounded() {
        let cfg = VitisConfig {
            rt_size: usize::MAX,
            ..VitisConfig::default()
        };
        let (mut eng, _) = build_net(40, |i| vec![(i % 4) as u32, 4 + (i % 3) as u32], cfg);
        eng.run_rounds(30);
        let mut covered = 0;
        let mut total = 0;
        for (_, n) in eng.alive_nodes() {
            for t in n.subscriptions().iter() {
                total += 1;
                let have = n.links.values().filter(|l| l.subs.contains(t)).count();
                if have >= COVERAGE {
                    covered += 1;
                }
            }
        }
        assert!(
            covered as f64 > 0.9 * total as f64,
            "coverage {covered}/{total}"
        );
    }

    #[test]
    fn degree_bound_is_hard() {
        let cfg = VitisConfig {
            rt_size: 6,
            ..VitisConfig::default()
        };
        let (mut eng, _) = build_net(40, |i| vec![(i % 8) as u32], cfg);
        eng.run_rounds(30);
        for (_, n) in eng.alive_nodes() {
            let degree = n.neighbors().count();
            assert!(degree <= 6, "degree {degree}");
        }
    }

    #[test]
    fn flood_stays_inside_topic_subgraph() {
        let (mut eng, monitor) = build_net(32, |i| vec![(i % 2) as u32], VitisConfig::default());
        eng.run_rounds(25);
        let expected: Vec<NodeIdx> = (1..16).map(|k| NodeIdx(k * 2)).collect();
        let e = monitor.register_event(TopicId(0), eng.now(), expected);
        eng.inject(
            NodeIdx(0),
            DissemMsg::Publish {
                event: e,
                topic: TopicId(0),
            }
            .into(),
        );
        eng.run_rounds(3);
        let s = monitor.snapshot();
        assert_eq!(s.relay_msgs, 0, "OPT must never relay");
        assert!(s.useful_msgs > 0);
    }

    /// The coverage repair's first form, kept as the oracle: a tree of
    /// deficits keyed by topic, one binary search per link and own topic,
    /// and one tree lookup per candidate topic at every pick. It also filtered candidates and the budget by the
    /// requests in flight, which are always empty when it runs, so those
    /// reads are left out.
    fn btree_picks(
        coverage: usize,
        requests: usize,
        max_degree: usize,
        me: NodeIdx,
        own: &TopicSet,
        links: &SmallMap<NodeIdx, Link>,
        sample: &[Entry<Subs>],
    ) -> Vec<NodeIdx> {
        use std::collections::BTreeMap;
        let mut deficit: BTreeMap<TopicId, isize> = BTreeMap::new();
        for t in own.iter() {
            let have = links.values().filter(|l| l.subs.contains(t)).count() as isize;
            let want = coverage as isize;
            if have < want {
                deficit.insert(t, want - have);
            }
        }
        if deficit.is_empty() {
            return Vec::new();
        }
        let mut picks = Vec::new();
        let mut candidates: Vec<&Entry<Subs>> = sample
            .iter()
            .filter(|e| e.addr != me && !links.contains_key(&e.addr))
            .collect();
        let budget = requests.min(max_degree.saturating_sub(links.len()));
        while picks.len() < budget {
            let mut best: Option<(usize, isize)> = None;
            for (i, c) in candidates.iter().enumerate() {
                let gain: isize = c
                    .payload
                    .iter()
                    .filter(|t| deficit.get(t).copied().unwrap_or(0) > 0)
                    .count() as isize;
                if gain > 0 && best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((i, gain));
                }
            }
            let Some((i, _)) = best else { break };
            let chosen = candidates.swap_remove(i);
            for t in chosen.payload.iter() {
                if let Some(d) = deficit.get_mut(&t) {
                    *d -= 1;
                }
            }
            picks.push(chosen.addr);
        }
        picks
    }

    /// [`pick_connect_targets`] into a fresh list.
    fn picks(
        coverage: usize,
        requests: usize,
        max_degree: usize,
        me: NodeIdx,
        own: &TopicSet,
        links: &SmallMap<NodeIdx, Link>,
        sample: &[Entry<Subs>],
    ) -> Vec<NodeIdx> {
        // Stale contents must not survive into the picks.
        let mut picks = vec![NodeIdx(u32::MAX)];
        pick_connect_targets(
            coverage, requests, max_degree, me, own, links, sample, &mut picks,
        );
        picks
    }

    fn entry(addr: u32, topics: &[u32]) -> Entry<Subs> {
        let subs = Subs::new(TopicSet::from_iter(topics.iter().copied()));
        Entry::fresh(NodeIdx(addr), Id::of_node(addr as u64), subs)
    }

    fn link_table(links: &[(u32, &[u32])]) -> SmallMap<NodeIdx, Link> {
        let mut table = SmallMap::new();
        for &(addr, topics) in links {
            let subs = Subs::new(TopicSet::from_iter(topics.iter().copied()));
            table.insert(NodeIdx(addr), Link { subs, age: 0 });
        }
        table
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        /// The indexed repair picks the oracle's candidates in the
        /// oracle's order. Topics come from a small universe, so deficits,
        /// zero-gain candidates and ties in gain are common; addresses
        /// overlap between self, links and the sample. Links and
        /// candidates draw from a wider universe than either own set, so
        /// lookups run past the index's end. Two picks run in a row on
        /// one thread with different own sets, so the second reads only
        /// its own index.
        #[test]
        fn picks_match_the_btree_oracle(
            me in 0u32..24,
            own in proptest::collection::vec(0u32..20, 0..16),
            own_after in proptest::collection::vec(0u32..12, 0..10),
            links in proptest::collection::vec(
                (0u32..24, proptest::collection::vec(0u32..28, 0..8)),
                0..12,
            ),
            sample in proptest::collection::vec(
                (0u32..24, proptest::collection::vec(0u32..28, 0..8)),
                0..16,
            ),
            coverage in 0usize..4,
            max_degree in proptest::option::of(0usize..14),
            requests in 0usize..5,
        ) {
            // `usize::MAX` is the unbounded degree.
            let max_degree = max_degree.unwrap_or(usize::MAX);
            let links: Vec<(u32, &[u32])> =
                links.iter().map(|(a, t)| (*a, t.as_slice())).collect();
            let links = link_table(&links);
            let sample: Vec<Entry<Subs>> = sample.iter().map(|(a, t)| entry(*a, t)).collect();
            let me = NodeIdx(me);
            for own in [own, own_after] {
                let own = TopicSet::from_iter(own);
                proptest::prop_assert_eq!(
                    picks(coverage, requests, max_degree, me, &own, &links, &sample),
                    btree_picks(coverage, requests, max_degree, me, &own, &links, &sample)
                );
            }
        }
    }

    /// The scratch index is all-zero again after a pick that panics, so a
    /// later pick on the thread reads only its own set's entries.
    #[test]
    fn the_opt_scratch_is_all_zero_after_a_pick_that_panics() {
        let own = TopicSet::from_iter([1, 64, 65, 199]);
        let caught = std::panic::catch_unwind(|| {
            let marked = OwnIndex::set(&own);
            let mut seen = Vec::new();
            let other = TopicSet::from_iter([0, 64, 70, 199, 300]);
            for_each_own(&marked.scratch.index[..marked.top], &other, |i| {
                seen.push(i)
            });
            assert_eq!(seen, [1, 3]);
            panic!("a pick that panics");
        });
        assert!(caught.is_err());
        let scratch = SCRATCH.take();
        assert_eq!(scratch.index.len(), 200, "the index is handed back");
        assert!(scratch.index.iter().all(|&k| k == 0), "{:?}", scratch.index);
    }

    #[test]
    fn ties_go_to_the_first_candidate_in_sample_order() {
        // Every candidate covers one missing topic. The first wins; its
        // `swap_remove` moves the last candidate to the front, which then
        // wins the next tie.
        let own = TopicSet::from_iter([1, 2, 3]);
        let links = link_table(&[]);
        let sample = [entry(7, &[1]), entry(8, &[2]), entry(9, &[3])];
        let picks = picks(1, 3, 15, NodeIdx(0), &own, &links, &sample);
        assert_eq!(picks, [NodeIdx(7), NodeIdx(9), NodeIdx(8)]);
        assert_eq!(
            picks,
            btree_picks(1, 3, 15, NodeIdx(0), &own, &links, &sample)
        );
    }

    #[test]
    fn a_node_at_its_degree_cap_makes_no_picks() {
        // Two links cover none of the node's topics, and the candidates
        // would, but the cap is two.
        let own = TopicSet::from_iter([1, 2]);
        let links = link_table(&[(3, &[5]), (4, &[6])]);
        let sample = [entry(7, &[1, 2]), entry(8, &[1])];
        assert!(picks(2, 3, 2, NodeIdx(0), &own, &links, &sample).is_empty());
        assert!(btree_picks(2, 3, 2, NodeIdx(0), &own, &links, &sample).is_empty());
        assert_eq!(
            picks(2, 3, 3, NodeIdx(0), &own, &links, &sample),
            [NodeIdx(7)]
        );
    }
}
