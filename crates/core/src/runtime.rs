//! The generic system runtime: one engine–monitor plumbing layer shared
//! by every publish/subscribe system in the suite.
//!
//! The paper evaluates three systems — Vitis, RVR and OPT — under
//! *identical* simulation conditions (§V). [`SystemRuntime`] encodes that
//! guarantee structurally instead of by convention: it owns the engine,
//! the monitor, the workload ground truth, publish scheduling, churn
//! bookkeeping and trace wiring exactly once, and a system is just a
//! [`PubSubProtocol`] adapter supplying what genuinely differs between
//! designs — node construction, one link visitor that every structural
//! reader folds over, and the structural step of loss classification.
//!
//! ```text
//! Engine<P::Node>  ──rounds/messages──►  per-node protocol state
//!        ▲
//! SystemRuntime<P>  ── publish scheduling, churn, stats, tracing
//!        ▲
//! PubSubProtocol adapters: VitisProtocol │ RvrProtocol │ OptProtocol
//! ```
//!
//! The blanket `impl<P: PubSubProtocol> PubSub for SystemRuntime<P>` is
//! the **only** [`PubSub`] implementation in the workspace; the driver
//! surface cannot drift between systems.
//!
//! [`SystemRuntime::new`] is the one way to build a system. It validates
//! the run's [`VitisConfig`] once and shares that one copy with the adapter
//! and every node, so all three systems read the same node-degree bound
//! (`rt_size`) and failure-detection threshold (`age_threshold`).

use crate::config::VitisConfig;
use crate::harness::Workload;
use crate::monitor::{EventId, LossReason, LossReport, MissContext, Monitor, PubSubStats};
use crate::msg::DissemMsg;
use crate::relay::RelayTable;
use crate::system::SystemParams;
use crate::topic::{RateTable, Subs, TopicId};
use crate::topo::{NodeTopo, OverlaySnapshot, TopoLink};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use vitis_overlay::entry::Entry;
use vitis_overlay::graph::Graph;
use vitis_overlay::id::Id;
use vitis_overlay::rt::LinkKind;
use vitis_sim::antientropy::AeConfig;
use vitis_sim::engine::{Engine, EngineConfig};
use vitis_sim::event::NodeIdx;
use vitis_sim::fault::FaultedNetwork;
use vitis_sim::network::ConstantLatency;
use vitis_sim::protocol::Protocol;
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::time::{Duration, SimTime};
use vitis_sim::trace::{HealthProbe, TraceHandle};

/// The uniform driver interface over Vitis, RVR and OPT systems.
///
/// Implemented once, by `SystemRuntime<P>`; the experiment harness,
/// examples and tests drive every system through this surface.
pub trait PubSub {
    /// Advance `n` gossip rounds.
    fn run_rounds(&mut self, n: u64);

    /// Advance by raw simulation ticks (fine-grained churn interleaving).
    fn run_ticks(&mut self, ticks: u64);

    /// Publish one event on `topic` from a random online subscriber.
    /// Returns `None` when no subscriber is online.
    fn publish(&mut self, topic: TopicId) -> Option<EventId>;

    /// Publish one event on a rate-weighted random topic.
    fn publish_weighted(&mut self) -> Option<EventId>;

    /// Metrics since the last reset.
    fn stats(&self) -> PubSubStats;

    /// First-arrival deliveries that came in through the anti-entropy
    /// repair layer rather than the protocol's own dissemination.
    /// Cumulative over the system's lifetime (never reset); zero whenever
    /// repair is disabled.
    fn recovered_deliveries(&self) -> u64;

    /// Clear the measurement window (end of warmup).
    fn reset_metrics(&mut self);

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Number of online nodes.
    fn alive_count(&self) -> usize;

    /// Bring a logical node online/offline (churn driver hook). No-op if
    /// already in the requested state.
    fn set_online(&mut self, logical: u32, online: bool);

    /// Mean node degree over online nodes.
    fn mean_degree(&self) -> f64;

    /// Per-node traffic overhead percentages (Figure 5's distribution),
    /// over nodes that received at least `min_msgs` data-plane messages.
    fn per_node_overhead(&self, min_msgs: u64) -> Vec<f64>;

    /// Install a shared trace into the system's engine **and** its
    /// monitor: lifecycle and message events are recorded engine-side,
    /// and per-event forensics records (`pub_event` / `fwd` /
    /// `deliver_event` / `drop_event`) are recorded monitor-side, all
    /// into the same ring buffer.
    fn install_trace(&mut self, trace: TraceHandle);

    /// Classify every missed `(event, subscriber)` pair of the current
    /// window against the system's present structural state (see
    /// [`crate::monitor::LossReason`]). Per-reason counts sum exactly to
    /// `expected - delivered`; when a trace is installed each miss also
    /// emits a `drop_event` record.
    fn loss_report(&self) -> LossReport;

    /// Sample the overlay's structural health (ring consistency, view
    /// staleness, subscriber clustering). All three systems fill what
    /// they can measure; structure-less fields stay `None`.
    fn health_probe(&self) -> HealthProbe;

    /// Deterministic engine-side perf counters (queue high-water mark,
    /// per-phase node activations). Always available.
    fn perf_counters(&self) -> vitis_sim::perf::EngineCounters;

    /// The system's heap bytes by owner, each Σ capacity × element size:
    /// `slots` (the engine's slot table, i.e. every node's inline state),
    /// `queue` (the calendar queue), `monitor`, then what the nodes own
    /// beyond their inline state, summed per component over online nodes
    /// (see [`PubSubProtocol::node_heap_bytes`]). Read off the containers,
    /// not the allocator; a test under the `perf-alloc` feature holds the
    /// sum within 1.5× of the allocator's live bytes.
    fn footprint(&self) -> Vec<(&'static str, u64)>;

    /// The sum of [`PubSub::footprint`].
    fn footprint_estimate(&self) -> u64 {
        self.footprint().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Export a dense structural snapshot of the current overlay: every
    /// online node's per-kind links, relay entries and gateway beliefs
    /// (see [`crate::topo`]). Nodes appear in slot order, so identical
    /// states export identically.
    fn overlay_snapshot(&self) -> crate::topo::OverlaySnapshot;

    /// Enable (or, with `None`, disable) the periodic topology sampler:
    /// every `every_rounds` gossip rounds the runtime snapshots the
    /// overlay, computes [`crate::topo::probe`] and records a `topo`
    /// record into the installed trace. Default off; a no-op while no
    /// trace is installed. Sampling only reads protocol state — enabling
    /// it never perturbs the simulation itself.
    fn set_topo_sampling(&mut self, every_rounds: Option<u64>);
}

/// What a publish/subscribe design must supply to run on
/// [`SystemRuntime`]: its node type plus the handful of hooks where the
/// three systems genuinely differ. Everything else — round driving,
/// publish scheduling, churn slot management, stats, tracing, every
/// structural reader and the loss-attribution loop — lives in the runtime
/// and is shared verbatim.
pub trait PubSubProtocol: Sized {
    /// The per-node protocol state machine driven by the engine. Its wire
    /// enum carries the shared data plane, so a publish is injected as
    /// [`DissemMsg::Publish`].
    type Node: Protocol<Msg: From<DissemMsg>>;

    /// Salt of the bootstrap-sampling RNG stream in
    /// [`vitis_sim::rng::domain::WORKLOAD`]. Distinct per system so
    /// side-by-side comparisons from cloned params never share draws.
    const BOOT_SALT: u64;

    /// Whether the overlay keeps a ring and ages its links: a `succ` link
    /// per node to check against the true ring, and an age on every link.
    /// When false (OPT) the health probe reports neither ring accuracy nor
    /// view age.
    const RING: bool;

    /// Build the adapter around the run's validated configuration, which
    /// it shares with every node it makes.
    fn from_config(cfg: Rc<VitisConfig>) -> Self;

    /// Construct the node joining as `logical`, with the run's
    /// anti-entropy configuration ([`SystemParams::repair`]).
    fn make_node(
        &self,
        logical: u32,
        subs: Subs,
        bootstrap: Vec<Entry<Subs>>,
        rates: &Arc<RateTable>,
        monitor: &Monitor,
        repair: &AeConfig,
    ) -> Self::Node;

    /// `(ring id, subscriptions)` of a node, as advertised in bootstrap
    /// entries handed to joiners.
    fn describe(node: &Self::Node) -> (Id, Subs);

    /// Visit every overlay link the node holds, links to departed peers
    /// included, in a fixed order, with its kind and age. The overlay
    /// graph, the degrees, ring accuracy, view age and the topology
    /// snapshot's links all fold over this one visitor.
    fn for_each_link(node: &Self::Node, f: impl FnMut(TopoLink));

    /// Classify one missed `(event, subscriber)` pair that no transport
    /// cause explains (the subscriber is online and no copy addressed to it
    /// died in transit), from the structural facts `view` gathers.
    fn classify_miss(view: &mut LossView<'_, Self>, miss: &MissContext<'_>) -> LossReason;

    /// Report the heap bytes `node` owns beyond `size_of::<Node>()`: one
    /// `owner(name, bytes)` call per component, each the component's own
    /// `heap_bytes()` (Σ capacity × element size). The names become the
    /// `mem/<owner>_bytes` rows of the `scale` ladder.
    fn node_heap_bytes(node: &Self::Node, owner: impl FnMut(&'static str, u64));

    /// Add what `node` exports beyond its identity and links to its
    /// topology record: relay entries, gateway beliefs and the configured
    /// bounds. The runtime has already filled `topo`'s slot, ring id,
    /// subscriptions and links; `&self` gives access to shared config.
    fn node_topo(&self, node: &Self::Node, topo: &mut NodeTopo);
}

/// Bootstrap contacts handed to each joining node (Algorithm 1's
/// bootstrap-server reply).
const BOOTSTRAP_CONTACTS: usize = 5;

/// A complete network of one publish/subscribe design: engine, nodes,
/// workload ground truth and metrics behind the uniform [`PubSub`] API.
///
/// Construct with [`SystemRuntime::new`], the one constructor of every
/// system.
pub struct SystemRuntime<P: PubSubProtocol> {
    pub(crate) engine: Engine<P::Node, FaultedNetwork<ConstantLatency>>,
    pub(crate) monitor: Monitor,
    pub(crate) workload: Workload,
    pub(crate) protocol: P,
    /// The run's anti-entropy configuration, handed to every node built.
    repair: AeConfig,
    boot_rng: SmallRng,
    /// Periodic topology-sampling interval in rounds; `None` (default)
    /// disables the sampler entirely.
    topo_every: Option<u64>,
    /// Next scheduled topology sample (meaningful only while enabled).
    next_topo: SimTime,
}

impl<P: PubSubProtocol> SystemRuntime<P> {
    /// Build and start a network with every node online. The adapter and
    /// every node share one copy of `params.cfg`.
    ///
    /// # Panics
    ///
    /// If [`VitisConfig::validate`] rejects `params.cfg`.
    pub fn new(params: SystemParams) -> Self {
        if let Err(e) = params.cfg.validate() {
            panic!("invalid VitisConfig: {e}");
        }
        let protocol = P::from_config(Rc::new(params.cfg));
        let n = params.subscriptions.len();
        let monitor = Monitor::new();
        let workload = Workload::new(
            params.subscriptions,
            params.num_topics,
            params.rates,
            params.grace,
            params.seed,
        );
        // One network type for every run: the empty plan draws nothing and
        // returns the one-tick latency, so a fault-free run needs no path of
        // its own.
        let network = FaultedNetwork::new(ConstantLatency::default(), params.faults);
        let engine = Engine::with_network(
            EngineConfig {
                seed: params.seed,
                round_period: params.round_period,
                desynchronize_rounds: true,
            },
            network,
        );
        let boot_rng = stream_rng(params.seed, domain::WORKLOAD, P::BOOT_SALT);
        let mut sys = SystemRuntime {
            engine,
            monitor,
            workload,
            protocol,
            repair: params.repair,
            boot_rng,
            topo_every: None,
            next_topo: SimTime::default(),
        };
        sys.engine.reserve_nodes(n);
        for logical in 0..n as u32 {
            let node = sys.make_node(logical);
            let slot = sys.engine.add_node(node);
            debug_assert_eq!(slot.0, logical);
        }
        sys
    }

    fn make_node(&mut self, logical: u32) -> P::Node {
        let subs = self.workload.subs_of(logical).clone();
        let bootstrap = self.bootstrap_entries();
        self.protocol.make_node(
            logical,
            subs,
            bootstrap,
            self.workload.rates(),
            &self.monitor,
            &self.repair,
        )
    }

    /// Sample bootstrap contacts among currently online nodes (the
    /// bootstrap-server emulation of Algorithm 1): a uniform random set of
    /// `min(BOOTSTRAP_CONTACTS, online)` distinct online nodes, in draw
    /// order. Slots are drawn uniformly and offline or repeated ones are
    /// rejected, so a join costs O(slots / online) draws instead of a pass
    /// over every slot.
    fn bootstrap_entries(&mut self) -> Vec<Entry<Subs>> {
        let want = BOOTSTRAP_CONTACTS.min(self.engine.alive_count());
        let slots = self.engine.num_slots();
        let mut picked: Vec<Entry<Subs>> = Vec::with_capacity(want);
        while picked.len() < want {
            let slot = NodeIdx(self.boot_rng.gen_range(0..slots) as u32);
            if let Some(node) = self.engine.node(slot) {
                if picked.iter().all(|e| e.addr != slot) {
                    let (id, subs) = P::describe(node);
                    picked.push(Entry::fresh(slot, id, subs));
                }
            }
        }
        picked
    }

    // The engine has one executor, so there is nothing to switch. Kept only
    // because `benchmark/src/workloads.rs:492` still calls it and that file
    // is editable only by a `[benchmark]`-scoped PR; delete this line
    // together with that call (ROADMAP item 5(b)).
    #[doc(hidden)]
    pub fn set_parallel_rounds(&mut self, _on: bool) {}

    /// The protocol adapter (shared config state).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The shared monitor (e.g. for custom event registration in tests).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The underlying engine (read access for snapshots).
    pub fn engine(&self) -> &Engine<P::Node, FaultedNetwork<ConstantLatency>> {
        &self.engine
    }

    /// The workload ground truth.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Snapshot the current overlay as an undirected graph (an edge per
    /// overlay link to an online node).
    pub fn overlay_graph(&self) -> Graph {
        let mut g = Graph::new(self.engine.num_slots());
        for (idx, node) in self.engine.alive_nodes() {
            P::for_each_link(node, |l| {
                if self.engine.is_alive(l.peer) {
                    g.add_edge(idx.0, l.peer.0);
                }
            });
        }
        g
    }

    /// The clusters (maximal connected subscriber subgraphs) of `topic`
    /// in the current overlay.
    pub fn topic_clusters(&self, topic: TopicId) -> Vec<Vec<u32>> {
        let g = self.overlay_graph();
        g.components_within(&self.alive_subscribers(topic))
    }

    /// Number of links `node` holds, departed peers included.
    fn degree(node: &P::Node) -> usize {
        let mut degree = 0;
        P::for_each_link(node, |_| degree += 1);
        degree
    }

    /// Degrees of all online nodes (Figure 11's distribution).
    pub fn degree_distribution(&self) -> Vec<u64> {
        self.engine
            .alive_nodes()
            .map(|(_, n)| Self::degree(n) as u64)
            .collect()
    }

    /// Fraction of online nodes whose `succ` link points at an online node
    /// that is their true ring successor (convergence diagnostic). An
    /// overlay without a ring ([`PubSubProtocol::RING`] false) scores 0.
    pub fn ring_accuracy(&self) -> f64 {
        self.ring_probe().0
    }

    /// Ring accuracy and the mean age of every link online nodes hold
    /// (`None` when no link carries an age), in one pass of the link
    /// visitor.
    fn ring_probe(&self) -> (f64, Option<f64>) {
        let engine = &self.engine;
        // Ring ids by slot, so a successor's id is read once per node.
        let mut ids = vec![Id(0); engine.num_slots()];
        let mut succs: Vec<(Id, Option<NodeIdx>)> = Vec::new();
        let (mut age_sum, mut aged) = (0u64, 0u64);
        for (idx, node) in engine.alive_nodes() {
            let mut succ = None;
            P::for_each_link(node, |l| {
                if l.kind == LinkKind::Successor.as_str() && engine.is_alive(l.peer) {
                    succ = Some(l.peer);
                }
                if let Some(age) = l.age {
                    age_sum += u64::from(age);
                    aged += 1;
                }
            });
            let id = P::describe(node).0;
            ids[idx.index()] = id;
            succs.push((id, succ));
        }
        let ring: Vec<(Id, Option<Id>)> = succs
            .into_iter()
            .map(|(id, succ)| (id, succ.map(|s| ids[s.index()])))
            .collect();
        (
            vitis_overlay::ring::ring_accuracy(&ring),
            (aged > 0).then(|| age_sum as f64 / aged as f64),
        )
    }

    /// Currently-online subscribers of `topic` (ground truth ∩ engine
    /// liveness) — the population loss classifiers reason about.
    pub fn alive_subscribers(&self, topic: TopicId) -> Vec<u32> {
        self.workload
            .subscribers(topic)
            .iter()
            .copied()
            .filter(|&s| self.engine.is_alive(NodeIdx(s)))
            .collect()
    }

    /// Publish from an explicit node (must be online). Returns the event
    /// id.
    pub fn publish_from(&mut self, publisher: u32, topic: TopicId) -> Option<EventId> {
        if !self.engine.is_alive(NodeIdx(publisher)) {
            return None;
        }
        let now = self.engine.now();
        let engine = &self.engine;
        let expected = self
            .workload
            .expected_subscribers(topic, publisher, now, |s| engine.joined_at(NodeIdx(s)));
        let event = self.monitor.register_event(topic, now, expected);
        self.monitor.trace_publish(event, NodeIdx(publisher));
        let publish = DissemMsg::Publish { event, topic };
        self.engine.inject(NodeIdx(publisher), publish.into());
        Some(event)
    }
}

/// Where a missed subscriber sits relative to the copies of its event,
/// within a set of connected components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reach {
    /// No member of the subscriber's component received the event.
    Unreached,
    /// Some member of the subscriber's component received the event.
    Reached,
}

impl Reach {
    /// The component of `comps` holding the missed subscriber and whether
    /// the event reached it.
    ///
    /// # Panics
    /// Panics if no component holds the subscriber: a miss is classified
    /// only while its subscriber is online, and a subscriber stays one.
    fn of<'c>(comps: &'c [Vec<u32>], miss: &MissContext<'_>) -> (Reach, &'c [u32]) {
        let comp = comps
            .iter()
            .find(|c| c.contains(&miss.subscriber.0))
            .expect("an online subscriber lies in one of the components");
        let reached = comp
            .iter()
            .any(|&x| miss.delivered.binary_search(&NodeIdx(x)).is_ok());
        let reach = if reached {
            Reach::Reached
        } else {
            Reach::Unreached
        };
        (reach, comp)
    }
}

/// The structural facts a system's loss classifier may ask for at window
/// close. Each is computed on first use and at most once per report: the
/// overlay graph, each topic's alive-subscriber components, the whole
/// online overlay's components, and each topic's rendezvous claims.
pub struct LossView<'a, P: PubSubProtocol> {
    rt: &'a SystemRuntime<P>,
    graph: Option<Graph>,
    clusters: HashMap<TopicId, Vec<Vec<u32>>>,
    overlay: Option<Vec<Vec<u32>>>,
    claims: HashMap<TopicId, usize>,
}

impl<'a, P: PubSubProtocol> LossView<'a, P> {
    /// The engine the facts are read from.
    pub fn engine(&self) -> &'a Engine<P::Node, FaultedNetwork<ConstantLatency>> {
        &self.rt.engine
    }

    /// The missed subscriber's cluster — its component among the topic's
    /// online subscribers — and whether the event reached it.
    pub fn cluster(&mut self, miss: &MissContext<'_>) -> (Reach, &[u32]) {
        let rt = self.rt;
        let graph = self.graph.get_or_insert_with(|| rt.overlay_graph());
        let comps = self
            .clusters
            .entry(miss.topic)
            .or_insert_with(|| graph.components_within(&rt.alive_subscribers(miss.topic)));
        Reach::of(comps, miss)
    }

    /// Whether the event reached the missed subscriber's component of the
    /// whole online overlay, non-subscribers included.
    pub fn overlay_reach(&mut self, miss: &MissContext<'_>) -> Reach {
        let rt = self.rt;
        let graph = self.graph.get_or_insert_with(|| rt.overlay_graph());
        let comps = self.overlay.get_or_insert_with(|| {
            let alive: Vec<u32> = rt.engine.alive_nodes().map(|(i, _)| i.0).collect();
            graph.components_within(&alive)
        });
        Reach::of(comps, miss).0
    }

    /// How many online nodes claim the rendezvous of `topic` in the relay
    /// table `table_of` reads.
    pub fn rendezvous_claims(
        &mut self,
        topic: TopicId,
        table_of: impl Fn(&P::Node) -> &RelayTable,
    ) -> usize {
        let engine = &self.rt.engine;
        *self.claims.entry(topic).or_insert_with(|| {
            engine
                .alive_nodes()
                .filter(|(_, n)| table_of(n).get(topic).is_some_and(|e| e.is_rendezvous()))
                .count()
        })
    }
}

impl<P: PubSubProtocol> SystemRuntime<P> {
    /// Advance to `target`, taking due topology samples at their exact
    /// timestamps on the way. With sampling off this is exactly
    /// `engine.run_until(target)`.
    fn advance_to(&mut self, target: SimTime) {
        if let Some(every) = self.topo_every {
            let step = Duration(self.engine.round_period().ticks() * every);
            while self.next_topo <= target {
                self.engine.run_until(self.next_topo);
                self.record_topo_sample();
                self.next_topo += step;
            }
        }
        self.engine.run_until(target);
    }

    /// Snapshot every online node's structural state, in slot order.
    fn snapshot_topology(&self) -> OverlaySnapshot {
        OverlaySnapshot {
            now: self.engine.now().0,
            num_slots: self.engine.num_slots(),
            nodes: self
                .engine
                .alive_nodes()
                .map(|(idx, node)| {
                    let (ring_id, subs) = P::describe(node);
                    let mut links = Vec::with_capacity(Self::degree(node));
                    P::for_each_link(node, |l| links.push(l));
                    let mut topo = NodeTopo {
                        node: idx,
                        ring_id,
                        subs: subs.iter().collect(),
                        links,
                        relays: Vec::new(),
                        gateway_view: Vec::new(),
                        view_bound: None,
                    };
                    self.protocol.node_topo(node, &mut topo);
                    topo
                })
                .collect(),
        }
    }

    /// One sampler firing: snapshot, analyze + audit, record a `topo`
    /// trace record. A no-op without an installed trace.
    fn record_topo_sample(&self) {
        let Some(trace) = self.engine.trace_handle() else {
            return;
        };
        let period = self.engine.round_period().ticks();
        let sample = crate::topo::sample(&self.snapshot_topology(), period);
        trace.borrow_mut().record(sample);
    }
}

impl<P: PubSubProtocol> PubSub for SystemRuntime<P> {
    fn run_rounds(&mut self, n: u64) {
        let target = self.engine.now() + Duration(self.engine.round_period().ticks() * n);
        self.advance_to(target);
    }

    fn run_ticks(&mut self, ticks: u64) {
        let target = self.engine.now() + Duration(ticks);
        self.advance_to(target);
    }

    fn publish(&mut self, topic: TopicId) -> Option<EventId> {
        let engine = &self.engine;
        let publisher = self
            .workload
            .choose_publisher(topic, |s| engine.is_alive(NodeIdx(s)))?;
        self.publish_from(publisher, topic)
    }

    fn publish_weighted(&mut self) -> Option<EventId> {
        let topic = self.workload.draw_topic();
        self.publish(topic)
    }

    fn stats(&self) -> PubSubStats {
        self.monitor
            .snapshot()
            .with_kind_traffic(self.engine.traffic())
    }

    fn recovered_deliveries(&self) -> u64 {
        self.monitor.recovered_deliveries()
    }

    fn reset_metrics(&mut self) {
        self.monitor.reset();
        self.engine.reset_kind_traffic();
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn alive_count(&self) -> usize {
        self.engine.alive_count()
    }

    fn set_online(&mut self, logical: u32, online: bool) {
        let slot = NodeIdx(logical);
        match (self.engine.is_alive(slot), online) {
            (false, true) => {
                let node = self.make_node(logical);
                if slot.index() < self.engine.num_slots() {
                    self.engine.rejoin_node(slot, node);
                } else {
                    let got = self.engine.add_node(node);
                    assert_eq!(got, slot, "logical ids must join in order");
                }
            }
            (true, false) => self.engine.remove_node(slot),
            _ => {}
        }
    }

    fn mean_degree(&self) -> f64 {
        let (sum, count) = self
            .engine
            .alive_nodes()
            .fold((0usize, 0usize), |(s, c), (_, n)| {
                (s + Self::degree(n), c + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    fn per_node_overhead(&self, min_msgs: u64) -> Vec<f64> {
        self.monitor
            .per_node_overhead(min_msgs)
            .into_iter()
            .map(|(_, pct)| pct)
            .collect()
    }

    fn install_trace(&mut self, trace: TraceHandle) {
        self.monitor.set_trace(Some(trace.clone()));
        self.engine.set_trace(trace);
    }

    fn loss_report(&self) -> LossReport {
        let mut view = LossView {
            rt: self,
            graph: None,
            clusters: HashMap::new(),
            overlay: None,
            claims: HashMap::new(),
        };
        let drops = self.engine.network_event_drops();
        self.monitor.attribute_losses(self.engine.now(), |miss| {
            // Every system's transport step, decided before any structure
            // is read: the subscriber has gone, or a copy addressed to it
            // died in transit (loss burst or partition) and no later copy
            // made it.
            if !self.engine.is_alive(miss.subscriber) {
                LossReason::SubscriberChurned
            } else if drops
                .iter()
                .any(|&(e, s)| e == miss.event.0 && s == miss.subscriber.0)
            {
                LossReason::Network
            } else {
                P::classify_miss(&mut view, miss)
            }
        })
    }

    fn perf_counters(&self) -> vitis_sim::perf::EngineCounters {
        self.engine.perf_counters()
    }

    fn footprint(&self) -> Vec<(&'static str, u64)> {
        let mut owners = vec![
            ("slots", self.engine.heap_bytes()),
            ("queue", self.engine.queue_bytes()),
            ("monitor", self.monitor.heap_bytes()),
        ];
        for (_, node) in self.engine.alive_nodes() {
            P::node_heap_bytes(node, |owner, bytes| {
                match owners.iter_mut().find(|(name, _)| *name == owner) {
                    Some((_, sum)) => *sum += bytes,
                    None => owners.push((owner, bytes)),
                }
            });
        }
        owners
    }

    fn overlay_snapshot(&self) -> OverlaySnapshot {
        self.snapshot_topology()
    }

    fn set_topo_sampling(&mut self, every_rounds: Option<u64>) {
        self.topo_every = every_rounds;
        if let Some(every) = every_rounds {
            self.next_topo =
                self.engine.now() + Duration(self.engine.round_period().ticks() * every);
        }
    }

    fn health_probe(&self) -> HealthProbe {
        // Subscriber clusters over up to four evenly spaced sample topics.
        let graph = self.overlay_graph();
        let n = self.workload.num_topics();
        let (mut clusters, mut largest) = (0u64, 0u64);
        for t in (0..n).step_by((n / 4).max(1)).take(4) {
            for c in graph.components_within(&self.alive_subscribers(TopicId(t as u32))) {
                clusters += 1;
                largest = largest.max(c.len() as u64);
            }
        }
        let (ring_accuracy, mean_view_age) = if P::RING {
            let (ring, age) = self.ring_probe();
            (Some(ring), age)
        } else {
            (None, None)
        };
        HealthProbe {
            alive: self.engine.alive_count() as u64,
            mean_degree: self.mean_degree(),
            ring_accuracy,
            mean_view_age,
            clusters: Some(clusters),
            largest_cluster: Some(largest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{random_system, VitisSystem};

    /// The slots of one bootstrap reply, after checking that they are
    /// distinct, online and `min(BOOTSTRAP_CONTACTS, online)` many.
    fn contacts(sys: &mut VitisSystem) -> Vec<u32> {
        let slots: Vec<u32> = sys.bootstrap_entries().iter().map(|e| e.addr.0).collect();
        assert_eq!(
            slots.len(),
            BOOTSTRAP_CONTACTS.min(sys.engine.alive_count())
        );
        assert!(slots.iter().all(|&s| sys.engine.is_alive(NodeIdx(s))));
        let mut distinct = slots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), slots.len(), "repeated contact in {slots:?}");
        slots
    }

    #[test]
    fn bootstrap_contacts_are_distinct_online_and_capped() {
        let mut sys = random_system(300, 20, 3, 7);
        for _ in 0..100 {
            contacts(&mut sys);
        }
        // One node online among 1 000 slots: a churn rejoin must find it.
        let mut sys = random_system(1000, 20, 3, 7);
        for logical in 1..1000 {
            sys.set_online(logical, false);
        }
        assert_eq!(contacts(&mut sys), vec![0]);
        sys.set_online(500, true);
        assert_eq!(sys.alive_count(), 2);
        // Nobody online: the reply is empty and a joiner still starts.
        sys.set_online(0, false);
        sys.set_online(500, false);
        assert!(contacts(&mut sys).is_empty());
        sys.set_online(0, true);
        assert_eq!(sys.alive_count(), 1);
    }

    /// The χ² statistic of `counts` against one flat expectation.
    fn chi2(counts: impl Iterator<Item = u64>, expected: f64) -> f64 {
        counts
            .map(|c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    /// The χ² critical value at p ≈ 0.001 for `df` degrees of freedom, by
    /// the Wilson–Hilferty approximation.
    fn chi2_critical(df: f64) -> f64 {
        let v = 2.0 / (9.0 * df);
        df * (1.0 - v + 3.09 * v.sqrt()).powi(3)
    }

    /// Each reply is a uniform 5-subset of the 12 online nodes of a
    /// 20-slot network (all C(12, 5) = 792 subsets alike), and its first
    /// contact is uniform over the 12: the order is random too.
    #[test]
    fn bootstrap_contacts_are_a_uniform_subset_in_random_order() {
        const DRAWS: u64 = 40_000;
        const SUBSETS: usize = 792;
        let mut sys = random_system(20, 5, 2, 3);
        // The first and last slots stay online, so a draw range off by
        // one at either end shows up as subsets never drawn.
        for logical in [1, 4, 6, 9, 11, 14, 16, 18] {
            sys.set_online(logical, false);
        }
        assert_eq!(sys.alive_count(), 12);
        let mut by_subset: HashMap<u32, u64> = HashMap::new();
        let mut first = [0u64; 20];
        for _ in 0..DRAWS {
            let slots = contacts(&mut sys);
            first[slots[0] as usize] += 1;
            let mask = slots.iter().fold(0u32, |m, &s| m | 1 << s);
            *by_subset.entry(mask).or_default() += 1;
        }
        assert_eq!(by_subset.len(), SUBSETS, "a 5-subset was never drawn");
        let subset_chi2 = chi2(by_subset.into_values(), DRAWS as f64 / SUBSETS as f64);
        let crit = chi2_critical((SUBSETS - 1) as f64);
        assert!(
            subset_chi2 < crit,
            "subsets: χ² {subset_chi2:.1} ≥ {crit:.1}"
        );
        let online = (0..20u32).filter(|&s| sys.engine.is_alive(NodeIdx(s)));
        let first_chi2 = chi2(online.map(|s| first[s as usize]), DRAWS as f64 / 12.0);
        let crit = chi2_critical(11.0);
        assert!(
            first_chi2 < crit,
            "first contact: χ² {first_chi2:.1} ≥ {crit:.1}"
        );
    }
}
