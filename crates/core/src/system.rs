//! The system-level API: construction parameters shared by all three
//! systems, the [`VitisProtocol`] adapter that plugs the Vitis node into
//! the generic [`SystemRuntime`], and the [`VitisSystem`] alias.
//!
//! The driver trait ([`PubSub`]) and the runtime that implements it live
//! in [`crate::runtime`]; this module contributes only what is specific
//! to Vitis — node construction, overlay accessors, rendezvous-aware
//! loss classification — plus the parameter types the baselines reuse.

use crate::config::VitisConfig;
use crate::harness::Workload;
use crate::monitor::{EventId, LossReason, LossReport, Monitor};
use crate::msg::VitisMsg;
use crate::node::VitisNode;
use crate::runtime::{hybrid_rt_probe, reached_component, PubSubProtocol, SystemRuntime};
use crate::topic::{RateTable, Subs, TopicId, TopicSet};
use crate::topo::{NodeTopo, RelayTopo, TopoLink};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use vitis_overlay::entry::Entry;
use vitis_overlay::graph::Graph;
use vitis_overlay::id::Id;
use vitis_sim::antientropy::AeConfig;
use vitis_sim::event::NodeIdx;
use vitis_sim::fault::FaultPlan;
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::time::Duration;

pub use crate::runtime::PubSub;

/// Subscriber-cluster statistics over up to four evenly spaced sample
/// topics: `(component count, largest component)`. Shared by the health
/// probes of all three systems.
pub fn cluster_probe(
    graph: &Graph,
    workload: &Workload,
    alive: impl Fn(u32) -> bool,
) -> (u64, u64) {
    let n = workload.num_topics();
    let step = (n / 4).max(1);
    let mut clusters = 0u64;
    let mut largest = 0u64;
    for t in (0..n).step_by(step).take(4) {
        let subs: Vec<u32> = workload
            .subscribers(TopicId(t as u32))
            .iter()
            .copied()
            .filter(|&s| alive(s))
            .collect();
        for c in graph.components_within(&subs) {
            clusters += 1;
            largest = largest.max(c.len() as u64);
        }
    }
    (clusters, largest)
}

/// The network model a system runs over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkSpec {
    /// Constant per-message latency in ticks.
    Constant(u64),
    /// Uniform latency in `[min, max]` ticks.
    Uniform(u64, u64),
    /// Constant latency plus independent per-message loss probability.
    LossyConstant(u64, f64),
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec::Constant(1)
    }
}

impl NetworkSpec {
    /// Materialize the boxed model for an engine.
    pub fn build(self) -> vitis_sim::network::DynNetworkModel {
        use vitis_sim::network::{ConstantLatency, Lossy, UniformLatency};
        match self {
            NetworkSpec::Constant(d) => Box::new(ConstantLatency(Duration(d))),
            NetworkSpec::Uniform(min, max) => Box::new(UniformLatency { min, max }),
            NetworkSpec::LossyConstant(d, loss) => Box::new(Lossy {
                inner: ConstantLatency(Duration(d)),
                loss,
            }),
        }
    }
}

/// Construction parameters for any [`SystemRuntime`]-based system.
///
/// Subscriptions are interned behind shared [`Subs`] handles at
/// construction, so cloning params for a side-by-side comparison (and
/// every node/message assembly downstream) copies reference-counted
/// pointers, not topic vectors.
#[derive(Clone)]
pub struct SystemParams {
    /// Master seed for the run.
    pub seed: u64,
    /// Protocol configuration.
    pub cfg: VitisConfig,
    /// Per-logical-node subscriptions (shared handles).
    pub subscriptions: Vec<Subs>,
    /// Number of topics.
    pub num_topics: usize,
    /// Per-topic publication rates.
    pub rates: RateTable,
    /// Gossip round period in ticks.
    pub round_period: Duration,
    /// Bootstrap contacts handed to each joining node.
    pub bootstrap_contacts: usize,
    /// Join grace before a node is counted in expected-delivery sets.
    pub grace: Duration,
    /// The network model (latency/loss) messages travel over.
    pub network: NetworkSpec,
    /// Scheduled fault episodes applied on top of the network model and,
    /// for crash/freeze episodes, to the engine's node population. The
    /// empty plan (default) is bit-identical to a fault-free run.
    pub faults: FaultPlan,
    /// Anti-entropy repair layer (digest exchange + pull recovery),
    /// threaded into every node of whichever protocol runs on these
    /// params. Disabled by default — the off configuration is
    /// bit-identical to a build without the layer.
    pub repair: AeConfig,
}

impl SystemParams {
    /// Sensible defaults around a subscription assignment.
    pub fn new(subscriptions: Vec<TopicSet>, num_topics: usize) -> Self {
        let subscriptions: Vec<Subs> = subscriptions.into_iter().map(Arc::new).collect();
        let n = subscriptions.len();
        let rates = RateTable::uniform(num_topics);
        let cfg = VitisConfig {
            est_n: n.max(2),
            ..VitisConfig::default()
        };
        SystemParams {
            seed: 42,
            cfg,
            subscriptions,
            num_topics,
            rates,
            round_period: Duration(64),
            bootstrap_contacts: 5,
            grace: Duration(0),
            network: NetworkSpec::default(),
            faults: FaultPlan::empty(),
            repair: AeConfig::default(),
        }
    }
}

/// A complete Vitis network behind the uniform [`PubSub`] API.
pub type VitisSystem = SystemRuntime<VitisProtocol>;

/// The Vitis adapter for [`SystemRuntime`]: hybrid-overlay nodes,
/// rendezvous-aware loss classification, ring + view-age structure probe.
pub struct VitisProtocol {
    cfg: Arc<VitisConfig>,
    repair: AeConfig,
}

impl VitisProtocol {
    /// The shared protocol configuration.
    pub fn config(&self) -> &Arc<VitisConfig> {
        &self.cfg
    }

    /// Classify one missed `(event, subscriber)` pair against the current
    /// overlay structure. `comps` are the alive-subscriber components of
    /// the miss's topic, `rendezvous_claims` the number of nodes claiming
    /// the topic's rendezvous relay.
    fn classify_miss(
        rt: &SystemRuntime<Self>,
        comps: &[Vec<u32>],
        rendezvous_claims: usize,
        miss: &crate::monitor::MissContext<'_>,
    ) -> LossReason {
        if let Some(reason) = rt.transport_loss(miss) {
            return reason;
        }
        let Some((comp, reached)) = reached_component(comps, miss) else {
            // Alive but outside the ground truth: treat as disconnected.
            return LossReason::PartitionedCluster;
        };
        if reached {
            // The event reached this connected cluster but forwarding
            // stopped before covering it.
            return LossReason::IncompleteFlood;
        }
        let engine = rt.engine();
        let gateways: Vec<&VitisNode> = comp
            .iter()
            .filter_map(|&x| engine.node(NodeIdx(x)))
            .filter(|n| n.is_gateway(miss.topic))
            .collect();
        if gateways.is_empty() {
            return LossReason::NoGateway;
        }
        if !gateways.iter().any(|g| g.relay_table().has(miss.topic)) {
            return LossReason::RelayBroken;
        }
        match rendezvous_claims {
            0 => LossReason::RelayBroken, // relay chain never terminated
            1 => LossReason::PartitionedCluster,
            _ => LossReason::RingMisroute, // conflicting rendezvous points
        }
    }
}

impl PubSubProtocol for VitisProtocol {
    type Node = VitisNode;

    const BOOT_SALT: u64 = u64::MAX;

    fn from_params(params: &SystemParams) -> Self {
        if let Err(e) = params.cfg.validate() {
            panic!("invalid VitisConfig: {e}");
        }
        VitisProtocol {
            cfg: Arc::new(params.cfg.clone()),
            repair: params.repair.clone(),
        }
    }

    fn make_node(
        &self,
        logical: u32,
        subs: Subs,
        bootstrap: Vec<Entry<Subs>>,
        rates: &Arc<RateTable>,
        monitor: &Monitor,
    ) -> VitisNode {
        VitisNode::new(
            Id::of_node(logical as u64),
            subs,
            self.cfg.clone(),
            rates.clone(),
            monitor.clone(),
            bootstrap,
        )
        .with_repair(self.repair.clone())
    }

    fn describe(node: &VitisNode) -> (Id, Subs) {
        (node.ring_id(), node.subscriptions().clone())
    }

    fn degree(node: &VitisNode) -> usize {
        node.routing_table().len()
    }

    fn node_heap_bytes(node: &VitisNode, owner: impl FnMut(&'static str, u64)) {
        node.heap_bytes(owner);
    }

    fn for_each_neighbor(node: &VitisNode, mut f: impl FnMut(NodeIdx)) {
        for e in node.routing_table().iter() {
            f(e.addr);
        }
    }

    fn publish_cmd(event: EventId, topic: TopicId) -> VitisMsg {
        VitisMsg::PublishCmd { event, topic }
    }

    fn loss_report(rt: &SystemRuntime<Self>) -> LossReport {
        let graph = rt.overlay_graph();
        let engine = rt.engine();
        // Lazily computed per-topic state, shared across the misses of a
        // topic: alive-subscriber components and rendezvous-claim counts.
        let mut comps_by_topic: HashMap<TopicId, Vec<Vec<u32>>> = HashMap::new();
        let mut rdv_by_topic: HashMap<TopicId, usize> = HashMap::new();
        rt.monitor().attribute_losses(engine.now(), |miss| {
            let comps = comps_by_topic
                .entry(miss.topic)
                .or_insert_with(|| graph.components_within(&rt.alive_subscribers(miss.topic)));
            let rdv = *rdv_by_topic.entry(miss.topic).or_insert_with(|| {
                engine
                    .alive_nodes()
                    .filter(|(_, n)| {
                        n.relay_table()
                            .get(miss.topic)
                            .is_some_and(|e| e.is_rendezvous())
                    })
                    .count()
            });
            Self::classify_miss(rt, comps, rdv, miss)
        })
    }

    fn structure_probe(rt: &SystemRuntime<Self>) -> (Option<f64>, Option<f64>) {
        let (ring, age) = hybrid_rt_probe(rt, |n| n.routing_table());
        (Some(ring), age)
    }

    fn node_topo(&self, idx: NodeIdx, node: &VitisNode) -> NodeTopo {
        NodeTopo {
            node: idx,
            ring_id: node.ring_id(),
            subs: node.subscriptions().iter().collect(),
            links: TopoLink::of_table(node.routing_table()),
            relays: RelayTopo::of_table(node.relay_table()),
            gateway_view: node
                .subscriptions()
                .iter()
                .filter_map(|t| node.proposal(t).map(|p| (t, p.gw_addr)))
                .collect(),
            view_bound: Some(self.cfg.rt_size),
            relay_ttl: Some(self.cfg.relay_ttl),
        }
    }
}

/// Deterministic helper used across tests/benches: a quick static network
/// with `n` nodes, `topics` topics, `subs_per_node` random subscriptions.
pub fn random_system(n: usize, topics: usize, subs_per_node: usize, seed: u64) -> VitisSystem {
    let mut rng = stream_rng(seed, domain::WORKLOAD, 1);
    let subscriptions: Vec<TopicSet> = (0..n)
        .map(|_| TopicSet::from_iter((0..subs_per_node).map(|_| rng.gen_range(0..topics as u32))))
        .collect();
    let mut params = SystemParams::new(subscriptions, topics);
    params.seed = seed;
    VitisSystem::new(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Converged static network: every event reaches every subscriber.
    #[test]
    fn full_hit_ratio_after_convergence() {
        let mut sys = random_system(200, 40, 6, 11);
        sys.run_rounds(40);
        sys.reset_metrics();
        for t in 0..40 {
            sys.publish(TopicId(t));
        }
        sys.run_rounds(6);
        let s = sys.stats();
        assert!(s.expected > 0);
        assert!(
            s.hit_ratio > 0.99,
            "hit ratio {} ({} / {})",
            s.hit_ratio,
            s.delivered,
            s.expected
        );
        assert!(s.overhead_pct < 60.0, "overhead {}", s.overhead_pct);
        assert!(s.mean_hops >= 1.0);
    }

    #[test]
    fn slot_table_is_built_to_size() {
        for n in [150, 257] {
            let sys = random_system(n, 10, 3, 1);
            assert_eq!(sys.engine().slot_capacity(), n, "no growth slack");
        }
    }

    #[test]
    fn ring_converges() {
        let mut sys = random_system(150, 20, 4, 3);
        sys.run_rounds(40);
        let acc = sys.ring_accuracy();
        assert!(acc > 0.95, "ring accuracy {acc}");
    }

    #[test]
    fn degree_stays_bounded() {
        let mut sys = random_system(120, 30, 5, 5);
        sys.run_rounds(30);
        for (_, node) in sys.engine().alive_nodes() {
            assert!(node.routing_table().len() <= 15);
        }
        assert!(sys.mean_degree() <= 15.0);
        assert!(sys.mean_degree() > 5.0, "table should fill up");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sys = random_system(80, 10, 3, seed);
            sys.run_rounds(20);
            sys.reset_metrics();
            for t in 0..10 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(4);
            let s = sys.stats();
            (s.delivered, s.useful_msgs, s.relay_msgs)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn churn_recovery_restores_delivery() {
        let mut sys = random_system(150, 15, 4, 21);
        sys.run_rounds(30);
        // Crash 20% of the nodes.
        for logical in 0..30 {
            sys.set_online(logical, false);
        }
        assert_eq!(sys.alive_count(), 120);
        sys.run_rounds(15); // heal
        sys.reset_metrics();
        for t in 0..15 {
            sys.publish(TopicId(t));
        }
        sys.run_rounds(6);
        let s = sys.stats();
        assert!(s.hit_ratio > 0.97, "hit ratio after churn {}", s.hit_ratio);
        // Bring them back: they rejoin and eventually receive events again.
        for logical in 0..30 {
            sys.set_online(logical, true);
        }
        assert_eq!(sys.alive_count(), 150);
        sys.run_rounds(15);
        sys.reset_metrics();
        for t in 0..15 {
            sys.publish(TopicId(t));
        }
        sys.run_rounds(6);
        let s = sys.stats();
        assert!(s.hit_ratio > 0.97, "hit ratio after rejoin {}", s.hit_ratio);
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        use vitis_sim::trace::Trace;
        let run = |traced: bool| {
            let mut sys = random_system(120, 15, 4, 17);
            if traced {
                sys.install_trace(Trace::shared(1 << 14));
            }
            sys.run_rounds(25);
            sys.reset_metrics();
            for t in 0..15 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(5);
            let s = sys.stats();
            (
                s.delivered,
                s.expected,
                s.useful_msgs,
                s.relay_msgs,
                s.mean_hops.to_bits(),
                s.mean_latency_ticks.to_bits(),
                s.control_sent,
                s.data_sent,
            )
        };
        assert_eq!(run(false), run(true), "forensics tracing must be inert");
    }

    #[test]
    fn loss_report_counts_sum_to_missed_pairs() {
        use vitis_sim::trace::{Trace, TraceEvent};
        let mut sys = random_system(150, 15, 4, 23);
        let trace = Trace::shared(1 << 16);
        sys.install_trace(trace.clone());
        sys.run_rounds(25);
        sys.reset_metrics();
        for t in 0..15 {
            sys.publish(TopicId(t));
        }
        // Crash a fifth of the network right after publishing so some
        // expected subscribers can never be reached.
        for logical in 0..30 {
            sys.set_online(logical, false);
        }
        sys.run_rounds(5);
        let s = sys.stats();
        let report = sys.loss_report();
        assert_eq!(report.expected, s.expected);
        assert_eq!(report.delivered, s.delivered);
        let total: u64 = report.by_reason.iter().map(|(_, c)| c).sum();
        assert_eq!(total, s.expected - s.delivered, "every miss classified");
        assert!(report.missed() > 0, "the crash should cause misses");
        assert!(
            report.count(LossReason::SubscriberChurned) > 0,
            "crashed subscribers should be attributed to churn: {:?}",
            report.by_reason
        );
        // Each miss produced exactly one drop_event forensics record.
        let drops = trace
            .borrow()
            .events()
            .filter(|ev| matches!(ev, TraceEvent::DropEvent { .. }))
            .count() as u64;
        assert_eq!(drops, report.missed());
    }

    #[test]
    fn traced_run_reconstructs_delivery_paths() {
        use vitis_sim::trace::{Trace, TraceEvent};
        let mut sys = random_system(100, 10, 3, 7);
        sys.run_rounds(25);
        sys.install_trace(Trace::shared(1 << 16));
        sys.reset_metrics();
        let e = sys.publish(TopicId(0)).expect("publishable");
        sys.run_rounds(4);
        let trace = sys.engine().trace_handle().expect("installed");
        let t = trace.borrow();
        let mut pub_seen = false;
        let mut delivers = 0u64;
        let mut fwds = 0u64;
        for ev in t.events() {
            match ev {
                TraceEvent::PubEvent { event, .. } if *event == e.0 => pub_seen = true,
                TraceEvent::DeliverEvent {
                    event, path, hops, ..
                } if *event == e.0 => {
                    delivers += 1;
                    // Path carries publisher..=subscriber: hops+1 slots.
                    let len = path.split('>').count() as u32;
                    assert_eq!(len, hops + 1, "path {path} vs hops {hops}");
                }
                TraceEvent::Fwd { event, .. } if *event == e.0 => fwds += 1,
                _ => {}
            }
        }
        assert!(pub_seen, "pub_event recorded");
        let (expected, delivered) = sys.monitor().event_progress(e).unwrap();
        assert!(expected > 0);
        assert_eq!(delivers as usize, delivered);
        assert!(fwds as usize >= delivered, "every delivery rode a forward");
    }

    #[test]
    fn publish_returns_none_without_subscribers() {
        let subs = vec![TopicSet::from_iter([0u32]); 4];
        let params = SystemParams::new(subs, 2);
        let mut sys = VitisSystem::new(params);
        sys.run_rounds(2);
        assert!(
            sys.publish(TopicId(1)).is_none(),
            "topic 1 has no subscribers"
        );
        assert!(sys.publish(TopicId(0)).is_some());
    }

    #[test]
    fn topic_clusters_cover_subscribers() {
        let mut sys = random_system(100, 10, 3, 13);
        sys.run_rounds(25);
        let total: usize = sys.topic_clusters(TopicId(0)).iter().map(|c| c.len()).sum();
        let alive_subs = sys
            .workload()
            .subscribers(TopicId(0))
            .iter()
            .filter(|&&s| sys.engine().is_alive(NodeIdx(s)))
            .count();
        assert_eq!(total, alive_subs);
    }

    #[test]
    fn gateway_ablation_still_delivers() {
        let mut rng = stream_rng(31, domain::WORKLOAD, 1);
        let subscriptions: Vec<TopicSet> = (0..100)
            .map(|_| TopicSet::from_iter((0..4).map(|_| rng.gen_range(0..10u32))))
            .collect();
        let mut params = SystemParams::new(subscriptions, 10);
        params.seed = 31;
        params.cfg.gateway_election = false;
        let mut sys = VitisSystem::new(params);
        sys.run_rounds(25);
        sys.reset_metrics();
        for t in 0..10 {
            sys.publish(TopicId(t));
        }
        sys.run_rounds(5);
        let s = sys.stats();
        assert!(s.hit_ratio > 0.97, "hit {}", s.hit_ratio);
    }

    #[test]
    fn params_clone_shares_subscription_storage() {
        let sys_params = SystemParams::new(vec![TopicSet::from_iter([0u32, 1]); 8], 2);
        let cloned = sys_params.clone();
        for (a, b) in sys_params.subscriptions.iter().zip(&cloned.subscriptions) {
            assert!(Arc::ptr_eq(a, b), "clone must share interned topic sets");
        }
    }
}
