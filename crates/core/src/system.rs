//! The system-level API: construction parameters shared by all three
//! systems, the [`VitisProtocol`] adapter that plugs the Vitis node into
//! the generic [`SystemRuntime`], and the [`VitisSystem`] alias.
//!
//! The driver trait ([`PubSub`]) and the runtime that implements it live
//! in [`crate::runtime`]; this module contributes only what is specific
//! to Vitis — node construction, its link visitor, rendezvous-aware
//! loss classification — plus the parameter types the baselines reuse.

use crate::config::VitisConfig;
use crate::monitor::{EventId, LossReason, MissContext, Monitor};
use crate::msg::VitisMsg;
use crate::node::VitisNode;
use crate::runtime::{LossView, PubSubProtocol, Reach, SystemRuntime};
use crate::topic::{RateTable, Subs, TopicId, TopicSet};
use crate::topo::{NodeTopo, RelayTopo, TopoLink};
use rand::Rng;
use std::rc::Rc;
use std::sync::Arc;
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_sim::antientropy::AeConfig;
use vitis_sim::event::NodeIdx;
use vitis_sim::fault::FaultPlan;
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::time::Duration;

pub use crate::runtime::PubSub;

/// A constant per-message latency in ticks. Every system runs on the
/// one-tick default (`SystemRuntime` builds it itself); this type is kept
/// only because `benchmark/src/replay.rs` builds
/// `NetworkSpec::default().build()` (ROADMAP item 5(b)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetworkSpec {
    /// Constant per-message latency in ticks.
    Constant(u64),
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec::Constant(1)
    }
}

impl NetworkSpec {
    /// The latency model for an engine.
    pub fn build(self) -> vitis_sim::network::ConstantLatency {
        let NetworkSpec::Constant(d) = self;
        vitis_sim::network::ConstantLatency(Duration(d))
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
    /// Join grace before a node is counted in expected-delivery sets.
    pub grace: Duration,
    /// Scheduled message-loss episodes applied on top of the one-tick
    /// latency every message takes. The empty plan (default) draws
    /// nothing. Nodes go down through churn (`PubSub::set_online`), not
    /// here.
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
        let subscriptions: Vec<Subs> = subscriptions.into_iter().map(Subs::new).collect();
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
            grace: Duration(0),
            faults: FaultPlan::empty(),
            repair: AeConfig::default(),
        }
    }
}

/// A complete Vitis network behind the uniform [`PubSub`] API.
pub type VitisSystem = SystemRuntime<VitisProtocol>;

/// The Vitis adapter for [`SystemRuntime`]: hybrid-overlay nodes and
/// rendezvous-aware loss classification.
pub struct VitisProtocol {
    cfg: Rc<VitisConfig>,
}

impl VitisProtocol {
    /// The shared protocol configuration.
    pub fn config(&self) -> &Rc<VitisConfig> {
        &self.cfg
    }
}

/// Vitis's verdict on a miss no transport cause explains, from the facts
/// [`LossView`] gathers: whether the event reached the subscriber's
/// cluster, how many cluster members believe themselves the topic's
/// gateway, how many of those hold relay state for it, and how many nodes
/// claim the topic's rendezvous.
fn miss_reason(reach: Reach, gateways: usize, relayed: usize, claims: usize) -> LossReason {
    match reach {
        // The event reached this connected cluster but forwarding stopped
        // before covering it.
        Reach::Reached => LossReason::IncompleteFlood,
        Reach::Unreached if gateways == 0 => LossReason::NoGateway,
        Reach::Unreached if relayed == 0 => LossReason::RelayBroken,
        Reach::Unreached => match claims {
            0 => LossReason::RelayBroken, // relay chain never terminated
            1 => LossReason::PartitionedCluster,
            _ => LossReason::RingMisroute, // conflicting rendezvous points
        },
    }
}

impl PubSubProtocol for VitisProtocol {
    type Node = VitisNode;

    const BOOT_SALT: u64 = u64::MAX;

    const RING: bool = true;

    fn from_config(cfg: Rc<VitisConfig>) -> Self {
        VitisProtocol { cfg }
    }

    fn make_node(
        &self,
        logical: u32,
        subs: Subs,
        bootstrap: Vec<Entry<Subs>>,
        rates: &Arc<RateTable>,
        monitor: &Monitor,
        repair: &AeConfig,
    ) -> VitisNode {
        VitisNode::new(
            Id::of_node(logical as u64),
            subs,
            self.cfg.clone(),
            rates.clone(),
            monitor.clone(),
            repair.clone(),
            bootstrap,
        )
    }

    fn describe(node: &VitisNode) -> (Id, Subs) {
        (node.ring_id(), node.subscriptions().clone())
    }

    fn node_heap_bytes(node: &VitisNode, owner: impl FnMut(&'static str, u64)) {
        node.heap_bytes(owner);
    }

    fn for_each_link(node: &VitisNode, f: impl FnMut(TopoLink)) {
        TopoLink::of_table(node.routing_table()).for_each(f);
    }

    fn publish_cmd(event: EventId, topic: TopicId) -> VitisMsg {
        VitisMsg::PublishCmd { event, topic }
    }

    fn classify_miss(view: &mut LossView<'_, Self>, miss: &MissContext<'_>) -> LossReason {
        let (topic, engine) = (miss.topic, view.engine());
        let (reach, cluster) = view.cluster(miss);
        let (mut gateways, mut relayed) = (0, 0);
        for &x in cluster {
            if let Some(n) = engine.node(NodeIdx(x)).filter(|n| n.is_gateway(topic)) {
                gateways += 1;
                relayed += usize::from(n.relay_table().has(topic));
            }
        }
        let claims = view.rendezvous_claims(topic, VitisNode::relay_table);
        miss_reason(reach, gateways, relayed, claims)
    }

    fn node_topo(&self, node: &VitisNode, topo: &mut NodeTopo) {
        topo.relays = RelayTopo::of_table(node.relay_table());
        topo.gateway_view = node
            .subscriptions()
            .iter()
            .filter_map(|t| node.proposal(t).map(|p| (t, p.gw_addr)))
            .collect();
        topo.view_bound = Some(self.cfg.rt_size);
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
    use vitis_sim::antientropy::AeConfig;
    use vitis_sim::fault::{FaultEpisode, FaultPlan, LossScope, Span};

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

    /// One seed run untraced and once traced, under loss and a partition
    /// with publisher retries and repair on, so every hop-path builder runs
    /// (publish, receive, recover, retry). The trace changes no count:
    /// stats, engine counters and the per-kind ledger are equal. Only the
    /// traced run's copies carry hop paths: each `deliver_event` path
    /// starts at the publisher with one slot per hop after it, as does
    /// every copy the repair layer caches; no untraced copy carries one.
    #[test]
    fn tracing_does_not_perturb_results() {
        use std::collections::HashMap;
        use vitis_sim::trace::{Trace, TraceEvent};
        let run = |traced: bool| {
            let mut rng = stream_rng(17, domain::WORKLOAD, 1);
            let subscriptions: Vec<TopicSet> = (0..120)
                .map(|_| TopicSet::from_iter((0..4).map(|_| rng.gen_range(0..15u32))))
                .collect();
            let mut params = SystemParams::new(subscriptions, 15);
            params.seed = 17;
            // Publishing starts at round 25 and a fifth of the nodes miss
            // it behind a partition, which heals before the run ends.
            let period = params.round_period.ticks();
            params.faults = FaultPlan::new(vec![
                FaultEpisode::LossBurst {
                    prob: 0.05,
                    span: Span::new(0, u64::MAX),
                    scope: LossScope::All,
                },
                FaultEpisode::Partition {
                    groups: vec![(0..24).collect()],
                    span: Span::new(24 * period, 28 * period),
                },
            ])
            .unwrap();
            params.cfg.publish_retries = 2;
            params.cfg.publish_ack_timeout = 64;
            params.repair = AeConfig::on();
            let mut sys = VitisSystem::new(params);
            let trace = Trace::shared(1 << 16);
            if traced {
                sys.install_trace(trace.clone());
            }
            sys.run_rounds(25);
            sys.reset_metrics();
            let events: Vec<u64> = (0..15)
                .filter_map(|t| sys.publish(TopicId(t)))
                .map(|e| e.0)
                .collect();
            sys.run_rounds(8);
            let cached: Vec<(u32, usize)> = sys
                .engine()
                .alive_nodes()
                .flat_map(|(_, node)| node.repair().serve(&events))
                .map(|(_, _, copy)| (copy.hops, copy.path.len()))
                .collect();
            let counts = (
                format!("{:?}", sys.stats()),
                sys.perf_counters(),
                sys.engine().traffic().kinds().to_vec(),
                sys.recovered_deliveries(),
            );
            let records: Vec<TraceEvent> = trace.borrow().events().cloned().collect();
            (counts, cached, records)
        };
        let (untraced, cached, records) = run(false);
        assert!(!cached.is_empty(), "the repair layer caches copies");
        assert!(cached.iter().all(|&(_, len)| len == 0), "no path untraced");
        assert!(records.is_empty());

        let (traced, cached, records) = run(true);
        assert_eq!(untraced, traced, "forensics tracing must be inert");
        assert!(traced.3 > 0, "some deliveries came through repair");
        let retries = traced.2.iter().find(|k| k.kind == "retry_pub");
        assert!(
            retries.is_some_and(|k| k.delivered > 0),
            "publishers retried"
        );
        assert!(cached.iter().all(|&(hops, len)| len == hops as usize + 1));
        let mut publisher = HashMap::new();
        let mut delivered = 0;
        for ev in &records {
            match ev {
                TraceEvent::PubEvent { event, node, .. } => {
                    publisher.insert(*event, *node);
                }
                TraceEvent::DeliverEvent {
                    event, hops, path, ..
                } => {
                    let slots: Vec<u32> = path.split('>').map(|s| s.parse().unwrap()).collect();
                    assert_eq!(slots.len(), *hops as usize + 1, "{path}");
                    assert_eq!(Some(&slots[0]), publisher.get(event), "{path}");
                    delivered += 1;
                }
                _ => {}
            }
        }
        assert!(delivered > 100, "{delivered} traced deliveries");
    }

    #[test]
    fn loss_report_counts_sum_to_missed_pairs() {
        use vitis_sim::trace::{Trace, TraceEvent};
        let mut rng = stream_rng(23, domain::WORKLOAD, 1);
        let subscriptions: Vec<TopicSet> = (0..150)
            .map(|_| TopicSet::from_iter((0..4).map(|_| rng.gen_range(0..15u32))))
            .collect();
        let mut params = SystemParams::new(subscriptions, 15);
        params.seed = 23;
        // Loss on every link, so the transport step runs with drops on record.
        params.faults = FaultPlan::new(vec![FaultEpisode::LossBurst {
            prob: 0.05,
            span: Span::new(0, u64::MAX),
            scope: LossScope::All,
        }])
        .unwrap();
        let mut sys = VitisSystem::new(params);
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
        assert!(!sys.engine().network_event_drops().is_empty());
        // Each miss produced exactly one drop_event forensics record, and
        // a miss is churn exactly when its subscriber is offline.
        let mut drops = 0u64;
        for ev in trace.borrow().events() {
            if let TraceEvent::DropEvent { node, reason, .. } = ev {
                drops += 1;
                let offline = !sys.engine().is_alive(NodeIdx(*node));
                assert_eq!(reason == "subscriber_churned", offline, "{node}: {reason}");
            }
        }
        assert_eq!(drops, report.missed());
    }

    /// Every branch of the structural classifier. With the transport step's
    /// `subscriber_churned` and `network`, these rows reach every reason.
    #[test]
    fn miss_reason_table() {
        use LossReason::*;
        use Reach::*;
        let table = [
            // (reach, gateways, relayed gateways, rendezvous claims)
            ((Reached, 0, 0, 0), IncompleteFlood),
            ((Reached, 3, 1, 2), IncompleteFlood),
            ((Unreached, 0, 0, 1), NoGateway),
            ((Unreached, 2, 0, 1), RelayBroken),
            ((Unreached, 2, 1, 0), RelayBroken),
            ((Unreached, 2, 1, 1), PartitionedCluster),
            ((Unreached, 1, 1, 2), RingMisroute),
        ];
        for ((reach, gateways, relayed, claims), want) in table {
            let got = miss_reason(reach, gateways, relayed, claims);
            assert_eq!(got, want, "{reach:?} {gateways} {relayed} {claims}");
        }
        let mut reached: Vec<LossReason> = table.iter().map(|&(_, r)| r).collect();
        reached.extend([SubscriberChurned, Network]);
        for reason in LossReason::ALL {
            assert!(reached.contains(&reason), "{reason:?} unreached");
        }
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
