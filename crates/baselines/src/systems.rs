//! [`PubSubProtocol`] adapters plugging the baseline nodes into the
//! generic [`SystemRuntime`], so RVR and OPT run on exactly the same
//! engine–monitor plumbing as [`vitis::system::VitisSystem`] and the
//! experiment harness can swap systems freely.

use crate::opt::OptNode;
use crate::rvr::RvrNode;
use std::rc::Rc;
use std::sync::Arc;
use vitis::config::VitisConfig;
use vitis::monitor::{LossReason, MissContext, Monitor};
use vitis::runtime::{LossView, PubSubProtocol, Reach, SystemRuntime};
use vitis::system::{PubSub, SystemParams, VitisSystem};
use vitis::topic::{RateTable, Subs};
use vitis::topo::{NodeTopo, RelayTopo, TopoLink};
use vitis_overlay::entry::Entry;
use vitis_overlay::id::Id;
use vitis_sim::antientropy::AeConfig;

/// A complete RVR (Scribe-equivalent) network behind the uniform
/// [`vitis::system::PubSub`] API.
pub type RvrSystem = SystemRuntime<RvrProtocol>;

/// The RVR adapter: subscription-oblivious small-world tables and a
/// rendezvous multicast tree per topic. Shares the run's configuration
/// with a Vitis system; only `rt_size`, `est_n` and `age_threshold` are
/// used (RVR has no friends, gateways or relay radius). The tree TTL is
/// [`vitis::relay::RELAY_TTL`], as for Vitis's relay paths.
pub struct RvrProtocol {
    cfg: Rc<VitisConfig>,
}

/// RVR's verdict on a miss no transport cause explains, from the facts
/// [`LossView`] gathers: whether the event reached the subscriber's
/// component of the *whole* online overlay (trees route through
/// non-subscribers), whether the subscriber holds tree state for the
/// topic, and how many nodes claim the topic's root.
fn rvr_miss_reason(reach: Reach, tree_state: bool, claims: usize) -> LossReason {
    match (reach, tree_state) {
        // The event never reached this partition of the overlay.
        (Reach::Unreached, _) => LossReason::PartitionedCluster,
        // The subscriber's join path never installed (or let expire) its
        // tree soft state — the RVR analogue of a broken relay.
        (Reach::Reached, false) => LossReason::RelayBroken,
        (Reach::Reached, true) => match claims {
            0 => LossReason::RelayBroken,     // no root: joins never terminated
            1 => LossReason::IncompleteFlood, // tree exists but fanout stopped short
            _ => LossReason::RingMisroute,    // conflicting roots split the tree
        },
    }
}

impl PubSubProtocol for RvrProtocol {
    type Node = RvrNode;

    const BOOT_SALT: u64 = u64::MAX - 1;

    const RING: bool = true;

    fn from_config(cfg: Rc<VitisConfig>) -> Self {
        RvrProtocol { cfg }
    }

    fn make_node(
        &self,
        logical: u32,
        subs: Subs,
        bootstrap: Vec<Entry<Subs>>,
        _rates: &Arc<RateTable>,
        monitor: &Monitor,
        repair: &AeConfig,
    ) -> RvrNode {
        RvrNode::new(
            Id::of_node(logical as u64),
            subs,
            &self.cfg,
            monitor.clone(),
            repair.clone(),
            bootstrap,
        )
    }

    fn describe(node: &RvrNode) -> (Id, Subs) {
        (node.ring_id(), node.subscriptions().clone())
    }

    fn node_heap_bytes(node: &RvrNode, owner: impl FnMut(&'static str, u64)) {
        node.heap_bytes(owner);
    }

    fn for_each_link(node: &RvrNode, f: impl FnMut(TopoLink)) {
        TopoLink::of_table(node.routing_table()).for_each(f);
    }

    fn classify_miss(view: &mut LossView<'_, Self>, miss: &MissContext<'_>) -> LossReason {
        let reach = view.overlay_reach(miss);
        let tree_state = view
            .engine()
            .node(miss.subscriber)
            .is_some_and(|n| n.tree_table().has(miss.topic));
        let claims = view.rendezvous_claims(miss.topic, RvrNode::tree_table);
        rvr_miss_reason(reach, tree_state, claims)
    }

    fn node_topo(&self, node: &RvrNode, topo: &mut NodeTopo) {
        // RVR has no gateway election: subscribers join the tree directly,
        // so there is no believed-gateway view to export.
        topo.relays = RelayTopo::of_table(node.tree_table());
        topo.view_bound = Some(self.cfg.rt_size);
    }
}

/// A complete OPT (SpiderCast-equivalent) network behind the uniform
/// [`vitis::system::PubSub`] API.
pub type OptSystem = SystemRuntime<OptProtocol>;

/// The OPT adapter: correlation-aware overlay-per-topic links, flooding
/// within each topic subgraph, no structured routing at all. Of the run's
/// configuration it reads `rt_size`, its degree bound (`usize::MAX` for
/// Figure 11's unbounded variant), and `age_threshold`.
pub struct OptProtocol {
    cfg: Rc<VitisConfig>,
}

/// OPT's verdict on a miss no transport cause explains. OPT has no
/// structure beyond the per-topic subgraphs, so a miss is either a flood
/// that stopped short inside the reached cluster or a subgraph partition
/// the flood could not cross.
fn opt_miss_reason(reach: Reach) -> LossReason {
    match reach {
        Reach::Reached => LossReason::IncompleteFlood,
        Reach::Unreached => LossReason::PartitionedCluster,
    }
}

impl PubSubProtocol for OptProtocol {
    type Node = OptNode;

    const BOOT_SALT: u64 = u64::MAX - 2;

    // No ring, and its links carry no age.
    const RING: bool = false;

    fn from_config(cfg: Rc<VitisConfig>) -> Self {
        OptProtocol { cfg }
    }

    fn make_node(
        &self,
        logical: u32,
        subs: Subs,
        bootstrap: Vec<Entry<Subs>>,
        _rates: &Arc<RateTable>,
        monitor: &Monitor,
        repair: &AeConfig,
    ) -> OptNode {
        OptNode::new(
            Id::of_node(logical as u64),
            subs,
            self.cfg.clone(),
            monitor.clone(),
            repair.clone(),
            bootstrap,
        )
    }

    fn describe(node: &OptNode) -> (Id, Subs) {
        (node.ring_id(), node.subscriptions().clone())
    }

    fn node_heap_bytes(node: &OptNode, owner: impl FnMut(&'static str, u64)) {
        node.heap_bytes(owner);
    }

    fn for_each_link(node: &OptNode, f: impl FnMut(TopoLink)) {
        node.neighbors()
            .map(|peer| TopoLink {
                peer,
                kind: "mesh",
                age: None,
            })
            .for_each(f);
    }

    fn classify_miss(view: &mut LossView<'_, Self>, miss: &MissContext<'_>) -> LossReason {
        opt_miss_reason(view.cluster(miss).0)
    }

    fn node_topo(&self, _node: &OptNode, topo: &mut NodeTopo) {
        // OPT floods per-topic subgraphs: no relay state, no gateways.
        topo.view_bound = Some(self.cfg.rt_size);
    }
}

/// One of the three publish/subscribe systems the paper evaluates. The
/// one place a system is chosen by value: parsed from `--system`, spelled
/// in run ids and BENCH rows ([`System::name`]) and figure legends
/// ([`System::label`]), and built from [`SystemParams`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    /// The Vitis hybrid overlay.
    Vitis,
    /// The rendezvous-routing baseline.
    Rvr,
    /// The overlay-per-topic baseline, degree-bounded to `cfg.rt_size`.
    Opt,
}

impl System {
    /// Every system, in the order the paper's legends list them.
    pub const ALL: [System; 3] = [System::Vitis, System::Rvr, System::Opt];

    /// Stable lowercase name (`vitis` | `rvr` | `opt`); [`FromStr`]
    /// parses it back.
    ///
    /// [`FromStr`]: std::str::FromStr
    pub fn name(self) -> &'static str {
        match self {
            System::Vitis => "vitis",
            System::Rvr => "rvr",
            System::Opt => "opt",
        }
    }

    /// Figure-legend label (`Vitis` | `RVR` | `OPT`).
    pub fn label(self) -> &'static str {
        match self {
            System::Vitis => "Vitis",
            System::Rvr => "RVR",
            System::Opt => "OPT",
        }
    }

    /// Build this system over `params`, ready to drive through
    /// [`PubSub`].
    pub fn build(self, params: SystemParams) -> Box<dyn PubSub> {
        match self {
            System::Vitis => Box::new(VitisSystem::new(params)),
            System::Rvr => Box::new(RvrSystem::new(params)),
            System::Opt => Box::new(OptSystem::new(params)),
        }
    }
}

impl std::str::FromStr for System {
    type Err = String;

    fn from_str(s: &str) -> Result<System, String> {
        System::ALL
            .into_iter()
            .find(|sys| sys.name() == s)
            .ok_or_else(|| format!("unknown system {s:?} (one of: vitis rvr opt)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::panic::AssertUnwindSafe;
    use vitis::topic::TopicId;
    use vitis::topic::TopicSet;
    use vitis_sim::rng::{domain, stream_rng};

    fn random_params(n: usize, topics: usize, subs: usize, seed: u64) -> SystemParams {
        let mut rng = stream_rng(seed, domain::WORKLOAD, 1);
        let subscriptions: Vec<TopicSet> = (0..n)
            .map(|_| TopicSet::from_iter((0..subs).map(|_| rng.gen_range(0..topics as u32))))
            .collect();
        let mut p = SystemParams::new(subscriptions, topics);
        p.seed = seed;
        p
    }

    #[test]
    fn rvr_reaches_full_hit_ratio() {
        let mut sys = RvrSystem::new(random_params(200, 40, 6, 17));
        sys.run_rounds(55);
        sys.reset_metrics();
        for t in 0..40 {
            sys.publish(TopicId(t));
        }
        sys.run_rounds(6);
        let s = sys.stats();
        assert!(s.expected > 0);
        assert!(s.hit_ratio > 0.99, "hit {}", s.hit_ratio);
        // Rendezvous trees force traffic through uninterested relays.
        assert!(s.relay_msgs > 0, "RVR must have relay traffic");
    }

    #[test]
    fn rvr_degree_is_fixed() {
        let mut sys = RvrSystem::new(random_params(150, 20, 4, 23));
        sys.run_rounds(30);
        for (_, n) in sys.engine().alive_nodes() {
            assert!(n.routing_table().len() <= 15);
            assert!(n.routing_table().friends.is_empty(), "RVR has no friends");
        }
    }

    /// RVR heals from a 20 % crash, over seeds 29–36: hit ratio above
    /// 0.95 on at least 6 of the 8 seeds and above 0.85 on every one. A
    /// tree cut by the crash is re-grafted only by the next JOIN walk,
    /// so a seed's reading swings with the ring's convergence. The
    /// seeds read 0.946 / 0.990 / 0.864 / 1 / 1 / 0.986 / 1 / 0.971:
    /// the floor sits just under the lowest.
    #[test]
    fn rvr_survives_churn() {
        let mut hits = Vec::new();
        for seed in 29..=36 {
            let mut sys = RvrSystem::new(random_params(150, 15, 4, seed));
            sys.run_rounds(30);
            for logical in 0..30 {
                sys.set_online(logical, false);
            }
            sys.run_rounds(15);
            sys.reset_metrics();
            for t in 0..15 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(6);
            hits.push(sys.stats().hit_ratio);
        }
        let healed = hits.iter().filter(|&&h| h > 0.95).count();
        assert!(healed >= 6, "hit > 0.95 on {healed} of 8 seeds: {hits:?}");
        assert!(hits.iter().all(|&h| h > 0.85), "hits after churn {hits:?}");
    }

    #[test]
    fn opt_has_no_relay_traffic() {
        let mut sys = OptSystem::new(random_params(200, 20, 5, 31));
        sys.run_rounds(40);
        sys.reset_metrics();
        for t in 0..20 {
            sys.publish(TopicId(t));
        }
        sys.run_rounds(6);
        let s = sys.stats();
        assert_eq!(s.relay_msgs, 0, "flooding a topic subgraph cannot relay");
        assert!(s.useful_msgs > 0);
        assert!(
            s.hit_ratio > 0.3,
            "some delivery expected, got {}",
            s.hit_ratio
        );
    }

    #[test]
    fn opt_bounded_degree_respects_cap() {
        let params = random_params(150, 30, 8, 37);
        let mut sys = OptSystem::new(params);
        sys.run_rounds(40);
        for (_, n) in sys.engine().alive_nodes() {
            let degree = n.neighbors().count();
            assert!(degree <= 15, "degree {degree} exceeds cap");
        }
    }

    #[test]
    fn opt_unbounded_covers_more_and_grows_degrees() {
        let mut params = random_params(150, 30, 8, 41);
        let mut run = |rt_size: usize| {
            params.cfg.rt_size = rt_size;
            let mut sys = OptSystem::new(params.clone());
            sys.run_rounds(40);
            let max_degree = sys.degree_distribution().into_iter().max().unwrap();
            sys.reset_metrics();
            for t in 0..30 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(6);
            (sys.stats().hit_ratio, max_degree)
        };
        let (bounded, _) = run(8);
        let (unbounded, max_degree) = run(usize::MAX);
        assert!(
            unbounded >= bounded,
            "unbounded {unbounded} < bounded {bounded}"
        );
        assert!(max_degree > 8, "unbounded degrees should exceed the cap");
    }

    /// OPT's failure detection reads the run's `age_threshold`: once a
    /// tenth of the network crashes, the last link to a crashed peer goes
    /// after more than `age_threshold` rounds and at most two more, so
    /// with 2 it goes three rounds before it would with the default 5.
    #[test]
    fn opt_drops_silent_links_after_the_runs_age_threshold() {
        let rounds_to_forget = |age_threshold: u16| {
            let mut params = random_params(100, 10, 3, 59);
            params.cfg.age_threshold = age_threshold;
            let mut sys = OptSystem::new(params);
            sys.run_rounds(20);
            for logical in 0..10 {
                sys.set_online(logical, false);
            }
            let holds_crashed = |sys: &OptSystem| {
                sys.engine()
                    .alive_nodes()
                    .any(|(_, n)| n.neighbors().any(|peer| peer.0 < 10))
            };
            assert!(holds_crashed(&sys), "crashed peers had links");
            let mut rounds = 0;
            while holds_crashed(&sys) && rounds < 20 {
                sys.run_rounds(1);
                rounds += 1;
            }
            rounds
        };
        for age_threshold in [2, 5] {
            let rounds = rounds_to_forget(age_threshold);
            let window = age_threshold + 1..=age_threshold + 2;
            assert!(window.contains(&rounds), "{age_threshold}: {rounds}");
        }
    }

    /// The run's repair setting reaches every node of every system built
    /// through the one constructor.
    #[test]
    fn every_system_builds_every_node_with_the_runs_repair_setting() {
        fn all_repair<P: PubSubProtocol>(
            sys: SystemRuntime<P>,
            enabled: fn(&P::Node) -> bool,
        ) -> bool {
            assert_eq!(sys.alive_count(), 60);
            sys.engine().alive_nodes().all(|(_, n)| enabled(n))
        }
        let mut params = random_params(60, 10, 3, 43);
        params.repair = AeConfig::on();
        for system in System::ALL {
            let p = params.clone();
            let on = match system {
                System::Vitis => all_repair(VitisSystem::new(p), |n| n.repair().enabled()),
                System::Rvr => all_repair(RvrSystem::new(p), |n| n.repair().enabled()),
                System::Opt => all_repair(OptSystem::new(p), |n| n.repair().enabled()),
            };
            assert!(on, "{}: repair off on some node", system.label());
        }
    }

    /// Every system refuses a configuration that `VitisConfig::validate`
    /// rejects: the one constructor checks the config for all three.
    #[test]
    fn every_system_refuses_an_invalid_config() {
        let mut params = random_params(20, 5, 2, 61);
        params.cfg.rt_size = 2;
        assert!(params.cfg.validate().is_err());
        for system in System::ALL {
            let p = params.clone();
            let built = std::panic::catch_unwind(AssertUnwindSafe(|| system.build(p)));
            let Err(err) = built else {
                panic!("{} accepted rt_size 2", system.label());
            };
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.starts_with("invalid VitisConfig"), "{msg}");
        }
    }

    /// Messages sit in every queued event, so their size is a hot constant.
    /// All three systems must report the same observability schema:
    /// control/data traffic split by message kind, and a health probe.
    #[test]
    fn all_systems_separate_control_and_data_traffic() {
        fn check(sys: &mut dyn PubSub, name: &str, expect_ring: bool) {
            sys.run_rounds(30);
            sys.reset_metrics();
            for t in 0..10 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(5);
            let s = sys.stats();
            assert!(s.control_sent > 0, "{name}: gossip is control traffic");
            assert!(s.data_sent > 0, "{name}: notifications are data traffic");
            assert!(
                s.traffic_by_kind.iter().any(|k| k.kind == "notification"),
                "{name}: notification kind must be accounted"
            );
            let sum: u64 = s.traffic_by_kind.iter().map(|k| k.sent).sum();
            assert_eq!(sum, s.control_sent + s.data_sent, "{name}: kinds partition");
            let probe = sys.health_probe();
            assert!(probe.alive > 0, "{name}: probe sees the network");
            assert!(probe.mean_degree > 0.0, "{name}: probe sees links");
            assert_eq!(
                probe.ring_accuracy.is_some(),
                expect_ring,
                "{name}: ring field presence"
            );
            assert!(probe.clusters.unwrap() > 0, "{name}: probe sees clusters");
        }
        let params = random_params(120, 12, 4, 47);
        check(
            &mut vitis::system::VitisSystem::new(params.clone()),
            "vitis",
            true,
        );
        check(&mut RvrSystem::new(params.clone()), "rvr", true);
        check(&mut OptSystem::new(params), "opt", false);
    }

    /// Both baselines must honor the [`PubSub::loss_report`] contract:
    /// per-reason counts partition the missed `(event, subscriber)` pairs.
    #[test]
    fn baseline_loss_reports_sum_to_missed_pairs() {
        fn check(sys: &mut dyn PubSub, name: &str) {
            sys.run_rounds(30);
            sys.reset_metrics();
            for t in 0..10 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(5);
            let s = sys.stats();
            let report = sys.loss_report();
            assert_eq!(report.expected, s.expected, "{name}: expected matches");
            assert_eq!(report.delivered, s.delivered, "{name}: delivered matches");
            let sum: u64 = report.by_reason.iter().map(|&(_, c)| c).sum();
            assert_eq!(sum, report.missed(), "{name}: reasons partition misses");
        }
        let params = random_params(120, 12, 4, 53);
        check(&mut RvrSystem::new(params.clone()), "rvr");
        check(&mut OptSystem::new(params), "opt");
    }

    /// Every branch of the two baselines' structural classifiers; the
    /// transport step adds `subscriber_churned` and `network` to each.
    #[test]
    fn miss_reason_tables() {
        use LossReason::*;
        use Reach::*;
        let rvr = [
            // (reach over the whole overlay, subscriber tree state, root claims)
            ((Unreached, true, 1), PartitionedCluster),
            ((Reached, false, 1), RelayBroken),
            ((Reached, true, 0), RelayBroken),
            ((Reached, true, 1), IncompleteFlood),
            ((Reached, true, 2), RingMisroute),
        ];
        for ((reach, tree_state, claims), want) in rvr {
            let got = rvr_miss_reason(reach, tree_state, claims);
            assert_eq!(got, want, "rvr: {reach:?} {tree_state} {claims}");
        }
        let opt = [(Unreached, PartitionedCluster), (Reached, IncompleteFlood)];
        for (reach, want) in opt {
            assert_eq!(opt_miss_reason(reach), want, "opt: {reach:?}");
        }
        let distinct = |rows: &[LossReason]| {
            LossReason::ALL
                .into_iter()
                .filter(|r| rows.contains(r))
                .collect()
        };
        let rvr_reasons: Vec<LossReason> = distinct(&rvr.map(|(_, r)| r));
        let opt_reasons: Vec<LossReason> = distinct(&opt.map(|(_, r)| r));
        // RVR elects no gateways, so it never returns `no_gateway`.
        assert_eq!(
            rvr_reasons,
            [
                RelayBroken,
                RingMisroute,
                PartitionedCluster,
                IncompleteFlood
            ]
        );
        assert_eq!(opt_reasons, [PartitionedCluster, IncompleteFlood]);
    }

    #[test]
    fn systems_are_deterministic() {
        let run = || {
            let mut sys = RvrSystem::new(random_params(80, 10, 3, 43));
            sys.run_rounds(20);
            sys.reset_metrics();
            for t in 0..10 {
                sys.publish(TopicId(t));
            }
            sys.run_rounds(4);
            let s = sys.stats();
            (s.delivered, s.relay_msgs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn system_names_round_trip_and_all_three_build() {
        for sys in System::ALL {
            assert_eq!(sys.name().parse(), Ok(sys));
            let mut built = sys.build(random_params(60, 10, 3, 43));
            built.run_rounds(2);
            assert_eq!(built.alive_count(), 60, "{}", sys.label());
        }
        let err = "RVR".parse::<System>().expect_err("labels do not parse");
        assert!(err.contains("\"RVR\""), "the error names the token: {err}");
    }
}
