//! Kernel replays of the traced run.
//!
//! After a workload finishes, the hot kernels of each layer are called
//! directly — through their public functions — on state read back from
//! the live system (sampled nodes' routing tables, subscriptions, relay
//! tables and gateway proposals, the observed queue depth). Each yields a
//! median ns/op, which the report multiplies by the matching count of the
//! same run to estimate the share of the measured phase it explains. A
//! replay runs the kernel hot in a loop, so it is a lower bound on what
//! the call costs inside the engine, where caches are shared with
//! everything else: the gap shows up as `est_share.unattributed`.
//!
//! `sim::event::EventQueue` is crate-private, so the scheduler has no
//! replay of its own; its cost is inside `sim.engine.null_activation_ns`.

use crate::host::thread_cpu_ns;
use crate::metrics::median;
use crate::spans::Spans;
use rand::rngs::SmallRng;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use vitis::gateway::{revise_proposal, Proposal};
use vitis::monitor::{HopPath, Monitor};
use vitis::relay::RelayTable;
use vitis::runtime::{PubSubProtocol, SystemRuntime};
use vitis::system::{NetworkSpec, VitisSystem};
use vitis::topic::{RateTable, Subs, TopicId};
use vitis::utility;
use vitis_overlay::entry::{merge_dedup, Entry};
use vitis_overlay::graph::Graph;
use vitis_overlay::id::Id;
use vitis_overlay::peer_sampling::{Newscast, PeerSampling};
use vitis_overlay::routing::next_hop;
use vitis_overlay::rt::{build_exchange_buffer, select_neighbors, HybridRt, RtParams};
use vitis_sim::antientropy::{AeConfig, AntiEntropy};
use vitis_sim::engine::{Engine, EngineConfig};
use vitis_sim::event::NodeIdx;
use vitis_sim::fault::{FaultEpisode, FaultPlan, FaultedNetwork, LossScope, Span};
use vitis_sim::network::NetworkModel;
use vitis_sim::protocol::{Context, Protocol};
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::time::{Duration, SimTime};
use vitis_sim::trace::{Trace, TraceEvent, TrafficClass};

/// Nodes and topics sampled from the live system.
const SAMPLE_NODES: usize = 64;
const SAMPLE_TOPICS: usize = 16;
/// Timed batches per kernel; the reported ns/op is their median.
const BATCHES: usize = 9;
/// Calls per batch for microsecond-scale and nanosecond-scale kernels
/// (both give well over 1 000 calls per kernel).
const SLOW_CALLS: usize = 250;
const FAST_CALLS: usize = 20_000;

/// One sampled live node.
pub struct NodeView<'a> {
    pub addr: NodeIdx,
    pub id: Id,
    pub rt: &'a HybridRt<Subs>,
    pub subs: Subs,
}

/// What the shared-layer replays need from a live system.
pub struct LiveState<'a> {
    pub nodes: Vec<NodeView<'a>>,
    pub rt_params: RtParams,
    pub age_threshold: u16,
    /// `None` for a subscription-oblivious table (RVR): utility ≡ 0.
    pub rates: Option<Arc<RateTable>>,
    pub num_slots: usize,
    pub queue_hwm: u64,
    pub graph: Graph,
    /// Online subscribers of a few evenly spaced topics.
    pub topic_subscribers: Vec<(TopicId, Vec<u32>)>,
    /// Mean anti-entropy cache fill over the sampled nodes (0 = repair off).
    pub ae_cached: usize,
}

/// Evenly spaced sample of up to `max` indices out of `0..len`.
fn spaced(len: usize, max: usize) -> impl Iterator<Item = usize> {
    let take = len.min(max);
    (0..take).map(move |i| i * len / take.max(1))
}

/// Read the shared-layer state back from any system whose nodes keep a
/// [`HybridRt`].
pub fn live_state<'a, P: PubSubProtocol>(
    sys: &'a SystemRuntime<P>,
    table_of: impl Fn(&'a P::Node) -> &'a HybridRt<Subs>,
    rt_params: RtParams,
    age_threshold: u16,
    rates: Option<Arc<RateTable>>,
    ae_cached: usize,
) -> LiveState<'a> {
    let alive: Vec<(NodeIdx, &P::Node)> = sys.engine().alive_nodes().collect();
    let nodes = spaced(alive.len(), SAMPLE_NODES)
        .map(|i| {
            let (addr, node) = alive[i];
            let (id, subs) = P::describe(node);
            NodeView {
                addr,
                id,
                rt: table_of(node),
                subs,
            }
        })
        .collect();
    let topics = sys.workload().num_topics();
    let topic_subscribers = spaced(topics, SAMPLE_TOPICS)
        .map(|t| {
            let topic = TopicId(t as u32);
            (topic, sys.alive_subscribers(topic))
        })
        .collect();
    LiveState {
        nodes,
        rt_params,
        age_threshold,
        rates,
        num_slots: sys.engine().num_slots(),
        queue_hwm: sys.engine().perf_counters().queue_hwm,
        graph: sys.overlay_graph(),
        topic_subscribers,
        ae_cached,
    }
}

/// Median on-CPU ns per call over [`BATCHES`] timed batches of `calls` calls;
/// `op` receives a running call index to pick its input.
fn ns_per_op(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = thread_cpu_ns();
            for _ in 0..calls {
                op(i);
                i += 1;
            }
            (thread_cpu_ns() - t) as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// Stores each kernel's result as `<layer>_ns`.
struct Recorder<'v> {
    values: &'v mut BTreeMap<String, f64>,
}

impl Recorder<'_> {
    fn kernel(&mut self, layer: &str, measure: impl FnOnce() -> f64) {
        let ns = measure();
        self.values.insert(format!("{layer}_ns"), ns);
    }
}

/// A no-op protocol that keeps a fixed number of messages in flight: what
/// is left when the handlers do nothing is the engine, its scheduler, the
/// traffic ledger and the network model — the floor under every activation.
struct Ping {
    next: NodeIdx,
    burst: u32,
}

impl Protocol for Ping {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        for _ in 0..self.burst {
            ctx.send(self.next, ());
        }
    }
    fn on_round(&mut self, _: &mut Context<'_, ()>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, ()>, _: NodeIdx, _: ()) {
        ctx.send(self.next, ());
    }
}

fn null_activation_ns(num_slots: usize, queue_hwm: u64) -> f64 {
    let n = num_slots.max(2);
    let burst = queue_hwm.div_ceil(n as u64).clamp(1, 1024) as u32;
    let mut engine = Engine::with_network(
        EngineConfig {
            seed: 1,
            round_period: Duration(64),
            desynchronize_rounds: true,
        },
        NetworkSpec::default().build(),
    );
    for i in 0..n {
        engine.add_node(Ping {
            next: NodeIdx(((i + 1) % n) as u32),
            burst,
        });
    }
    engine.run_until(SimTime(2));
    let ticks = (200_000 / (n as u64 * u64::from(burst))).max(1);
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let before = engine.perf_counters().total_activations();
            let t = thread_cpu_ns();
            engine.run_until(engine.now() + Duration(ticks));
            let ns = (thread_cpu_ns() - t) as f64;
            ns / (engine.perf_counters().total_activations() - before).max(1) as f64
        })
        .collect();
    median(&per_batch)
}

/// The fault schedule shape of the churn workload, with all three regimes
/// (quiet, loss burst, partition) inside `0..300` ticks.
fn replay_fault_plan(num_slots: usize) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEpisode::LossBurst {
            prob: 0.2,
            span: Span::new(100, 200),
            scope: LossScope::All,
        },
        FaultEpisode::Partition {
            groups: vec![(0..(num_slots as u32 / 4).max(1)).collect()],
            span: Span::new(200, 300),
        },
    ])
    .expect("the replay fault plan is valid by construction")
}

fn self_entry(n: &NodeView<'_>) -> Entry<Subs> {
    Entry::fresh(n.addr, n.id, n.subs.clone())
}

/// Replays of the layers every system shares: engine, network, overlay
/// substrate, monitor, anti-entropy, trace.
pub fn run_shared(live: &LiveState<'_>, values: &mut BTreeMap<String, f64>) {
    let mut rec = Recorder { values };
    let nodes = &live.nodes;
    if nodes.is_empty() {
        return;
    }
    let node = |i: usize| &nodes[i % nodes.len()];
    let peer = |i: usize| &nodes[(i + 1) % nodes.len()];
    let mut rng: SmallRng = stream_rng(7, domain::NODE, 0);

    rec.kernel("sim.engine.null_activation", || {
        null_activation_ns(live.num_slots, live.queue_hwm)
    });

    let slots = live.num_slots.max(2) as u32;
    let plain = NetworkSpec::default().build();
    rec.kernel("sim.network.latency", || {
        ns_per_op(FAST_CALLS, |i| {
            let (from, to) = (NodeIdx(i as u32 % slots), NodeIdx((i as u32 + 7) % slots));
            black_box(plain.latency(SimTime(i as u64), from, to, &mut rng));
        })
    });
    let faulted = FaultedNetwork::new(
        NetworkSpec::default().build(),
        replay_fault_plan(live.num_slots),
    );
    rec.kernel("sim.fault.faulted_latency", || {
        ns_per_op(FAST_CALLS, |i| {
            let (from, to) = (NodeIdx(i as u32 % slots), NodeIdx((i as u32 + 7) % slots));
            black_box(faulted.latency(SimTime(i as u64 % 300), from, to, &mut rng));
        })
    });

    // Peer sampling: one Newscast view per sampled node, seeded from its
    // live routing table; an exchange is buffer + merge of a peer's view.
    let view_cap = live.rt_params.rt_size;
    let mut views: Vec<Newscast<Subs>> = nodes
        .iter()
        .map(|n| {
            let mut ps = Newscast::new(view_cap);
            ps.bootstrap(&n.rt.to_vec(), n.addr);
            ps
        })
        .collect();
    let buffers: Vec<Vec<Entry<Subs>>> = nodes
        .iter()
        .map(|n| {
            let mut buf = n.rt.to_vec();
            buf.push(self_entry(n));
            buf
        })
        .collect();
    let entries: Vec<Entry<Subs>> = nodes.iter().map(self_entry).collect();
    rec.kernel("overlay.peer_sampling.exchange", || {
        ns_per_op(SLOW_CALLS, |i| {
            let k = i % nodes.len();
            let incoming = &buffers[(k + 1) % nodes.len()];
            black_box(views[k].on_request(&entries[k], peer(i).addr, incoming, &mut rng));
        })
    });

    // One T-Man merge-and-select, as `merge_and_select` assembles it: own
    // table + the peer's exchange buffer, stale descriptors dropped, then
    // Algorithm 4 with Equation 1 as the friend ranking.
    let mut candidates_seen = 0usize;
    let mut merges = 0usize;
    rec.kernel("overlay.rt.select_neighbors", || {
        ns_per_op(SLOW_CALLS, |i| {
            let n = node(i);
            let mut candidates = n.rt.to_vec();
            merge_dedup(&mut candidates, &buffers[(i + 1) % nodes.len()]);
            candidates.retain(|e| e.age <= live.age_threshold);
            candidates_seen += candidates.len();
            merges += 1;
            let keep_sw: Vec<NodeIdx> = n.rt.sw.iter().map(|e| e.addr).collect();
            let keep_friends: Vec<NodeIdx> = n.rt.friends.iter().map(|e| e.addr).collect();
            let rt = match &live.rates {
                Some(rates) => select_neighbors(
                    n.addr,
                    n.id,
                    &live.rt_params,
                    candidates,
                    &keep_sw,
                    &keep_friends,
                    |e| utility(&n.subs, &e.payload, rates),
                    &mut rng,
                ),
                None => select_neighbors(
                    n.addr,
                    n.id,
                    &live.rt_params,
                    candidates,
                    &keep_sw,
                    &keep_friends,
                    |_| 0.0,
                    &mut rng,
                ),
            };
            black_box(rt);
        })
    });
    rec.values.insert(
        "_candidates_per_merge".into(),
        candidates_seen as f64 / merges.max(1) as f64,
    );
    rec.kernel("overlay.rt.build_exchange_buffer", || {
        ns_per_op(SLOW_CALLS, |i| {
            let k = i % nodes.len();
            let sample = &buffers[(k + 1) % nodes.len()];
            black_box(build_exchange_buffer(nodes[k].rt, sample, &entries[k]));
        })
    });
    rec.kernel("overlay.routing.next_hop", || {
        ns_per_op(FAST_CALLS, |i| {
            let n = node(i);
            let target = TopicId(i as u32 % 4096).ring_id();
            black_box(next_hop(n.id, target, n.rt.route_candidates()));
        })
    });
    if !live.topic_subscribers.is_empty() {
        rec.kernel("overlay.graph.components", || {
            ns_per_op(SLOW_CALLS, |i| {
                let (_, subs) = &live.topic_subscribers[i % live.topic_subscribers.len()];
                black_box(live.graph.components_within(subs));
            })
        });
    }

    // Monitor: the shared sink behind every control send and delivery.
    let monitor = Monitor::new();
    rec.kernel("core.monitor.record_control_tx", || {
        ns_per_op(FAST_CALLS, |i| {
            monitor.record_control_tx(NodeIdx(i as u32 % slots), 96)
        })
    });
    let pairs: Vec<(vitis::monitor::EventId, NodeIdx)> = live
        .topic_subscribers
        .iter()
        .flat_map(|(topic, subs)| {
            let expected: Vec<NodeIdx> = subs.iter().map(|&s| NodeIdx(s)).collect();
            // Four events per sampled topic, like a window's round-robin.
            (0..4)
                .flat_map(|_| {
                    let event = monitor.register_event(*topic, SimTime(0), expected.clone());
                    expected
                        .iter()
                        .map(move |&n| (event, n))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        })
        .collect();
    if !pairs.is_empty() {
        // Each pair is recorded twice over the run: a first arrival and a
        // duplicate, the mix a flooded cluster produces.
        let calls = (pairs.len() * 2).div_ceil(BATCHES).max(SLOW_CALLS);
        rec.kernel("core.monitor.record_delivery", || {
            ns_per_op(calls, |i| {
                let (event, n) = pairs[i % pairs.len()];
                monitor.record_delivery(event, n, 3, SimTime(5));
            })
        });
    }
    let base = (1..4u32).fold(HopPath::origin(NodeIdx(0)), |p, n| p.extend(NodeIdx(n)));
    rec.kernel("core.monitor.hop_path_extend", || {
        ns_per_op(FAST_CALLS, |i| {
            black_box(base.extend(NodeIdx(i as u32)));
        })
    });

    // Anti-entropy at the cache fill observed live (a nominal 64 entries
    // where the workload runs with repair off, so the kernel still has a
    // number; its count, and so its share, is zero there).
    let fill = if live.ae_cached > 0 {
        live.ae_cached
    } else {
        64
    } as u64;
    let mut ae: AntiEntropy<u32> = AntiEntropy::new(AeConfig::on());
    for e in 0..fill {
        ae.insert(e * 2, (e % 64) as u32, 0, 1);
    }
    rec.kernel("sim.antientropy.digest", || {
        ns_per_op(FAST_CALLS, |i| {
            black_box(ae.digest(i as u64));
        })
    });
    // A peer's digest overlapping ours by half: the rest become wants.
    let advertised: Vec<(u64, u32)> = (0..fill.min(64))
        .map(|e| (e * 3, (e % 64) as u32))
        .collect();
    rec.kernel("sim.antientropy.on_digest", || {
        ns_per_op(SLOW_CALLS, |i| {
            black_box(ae.on_digest(NodeIdx(i as u32 % 8), &advertised, 2, |_| true, |_| false));
        })
    });

    let mut trace = Trace::new(1 << 16);
    rec.kernel("sim.trace.record", || {
        ns_per_op(FAST_CALLS, |i| {
            trace.record(TraceEvent::MsgSend {
                now: i as u64,
                from: i as u32 % slots,
                to: (i as u32 + 1) % slots,
                kind: Cow::Borrowed("rt_req"),
                class: TrafficClass::Control,
            })
        })
    });
}

/// Shared-layer replays on a live Vitis system, plus the Vitis-only
/// layers: Equation 1, gateway election, relay tables.
pub fn run_vitis(sys: &VitisSystem, spans: &mut Spans, values: &mut BTreeMap<String, f64>) {
    let replay = spans.begin("bench.replay");
    let cfg = sys.protocol().config().clone();
    let rates = sys.workload().rates().clone();
    let engine = sys.engine();
    let cached: Vec<usize> = engine
        .alive_nodes()
        .map(|(_, n)| n.repair().cached())
        .collect();
    let ae_cached = cached.iter().sum::<usize>() / cached.len().max(1);
    let live = live_state(
        sys,
        |n| n.routing_table(),
        RtParams {
            rt_size: cfg.rt_size,
            k_sw: cfg.k_sw,
            est_n: cfg.est_n,
        },
        cfg.age_threshold,
        Some(rates.clone()),
        ae_cached,
    );
    run_shared(&live, values);
    let nodes = &live.nodes;
    if nodes.is_empty() {
        spans.end(replay);
        return;
    }
    let mut rec = Recorder { values };
    let mean_subs = nodes.iter().map(|n| n.subs.len()).sum::<usize>() as f64 / nodes.len() as f64;
    rec.values.insert("_subs_per_node".into(), mean_subs);

    rec.kernel("core.utility.utility", || {
        ns_per_op(FAST_CALLS, |i| {
            let (a, b) = (
                &nodes[i % nodes.len()],
                &nodes[(i / nodes.len() + i + 1) % nodes.len()],
            );
            black_box(utility(&a.subs, &b.subs, &rates));
        })
    });

    // Gateway election: per (node, subscribed topic), the proposals its
    // interested neighbors currently hold — what their next heartbeat
    // would advertise.
    struct Election<'a, 'b> {
        node: &'a NodeView<'b>,
        topic: TopicId,
        proposals: Vec<(NodeIdx, Proposal)>,
    }
    let elections: Vec<Election<'_, '_>> = nodes
        .iter()
        .flat_map(|n| {
            n.subs.iter().take(8).map(move |topic| Election {
                node: n,
                topic,
                proposals: n
                    .rt
                    .iter()
                    .filter(|e| e.payload.contains(topic))
                    .filter_map(|e| {
                        let p = engine.node(e.addr)?.proposal(topic)?;
                        Some((e.addr, *p))
                    })
                    .collect(),
            })
        })
        .collect();
    if !elections.is_empty() {
        rec.kernel("core.gateway.revise_proposal", || {
            ns_per_op(FAST_CALLS, |i| {
                let e = &elections[i % elections.len()];
                black_box(revise_proposal(
                    e.node.addr,
                    e.node.id,
                    e.topic,
                    cfg.d_max_hops,
                    e.proposals.iter().map(|(a, p)| (*a, p)),
                    |a| e.node.rt.contains(a),
                ));
            })
        });
    }

    // Relay tables of the sampled nodes (falling back to any node that
    // holds relay state, so a sparse sample still measures real entries).
    let mut tables: Vec<RelayTable> = nodes
        .iter()
        .filter_map(|n| engine.node(n.addr))
        .map(|n| n.relay_table().clone())
        .filter(|t| !t.is_empty())
        .collect();
    if tables.is_empty() {
        tables = engine
            .alive_nodes()
            .map(|(_, n)| n.relay_table())
            .filter(|t| !t.is_empty())
            .take(SAMPLE_NODES)
            .cloned()
            .collect();
    }
    if !tables.is_empty() {
        let lookups: Vec<(usize, TopicId, Option<NodeIdx>)> = tables
            .iter()
            .enumerate()
            .flat_map(|(t, table)| {
                table
                    .entries()
                    .map(move |(topic, e)| (t, topic, e.downstreams().next()))
                    .collect::<Vec<_>>()
            })
            .collect();
        rec.kernel("core.relay.fanout", || {
            ns_per_op(FAST_CALLS, |i| {
                let (t, topic, from) = lookups[i % lookups.len()];
                black_box(tables[t].fanout(topic, from));
            })
        });
        let table_count = tables.len();
        rec.kernel("core.relay.tick_expire", || {
            ns_per_op(FAST_CALLS, |i| {
                let table = &mut tables[i % table_count];
                table.tick();
                // Nothing is due: the steady-state cost of the scan.
                table.expire(u16::MAX);
            })
        });
    }
    spans.end(replay);
}
