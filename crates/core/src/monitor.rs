//! The evaluation monitor: ground-truth event tracking and data-plane
//! traffic accounting, shared by all three systems.
//!
//! The monitor implements the paper's three metrics:
//!
//! * **Hit ratio** — fraction of (event, subscriber) pairs delivered, where
//!   the expected subscriber set is fixed at publish time (alive subscribers
//!   that joined at least a grace period earlier, matching the paper's
//!   "10 seconds after the node joins" rule in the churn experiments).
//! * **Traffic overhead** — the proportion of *relay* (uninteresting)
//!   data-plane messages, globally and per node (Figure 5's distribution).
//! * **Propagation delay** — hops from publisher to subscriber, averaged
//!   over achieved deliveries.
//!
//! A [`Monitor`] is a cheap `Rc<RefCell>` handle cloned into every node of
//! a system; every handle writes straight into the one shared state, in
//! call order, on the thread that drives the system's engine.

use crate::topic::TopicId;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use vitis_sim::event::NodeIdx;
use vitis_sim::metrics::Summary;
use vitis_sim::time::SimTime;
use vitis_sim::trace::{TraceEvent, TraceHandle, TrafficClass, TrafficLedger};

/// Identifier of a published event within a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u64);

/// How a copy of an event reached a node: the delivery class a first
/// arrival is recorded under ([`Monitor::record_arrival`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Arrival {
    /// Through the system's own dissemination: the publisher's fan-out and
    /// every copy forwarded on from it.
    Flooded,
    /// Through the anti-entropy repair layer (an `ae_push` answering a
    /// pull): counted in [`Monitor::recovered_deliveries`] and flagged
    /// `recovered` in its forensics record.
    Recovered,
}

/// Causal hop-path provenance carried inside dissemination messages: the
/// engine slots an event copy has visited, publisher first. Backed by a
/// shared `Rc` so fanning a notification out to `k` neighbors clones a
/// pointer, not the path; [`HopPath::extend`] allocates once per hop.
///
/// A copy carries a path only while its monitor has a trace installed
/// (the `Dissemination` component builds every path): the `deliver_event`
/// record is the path's only reader, so, like [`Monitor::record_forward`],
/// it costs an untraced run nothing. An untraced copy holds `None`: its
/// first receipt allocates nothing and its duplicates drop no shared `Rc`
/// (DESIGN §14, "Notification copies").
///
/// The handle is one thin pointer on purpose (`Option` of an `Rc` is still
/// 8 bytes), at the price of a second allocation per path (the `Rc`, then
/// the vector's buffer). A path rides in every `Notification` and every
/// notification in flight is an event in the engine's queue:
/// `Rc<[NodeIdx]>` — one allocation, but a 16-byte handle — grew every
/// message of all three systems from 32 to 40 bytes and measured +4 %
/// `cpu_s` on `publish_1k` (and +13 % peak RSS while queue buckets still
/// kept their busiest tick's capacity; DESIGN §14).
///
/// The path is forensic metadata only — it never influences routing and
/// does not count toward wire-size accounting (see `docs/METRICS.md` §6).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HopPath(Option<Rc<Vec<NodeIdx>>>);

impl HopPath {
    /// A path starting (and ending) at the publisher.
    pub fn origin(node: NodeIdx) -> Self {
        HopPath(Some(Rc::new(vec![node])))
    }

    /// The path with `node` appended (a copy; the original is unchanged).
    /// Extending the empty path gives [`HopPath::origin`].
    pub fn extend(&self, node: NodeIdx) -> Self {
        let nodes = self.nodes();
        let mut v = Vec::with_capacity(nodes.len() + 1);
        v.extend_from_slice(nodes);
        v.push(node);
        HopPath(Some(Rc::new(v)))
    }

    /// Visited slots, publisher first; empty when no path was carried.
    pub fn nodes(&self) -> &[NodeIdx] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Number of visited slots (0 for an empty/absent path).
    pub fn len(&self) -> usize {
        self.nodes().len()
    }

    /// Whether no provenance was carried.
    pub fn is_empty(&self) -> bool {
        self.nodes().is_empty()
    }

    /// The trace encoding: `>`-joined slot numbers, e.g. `"0>5>12"`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, n) in self.nodes().iter().enumerate() {
            if i > 0 {
                s.push('>');
            }
            s.push_str(&n.0.to_string());
        }
        s
    }
}

/// Why a missed `(event, subscriber)` pair failed, as classified by the
/// loss-attribution pass at window close ([`Monitor::attribute_losses`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LossReason {
    /// The subscriber went offline between publish and window close.
    SubscriberChurned,
    /// The subscriber's connected topic cluster contains no gateway, so
    /// nothing in its component could have pulled the event off the ring.
    NoGateway,
    /// A gateway exists in the subscriber's cluster but holds no relay
    /// state for the topic (relay path never built or expired).
    RelayBroken,
    /// Conflicting rendezvous claims: more than one alive node believes
    /// it is the topic's rendezvous point, so relay paths diverge.
    RingMisroute,
    /// The subscriber's cluster is disconnected from every copy of the
    /// event (and none of the finer-grained causes above applies).
    PartitionedCluster,
    /// The event reached the subscriber's connected cluster but flooding
    /// or forwarding stopped before covering it (e.g. window closed too
    /// early, or a forwarding gap).
    IncompleteFlood,
    /// The network itself dropped a copy addressed to this subscriber
    /// (loss burst, partition) and no other copy arrived — classified
    /// from the engine's transit-drop record.
    Network,
}

impl LossReason {
    /// Every reason, in display order. `Network` stays last so reports
    /// and goldens from pre-fault-injection runs only gain a trailing
    /// zero-count entry.
    pub const ALL: [LossReason; 7] = [
        LossReason::SubscriberChurned,
        LossReason::NoGateway,
        LossReason::RelayBroken,
        LossReason::RingMisroute,
        LossReason::PartitionedCluster,
        LossReason::IncompleteFlood,
        LossReason::Network,
    ];

    /// Stable snake_case name used in `drop_event` trace records.
    pub fn as_str(self) -> &'static str {
        match self {
            LossReason::SubscriberChurned => "subscriber_churned",
            LossReason::NoGateway => "no_gateway",
            LossReason::RelayBroken => "relay_broken",
            LossReason::RingMisroute => "ring_misroute",
            LossReason::PartitionedCluster => "partitioned_cluster",
            LossReason::IncompleteFlood => "incomplete_flood",
            LossReason::Network => "network",
        }
    }

    /// Inverse of [`LossReason::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        LossReason::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

/// One missed `(event, subscriber)` pair handed to the classification
/// callback of [`Monitor::attribute_losses`].
#[derive(Clone, Debug)]
pub struct MissContext<'a> {
    /// The undelivered event.
    pub event: EventId,
    /// Its topic.
    pub topic: TopicId,
    /// The expected subscriber that never received it.
    pub subscriber: NodeIdx,
    /// Sorted slots that *did* receive the event — lets a classifier ask
    /// whether the event ever reached the subscriber's cluster.
    pub delivered: &'a [NodeIdx],
}

/// The loss-attribution breakdown of one measurement window: every missed
/// `(event, subscriber)` pair classified by a [`LossReason`]. Counts sum
/// exactly to `expected - delivered`.
#[derive(Clone, Debug, Default)]
pub struct LossReport {
    /// Expected `(event, subscriber)` deliveries over the window.
    pub expected: u64,
    /// Deliveries achieved.
    pub delivered: u64,
    /// Misses per reason, ordered as [`LossReason::ALL`].
    pub by_reason: Vec<(LossReason, u64)>,
}

impl LossReport {
    /// Total missed pairs (`expected - delivered`).
    pub fn missed(&self) -> u64 {
        self.expected - self.delivered
    }

    /// Misses attributed to `reason`.
    pub fn count(&self, reason: LossReason) -> u64 {
        self.by_reason
            .iter()
            .find(|(r, _)| *r == reason)
            .map_or(0, |(_, n)| *n)
    }
}

/// Reconvergence measurement for one fault episode: how long after the
/// episode ends does the hit ratio climb back to its pre-fault baseline?
///
/// Usage: capture the baseline hit ratio before injecting the episode,
/// construct the tracker with the episode's end time and a tolerance, then
/// feed per-round hit-ratio samples via [`ReconvergenceTracker::observe`].
/// The recovery time is the span from episode end to the first sample at
/// or above `baseline - tolerance`; it stays `None` (infinite — the system
/// never reconverged) if no such sample arrives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReconvergenceTracker {
    baseline: f64,
    episode_end: SimTime,
    tolerance: f64,
    recovered_at: Option<SimTime>,
}

impl ReconvergenceTracker {
    /// Track recovery toward `baseline` (a hit ratio in `[0, 1]` captured
    /// before the fault) after an episode ending at `episode_end`, calling
    /// the system recovered once samples reach `baseline - tolerance`.
    pub fn new(baseline: f64, episode_end: SimTime, tolerance: f64) -> Self {
        ReconvergenceTracker {
            baseline,
            episode_end,
            tolerance: tolerance.max(0.0),
            recovered_at: None,
        }
    }

    /// The pre-fault baseline hit ratio being recovered toward.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Feed one hit-ratio sample taken at `now`. Samples during the
    /// episode are ignored; the first qualifying post-episode sample is
    /// latched. Returns the recovery time once known.
    pub fn observe(&mut self, now: SimTime, hit_ratio: f64) -> Option<vitis_sim::time::Duration> {
        if self.recovered_at.is_none()
            && now >= self.episode_end
            && hit_ratio >= self.baseline - self.tolerance
        {
            self.recovered_at = Some(now);
        }
        self.recovery_time()
    }

    /// Time from episode end to the latched recovery sample, or `None`
    /// while (or if never) unrecovered.
    pub fn recovery_time(&self) -> Option<vitis_sim::time::Duration> {
        self.recovered_at.map(|t| t.since(self.episode_end))
    }

    /// Whether a qualifying post-episode sample has been seen.
    pub fn recovered(&self) -> bool {
        self.recovered_at.is_some()
    }
}

/// What the monitor keeps of one expected subscriber's arrivals of one
/// event: the fewest hops and the earliest time over every copy counted,
/// two independent minima (a later copy may have come a shorter way). One
/// per expected subscriber of every event in the window that has had a
/// delivery, so its size is pinned (`tests/size_budget.rs`).
#[derive(Clone, Copy, Debug)]
pub struct DeliverySlot {
    hops: u32,
    at: SimTime,
}

impl DeliverySlot {
    /// No copy yet. Both fields are the largest value, so the first
    /// arrival's minima are its own hops and time; no copy arrives at
    /// [`SimTime::MAX`], the end of time.
    const NOT_YET: DeliverySlot = DeliverySlot {
        hops: u32::MAX,
        at: SimTime::MAX,
    };

    fn is_delivered(&self) -> bool {
        self.at != SimTime::MAX
    }
}

/// One published event of the window.
///
/// The delivery table is parallel to `expected`: `delivered[i]` is what
/// arrived at `expected[i]`. It is allocated at the event's first delivery
/// (an event nobody received costs nothing) and holds 16 bytes per expected
/// subscriber from then on, so a delivery is the binary search of
/// `expected` that filters out unexpected nodes, then one slot write.
#[derive(Clone, Debug)]
struct EventRecord {
    topic: TopicId,
    /// Slots of `delivered` that are not [`DeliverySlot::NOT_YET`].
    delivered_count: u32,
    published_at: SimTime,
    /// Sorted subscriber slots expected to receive the event.
    expected: Vec<NodeIdx>,
    /// Parallel to `expected`; empty until the first delivery.
    delivered: Vec<DeliverySlot>,
}

impl EventRecord {
    /// The expected subscribers a copy has reached, in slot order.
    fn delivered_nodes(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.expected
            .iter()
            .zip(&self.delivered)
            .filter(|(_, d)| d.is_delivered())
            .map(|(&n, _)| n)
    }

    /// Whether the subscriber at `expected[i]` has received the event.
    fn is_delivered(&self, i: usize) -> bool {
        self.delivered
            .get(i)
            .is_some_and(DeliverySlot::is_delivered)
    }
}

#[derive(Debug, Default)]
struct MonitorInner {
    events: Vec<EventRecord>,
    /// EventId of `events[0]`. Ids stay globally unique across window
    /// resets — nodes deduplicate forwarding by EventId, so an id must
    /// never be reused within a run.
    first_id: u64,
    /// Forensics sink: when installed, per-event causal records
    /// (`pub_event` / `fwd` / `deliver_event` / `drop_event`) are emitted
    /// here. Pure observation — never consulted by any protocol decision.
    trace: Option<TraceHandle>,
    /// Per-slot received data-plane messages for subscribed topics.
    useful_rx: Vec<u64>,
    /// Per-slot received data-plane messages for unsubscribed topics.
    relay_rx: Vec<u64>,
    /// First arrivals that came through the anti-entropy repair layer
    /// (monitor lifetime; not reset with metrics windows).
    recovered_deliveries: u64,
}

/// Add `by` to `node`'s entry of a per-slot counter, growing it on demand.
fn bump(counts: &mut Vec<u64>, node: NodeIdx, by: u64) {
    let i = node.index();
    if counts.len() <= i {
        counts.resize(i + 1, 0);
    }
    counts[i] += by;
}

impl MonitorInner {
    fn record_of(&mut self, event: EventId) -> Option<&mut EventRecord> {
        let i = event.0.checked_sub(self.first_id)? as usize;
        self.events.get_mut(i)
    }
}

vitis_sim::record! {
    /// Aggregated publish/subscribe metrics over the monitor's current window.
    #[derive(Clone, Debug, Default)]
    pub struct PubSubStats {
        /// Events published.
        pub published: u64,
        /// Total expected (event, subscriber) deliveries.
        pub expected: u64,
        /// Deliveries achieved.
        pub delivered: u64,
        /// `delivered / expected` (1.0 when nothing was expected).
        pub hit_ratio: f64,
        /// Mean hops over achieved deliveries.
        pub mean_hops: f64,
        /// Maximum hops over achieved deliveries.
        pub max_hops: u32,
        /// Data-plane messages received by interested nodes.
        pub useful_msgs: u64,
        /// Data-plane messages received by uninterested (relay) nodes.
        pub relay_msgs: u64,
        /// Global traffic overhead: `relay / (relay + useful)` in percent.
        pub overhead_pct: f64,
        /// Mean delivery latency in simulation ticks (publish to arrival).
        pub mean_latency_ticks: f64,
        /// Maximum delivery latency in ticks.
        pub max_latency_ticks: u64,
        /// Mean control-plane bytes a node sends per gossip round: the
        /// window's control-class wire bytes over its round activations,
        /// from the engine ledger (0 until
        /// [`PubSubStats::with_kind_traffic`] merges it).
        pub control_bytes_per_round: f64,
        /// Control-plane messages handed to the network (engine-side count
        /// over the window, from `Protocol::classify`).
        pub control_sent: u64,
        /// Data-plane messages handed to the network over the window.
        pub data_sent: u64,
        /// Per-message-kind sent/delivered/byte counts over the window, in
        /// first-seen order (empty until a system merges its engine ledger
        /// via [`PubSubStats::with_kind_traffic`]).
        pub traffic_by_kind: Vec<KindStat>,
    }
}

vitis_sim::record! {
    /// Sent/delivered/byte counters for one protocol message kind, as surfaced in
    /// [`PubSubStats::traffic_by_kind`]. Owned strings so the snapshot is
    /// self-contained and serializable.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct KindStat {
        /// Message-kind name (e.g. `"rt_req"`, `"notification"`).
        pub kind: String,
        /// `"control"` or `"data"`.
        pub class: String,
        /// Messages of this kind handed to the network.
        pub sent: u64,
        /// Messages of this kind delivered to alive nodes.
        pub delivered: u64,
        /// Wire bytes of the messages of this kind handed to the network.
        pub bytes: u64,
    }
}

impl PubSubStats {
    /// Merge an engine traffic ledger into this snapshot, filling
    /// [`PubSubStats::control_sent`], [`PubSubStats::data_sent`],
    /// [`PubSubStats::control_bytes_per_round`] and
    /// [`PubSubStats::traffic_by_kind`]. Every system calls this in its
    /// `stats()` so all three report the same schema from one account.
    pub fn with_kind_traffic(mut self, ledger: &TrafficLedger) -> Self {
        self.control_sent = 0;
        self.data_sent = 0;
        self.traffic_by_kind.clear();
        let mut control_bytes = 0;
        for k in ledger.kinds() {
            match k.class {
                TrafficClass::Control => {
                    self.control_sent += k.sent;
                    control_bytes += k.bytes;
                }
                TrafficClass::Data => self.data_sent += k.sent,
            }
            self.traffic_by_kind.push(KindStat {
                kind: k.kind.to_string(),
                class: k.class.as_str().to_string(),
                sent: k.sent,
                delivered: k.delivered,
                bytes: k.bytes,
            });
        }
        self.control_bytes_per_round = match ledger.rounds() {
            0 => 0.0,
            rounds => control_bytes as f64 / rounds as f64,
        };
        self
    }
}

/// Shared monitor handle: one pointer. Cloning shares the underlying
/// accounting state.
#[derive(Clone, Debug, Default)]
pub struct Monitor(Rc<RefCell<MonitorInner>>);

impl Monitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Heap bytes of the window's event records (expected sets and
    /// delivery tables included) and the per-slot traffic counters, as
    /// Σ capacity × element size.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let inner = self.0.borrow();
        let records: u64 = inner
            .events
            .iter()
            .map(|e| {
                (e.expected.capacity() * size_of::<NodeIdx>()
                    + e.delivered.capacity() * size_of::<DeliverySlot>()) as u64
            })
            .sum();
        let counters = inner.useful_rx.capacity() + inner.relay_rx.capacity();
        records
            + (inner.events.capacity() * size_of::<EventRecord>() + counters * size_of::<u64>())
                as u64
    }

    /// Register a published event with its ground-truth expected subscriber
    /// set (the caller excludes the publisher and applies any join-grace
    /// filtering). Returns the event's id.
    pub fn register_event(
        &self,
        topic: TopicId,
        published_at: SimTime,
        mut expected: Vec<NodeIdx>,
    ) -> EventId {
        expected.sort_unstable();
        expected.dedup();
        let mut inner = self.0.borrow_mut();
        let id = EventId(inner.first_id + inner.events.len() as u64);
        inner.events.push(EventRecord {
            topic,
            published_at,
            expected,
            delivered: Vec::new(),
            delivered_count: 0,
        });
        id
    }

    /// Record the arrival of `event` at `node` after `hops` hops at time
    /// `now`. Arrivals at nodes outside the expected set are ignored (e.g.
    /// late joiners); repeated arrivals keep the minimum hop count and the
    /// earliest arrival time.
    pub fn record_delivery(&self, event: EventId, node: NodeIdx, hops: u32, now: SimTime) {
        let untraced = HopPath::default();
        self.record_arrival(event, node, hops, now, &untraced, Arrival::Flooded);
    }

    /// [`Monitor::record_delivery`] with causal provenance and the copy's
    /// [`Arrival`] class: the first arrival at an expected subscriber
    /// additionally emits a `deliver_event` forensics record (hops,
    /// publish-to-arrival latency, the hop path and whether it was
    /// recovered) into the installed trace, if any.
    pub(crate) fn record_arrival(
        &self,
        event: EventId,
        node: NodeIdx,
        hops: u32,
        now: SimTime,
        path: &HopPath,
        class: Arrival,
    ) {
        let recovered = class == Arrival::Recovered;
        let mut inner = self.0.borrow_mut();
        let Some(rec) = inner.record_of(event) else {
            return;
        };
        let Ok(i) = rec.expected.binary_search(&node) else {
            return;
        };
        if rec.delivered.is_empty() {
            rec.delivered = vec![DeliverySlot::NOT_YET; rec.expected.len()];
        }
        let slot = &mut rec.delivered[i];
        let first = !slot.is_delivered();
        slot.hops = slot.hops.min(hops);
        slot.at = slot.at.min(now);
        let published_at = rec.published_at;
        if first {
            rec.delivered_count += 1;
            // A repair-recovered first arrival is a distinct delivery
            // class: counted (it shrinks the loss gap and its `LossReason`
            // attribution) and flagged in the forensics record. Duplicate
            // recoveries of an already-delivered event change nothing.
            if recovered {
                inner.recovered_deliveries += 1;
            }
            if let Some(trace) = &inner.trace {
                trace.borrow_mut().record(TraceEvent::DeliverEvent {
                    now: now.ticks(),
                    event: event.0,
                    node: node.0,
                    hops,
                    latency: now.since(published_at).ticks(),
                    path: path.render(),
                    recovered,
                });
            }
        }
    }

    /// First arrivals at expected subscribers that came through the
    /// anti-entropy repair layer (process lifetime of this monitor, never
    /// reset by metrics windows — callers diff across windows).
    pub fn recovered_deliveries(&self) -> u64 {
        self.0.borrow().recovered_deliveries
    }

    /// Install (or, with `None`, remove) the forensics trace sink. Systems
    /// wire this alongside their engine trace so causal records land in
    /// the same ring buffer as transport events.
    pub fn set_trace(&self, trace: Option<TraceHandle>) {
        self.0.borrow_mut().trace = trace;
    }

    /// Whether a forensics trace is installed: the one reader of the hop
    /// paths that notifications may carry.
    pub fn traced(&self) -> bool {
        self.0.borrow().trace.is_some()
    }

    /// Emit the `pub_event` forensics record for a freshly registered
    /// event: the root of its delivery tree. Call right after
    /// [`Monitor::register_event`], once the publisher is known.
    pub fn trace_publish(&self, event: EventId, publisher: NodeIdx) {
        let mut inner = self.0.borrow_mut();
        let Some(rec) = inner.record_of(event) else {
            return;
        };
        let (now, topic, expected) = (
            rec.published_at.ticks(),
            rec.topic.0 as u64,
            rec.expected.len() as u64,
        );
        if let Some(trace) = &inner.trace {
            trace.borrow_mut().record(TraceEvent::PubEvent {
                now,
                event: event.0,
                topic,
                node: publisher.0,
                expected,
            });
        }
    }

    /// Emit one `fwd` forensics record: `from` handed a copy of `event` to
    /// `to` carrying hop count `hop`. No-op unless a trace is installed, so
    /// protocols call it unconditionally on their forwarding paths.
    pub fn record_forward(
        &self,
        event: EventId,
        from: NodeIdx,
        to: NodeIdx,
        hop: u32,
        now: SimTime,
    ) {
        if let Some(trace) = &self.0.borrow().trace {
            trace.borrow_mut().record(TraceEvent::Fwd {
                now: now.ticks(),
                event: event.0,
                from: from.0,
                to: to.0,
                hop,
            });
        }
    }

    /// Classify every missed `(event, subscriber)` pair of the current
    /// window. `classify` receives a [`MissContext`] per miss and returns
    /// its [`LossReason`]; each miss also emits a `drop_event` forensics
    /// record. The returned report's per-reason counts sum exactly to
    /// `expected - delivered`.
    ///
    /// The monitor is not borrowed while `classify` runs, so the callback
    /// is free to inspect system state that itself consults the monitor.
    pub fn attribute_losses<F>(&self, now: SimTime, mut classify: F) -> LossReport
    where
        F: FnMut(&MissContext<'_>) -> LossReason,
    {
        // Snapshot the misses first so `classify` runs without any borrow
        // of the monitor held.
        struct Miss {
            event: EventId,
            topic: TopicId,
            delivered: Vec<NodeIdx>,
            missing: Vec<NodeIdx>,
        }
        let (misses, trace, mut report) = {
            let inner = self.0.borrow();
            let mut misses = Vec::new();
            let mut report = LossReport::default();
            for (i, rec) in inner.events.iter().enumerate() {
                report.expected += rec.expected.len() as u64;
                report.delivered += u64::from(rec.delivered_count);
                if rec.delivered_count as usize == rec.expected.len() {
                    continue;
                }
                let missing: Vec<NodeIdx> = (rec.expected.iter().enumerate())
                    .filter(|&(j, _)| !rec.is_delivered(j))
                    .map(|(_, &n)| n)
                    .collect();
                misses.push(Miss {
                    event: EventId(inner.first_id + i as u64),
                    topic: rec.topic,
                    delivered: rec.delivered_nodes().collect(),
                    missing,
                });
            }
            (misses, inner.trace.clone(), report)
        };
        report.by_reason = LossReason::ALL.iter().map(|&r| (r, 0)).collect();
        for miss in &misses {
            for &sub in &miss.missing {
                let reason = classify(&MissContext {
                    event: miss.event,
                    topic: miss.topic,
                    subscriber: sub,
                    delivered: &miss.delivered,
                });
                if let Some(slot) = report.by_reason.iter_mut().find(|(r, _)| *r == reason) {
                    slot.1 += 1;
                }
                if let Some(trace) = &trace {
                    trace.borrow_mut().record(TraceEvent::DropEvent {
                        now: now.ticks(),
                        event: miss.event.0,
                        node: sub.0,
                        reason: Cow::Borrowed(reason.as_str()),
                    });
                }
            }
        }
        report
    }

    // Control bytes are the engine ledger's (`Protocol::wire_bytes`), so
    // this records nothing. Kept only because `benchmark/src/replay.rs`
    // still times a call to it and that file is editable only by a
    // `[benchmark]`-scoped PR; delete it together with that kernel
    // (ROADMAP item 5(b)).
    #[doc(hidden)]
    pub fn record_control_tx(&self, _node: NodeIdx, _bytes: u64) {}

    /// Account one received data-plane message at `node`; `useful` is true
    /// iff the receiver is subscribed to the message's topic.
    pub fn record_data_rx(&self, node: NodeIdx, useful: bool) {
        let mut inner = self.0.borrow_mut();
        let counts = if useful {
            &mut inner.useful_rx
        } else {
            &mut inner.relay_rx
        };
        bump(counts, node, 1);
    }

    /// Expected and delivered counts of a single event.
    pub fn event_progress(&self, event: EventId) -> Option<(usize, usize)> {
        self.0
            .borrow_mut()
            .record_of(event)
            .map(|r| (r.expected.len(), r.delivered_count as usize))
    }

    /// Aggregate metrics over everything recorded since the last reset.
    pub fn snapshot(&self) -> PubSubStats {
        let inner = self.0.borrow();
        let mut expected = 0u64;
        let mut delivered = 0u64;
        let mut hops = Summary::new();
        let mut max_hops = 0u32;
        let mut latency = Summary::new();
        let mut max_latency = 0u64;
        for rec in &inner.events {
            expected += rec.expected.len() as u64;
            delivered += u64::from(rec.delivered_count);
            // In sorted node order, so the streaming means accumulate in
            // the same order in every run and the float stats are
            // bit-stable.
            for &DeliverySlot { hops: h, at } in rec.delivered.iter().filter(|d| d.is_delivered()) {
                hops.record(h as f64);
                max_hops = max_hops.max(h);
                let lat = at.since(rec.published_at).ticks();
                latency.record(lat as f64);
                max_latency = max_latency.max(lat);
            }
        }
        let useful: u64 = inner.useful_rx.iter().sum();
        let relay: u64 = inner.relay_rx.iter().sum();
        let total = useful + relay;
        PubSubStats {
            published: inner.events.len() as u64,
            expected,
            delivered,
            hit_ratio: if expected == 0 {
                1.0
            } else {
                delivered as f64 / expected as f64
            },
            mean_hops: hops.mean(),
            max_hops,
            useful_msgs: useful,
            relay_msgs: relay,
            overhead_pct: if total == 0 {
                0.0
            } else {
                100.0 * relay as f64 / total as f64
            },
            mean_latency_ticks: latency.mean(),
            max_latency_ticks: max_latency,
            control_bytes_per_round: 0.0,
            control_sent: 0,
            data_sent: 0,
            traffic_by_kind: Vec::new(),
        }
    }

    /// Per-node traffic overhead in percent, for every slot that received at
    /// least `min_msgs` data-plane messages (Figure 5's distribution).
    pub fn per_node_overhead(&self, min_msgs: u64) -> Vec<(NodeIdx, f64)> {
        let inner = self.0.borrow();
        let n = inner.useful_rx.len().max(inner.relay_rx.len());
        let mut out = Vec::new();
        for i in 0..n {
            let u = inner.useful_rx.get(i).copied().unwrap_or(0);
            let r = inner.relay_rx.get(i).copied().unwrap_or(0);
            let total = u + r;
            if total >= min_msgs.max(1) {
                out.push((NodeIdx(i as u32), 100.0 * r as f64 / total as f64));
            }
        }
        out
    }

    /// Forget all events and traffic (end of a warmup phase, or the start
    /// of a new measurement window in the churn experiment).
    pub fn reset(&self) {
        let mut inner = self.0.borrow_mut();
        inner.first_id += inner.events.len() as u64;
        inner.events.clear();
        inner.useful_rx.clear();
        inner.relay_rx.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeIdx {
        NodeIdx(i)
    }

    #[test]
    fn hit_ratio_counts_expected_pairs_only() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(5), vec![n(1), n(2), n(3)]);
        m.record_delivery(e, n(1), 2, SimTime(9));
        m.record_delivery(e, n(2), 4, SimTime(9));
        m.record_delivery(e, n(9), 1, SimTime(9)); // not expected: ignored
        let s = m.snapshot();
        assert_eq!(s.published, 1);
        assert_eq!(s.expected, 3);
        assert_eq!(s.delivered, 2);
        assert!((s.hit_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_hops - 3.0).abs() < 1e-12);
        assert_eq!(s.max_hops, 4);
    }

    #[test]
    fn duplicate_deliveries_keep_min_hops() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1)]);
        m.record_delivery(e, n(1), 7, SimTime(9));
        m.record_delivery(e, n(1), 3, SimTime(9));
        m.record_delivery(e, n(1), 9, SimTime(9));
        let s = m.snapshot();
        assert_eq!(s.delivered, 1);
        assert!((s.mean_hops - 3.0).abs() < 1e-12);
    }

    #[test]
    fn expected_set_dedups() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1), n(1), n(2)]);
        assert_eq!(m.event_progress(e), Some((2, 0)));
    }

    #[test]
    fn overhead_is_relay_share() {
        let m = Monitor::new();
        for _ in 0..3 {
            m.record_data_rx(n(0), true);
        }
        m.record_data_rx(n(1), false);
        let s = m.snapshot();
        assert_eq!(s.useful_msgs, 3);
        assert_eq!(s.relay_msgs, 1);
        assert!((s.overhead_pct - 25.0).abs() < 1e-12);
    }

    #[test]
    fn per_node_overhead_distribution() {
        let m = Monitor::new();
        m.record_data_rx(n(0), true);
        m.record_data_rx(n(0), false);
        m.record_data_rx(n(2), false);
        let d = m.per_node_overhead(1);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], (n(0), 50.0));
        assert_eq!(d[1], (n(2), 100.0));
        // Threshold filters low-traffic nodes.
        assert_eq!(m.per_node_overhead(2).len(), 1);
    }

    #[test]
    fn empty_snapshot_is_benign() {
        let s = Monitor::new().snapshot();
        assert_eq!(s.hit_ratio, 1.0);
        assert_eq!(s.overhead_pct, 0.0);
        assert_eq!(s.mean_hops, 0.0);
    }

    #[test]
    fn reset_clears_window() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1)]);
        m.record_delivery(e, n(1), 1, SimTime(9));
        m.record_data_rx(n(1), false);
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.published, 0);
        assert_eq!(s.relay_msgs, 0);
    }

    #[test]
    fn clone_shares_state() {
        let m = Monitor::new();
        let m2 = m.clone();
        m2.register_event(TopicId(1), SimTime(0), vec![n(0)]);
        assert_eq!(m.snapshot().published, 1);
    }
}

#[cfg(test)]
mod forensics_tests {
    use super::*;
    use vitis_sim::trace::Trace;

    fn n(i: u32) -> NodeIdx {
        NodeIdx(i)
    }

    #[test]
    fn reconvergence_tracker_latches_first_recovery() {
        let mut tr = ReconvergenceTracker::new(0.95, SimTime(100), 0.02);
        assert_eq!(tr.baseline(), 0.95);
        // Samples during the episode never count, however good.
        assert_eq!(tr.observe(SimTime(50), 1.0), None);
        // Below baseline - tolerance: still recovering.
        assert_eq!(tr.observe(SimTime(120), 0.80), None);
        // First qualifying sample latches the recovery time...
        assert_eq!(
            tr.observe(SimTime(150), 0.94),
            Some(vitis_sim::time::Duration(50))
        );
        assert!(tr.recovered());
        // ...and later samples cannot move it.
        assert_eq!(
            tr.observe(SimTime(200), 1.0),
            Some(vitis_sim::time::Duration(50))
        );
        // A system that never recovers reports None forever.
        let mut never = ReconvergenceTracker::new(0.99, SimTime(10), 0.0);
        assert_eq!(never.observe(SimTime(1000), 0.5), None);
        assert!(!never.recovered());
    }

    #[test]
    fn hop_path_extends_immutably_and_renders() {
        let p0 = HopPath::origin(n(4));
        let p1 = p0.extend(n(9));
        let p2 = p1.extend(n(2));
        assert_eq!(p0.nodes(), &[n(4)]);
        assert_eq!(p1.nodes(), &[n(4), n(9)]);
        assert_eq!(p2.render(), "4>9>2");
        assert_eq!(p2.len(), 3);
        let empty = HopPath::default();
        assert!(empty.is_empty());
        assert_eq!(empty.render(), "");
        assert_eq!(empty.extend(n(4)), p0, "extending no path starts one");
    }

    #[test]
    fn traced_monitor_emits_causal_records() {
        let m = Monitor::new();
        let trace = Trace::shared(64);
        m.set_trace(Some(trace.clone()));
        let e = m.register_event(TopicId(3), SimTime(10), vec![n(1), n(2)]);
        m.trace_publish(e, n(0));
        m.record_forward(e, n(0), n(1), 1, SimTime(11));
        let path = HopPath::origin(n(0)).extend(n(1));
        m.record_arrival(e, n(1), 1, SimTime(12), &path, Arrival::Flooded);
        // A duplicate arrival and an unexpected node emit nothing extra.
        m.record_arrival(e, n(1), 2, SimTime(13), &path, Arrival::Flooded);
        m.record_arrival(e, n(9), 1, SimTime(12), &path, Arrival::Flooded);
        let evs: Vec<TraceEvent> = trace.borrow().events().cloned().collect();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs[0],
            TraceEvent::PubEvent {
                now: 10,
                event: e.0,
                topic: 3,
                node: 0,
                expected: 2
            }
        );
        assert_eq!(
            evs[1],
            TraceEvent::Fwd {
                now: 11,
                event: e.0,
                from: 0,
                to: 1,
                hop: 1
            }
        );
        assert_eq!(
            evs[2],
            TraceEvent::DeliverEvent {
                now: 12,
                event: e.0,
                node: 1,
                hops: 1,
                latency: 2,
                path: "0>1".to_string(),
                recovered: false,
            }
        );
        // Aggregates are unaffected by tracing.
        let s = m.snapshot();
        assert_eq!((s.expected, s.delivered), (2, 1));
    }

    #[test]
    fn untraced_forensics_calls_are_no_ops() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1)]);
        m.trace_publish(e, n(0));
        m.record_forward(e, n(0), n(1), 1, SimTime(1));
        let path = HopPath::origin(n(0));
        m.record_arrival(e, n(1), 1, SimTime(2), &path, Arrival::Flooded);
        assert_eq!(m.snapshot().delivered, 1);
    }

    #[test]
    fn record_forward_follows_the_installed_trace_on_every_handle() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1)]);
        // A node's handle, cloned before any trace exists.
        let handle = m.clone();
        handle.record_forward(e, n(0), n(1), 1, SimTime(1));
        assert!(!handle.traced());

        let trace = Trace::shared(16);
        m.set_trace(Some(trace.clone()));
        assert!(handle.traced(), "every handle sees the installed trace");
        assert_eq!(trace.borrow().events().count(), 0, "untraced: nothing kept");
        handle.record_forward(e, n(0), n(1), 1, SimTime(2));
        m.record_forward(e, n(1), n(2), 2, SimTime(3));
        let fwd: Vec<(u64, u32)> = trace
            .borrow()
            .events()
            .filter_map(|ev| match ev {
                TraceEvent::Fwd { now, hop, .. } => Some((*now, *hop)),
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![(2, 1), (3, 2)], "records land in call order");

        m.set_trace(None);
        handle.record_forward(e, n(0), n(1), 1, SimTime(4));
        assert_eq!(trace.borrow().events().count(), 2, "removed: off again");
        assert!(!handle.traced());
    }

    #[test]
    fn attribute_losses_counts_sum_to_missed_and_emit_drops() {
        let m = Monitor::new();
        let trace = Trace::shared(64);
        m.set_trace(Some(trace.clone()));
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1), n(2), n(3)]);
        m.record_delivery(e, n(1), 1, SimTime(5));
        let report = m.attribute_losses(SimTime(100), |miss| {
            assert_eq!(miss.event, e);
            assert_eq!(miss.topic, TopicId(0));
            assert_eq!(miss.delivered, &[n(1)]);
            if miss.subscriber == n(2) {
                LossReason::SubscriberChurned
            } else {
                LossReason::NoGateway
            }
        });
        assert_eq!(report.expected, 3);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.missed(), 2);
        assert_eq!(report.count(LossReason::SubscriberChurned), 1);
        assert_eq!(report.count(LossReason::NoGateway), 1);
        let total: u64 = report.by_reason.iter().map(|(_, c)| c).sum();
        assert_eq!(total, report.missed());
        let drops = trace
            .borrow()
            .events()
            .filter(|ev| matches!(ev, TraceEvent::DropEvent { .. }))
            .count();
        assert_eq!(drops, 2);
    }

    #[test]
    fn attribute_losses_with_full_delivery_is_empty() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1)]);
        m.record_delivery(e, n(1), 1, SimTime(1));
        let report = m.attribute_losses(SimTime(9), |_| unreachable!("no misses"));
        assert_eq!(report.missed(), 0);
        let total: u64 = report.by_reason.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 0);
    }

    /// `classify` may read and write the monitor it runs under: no borrow
    /// of the shared state is held while it runs.
    #[test]
    fn attribute_losses_lets_classify_use_the_monitor() {
        let m = Monitor::new();
        m.set_trace(Some(Trace::shared(16)));
        let e = m.register_event(TopicId(0), SimTime(0), vec![n(1), n(2)]);
        m.record_delivery(e, n(1), 1, SimTime(5));
        let handle = m.clone();
        let report = m.attribute_losses(SimTime(9), |miss| {
            assert_eq!(handle.event_progress(miss.event), Some((2, 1)));
            assert_eq!(handle.snapshot().delivered, 1);
            handle.record_data_rx(miss.subscriber, false);
            LossReason::IncompleteFlood
        });
        assert_eq!(report.count(LossReason::IncompleteFlood), 1);
        assert_eq!(m.snapshot().relay_msgs, 1);
    }

    #[test]
    fn loss_reasons_round_trip_their_names() {
        for r in LossReason::ALL {
            assert_eq!(LossReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(LossReason::parse("bogus"), None);
    }
}

#[cfg(test)]
mod kind_traffic_tests {
    use super::*;
    use vitis_sim::trace::MsgTag;

    #[test]
    fn with_kind_traffic_splits_control_and_data() {
        let mut ledger = vitis_sim::trace::TrafficLedger::new();
        for _ in 0..5 {
            ledger.record_send(MsgTag::control("ps_req"), 50);
        }
        for _ in 0..3 {
            ledger.record_send(MsgTag::data("notification"), 16);
        }
        ledger.record_deliver(MsgTag::data("notification"));
        let s = Monitor::new().snapshot().with_kind_traffic(&ledger);
        assert_eq!(s.control_sent, 5);
        assert_eq!(s.data_sent, 3);
        assert_eq!(s.traffic_by_kind.len(), 2);
        let notif = s
            .traffic_by_kind
            .iter()
            .find(|k| k.kind == "notification")
            .unwrap();
        assert_eq!(notif.class, "data");
        assert_eq!((notif.sent, notif.delivered, notif.bytes), (3, 1, 48));
    }

    #[test]
    fn with_kind_traffic_is_idempotent() {
        let mut ledger = vitis_sim::trace::TrafficLedger::new();
        ledger.record_send(MsgTag::control("hb"), 4);
        ledger.record_round();
        let s = Monitor::new()
            .snapshot()
            .with_kind_traffic(&ledger)
            .with_kind_traffic(&ledger);
        assert_eq!(s.control_sent, 1);
        assert_eq!(s.control_bytes_per_round, 4.0);
        assert_eq!(s.traffic_by_kind.len(), 1);
    }
}

#[cfg(test)]
mod reset_tests {
    use super::*;

    #[test]
    fn event_ids_stay_unique_across_resets() {
        let m = Monitor::new();
        let a = m.register_event(TopicId(0), SimTime(0), vec![NodeIdx(1)]);
        m.reset();
        let b = m.register_event(TopicId(0), SimTime(1), vec![NodeIdx(1)]);
        assert_ne!(a, b);
        // Deliveries against the pre-reset id are ignored, not misattributed.
        m.record_delivery(a, NodeIdx(1), 1, SimTime(9));
        assert_eq!(m.snapshot().delivered, 0);
        m.record_delivery(b, NodeIdx(1), 1, SimTime(9));
        assert_eq!(m.snapshot().delivered, 1);
    }
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;

    #[test]
    fn latency_tracks_publish_to_arrival() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(100), vec![NodeIdx(1), NodeIdx(2)]);
        m.record_delivery(e, NodeIdx(1), 2, SimTime(130));
        m.record_delivery(e, NodeIdx(2), 5, SimTime(160));
        // A later duplicate must not worsen the recorded latency.
        m.record_delivery(e, NodeIdx(1), 9, SimTime(500));
        let s = m.snapshot();
        assert!((s.mean_latency_ticks - 45.0).abs() < 1e-9);
        assert_eq!(s.max_latency_ticks, 60);
        assert!((s.mean_hops - 3.5).abs() < 1e-9);
    }

    #[test]
    fn control_bandwidth_is_bytes_per_round() {
        use vitis_sim::trace::MsgTag;
        let mut ledger = TrafficLedger::new();
        ledger.record_round();
        ledger.record_send(MsgTag::control("profile"), 300);
        ledger.record_round();
        ledger.record_send(MsgTag::control("rt_req"), 100);
        // Data-plane bytes are not control bandwidth.
        ledger.record_send(MsgTag::data("notification"), 16);
        ledger.record_round();
        let m = Monitor::new();
        let s = m.snapshot().with_kind_traffic(&ledger);
        assert_eq!(s.control_bytes_per_round, 400.0 / 3.0);
        let bytes: Vec<_> = s.traffic_by_kind.iter().map(|k| k.bytes).collect();
        assert_eq!(bytes, [300, 100, 16]);
        // Bytes and rounds reset with the window; the kind list is kept.
        ledger.reset();
        let s = m.snapshot().with_kind_traffic(&ledger);
        assert_eq!(s.control_bytes_per_round, 0.0);
        assert_eq!(s.traffic_by_kind.len(), 3);
        assert!(s.traffic_by_kind.iter().all(|k| k.bytes == 0));
    }
}

/// The delivery table held to the map it replaced: per event, a
/// `BTreeMap<NodeIdx, (fewest hops, earliest time)>` over expected nodes.
#[cfg(test)]
mod delivery_table_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    struct ModelEvent {
        id: EventId,
        published_at: SimTime,
        /// Sorted, deduplicated.
        expected: Vec<NodeIdx>,
        delivered: BTreeMap<NodeIdx, (u32, SimTime)>,
    }

    impl ModelEvent {
        fn missing(&self) -> impl Iterator<Item = NodeIdx> + '_ {
            (self.expected.iter().copied()).filter(|n| !self.delivered.contains_key(n))
        }
    }

    fn classify(event: EventId, sub: NodeIdx) -> LossReason {
        LossReason::ALL[((event.0 + u64::from(sub.0)) % 7) as usize]
    }

    /// Every reading of `m` equals the model's: `snapshot()` field by
    /// field with the means bit-equal, `event_progress` for the window and
    /// for ids reset away, `recovered_deliveries`, and `attribute_losses`'
    /// delivered / missing lists and per-reason sums.
    fn check(m: &Monitor, window: &[ModelEvent], gone: &[EventId], recovered: u64) {
        let (mut hops, mut latency) = (Summary::new(), Summary::new());
        let (mut expected, mut delivered, mut max_hops, mut max_latency) = (0, 0, 0, 0);
        for ev in window {
            expected += ev.expected.len() as u64;
            delivered += ev.delivered.len() as u64;
            for &(h, at) in ev.delivered.values() {
                let lat = at.since(ev.published_at).ticks();
                hops.record(h as f64);
                latency.record(lat as f64);
                (max_hops, max_latency) = (max_hops.max(h), max_latency.max(lat));
            }
            let progress = (ev.expected.len(), ev.delivered.len());
            assert_eq!(m.event_progress(ev.id), Some(progress));
        }
        for &id in gone {
            assert_eq!(m.event_progress(id), None, "{id:?} was reset away");
        }
        let s = m.snapshot();
        assert_eq!(
            (s.published, s.expected, s.delivered),
            (window.len() as u64, expected, delivered)
        );
        assert_eq!((s.max_hops, s.max_latency_ticks), (max_hops, max_latency));
        let hit_ratio = if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        };
        assert_eq!(s.hit_ratio.to_bits(), hit_ratio.to_bits());
        assert_eq!(s.mean_hops.to_bits(), hops.mean().to_bits());
        assert_eq!(s.mean_latency_ticks.to_bits(), latency.mean().to_bits());
        assert_eq!(m.recovered_deliveries(), recovered);

        let mut misses = Vec::new();
        let report = m.attribute_losses(SimTime(0), |miss| {
            let ev = window.iter().find(|e| e.id == miss.event).unwrap();
            let sorted: Vec<NodeIdx> = ev.delivered.keys().copied().collect();
            assert_eq!(miss.delivered, &sorted[..]);
            misses.push((miss.event, miss.subscriber));
            classify(miss.event, miss.subscriber)
        });
        let want: Vec<(EventId, NodeIdx)> = (window.iter())
            .flat_map(|ev| ev.missing().map(move |n| (ev.id, n)))
            .collect();
        assert_eq!(misses, want);
        assert_eq!((report.expected, report.delivered), (expected, delivered));
        for r in LossReason::ALL {
            let n = want.iter().filter(|&&(e, sub)| classify(e, sub) == r);
            assert_eq!(report.count(r), n.count() as u64, "{r:?}");
        }
    }

    #[test]
    fn delivery_table_matches_the_map_it_replaced() {
        for seed in 0..100 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = Monitor::new();
            let (mut window, mut gone, mut recovered) = (Vec::<ModelEvent>::new(), vec![], 0);
            for _ in 0..rng.gen_range(1..150) {
                match rng.gen_range(0..20) {
                    0 => {
                        m.reset();
                        gone.extend(window.drain(..).map(|e| e.id));
                    }
                    1..=3 => {
                        let len = rng.gen_range(0..12);
                        let nodes: Vec<NodeIdx> =
                            (0..len).map(|_| NodeIdx(rng.gen_range(0..16))).collect();
                        let published_at = SimTime(rng.gen_range(0..50));
                        let id = m.register_event(TopicId(0), published_at, nodes.clone());
                        let mut expected = nodes;
                        expected.sort_unstable();
                        expected.dedup();
                        let delivered = BTreeMap::new();
                        window.push(ModelEvent {
                            id,
                            published_at,
                            expected,
                            delivered,
                        });
                    }
                    _ => {
                        // Mostly an event of the window; sometimes one reset
                        // away, or an id never handed out.
                        let event = match rng.gen_range(0..10) {
                            0 if !gone.is_empty() => gone[rng.gen_range(0..gone.len())],
                            1 => EventId(1_000_000 + rng.gen_range(0..10)),
                            _ if !window.is_empty() => window[rng.gen_range(0..window.len())].id,
                            _ => continue,
                        };
                        // 16 candidate nodes, some never expected.
                        let node = NodeIdx(rng.gen_range(0..16));
                        let (hops, now) = (rng.gen_range(1..10), SimTime(rng.gen_range(50..200)));
                        let path = HopPath::default();
                        let is_recovery = rng.gen_range(0..5) == 0;
                        let class = if is_recovery {
                            Arrival::Recovered
                        } else {
                            Arrival::Flooded
                        };
                        m.record_arrival(event, node, hops, now, &path, class);
                        let Some(ev) = window.iter_mut().find(|e| e.id == event) else {
                            continue;
                        };
                        if ev.expected.binary_search(&node).is_err() {
                            continue;
                        }
                        if !ev.delivered.contains_key(&node) {
                            recovered += u64::from(is_recovery);
                        }
                        (ev.delivered.entry(node))
                            .and_modify(|(h, t)| (*h, *t) = ((*h).min(hops), (*t).min(now)))
                            .or_insert((hops, now));
                    }
                }
                check(&m, &window, &gone, recovered);
            }
        }
    }

    #[test]
    fn fewest_hops_and_earliest_time_are_independent_minima() {
        let m = Monitor::new();
        let e = m.register_event(TopicId(0), SimTime(100), vec![NodeIdx(1), NodeIdx(2)]);
        // Fewer hops but later, then more hops but earlier.
        m.record_delivery(e, NodeIdx(2), 5, SimTime(120));
        m.record_delivery(e, NodeIdx(2), 3, SimTime(150));
        m.record_delivery(e, NodeIdx(2), 7, SimTime(110));
        let s = m.snapshot();
        assert_eq!((s.delivered, s.max_hops, s.max_latency_ticks), (1, 3, 10));
        assert_eq!(m.event_progress(e), Some((2, 1)));
    }
}
