//! Structured run tracing: typed events in a bounded ring buffer with
//! JSONL export, plus the per-message-kind traffic ledger the engine keeps.
//!
//! A [`Trace`] records what *happened* during a run — round boundaries,
//! node lifecycle (join/leave/churn), message sends and deliveries tagged
//! by protocol message kind, per-round overlay health probes and
//! convergence samples — as typed [`TraceEvent`] values. The buffer is a
//! fixed-capacity ring: recording never allocates once the ring is full,
//! the newest events win, and the number of evicted events is counted so
//! truncation is visible rather than silent.
//!
//! Three things live here: the **ledger** ([`TrafficLedger`], what the
//! engine counts per message kind), the **record table** ([`TraceEvent`]
//! with its probes and [`Sample`], each record type declared once with
//! [`record!`](crate::record!)) and the **ring** ([`Trace`]). How a
//! record becomes a line of JSON and back is not here: the one writer,
//! the one reader and its typed errors are [`mod@crate::record`], shared
//! with every other record the repository writes. Export is
//! newline-delimited JSON (JSONL), one object per event, and
//! [`parse_line`](crate::record::parse_line) parses a line back into a
//! [`TraceEvent`]. The schema is documented in `docs/METRICS.md` at the
//! repository root, and tested against the table.
//!
//! Beyond transport-level events, the trace carries **delivery forensics**:
//! per-published-event causal records ([`TraceEvent::PubEvent`],
//! [`TraceEvent::Fwd`], [`TraceEvent::DeliverEvent`]) plus loss
//! attributions ([`TraceEvent::DropEvent`]) emitted at window close, so an
//! offline analyzer can reconstruct each event's dissemination tree and
//! explain every missed delivery.

pub use crate::record::{push_f64, push_json_str};
use crate::record::{write_record, Field, Value};
use std::borrow::Cow;
use std::cell::{Ref, RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

/// Which plane a message belongs to: protocol maintenance (gossip,
/// heartbeats, lookups) or event dissemination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Overlay-maintenance traffic: peer sampling, T-Man exchanges,
    /// heartbeats, relay/tree construction.
    Control,
    /// Event-dissemination traffic (notifications and publish stimuli).
    Data,
}

impl TrafficClass {
    /// Stable lowercase name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            TrafficClass::Control => "control",
            TrafficClass::Data => "data",
        }
    }

    /// Inverse of [`TrafficClass::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "control" => Some(TrafficClass::Control),
            "data" => Some(TrafficClass::Data),
            _ => None,
        }
    }
}

/// Written as its lowercase name (which needs no escaping).
impl Field for TrafficClass {
    fn put(&self, out: &mut String) {
        out.push('"');
        out.push_str(self.as_str());
        out.push('"');
    }
    fn get(v: &Value) -> Option<Self> {
        v.as_str().and_then(TrafficClass::parse)
    }
}

/// The tag a protocol assigns to one of its message variants via
/// [`crate::protocol::Protocol::classify`]: a stable kind name plus the
/// traffic class. Kind names are `&'static str` so tagging is
/// allocation-free on the send/deliver hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgTag {
    /// Stable snake_case message-kind name (e.g. `"rt_req"`).
    pub kind: &'static str,
    /// Control or data plane.
    pub class: TrafficClass,
}

impl MsgTag {
    /// A control-plane tag.
    pub const fn control(kind: &'static str) -> Self {
        MsgTag {
            kind,
            class: TrafficClass::Control,
        }
    }

    /// A data-plane tag.
    pub const fn data(kind: &'static str) -> Self {
        MsgTag {
            kind,
            class: TrafficClass::Data,
        }
    }
}

/// Send/deliver counters for one message kind over the current
/// measurement window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindTraffic {
    /// The message-kind name.
    pub kind: &'static str,
    /// Control or data plane.
    pub class: TrafficClass,
    /// Messages of this kind handed to the network.
    pub sent: u64,
    /// Messages of this kind delivered to an alive node (includes
    /// self-timers and harness injections, mirroring the engine's
    /// aggregate delivered counter).
    pub delivered: u64,
}

/// The engine's per-message-kind traffic ledger. A handful of kinds per
/// protocol means a linear scan beats any map; counters reset with the
/// measurement window while the kind list persists.
#[derive(Clone, Debug, Default)]
pub struct TrafficLedger {
    kinds: Vec<KindTraffic>,
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// A kind name is a `&'static str` literal from `classify`, so nearly
    /// every lookup is answered by comparing addresses and lengths; the
    /// content comparison decides only for a kind not seen yet, or one
    /// whose literal exists at two addresses. Either way a name has one
    /// slot, at the position of its first appearance.
    fn slot(&mut self, tag: MsgTag) -> &mut KindTraffic {
        let known = self
            .kinds
            .iter()
            .position(|k| std::ptr::eq(k.kind, tag.kind))
            .or_else(|| self.kinds.iter().position(|k| k.kind == tag.kind));
        if let Some(i) = known {
            return &mut self.kinds[i];
        }
        self.kinds.push(KindTraffic {
            kind: tag.kind,
            class: tag.class,
            sent: 0,
            delivered: 0,
        });
        self.kinds.last_mut().expect("just pushed")
    }

    /// Count one send of a `tag`-classified message.
    pub fn record_send(&mut self, tag: MsgTag) {
        self.slot(tag).sent += 1;
    }

    /// Count one delivery of a `tag`-classified message.
    pub fn record_deliver(&mut self, tag: MsgTag) {
        self.slot(tag).delivered += 1;
    }

    /// The per-kind counters, in first-seen order.
    pub fn kinds(&self) -> &[KindTraffic] {
        &self.kinds
    }

    /// `(control, data)` messages sent over the window.
    pub fn sent_by_class(&self) -> (u64, u64) {
        self.kinds.iter().fold((0, 0), |(c, d), k| match k.class {
            TrafficClass::Control => (c + k.sent, d),
            TrafficClass::Data => (c, d + k.sent),
        })
    }

    /// Zero all counters, keeping the kind list (window reset).
    pub fn reset(&mut self) {
        for k in &mut self.kinds {
            k.sent = 0;
            k.delivered = 0;
        }
    }
}

crate::record! {
    /// One overlay health sample, filled by a system-level probe (the engine
    /// itself is protocol-agnostic). Fields a system cannot measure stay
    /// `None` and export as JSON `null`.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct HealthProbe {
        /// Online nodes at probe time.
        pub alive: u64,
        /// Mean routing-table (or link-set) size over online nodes.
        pub mean_degree: f64,
        /// Fraction of online nodes whose successor pointer matches the true
        /// ring (`None` for ring-less overlays).
        pub ring_accuracy: Option<f64>,
        /// Mean gossip age over routing-table descriptors (staleness of the
        /// view; `None` where ages are not tracked).
        pub mean_view_age: Option<f64>,
        /// Connected subscriber components summed over the sampled topics.
        pub clusters: Option<u64>,
        /// Size of the largest sampled cluster.
        pub largest_cluster: Option<u64>,
    }
}

crate::record! {
    /// One structural overlay-topology sample, filled by a system-level
    /// snapshot analysis (see the core crate's `topo` module). Fields a
    /// system cannot measure stay `None` and export as JSON `null`.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct TopoProbe {
        /// Online nodes in the snapshot.
        pub nodes: u64,
        /// Directed overlay links between online nodes.
        pub links: u64,
        /// Topics included in the per-topic connectivity analysis.
        pub sampled_topics: u64,
        /// Subscriber components over overlay links, summed over sampled
        /// topics (the fragmentation the relay layer must stitch).
        pub components: u64,
        /// Subscriber components once relay-path edges are added; equals
        /// `sampled_topics` when every topic is fully stitched.
        pub stitched_components: u64,
        /// Mean fraction of a topic's subscribers inside its largest
        /// stitched component (1.0 = perfect connectivity).
        pub largest_component_frac: f64,
        /// Topics with two or more rendezvous claimants.
        pub rendezvous_conflicts: u64,
        /// Topics holding relay state but no rendezvous claimant.
        pub headless_topics: u64,
        /// Relay links referencing nodes absent from the snapshot.
        pub dead_links: u64,
        /// Mean relay-path hop count over sampled upstream chains divided by
        /// the overlay-graph BFS distance (`None` when nothing was sampled).
        pub mean_relay_stretch: Option<f64>,
        /// Largest number of topics any single node serves as gateway for.
        pub max_gateway_load: u64,
        /// Mean gossip age over routing-table links (`None` where ages are
        /// not tracked).
        pub mean_view_age: Option<f64>,
        /// Invariant-audit violations found in the snapshot.
        pub violations: u64,
    }
}

crate::record! {
    /// One per-round convergence sample of the paper's headline metrics:
    /// a `sample` record of the trace, and an element of the `samples`
    /// array of a metrics record.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Sample {
        /// Measured round number (1-based within the window).
        pub round: u64,
        /// Simulated time in ticks.
        pub now: u64,
        /// Hit ratio so far in the window.
        pub hit_ratio: f64,
        /// Traffic overhead (relay share) so far, in percent.
        pub overhead_pct: f64,
        /// Deliveries achieved so far.
        pub delivered: u64,
        /// Deliveries expected so far.
        pub expected: u64,
    }
}

crate::record! {
    /// A typed trace record. Engine-emitted variants (`Join`, `Leave`,
    /// `MsgSend`, `MsgDeliver`) carry node slots and simulated time in raw
    /// ticks; harness-emitted variants add round boundaries, convergence
    /// samples, health probes and wall-clock phase timings.
    #[derive(Clone, Debug, PartialEq)]
    pub enum TraceEvent {
        /// A gossip-round boundary observed by the measurement harness.
        Round = "round" {
            /// Measured round number (1-based within the window).
            round: u64,
            /// Simulated time in ticks.
            now: u64,
            /// Online nodes.
            alive: u64,
        },
        /// A node came online (fresh join or churn rejoin).
        Join = "join" {
            /// Simulated time in ticks.
            now: u64,
            /// Engine slot of the node.
            node: u32,
            /// True when re-entering a previously vacated slot.
            rejoin: bool,
        },
        /// A node went offline.
        Leave = "leave" {
            /// Simulated time in ticks.
            now: u64,
            /// Engine slot of the node.
            node: u32,
            /// True for a crash (no goodbye effects), false for a graceful
            /// leave.
            crash: bool,
        },
        /// A protocol message was handed to the network.
        MsgSend = "msg_send" {
            /// Simulated time in ticks.
            now: u64,
            /// Sender slot.
            from: u32,
            /// Destination slot.
            to: u32,
            /// Protocol message kind (from [`MsgTag`]).
            kind: Cow<'static, str>,
            /// Control or data plane.
            class: TrafficClass,
        },
        /// A message was delivered to an alive node (includes self-timers
        /// and harness injections).
        MsgDeliver = "msg_deliver" {
            /// Simulated time in ticks.
            now: u64,
            /// Sender slot (the receiver itself for timers/injections).
            from: u32,
            /// Receiver slot.
            to: u32,
            /// Protocol message kind.
            kind: Cow<'static, str>,
            /// Control or data plane.
            class: TrafficClass,
        },
        /// A per-round overlay health probe.
        Health = "health" {
            /// Simulated time in ticks.
            now: u64,
            /// The probe sample.
            probe: HealthProbe [flat],
        },
        /// A per-round convergence sample (see [`Sample`]).
        Sample = "sample" {
            /// The sample.
            sample: Sample [flat],
        },
        /// Wall-clock duration of one harness phase (build / warmup /
        /// measure / drain).
        Phase = "phase" {
            /// Phase name.
            name: Cow<'static, str>,
            /// Wall-clock milliseconds.
            wall_ms: f64,
        },
        /// Forensics: an event was published — the root of its delivery tree.
        PubEvent = "pub_event" {
            /// Simulated time in ticks.
            now: u64,
            /// Monitor-assigned event id.
            event: u64,
            /// Topic the event was published under.
            topic: u64,
            /// Engine slot of the publisher.
            node: u32,
            /// Expected `(event, subscriber)` deliveries for this event.
            expected: u64,
        },
        /// Forensics: one dissemination forward of an event between nodes.
        Fwd = "fwd" {
            /// Simulated time in ticks (send time).
            now: u64,
            /// Monitor-assigned event id.
            event: u64,
            /// Forwarding node's engine slot.
            from: u32,
            /// Destination engine slot.
            to: u32,
            /// Hop count the notification carries on this edge (1 = first
            /// hop out of the publisher).
            hop: u32,
        },
        /// Forensics: an interested subscriber received an event for the
        /// first time.
        DeliverEvent = "deliver_event" {
            /// Simulated time in ticks (arrival).
            now: u64,
            /// Monitor-assigned event id.
            event: u64,
            /// Subscriber's engine slot.
            node: u32,
            /// Hops travelled by the first copy to arrive.
            hops: u32,
            /// Publish-to-arrival latency in ticks.
            latency: u64,
            /// The causal hop path, `>`-joined engine slots from publisher to
            /// subscriber (e.g. `"0>5>12"`); empty when provenance was not
            /// carried.
            path: String,
            /// `true` when the copy arrived via the anti-entropy repair layer
            /// (a digest-triggered pull) rather than normal dissemination.
            /// Serialized only when set, so repair-free traces are
            /// byte-identical to those of builds without the field.
            recovered: bool [when_set],
        },
        /// A message was lost in transit: the network model dropped it
        /// (loss, partition) or freeze suppression swallowed it. Distinct from
        /// [`TraceEvent::DropEvent`], which records a *missed delivery* after
        /// attribution — one lost copy does not imply a miss (another copy may
        /// still arrive), so these are never counted against the
        /// expected-minus-delivered balance.
        NetDrop = "net_drop" {
            /// Simulated time in ticks (send time).
            now: u64,
            /// Sender slot.
            from: u32,
            /// Destination slot.
            to: u32,
            /// Protocol message kind.
            kind: Cow<'static, str>,
            /// The published event the message carried, if any (see
            /// [`crate::protocol::Protocol::event_of`]).
            event: Option<u64>,
        },
        /// Forensics: a missed `(event, subscriber)` pair, classified at
        /// window close by the loss-attribution pass.
        DropEvent = "drop_event" {
            /// Simulated time of the attribution pass in ticks.
            now: u64,
            /// Monitor-assigned event id.
            event: u64,
            /// The subscriber that never received the event.
            node: u32,
            /// Stable snake_case drop-reason name (e.g. `"no_gateway"`).
            reason: Cow<'static, str>,
        },
        /// A periodic structural overlay-topology sample (see [`TopoProbe`]).
        TopoSample = "topo" {
            /// Measured round number at sample time (0 when unknown).
            round: u64,
            /// Simulated time in ticks.
            now: u64,
            /// The topology sample.
            probe: TopoProbe [flat],
        },
        /// Reconvergence outcome of one resilience run: how long after the
        /// fault healed the system took to re-enter its pre-fault
        /// hit-ratio band — or an explicit unrecovered marker (`rounds:
        /// null`) when it never did within the observation horizon. Written
        /// by the `resilience` sweep instead of a sentinel value.
        Reconv = "reconv" {
            /// System label (e.g. `"vitis"`).
            system: Cow<'static, str>,
            /// Partition severity as a percentage of nodes cut off.
            severity_pct: u32,
            /// Whether the anti-entropy repair layer was enabled.
            repair: bool,
            /// Rounds from heal to reconvergence; `None` = never reconverged.
            rounds: Option<u64>,
        },
        /// Ring-buffer accounting for a run's trace, written by the export
        /// harness so truncation is detectable offline.
        TraceMeta = "trace_meta" {
            /// Ring capacity in events.
            capacity: u64,
            /// Events ever recorded (retained + evicted).
            recorded: u64,
            /// Events evicted by the ring bound; `> 0` means the file is
            /// truncated to the newest `capacity` events.
            evicted: u64,
        },
    }
}

/// Shared handle to a [`Trace`]; the engine and the harness both record
/// into the same buffer.
///
/// Backed by `Rc<RefCell>`: a traced system lives and records on the one
/// thread that drives its engine.
#[derive(Clone, Debug)]
pub struct TraceHandle(Rc<RefCell<Trace>>);

impl TraceHandle {
    /// Borrow the trace for reading.
    pub fn borrow(&self) -> Ref<'_, Trace> {
        self.0.borrow()
    }

    /// Borrow the trace for writing.
    pub fn borrow_mut(&self) -> RefMut<'_, Trace> {
        self.0.borrow_mut()
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
#[derive(Debug)]
pub struct Trace {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    evicted: u64,
    total: u64,
    record_messages: bool,
}

impl Trace {
    /// A trace keeping at most `capacity` events (the newest win).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            buf: VecDeque::with_capacity(capacity),
            cap: capacity,
            evicted: 0,
            total: 0,
            record_messages: true,
        }
    }

    /// A shared handle around a fresh trace (what systems install into
    /// their engine).
    pub fn shared(capacity: usize) -> TraceHandle {
        TraceHandle(Rc::new(RefCell::new(Trace::new(capacity))))
    }

    /// Whether per-message events are recorded (on by default). Round,
    /// lifecycle, health, sample and phase events are always recorded.
    pub fn record_messages(&self) -> bool {
        self.record_messages
    }

    /// Enable or disable per-message events (they dominate volume on
    /// large runs).
    pub fn set_record_messages(&mut self, on: bool) {
        self.record_messages = on;
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev);
        self.total += 1;
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted by the ring bound (truncation indicator).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events ever recorded (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Stream the retained events as JSONL into `w`, one event per line.
    ///
    /// Unlike [`Trace::to_jsonl`] this never materializes the whole dump:
    /// one line buffer is reused across events, so exporting a large ring
    /// directly to a file costs O(longest line) memory instead of
    /// O(total dump).
    pub fn write_jsonl<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        let mut line = String::with_capacity(160);
        for ev in &self.buf {
            line.clear();
            write_record(&mut line, None, ev);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Render the retained events as one JSONL string (a thin buffered
    /// wrapper over [`Trace::write_jsonl`]; prefer that for large traces).
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::with_capacity(self.buf.len() * 96);
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("trace JSONL is valid UTF-8")
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{parse_line, to_json, ParseError};

    /// The one reader, asked for a trace event.
    fn parse_event(line: &str) -> Result<TraceEvent, ParseError> {
        parse_line(line).map(|(_, ev)| ev)
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Round {
                round: 3,
                now: 192,
                alive: 400,
            },
            TraceEvent::Join {
                now: 0,
                node: 17,
                rejoin: false,
            },
            TraceEvent::Leave {
                now: 900,
                node: 3,
                crash: true,
            },
            TraceEvent::MsgSend {
                now: 12,
                from: 1,
                to: 9,
                kind: Cow::Borrowed("rt_req"),
                class: TrafficClass::Control,
            },
            TraceEvent::MsgDeliver {
                now: 13,
                from: 1,
                to: 9,
                kind: Cow::Borrowed("notification"),
                class: TrafficClass::Data,
            },
            TraceEvent::Health {
                now: 192,
                probe: HealthProbe {
                    alive: 400,
                    mean_degree: 14.25,
                    ring_accuracy: Some(0.9825),
                    mean_view_age: Some(1.5),
                    clusters: Some(3),
                    largest_cluster: Some(120),
                },
            },
            TraceEvent::Health {
                now: 200,
                probe: HealthProbe {
                    alive: 10,
                    mean_degree: 2.0,
                    ring_accuracy: None,
                    mean_view_age: None,
                    clusters: None,
                    largest_cluster: None,
                },
            },
            TraceEvent::Sample {
                sample: Sample {
                    round: 4,
                    now: 256,
                    hit_ratio: 0.96875,
                    overhead_pct: 12.5,
                    delivered: 31,
                    expected: 32,
                },
            },
            TraceEvent::Phase {
                name: Cow::Borrowed("warmup"),
                wall_ms: 1523.75,
            },
            TraceEvent::PubEvent {
                now: 300,
                event: 7,
                topic: 42,
                node: 11,
                expected: 58,
            },
            TraceEvent::Fwd {
                now: 301,
                event: 7,
                from: 11,
                to: 29,
                hop: 1,
            },
            TraceEvent::DeliverEvent {
                now: 330,
                event: 7,
                node: 29,
                hops: 2,
                latency: 30,
                path: "11>5>29".to_string(),
                recovered: false,
            },
            TraceEvent::DeliverEvent {
                now: 340,
                event: 7,
                node: 31,
                hops: 3,
                latency: 40,
                path: "11>5>31".to_string(),
                recovered: true,
            },
            TraceEvent::Reconv {
                system: Cow::Borrowed("vitis"),
                severity_pct: 25,
                repair: true,
                rounds: Some(9),
            },
            TraceEvent::Reconv {
                system: Cow::Borrowed("rvr"),
                severity_pct: 50,
                repair: false,
                rounds: None,
            },
            TraceEvent::NetDrop {
                now: 305,
                from: 11,
                to: 88,
                kind: Cow::Borrowed("notification"),
                event: Some(7),
            },
            TraceEvent::NetDrop {
                now: 306,
                from: 2,
                to: 3,
                kind: Cow::Borrowed("ps_req"),
                event: None,
            },
            TraceEvent::DropEvent {
                now: 900,
                event: 7,
                node: 88,
                reason: Cow::Borrowed("no_gateway"),
            },
            TraceEvent::TopoSample {
                round: 6,
                now: 384,
                probe: TopoProbe {
                    nodes: 400,
                    links: 5600,
                    sampled_topics: 32,
                    components: 41,
                    stitched_components: 32,
                    largest_component_frac: 0.96875,
                    rendezvous_conflicts: 1,
                    headless_topics: 0,
                    dead_links: 2,
                    mean_relay_stretch: Some(1.25),
                    max_gateway_load: 5,
                    mean_view_age: Some(1.5),
                    violations: 3,
                },
            },
            TraceEvent::TopoSample {
                round: 0,
                now: 400,
                probe: TopoProbe {
                    nodes: 10,
                    links: 40,
                    sampled_topics: 0,
                    components: 0,
                    stitched_components: 0,
                    largest_component_frac: 0.0,
                    rendezvous_conflicts: 0,
                    headless_topics: 0,
                    dead_links: 0,
                    mean_relay_stretch: None,
                    max_gateway_load: 0,
                    mean_view_age: None,
                    violations: 0,
                },
            },
            TraceEvent::TraceMeta {
                capacity: 65536,
                recorded: 812344,
                evicted: 746808,
            },
        ]
    }

    #[test]
    fn every_record_type_round_trips() {
        for ev in sample_events() {
            let line = to_json(None, &ev);
            let back =
                parse_event(&line).unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, ev, "round trip mismatch for {line}");
        }
    }

    #[test]
    fn parser_ignores_extra_fields() {
        let line = r#"{"run":"fig6/vitis","type":"round","round":1,"now":64,"alive":10}"#;
        assert_eq!(
            parse_event(line),
            Ok(TraceEvent::Round {
                round: 1,
                now: 64,
                alive: 10
            })
        );
    }

    #[test]
    fn parse_line_extracts_the_run_id() {
        let line = r#"{"run":"fig6/vitis-low#3","type":"round","round":1,"now":64,"alive":10}"#;
        let (run, ev) = parse_line::<TraceEvent>(line).unwrap();
        assert_eq!(run.as_deref(), Some("fig6/vitis-low#3"));
        assert!(matches!(ev, TraceEvent::Round { round: 1, .. }));
        // Unstamped lines parse with no run id.
        let line = r#"{"type":"round","round":1,"now":64,"alive":10}"#;
        let (run, _) = parse_line::<TraceEvent>(line).unwrap();
        assert_eq!(run, None);
        // Errors propagate.
        assert_eq!(parse_line::<TraceEvent>("nope"), Err(ParseError::NotJson));
    }

    #[test]
    fn parser_rejects_malformed_input_with_typed_errors() {
        assert_eq!(parse_event(""), Err(ParseError::NotJson));
        assert_eq!(parse_event("{"), Err(ParseError::NotJson));
        assert_eq!(parse_event("not json at all"), Err(ParseError::NotJson));
        // Unknown record type.
        assert_eq!(
            parse_event("{\"type\":\"nope\"}"),
            Err(ParseError::UnknownType("nope".to_string()))
        );
        // No type field at all.
        assert_eq!(parse_event("{\"now\":3}"), Err(ParseError::MissingType));
        assert_eq!(
            parse_event("{\"type\":7}"),
            Err(ParseError::BadValue("type"))
        );
        // Missing required field.
        assert_eq!(
            parse_event("{\"type\":\"round\"}"),
            Err(ParseError::MissingField("round"))
        );
        assert_eq!(
            parse_event(r#"{"type":"round","round":1,"alive":2}"#),
            Err(ParseError::MissingField("now"))
        );
        // Non-numeric `now`.
        assert_eq!(
            parse_event(r#"{"type":"round","round":1,"now":"soon","alive":2}"#),
            Err(ParseError::BadValue("now"))
        );
        // Errors render as human-readable messages.
        assert!(ParseError::BadValue("now").to_string().contains("now"));
        assert!(ParseError::UnknownType("x".into())
            .to_string()
            .contains("x"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let ev = TraceEvent::Phase {
            name: Cow::Owned("we\"ird\\ph\nase\u{1}".to_string()),
            wall_ms: 1.0,
        };
        let line = to_json(None, &ev);
        assert_eq!(parse_event(&line), Ok(ev));
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_evictions() {
        let mut t = Trace::new(3);
        for round in 0..5 {
            t.record(TraceEvent::Round {
                round,
                now: round * 64,
                alive: 1,
            });
        }
        assert_eq!(t.events().count(), 3);
        assert_eq!(t.evicted(), 2);
        assert_eq!(t.total_recorded(), 5);
        let rounds: Vec<u64> = t
            .events()
            .map(|e| match e {
                TraceEvent::Round { round, .. } => *round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_export_is_one_valid_line_per_event() {
        let mut t = Trace::new(16);
        for ev in sample_events() {
            t.record(ev);
        }
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), t.events().count());
        for (line, ev) in lines.iter().zip(t.events()) {
            assert_eq!(parse_event(line).as_ref(), Ok(ev));
        }
    }

    #[test]
    fn write_jsonl_streams_exactly_what_to_jsonl_renders() {
        let mut t = Trace::new(16);
        for ev in sample_events() {
            t.record(ev);
        }
        let mut streamed = Vec::new();
        t.write_jsonl(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), t.to_jsonl());
        // Write errors propagate instead of panicking.
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(t.write_jsonl(&mut Full).is_err());
    }

    #[test]
    fn ledger_accumulates_and_resets_by_window() {
        let mut l = TrafficLedger::new();
        l.record_send(MsgTag::control("ps_req"));
        l.record_send(MsgTag::control("ps_req"));
        l.record_deliver(MsgTag::control("ps_req"));
        l.record_send(MsgTag::data("notification"));
        assert_eq!(l.kinds().len(), 2);
        assert_eq!(l.sent_by_class(), (2, 1));
        let ps = l.kinds().iter().find(|k| k.kind == "ps_req").unwrap();
        assert_eq!((ps.sent, ps.delivered), (2, 1));
        // The same name at another address is the same kind, and the
        // kinds stay in first-seen order.
        let twin: &'static str = Box::leak(String::from("ps_req").into_boxed_str());
        assert!(!std::ptr::eq(twin, ps.kind));
        l.record_send(MsgTag::control(twin));
        let order: Vec<_> = l.kinds().iter().map(|k| (k.kind, k.sent)).collect();
        assert_eq!(order, vec![("ps_req", 3), ("notification", 1)]);
        l.reset();
        assert_eq!(l.sent_by_class(), (0, 0));
        // Kind list survives the window reset.
        assert_eq!(l.kinds().len(), 2);
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let ev = TraceEvent::Sample {
            sample: Sample {
                round: 1,
                now: 1,
                hit_ratio: f64::NAN,
                overhead_pct: f64::INFINITY,
                delivered: 0,
                expected: 0,
            },
        };
        let line = to_json(None, &ev);
        assert!(line.contains("\"hit_ratio\":null"));
        assert!(line.contains("\"overhead_pct\":null"));
        // Still parseable; NaN comes back for null numeric fields.
        let back = parse_event(&line).unwrap();
        match back {
            TraceEvent::Sample { sample } => assert!(sample.hit_ratio.is_nan()),
            _ => panic!("wrong variant"),
        }
    }
}
