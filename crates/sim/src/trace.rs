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
//! Export is newline-delimited JSON (JSONL), one flat object per event;
//! [`parse_event`] parses a line back into a [`TraceEvent`] so traces
//! round-trip without any external serialization dependency. Malformed
//! lines yield a typed [`ParseError`] rather than a panic. The schema is
//! documented in `docs/METRICS.md` at the repository root.
//!
//! Beyond transport-level events, the trace carries **delivery forensics**:
//! per-published-event causal records ([`TraceEvent::PubEvent`],
//! [`TraceEvent::Fwd`], [`TraceEvent::DeliverEvent`]) plus loss
//! attributions ([`TraceEvent::DropEvent`]) emitted at window close, so an
//! offline analyzer can reconstruct each event's dissemination tree and
//! explain every missed delivery.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

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

/// A typed trace record. Engine-emitted variants (`Join`, `Leave`,
/// `MsgSend`, `MsgDeliver`) carry node slots and simulated time in raw
/// ticks; harness-emitted variants add round boundaries, convergence
/// samples, health probes and wall-clock phase timings.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A gossip-round boundary observed by the measurement harness.
    Round {
        /// Measured round number (1-based within the window).
        round: u64,
        /// Simulated time in ticks.
        now: u64,
        /// Online nodes.
        alive: u64,
    },
    /// A node came online (fresh join or churn rejoin).
    Join {
        /// Simulated time in ticks.
        now: u64,
        /// Engine slot of the node.
        node: u32,
        /// True when re-entering a previously vacated slot.
        rejoin: bool,
    },
    /// A node went offline.
    Leave {
        /// Simulated time in ticks.
        now: u64,
        /// Engine slot of the node.
        node: u32,
        /// True for a crash (no goodbye effects), false for a graceful
        /// leave.
        crash: bool,
    },
    /// A protocol message was handed to the network.
    MsgSend {
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
    MsgDeliver {
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
    Health {
        /// Simulated time in ticks.
        now: u64,
        /// The probe sample.
        probe: HealthProbe,
    },
    /// A per-round convergence sample of the paper's headline metrics.
    Sample {
        /// Measured round number (1-based within the window).
        round: u64,
        /// Simulated time in ticks.
        now: u64,
        /// Hit ratio so far in the window.
        hit_ratio: f64,
        /// Traffic overhead (relay share) so far, in percent.
        overhead_pct: f64,
        /// Deliveries achieved so far.
        delivered: u64,
        /// Deliveries expected so far.
        expected: u64,
    },
    /// Wall-clock duration of one harness phase (build / warmup /
    /// measure / drain).
    Phase {
        /// Phase name.
        name: Cow<'static, str>,
        /// Wall-clock milliseconds.
        wall_ms: f64,
    },
    /// Forensics: an event was published — the root of its delivery tree.
    PubEvent {
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
    Fwd {
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
    DeliverEvent {
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
        recovered: bool,
    },
    /// A message was lost in transit: the network model dropped it
    /// (loss, partition) or freeze suppression swallowed it. Distinct from
    /// [`TraceEvent::DropEvent`], which records a *missed delivery* after
    /// attribution — one lost copy does not imply a miss (another copy may
    /// still arrive), so these are never counted against the
    /// expected-minus-delivered balance.
    NetDrop {
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
    DropEvent {
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
    TopoSample {
        /// Measured round number at sample time (0 when unknown).
        round: u64,
        /// Simulated time in ticks.
        now: u64,
        /// The topology sample.
        probe: TopoProbe,
    },
    /// Reconvergence outcome of one resilience run: how long after the
    /// fault healed the system took to re-enter its pre-fault
    /// hit-ratio band — or an explicit unrecovered marker (`rounds:
    /// null`) when it never did within the observation horizon. Written
    /// by the `resilience` sweep instead of a sentinel value.
    Reconv {
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
    TraceMeta {
        /// Ring capacity in events.
        capacity: u64,
        /// Events ever recorded (retained + evicted).
        recorded: u64,
        /// Events evicted by the ring bound; `> 0` means the file is
        /// truncated to the newest `capacity` events.
        evicted: u64,
    },
}

/// Shared handle to a [`Trace`]; the engine and the harness both record
/// into the same buffer.
///
/// Backed by `Arc<Mutex>` so a traced system is `Send`; every recording
/// happens on the thread that drives the engine, so the lock is
/// uncontended (whether `Rc<RefCell>` would pay is ROADMAP item 4's
/// follow-up). The `borrow`/`borrow_mut` method names are kept from the
/// earlier `Rc<RefCell>` handle.
#[derive(Clone, Debug)]
pub struct TraceHandle(Arc<Mutex<Trace>>);

impl TraceHandle {
    /// Lock the trace for reading.
    pub fn borrow(&self) -> std::sync::MutexGuard<'_, Trace> {
        self.0.lock().expect("trace lock poisoned")
    }

    /// Lock the trace for writing.
    pub fn borrow_mut(&self) -> std::sync::MutexGuard<'_, Trace> {
        self.0.lock().expect("trace lock poisoned")
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
        TraceHandle(Arc::new(Mutex::new(Trace::new(capacity))))
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

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

    /// Drop all retained events and reset the counters.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.evicted = 0;
        self.total = 0;
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
            write_event(&mut line, ev);
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

/// Append `s` to `out` as a JSON string literal (quoted and escaped).
/// Public so downstream JSONL writers share the trace's escaping rules.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` to `out` as a JSON number; non-finite values become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null"); // NaN/inf are not valid JSON numbers
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Append the single-line JSON rendering of `ev` to `out` (no trailing
/// newline).
pub fn write_event(out: &mut String, ev: &TraceEvent) {
    match ev {
        TraceEvent::Round { round, now, alive } => {
            let _ = write!(
                out,
                "{{\"type\":\"round\",\"round\":{round},\"now\":{now},\"alive\":{alive}}}"
            );
        }
        TraceEvent::Join { now, node, rejoin } => {
            let _ = write!(
                out,
                "{{\"type\":\"join\",\"now\":{now},\"node\":{node},\"rejoin\":{rejoin}}}"
            );
        }
        TraceEvent::Leave { now, node, crash } => {
            let _ = write!(
                out,
                "{{\"type\":\"leave\",\"now\":{now},\"node\":{node},\"crash\":{crash}}}"
            );
        }
        TraceEvent::MsgSend {
            now,
            from,
            to,
            kind,
            class,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"msg_send\",\"now\":{now},\"from\":{from},\"to\":{to},\"kind\":"
            );
            push_json_str(out, kind);
            let _ = write!(out, ",\"class\":\"{}\"}}", class.as_str());
        }
        TraceEvent::MsgDeliver {
            now,
            from,
            to,
            kind,
            class,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"msg_deliver\",\"now\":{now},\"from\":{from},\"to\":{to},\"kind\":"
            );
            push_json_str(out, kind);
            let _ = write!(out, ",\"class\":\"{}\"}}", class.as_str());
        }
        TraceEvent::Health { now, probe } => {
            let _ = write!(
                out,
                "{{\"type\":\"health\",\"now\":{now},\"alive\":{},\"mean_degree\":",
                probe.alive
            );
            push_f64(out, probe.mean_degree);
            out.push_str(",\"ring_accuracy\":");
            push_opt_f64(out, probe.ring_accuracy);
            out.push_str(",\"mean_view_age\":");
            push_opt_f64(out, probe.mean_view_age);
            out.push_str(",\"clusters\":");
            push_opt_u64(out, probe.clusters);
            out.push_str(",\"largest_cluster\":");
            push_opt_u64(out, probe.largest_cluster);
            out.push('}');
        }
        TraceEvent::Sample {
            round,
            now,
            hit_ratio,
            overhead_pct,
            delivered,
            expected,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"sample\",\"round\":{round},\"now\":{now},\"hit_ratio\":"
            );
            push_f64(out, *hit_ratio);
            out.push_str(",\"overhead_pct\":");
            push_f64(out, *overhead_pct);
            let _ = write!(out, ",\"delivered\":{delivered},\"expected\":{expected}}}");
        }
        TraceEvent::Phase { name, wall_ms } => {
            out.push_str("{\"type\":\"phase\",\"name\":");
            push_json_str(out, name);
            out.push_str(",\"wall_ms\":");
            push_f64(out, *wall_ms);
            out.push('}');
        }
        TraceEvent::PubEvent {
            now,
            event,
            topic,
            node,
            expected,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"pub_event\",\"now\":{now},\"event\":{event},\"topic\":{topic},\"node\":{node},\"expected\":{expected}}}"
            );
        }
        TraceEvent::Fwd {
            now,
            event,
            from,
            to,
            hop,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"fwd\",\"now\":{now},\"event\":{event},\"from\":{from},\"to\":{to},\"hop\":{hop}}}"
            );
        }
        TraceEvent::DeliverEvent {
            now,
            event,
            node,
            hops,
            latency,
            path,
            recovered,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"deliver_event\",\"now\":{now},\"event\":{event},\"node\":{node},\"hops\":{hops},\"latency\":{latency},\"path\":"
            );
            push_json_str(out, path);
            // Emitted only when set: repair-free traces keep their exact
            // historical bytes.
            if *recovered {
                out.push_str(",\"recovered\":true");
            }
            out.push('}');
        }
        TraceEvent::Reconv {
            system,
            severity_pct,
            repair,
            rounds,
        } => {
            let _ = write!(out, "{{\"type\":\"reconv\",\"system\":");
            push_json_str(out, system);
            let _ = write!(
                out,
                ",\"severity_pct\":{severity_pct},\"repair\":{repair},\"rounds\":"
            );
            push_opt_u64(out, *rounds);
            out.push('}');
        }
        TraceEvent::NetDrop {
            now,
            from,
            to,
            kind,
            event,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"net_drop\",\"now\":{now},\"from\":{from},\"to\":{to},\"kind\":"
            );
            push_json_str(out, kind);
            out.push_str(",\"event\":");
            push_opt_u64(out, *event);
            out.push('}');
        }
        TraceEvent::DropEvent {
            now,
            event,
            node,
            reason,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"drop_event\",\"now\":{now},\"event\":{event},\"node\":{node},\"reason\":"
            );
            push_json_str(out, reason);
            out.push('}');
        }
        TraceEvent::TopoSample { round, now, probe } => {
            let _ = write!(
                out,
                "{{\"type\":\"topo\",\"round\":{round},\"now\":{now},\"nodes\":{},\"links\":{},\"sampled_topics\":{},\"components\":{},\"stitched_components\":{},\"largest_component_frac\":",
                probe.nodes,
                probe.links,
                probe.sampled_topics,
                probe.components,
                probe.stitched_components,
            );
            push_f64(out, probe.largest_component_frac);
            let _ = write!(
                out,
                ",\"rendezvous_conflicts\":{},\"headless_topics\":{},\"dead_links\":{},\"mean_relay_stretch\":",
                probe.rendezvous_conflicts, probe.headless_topics, probe.dead_links,
            );
            push_opt_f64(out, probe.mean_relay_stretch);
            let _ = write!(
                out,
                ",\"max_gateway_load\":{},\"mean_view_age\":",
                probe.max_gateway_load
            );
            push_opt_f64(out, probe.mean_view_age);
            let _ = write!(out, ",\"violations\":{}}}", probe.violations);
        }
        TraceEvent::TraceMeta {
            capacity,
            recorded,
            evicted,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"trace_meta\",\"capacity\":{capacity},\"recorded\":{recorded},\"evicted\":{evicted}}}"
            );
        }
    }
}

/// The JSON rendering of one event (convenience over [`write_event`]).
pub fn event_to_json(ev: &TraceEvent) -> String {
    let mut s = String::new();
    write_event(&mut s, ev);
    s
}

/// A parsed flat JSON value (trace records never nest).
#[derive(Clone, Debug, PartialEq)]
enum JsonValue {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parse a single flat JSON object: `{"key": value, ...}` with string,
/// number, boolean or null values. Sufficient for every record this
/// module writes; not a general JSON parser.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut cs = line.trim().char_indices().peekable();
    let s = line.trim();
    let mut out = Vec::new();
    let skip_ws = |cs: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while cs.peek().is_some_and(|&(_, c)| c.is_whitespace()) {
            cs.next();
        }
    };
    let parse_string = |cs: &mut std::iter::Peekable<std::str::CharIndices<'_>>| -> Option<String> {
        match cs.next() {
            Some((_, '"')) => {}
            _ => return None,
        }
        let mut v = String::new();
        loop {
            match cs.next()? {
                (_, '"') => return Some(v),
                (_, '\\') => match cs.next()?.1 {
                    '"' => v.push('"'),
                    '\\' => v.push('\\'),
                    'n' => v.push('\n'),
                    't' => v.push('\t'),
                    'r' => v.push('\r'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + cs.next()?.1.to_digit(16)?;
                        }
                        v.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                (_, c) => v.push(c),
            }
        }
    };

    skip_ws(&mut cs);
    match cs.next() {
        Some((_, '{')) => {}
        _ => return None,
    }
    skip_ws(&mut cs);
    if cs.peek().is_some_and(|&(_, c)| c == '}') {
        cs.next();
        return Some(out);
    }
    loop {
        skip_ws(&mut cs);
        let key = parse_string(&mut cs)?;
        skip_ws(&mut cs);
        match cs.next() {
            Some((_, ':')) => {}
            _ => return None,
        }
        skip_ws(&mut cs);
        let val = match cs.peek()? {
            (_, '"') => JsonValue::Str(parse_string(&mut cs)?),
            &(i, c) if c == 't' || c == 'f' || c == 'n' => {
                let rest = &s[i..];
                if rest.starts_with("true") {
                    for _ in 0..4 {
                        cs.next();
                    }
                    JsonValue::Bool(true)
                } else if rest.starts_with("false") {
                    for _ in 0..5 {
                        cs.next();
                    }
                    JsonValue::Bool(false)
                } else if rest.starts_with("null") {
                    for _ in 0..4 {
                        cs.next();
                    }
                    JsonValue::Null
                } else {
                    return None;
                }
            }
            &(i, _) => {
                let mut end = s.len();
                while let Some(&(j, c)) = cs.peek() {
                    if c == ',' || c == '}' || c.is_whitespace() {
                        end = j;
                        break;
                    }
                    cs.next();
                }
                JsonValue::Num(s[i..end].parse().ok()?)
            }
        };
        out.push((key, val));
        skip_ws(&mut cs);
        match cs.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => return Some(out),
            _ => return None,
        }
    }
}

fn get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Why a trace line failed to parse. Carried by [`parse_event`] /
/// [`parse_stamped`] so offline tools can report *which* line is broken
/// and *how* instead of silently skipping it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The line is not a flat JSON object (trace records never nest).
    NotJson,
    /// The object carries no string `"type"` field.
    MissingType,
    /// The `"type"` value names no known record type.
    UnknownType(String),
    /// A required field of the record type is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong JSON type or an out-of-range
    /// value (e.g. non-numeric `now`).
    BadValue(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NotJson => write!(f, "line is not a flat JSON object"),
            ParseError::MissingType => write!(f, "record has no string \"type\" field"),
            ParseError::UnknownType(t) => write!(f, "unknown record type {t:?}"),
            ParseError::MissingField(k) => write!(f, "missing required field {k:?}"),
            ParseError::BadValue(k) => write!(f, "invalid value for field {k:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn req<'a>(
    fields: &'a [(String, JsonValue)],
    key: &'static str,
) -> Result<&'a JsonValue, ParseError> {
    get(fields, key).ok_or(ParseError::MissingField(key))
}

fn req_u64(fields: &[(String, JsonValue)], key: &'static str) -> Result<u64, ParseError> {
    match req(fields, key)? {
        JsonValue::Num(n) if *n >= 0.0 => Ok(*n as u64),
        _ => Err(ParseError::BadValue(key)),
    }
}

fn req_u32(fields: &[(String, JsonValue)], key: &'static str) -> Result<u32, ParseError> {
    req_u64(fields, key).map(|v| v as u32)
}

fn req_f64(fields: &[(String, JsonValue)], key: &'static str) -> Result<f64, ParseError> {
    match req(fields, key)? {
        JsonValue::Num(n) => Ok(*n),
        JsonValue::Null => Ok(f64::NAN), // non-finite floats export as null
        _ => Err(ParseError::BadValue(key)),
    }
}

fn req_bool(fields: &[(String, JsonValue)], key: &'static str) -> Result<bool, ParseError> {
    match req(fields, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(ParseError::BadValue(key)),
    }
}

fn req_str<'a>(
    fields: &'a [(String, JsonValue)],
    key: &'static str,
) -> Result<&'a str, ParseError> {
    match req(fields, key)? {
        JsonValue::Str(s) => Ok(s),
        _ => Err(ParseError::BadValue(key)),
    }
}

fn req_opt_f64(
    fields: &[(String, JsonValue)],
    key: &'static str,
) -> Result<Option<f64>, ParseError> {
    match req(fields, key)? {
        JsonValue::Num(n) => Ok(Some(*n)),
        JsonValue::Null => Ok(None),
        _ => Err(ParseError::BadValue(key)),
    }
}

/// An optional boolean field: absent parses as `false` (fields emitted
/// only when set, like `deliver_event.recovered`).
fn opt_bool(fields: &[(String, JsonValue)], key: &'static str) -> Result<bool, ParseError> {
    match get(fields, key) {
        None => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(ParseError::BadValue(key)),
    }
}

fn req_opt_u64(
    fields: &[(String, JsonValue)],
    key: &'static str,
) -> Result<Option<u64>, ParseError> {
    match req(fields, key)? {
        JsonValue::Num(n) if *n >= 0.0 => Ok(Some(*n as u64)),
        JsonValue::Null => Ok(None),
        _ => Err(ParseError::BadValue(key)),
    }
}

fn event_from_fields(fields: &[(String, JsonValue)]) -> Result<TraceEvent, ParseError> {
    let ty = match get(fields, "type") {
        Some(JsonValue::Str(s)) => s.as_str(),
        Some(_) => return Err(ParseError::BadValue("type")),
        None => return Err(ParseError::MissingType),
    };
    let tag = |key: &'static str| -> Result<(Cow<'static, str>, TrafficClass), ParseError> {
        Ok((
            Cow::Owned(req_str(fields, key)?.to_string()),
            TrafficClass::parse(req_str(fields, "class")?).ok_or(ParseError::BadValue("class"))?,
        ))
    };
    match ty {
        "round" => Ok(TraceEvent::Round {
            round: req_u64(fields, "round")?,
            now: req_u64(fields, "now")?,
            alive: req_u64(fields, "alive")?,
        }),
        "join" => Ok(TraceEvent::Join {
            now: req_u64(fields, "now")?,
            node: req_u32(fields, "node")?,
            rejoin: req_bool(fields, "rejoin")?,
        }),
        "leave" => Ok(TraceEvent::Leave {
            now: req_u64(fields, "now")?,
            node: req_u32(fields, "node")?,
            crash: req_bool(fields, "crash")?,
        }),
        "msg_send" => {
            let (kind, class) = tag("kind")?;
            Ok(TraceEvent::MsgSend {
                now: req_u64(fields, "now")?,
                from: req_u32(fields, "from")?,
                to: req_u32(fields, "to")?,
                kind,
                class,
            })
        }
        "msg_deliver" => {
            let (kind, class) = tag("kind")?;
            Ok(TraceEvent::MsgDeliver {
                now: req_u64(fields, "now")?,
                from: req_u32(fields, "from")?,
                to: req_u32(fields, "to")?,
                kind,
                class,
            })
        }
        "health" => Ok(TraceEvent::Health {
            now: req_u64(fields, "now")?,
            probe: HealthProbe {
                alive: req_u64(fields, "alive")?,
                mean_degree: req_f64(fields, "mean_degree")?,
                ring_accuracy: req_opt_f64(fields, "ring_accuracy")?,
                mean_view_age: req_opt_f64(fields, "mean_view_age")?,
                clusters: req_opt_u64(fields, "clusters")?,
                largest_cluster: req_opt_u64(fields, "largest_cluster")?,
            },
        }),
        "sample" => Ok(TraceEvent::Sample {
            round: req_u64(fields, "round")?,
            now: req_u64(fields, "now")?,
            hit_ratio: req_f64(fields, "hit_ratio")?,
            overhead_pct: req_f64(fields, "overhead_pct")?,
            delivered: req_u64(fields, "delivered")?,
            expected: req_u64(fields, "expected")?,
        }),
        "phase" => Ok(TraceEvent::Phase {
            name: Cow::Owned(req_str(fields, "name")?.to_string()),
            wall_ms: req_f64(fields, "wall_ms")?,
        }),
        "pub_event" => Ok(TraceEvent::PubEvent {
            now: req_u64(fields, "now")?,
            event: req_u64(fields, "event")?,
            topic: req_u64(fields, "topic")?,
            node: req_u32(fields, "node")?,
            expected: req_u64(fields, "expected")?,
        }),
        "fwd" => Ok(TraceEvent::Fwd {
            now: req_u64(fields, "now")?,
            event: req_u64(fields, "event")?,
            from: req_u32(fields, "from")?,
            to: req_u32(fields, "to")?,
            hop: req_u32(fields, "hop")?,
        }),
        "deliver_event" => Ok(TraceEvent::DeliverEvent {
            now: req_u64(fields, "now")?,
            event: req_u64(fields, "event")?,
            node: req_u32(fields, "node")?,
            hops: req_u32(fields, "hops")?,
            latency: req_u64(fields, "latency")?,
            path: req_str(fields, "path")?.to_string(),
            recovered: opt_bool(fields, "recovered")?,
        }),
        "reconv" => Ok(TraceEvent::Reconv {
            system: Cow::Owned(req_str(fields, "system")?.to_string()),
            severity_pct: req_u32(fields, "severity_pct")?,
            repair: req_bool(fields, "repair")?,
            rounds: req_opt_u64(fields, "rounds")?,
        }),
        "net_drop" => Ok(TraceEvent::NetDrop {
            now: req_u64(fields, "now")?,
            from: req_u32(fields, "from")?,
            to: req_u32(fields, "to")?,
            kind: Cow::Owned(req_str(fields, "kind")?.to_string()),
            event: req_opt_u64(fields, "event")?,
        }),
        "drop_event" => Ok(TraceEvent::DropEvent {
            now: req_u64(fields, "now")?,
            event: req_u64(fields, "event")?,
            node: req_u32(fields, "node")?,
            reason: Cow::Owned(req_str(fields, "reason")?.to_string()),
        }),
        "topo" => Ok(TraceEvent::TopoSample {
            round: req_u64(fields, "round")?,
            now: req_u64(fields, "now")?,
            probe: TopoProbe {
                nodes: req_u64(fields, "nodes")?,
                links: req_u64(fields, "links")?,
                sampled_topics: req_u64(fields, "sampled_topics")?,
                components: req_u64(fields, "components")?,
                stitched_components: req_u64(fields, "stitched_components")?,
                largest_component_frac: req_f64(fields, "largest_component_frac")?,
                rendezvous_conflicts: req_u64(fields, "rendezvous_conflicts")?,
                headless_topics: req_u64(fields, "headless_topics")?,
                dead_links: req_u64(fields, "dead_links")?,
                mean_relay_stretch: req_opt_f64(fields, "mean_relay_stretch")?,
                max_gateway_load: req_u64(fields, "max_gateway_load")?,
                mean_view_age: req_opt_f64(fields, "mean_view_age")?,
                violations: req_u64(fields, "violations")?,
            },
        }),
        "trace_meta" => Ok(TraceEvent::TraceMeta {
            capacity: req_u64(fields, "capacity")?,
            recorded: req_u64(fields, "recorded")?,
            evicted: req_u64(fields, "evicted")?,
        }),
        other => Err(ParseError::UnknownType(other.to_string())),
    }
}

/// Parse one JSONL line written by [`write_event`] back into a
/// [`TraceEvent`]. Extra fields (e.g. the `"run"` tag added by the
/// experiment harness) are ignored; malformed lines yield a typed
/// [`ParseError`] instead of a panic.
pub fn parse_event(line: &str) -> Result<TraceEvent, ParseError> {
    let fields = parse_flat_object(line).ok_or(ParseError::NotJson)?;
    event_from_fields(&fields)
}

/// Like [`parse_event`] but also returns the `"run"` stamp the experiment
/// harness prefixes to exported lines (`None` for unstamped traces). The
/// offline analyzer uses the stamp to group a multi-run file.
pub fn parse_stamped(line: &str) -> Result<(Option<String>, TraceEvent), ParseError> {
    let fields = parse_flat_object(line).ok_or(ParseError::NotJson)?;
    let run = match get(&fields, "run") {
        Some(JsonValue::Str(s)) => Some(s.clone()),
        _ => None,
    };
    Ok((run, event_from_fields(&fields)?))
}

#[cfg(test)]
mod tests {
    use super::*;

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
                round: 4,
                now: 256,
                hit_ratio: 0.96875,
                overhead_pct: 12.5,
                delivered: 31,
                expected: 32,
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
            let line = event_to_json(&ev);
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
    fn parse_stamped_extracts_the_run_id() {
        let line = r#"{"run":"fig6/vitis-low#3","type":"round","round":1,"now":64,"alive":10}"#;
        let (run, ev) = parse_stamped(line).unwrap();
        assert_eq!(run.as_deref(), Some("fig6/vitis-low#3"));
        assert!(matches!(ev, TraceEvent::Round { round: 1, .. }));
        // Unstamped lines parse with no run id.
        let (run, _) = parse_stamped(r#"{"type":"round","round":1,"now":64,"alive":10}"#).unwrap();
        assert_eq!(run, None);
        // Errors propagate.
        assert_eq!(parse_stamped("nope"), Err(ParseError::NotJson));
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
        let line = event_to_json(&ev);
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
        assert_eq!(t.len(), 3);
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
        assert_eq!(lines.len(), t.len());
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
            round: 1,
            now: 1,
            hit_ratio: f64::NAN,
            overhead_pct: f64::INFINITY,
            delivered: 0,
            expected: 0,
        };
        let line = event_to_json(&ev);
        assert!(line.contains("\"hit_ratio\":null"));
        assert!(line.contains("\"overhead_pct\":null"));
        // Still parseable; NaN comes back for null numeric fields.
        let back = parse_event(&line).unwrap();
        match back {
            TraceEvent::Sample { hit_ratio, .. } => assert!(hit_ratio.is_nan()),
            _ => panic!("wrong variant"),
        }
    }
}
