//! Churn schedules: time-ordered join/leave events over logical node
//! identities.
//!
//! A system applies a trace itself, one event at a time through its
//! `set_online`, stepping its clock to each event's timestamp in between.

use crate::time::SimTime;

/// The direction of a churn event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChurnKind {
    /// The node comes online.
    Join,
    /// The node goes offline. Systems apply this as a crash (no goodbye
    /// protocol), matching measurement traces where departures are silent.
    Leave,
}

/// One entry of a churn trace over *logical* node ids (dense `0..n`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChurnEvent {
    /// When the event takes effect.
    pub time: SimTime,
    /// Logical node identity, dense from zero.
    pub node: u32,
    /// Join or leave.
    pub kind: ChurnKind,
}

/// A validated, time-sorted churn trace.
#[derive(Clone, Debug, Default)]
pub struct ChurnTrace {
    events: Vec<ChurnEvent>,
    num_logical: u32,
    /// `prefix_online[i]` = nodes online after applying `events[..i]`.
    prefix_online: Vec<u32>,
}

/// Running online population after each event prefix. Valid traces strictly
/// alternate join/leave per node, so each event is exactly ±1.
fn prefix_online_counts(events: &[ChurnEvent]) -> Vec<u32> {
    let mut counts = Vec::with_capacity(events.len() + 1);
    let mut online = 0u32;
    counts.push(online);
    for e in events {
        match e.kind {
            ChurnKind::Join => online += 1,
            ChurnKind::Leave => online = online.saturating_sub(1),
        }
        counts.push(online);
    }
    counts
}

/// Errors detected while validating a churn trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChurnTraceError {
    /// A node joined while already online (event index).
    DoubleJoin(usize),
    /// A node left while offline (event index).
    LeaveWhileOffline(usize),
}

impl std::fmt::Display for ChurnTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnTraceError::DoubleJoin(i) => write!(f, "event {i}: join while already online"),
            ChurnTraceError::LeaveWhileOffline(i) => write!(f, "event {i}: leave while offline"),
        }
    }
}

impl std::error::Error for ChurnTraceError {}

impl ChurnTrace {
    /// Build a trace from events; sorts by time (stable) and validates that
    /// each logical node strictly alternates join/leave starting with join.
    pub fn new(mut events: Vec<ChurnEvent>) -> Result<Self, ChurnTraceError> {
        events.sort_by_key(|e| e.time);
        let num_logical = events.iter().map(|e| e.node + 1).max().unwrap_or(0);
        let mut online = vec![false; num_logical as usize];
        for (i, e) in events.iter().enumerate() {
            let st = &mut online[e.node as usize];
            match e.kind {
                ChurnKind::Join if *st => return Err(ChurnTraceError::DoubleJoin(i)),
                ChurnKind::Leave if !*st => return Err(ChurnTraceError::LeaveWhileOffline(i)),
                ChurnKind::Join => *st = true,
                ChurnKind::Leave => *st = false,
            }
        }
        Ok(ChurnTrace {
            prefix_online: prefix_online_counts(&events),
            events,
            num_logical,
        })
    }

    /// The validated events, sorted by time.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of distinct logical nodes referenced.
    pub fn num_logical_nodes(&self) -> u32 {
        self.num_logical
    }

    /// Time of the last event, or zero for an empty trace.
    pub fn horizon(&self) -> SimTime {
        self.events.last().map(|e| e.time).unwrap_or(SimTime::ZERO)
    }

    /// Number of nodes online at time `t` (after applying all events ≤ `t`).
    ///
    /// `O(log n)`: a binary search over the time-sorted events into a
    /// precomputed prefix-population table, so per-round sampling over large
    /// Skype traces stays linear overall instead of quadratic.
    pub fn online_at(&self, t: SimTime) -> usize {
        let idx = self.events.partition_point(|e| e.time <= t);
        self.prefix_online.get(idx).copied().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, n: u32, kind: ChurnKind) -> ChurnEvent {
        ChurnEvent {
            time: SimTime(t),
            node: n,
            kind,
        }
    }

    #[test]
    fn trace_sorts_and_validates() {
        let tr = ChurnTrace::new(vec![
            ev(10, 0, ChurnKind::Leave),
            ev(1, 0, ChurnKind::Join),
            ev(5, 1, ChurnKind::Join),
        ])
        .unwrap();
        assert_eq!(tr.events()[0].time, SimTime(1));
        assert_eq!(tr.num_logical_nodes(), 2);
        assert_eq!(tr.horizon(), SimTime(10));
    }

    #[test]
    fn trace_rejects_double_join() {
        let err = ChurnTrace::new(vec![ev(1, 0, ChurnKind::Join), ev(2, 0, ChurnKind::Join)])
            .unwrap_err();
        assert_eq!(err, ChurnTraceError::DoubleJoin(1));
    }

    #[test]
    fn trace_rejects_leave_while_offline() {
        let err = ChurnTrace::new(vec![ev(1, 0, ChurnKind::Leave)]).unwrap_err();
        assert_eq!(err, ChurnTraceError::LeaveWhileOffline(0));
    }

    #[test]
    fn online_at_tracks_population() {
        let tr = ChurnTrace::new(vec![
            ev(1, 0, ChurnKind::Join),
            ev(2, 1, ChurnKind::Join),
            ev(5, 0, ChurnKind::Leave),
            ev(9, 0, ChurnKind::Join),
        ])
        .unwrap();
        assert_eq!(tr.online_at(SimTime(0)), 0);
        assert_eq!(tr.online_at(SimTime(2)), 2);
        assert_eq!(tr.online_at(SimTime(6)), 1);
        assert_eq!(tr.online_at(SimTime(10)), 2);
    }
}
