//! Bounded in-memory trace of simulator activity, for debugging and for
//! behavioural assertions in tests (e.g. "the optimizer was activated only
//! on NIC-idle events" — the Figure 1 test).
//!
//! Tracing is off by default; enabling it costs one enum push per traced
//! action.

use crate::engine::{NicId, NodeId};
use crate::time::SimTime;

/// One traced simulator action.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are given on the variants
pub enum TraceEvent {
    /// A transmit request was accepted into a NIC's hardware queue.
    TxSubmitted { nic: NicId, bytes: u64, cookie: u64 },
    /// The tx engine finished a packet.
    TxDone { nic: NicId, cookie: u64 },
    /// The tx engine drained and the NIC reported idle.
    NicIdle { nic: NicId },
    /// A packet was delivered to the destination endpoint.
    RxDelivered { nic: NicId, bytes: u64, kind: u16 },
    /// A packet was dropped on the wire (fault injection).
    WireDrop { nic: NicId, cookie: u64 },
    /// A packet was duplicated on the wire (fault injection).
    WireDup { nic: NicId, cookie: u64 },
    /// A packet was delayed by a fault-plan stall window.
    WireStall { nic: NicId, cookie: u64 },
    /// A timer fired on a node.
    TimerFired { node: NodeId, tag: u64 },
    /// madnet: a packet was ECN-marked crossing a congested fabric link.
    EcnMark { nic: NicId, cookie: u64 },
    /// madnet: a packet was dropped by a full switch queue.
    FabricDrop { nic: NicId, cookie: u64 },
}

impl TraceEvent {
    /// Stable event name, for unified exports (e.g. Chrome trace-event
    /// `name` fields) and log lines.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TxSubmitted { .. } => "TxSubmitted",
            TraceEvent::TxDone { .. } => "TxDone",
            TraceEvent::NicIdle { .. } => "NicIdle",
            TraceEvent::RxDelivered { .. } => "RxDelivered",
            TraceEvent::WireDrop { .. } => "WireDrop",
            TraceEvent::WireDup { .. } => "WireDup",
            TraceEvent::WireStall { .. } => "WireStall",
            TraceEvent::TimerFired { .. } => "TimerFired",
            TraceEvent::EcnMark { .. } => "EcnMark",
            TraceEvent::FabricDrop { .. } => "FabricDrop",
        }
    }

    /// The NIC the event happened on, when it is NIC-scoped
    /// (`TimerFired` is node-scoped and returns `None`). Lets consumers
    /// merging this trace with higher-layer timelines route events to the
    /// owning (node, rail) track without matching every variant.
    pub fn nic(&self) -> Option<NicId> {
        match self {
            TraceEvent::TxSubmitted { nic, .. }
            | TraceEvent::TxDone { nic, .. }
            | TraceEvent::NicIdle { nic }
            | TraceEvent::RxDelivered { nic, .. }
            | TraceEvent::WireDrop { nic, .. }
            | TraceEvent::WireDup { nic, .. }
            | TraceEvent::WireStall { nic, .. }
            | TraceEvent::EcnMark { nic, .. }
            | TraceEvent::FabricDrop { nic, .. } => Some(*nic),
            TraceEvent::TimerFired { .. } => None,
        }
    }
}

/// One timestamped record of a [`Ring`].
#[derive(Clone, Debug)]
pub struct Stamped<E> {
    /// Virtual time of the event.
    pub at: SimTime,
    /// The event.
    pub event: E,
}

/// The bounded overwrite-oldest ring every trace in the workspace is kept
/// in: the simulator's [`Trace`] here and the engine's event sink in
/// `madeleine`. Disabled, a push costs one branch; full, a push overwrites
/// the oldest record and counts it in [`Ring::dropped`], so long runs keep
/// the recent window.
#[derive(Clone, Debug)]
pub struct Ring<E> {
    enabled: bool,
    capacity: usize,
    records: Vec<Stamped<E>>,
    head: usize,
    dropped: u64,
}

/// A timestamped trace record.
pub type TraceRecord = Stamped<TraceEvent>;

/// The simulator's trace: a [`Ring`] of [`TraceEvent`]s.
pub type Trace = Ring<TraceEvent>;

impl<E> Default for Ring<E> {
    fn default() -> Self {
        Ring::disabled()
    }
}

impl<E> Ring<E> {
    /// A disabled ring (records nothing).
    pub fn disabled() -> Self {
        Ring {
            enabled: false,
            capacity: 0,
            records: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// An enabled ring retaining the most recent `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Ring {
            enabled: true,
            capacity: capacity.max(1),
            records: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            dropped: 0,
        }
    }

    /// Whether tracing is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record an event (no-op when disabled).
    pub fn push(&mut self, at: SimTime, event: E) {
        if !self.enabled {
            return;
        }
        let rec = Stamped { at, event };
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records in chronological order (oldest retained first).
    pub fn iter(&self) -> impl Iterator<Item = &Stamped<E>> {
        let (newer, older) = self.records.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records discarded due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count retained records matching a predicate.
    pub fn count_matching(&self, mut pred: impl FnMut(&E) -> bool) -> usize {
        self.iter().filter(|r| pred(&r.event)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut r = Ring::<u64>::default();
        r.push(SimTime::ZERO, 1);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
        assert_eq!((r.capacity(), r.dropped()), (0, 0));
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = Ring::with_capacity(3);
        // Seven pushes wrap the head past the end more than once.
        for i in 0..7u64 {
            r.push(SimTime::from_nanos(i), i);
        }
        assert_eq!((r.len(), r.capacity(), r.dropped()), (3, 3, 4));
        let kept: Vec<(u64, u64)> = r.iter().map(|s| (s.at.as_nanos(), s.event)).collect();
        assert_eq!(kept, vec![(4, 4), (5, 5), (6, 6)]);
        // A zero capacity still holds the latest record.
        let mut one = Ring::with_capacity(0);
        one.push(SimTime::ZERO, 1u64);
        one.push(SimTime::ZERO, 2u64);
        assert_eq!(one.iter().map(|s| s.event).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn count_matching_filters() {
        let mut r = Ring::with_capacity(10);
        for i in 0..5u64 {
            r.push(SimTime::ZERO, i);
        }
        assert_eq!(r.count_matching(|e| e % 2 == 0), 3);
    }

    /// `Trace` and `TraceRecord` are names over `Ring<TraceEvent>`.
    #[test]
    fn trace_is_a_ring_of_trace_events() {
        let mut t = Trace::with_capacity(2);
        for tag in 0..3 {
            let node = NodeId(0);
            t.push(
                SimTime::from_nanos(tag),
                TraceEvent::TimerFired { node, tag },
            );
        }
        let first: &TraceRecord = t.iter().next().expect("two records retained");
        assert_eq!(first.at, SimTime::from_nanos(1));
        assert_eq!(t.dropped(), 1);
        assert_eq!(
            t.count_matching(|e| matches!(e, TraceEvent::TimerFired { .. })),
            2
        );
    }

    #[test]
    fn names_and_nic_scoping_are_stable() {
        let tx = TraceEvent::TxSubmitted {
            nic: NicId(3),
            bytes: 64,
            cookie: 7,
        };
        assert_eq!(tx.name(), "TxSubmitted");
        assert_eq!(tx.nic(), Some(NicId(3)));
        let timer = TraceEvent::TimerFired {
            node: NodeId(1),
            tag: 9,
        };
        assert_eq!(timer.name(), "TimerFired");
        assert_eq!(timer.nic(), None);
    }
}
