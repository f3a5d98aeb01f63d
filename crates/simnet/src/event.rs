//! The discrete-event queue.
//!
//! A binary min-heap keyed on `(time, sequence)`. The sequence number is a
//! global insertion counter, so simultaneous events fire in insertion order —
//! the property that makes whole-simulation runs bit-for-bit reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::{NicId, NodeId};
use crate::packet::WirePacket;
use crate::time::SimTime;

/// Identifies a pending timer so it can be cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Simulator-internal event kinds.
#[derive(Debug)]
#[allow(missing_docs)] // field meanings are given on the variants
pub enum EventKind {
    /// A NIC transmit engine finished injecting+serializing its current
    /// packet.
    TxEngineDone { nic: NicId },
    /// A packet reached the destination NIC after wire propagation.
    Arrival { nic: NicId, packet: Box<WirePacket> },
    /// A NIC receive engine finished processing the packet at the head of
    /// its receive queue.
    RxEngineDone { nic: NicId },
    /// A timer set by a node endpoint expired.
    Timer {
        node: NodeId,
        timer: TimerId,
        tag: u64,
    },
    /// A fabric (madnet) fluid transfer finished serializing at its
    /// max-min fair rate: the earliest completion under fabric
    /// allocation `generation`, the only one a reallocation posts. Stale
    /// once the fabric's generation has moved on (a later join/leave
    /// posted its own); the run loop drops it without moving the clock.
    FabricDone {
        network: crate::engine::NetworkId,
        transfer: u64,
        generation: u64,
    },
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence (total order tiebreak).
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue with stable ordering for ties.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `kind` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, tag: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            timer: TimerId(tag),
            tag,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), timer(0, 3));
        q.push(SimTime::from_nanos(10), timer(0, 1));
        q.push(SimTime::from_nanos(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for tag in 0..100 {
            q.push(t, timer(0, tag));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), timer(0, 0));
        q.push(SimTime::from_nanos(3), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
    }
}
