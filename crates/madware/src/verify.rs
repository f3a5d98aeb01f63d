//! End-to-end payload integrity: deterministic content generation and
//! verification, so every experiment doubles as a correctness check of the
//! optimizer's reorderings.

use std::collections::HashMap;

use madeleine::ids::FlowId;
use madeleine::message::DeliveredMessage;
use simnet::NodeId;

/// Deterministic byte pattern for (flow, seq, frag) at each offset.
/// Position-dependent so that any chunk misplacement (wrong offset, wrong
/// fragment, swapped chunks) corrupts the comparison.
pub fn pattern(flow: u32, seq: u32, frag: u16, len: usize) -> Vec<u8> {
    let base = (flow as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add((seq as u64).wrapping_mul(0x85EB_CA6B))
        .wrapping_add((frag as u64).wrapping_mul(0xC2B2_AE35));
    (0..len)
        .map(|i| {
            (base
                .wrapping_add(i as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                >> 56) as u8
        })
        .collect()
}

/// Verify a delivered message's payload against [`pattern`], using the
/// *sender-side* flow id carried in the message. Express fragments are
/// skipped — middlewares put semantic headers there; only `Cheaper`
/// fragments carry generated pattern content. Returns a description of
/// the first mismatch.
pub fn check_message(msg: &DeliveredMessage) -> Result<(), String> {
    for (i, (mode, data)) in msg.fragments.iter().enumerate() {
        if *mode == madeleine::message::PackMode::Express {
            continue;
        }
        let expect = pattern(msg.flow.0, msg.id.seq.0, i as u16, data.len());
        if data[..] != expect[..] {
            let pos = data
                .iter()
                .zip(&expect)
                .position(|(a, b)| a != b)
                .unwrap_or(data.len());
            return Err(format!(
                "payload mismatch in {} fragment {i} at byte {pos} (len {})",
                msg.id,
                data.len()
            ));
        }
    }
    Ok(())
}

/// Running verification over a stream of deliveries: every payload
/// intact, and each (source, flow)'s sequence numbers rising — a
/// duplicate or a reorder fails, a gap (a shed or cancelled message) does
/// not.
#[derive(Clone, Debug, Default)]
pub struct IntegrityChecker {
    /// Messages verified.
    pub checked: u64,
    /// Descriptions of failures (bounded to the first 16).
    pub failures: Vec<String>,
    /// Last sequence number delivered per (source, flow).
    last_seq: HashMap<(NodeId, FlowId), u32>,
}

impl IntegrityChecker {
    /// Check one message.
    pub fn check(&mut self, msg: &DeliveredMessage) {
        self.checked += 1;
        let seq = msg.id.seq.0;
        let order = match self.last_seq.insert((msg.src, msg.flow), seq) {
            Some(last) if seq <= last => Err(format!(
                "{} from node {} after seq {last}: a duplicate or a reorder",
                msg.id, msg.src.0
            )),
            _ => Ok(()),
        };
        if let Err(e) = order.and_then(|()| check_message(msg)) {
            if self.failures.len() < 16 {
                self.failures.push(e);
            }
        }
    }

    /// True if every checked message was intact and in order.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use madeleine::ids::{FlowId, MsgId, MsgSeq, TrafficClass};
    use madeleine::message::PackMode;
    use simnet::{NodeId, SimDuration, SimTime};

    fn delivered(flow: u32, seq: u32, frags: Vec<Vec<u8>>) -> DeliveredMessage {
        DeliveredMessage {
            src: NodeId(0),
            flow: FlowId(flow),
            id: MsgId {
                flow: FlowId(flow),
                seq: MsgSeq(seq),
            },
            class: TrafficClass::DEFAULT,
            fragments: frags
                .into_iter()
                .map(|d| (PackMode::Cheaper, Bytes::from(d)))
                .collect(),
            latency: SimDuration::ZERO,
            delivered_at: SimTime::ZERO,
        }
    }

    #[test]
    fn pattern_is_deterministic_and_distinct() {
        assert_eq!(pattern(1, 2, 3, 64), pattern(1, 2, 3, 64));
        assert_ne!(pattern(1, 2, 3, 64), pattern(1, 2, 4, 64));
        assert_ne!(pattern(1, 2, 3, 64), pattern(2, 2, 3, 64));
        // Position-dependent: a rotation is detected.
        let p = pattern(0, 0, 0, 64);
        let mut rotated = p.clone();
        rotated.rotate_left(1);
        assert_ne!(p, rotated);
    }

    #[test]
    fn intact_message_passes() {
        let m = delivered(5, 9, vec![pattern(5, 9, 0, 32), pattern(5, 9, 1, 100)]);
        assert!(check_message(&m).is_ok());
        let mut c = IntegrityChecker::default();
        c.check(&m);
        assert!(c.all_ok());
        assert_eq!(c.checked, 1);
    }

    #[test]
    fn corruption_detected_with_location() {
        let mut frag = pattern(1, 1, 0, 50);
        frag[17] ^= 0xFF;
        let m = delivered(1, 1, vec![frag]);
        let err = check_message(&m).unwrap_err();
        assert!(err.contains("byte 17"), "{err}");
    }

    #[test]
    fn swapped_fragments_detected() {
        let m = delivered(1, 1, vec![pattern(1, 1, 1, 32), pattern(1, 1, 0, 32)]);
        assert!(check_message(&m).is_err());
    }

    /// Deliver `seqs` of flow 3 from `src`, in the order given.
    fn checked(seqs: &[(u32, u32)]) -> IntegrityChecker {
        let mut c = IntegrityChecker::default();
        for &(src, seq) in seqs {
            let mut m = delivered(3, seq, vec![pattern(3, seq, 0, 24)]);
            m.src = NodeId(src);
            c.check(&m);
        }
        c
    }

    #[test]
    fn a_duplicate_is_flagged() {
        let c = checked(&[(0, 0), (0, 1), (0, 1), (0, 2)]);
        assert_eq!((c.checked, c.failures.len()), (4, 1), "{:?}", c.failures);
        assert!(c.failures[0].contains("after seq 1"), "{:?}", c.failures);
    }

    #[test]
    fn a_reorder_is_flagged() {
        let c = checked(&[(0, 0), (0, 2), (0, 1), (0, 3)]);
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        assert!(c.failures[0].contains("after seq 2"), "{:?}", c.failures);
    }

    #[test]
    fn a_gap_is_legal() {
        // A shed or cancelled message never arrives.
        assert!(checked(&[(0, 0), (0, 3), (0, 4), (0, 9)]).all_ok());
    }

    #[test]
    fn sources_sharing_a_flow_id_are_ordered_apart() {
        let c = checked(&[(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (0, 2)]);
        assert!(c.all_ok(), "{:?}", c.failures);
        let c = checked(&[(0, 0), (1, 0), (1, 1), (1, 0)]);
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        assert!(c.failures[0].contains("node 1"), "{:?}", c.failures);
    }

    #[test]
    fn failure_list_is_bounded() {
        let mut c = IntegrityChecker::default();
        for i in 0..40 {
            let m = delivered(0, i, vec![vec![0xEE; 16]]);
            c.check(&m);
        }
        assert_eq!(c.checked, 40);
        assert_eq!(c.failures.len(), 16);
        assert!(!c.all_ok());
    }
}
