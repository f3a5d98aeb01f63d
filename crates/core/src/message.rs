//! Structured messages: the unit applications and middlewares submit.
//!
//! §3 of the paper: requests "are indeed structured messages with one or
//! more fragments expressing what the message carries or requests, and one
//! or more other fragments being the actual data". Fragments are packed
//! with a mode that tells the engine how much reordering freedom it has —
//! modelled on Madeleine's `express` / `cheaper` receive modes.

use bytes::Bytes;
use simnet::{NodeId, SimTime};

use crate::ids::{FlowId, FragIndex, MsgId, TrafficClass};

/// How a fragment may be handled by the optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PackMode {
    /// The fragment carries structural/control information the receiver
    /// needs *before* it can interpret later fragments (e.g. an RPC method
    /// id, a DSM page number). The engine must make it available before any
    /// later fragment of the same message — a hard ordering constraint.
    Express,
    /// The engine is free to reorder, aggregate, split or delay this
    /// fragment any way it likes, as long as the whole message is
    /// eventually delivered. ("cheaper" in Madeleine terms.)
    Cheaper,
}

/// One fragment of a structured message.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Position within the message (pack order).
    pub index: FragIndex,
    /// Handling mode.
    pub mode: PackMode,
    /// Payload bytes.
    pub data: Bytes,
}

impl Fragment {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A fully packed message ready for submission.
#[derive(Clone, Debug)]
pub struct Message {
    /// Identity (assigned at submission by the engine).
    pub id: MsgId,
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class (inherited from the flow).
    pub class: TrafficClass,
    /// Fragments in pack order.
    pub fragments: Vec<Fragment>,
    /// When the application submitted it (stamped by the engine).
    pub submitted_at: SimTime,
}

impl Message {
    /// Total payload bytes across fragments.
    pub fn total_len(&self) -> u64 {
        self.fragments.iter().map(Fragment::len).sum()
    }
}

/// Incremental builder mirroring Madeleine's `begin_packing` / `pack` /
/// `end_packing` API.
///
/// ```
/// use madeleine::message::{MessageBuilder, PackMode};
/// let msg = MessageBuilder::new()
///     .pack_express(&42u32.to_le_bytes())   // header: what this message is
///     .pack_cheaper(&[0u8; 1024])           // body: the actual data
///     .build_parts();
/// assert_eq!(msg.len(), 2);
/// assert_eq!(msg[0].mode, PackMode::Express);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MessageBuilder {
    fragments: Vec<Fragment>,
}

impl MessageBuilder {
    /// Start an empty message.
    pub fn new() -> Self {
        MessageBuilder {
            fragments: Vec::new(),
        }
    }

    /// Append a fragment with an explicit mode (copies the slice).
    pub fn pack(mut self, data: &[u8], mode: PackMode) -> Self {
        self.push(Bytes::copy_from_slice(data), mode);
        self
    }

    /// Append an express (ordered, structural) fragment.
    pub fn pack_express(self, data: &[u8]) -> Self {
        self.pack(data, PackMode::Express)
    }

    /// Append a cheaper (freely optimizable) fragment.
    pub fn pack_cheaper(self, data: &[u8]) -> Self {
        self.pack(data, PackMode::Cheaper)
    }

    /// Append an owned buffer without copying.
    pub fn pack_bytes(mut self, data: Bytes, mode: PackMode) -> Self {
        self.push(data, mode);
        self
    }

    fn push(&mut self, data: Bytes, mode: PackMode) {
        assert!(
            !data.is_empty(),
            "empty fragments are not supported: encode presence in an express header"
        );
        let index = self.fragments.len();
        assert!(index <= FragIndex::MAX as usize, "too many fragments");
        self.fragments.push(Fragment {
            index: index as FragIndex,
            mode,
            data,
        });
    }

    /// Number of fragments packed so far.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True if nothing has been packed.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Finish building; returns the fragment list (identity and timestamps
    /// are attached by the engine at submission).
    pub fn build_parts(self) -> Vec<Fragment> {
        self.fragments
    }
}

/// A message as handed to the receiving application: fragments in pack
/// order with their payload reassembled, plus measured latency.
#[derive(Clone, Debug)]
pub struct DeliveredMessage {
    /// Sender node.
    pub src: NodeId,
    /// Originating flow (sender-side id).
    pub flow: FlowId,
    /// Message identity.
    pub id: MsgId,
    /// Traffic class.
    pub class: TrafficClass,
    /// Reassembled fragments in pack order.
    pub fragments: Vec<(PackMode, Bytes)>,
    /// Submission→delivery latency measured through the carried timestamp.
    pub latency: simnet::SimDuration,
    /// Delivery time.
    pub delivered_at: SimTime,
}

impl DeliveredMessage {
    /// Total payload bytes.
    pub fn total_len(&self) -> u64 {
        self.fragments.iter().map(|(_, d)| d.len() as u64).sum()
    }

    /// Concatenated payload (test helper).
    pub fn contiguous(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len() as usize);
        for (_, d) in &self.fragments {
            out.extend_from_slice(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MsgSeq;

    #[test]
    fn builder_preserves_order_and_modes() {
        let parts = MessageBuilder::new()
            .pack_express(b"hdr")
            .pack_cheaper(b"body1")
            .pack_cheaper(b"body2")
            .build_parts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].mode, PackMode::Express);
        assert_eq!(parts[1].mode, PackMode::Cheaper);
        assert_eq!(parts[0].index, 0);
        assert_eq!(parts[2].index, 2);
        assert_eq!(&parts[2].data[..], b"body2");
    }

    #[test]
    fn message_totals() {
        let msg = Message {
            id: MsgId {
                flow: FlowId(0),
                seq: MsgSeq(0),
            },
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            fragments: MessageBuilder::new()
                .pack_express(b"abcd")
                .pack_cheaper(&[0u8; 100])
                .build_parts(),
            submitted_at: SimTime::ZERO,
        };
        assert_eq!(msg.total_len(), 104);
        assert_eq!(msg.fragments.len(), 2);
    }

    #[test]
    fn pack_bytes_is_zero_copy() {
        let buf = Bytes::from(vec![9u8; 64]);
        let parts = MessageBuilder::new()
            .pack_bytes(buf.clone(), PackMode::Cheaper)
            .build_parts();
        // Same underlying allocation.
        assert_eq!(parts[0].data.as_ptr(), buf.as_ptr());
    }

    #[test]
    fn empty_builder() {
        let b = MessageBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(b.build_parts().is_empty());
    }
}
