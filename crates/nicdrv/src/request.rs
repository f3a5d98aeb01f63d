//! Driver-level transfer requests and errors.

use bytes::Bytes;
use simnet::{NicId, SimDuration, SubmitError, VChannel};

/// A transfer request submitted to a [`crate::SimDriver`].
///
/// Unlike the raw simulator request, a driver request is validated against
/// the driver's [`crate::DriverCapabilities`] — the contract that keeps the
/// optimizer honest. It names no injection mode: the driver injects it in
/// the one [`crate::injection_mode`] picks.
#[derive(Clone, Debug)]
pub struct TransferRequest {
    /// Destination NIC.
    pub dst_nic: NicId,
    /// Virtual channel at the destination.
    pub vchan: VChannel,
    /// Protocol discriminator carried to the receiver.
    pub kind: u16,
    /// Completion cookie echoed in `on_tx_done`.
    pub cookie: u64,
    /// Extra host preparation time (e.g. an aggregation memcpy) to charge.
    pub host_prep: SimDuration,
    /// Payload gather list.
    pub segments: Vec<Bytes>,
}

impl TransferRequest {
    /// Total payload bytes.
    pub fn len(&self) -> u64 {
        self.segments.iter().map(|s| s.len() as u64).sum()
    }

    /// True if the request carries no payload bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why the driver refused a transfer request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverError {
    /// No injection mode admits the request: too long for PIO, and too
    /// many segments (or no DMA) for a gather list.
    NotInjectable {
        /// Requested bytes.
        len: u64,
        /// Segments in the request.
        segments: usize,
    },
    /// Request exceeds the driver's maximum packet size.
    TooLarge {
        /// Requested bytes.
        len: u64,
        /// Driver limit.
        max: u64,
    },
    /// Virtual channel index out of range.
    VChannelOutOfRange {
        /// Requested channel.
        got: u8,
        /// Number of channels exposed.
        max: u8,
    },
    /// The underlying NIC rejected the submission (queue full, MTU...).
    Nic(SubmitError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NotInjectable { len, segments } => {
                write!(
                    f,
                    "no injection mode admits {len} bytes in {segments} segments"
                )
            }
            DriverError::TooLarge { len, max } => {
                write!(f, "request of {len} bytes exceeds driver limit {max}")
            }
            DriverError::VChannelOutOfRange { got, max } => {
                write!(f, "virtual channel {got} out of range (NIC exposes {max})")
            }
            DriverError::Nic(e) => write!(f, "NIC rejected submission: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<SubmitError> for DriverError {
    fn from(e: SubmitError) -> Self {
        DriverError::Nic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_len_sums_segments() {
        let r = TransferRequest {
            dst_nic: NicId(0),
            vchan: 0,
            kind: 0,
            cookie: 0,
            host_prep: SimDuration::ZERO,
            segments: vec![Bytes::from_static(b"ab"), Bytes::from_static(b"cde")],
        };
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    fn error_display_is_informative() {
        let e = DriverError::NotInjectable {
            len: 300,
            segments: 6,
        };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains('6'));
        let e: DriverError = SubmitError::QueueFull.into();
        assert!(matches!(e, DriverError::Nic(SubmitError::QueueFull)));
    }
}
