//! Engine error types.

use nicdrv::DriverError;
use simnet::NodeId;

use crate::ids::{ChannelId, FlowId};
use crate::proto::ProtoError;

/// Errors surfaced by the optimizing engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The underlying driver rejected a transfer the optimizer produced —
    /// always an engine bug (plans are validated against capabilities), so
    /// it is surfaced loudly rather than absorbed.
    Driver(DriverError),
    /// A peer packet failed to decode.
    Proto(ProtoError),
    /// Destination node has no registered peer address on any rail.
    UnknownPeer(NodeId),
    /// No rail is eligible for this flow's traffic class under the current
    /// policy.
    NoEligibleChannel(FlowId),
    /// Referenced a rail/channel that does not exist.
    NoSuchChannel(ChannelId),
    /// Invalid engine configuration.
    Config(String),
    /// A message with zero fragments was submitted.
    EmptyMessage,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Driver(e) => write!(f, "driver rejected plan: {e}"),
            EngineError::Proto(e) => write!(f, "protocol decode error: {e}"),
            EngineError::UnknownPeer(n) => write!(f, "no peer address for node {n:?}"),
            EngineError::NoEligibleChannel(fl) => {
                write!(f, "no eligible channel for {fl} under current policy")
            }
            EngineError::NoSuchChannel(c) => write!(f, "no such channel {c:?}"),
            EngineError::Config(s) => write!(f, "invalid configuration: {s}"),
            EngineError::EmptyMessage => write!(f, "message has no fragments"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DriverError> for EngineError {
    fn from(e: DriverError) -> Self {
        EngineError::Driver(e)
    }
}

impl From<ProtoError> for EngineError {
    fn from(e: ProtoError) -> Self {
        EngineError::Proto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = ProtoError::Truncated.into();
        assert!(e.to_string().contains("decode"));
        let e: EngineError = DriverError::NotInjectable {
            len: 300,
            segments: 6,
        }
        .into();
        assert!(e.to_string().contains("300"));
        assert!(EngineError::UnknownPeer(NodeId(3))
            .to_string()
            .contains('3'));
    }
}
