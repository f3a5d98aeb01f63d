//! The one import seam: every symbol of the repository that madclock uses
//! is re-exported here and nowhere else. When a module moves (ROADMAP
//! item 2 takes `harness`, `prof`, `diff` and `json` out of `madeleine`),
//! this file is the only benchmark file that changes.
//!
//! Crate-root re-exports are preferred over module paths wherever the
//! crate offers one.

pub use bytes::Bytes;

pub use madeleine::{
    diff, AdmissionConfig, AdmissionPolicy, AppDriver, ChannelId, Cluster, ClusterSpec, CommApi,
    DeliveredMessage, EngineConfig, EngineEvent, EngineKind, EngineMetrics, EventSink, FlowId,
    Fragment, Json, MessageBuilder, PackMode, PolicyKind, ReliabilityMode, RetransmitTracker,
    RunSnapshot, Sampler, StrategyRegistry, TrafficClass,
};
// Layer entry points that have no crate-root re-export.
pub use madeleine::collect::CollectLayer;
pub use madeleine::constraints::validate_plan;
pub use madeleine::json::obj;
pub use madeleine::optimizer::select_plan;
pub use madeleine::plan::{PlanBody, PlannedChunk};
pub use madeleine::proto::{decode_packet, encode_packet, ChunkHeader, DecodedChunk, WireChunk};
pub use madeleine::receiver::Receiver;
pub use madeleine::reliability::PendingTx;
pub use madeleine::scope::{RailTick, TickStats};
pub use madeleine::strategy::OptContext;

pub use nicdrv::{calib, CostModel, DriverCapabilities};

pub use simnet::event::{EventKind, EventQueue};
pub use simnet::{
    flow_hash, max_min_rates, FaultPlan, NicId, NodeId, SimDuration, SimTime, Technology, Topology,
    WirePacket,
};
