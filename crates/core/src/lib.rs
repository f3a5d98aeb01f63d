//! # madeleine — a dynamic communication optimization engine
//!
//! Rust reproduction of *"Short Paper: Dynamic Optimization of
//! Communications over High Speed Networks"* (Brunet, Aumage, Namyst —
//! HPDC-15, 2006), the design that became **NewMadeleine**.
//!
//! The engine's defining ideas, all implemented here:
//!
//! * **NIC-idle activation** (§3): the application enqueues structured
//!   messages into per-flow lists and returns immediately; the optimizer
//!   runs when a NIC's transmit engine drains, viewing the accumulated
//!   backlog through a lookahead window.
//! * **Cross-flow optimization** (§2, §4): packets from independent flows
//!   (different middlewares!) are merged, reordered and split; the
//!   headline win is eager-segment aggregation across flows.
//! * **Capability-parameterized strategies** (abstract): every plan is
//!   validated against, and costed with, the concrete NIC driver's
//!   capability descriptor (gather width, PIO limits, MTU, rendezvous
//!   hints).
//! * **An extendable strategy database** (abstract): [`strategy::Strategy`]
//!   implementations propose candidate packet rearrangements; the engine
//!   scores them under a bounded rearrangement budget (§4 future work) and
//!   executes the best.
//! * **Resource pooling & traffic classes** (§1–2): NIC virtual channels
//!   are pooled and assigned to traffic classes; policies (one-to-one
//!   fallback, pooled, class-pinned, adaptive) decide rail eligibility and
//!   can be switched at runtime.
//!
//! ## Quick start
//!
//! ```
//! use madeleine::harness::{Cluster, ClusterSpec};
//! use madeleine::message::MessageBuilder;
//! use madeleine::ids::TrafficClass;
//!
//! // Two nodes joined by a simulated Myrinet/MX rail (the paper's beta
//! // platform), running the optimizing engine.
//! let mut cluster = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
//! let dst = cluster.nodes[1];
//! let handle = cluster.handle(0).clone();
//! let flow = handle.open_flow(dst, TrafficClass::DEFAULT);
//! let src = cluster.nodes[0];
//! cluster.sim.inject(src, |ctx| {
//!     handle.send(ctx, flow, MessageBuilder::new()
//!         .pack_express(b"rpc-id:42")   // header the receiver needs first
//!         .pack_cheaper(&[7u8; 4096])   // payload the engine may reorder
//!         .build_parts());
//! });
//! cluster.drain();
//! assert_eq!(cluster.handle(1).delivered_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod classes;
pub mod collect;
pub mod config;
pub mod constraints;
pub mod cost;
pub mod diff;
pub mod engine;
pub mod error;
pub mod flowmgr;
pub mod harness;
pub mod hist;
pub mod ids;
mod idtable;
pub mod json;
pub mod legacy;
pub mod message;
pub mod metrics;
pub mod observer;
pub mod optimizer;
pub mod plan;
pub mod policy;
pub mod prof;
pub mod proto;
pub mod receiver;
pub mod reliability;
pub mod scope;
pub mod slab;
pub mod strategy;
pub mod trace;
pub mod transfer;

pub use api::{AppDriver, CommApi, NullApp};
pub use config::EngineConfig;
pub use diff::{diff, AlignedDelta, CritDiff, DecisionDivergence, RunDiff, RunSnapshot};
pub use engine::{EngineBuilder, EngineHandle, MadEngine};
pub use error::EngineError;
pub use flowmgr::{AdmissionConfig, AdmissionPolicy, FairnessMode, FlowIndex, SendOutcome};
pub use harness::{Cluster, ClusterSpec, EngineKind, NodeHandle};
pub use hist::LogHistogram;
pub use ids::{ChannelId, FlowId, MsgId, TrafficClass};
pub use json::Json;
pub use legacy::{LegacyEngine, LegacyHandle};
pub use message::{DeliveredMessage, Fragment, MessageBuilder, PackMode};
pub use metrics::{EngineMetrics, Fault, MetricsRegistry};
pub use policy::PolicyKind;
pub use prof::{CritSpan, FlowSpan, Label, MsgKey, Phase, ProfInput, Profile, PHASE_COUNT};
pub use reliability::{plan_retransmit, RailHealth, ReliabilityMode, RetransmitTracker};
pub use scope::{flatten_registry, prometheus_render, PromSample, Sampler};
pub use strategy::{Strategy, StrategyRegistry};
pub use trace::{
    chrome_event_count, export_chrome_trace, export_chrome_trace_with_topology, ChromeExport,
    EngineEvent, EngineRecord, EventSink, FlightDump, TopologySummary,
};
