//! # madware — synthetic middleware stacks and workloads
//!
//! The paper's motivation is that applications run "complex conglomerates
//! of multiple communication middlewares such as CORBA, JAVA RMI or DSM"
//! (§1), multiplying concurrent flows. This crate provides those stacks in
//! synthetic but protocol-shaped form, all implemented against the engine's
//! [`madeleine::AppDriver`] API so they run unchanged on the optimizing
//! engine and on the legacy baseline:
//!
//! * [`apps::TrafficApp`] — the one multi-flow generator (arrival process ×
//!   size distribution × traffic class), the experiment workhorse; every
//!   instance also answers requests, and submits through admission
//!   control, holding back what the engine refuses until its class
//!   unblocks. The middlewares are shapes of its
//!   [`FlowSpec`]: [`FlowSpec::rpc`] (request/reply with RTT matching),
//!   [`FlowSpec::dsm`] (latency-critical page faults answered by bulk
//!   pages), [`FlowSpec::corba`] (marshalled multi-fragment invocations),
//!   and a closed loop is one more arrival process,
//!   [`Arrival::Closed`] (the next request a think time after the last
//!   reply: the light-load regime of §3);
//! * [`coll`] — madcoll: barrier/broadcast/reduce/allreduce as round-gated
//!   schedules whose algorithm is selected from the rail's cost model, and
//!   [`coll::CollApp`], which runs a collective job as a list of
//!   [`coll::Phase`]s (compute, collective, barrier) repeated per step —
//!   iterated collectives, and distributed-ML training steps as its
//!   ring-allreduce and parameter-server presets;
//! * [`verify`] — deterministic payload patterns: every workload checks the
//!   bytes and the per-flow order of what it receives, so experiments
//!   double as correctness tests;
//! * [`scenario`] — composed clusters: [`scenario::traffic`], a
//!   `TrafficApp` on every node of any cluster, and its two-node case
//!   [`scenario::traffic_pair`];
//! * [`cells`] — [`cells::ScenarioSpec`], a whole scenario as plain data
//!   drawn from a seed (fabric × rails × fault plan × reliability ×
//!   workload × load, JSON in and out: madcheck's madfuzz draws it), and
//!   [`cells::safety`], the oracles every drained scenario passes;
//! * [`trace`] — workload record & replay for apples-to-apples engine
//!   comparisons.
//!
//! ```
//! use madeleine::harness::ClusterSpec;
//! use madware::apps::FlowSpec;
//! use madware::scenario::traffic_pair;
//! use madware::workload::{Arrival, SizeDist};
//! use madeleine::ids::TrafficClass;
//! use simnet::{NodeId, SimDuration};
//!
//! // Two flows of verified traffic through the optimizing engine.
//! let spec = FlowSpec {
//!     dst: NodeId(1),
//!     class: TrafficClass::DEFAULT,
//!     arrival: Arrival::Poisson(SimDuration::from_micros(5)),
//!     sizes: SizeDist::Uniform(32, 256),
//!     express_header: 8,
//!     body_frags: SizeDist::Fixed(1),
//!     reply: None,
//!     stop_after: Some(20),
//!     start_after: SimDuration::ZERO,
//! };
//! let (mut cluster, _tx, rx) =
//!     traffic_pair(&ClusterSpec::mx_pair(), vec![spec.clone(), spec], 1);
//! cluster.drain();
//! assert_eq!(rx.borrow().received, 40);
//! assert!(rx.borrow().integrity.all_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod cells;
pub mod coll;
pub mod scenario;
pub mod trace;
pub mod verify;
pub mod workload;

pub use apps::{AppStats, FlowSpec, Reply, StatsHandle, TrafficApp};
pub use verify::{check_message, pattern, IntegrityChecker};
pub use workload::{rng_for, Arrival, SizeDist};
