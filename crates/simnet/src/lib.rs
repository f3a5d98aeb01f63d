//! # simnet — deterministic discrete-event simulation of high-speed cluster networks
//!
//! This crate is the hardware substrate for the `madeleine` communication
//! optimization engine (HPDC'06 reproduction). It models, with virtual
//! nanosecond time:
//!
//! * **NICs** with a serial transmit engine (PIO and DMA injection modes,
//!   gather lists, bounded hardware queues) that report **idle transitions** —
//!   the event that activates the paper's packet scheduler;
//! * **network fabrics** parameterized per technology (latency, wire
//!   bandwidth, per-packet framing, MTU, PIO/DMA costs, receive costs);
//! * **nodes** running an [`Endpoint`] — the software stack under test;
//! * timers, activity tracing, and measurement primitives.
//!
//! Everything is deterministic: integer time, seeded RNGs, stable event
//! ordering. Two runs of the same program produce identical traces.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulation, NetworkParams, Endpoint, SimCtx, NicId, TxRequest, TxMode, SimTime};
//! use bytes::Bytes;
//!
//! struct Pinger { peer: NicId, nic: NicId }
//! impl Endpoint for Pinger {
//!     fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
//!         ctx.submit(self.nic, TxRequest {
//!             dst_nic: self.peer, vchan: 0, kind: 1, cookie: 0,
//!             mode: TxMode::Pio, host_prep: simnet::SimDuration::ZERO,
//!             payload: vec![Bytes::from_static(b"ping")],
//!         }).unwrap();
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let net = sim.add_network(NetworkParams::synthetic());
//! let (a, b) = (sim.add_node(), sim.add_node());
//! let (na, nb) = (sim.add_nic(a, net), sim.add_nic(b, net));
//! sim.set_endpoint(a, Box::new(Pinger { peer: nb, nic: na }));
//! sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
//! assert_eq!(sim.nic(nb).stats.rx_packets, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod event;
pub mod fault;
pub mod link;
pub mod nic;
pub mod packet;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topo;
pub mod trace;

pub use engine::{Endpoint, NetworkId, NicId, NodeId, SimCtx, Simulation};
pub use event::TimerId;
pub use fault::{FaultOutcome, FaultPlan, FaultState, LossBurst, StallWindow};
pub use link::{NetworkParams, Technology};
pub use nic::{NicState, NicStats};
pub use packet::{SubmitError, TxMode, TxRequest, VChannel, WirePacket};
pub use rng::SplitMix64;
pub use stats::{Summary, Utilization};
pub use time::{transfer_time, SimDuration, SimTime};
pub use topo::{
    flow_hash, max_min_rates, FabricState, Link, LinkProfile, LinkStats, Topology, Vertex,
    WaterFill,
};
pub use trace::{Ring, Stamped, Trace, TraceEvent, TraceRecord};
