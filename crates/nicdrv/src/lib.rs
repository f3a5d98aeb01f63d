//! # nicdrv — network driver abstraction layer
//!
//! The **transfer layer** of the paper's Figure 1: per-technology NIC driver
//! models over the `simnet` substrate, each exposing
//!
//! * a [`DriverCapabilities`] descriptor — the limits that *parameterize*
//!   the optimizer's strategies (gather entries, PIO size, packet size,
//!   virtual channels, rendezvous hints);
//! * a [`CostModel`] — analytic per-transfer cost estimates used to value
//!   candidate packet rearrangements;
//! * strict request validation: a plan exceeding capabilities is an error,
//!   never silently accepted — [`conformance::check_driver`] probes any
//!   driver's acceptance boundary against its declared capabilities.
//!
//! Five technologies are calibrated to 2006-era hardware: [`mx`]
//! (Myrinet/MX — the paper's beta platform), [`elan`] (Quadrics QsNetII),
//! [`ib`] (InfiniBand 4x), [`tcp`] (GigE), and [`shm`] (intra-node).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calib;
pub mod caps;
pub mod conformance;
pub mod cost;
pub mod driver;
pub mod elan;
pub mod ib;
pub mod mx;
pub mod request;
pub mod shm;
pub mod tcp;
pub mod virt;

pub use caps::DriverCapabilities;
pub use cost::CostModel;
pub use driver::{Driver, SimDriver};
pub use request::{DriverError, ModeSel, TransferRequest};
pub use virt::VChannelPool;
