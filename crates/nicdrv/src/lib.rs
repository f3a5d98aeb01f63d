//! # nicdrv — network driver abstraction layer
//!
//! The **transfer layer** of the paper's Figure 1: per-technology NIC driver
//! models over the `simnet` substrate, each exposing
//!
//! * a [`DriverCapabilities`] descriptor — the limits that *parameterize*
//!   the optimizer's strategies (gather entries, PIO size, packet size,
//!   virtual channels, rendezvous hints);
//! * a [`CostModel`] — analytic per-transfer cost estimates used to value
//!   candidate packet rearrangements: the NIC's own
//!   [`NetworkParams`](simnet::NetworkParams), priced by the times the
//!   simulated NIC runs by;
//! * the injection-mode rule: the modes the capabilities admit for a
//!   packet ([`admitted_modes`]) and the cheaper of them
//!   ([`injection_mode`]). The driver
//!   injects every packet by it and the optimizer prices every plan by it;
//! * strict request validation: a request no mode admits is an error,
//!   never silently accepted — [`conformance::check_driver`] probes a
//!   driver's acceptance boundary against its declared capabilities.
//!
//! Five technologies are calibrated to 2006-era hardware: [`mx`]
//! (Myrinet/MX — the paper's beta platform), [`elan`] (Quadrics QsNetII),
//! [`ib`] (InfiniBand 4x), [`tcp`] (GigE), and [`shm`] (intra-node);
//! [`calib::driver`] builds the one driver, [`SimDriver`], for any of them.

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

pub use caps::DriverCapabilities;
pub use cost::CostModel;
pub use driver::{admitted_modes, injection_mode, SimDriver};
pub use request::{DriverError, TransferRequest};
