//! Driver conformance checking: exercises a [`SimDriver`] against its own
//! declared [`DriverCapabilities`](crate::DriverCapabilities) and reports
//! every inconsistency.
//!
//! The engine's correctness argument rests on drivers being *strict*:
//! accept exactly what the capabilities promise, inject in the mode
//! [`injection_mode`] picks, reject everything else with a precise error.
//! This suite probes the acceptance boundary from both sides — at the
//! limits, one past the limits — for PIO size, gather width, packet size
//! and virtual channels, every probe a plain request whose mode the driver
//! chooses. Run it against the built-in technology models (tested here)
//! or against a driver of your own capabilities and parameters:
//!
//! ```
//! use nicdrv::conformance::check_driver;
//! use simnet::{Simulation, Technology};
//!
//! let mut sim = Simulation::new();
//! let net = sim.add_network(nicdrv::calib::params(Technology::MyrinetMx));
//! let a = sim.add_node();
//! let b = sim.add_node();
//! let na = sim.add_nic(a, net);
//! let nb = sim.add_nic(b, net);
//! let driver = nicdrv::calib::driver(Technology::MyrinetMx, na);
//! let report = check_driver(&mut sim, a, nb, &driver);
//! assert!(report.is_conformant(), "{}", report);
//! ```

use bytes::Bytes;
use simnet::{NicId, NodeId, SimDuration, SimTime, Simulation, TxMode};

use crate::driver::{injection_mode, SimDriver};
use crate::request::{DriverError, TransferRequest};

/// Outcome of a conformance run.
#[derive(Clone, Debug, Default)]
pub struct ConformanceReport {
    /// Probes executed.
    pub probes: u32,
    /// Descriptions of violations found.
    pub violations: Vec<String>,
}

impl ConformanceReport {
    /// True when no violations were found.
    pub fn is_conformant(&self) -> bool {
        self.violations.is_empty()
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.probes += 1;
        if !ok {
            self.violations.push(what.to_string());
        }
    }
}

impl std::fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_conformant() {
            write!(f, "conformant ({} probes)", self.probes)
        } else {
            writeln!(
                f,
                "{} violations in {} probes:",
                self.violations.len(),
                self.probes
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// `n` segments of `bytes` bytes in all (at least one byte each).
fn segments(n: usize, bytes: u64) -> Vec<Bytes> {
    let (each, extra) = (bytes as usize / n, bytes as usize % n);
    (0..n)
        .map(|i| Bytes::from(vec![i as u8; (each + usize::from(i < extra)).max(1)]))
        .collect()
}

/// Probe `driver` (attached to a NIC of `src_node` in `sim`) against its
/// declared capabilities, sending toward `dst_nic`. The simulation is
/// drained after every probe so hardware-queue state never perturbs
/// results.
pub fn check_driver(
    sim: &mut Simulation,
    src_node: NodeId,
    dst_nic: NicId,
    driver: &SimDriver,
) -> ConformanceReport {
    let caps = driver.capabilities().clone();
    let mut report = ConformanceReport::default();

    // Capabilities themselves must be self-consistent.
    report.check(caps.validate().is_ok(), "capabilities fail self-validation");

    // Submit `segs` segments of `bytes` in all on `vchan`; the outcome
    // must be `want`.
    let mut probe = |bytes: u64, segs: usize, vchan: u8, want, what: &str| {
        let req = TransferRequest {
            dst_nic,
            vchan,
            kind: 1,
            cookie: 0,
            host_prep: SimDuration::ZERO,
            segments: segments(segs, bytes),
        };
        let got = sim.inject(src_node, |ctx| driver.submit(ctx, req));
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        report.check(got == want, what);
    };
    let refused = |len: u64, segments| Err(DriverError::NotInjectable { len, segments });
    // What the rule says of a one-segment request of `bytes`.
    let cost = driver.cost_model();
    let rule = |bytes| match injection_mode(&caps, cost, bytes, 1) {
        Some((mode, _)) => Ok(mode),
        None => refused(bytes, 1),
    };

    // A gather list one entry wider than a DMA descriptor takes leaves
    // PIO alone: accepted as PIO up to the PIO cap, refused one past it…
    let wide = caps.max_gather_entries + 1;
    let pio_at = caps
        .pio_max_bytes
        .min(caps.max_packet_bytes)
        .max(wide as u64);
    if caps.supports_pio {
        let what = "PIO at pio_max_bytes not injected as PIO";
        probe(pio_at, wide, 0, Ok(TxMode::Pio), what);
    }
    // …and past the PIO cap DMA alone decides: accepted as DMA at the
    // gather width, refused one past it (when distinguishable from the
    // overall packet limit).
    let past_pio = (caps.pio_max_bytes + 1).max(wide as u64);
    if past_pio <= caps.max_packet_bytes {
        let what = "a request past the PIO cap, one past max_gather_entries, \
                    not rejected as NotInjectable";
        probe(past_pio, wide, 0, refused(past_pio, wide), what);
        let (at, want) = if caps.supports_dma {
            (caps.max_gather_entries, Ok(TxMode::Dma))
        } else {
            (1, refused(past_pio, 1))
        };
        let what = "a request past the PIO cap at max_gather_entries not injected as DMA \
                    (or, without DMA, not rejected as NotInjectable)";
        probe(past_pio, at, 0, want, what);
    }

    // Packet size limit.
    let over = caps.max_packet_bytes + 1;
    let too_large = Err(DriverError::TooLarge {
        len: over,
        max: caps.max_packet_bytes,
    });
    let what = "request one past max_packet_bytes not rejected as TooLarge";
    probe(over, 1, 0, too_large, what);

    // Virtual channel range: highest valid accepted, first invalid rejected.
    let top = caps.vchannels - 1;
    probe(8, 1, top, rule(8), "highest virtual channel rejected");
    let out_of_range = Err(DriverError::VChannelOutOfRange {
        got: caps.vchannels,
        max: caps.vchannels,
    });
    let what = "virtual channel == vchannels not rejected";
    probe(8, 1, caps.vchannels, out_of_range, what);

    // In-range sizes go out in the mode the rule picks.
    for bytes in [1, 64, 1024, caps.max_packet_bytes.min(16 << 10)] {
        let want = rule(bytes);
        let what = format!("{bytes}-byte request's outcome differs from the rule's {want:?}");
        probe(bytes, 1, 0, want, &what);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use simnet::Technology;

    fn harness(tech: Technology) -> (Simulation, NodeId, NicId, crate::SimDriver) {
        let mut sim = Simulation::new();
        let net = sim.add_network(calib::params(tech));
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        (sim, a, nb, calib::driver(tech, na))
    }

    #[test]
    fn all_builtin_drivers_conform() {
        for tech in calib::REAL_TECHNOLOGIES {
            let (mut sim, a, nb, driver) = harness(tech);
            let report = check_driver(&mut sim, a, nb, &driver);
            assert!(report.is_conformant(), "{tech:?}: {report}");
            assert!(
                report.probes >= 8,
                "{tech:?}: too few probes ({})",
                report.probes
            );
        }
    }

    #[test]
    fn report_formats_violations() {
        let mut r = ConformanceReport::default();
        r.check(true, "fine");
        r.check(false, "bad thing");
        assert!(!r.is_conformant());
        let s = r.to_string();
        assert!(s.contains("1 violations in 2 probes"));
        assert!(s.contains("bad thing"));
    }
}
