//! Driver conformance checking: exercises any [`Driver`] implementation
//! against its own declared [`DriverCapabilities`](crate::DriverCapabilities) and reports every
//! inconsistency.
//!
//! The engine's correctness argument rests on drivers being *strict*:
//! accept exactly what the capabilities promise, reject everything else
//! with a precise error. This suite probes the acceptance boundary from
//! both sides — at the limits, one past the limits — for PIO size, gather
//! width, packet size and virtual channels. Run it against the built-in
//! technology models (tested here) or against your own driver:
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
use simnet::{NicId, NodeId, SimDuration, Simulation};

use crate::driver::Driver;
use crate::request::{DriverError, ModeSel, TransferRequest};

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

fn segments(n: usize, each: usize) -> Vec<Bytes> {
    (0..n)
        .map(|i| Bytes::from(vec![i as u8; each.max(1)]))
        .collect()
}

fn req(dst: NicId, mode: ModeSel, segs: Vec<Bytes>, vchan: u8) -> TransferRequest {
    TransferRequest {
        dst_nic: dst,
        vchan,
        kind: 1,
        cookie: 0,
        mode,
        host_prep: SimDuration::ZERO,
        segments: segs,
    }
}

/// Probe `driver` (attached to a NIC of `src_node` in `sim`) against its
/// declared capabilities, sending toward `dst_nic`. The simulation is
/// drained between probes so hardware-queue state never perturbs results.
pub fn check_driver(
    sim: &mut Simulation,
    src_node: NodeId,
    dst_nic: NicId,
    driver: &dyn Driver,
) -> ConformanceReport {
    let caps = driver.capabilities().clone();
    let mut report = ConformanceReport::default();
    let drain = |sim: &mut Simulation| {
        sim.run_until_quiescent(simnet::SimTime::from_nanos(u64::MAX / 2));
    };

    // Capabilities themselves must be self-consistent.
    report.check(caps.validate().is_ok(), "capabilities fail self-validation");

    if caps.supports_pio {
        // PIO at the limit is accepted…
        let at = sim.inject(src_node, |ctx| {
            driver.submit(
                ctx,
                req(
                    dst_nic,
                    ModeSel::Pio,
                    segments(1, caps.pio_max_bytes.min(caps.max_packet_bytes) as usize),
                    0,
                ),
            )
        });
        report.check(at.is_ok(), "PIO at pio_max_bytes rejected");
        drain(sim);
        // …one past is rejected with the right error (when distinguishable
        // from the overall packet limit).
        if caps.pio_max_bytes < caps.max_packet_bytes {
            let over = sim.inject(src_node, |ctx| {
                driver.submit(
                    ctx,
                    req(
                        dst_nic,
                        ModeSel::Pio,
                        segments(1, caps.pio_max_bytes as usize + 1),
                        0,
                    ),
                )
            });
            report.check(
                matches!(over, Err(DriverError::PioTooLarge { .. })),
                "PIO one past pio_max_bytes not rejected as PioTooLarge",
            );
            drain(sim);
        }
    } else {
        let r = sim.inject(src_node, |ctx| {
            driver.submit(ctx, req(dst_nic, ModeSel::Pio, segments(1, 8), 0))
        });
        report.check(
            matches!(r, Err(DriverError::ModeUnsupported(_))),
            "PIO unsupported but forced PIO not rejected",
        );
    }

    if caps.supports_dma {
        let at = sim.inject(src_node, |ctx| {
            driver.submit(
                ctx,
                req(
                    dst_nic,
                    ModeSel::Dma,
                    segments(caps.max_gather_entries, 8),
                    0,
                ),
            )
        });
        report.check(at.is_ok(), "DMA at max_gather_entries rejected");
        drain(sim);
        let over = sim.inject(src_node, |ctx| {
            driver.submit(
                ctx,
                req(
                    dst_nic,
                    ModeSel::Dma,
                    segments(caps.max_gather_entries + 1, 8),
                    0,
                ),
            )
        });
        report.check(
            matches!(over, Err(DriverError::TooManySegments { .. })),
            "gather one past max_gather_entries not rejected as TooManySegments",
        );
        drain(sim);
    } else {
        let r = sim.inject(src_node, |ctx| {
            driver.submit(ctx, req(dst_nic, ModeSel::Dma, segments(1, 8), 0))
        });
        report.check(
            matches!(r, Err(DriverError::ModeUnsupported(_))),
            "DMA unsupported but forced DMA not rejected",
        );
    }

    // Packet size limit.
    let over = sim.inject(src_node, |ctx| {
        driver.submit(
            ctx,
            req(
                dst_nic,
                ModeSel::Auto,
                segments(1, caps.max_packet_bytes as usize + 1),
                0,
            ),
        )
    });
    report.check(
        matches!(over, Err(DriverError::TooLarge { .. })),
        "request one past max_packet_bytes not rejected as TooLarge",
    );
    drain(sim);

    // Virtual channel range: highest valid accepted, first invalid rejected.
    let top = sim.inject(src_node, |ctx| {
        driver.submit(
            ctx,
            req(dst_nic, ModeSel::Auto, segments(1, 8), caps.vchannels - 1),
        )
    });
    report.check(top.is_ok(), "highest virtual channel rejected");
    drain(sim);
    let over = sim.inject(src_node, |ctx| {
        driver.submit(
            ctx,
            req(dst_nic, ModeSel::Auto, segments(1, 8), caps.vchannels),
        )
    });
    report.check(
        matches!(over, Err(DriverError::VChannelOutOfRange { .. })),
        "virtual channel == vchannels not rejected",
    );
    drain(sim);

    // Auto mode must always pick something executable for in-range sizes.
    for bytes in [
        1usize,
        64,
        1024,
        caps.max_packet_bytes.min(16 << 10) as usize,
    ] {
        let r = sim.inject(src_node, |ctx| {
            driver.submit(ctx, req(dst_nic, ModeSel::Auto, segments(1, bytes), 0))
        });
        report.check(
            r.is_ok(),
            &format!("Auto mode rejected in-range {bytes}-byte request"),
        );
        drain(sim);
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
