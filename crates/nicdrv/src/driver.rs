//! The [`Driver`] trait (Figure 1's transfer layer) and the generic
//! simulator-backed implementation shared by all technology models.

use simnet::{NicId, SimCtx, TxMode, TxRequest};

use crate::caps::DriverCapabilities;
use crate::cost::CostModel;
use crate::request::{DriverError, ModeSel, TransferRequest};

/// A network driver: validates requests against its capabilities and maps
/// them onto a simulated NIC.
///
/// Drivers are deliberately *thin and strict*: they do not reorder, split or
/// merge anything — that is the optimizer's job. They enforce the hardware
/// contract so an optimizer bug (a plan exceeding capabilities) surfaces as
/// an error rather than silently mis-modelled behaviour.
pub trait Driver {
    /// Hardware/driver capabilities consulted by the optimizer.
    fn capabilities(&self) -> &DriverCapabilities;
    /// Analytic cost model used to value candidate plans.
    fn cost_model(&self) -> &CostModel;
    /// The NIC this driver controls.
    fn nic(&self) -> NicId;

    /// Validate and submit one transfer.
    fn submit(&self, ctx: &mut SimCtx<'_>, req: TransferRequest) -> Result<(), DriverError>;

    /// Whether the transmit engine is fully idle.
    fn is_idle(&self, ctx: &SimCtx<'_>) -> bool {
        ctx.nic(self.nic()).is_tx_idle()
    }

    /// Free hardware queue slots.
    fn free_slots(&self, ctx: &SimCtx<'_>) -> usize {
        ctx.tx_queue_free(self.nic())
    }

    /// Pick the cheaper injection mode for a message of `bytes` in
    /// `segments` gather entries, honouring capabilities.
    fn select_mode(&self, bytes: u64, segments: usize) -> TxMode {
        let caps = self.capabilities();
        let pio_ok = caps.can_pio(bytes);
        let dma_ok = caps.can_gather(segments);
        match (pio_ok, dma_ok) {
            (true, false) => TxMode::Pio,
            (false, true) => TxMode::Dma,
            (false, false) => {
                // No mode fits as-is; prefer DMA (the library must have
                // linearized or chunked already — submit will reject if not).
                if caps.supports_dma {
                    TxMode::Dma
                } else {
                    TxMode::Pio
                }
            }
            (true, true) => {
                let m = self.cost_model();
                if m.injection_time(TxMode::Pio, bytes, segments)
                    <= m.injection_time(TxMode::Dma, bytes, segments)
                {
                    TxMode::Pio
                } else {
                    TxMode::Dma
                }
            }
        }
    }
}

/// Generic driver backed by a simulated NIC; all technology models are
/// instances of this with different capability/parameter sets.
#[derive(Clone, Debug)]
pub struct SimDriver {
    nic: NicId,
    caps: DriverCapabilities,
    cost: CostModel,
}

impl SimDriver {
    /// Build a driver for `nic` from explicit capabilities and cost model.
    ///
    /// # Panics
    /// Panics if the capabilities are internally inconsistent (see
    /// [`DriverCapabilities::validate`]); that is a construction bug, not a
    /// runtime condition.
    pub fn new(nic: NicId, caps: DriverCapabilities, cost: CostModel) -> Self {
        if let Err(e) = caps.validate() {
            panic!("invalid driver capabilities: {e}");
        }
        SimDriver { nic, caps, cost }
    }

    fn resolve_mode(&self, req: &TransferRequest) -> Result<TxMode, DriverError> {
        let len = req.len();
        let segs = req.segments.len();
        match req.mode {
            ModeSel::Pio => {
                if !self.caps.supports_pio {
                    return Err(DriverError::ModeUnsupported("PIO"));
                }
                if len > self.caps.pio_max_bytes {
                    return Err(DriverError::PioTooLarge {
                        len,
                        max: self.caps.pio_max_bytes,
                    });
                }
                Ok(TxMode::Pio)
            }
            ModeSel::Dma => {
                if !self.caps.supports_dma {
                    return Err(DriverError::ModeUnsupported("DMA"));
                }
                if segs > self.caps.max_gather_entries {
                    return Err(DriverError::TooManySegments {
                        got: segs,
                        max: self.caps.max_gather_entries,
                    });
                }
                Ok(TxMode::Dma)
            }
            ModeSel::Auto => {
                let mode = self.select_mode(len, segs);
                // Re-validate the chosen mode strictly.
                match mode {
                    TxMode::Pio if self.caps.can_pio(len) => Ok(TxMode::Pio),
                    TxMode::Dma if self.caps.can_gather(segs) => Ok(TxMode::Dma),
                    TxMode::Pio => Err(DriverError::PioTooLarge {
                        len,
                        max: self.caps.pio_max_bytes,
                    }),
                    TxMode::Dma => Err(DriverError::TooManySegments {
                        got: segs,
                        max: self.caps.max_gather_entries,
                    }),
                }
            }
        }
    }
}

impl Driver for SimDriver {
    fn capabilities(&self) -> &DriverCapabilities {
        &self.caps
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn nic(&self) -> NicId {
        self.nic
    }

    fn submit(&self, ctx: &mut SimCtx<'_>, req: TransferRequest) -> Result<(), DriverError> {
        if req.vchan >= self.caps.vchannels {
            return Err(DriverError::VChannelOutOfRange {
                got: req.vchan,
                max: self.caps.vchannels,
            });
        }
        let len = req.len();
        if len > self.caps.max_packet_bytes {
            return Err(DriverError::TooLarge {
                len,
                max: self.caps.max_packet_bytes,
            });
        }
        let mode = self.resolve_mode(&req)?;
        ctx.submit(
            self.nic,
            TxRequest {
                dst_nic: req.dst_nic,
                vchan: req.vchan,
                kind: req.kind,
                cookie: req.cookie,
                mode,
                host_prep: req.host_prep,
                payload: req.segments,
            },
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simnet::{NetworkParams, SimDuration, SimTime, Simulation, Technology};

    fn caps() -> DriverCapabilities {
        DriverCapabilities {
            tech: Technology::Synthetic,
            supports_pio: true,
            supports_dma: true,
            pio_max_bytes: 1024,
            max_gather_entries: 4,
            max_packet_bytes: 1 << 16,
            vchannels: 2,
            tx_queue_depth: 4,
            rndv_threshold_hint: 32 << 10,
        }
    }

    fn fixture() -> (Simulation, SimDriver, NicId) {
        let mut sim = Simulation::new();
        let net = sim.add_network(NetworkParams::synthetic());
        let a = sim.add_node();
        let b = sim.add_node();
        let na = sim.add_nic(a, net);
        let nb = sim.add_nic(b, net);
        let cost = CostModel::from_params(sim.network_params(net));
        (sim, SimDriver::new(na, caps(), cost), nb)
    }

    fn req(dst: NicId, mode: ModeSel, seg_sizes: &[usize]) -> TransferRequest {
        TransferRequest {
            dst_nic: dst,
            vchan: 0,
            kind: 0,
            cookie: 0,
            mode,
            host_prep: SimDuration::ZERO,
            segments: seg_sizes
                .iter()
                .map(|&n| Bytes::from(vec![7u8; n]))
                .collect(),
        }
    }

    #[test]
    fn auto_mode_picks_pio_for_small_dma_for_large() {
        let (_sim, drv, _) = fixture();
        assert_eq!(drv.select_mode(64, 1), TxMode::Pio);
        // 1024+ can't PIO (cap), and even below crossover large messages
        // favour DMA on the synthetic params.
        assert_eq!(drv.select_mode(100_000, 1), TxMode::Dma);
    }

    #[test]
    fn forced_pio_rejected_when_too_large() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let r = sim.inject(a, |ctx| drv.submit(ctx, req(dst, ModeSel::Pio, &[2048])));
        assert_eq!(
            r,
            Err(DriverError::PioTooLarge {
                len: 2048,
                max: 1024
            })
        );
    }

    #[test]
    fn gather_limit_enforced() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let r = sim.inject(a, |ctx| {
            drv.submit(ctx, req(dst, ModeSel::Dma, &[8, 8, 8, 8, 8]))
        });
        assert_eq!(r, Err(DriverError::TooManySegments { got: 5, max: 4 }));
    }

    #[test]
    fn vchannel_range_enforced() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let mut rq = req(dst, ModeSel::Auto, &[8]);
        rq.vchan = 2;
        let r = sim.inject(a, |ctx| drv.submit(ctx, rq));
        assert_eq!(r, Err(DriverError::VChannelOutOfRange { got: 2, max: 2 }));
    }

    #[test]
    fn max_packet_enforced_before_mode_resolution() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let r = sim.inject(a, |ctx| drv.submit(ctx, req(dst, ModeSel::Dma, &[1 << 17])));
        assert_eq!(
            r,
            Err(DriverError::TooLarge {
                len: 1 << 17,
                max: 1 << 16
            })
        );
    }

    #[test]
    fn valid_submit_reaches_the_wire() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        sim.inject(a, |ctx| drv.submit(ctx, req(dst, ModeSel::Auto, &[100])))
            .unwrap();
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(sim.nic(dst).stats.rx_packets, 1);
        assert_eq!(sim.nic(dst).stats.rx_payload_bytes, 100);
    }

    #[test]
    fn queue_full_surfaces_as_nic_error() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let results: Vec<_> = sim.inject(a, |ctx| {
            (0..6)
                .map(|_| drv.submit(ctx, req(dst, ModeSel::Auto, &[8])))
                .collect()
        });
        assert!(results[..4].iter().all(|r| r.is_ok()));
        assert!(matches!(
            results[4],
            Err(DriverError::Nic(simnet::SubmitError::QueueFull))
        ));
    }

    #[test]
    #[should_panic(expected = "invalid driver capabilities")]
    fn inconsistent_caps_panic_at_construction() {
        let mut c = caps();
        c.supports_pio = false;
        c.supports_dma = false;
        let p = NetworkParams::synthetic();
        let _ = SimDriver::new(NicId(0), c, CostModel::from_params(&p));
    }
}
