//! The driver (Figure 1's transfer layer): the injection-mode rule, and
//! [`SimDriver`], the simulator-backed driver every technology model is
//! an instance of.
//!
//! [`admitted_modes`] and [`injection_mode`] are the one statement of how
//! a packet goes onto the wire: the modes the capabilities admit, and the
//! cheaper of them by the cost model. The driver injects by it and the optimizer prices every
//! plan by it, so the two cannot disagree.

use simnet::{NicId, SimCtx, SimDuration, TxMode, TxRequest};

use crate::caps::DriverCapabilities;
use crate::cost::CostModel;
use crate::request::{DriverError, TransferRequest};

/// The modes `caps` admits for a packet of `bytes` in `segments` gather
/// entries: PIO up to its size cap, whatever the segments (it streams
/// them); DMA with a gather entry per segment.
pub fn admitted_modes(
    caps: &DriverCapabilities,
    bytes: u64,
    segments: usize,
) -> impl Iterator<Item = TxMode> {
    let modes = [
        (TxMode::Pio, caps.can_pio(bytes)),
        (TxMode::Dma, caps.can_gather(segments)),
    ];
    modes
        .into_iter()
        .filter_map(|(mode, ok)| ok.then_some(mode))
}

/// The mode a packet of `bytes` in `segments` gather entries is injected
/// in, with the time it occupies the transmit engine: the cheaper of the
/// [`admitted_modes`], PIO on a tie; `None` when neither is admitted.
pub fn injection_mode(
    caps: &DriverCapabilities,
    cost: &CostModel,
    bytes: u64,
    segments: usize,
) -> Option<(TxMode, SimDuration)> {
    admitted_modes(caps, bytes, segments)
        .map(|mode| (mode, cost.injection_time(mode, bytes, segments)))
        .min_by_key(|&(_, busy)| busy)
}

/// A network driver: validates requests against its capabilities and maps
/// them onto a simulated NIC. Every technology model is one of these with
/// its own capability and parameter set.
///
/// A driver is deliberately *thin and strict*: it does not reorder, split
/// or merge anything — that is the optimizer's job. It enforces the
/// hardware contract so an optimizer bug (a plan exceeding capabilities)
/// surfaces as an error rather than silently mis-modelled behaviour.
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

    /// Hardware/driver capabilities consulted by the optimizer.
    pub fn capabilities(&self) -> &DriverCapabilities {
        &self.caps
    }

    /// Analytic cost model used to value candidate plans.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The NIC this driver controls.
    pub fn nic(&self) -> NicId {
        self.nic
    }

    /// Whether the transmit engine is fully idle.
    pub fn is_idle(&self, ctx: &SimCtx<'_>) -> bool {
        ctx.nic(self.nic).is_tx_idle()
    }

    /// Free hardware queue slots.
    pub fn free_slots(&self, ctx: &SimCtx<'_>) -> usize {
        ctx.tx_queue_free(self.nic)
    }

    /// Validate and submit one transfer; accepted, the mode it is
    /// injected in ([`injection_mode`]).
    pub fn submit(
        &self,
        ctx: &mut SimCtx<'_>,
        req: TransferRequest,
    ) -> Result<TxMode, DriverError> {
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
        let segments = req.segments.len();
        let (mode, _) = injection_mode(&self.caps, &self.cost, len, segments)
            .ok_or(DriverError::NotInjectable { len, segments })?;
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
        Ok(mode)
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

    fn req(dst: NicId, seg_sizes: &[usize]) -> TransferRequest {
        TransferRequest {
            dst_nic: dst,
            vchan: 0,
            kind: 0,
            cookie: 0,
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
        let mode = |bytes, segs| injection_mode(&drv.caps, &drv.cost, bytes, segs).map(|m| m.0);
        assert_eq!(mode(64, 1), Some(TxMode::Pio));
        // 1024+ can't PIO (cap), and even below crossover large messages
        // favour DMA on the synthetic params.
        assert_eq!(mode(100_000, 1), Some(TxMode::Dma));
        // Past the gather width only PIO is left; past both, nothing.
        assert_eq!(mode(1024, 5), Some(TxMode::Pio));
        assert_eq!(mode(1025, 5), None);
    }

    #[test]
    fn a_wide_gather_goes_pio() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let r = sim.inject(a, |ctx| drv.submit(ctx, req(dst, &[8, 8, 8, 8, 8])));
        assert_eq!(r, Ok(TxMode::Pio));
    }

    #[test]
    fn gather_limit_enforced() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        // Five segments: past the gather width, and too long for PIO.
        let r = sim.inject(a, |ctx| {
            drv.submit(ctx, req(dst, &[512, 512, 512, 512, 512]))
        });
        assert_eq!(
            r,
            Err(DriverError::NotInjectable {
                len: 2560,
                segments: 5
            })
        );
    }

    #[test]
    fn vchannel_range_enforced() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let mut rq = req(dst, &[8]);
        rq.vchan = 2;
        let r = sim.inject(a, |ctx| drv.submit(ctx, rq));
        assert_eq!(r, Err(DriverError::VChannelOutOfRange { got: 2, max: 2 }));
    }

    #[test]
    fn max_packet_enforced_before_mode_resolution() {
        let (mut sim, drv, dst) = fixture();
        let a = sim.nic(drv.nic()).node;
        let r = sim.inject(a, |ctx| drv.submit(ctx, req(dst, &[1 << 17])));
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
        sim.inject(a, |ctx| drv.submit(ctx, req(dst, &[100])))
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
            (0..6).map(|_| drv.submit(ctx, req(dst, &[8]))).collect()
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
