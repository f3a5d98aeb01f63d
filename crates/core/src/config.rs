//! Engine configuration: every tunable the paper discusses or announces as
//! future work is an explicit knob here, so the experiment harness can sweep
//! them (lookahead window — E4; rearrangement budget — E5; Nagle delay — E3;
//! strategy toggles — ablations). Three things are deliberately *not*
//! knobs of their own: how many chunks a packet carries — the rail's packet
//! size and the window end it (`cost::packet_limit`, `lookahead_window`);
//! how a packet is injected — by copy or as a gather list — which is priced
//! per packet by the rail's cost model (`cost::cheapest_injection`;
//! `enable_gather` only takes the gather side away, for E10's and E11's
//! forced-copy arm); and "no rendezvous", which is
//! `rndv_threshold: Some(u64::MAX)`.

use simnet::SimDuration;

use crate::flowmgr::{AdmissionConfig, FairnessMode};
use crate::reliability::ReliabilityMode;

/// Configuration of the optimizing engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum backlog chunks the optimizer examines per selection pass —
    /// the "packet lookahead window" whose sizing the paper lists as
    /// future work (§4). It counts *data*: byte ranges a packet could
    /// carry. A fragment still waiting to ask for its rendezvous is
    /// offered beside the window, at most
    /// [`crate::plan::MAX_REQS_PER_DST`] per destination, and takes no
    /// slot — however many requests are parked in the backlog, the window
    /// holds this many candidates to aggregate (E4's second table). With
    /// the rail's packet size it is what ends a packet of small messages,
    /// and it bounds a selection pass's host time: the default is as wide
    /// as the score keeps that cost per chunk sent flat (E4).
    pub lookahead_window: usize,
    /// Maximum candidate plans the optimizer *scores* per activation — the
    /// bound on "the number of data rearrangements the optimizer has to
    /// evaluate" (§4).
    pub rearrange_budget: usize,
    /// Nagle-style artificial delay applied when a submission finds an idle
    /// NIC and a small backlog (§3). Zero disables the delay: packets are
    /// sent as they become available.
    pub nagle_delay: SimDuration,
    /// Eager→rendezvous switch point in bytes; `None` uses the driver's
    /// capability hint per rail, `Some(u64::MAX)` turns the rendezvous
    /// protocol off.
    pub rndv_threshold: Option<u64>,
    /// Enable the cross-flow eager aggregation strategy.
    pub enable_aggregation: bool,
    /// Enable the shortest-message-first reordering strategy.
    pub enable_reorder: bool,
    /// Let the cost model choose between a zero-copy gather list and a
    /// copy for every packet (else every multi-chunk packet is linearized
    /// by copy). Read in one place: `cost::cheapest_injection`.
    pub enable_gather: bool,
    /// Record every delivered message in the engine handle (tests and
    /// examples want them; long benches turn this off).
    pub record_deliveries: bool,
    /// Reliability mode (madrel): off (completion = injection, the paper's
    /// lossless assumption) or recover (ack/retransmit with rail-health
    /// rerouting, and what no live rail can carry counted in `lost_msgs`).
    pub reliability: ReliabilityMode,
    /// The *initial* margin a rail's timeouts add to a packet's modelled
    /// flight (propagation, receive, the ack's way back), before any ack
    /// has been heard; madrel learns the margin from there
    /// (`reliability::RtoMargin`). Timeouts double per attempt.
    pub retransmit_timeout: SimDuration,
    /// Transmissions of one data packet (or rendezvous request) on a rail
    /// before the rail is declared dead — if it has been silent since the
    /// last of them left — and what it carried is rerouted (or abandoned
    /// when no live rail remains). A rail that still answers others is
    /// asked again beyond the budget.
    pub retry_budget: u32,
    /// madflow flow-iteration order for candidate collection: pack order
    /// (historical, default) or weighted deficit round robin, granting
    /// each flow visit [`crate::flowmgr::DRR_QUANTUM`] bytes.
    pub fairness: FairnessMode,
    /// madflow admission control budgets; the default is unlimited
    /// (admission disabled, `send` never blocks).
    pub admission: AdmissionConfig,
    /// React to fabric ECN marks (madnet): echoed congestion bits feed a
    /// per-rail EWMA that inflates `cost_penalty()`, steering multi-rail
    /// splitting and rendezvous gating away from loaded links. When false
    /// the engine still *counts* marks (observability) but scoring stays
    /// congestion-blind — the E14 baseline.
    pub congestion_aware: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lookahead_window: 256,
            rearrange_budget: 256,
            nagle_delay: SimDuration::ZERO,
            rndv_threshold: None,
            enable_aggregation: true,
            enable_reorder: true,
            enable_gather: true,
            record_deliveries: true,
            reliability: ReliabilityMode::Off,
            retransmit_timeout: SimDuration::from_micros(50),
            retry_budget: 6,
            fairness: FairnessMode::PackOrder,
            admission: AdmissionConfig::default(),
            congestion_aware: true,
        }
    }
}

impl EngineConfig {
    /// A configuration with every optimization disabled except the FIFO
    /// fallback — the optimizer degenerates to a plain send-as-submitted
    /// library (useful as an ablation mid-point between the legacy engine
    /// and the full optimizer).
    pub fn fifo_only() -> Self {
        EngineConfig {
            enable_aggregation: false,
            enable_reorder: false,
            rndv_threshold: Some(u64::MAX),
            enable_gather: false,
            ..Self::default()
        }
    }

    /// Builder-style setter for the lookahead window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.lookahead_window = window;
        self
    }

    /// Builder-style setter for the rearrangement budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.rearrange_budget = budget;
        self
    }

    /// Builder-style setter for the Nagle delay.
    pub fn with_nagle(mut self, delay: SimDuration) -> Self {
        self.nagle_delay = delay;
        self
    }

    /// Validate ranges; called by engine constructors.
    pub fn validate(&self) -> Result<(), String> {
        if self.lookahead_window == 0 {
            return Err("lookahead_window must be >= 1".into());
        }
        if self.rearrange_budget == 0 {
            return Err("rearrange_budget must be >= 1".into());
        }
        if self.reliability != ReliabilityMode::Off {
            if self.retransmit_timeout.is_zero() {
                return Err("retransmit_timeout must be > 0 when reliability is on".into());
            }
            if self.retry_budget == 0 {
                return Err("retry_budget must be >= 1 when reliability is on".into());
            }
        }
        if self.admission.max_backlog_bytes == 0 || self.admission.class_backlog_bytes.contains(&0)
        {
            return Err("admission budgets must be >= 1 (0 admits nothing)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_everything_enabled() {
        let c = EngineConfig::default();
        assert!(c.validate().is_ok());
        assert!(c.enable_aggregation && c.enable_reorder);
        assert!(
            c.nagle_delay.is_zero(),
            "paper default: send when available"
        );
    }

    #[test]
    fn fifo_only_disables_strategies() {
        let c = EngineConfig::fifo_only();
        assert!(c.validate().is_ok());
        assert!(!c.enable_aggregation && !c.enable_gather);
        assert_eq!(c.rndv_threshold, Some(u64::MAX));
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::default()
            .with_window(8)
            .with_budget(16)
            .with_nagle(SimDuration::from_micros(5));
        assert_eq!(c.lookahead_window, 8);
        assert_eq!(c.rearrange_budget, 16);
        assert_eq!(c.nagle_delay.as_nanos(), 5_000);
    }

    #[test]
    fn reliability_knobs_validated_when_enabled() {
        let mut c = EngineConfig {
            retransmit_timeout: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        assert!(c.validate().is_ok(), "off mode ignores retransmit knobs");
        c.reliability = ReliabilityMode::Recover;
        assert!(c.validate().is_err());
        c.retransmit_timeout = SimDuration::from_micros(10);
        c.retry_budget = 0;
        assert!(c.validate().is_err());
        c.retry_budget = 4;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn madflow_knobs_validated() {
        let mut c = EngineConfig::default();
        assert!(c.validate().is_ok(), "madflow defaults are off/unlimited");
        c.fairness = FairnessMode::Drr;
        assert!(c.validate().is_ok());
        c.admission.class_backlog_bytes[2] = 0;
        assert!(c.validate().is_err(), "zero budget admits nothing");
        c.admission.class_backlog_bytes[2] = 1 << 16;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        assert!(EngineConfig::default().with_window(0).validate().is_err());
        assert!(EngineConfig::default().with_budget(0).validate().is_err());
    }
}
