//! Conformance rule for the strategy applicability mask.
//!
//! [`DriverCapabilities::strategy_mask`] is an *analytic claim*: given
//! only the capability descriptor, it names the strategies that can ever
//! produce a driver-acceptable plan. The optimizer trusts the claim — a
//! masked-out strategy is skipped before the proposal sweep — so a wrong
//! mask either changes plan selection (a bit cleared that should be set
//! never gets that wrong: the skipped strategy had valid plans) or keeps
//! dead weight in the sweep (a bit set that never fires).
//!
//! This module re-derives the claim empirically, per capability profile,
//! by replaying the same bounded backlog corpus the conformance analyzer
//! uses through the **unmasked** sweep:
//!
//! * **soundness** — a strategy outside the effective mask must emit
//!   zero valid plans across the whole corpus; otherwise the mask filter
//!   would have removed a real contender and selection would differ;
//! * **completeness** — a strategy inside the mask must emit at least
//!   one valid plan somewhere in the corpus; otherwise the bit (or the
//!   corpus) is vacuous and the claim is untested.
//!
//! Custom (user-registered) strategies have no mask bit; the mask makes
//! no claim about them and the sweep always consults them, so they are
//! skipped here.

use madeleine::config::EngineConfig;
use madeleine::strategy::{effective_strategy_mask, StrategyMask, StrategyRegistry};
use nicdrv::{calib, CostModel};
use simnet::Technology;

use crate::analyzer::{check_spec, effective_rndv_threshold, profiles, AnalyzeOptions};
use crate::corpus::corpus;
use crate::report::SweepReport;

/// One mask/sweep disagreement.
#[derive(Clone, Debug)]
pub struct MaskFinding {
    /// Capability profile the disagreement occurred on.
    pub tech: Technology,
    /// The strategy whose bit is wrong.
    pub strategy: &'static str,
    /// Whether the effective mask claims the strategy applicable.
    pub masked_in: bool,
    /// Valid plans the unmasked sweep observed over the corpus.
    pub valid_plans: usize,
}

impl std::fmt::Display for MaskFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.masked_in {
            write!(
                f,
                "{:?}: mask claims `{}` applicable but the sweep produced no valid plan \
                 (vacuous bit or corpus gap)",
                self.tech, self.strategy
            )
        } else {
            write!(
                f,
                "{:?}: mask skips `{}` but the sweep produced {} valid plan(s) — \
                 filtering would change selection",
                self.tech, self.strategy, self.valid_plans
            )
        }
    }
}

/// Check the registry's standard strategies against the precomputed mask
/// on every capability profile, over the same deterministic corpus the
/// conformance analyzer replays (same seed derivation, same samples).
pub fn mask_check(registry: &StrategyRegistry, opts: &AnalyzeOptions) -> SweepReport {
    // Capability profiles swept, strategy × profile pairs checked, valid
    // plans observed across all sweeps.
    let mut report = SweepReport::new(
        "mask",
        "strategy mask equals the observed sweep",
        &["profiles", "strategy cases", "valid plans observed"],
    );
    for (ti, tech) in profiles().into_iter().enumerate() {
        let caps = calib::capabilities(tech);
        let params = calib::params(tech);
        let cost = CostModel::from_params(&params);
        let wire_mtu = params.mtu;
        let threshold = effective_rndv_threshold(&opts.config, &caps);
        let specs = corpus(
            opts.seed
                .wrapping_add(ti as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            threshold,
            &caps,
            wire_mtu,
            opts.samples,
        );
        let mask = effective_strategy_mask(&opts.config, &caps);
        report.add("profiles", 1);
        for strategy in registry.iter() {
            // The mask claims nothing about custom strategies.
            let Some(bit) = StrategyMask::for_name(strategy.name()) else {
                continue;
            };
            report.add("strategy cases", 1);
            let mut valid_plans = 0usize;
            for spec in &specs {
                let outcome = check_spec(strategy, spec, &caps, &cost, wire_mtu, &opts.config);
                // Invalid proposals are the capability analyzer's
                // department; the mask only claims valid ones.
                if outcome.failure.is_none() {
                    valid_plans += outcome.plans;
                }
            }
            report.add("valid plans observed", valid_plans);
            if mask.contains(bit) != (valid_plans > 0) {
                let finding = MaskFinding {
                    tech,
                    strategy: strategy.name(),
                    masked_in: mask.contains(bit),
                    valid_plans,
                };
                report.findings.push(finding.to_string());
            }
        }
    }
    report
}

/// [`mask_check`] with the standard registry (every strategy toggled on)
/// and default options — what `cargo xtask analyze` runs.
pub fn mask_check_standard() -> SweepReport {
    let mut cfg = EngineConfig::default();
    cfg.enable_rndv = true;
    cfg.enable_aggregation = true;
    cfg.enable_gather = true;
    cfg.enable_reorder = true;
    cfg.enable_split = true;
    let registry = StrategyRegistry::standard(&cfg);
    let opts = AnalyzeOptions {
        config: cfg,
        ..AnalyzeOptions::default()
    };
    mask_check(&registry, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_mask_matches_sweep_on_all_profiles() {
        let report = mask_check_standard();
        assert!(report.count("profiles") >= 6, "all technologies swept");
        assert!(
            report.count("valid plans observed") > 0,
            "sweep observed plans"
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn rndv_is_masked_out_on_tcp() {
        let cfg = EngineConfig::default();
        let caps = calib::capabilities(Technology::TcpEthernet);
        let mask = effective_strategy_mask(&cfg, &caps);
        assert!(!mask.contains(StrategyMask::RNDV));
        // And a config override flips it back on.
        let mut cfg = cfg;
        cfg.rndv_threshold = Some(16 << 10);
        let mask = effective_strategy_mask(&cfg, &caps);
        assert!(mask.contains(StrategyMask::RNDV));
    }

    #[test]
    fn a_wrong_mask_is_detected() {
        // Sweep a registry whose only strategy is rendezvous promotion on
        // a config that pins a finite threshold: every profile has the
        // RNDV bit set, so if the corpus never exercised rendezvous the
        // completeness direction would flag it — and on the default
        // corpus it must instead observe plans and stay clean. The
        // soundness direction is covered by TCP in the standard sweep
        // (RNDV masked out, zero valid plans observed).
        let mut cfg = EngineConfig::default();
        cfg.enable_rndv = true;
        cfg.enable_aggregation = false;
        cfg.enable_reorder = false;
        cfg.enable_split = false;
        cfg.rndv_threshold = Some(8 << 10);
        let registry = StrategyRegistry::standard(&cfg);
        let opts = AnalyzeOptions {
            config: cfg,
            ..AnalyzeOptions::default()
        };
        let report = mask_check(&registry, &opts);
        assert!(report.is_clean(), "{report}");
        assert!(
            report.count("valid plans observed") > 0,
            "rendezvous plans observed under override"
        );
    }
}
