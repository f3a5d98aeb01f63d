//! Deterministic fault injection: scripted adversity for simulated networks.
//!
//! A [`FaultPlan`] is the way experiments script failures: uniform loss,
//! per-link burst-loss windows, duplication,
//! reordering, NIC stall intervals, and permanent rail death, all driven by
//! a private seeded [`SplitMix64`] so two runs with the same plan produce
//! identical fault sequences (and therefore identical traces).
//!
//! The plan is *consulted*, never *advanced*, by construction order: one RNG
//! draw happens per transmitted packet, in event order, so the fault stream
//! is a pure function of `(seed, packet sequence)`.

// madlint: file: hot-path

use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};

/// A window of elevated loss on a link (e.g. a congested uplink or a
/// flapping cable). Within `[from, until)` the window's `loss_rate`
/// supersedes the plan's base rate when it is higher.
#[derive(Clone, Debug)]
pub struct LossBurst {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Loss probability inside the window.
    pub loss_rate: f64,
}

/// A window during which the link stalls: packets entering the wire are
/// delayed until the window closes (modeling a NIC firmware hiccup or a
/// paused switch port), but not lost.
#[derive(Clone, Debug)]
pub struct StallWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// A deterministic, seeded script of link adversity.
///
/// Build one with the fluent constructors and install it with
/// [`crate::Simulation::set_fault_plan`]; see the module docs for the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
    /// Base uniform loss probability applied to every packet.
    pub loss_rate: f64,
    /// Burst-loss windows layered on top of the base rate.
    pub bursts: Vec<LossBurst>,
    /// Probability a surviving packet is duplicated on the wire.
    pub dup_rate: f64,
    /// Probability a surviving packet is delayed by `reorder_delay`,
    /// letting later packets overtake it.
    pub reorder_rate: f64,
    /// Extra latency applied to reordered packets.
    pub reorder_delay: SimDuration,
    /// Stall windows: packets sent inside one are held until it closes.
    pub stalls: Vec<StallWindow>,
    /// Permanent rail death: from this instant on, every packet is lost.
    pub die_at: Option<SimTime>,
}

impl FaultPlan {
    /// A benign plan (no faults) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss_rate: 0.0,
            bursts: Vec::new(),
            dup_rate: 0.0,
            reorder_rate: 0.0,
            reorder_delay: SimDuration::ZERO,
            stalls: Vec::new(),
            die_at: None,
        }
    }

    /// Set the base uniform loss probability.
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.loss_rate = rate;
        self
    }

    /// Add a burst-loss window.
    pub fn with_burst(mut self, from: SimTime, until: SimTime, loss_rate: f64) -> Self {
        self.bursts.push(LossBurst {
            from,
            until,
            loss_rate,
        });
        self
    }

    /// Set the duplication probability.
    pub fn with_dup(mut self, rate: f64) -> Self {
        self.dup_rate = rate;
        self
    }

    /// Set the reorder probability and the delay reordered packets suffer.
    pub fn with_reorder(mut self, rate: f64, delay: SimDuration) -> Self {
        self.reorder_rate = rate;
        self.reorder_delay = delay;
        self
    }

    /// Add a stall window.
    pub fn with_stall(mut self, from: SimTime, until: SimTime) -> Self {
        self.stalls.push(StallWindow { from, until });
        self
    }

    /// Kill the link permanently at `at`.
    pub fn with_death(mut self, at: SimTime) -> Self {
        self.die_at = Some(at);
        self
    }

    /// Check the plan for nonsensical values (probabilities outside
    /// `[0, 1]`, inverted windows).
    pub fn validate(&self) -> Result<(), String> {
        let unit = |name: &str, v: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be in [0, 1], got {v}"))
            }
        };
        unit("loss_rate", self.loss_rate)?;
        unit("dup_rate", self.dup_rate)?;
        unit("reorder_rate", self.reorder_rate)?;
        for b in &self.bursts {
            unit("burst loss_rate", b.loss_rate)?;
            if b.until <= b.from {
                return Err(format!(
                    "burst window inverted: {:?}..{:?}",
                    b.from, b.until
                ));
            }
        }
        for s in &self.stalls {
            if s.until <= s.from {
                return Err(format!(
                    "stall window inverted: {:?}..{:?}",
                    s.from, s.until
                ));
            }
        }
        Ok(())
    }
}

/// What the fault layer decided for one packet entering the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The packet is lost.
    pub dropped: bool,
    /// The link is permanently dead (implies `dropped`).
    pub dead: bool,
    /// A second copy of the packet is injected.
    pub duplicate: bool,
    /// The packet was held by a stall window (`extra_delay` includes the
    /// remaining stall time).
    pub stalled: bool,
    /// Additional wire latency from stalls and reordering.
    pub extra_delay: SimDuration,
}

/// A [`FaultPlan`] plus its live RNG stream, owned by one network.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
}

impl FaultState {
    /// Start executing a plan (seeds the private RNG from `plan.seed`).
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultState { plan, rng }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of one packet entering the wire at `now`. Draws from
    /// the plan's RNG, so calls must happen in event order (the simulator's
    /// tx-done handler is the only caller).
    pub fn on_tx(&mut self, now: SimTime) -> FaultOutcome {
        let mut out = FaultOutcome::default();
        if self.plan.die_at.is_some_and(|t| now >= t) {
            out.dead = true;
            out.dropped = true;
            return out;
        }
        let mut loss = self.plan.loss_rate;
        for b in &self.plan.bursts {
            if now >= b.from && now < b.until && b.loss_rate > loss {
                loss = b.loss_rate;
            }
        }
        if loss > 0.0 && self.rng.next_bool(loss) {
            out.dropped = true;
            return out;
        }
        if self.plan.dup_rate > 0.0 && self.rng.next_bool(self.plan.dup_rate) {
            out.duplicate = true;
        }
        if self.plan.reorder_rate > 0.0 && self.rng.next_bool(self.plan.reorder_rate) {
            out.extra_delay += self.plan.reorder_delay;
        }
        for s in &self.plan.stalls {
            if now >= s.from && now < s.until {
                out.stalled = true;
                out.extra_delay += s.until - now;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_is_a_noop() {
        let mut f = FaultState::new(FaultPlan::new(7));
        for i in 0..100 {
            let out = f.on_tx(SimTime::from_nanos(i));
            assert_eq!(out, FaultOutcome::default());
        }
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let plan = FaultPlan::new(42)
            .with_loss(0.3)
            .with_dup(0.2)
            .with_reorder(0.1, SimDuration::from_micros(5));
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for i in 0..1000 {
            let t = SimTime::from_nanos(i * 100);
            assert_eq!(a.on_tx(t), b.on_tx(t));
        }
    }

    #[test]
    fn burst_window_raises_loss() {
        let plan =
            FaultPlan::new(1).with_burst(SimTime::from_nanos(100), SimTime::from_nanos(200), 1.0);
        let mut f = FaultState::new(plan);
        assert!(!f.on_tx(SimTime::from_nanos(50)).dropped);
        assert!(f.on_tx(SimTime::from_nanos(150)).dropped);
        assert!(!f.on_tx(SimTime::from_nanos(200)).dropped);
    }

    #[test]
    fn death_is_permanent_and_drains_no_rng() {
        let plan = FaultPlan::new(9)
            .with_loss(0.5)
            .with_death(SimTime::from_nanos(1_000));
        let mut a = FaultState::new(plan);
        let out = a.on_tx(SimTime::from_nanos(2_000));
        assert!(out.dead && out.dropped);
        // Every later packet dies too.
        assert!(a.on_tx(SimTime::from_nanos(3_000)).dead);
    }

    #[test]
    fn stall_window_delays_until_close() {
        let plan = FaultPlan::new(3).with_stall(SimTime::from_nanos(100), SimTime::from_nanos(400));
        let mut f = FaultState::new(plan);
        let out = f.on_tx(SimTime::from_nanos(250));
        assert!(out.stalled);
        assert_eq!(out.extra_delay.as_nanos(), 150);
        assert!(!f.on_tx(SimTime::from_nanos(500)).stalled);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::new(0).with_loss(1.5).validate().is_err());
        assert!(FaultPlan::new(0)
            .with_burst(SimTime::from_nanos(10), SimTime::from_nanos(5), 0.5)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .with_loss(0.05)
            .with_dup(0.01)
            .validate()
            .is_ok());
    }
}
