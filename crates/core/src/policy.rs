//! Scheduling policies: which rails may carry which traffic.
//!
//! §1–2 of the paper: the one-to-one mapping of flows onto NICs "is now
//! only one mere scheduling policy (that could be selected as a fallback,
//! for instance) among many other possible ones", and the scheduler "may
//! also choose to dynamically change the assignment of networking resources
//! to traffic classes ... as the needs of the application evolve".

use crate::ids::{FlowId, TrafficClass};

/// Built-in policy families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Legacy fallback: flow *f* is statically bound to rail `f mod rails`.
    OneToOne,
    /// All rails serve all traffic; idle rails pull whatever is pending
    /// (implicit bandwidth-proportional load balancing).
    Pooled,
    /// Classes are pinned to explicit rail subsets (set via
    /// [`RailPolicy::pin_class`]).
    ClassPinned,
    /// Starts pooled; every epoch, reassigns rails to classes in proportion
    /// to the traffic each class generated in the previous epoch.
    Adaptive,
}

/// The rail-eligibility policy of one engine.
#[derive(Clone, Debug)]
pub struct RailPolicy {
    kind: PolicyKind,
    rails: usize,
    /// eligibility[class][rail]
    eligibility: Vec<Vec<bool>>,
    /// Bytes submitted per class in the current epoch (adaptive only).
    epoch_bytes: Vec<u64>,
    /// Number of rebalances performed (observability).
    rebalances: u64,
}

impl RailPolicy {
    /// Create a policy over `rails` rails.
    pub fn new(kind: PolicyKind, rails: usize) -> Self {
        assert!(rails >= 1, "need at least one rail");
        RailPolicy {
            kind,
            rails,
            eligibility: vec![vec![true; rails]; TrafficClass::COUNT],
            epoch_bytes: vec![0; TrafficClass::COUNT],
            rebalances: 0,
        }
    }

    /// The policy family.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Switch the policy family at runtime (dynamic policy change, §2).
    /// Eligibility tables are reset to all-rails.
    pub fn switch_kind(&mut self, kind: PolicyKind) {
        self.kind = kind;
        for row in &mut self.eligibility {
            row.iter_mut().for_each(|e| *e = true);
        }
        self.epoch_bytes.iter_mut().for_each(|b| *b = 0);
    }

    /// Whether `rail` may carry traffic of `flow` with `class`.
    pub fn eligible(&self, flow: FlowId, class: TrafficClass, rail: usize) -> bool {
        debug_assert!(rail < self.rails);
        match self.kind {
            PolicyKind::OneToOne => flow.0 as usize % self.rails == rail,
            PolicyKind::Pooled => true,
            PolicyKind::ClassPinned | PolicyKind::Adaptive => {
                let idx = (class.0 as usize).min(TrafficClass::COUNT - 1);
                self.eligibility[idx][rail]
            }
        }
    }

    /// Pin a class to an explicit set of rails (ClassPinned policy).
    /// Passing an empty set restores all-rails eligibility.
    pub fn pin_class(&mut self, class: TrafficClass, rails: &[usize]) {
        let idx = (class.0 as usize).min(TrafficClass::COUNT - 1);
        if rails.is_empty() {
            self.eligibility[idx].iter_mut().for_each(|e| *e = true);
            return;
        }
        self.eligibility[idx].iter_mut().for_each(|e| *e = false);
        for &r in rails {
            if r < self.rails {
                self.eligibility[idx][r] = true;
            }
        }
    }

    /// Record traffic for the adaptive policy's epoch statistics.
    pub fn record_traffic(&mut self, class: TrafficClass, bytes: u64) {
        let idx = (class.0 as usize).min(TrafficClass::COUNT - 1);
        self.epoch_bytes[idx] += bytes;
    }

    /// Rebalance rail assignments from the epoch's per-class traffic
    /// (adaptive policy; a no-op for other kinds). Classes receive rail
    /// shares proportional to their bytes, each active class getting at
    /// least one rail; idle classes stay eligible everywhere (they have
    /// nothing to send anyway, and a sudden burst should not stall).
    pub fn rebalance(&mut self) {
        if self.kind != PolicyKind::Adaptive {
            return;
        }
        let total: u64 = self.epoch_bytes.iter().sum();
        if total == 0 || self.rails == 1 {
            self.epoch_bytes.iter_mut().for_each(|b| *b = 0);
            return;
        }
        // Deterministic largest-remainder allocation of rails to classes.
        let active: Vec<usize> = (0..TrafficClass::COUNT)
            .filter(|&i| self.epoch_bytes[i] > 0)
            .collect();
        let mut shares: Vec<(usize, usize, u64)> = active
            .iter()
            .map(|&i| {
                let exact = self.epoch_bytes[i] * self.rails as u64;
                let base = (exact / total) as usize;
                let rem = exact % total;
                (i, base.max(1), rem)
            })
            .collect();
        // Trim so the total assigned does not exceed the rail count, taking
        // from the largest holders first.
        let mut assigned: usize = shares.iter().map(|s| s.1).sum();
        while assigned > self.rails {
            let biggest = shares
                .iter_mut()
                .max_by_key(|s| s.1)
                .expect("active classes nonempty");
            if biggest.1 > 1 {
                biggest.1 -= 1;
            }
            let new_total: usize = shares.iter().map(|s| s.1).sum();
            if new_total == assigned {
                break; // everyone is at 1 rail; sharing is unavoidable
            }
            assigned = new_total;
        }
        // Hand out rails round-robin in class order; overlap if we ran out.
        let mut next_rail = 0usize;
        for (class_idx, count, _) in &shares {
            self.eligibility[*class_idx]
                .iter_mut()
                .for_each(|e| *e = false);
            for _ in 0..*count {
                self.eligibility[*class_idx][next_rail % self.rails] = true;
                next_rail += 1;
            }
        }
        self.epoch_bytes.iter_mut().for_each(|b| *b = 0);
        self.rebalances += 1;
    }

    /// How many rebalances the adaptive policy has performed.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Bytes recorded in the current (unfinished) epoch.
    pub fn epoch_traffic(&self) -> u64 {
        self.epoch_bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RailPolicy {
        /// Rails eligible for a (flow, class) pair, in rail order.
        fn eligible_rails(&self, flow: FlowId, class: TrafficClass) -> Vec<usize> {
            (0..self.rails)
                .filter(|&r| self.eligible(flow, class, r))
                .collect()
        }
    }

    #[test]
    fn one_to_one_pins_by_flow() {
        let p = RailPolicy::new(PolicyKind::OneToOne, 3);
        assert!(p.eligible(FlowId(0), TrafficClass::DEFAULT, 0));
        assert!(!p.eligible(FlowId(0), TrafficClass::DEFAULT, 1));
        assert!(p.eligible(FlowId(4), TrafficClass::DEFAULT, 1));
        assert_eq!(p.eligible_rails(FlowId(5), TrafficClass::BULK), vec![2]);
    }

    #[test]
    fn pooled_allows_everything() {
        let p = RailPolicy::new(PolicyKind::Pooled, 2);
        for f in 0..4 {
            for r in 0..2 {
                assert!(p.eligible(FlowId(f), TrafficClass::CONTROL, r));
            }
        }
    }

    #[test]
    fn class_pinning() {
        let mut p = RailPolicy::new(PolicyKind::ClassPinned, 3);
        p.pin_class(TrafficClass::BULK, &[1, 2]);
        p.pin_class(TrafficClass::CONTROL, &[0]);
        assert!(!p.eligible(FlowId(0), TrafficClass::BULK, 0));
        assert!(p.eligible(FlowId(0), TrafficClass::BULK, 2));
        assert_eq!(p.eligible_rails(FlowId(0), TrafficClass::CONTROL), vec![0]);
        // Unpin restores everything.
        p.pin_class(TrafficClass::BULK, &[]);
        assert_eq!(
            p.eligible_rails(FlowId(0), TrafficClass::BULK),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn adaptive_rebalance_tracks_load() {
        let mut p = RailPolicy::new(PolicyKind::Adaptive, 4);
        // Bulk dominates: it should end up with most rails, control with
        // at least one.
        p.record_traffic(TrafficClass::BULK, 3_000_000);
        p.record_traffic(TrafficClass::CONTROL, 1_000);
        p.rebalance();
        assert_eq!(p.rebalances(), 1);
        let bulk = p.eligible_rails(FlowId(0), TrafficClass::BULK).len();
        let ctrl = p.eligible_rails(FlowId(0), TrafficClass::CONTROL).len();
        assert!(bulk >= 2, "bulk got {bulk} rails");
        assert!(ctrl >= 1);
        // Idle classes remain fully eligible.
        assert_eq!(p.eligible_rails(FlowId(0), TrafficClass::PUT_GET).len(), 4);
    }

    #[test]
    fn adaptive_elephant_shifts_rails_without_starving_mice() {
        let mut p = RailPolicy::new(PolicyKind::Adaptive, 8);
        // Epoch 1: thousands of mice messages on DEFAULT, no elephant yet.
        for _ in 0..4_000 {
            p.record_traffic(TrafficClass::DEFAULT, 64);
        }
        p.rebalance();
        let mice_alone = p.eligible_rails(FlowId(0), TrafficClass::DEFAULT).len();
        assert_eq!(mice_alone, 8, "sole active class owns every rail");

        // Epochs 2..=4: one elephant class joins at ~100x the mice volume.
        // Rails must shift toward it while the mice keep at least one rail
        // every epoch (no starvation).
        let mut elephant_rails = 0;
        for _ in 0..3 {
            for _ in 0..4_000 {
                p.record_traffic(TrafficClass::DEFAULT, 64);
            }
            p.record_traffic(TrafficClass::BULK, 4_000 * 64 * 100);
            p.rebalance();
            elephant_rails = p.eligible_rails(FlowId(0), TrafficClass::BULK).len();
            let mice = p.eligible_rails(FlowId(0), TrafficClass::DEFAULT).len();
            assert!(elephant_rails >= 6, "elephant got {elephant_rails} rails");
            assert!(mice >= 1, "mice starved");
            assert!(elephant_rails > mice, "rails did not shift to the elephant");
        }

        // Elephant drains; the next epoch hands the rails back to the mice.
        for _ in 0..4_000 {
            p.record_traffic(TrafficClass::DEFAULT, 64);
        }
        p.rebalance();
        let mice_after = p.eligible_rails(FlowId(0), TrafficClass::DEFAULT).len();
        assert_eq!(mice_after, 8, "rails return once the elephant drains");
        assert_eq!(p.rebalances(), 5);
    }

    #[test]
    fn adaptive_rebalance_with_no_traffic_is_noop() {
        let mut p = RailPolicy::new(PolicyKind::Adaptive, 2);
        p.rebalance();
        assert_eq!(p.eligible_rails(FlowId(0), TrafficClass::BULK).len(), 2);
    }

    #[test]
    fn switch_kind_resets_state() {
        let mut p = RailPolicy::new(PolicyKind::ClassPinned, 2);
        p.pin_class(TrafficClass::BULK, &[0]);
        p.switch_kind(PolicyKind::Pooled);
        assert!(p.eligible(FlowId(0), TrafficClass::BULK, 1));
        assert_eq!(p.kind(), PolicyKind::Pooled);
    }

    #[test]
    fn non_adaptive_rebalance_is_noop() {
        let mut p = RailPolicy::new(PolicyKind::ClassPinned, 2);
        p.record_traffic(TrafficClass::BULK, 100);
        p.rebalance();
        assert_eq!(p.rebalances(), 0);
    }
}
