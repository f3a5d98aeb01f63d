//! Distributed-ML training traffic: iterated compute → gradient-exchange
//! → step-barrier phases over madcoll.
//!
//! Data-parallel training is the modern heir of the paper's "complex
//! conglomerates of communication middlewares": per step, every rank
//! computes for a while, exchanges a gradient the size of the model
//! shard, and synchronizes before the next step. Two exchange styles are
//! generated:
//!
//! * **ring-allreduce** — one fused allreduce of the gradient vector
//!   (the bandwidth-optimal pattern; algorithm selection may still pick a
//!   tree when the gradient is small);
//! * **parameter-server** — workers reduce gradients to rank 0, which
//!   broadcasts updated parameters back (flat star both ways, the
//!   incast-prone pattern).
//!
//! Parameters: member count, gradient size (elements), compute delay per
//! step, step count, optional per-step barrier, traffic class. Gradients
//! are verified in closed form every step, so the generator doubles as a
//! correctness check (the `madware::verify` convention).

use crate::coll::{parse_header, CollConfig, CollMember, CollOp};
use madeleine::api::{AppDriver, CommApi};
use madeleine::hist::LogHistogram;
use madeleine::message::DeliveredMessage;
use simnet::{NodeId, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Gradient-exchange style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MlTrainMode {
    /// Fused allreduce of the gradient (subject to algorithm selection).
    RingAllreduce,
    /// Reduce to rank 0, broadcast parameters back (flat both ways).
    ParamServer,
}

/// Workload parameters, shared by every rank.
#[derive(Clone, Debug)]
pub struct MlTrainSpec {
    /// Gradient vector elements (8 bytes each).
    pub gradient_elems: u32,
    /// Virtual compute time per step before the exchange starts.
    pub compute_delay: SimDuration,
    /// Training steps.
    pub steps: u32,
    /// Exchange style.
    pub mode: MlTrainMode,
    /// Run a barrier after each step's exchange.
    pub step_barrier: bool,
    /// Collective algorithm/cost inputs (class tags the gradient flows).
    pub coll: CollConfig,
}

/// Results shared out of an [`MlTrainApp`].
#[derive(Debug, Default)]
pub struct MlTrainStats {
    /// Steps completed on this rank.
    pub steps_done: u32,
    /// Full step span (compute + exchange + barrier), this rank.
    pub step: LogHistogram<SimDuration>,
    /// Gradient-exchange span per step.
    pub exchange: LogHistogram<SimDuration>,
    /// Barrier span per step (empty when disabled).
    pub barrier: LogHistogram<SimDuration>,
    /// Steps whose verified gradient was wrong.
    pub wrong_results: u32,
}

/// Shared handle to [`MlTrainStats`].
pub type MlTrainHandle = Rc<RefCell<MlTrainStats>>;

/// Per-step phases, encoded into collective ids as `step * PHASES + p`
/// so ids never collide across phases or steps.
const PHASE_EXCHANGE: u64 = 0;
const PHASE_BCAST: u64 = 1;
const PHASE_BARRIER: u64 = 2;
const PHASES: u64 = 3;

/// One rank of the training job (rank `r` on `NodeId(r)`).
pub struct MlTrainApp {
    me: u32,
    nodes: Vec<NodeId>,
    spec: MlTrainSpec,
    step: u32,
    step_started: SimTime,
    member: Option<CollMember>,
    phase: u64,
    /// Receives for phases this rank has not reached yet (peers race
    /// ahead; flows differ per collective so no FIFO ordering applies).
    stash: Vec<(u64, u32, u32, u32, Vec<u8>)>,
    /// Result of the last finished collective (the server's reduced
    /// gradient, redistributed by the broadcast phase).
    last_value: Vec<u64>,
    stats: MlTrainHandle,
}

impl MlTrainApp {
    /// Build rank `me` of `ranks`.
    pub fn new(me: u32, ranks: u32, spec: MlTrainSpec) -> (Self, MlTrainHandle) {
        assert!(me < ranks && ranks >= 1);
        let stats = MlTrainHandle::default();
        (
            MlTrainApp {
                me,
                nodes: (0..ranks).map(NodeId).collect(),
                spec,
                step: 0,
                step_started: SimTime::ZERO,
                member: None,
                phase: 0,
                stash: Vec::new(),
                last_value: Vec::new(),
                stats: stats.clone(),
            },
            stats,
        )
    }

    /// Build every rank plus its stats handle, ready for the cluster
    /// harness.
    pub fn ranks(
        ranks: u32,
        spec: MlTrainSpec,
    ) -> (Vec<Option<Box<dyn AppDriver>>>, Vec<MlTrainHandle>) {
        let mut apps: Vec<Option<Box<dyn AppDriver>>> = Vec::with_capacity(ranks as usize);
        let mut handles = Vec::with_capacity(ranks as usize);
        for r in 0..ranks {
            let (app, h) = MlTrainApp::new(r, ranks, spec.clone());
            apps.push(Some(Box::new(app)));
            handles.push(h);
        }
        (apps, handles)
    }

    fn n(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Expected per-element reduced gradient for `step`:
    /// `Σ_r (r + step) = n(n−1)/2 + n·step`.
    fn expected(&self) -> u64 {
        self.n() * (self.n() - 1) / 2 + self.n() * self.step as u64
    }

    fn phase_id(&self, phase: u64) -> u64 {
        self.step as u64 * PHASES + phase
    }

    fn start_phase(&mut self, api: &mut dyn CommApi, phase: u64) {
        let (op, init, cfg) = match phase {
            PHASE_EXCHANGE => {
                let grad = vec![(self.me + self.step) as u64; self.spec.gradient_elems as usize];
                match self.spec.mode {
                    MlTrainMode::RingAllreduce => (CollOp::Allreduce, grad, self.spec.coll.clone()),
                    MlTrainMode::ParamServer => {
                        // The star is the parameter server's shape by
                        // definition; pin it rather than letting selection
                        // reroute the architecture.
                        let cfg = CollConfig {
                            algo: Some(crate::coll::CollAlgo::Flat),
                            ..self.spec.coll.clone()
                        };
                        (CollOp::Reduce { root: 0 }, grad, cfg)
                    }
                }
            }
            PHASE_BCAST => {
                // The server redistributes the reduced parameters; workers
                // contribute a placeholder that broadcast overwrites.
                let params = if self.me == 0 {
                    self.last_value.clone()
                } else {
                    vec![0; self.spec.gradient_elems as usize]
                };
                let cfg = CollConfig {
                    algo: Some(crate::coll::CollAlgo::Flat),
                    ..self.spec.coll.clone()
                };
                (CollOp::Broadcast { root: 0 }, params, cfg)
            }
            _ => (CollOp::Barrier, vec![1], self.spec.coll.clone()),
        };
        self.phase = phase;
        let mut m = CollMember::new(
            self.phase_id(phase),
            op,
            self.spec.gradient_elems,
            self.me,
            self.nodes.clone(),
            init,
            &cfg,
        );
        m.start(api);
        self.member = Some(m);
        self.replay(api);
        self.settle(api);
    }

    fn replay(&mut self, api: &mut dyn CommApi) {
        let id = self.phase_id(self.phase);
        let mut ready = Vec::new();
        self.stash.retain(|e| {
            if e.0 == id {
                ready.push(e.clone());
                false
            } else {
                true
            }
        });
        for (_, round, chunk, src, body) in ready {
            let m = self.member.as_mut().expect("phase installed");
            m.absorb(api, round, chunk, src, &body);
        }
    }

    /// Advance through phase/step boundaries after any progress.
    fn settle(&mut self, api: &mut dyn CommApi) {
        let done = self.member.as_ref().is_some_and(CollMember::done);
        if !done {
            return;
        }
        let m = self.member.take().expect("checked");
        let span = m.elapsed().expect("done");
        self.last_value = m.value().to_vec();
        let next = match self.phase {
            PHASE_EXCHANGE => {
                self.stats.borrow_mut().exchange.record(span);
                match self.spec.mode {
                    MlTrainMode::ParamServer => Some(PHASE_BCAST),
                    MlTrainMode::RingAllreduce => {
                        self.verify(&m.value().to_vec());
                        self.barrier_or_next()
                    }
                }
            }
            PHASE_BCAST => {
                self.verify(&m.value().to_vec());
                self.barrier_or_next()
            }
            _ => {
                self.stats.borrow_mut().barrier.record(span);
                None
            }
        };
        match next {
            // start_phase recurses back through settle for the next hop.
            Some(phase) => self.start_phase(api, phase),
            None => {
                let now = api.now();
                {
                    let mut s = self.stats.borrow_mut();
                    s.steps_done += 1;
                    s.step.record(now.since(self.step_started));
                }
                self.step += 1;
                if self.step < self.spec.steps {
                    self.begin_step(api);
                }
            }
        }
    }

    /// After the exchange (and bcast, for the server style): barrier or
    /// straight to the next step.
    fn barrier_or_next(&self) -> Option<u64> {
        self.spec.step_barrier.then_some(PHASE_BARRIER)
    }

    fn verify(&mut self, value: &[u64]) {
        let want = self.expected();
        if !value.iter().all(|&x| x == want) {
            self.stats.borrow_mut().wrong_results += 1;
        }
    }

    fn begin_step(&mut self, api: &mut dyn CommApi) {
        self.step_started = api.now();
        if self.spec.compute_delay.is_zero() {
            self.start_phase(api, PHASE_EXCHANGE);
        } else {
            api.set_timer(self.spec.compute_delay, self.step as u64);
        }
    }
}

impl AppDriver for MlTrainApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        if self.spec.steps > 0 {
            self.begin_step(api);
        }
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        if tag == self.step as u64 {
            self.start_phase(api, PHASE_EXCHANGE);
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let Some((_, hdr)) = msg.fragments.first() else {
            return;
        };
        let Some((coll_id, round, chunk, src)) = parse_header(hdr) else {
            return;
        };
        if self.member.is_some() {
            let current = self.phase_id(self.phase);
            if coll_id == current {
                let body = msg
                    .fragments
                    .get(1)
                    .map(|(_, b)| b.as_ref())
                    .unwrap_or_default();
                let m = self.member.as_mut().expect("checked");
                m.absorb(api, round, chunk, src, body);
                self.settle(api);
                return;
            }
            assert!(
                coll_id > current,
                "rank {} got a receive for finished collective {coll_id} (at {current})",
                self.me
            );
        }
        // No active collective (compute delay) or a future phase:
        // stash until that collective starts.
        let body = msg
            .fragments
            .get(1)
            .map(|(_, b)| b.to_vec())
            .unwrap_or_default();
        self.stash.push((coll_id, round, chunk, src, body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::harness::{Cluster, ClusterSpec};
    use simnet::Technology;

    fn run(mode: MlTrainMode, ranks: u32, elems: u32, steps: u32) -> Vec<MlTrainHandle> {
        let spec = MlTrainSpec {
            gradient_elems: elems,
            compute_delay: SimDuration::from_micros(20),
            steps,
            mode,
            step_barrier: true,
            coll: CollConfig::for_tech(Technology::MyrinetMx),
        };
        let (apps, handles) = MlTrainApp::ranks(ranks, spec);
        let cluster_spec = ClusterSpec::new(ranks as usize, vec![Technology::MyrinetMx]);
        let mut c = Cluster::build(&cluster_spec, apps);
        c.drain();
        handles
    }

    #[test]
    fn ring_allreduce_training_verifies_every_step() {
        for ranks in [2u32, 4, 6] {
            let handles = run(MlTrainMode::RingAllreduce, ranks, 64, 4);
            for (r, h) in handles.iter().enumerate() {
                let s = h.borrow();
                assert_eq!(s.steps_done, 4, "rank {r}");
                assert_eq!(s.wrong_results, 0, "rank {r}");
                assert_eq!(s.exchange.count(), 4);
                assert_eq!(s.barrier.count(), 4);
            }
        }
    }

    #[test]
    fn param_server_training_verifies_every_step() {
        let handles = run(MlTrainMode::ParamServer, 5, 32, 3);
        for (r, h) in handles.iter().enumerate() {
            let s = h.borrow();
            assert_eq!(s.steps_done, 3, "rank {r}");
            assert_eq!(s.wrong_results, 0, "rank {r}");
        }
    }

    #[test]
    fn steps_cost_at_least_the_compute_delay() {
        let handles = run(MlTrainMode::RingAllreduce, 3, 16, 2);
        let s = handles[0].borrow();
        assert!(s.step.quantile(0.5) >= SimDuration::from_micros(20));
    }
}
