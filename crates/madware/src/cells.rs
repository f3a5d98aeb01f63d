//! Two-rail cells and the safety oracles every cell must pass.
//!
//! A [`Cell`] is plain data — a heterogeneous rail pair, a reliability
//! mode, a wire, an offered load, a message count and a seed — so a
//! scenario generator can draw one as well as a sweep can list them.
//! [`Cell::run`] builds it with [`ClusterSpec::new`] and
//! [`traffic_pair`], drains it and hands back what [`safety`] found: the
//! oracle reads any drained [`traffic`](crate::scenario::traffic) cluster,
//! whoever built it. [`Cell::sweep`] is the fixed grid the tier-1 tests
//! run: every rail pair × `Off` / `Recover` × clean / lossy × two loads.

use madeleine::harness::{Cluster, ClusterSpec, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::metrics::Fault;
use madeleine::{EngineConfig, ReliabilityMode};
use simnet::{FaultPlan, NodeId, SimDuration, Technology};

use crate::apps::{FlowSpec, StatsHandle};
use crate::scenario::traffic_pair;
use crate::workload::{Arrival, SizeDist};

/// The two rails of a cell, in rail order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RailPair {
    /// Myrinet/MX then Quadrics/Elan: the slower rail first.
    MxElan,
    /// Elan then MX: the faster rail first.
    ElanMx,
    /// MX and a PIO-only TCP rail that is slower at every size.
    MxTcp,
}

impl RailPair {
    /// Every pair, in sweep order.
    pub const ALL: [RailPair; 3] = [RailPair::MxElan, RailPair::ElanMx, RailPair::MxTcp];

    /// The technologies, in rail order.
    pub fn rails(self) -> Vec<Technology> {
        use Technology::{MyrinetMx, QuadricsElan, TcpEthernet};
        match self {
            RailPair::MxElan => vec![MyrinetMx, QuadricsElan],
            RailPair::ElanMx => vec![QuadricsElan, MyrinetMx],
            RailPair::MxTcp => vec![MyrinetMx, TcpEthernet],
        }
    }
}

/// What the wire does to the packets of both rails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Nothing is lost, duplicated or delayed.
    Clean,
    /// 1 % loss, 0.5 % duplication and 1 % reordering by 20 µs — the
    /// faults of the benchmark's `lossy_multirail`.
    Lossy,
}

impl Wire {
    /// Both wires, in sweep order.
    pub const ALL: [Wire; 2] = [Wire::Clean, Wire::Lossy];

    /// The fault plan of rail `rail` for `seed`, when the wire has one.
    pub fn plan(self, seed: u64, rail: usize) -> Option<FaultPlan> {
        match self {
            Wire::Clean => None,
            Wire::Lossy => Some(
                FaultPlan::new(seed ^ ((rail as u64 + 1) << 32))
                    .with_loss(0.01)
                    .with_dup(0.005)
                    .with_reorder(0.01, SimDuration::from_micros(20)),
            ),
        }
    }
}

/// One seeded two-rail cell: node 0 streams `msgs` messages of the
/// benchmark's size mix (bounded Pareto, 256 B–16 KiB, α = 1.2, behind an
/// 8-byte express header) over four flows of four classes to node 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// The rails.
    pub rails: RailPair,
    /// The reliability mode of both engines.
    pub reliability: ReliabilityMode,
    /// What the wire does.
    pub wire: Wire,
    /// Mean gap between two messages of the whole stream.
    pub mean_gap: SimDuration,
    /// Messages node 0 sends.
    pub msgs: u64,
    /// Workload and fault seed.
    pub seed: u64,
}

/// Flows of a cell's stream, one per class.
const CLASSES: [TrafficClass; 4] = [
    TrafficClass::DEFAULT,
    TrafficClass::BULK,
    TrafficClass::PUT_GET,
    TrafficClass::CONTROL,
];

impl Cell {
    /// The sweep's mean gaps: a light load, and one near what MX alone
    /// carries of this size mix.
    pub const GAPS_NS: [u64; 2] = [40_000, 10_000];

    /// Every rail pair × reliability mode × wire × load, `msgs` messages
    /// a cell on `seed`.
    pub fn sweep(msgs: u64, seed: u64) -> Vec<Cell> {
        let modes = [ReliabilityMode::Off, ReliabilityMode::Recover];
        let mut cells = Vec::new();
        for rails in RailPair::ALL {
            for reliability in modes {
                for wire in Wire::ALL {
                    for gap in Cell::GAPS_NS {
                        cells.push(Cell {
                            rails,
                            reliability,
                            wire,
                            mean_gap: SimDuration::from_nanos(gap),
                            msgs,
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Node 0's flows.
    pub fn flows(&self) -> Vec<FlowSpec> {
        let per_flow = self.msgs / CLASSES.len() as u64;
        CLASSES
            .iter()
            .enumerate()
            .map(|(i, &class)| FlowSpec {
                dst: NodeId(1),
                class,
                arrival: Arrival::Poisson(self.mean_gap * CLASSES.len() as u64),
                sizes: SizeDist::Pareto {
                    min: 256,
                    max: 16 << 10,
                    alpha: 1.2,
                },
                express_header: 8,
                body_frags: SizeDist::Fixed(1),
                reply: None,
                stop_after: Some(per_flow + u64::from((i as u64) < self.msgs % 4)),
                start_after: SimDuration::ZERO,
            })
            .collect()
    }

    /// The cell's undrained cluster with (sender stats, sink stats).
    pub fn build(&self) -> (Cluster, StatsHandle, StatsHandle) {
        let config = EngineConfig {
            reliability: self.reliability,
            ..EngineConfig::default()
        };
        let spec = ClusterSpec::new(2, self.rails.rails()).config(config);
        let (mut cluster, tx, rx) = traffic_pair(&spec, self.flows(), self.seed);
        for rail in 0..2 {
            if let Some(plan) = self.wire.plan(self.seed, rail) {
                cluster.set_fault_plan(rail, plan);
            }
        }
        (cluster, tx, rx)
    }

    /// Build the cell, run it to quiescence and judge it.
    pub fn run(&self) -> Outcome {
        let (mut cluster, tx, rx) = self.build();
        cluster.drain();
        let stats = [tx, rx];
        let mut violations = safety(&cluster, &stats);
        let (sent, received) = (stats[0].borrow().sent, stats[1].borrow().received);
        if sent != self.msgs {
            violations.push(format!("sent {sent} of {} messages", self.msgs));
        }
        // Only the paper's lossless mode may lose what the wire drops.
        let lossless = self.wire == Wire::Clean || self.reliability == ReliabilityMode::Recover;
        if lossless && received != sent {
            violations.push(format!("received {received} of {sent} messages"));
        }
        Outcome {
            cell: *self,
            sent,
            received,
            violations,
        }
    }
}

/// What running a [`Cell`] found.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The cell.
    pub cell: Cell,
    /// Messages node 0 sent.
    pub sent: u64,
    /// Messages node 1 received.
    pub received: u64,
    /// Every oracle that failed, one line each; empty when the cell is
    /// clean.
    pub violations: Vec<String>,
}

/// The safety oracles of a drained cluster whose nodes run the
/// [`TrafficApp`](crate::TrafficApp)s whose `stats` are given, in node
/// order: on every node, every payload intact and each flow's messages
/// in order and once (the [`IntegrityChecker`](crate::IntegrityChecker)),
/// the engine drained at quiescence, and every counter of
/// [`Fault::ALL`] zero — so no rail was declared dead and no message
/// abandoned. Returns one line per violation.
pub fn safety(cluster: &Cluster, stats: &[StatsHandle]) -> Vec<String> {
    let mut violations = Vec::new();
    for (node, st) in stats.iter().enumerate() {
        let st = st.borrow();
        for failure in &st.integrity.failures {
            violations.push(format!("node {node}: {failure}"));
        }
        let handle = cluster.handle(node);
        if let NodeHandle::Opt(h) = handle {
            if !h.is_drained() {
                violations.push(format!("node {node}: not drained at quiescence"));
            }
        }
        let m = handle.metrics();
        for fault in Fault::ALL {
            let n = fault.count(&m);
            if n > 0 {
                violations.push(format!("node {node}: {} = {n}", fault.label()));
            }
        }
    }
    violations
}
