//! Seeded scenarios and the safety oracles every drained scenario passes.
//!
//! A [`ScenarioSpec`] is plain data — a fabric, one or two rails, a fault
//! plan, a reliability mode, a workload of [`FlowSpec`]s for the one
//! [`TrafficApp`](crate::TrafficApp), an offered load, a message count and
//! a seed. [`ScenarioSpec::draw`] draws one from a seed;
//! [`ScenarioSpec::to_json`] writes it as one `madeleine::json` value and
//! [`ScenarioSpec::from_json`] reads it back, so a scenario replays from
//! one line. [`ScenarioSpec::build`] builds it with [`traffic`], and
//! [`safety`] judges any drained traffic cluster, whoever built it.

use madeleine::harness::{Cluster, ClusterSpec, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::json::{obj, Json};
use madeleine::metrics::Fault;
use madeleine::{EngineConfig, ReliabilityMode};
use simnet::{FaultPlan, NodeId, SimDuration, SimTime, SplitMix64, Technology, Topology};

use crate::apps::{FlowSpec, Reply, StatsHandle};
use crate::scenario::traffic;
use crate::workload::{Arrival, SizeDist};

/// The rail technologies a scenario draws from.
pub const RAIL_TECHS: [Technology; 3] = [
    Technology::MyrinetMx,
    Technology::QuadricsElan,
    Technology::TcpEthernet,
];

/// Classes cycled over a host's flows.
const CLASSES: [TrafficClass; 4] = [
    TrafficClass::DEFAULT,
    TrafficClass::BULK,
    TrafficClass::PUT_GET,
    TrafficClass::CONTROL,
];

/// The fabric each rail runs over: a flat pipe between two hosts, or a
/// switched topology built from the rail's own link profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// Two hosts on a flat rail.
    Pair,
    /// `dumbbell(2, 2)`: four hosts, one shared core link.
    Dumbbell,
    /// `fat_tree(4)`: sixteen hosts, full bisection.
    FatTree,
}

/// How a scenario's hosts pick their partners.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Every host runs one flow to host `h + offset` (mod hosts) per
    /// offset.
    Perm(Vec<u32>),
    /// Every host but the last runs this many flows into the last.
    FanIn(u32),
}

/// What each flow's messages are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The benchmark's size mix: bounded Pareto, 256 B–16 KiB, α = 1.2,
    /// behind an 8-byte express header.
    Stream,
    /// [`FlowSpec::rpc`].
    Rpc,
    /// [`FlowSpec::dsm`].
    Dsm,
    /// [`FlowSpec::corba`].
    Corba,
    /// Bulk: 4–64 KiB bodies (bounded Pareto, α = 1.2) behind an 8-byte
    /// express header, past the rendezvous threshold of MX and Elan.
    Bulk,
}

/// The arrival process of every flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pace {
    /// [`Arrival::Poisson`].
    Poisson,
    /// [`Arrival::Periodic`].
    Periodic,
    /// [`Arrival::Burst`] of four messages.
    Burst,
    /// [`Arrival::Closed`]: a one-way shape asks for a 64-byte reply.
    Closed,
}

/// One entry of a scenario's fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEntry {
    /// Every rail loses this many packets per million.
    Loss(u32),
    /// Every rail duplicates this many packets per million.
    Dup(u32),
    /// Every rail holds back this many packets per million by `delay`.
    Reorder(u32, SimDuration),
    /// Rail `rail` dies at `at`.
    Death(usize, SimTime),
}

/// One seeded scenario; see the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The fabric of every rail.
    pub fabric: Fabric,
    /// The rails, in rail order.
    pub rails: Vec<Technology>,
    /// What the wire does.
    pub faults: Vec<FaultEntry>,
    /// The reliability mode of every engine.
    pub reliability: ReliabilityMode,
    /// Message shape of every flow.
    pub shape: Shape,
    /// Arrival process of every flow.
    pub pace: Pace,
    /// Who talks to whom.
    pub pattern: Pattern,
    /// Mean gap between two messages of one sending host.
    pub mean_gap: SimDuration,
    /// Messages all senders send together (replies not counted).
    pub msgs: u64,
    /// Whether the oracles that read a trace run on it.
    pub traced: bool,
    /// Workload and fault seed.
    pub seed: u64,
}

const PPM: f64 = 1e6;

impl Fabric {
    /// Every fabric.
    pub const ALL: [Fabric; 3] = [Fabric::Pair, Fabric::Dumbbell, Fabric::FatTree];

    /// Host count.
    pub fn hosts(self) -> u32 {
        [2, 4, 16][self as usize]
    }
}

impl Shape {
    /// Every shape.
    pub const ALL: [Shape; 5] = [
        Shape::Stream,
        Shape::Rpc,
        Shape::Dsm,
        Shape::Corba,
        Shape::Bulk,
    ];
}

impl Pace {
    /// Every arrival process.
    pub const ALL: [Pace; 4] = [Pace::Poisson, Pace::Periodic, Pace::Burst, Pace::Closed];
}

impl FaultEntry {
    /// Whether the entry loses, duplicates or delays packets (a death
    /// does not: it ends a rail).
    pub fn touches_wire(self) -> bool {
        !matches!(self, FaultEntry::Death(..))
    }

    /// `["loss", ppm]`, `["dup", ppm]`, `["reorder", ppm, delay_ns]` or
    /// `["death", rail, at_ns]`.
    fn to_json(self) -> Json {
        let (kind, a, b) = match self {
            FaultEntry::Loss(ppm) => ("loss", u64::from(ppm), None),
            FaultEntry::Dup(ppm) => ("dup", u64::from(ppm), None),
            FaultEntry::Reorder(ppm, d) => ("reorder", u64::from(ppm), Some(d.as_nanos())),
            FaultEntry::Death(rail, at) => ("death", rail as u64, Some(at.as_nanos())),
        };
        Json::Arr(
            [kind.into(), a.into()]
                .into_iter()
                .chain(b.map(Json::from))
                .collect(),
        )
    }

    fn from_json(doc: &Json) -> Result<FaultEntry, String> {
        let item = |i: usize| doc.as_array().and_then(|a| a.get(i));
        let n = |i: usize| {
            item(i)
                .and_then(Json::as_u64)
                .ok_or("a fault entry lacks a count")
        };
        Ok(match item(0).and_then(Json::as_str) {
            Some("loss") => FaultEntry::Loss(n(1)? as u32),
            Some("dup") => FaultEntry::Dup(n(1)? as u32),
            Some("reorder") => FaultEntry::Reorder(n(1)? as u32, SimDuration::from_nanos(n(2)?)),
            Some("death") => FaultEntry::Death(n(1)? as usize, SimTime::from_nanos(n(2)?)),
            _ => return Err(format!("unknown fault entry {}", doc.render())),
        })
    }
}

fn num(doc: &Json, key: &str) -> Result<u64, String> {
    let n = doc.get(key).and_then(Json::as_u64);
    n.ok_or_else(|| format!("scenario field `{key}` is missing or not a count"))
}

/// The value of `all` that `doc`'s `key` names (by its `Debug` form).
fn named<T: Copy + std::fmt::Debug>(doc: Option<&Json>, key: &str, all: &[T]) -> Result<T, String> {
    let text = doc.and_then(Json::as_str);
    let found = all.iter().find(|v| text == Some(format!("{v:?}").as_str()));
    found
        .copied()
        .ok_or_else(|| format!("scenario field `{key}` is missing or unknown"))
}

fn name(v: impl std::fmt::Debug) -> Json {
    format!("{v:?}").into()
}

impl ScenarioSpec {
    /// The `idx`-th scenario of `seed`. Draws are stratified: the rails,
    /// the reliability mode and the kind of fault plan of draw `idx` are
    /// cell `idx` (mod 66) of a fixed list of every such cell, whose first
    /// twelve are MX + Elan, Elan + MX and MX + TCP × `Off` / `Recover` ×
    /// a clean / faulted wire. Everything else comes from the seed: the
    /// fabric, the workload, a mean gap of 2–60 µs a sending host, 24–2 000
    /// messages, and one draw in two traced.
    pub fn draw(seed: u64, idx: u64) -> ScenarioSpec {
        let mut rng = SplitMix64::new(seed ^ idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let seed = rng.next_u64();
        let cells = cells();
        let (rails, reliability, fault) = cells[idx as usize % cells.len()];
        let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
        let fabric = Fabric::ALL[pick(&mut rng, 3)];
        let (shape, pace) = (Shape::ALL[pick(&mut rng, 5)], Pace::ALL[pick(&mut rng, 4)]);
        let flows = 1 + pick(&mut rng, 4) as u32;
        let pattern = if pick(&mut rng, 2) == 0 {
            Pattern::FanIn(flows)
        } else {
            let hosts = fabric.hosts() as usize;
            Pattern::Perm(
                (0..flows)
                    .map(|_| 1 + pick(&mut rng, hosts - 1) as u32)
                    .collect(),
            )
        };
        let log_uniform = |u: f64, lo: f64, hi: f64| (lo * (hi / lo).powf(u)) as u64;
        let mean_gap = SimDuration::from_nanos(log_uniform(rng.next_f64(), 2e3, 6e4));
        let msgs = log_uniform(rng.next_f64(), 24.0, 2e3);
        let span = mean_gap.as_nanos() * msgs / u64::from(fabric.hosts() - 1);
        let faults = match fault {
            0 => vec![],
            1 => vec![FaultEntry::Loss([10_000, 50_000][pick(&mut rng, 2)])],
            2 => vec![
                FaultEntry::Dup(10_000),
                FaultEntry::Reorder(20_000, SimDuration::from_micros(20)),
            ],
            _ => vec![FaultEntry::Death(
                pick(&mut rng, 2),
                SimTime::from_nanos(span / 10 + rng.next_below(span / 2 + 1)),
            )],
        };
        ScenarioSpec {
            fabric,
            rails: rails.iter().map(|&r| RAIL_TECHS[r]).collect(),
            faults,
            reliability,
            shape,
            pace,
            pattern,
            mean_gap,
            msgs,
            traced: rng.next_below(2) == 0,
            seed,
        }
    }

    /// The hosts that send, in node order.
    pub fn senders(&self) -> std::ops::Range<u32> {
        match self.pattern {
            Pattern::Perm(_) => 0..self.fabric.hosts(),
            Pattern::FanIn(_) => 0..self.fabric.hosts() - 1,
        }
    }

    /// How long the busiest sender takes to offer its messages.
    pub fn offered_span(&self) -> SimDuration {
        let senders = u64::from(self.senders().end);
        self.mean_gap * self.msgs.div_ceil(senders)
    }

    /// Every node's flows, in node order: sender `s` sends its share of
    /// [`ScenarioSpec::msgs`], split over its flows, the earlier ones
    /// taking the remainders.
    pub fn flows(&self) -> Vec<Vec<FlowSpec>> {
        let hosts = self.fabric.hosts();
        let senders = u64::from(self.senders().end);
        let split = |total: u64, parts: u64, i: u64| total / parts + u64::from(i < total % parts);
        self.senders()
            .map(|h| {
                let dsts: Vec<u32> = match &self.pattern {
                    Pattern::Perm(offsets) => offsets.iter().map(|o| (h + o) % hosts).collect(),
                    Pattern::FanIn(n) => vec![hosts - 1; *n as usize],
                };
                let share = split(self.msgs, senders, u64::from(h));
                let n = dsts.len() as u64;
                dsts.iter()
                    .enumerate()
                    .map(|(i, &dst)| FlowSpec {
                        stop_after: Some(split(share, n, i as u64)),
                        ..self.flow(NodeId(dst), CLASSES[i % CLASSES.len()], self.mean_gap * n)
                    })
                    .collect()
            })
            .collect()
    }

    /// One flow to `dst` on `class` (a preset keeps its own), with mean
    /// gap `gap`.
    fn flow(&self, dst: NodeId, class: TrafficClass, gap: SimDuration) -> FlowSpec {
        let mut flow = match self.shape {
            Shape::Stream | Shape::Bulk => {
                let bulk = self.shape == Shape::Bulk;
                let (min, max) = if bulk {
                    (4 << 10, 64 << 10)
                } else {
                    (256, 16 << 10)
                };
                let sizes = SizeDist::Pareto {
                    min,
                    max,
                    alpha: 1.2,
                };
                FlowSpec {
                    class,
                    sizes,
                    ..FlowSpec::eager(dst, gap, 0)
                }
            }
            Shape::Rpc => FlowSpec::rpc(dst, gap),
            Shape::Dsm => FlowSpec::dsm(dst, gap),
            Shape::Corba => FlowSpec {
                class,
                ..FlowSpec::corba(dst, gap)
            },
        };
        flow.arrival = match self.pace {
            Pace::Poisson => Arrival::Poisson(gap),
            Pace::Periodic => Arrival::Periodic(gap),
            Pace::Burst => Arrival::Burst {
                count: 4,
                period: gap * 4,
            },
            Pace::Closed => {
                flow.reply.get_or_insert(Reply {
                    class: TrafficClass::DEFAULT,
                    sizes: SizeDist::Fixed(64),
                });
                Arrival::Closed(gap)
            }
        };
        flow
    }

    /// The cluster the scenario runs on: every engine in the scenario's
    /// reliability mode, defaults otherwise.
    pub fn cluster_spec(&self) -> ClusterSpec {
        let config = EngineConfig {
            reliability: self.reliability,
            ..EngineConfig::default()
        };
        ClusterSpec::new(self.fabric.hosts() as usize, self.rails.clone()).config(config)
    }

    /// Rail `rail`'s fault plan, when the scenario has one for it.
    pub fn fault_plan(&self, rail: usize) -> Option<FaultPlan> {
        let mut plan = FaultPlan::new(self.seed ^ ((rail as u64 + 1) << 32));
        for &entry in &self.faults {
            plan = match entry {
                FaultEntry::Loss(ppm) => plan.with_loss(f64::from(ppm) / PPM),
                FaultEntry::Dup(ppm) => plan.with_dup(f64::from(ppm) / PPM),
                FaultEntry::Reorder(ppm, d) => plan.with_reorder(f64::from(ppm) / PPM, d),
                FaultEntry::Death(r, at) if r == rail => plan.with_death(at),
                FaultEntry::Death(..) => plan,
            };
        }
        (self.faults.iter().any(|f| f.touches_wire()) || plan.die_at.is_some()).then_some(plan)
    }

    /// Rails the fault plan kills.
    pub fn deaths(&self) -> u64 {
        self.faults.iter().filter(|f| !f.touches_wire()).count() as u64
    }

    /// Whether every admitted message must arrive: under `Recover`, or
    /// on a flat pair that nothing kills and whose wire loses nothing (a
    /// switched fabric drops what overflows its queues).
    pub fn lossless(&self) -> bool {
        let lossy = |f: &FaultEntry| matches!(f, FaultEntry::Loss(_) | FaultEntry::Death(..));
        self.reliability == ReliabilityMode::Recover
            || (self.fabric == Fabric::Pair && !self.faults.iter().any(lossy))
    }

    /// The undrained cluster, with every node's stats in node order.
    pub fn build(&self) -> (Cluster, Vec<StatsHandle>) {
        self.build_on(&self.cluster_spec())
    }

    /// [`ScenarioSpec::build`] on `spec`, a variant of
    /// [`ScenarioSpec::cluster_spec`] (traced, say, or with another
    /// configuration).
    pub fn build_on(&self, spec: &ClusterSpec) -> (Cluster, Vec<StatsHandle>) {
        let topos = self.rails.iter().map(|&t| {
            let link = nicdrv::calib::params(t).link_profile();
            match self.fabric {
                Fabric::Pair => None,
                Fabric::Dumbbell => Some(Topology::dumbbell(2, 2, link, link)),
                Fabric::FatTree => Some(Topology::fat_tree(4, link)),
            }
        });
        let (mut cluster, stats) = traffic(spec, topos.collect(), self.flows(), self.seed);
        for rail in 0..self.rails.len() {
            if let Some(plan) = self.fault_plan(rail) {
                cluster.set_fault_plan(rail, plan);
            }
        }
        (cluster, stats)
    }

    /// The scenario as one JSON object; enums are named as they print.
    pub fn to_json(&self) -> Json {
        let list = |v: Vec<Json>| Json::Arr(v);
        let pattern = match &self.pattern {
            Pattern::Perm(o) => obj().field("perm", list(o.iter().map(|&o| o.into()).collect())),
            Pattern::FanIn(n) => obj().field("fan_in", *n),
        };
        obj()
            .field("fabric", name(self.fabric))
            .field("rails", list(self.rails.iter().map(name).collect()))
            .field(
                "faults",
                list(self.faults.iter().map(|f| f.to_json()).collect()),
            )
            .field("reliability", name(self.reliability))
            .field("shape", name(self.shape))
            .field("pace", name(self.pace))
            .field("pattern", pattern.build())
            .field("mean_gap_ns", self.mean_gap.as_nanos())
            .field("msgs", self.msgs)
            .field("traced", self.traced)
            .field("seed", self.seed)
            .build()
    }

    /// Read back what [`ScenarioSpec::to_json`] wrote.
    pub fn from_json(doc: &Json) -> Result<ScenarioSpec, String> {
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap_or_default();
        let field = |key: &str| doc.get(key);
        let pattern = field("pattern").unwrap_or(&Json::Null);
        let offsets = |o: &[Json]| {
            o.iter()
                .filter_map(Json::as_u64)
                .map(|o| o as u32)
                .collect()
        };
        let modes = [ReliabilityMode::Off, ReliabilityMode::Recover];
        Ok(ScenarioSpec {
            fabric: named(field("fabric"), "fabric", &Fabric::ALL)?,
            rails: list("rails")
                .iter()
                .map(|r| named(Some(r), "rails", &RAIL_TECHS))
                .collect::<Result<_, _>>()?,
            faults: list("faults")
                .iter()
                .map(FaultEntry::from_json)
                .collect::<Result<_, _>>()?,
            reliability: named(field("reliability"), "reliability", &modes)?,
            shape: named(field("shape"), "shape", &Shape::ALL)?,
            pace: named(field("pace"), "pace", &Pace::ALL)?,
            pattern: match pattern.get("perm").and_then(Json::as_array) {
                Some(o) => Pattern::Perm(offsets(o)),
                None => Pattern::FanIn(num(pattern, "fan_in")? as u32),
            },
            mean_gap: SimDuration::from_nanos(num(doc, "mean_gap_ns")?),
            msgs: num(doc, "msgs")?,
            traced: field("traced") == Some(&Json::Bool(true)),
            seed: num(doc, "seed")?,
        })
    }
}

/// Every (rails, mode, fault kind) cell a draw can take, rails as indices
/// into [`RAIL_TECHS`] and fault kinds as 0 none, 1 loss, 2 duplication
/// and reordering, 3 the death of one of two rails: the old two-rail
/// grid first, then the rest in a stride that mixes them.
fn cells() -> Vec<(&'static [usize], ReliabilityMode, u8)> {
    const GRID: [&[usize]; 3] = [&[0, 1], &[1, 0], &[0, 2]];
    const REST: [&[usize]; 6] = [&[0], &[1], &[2], &[2, 0], &[1, 2], &[2, 1]];
    let modes = [ReliabilityMode::Off, ReliabilityMode::Recover];
    let mut grid = Vec::new();
    let mut rest = Vec::new();
    for (i, rails) in GRID.iter().chain(&REST).enumerate() {
        for (m, &mode) in modes.iter().enumerate() {
            for fault in 0..4u8 {
                let grid_cell = i < GRID.len() && (fault == 0 || fault == 1 + ((i + m) % 2) as u8);
                if grid_cell {
                    grid.push((*rails, mode, fault));
                } else if fault < 3 || rails.len() == 2 {
                    rest.push((*rails, mode, fault));
                }
            }
        }
    }
    let n = rest.len();
    grid.extend((0..n).map(|k| rest[k * 25 % n]));
    grid
}

/// The safety oracles of a drained cluster whose nodes run the
/// [`TrafficApp`](crate::TrafficApp)s whose `stats` are given, in node
/// order: on every node, every payload intact and each flow's messages
/// in order and once (the [`IntegrityChecker`](crate::IntegrityChecker)),
/// the engine drained at quiescence, and every counter of [`Fault::ALL`]
/// zero — except `rails_dead`, which may count the `killed` rails the
/// fault plan ends. Returns one line per violation.
pub fn safety(cluster: &Cluster, stats: &[StatsHandle], killed: u64) -> Vec<String> {
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
            if n > 0 && !(fault == Fault::RailDead && n <= killed) {
                violations.push(format!("node {node}: {} = {n}", fault.label()));
            }
        }
    }
    violations
}
