//! The six workloads: what each offers, on which cluster, and why.
//!
//! A [`Plan`] is everything the seed decides — the payload pool and every
//! node's flows and message schedule. [`Workload::fixture`] is everything
//! the seed does not decide — rails, fabric, reliability, fault rates.

use crate::gen::{exp_ns_at, pareto_at, payload_pool, place_body, Send, SplitMix64};
use crate::surface::{
    calib, Bytes, EngineConfig, FaultPlan, ReliabilityMode, SimDuration, Technology, Topology,
    TrafficClass,
};

/// The benchmark's workloads, in reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Deep backlog spread over very many flows.
    FlowscaleDrain,
    /// Deep backlog concentrated in eight per-flow queues.
    BurstFewflows,
    /// Closed-loop 64 B request/reply, eight clients.
    RpcPingpong,
    /// Permutation traffic on a 16-host fat tree with acks.
    FabricPerm,
    /// Loss, duplication and reordering on two rails under `Recover`.
    LossyMultirail,
    /// A traced run followed by the whole analysis pipeline.
    ObservePipeline,
}

/// Traffic classes cycled over flows.
const CLASS_CYCLE: [TrafficClass; 4] = [
    TrafficClass::DEFAULT,
    TrafficClass::BULK,
    TrafficClass::PUT_GET,
    TrafficClass::CONTROL,
];

/// Clients (and flows per direction) of `rpc_pingpong`, flows of
/// `burst_fewflows`.
const FEW: usize = 8;

/// Peers each fat-tree host sends to, as offsets modulo the host count.
const PERM_OFFSETS: [usize; 4] = [1, 5, 7, 11];

/// Messages per flow of the two flow-scale workloads.
const MSGS_PER_FLOW: u32 = 3;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::FlowscaleDrain,
        Workload::BurstFewflows,
        Workload::RpcPingpong,
        Workload::FabricPerm,
        Workload::LossyMultirail,
        Workload::ObservePipeline,
    ];

    /// Name as used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowscaleDrain => "flowscale_drain",
            Workload::BurstFewflows => "burst_fewflows",
            Workload::RpcPingpong => "rpc_pingpong",
            Workload::FabricPerm => "fabric_perm",
            Workload::LossyMultirail => "lossy_multirail",
            Workload::ObservePipeline => "observe_pipeline",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The unit of work at scale 1.0: flows for the two flow-scale
    /// workloads, round trips per client for `rpc_pingpong`, messages per
    /// host for `fabric_perm`, messages otherwise. Sized so one repeat
    /// takes about a second of host time on the seed commit.
    fn full_scale(self) -> u32 {
        match self {
            Workload::FlowscaleDrain => 60_000,
            Workload::BurstFewflows => 60_000,
            Workload::RpcPingpong => 20_000,
            Workload::FabricPerm => 4_000,
            Workload::LossyMultirail => 200_000,
            Workload::ObservePipeline => 8_000,
        }
    }

    /// Generate the schedule for `seed` at `scale` (1.0 is the benchmark's
    /// size; tests run at 1/50). Shapes never change with scale, only
    /// message counts.
    pub fn plan(self, seed: u64, scale: f64) -> Plan {
        let n = ((f64::from(self.full_scale()) * scale) as u32).max(8);
        let pool = payload_pool(seed);
        let (nodes, looping) = match self {
            Workload::FlowscaleDrain => (flowscale(seed, n, 256 << 10), Loop::Open),
            Workload::ObservePipeline => (flowscale(seed, n, 16 << 10), Loop::Open),
            Workload::BurstFewflows => (burst(seed, n), Loop::Open),
            Workload::RpcPingpong => (rpc(seed, n), Loop::Closed { rounds: n as usize }),
            Workload::FabricPerm => (fabric_perm(seed, n), Loop::Open),
            Workload::LossyMultirail => (lossy(seed, n), Loop::Open),
        };
        Plan {
            pool,
            nodes,
            looping,
        }
    }

    /// The cluster this workload runs on.
    pub fn fixture(self) -> Fixture {
        let flat = |rails: Vec<Technology>| Fixture {
            nodes: 2,
            rails,
            fat_tree: false,
            reliability: None,
            faults: false,
        };
        match self {
            Workload::FlowscaleDrain => flat(vec![Technology::MyrinetMx, Technology::QuadricsElan]),
            Workload::BurstFewflows | Workload::RpcPingpong | Workload::ObservePipeline => {
                flat(vec![Technology::MyrinetMx])
            }
            Workload::FabricPerm => Fixture {
                nodes: 16,
                rails: vec![Technology::MyrinetMx],
                fat_tree: true,
                // A serialized fan-in outlasts the default 50 us base
                // timeout; 500 us / 16 attempts is what E15 settled on.
                reliability: Some((SimDuration::from_micros(500), 16)),
                faults: false,
            },
            Workload::LossyMultirail => {
                let d = EngineConfig::default();
                Fixture {
                    nodes: 2,
                    rails: vec![Technology::MyrinetMx, Technology::QuadricsElan],
                    fat_tree: false,
                    reliability: Some((d.retransmit_timeout, d.retry_budget)),
                    faults: true,
                }
            }
        }
    }
}

/// The seed-independent part of a workload: its cluster.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// Node count.
    pub nodes: usize,
    /// One rail per technology on every node.
    pub rails: Vec<Technology>,
    /// Rail 0 is a `fat_tree(4)` switched fabric instead of a flat pipe.
    pub fat_tree: bool,
    /// `Recover` with this base timeout and retry budget; `None` is the
    /// paper's lossless assumption (reliability off).
    pub reliability: Option<(SimDuration, u32)>,
    /// Every rail loses 1 %, duplicates 0.5 % and reorders 1 % (by 20 us)
    /// of its packets.
    pub faults: bool,
}

impl Fixture {
    /// The engine configuration every node runs.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig {
            // The oracle sees every message in `on_message`; the engine
            // need not keep a second copy.
            record_deliveries: false,
            ..EngineConfig::default()
        };
        if let Some((timeout, budget)) = self.reliability {
            cfg.reliability = ReliabilityMode::Recover;
            cfg.retransmit_timeout = timeout;
            cfg.retry_budget = budget;
        }
        cfg
    }

    /// The switched fabric of rail 0, when there is one.
    pub fn topology(&self) -> Option<Topology> {
        self.fat_tree
            .then(|| Topology::fat_tree(4, calib::params(self.rails[0]).link_profile()))
    }

    /// The fault plan of rail `rail`, when faults are on. The plan's seed
    /// is fixed: the fault stream is part of the fixture, not of the input.
    pub fn fault_plan(&self, rail: usize) -> Option<FaultPlan> {
        self.faults.then(|| {
            FaultPlan::new(0xFA17 + rail as u64)
                .with_loss(0.01)
                .with_dup(0.005)
                .with_reorder(0.01, SimDuration::from_micros(20))
        })
    }
}

/// One flow a node opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Destination node index.
    pub dst: usize,
    /// Traffic class.
    pub class: TrafficClass,
}

/// One node's share of the plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodePlan {
    /// Flows the node opens, in order.
    pub flows: Vec<FlowSpec>,
    /// Messages the node sends. Open loop: sorted by due time. Closed
    /// loop: client `c`'s round `r` is entry `c * rounds + r`, and the
    /// server's reply to request `i` is its own entry `i`.
    pub sends: Vec<Send>,
}

/// How a plan's messages are paced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loop {
    /// Every message is submitted at its due time regardless of progress.
    Open,
    /// Node 0's flows are clients with one request outstanding each; node
    /// 1 replies to every request. `due_ns` of a request is the think time
    /// after the previous reply.
    Closed {
        /// Round trips per client.
        rounds: usize,
    },
}

/// Everything the seed decides.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The payload pool message bodies are slices of.
    pub pool: Bytes,
    /// Per-node flows and schedule.
    pub nodes: Vec<NodePlan>,
    /// Pacing.
    pub looping: Loop,
}

impl Plan {
    /// Messages offered across all nodes.
    pub fn offered(&self) -> u64 {
        self.nodes.iter().map(|n| n.sends.len() as u64).sum()
    }

    /// Latency samples a complete run yields: one per message in an open
    /// loop, one per round trip in a closed one.
    pub fn latency_samples(&self) -> u64 {
        match self.looping {
            Loop::Open => self.offered(),
            Loop::Closed { .. } => self.nodes[0].sends.len() as u64,
        }
    }
}

/// Message sizes are bounded Pareto with tail index 1.2 throughout, one
/// from each of `n` strata (see [`SplitMix64::strata`]).
fn pareto_sizes(rng: &mut SplitMix64, n: usize, min: u32, max: u32) -> Vec<u32> {
    rng.strata(n, |u| pareto_at(u, min, max, 1.2))
}

/// `n` exponential gaps with the given mean, one from each of `n` strata.
fn exp_gaps(rng: &mut SplitMix64, n: usize, mean_ns: u64) -> Vec<u64> {
    rng.strata(n, |u| exp_ns_at(u, mean_ns))
}

/// `flows` flows from node 0 to node 1, three messages each, classes
/// cycled, bounded-Pareto sizes up to `max_size`, Poisson arrivals with a
/// 400 us mean per flow after a start stagger of up to 2 ms.
fn flowscale(seed: u64, flows: u32, max_size: u32) -> Vec<NodePlan> {
    let msgs = (flows * MSGS_PER_FLOW) as usize;
    let mut rng = SplitMix64::fork(seed, 0);
    let staggers = rng.strata(flows as usize, |u| (u * 2e6) as u64);
    let mut gaps = exp_gaps(&mut rng, msgs, 400_000).into_iter();
    let mut sizes = pareto_sizes(&mut rng, msgs, 64, max_size).into_iter();
    let mut sends = Vec::with_capacity(msgs);
    for (f, stagger) in (0..flows).zip(staggers) {
        let mut due = stagger;
        for ordinal in 0..MSGS_PER_FLOW {
            let (body, off) = place_body(&mut rng, sizes.next().expect("one per message"));
            sends.push(Send {
                due_ns: due,
                flow: f,
                ordinal,
                body,
                off,
            });
            due += gaps.next().expect("one per message");
        }
    }
    // Due time order; ties keep generation order, and a flow's messages
    // are generated in ordinal order.
    sends.sort_by_key(|s| s.due_ns);
    let flows = (0..flows as usize)
        .map(|f| FlowSpec {
            dst: 1,
            class: CLASS_CYCLE[f % CLASS_CYCLE.len()],
        })
        .collect();
    vec![NodePlan { flows, sends }, NodePlan::default()]
}

/// One Poisson stream of messages, one per entry of `sizes`, each on a
/// uniformly drawn flow of `flows`.
fn stream(rng: &mut SplitMix64, sizes: Vec<u32>, flows: usize, mean_gap_ns: u64) -> Vec<Send> {
    let gaps = exp_gaps(rng, sizes.len(), mean_gap_ns);
    let mut ordinals = vec![0u32; flows];
    let mut due = 0u64;
    sizes
        .into_iter()
        .zip(gaps)
        .map(|(size, gap)| {
            due += gap;
            let flow = rng.below(flows as u64) as usize;
            let (body, off) = place_body(rng, size);
            let ordinal = ordinals[flow];
            ordinals[flow] += 1;
            Send {
                due_ns: due,
                flow: flow as u32,
                ordinal,
                body,
                off,
            }
        })
        .collect()
}

/// `msgs` 64-byte messages over eight flows of one class, one per 200 ns
/// on average — about four times what the rail carries.
fn burst(seed: u64, msgs: u32) -> Vec<NodePlan> {
    let mut rng = SplitMix64::fork(seed, 1);
    let sends = stream(&mut rng, vec![64; msgs as usize], FEW, 200);
    let flows = vec![
        FlowSpec {
            dst: 1,
            class: TrafficClass::DEFAULT,
        };
        FEW
    ];
    vec![NodePlan { flows, sends }, NodePlan::default()]
}

/// `msgs` messages of 256 B–16 KiB over 16 flows in four classes, one per
/// 10 us on average.
fn lossy(seed: u64, msgs: u32) -> Vec<NodePlan> {
    let mut rng = SplitMix64::fork(seed, 2);
    let sizes = pareto_sizes(&mut rng, msgs as usize, 256, 16 << 10);
    let sends = stream(&mut rng, sizes, 16, 10_000);
    let flows = (0..16)
        .map(|f| FlowSpec {
            dst: 1,
            class: CLASS_CYCLE[f % CLASS_CYCLE.len()],
        })
        .collect();
    vec![NodePlan { flows, sends }, NodePlan::default()]
}

/// 16 hosts, each sending `msgs` messages of 256 B–16 KiB to hosts
/// +1, +5, +7 and +11, one per 15 us on average per host.
fn fabric_perm(seed: u64, msgs: u32) -> Vec<NodePlan> {
    const HOSTS: usize = 16;
    (0..HOSTS)
        .map(|h| {
            let mut rng = SplitMix64::fork(seed, 0x100 + h as u64);
            let sizes = pareto_sizes(&mut rng, msgs as usize, 256, 16 << 10);
            let sends = stream(&mut rng, sizes, PERM_OFFSETS.len(), 15_000);
            let flows = PERM_OFFSETS
                .iter()
                .map(|off| FlowSpec {
                    dst: (h + off) % HOSTS,
                    class: TrafficClass::DEFAULT,
                })
                .collect();
            NodePlan { flows, sends }
        })
        .collect()
}

/// Eight clients on node 0, `rounds` round trips each of a 64-byte request
/// and a 64-byte reply. Each client starts within the first 10 us and
/// thinks for an exponential 1 us between a reply and its next request.
fn rpc(seed: u64, rounds: u32) -> Vec<NodePlan> {
    let mut requests = Vec::with_capacity(FEW * rounds as usize);
    let mut replies = Vec::with_capacity(FEW * rounds as usize);
    for c in 0..FEW as u32 {
        let mut rng = SplitMix64::fork(seed, 0x200 + u64::from(c));
        let mut thinks = exp_gaps(&mut rng, rounds as usize, 1_000);
        thinks[0] = rng.below(10_000);
        for (ordinal, think) in (0..rounds).zip(thinks) {
            for (list, due_ns) in [(&mut requests, think), (&mut replies, 0)] {
                let (body, off) = place_body(&mut rng, 64);
                list.push(Send {
                    due_ns,
                    flow: c,
                    ordinal,
                    body,
                    off,
                });
            }
        }
    }
    let flows_to = |dst| {
        vec![
            FlowSpec {
                dst,
                class: TrafficClass::DEFAULT,
            };
            FEW
        ]
    };
    vec![
        NodePlan {
            flows: flows_to(1),
            sends: requests,
        },
        NodePlan {
            flows: flows_to(0),
            sends: replies,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for w in Workload::ALL {
            let a = w.plan(11, 0.02);
            let b = w.plan(11, 0.02);
            let c = w.plan(12, 0.02);
            assert_eq!(a.nodes, b.nodes, "{}", w.name());
            assert_eq!(a.pool, b.pool);
            assert_ne!(a.nodes, c.nodes, "{}", w.name());
        }
    }

    #[test]
    fn open_loop_schedules_are_sorted_with_ordinals_in_flow_order() {
        for w in Workload::ALL {
            let plan = w.plan(5, 0.02);
            if plan.looping != Loop::Open {
                continue;
            }
            for node in &plan.nodes {
                assert!(node.sends.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
                let mut next = vec![0u32; node.flows.len()];
                for s in &node.sends {
                    assert_eq!(s.ordinal, next[s.flow as usize], "{}", w.name());
                    next[s.flow as usize] += 1;
                }
            }
        }
    }

    #[test]
    fn shapes_hold_at_any_scale() {
        let p = Workload::FlowscaleDrain.plan(1, 0.02);
        assert_eq!(p.nodes[0].sends.len(), p.nodes[0].flows.len() * 3);
        let p = Workload::FabricPerm.plan(1, 0.02);
        assert_eq!(p.nodes.len(), 16);
        assert!(p.nodes.iter().all(|n| n.flows.len() == 4));
        assert!(p.nodes[3].flows.iter().map(|f| f.dst).eq([4, 8, 10, 14]));
        let p = Workload::RpcPingpong.plan(1, 0.02);
        assert_eq!(p.nodes[0].sends.len(), p.nodes[1].sends.len());
        assert_eq!(p.latency_samples() * 2, p.offered());
        let p = Workload::LossyMultirail.plan(1, 0.02);
        assert!(p.nodes[0].sends.iter().all(|s| s.body + 16 <= 16 << 10));
    }
}
