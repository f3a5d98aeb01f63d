//! Kernels: each layer's public function timed from outside, on inputs
//! shaped like the workload's traced run — its backlog, its active flows
//! and per-flow queue depth, its chunks per packet and chunk size, its
//! peak concurrent fabric transfers. The seven Criterion benches under
//! `crates/bench/benches` are the inventory these were taken from.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::gen::{payload_pool, HEADER_BYTES};
use crate::run::{Outcome, Rig, SliceSamples};
use crate::spans::Spans;
use crate::stats::median;
use crate::surface::{
    calib, decode_packet, encode_packet, flow_hash, max_min_rates, select_plan, validate_plan,
    Bytes, ChannelId, ChunkHeader, CollectLayer, CostModel, DecodedChunk, DriverCapabilities,
    EngineConfig, EngineEvent, EngineMetrics, EventKind, EventQueue, EventSink, FlowId, Fragment,
    MessageBuilder, NicId, NodeId, OptContext, PackMode, PendingTx, PlanBody, PlannedChunk,
    RailTick, Receiver, RetransmitTracker, Sampler, SimDuration, SimTime, StrategyRegistry,
    Technology, TickStats, Topology, TrafficClass, WireChunk, WirePacket,
};

/// Most pending messages a kernel's backlog is built with. Deeper
/// backlogs than this are scaled down by dropping flows, never by
/// shortening the per-flow queues the scans walk.
const MAX_BACKLOG_MSGS: usize = 50_000;

/// The inputs' shape, read off a traced run.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Technology of rail 0.
    pub tech: Technology,
    /// Rails per node.
    pub rails: usize,
    /// Whether rail 0 is a fat tree.
    pub fat_tree: bool,
    /// Flows with pending messages at the busiest sender, on average.
    pub active_flows: usize,
    /// Pending messages per active flow, on average.
    pub queue_depth: usize,
    /// Chunks per data packet, rounded.
    pub chunks_per_packet: usize,
    /// Mean chunk payload bytes.
    pub chunk_bytes: usize,
    /// Mean message body bytes.
    pub body_bytes: usize,
    /// Body sizes of the busiest sender's first messages, in schedule
    /// order: what its backlog is made of.
    pub bodies: Vec<u32>,
    /// Most fabric transfers in flight at a slice boundary.
    pub peak_transfers: usize,
    /// Whether most multi-chunk packets were linearized.
    pub linearize: bool,
    /// How long a message has waited when the optimizer looks at it: the
    /// run's median latency. A data plan's score grows with the age of
    /// its chunks, so this decides whether rendezvous requests ever win.
    pub age_ns: u64,
    /// Fragment size from which the engine asks for a rendezvous: the
    /// smallest hint of the rails, as `EngineCore::rndv_threshold_for`
    /// picks it.
    pub rndv_threshold: u64,
}

impl Shape {
    /// Read the shape off a finished traced run.
    pub fn of(rig: &Rig, outcome: &Outcome, slices: &SliceSamples) -> Shape {
        let c = &outcome.counts;
        let fixture = rig.workload.fixture();
        // Messages (of two fragments) the optimizer found pending when it
        // was activated. A full lookahead window says nothing about what
        // lay behind it; there the sampler's mean backlog of the busiest
        // sender does. Its rows are taken every 50 us whether or not the
        // optimizer ran, so on a shallow backlog they would overstate what
        // a selection saw.
        let window = fixture.engine_config().lookahead_window as f64;
        let mean_backlog_msgs = if c.backlog_depth_mean < 0.9 * window {
            (c.backlog_depth_mean / 2.0).ceil() as usize
        } else {
            rig.cluster
                .handles
                .iter()
                .filter_map(|h| h.opt()?.sampler_snapshot())
                .map(|s| {
                    let busy: Vec<u64> = s
                        .rows()
                        .map(|r| r.stats.backlog_msgs)
                        .filter(|&m| m > 0)
                        .collect();
                    busy.iter().sum::<u64>() / busy.len().max(1) as u64
                })
                .max()
                .unwrap_or(0) as usize
        }
        .max(1);
        let plan = &rig.shared.plan;
        let flows = plan.nodes.iter().map(|n| n.flows.len()).max().unwrap_or(1);
        let busiest = plan
            .nodes
            .iter()
            .max_by_key(|n| n.sends.len())
            .expect("a plan has nodes");
        let active_flows = flows.min(mean_backlog_msgs);
        let per = |num: u64, den: u64| (num / den.max(1)).max(1) as usize;
        Shape {
            tech: fixture.rails[0],
            rails: fixture.rails.len(),
            fat_tree: fixture.fat_tree,
            active_flows,
            queue_depth: mean_backlog_msgs.div_ceil(active_flows),
            chunks_per_packet: ((c.chunks_sent as f64 / c.packets_sent.max(1) as f64).round()
                as usize)
                .clamp(1, 16),
            chunk_bytes: per(c.delivered_bytes, c.receiver_chunks),
            body_bytes: per(c.submitted_bytes, c.submitted_msgs)
                .saturating_sub(HEADER_BYTES)
                .max(1),
            bodies: busiest
                .sends
                .iter()
                .take(MAX_BACKLOG_MSGS)
                .map(|s| s.body)
                .collect(),
            peak_transfers: slices.peak_transfers.max(1) as usize,
            linearize: c.linearized_packets * 2 > c.packets_sent,
            age_ns: outcome.lat_p50_ns,
            rndv_threshold: fixture
                .rails
                .iter()
                .map(|&tech| calib::capabilities(tech).rndv_threshold_hint)
                .min()
                .expect("a fixture has rails"),
        }
    }
}

/// Nanoseconds per call of every kernel, named `<layer>_<function>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimes {
    pub message_pack: f64,
    pub collect_submit: f64,
    pub collect_candidates: f64,
    pub collect_complete: f64,
    pub optimizer_select_plan: f64,
    pub constraints_validate_plan: f64,
    pub proto_encode: f64,
    pub proto_decode: f64,
    pub receiver_on_chunk: f64,
    pub event_push_pop: f64,
    pub topo_max_min: f64,
    pub topo_route: f64,
    pub reliability_track_ack: f64,
    pub metrics_record_delivery: f64,
    pub trace_emit: f64,
    pub scope_tick: f64,
}

/// Number of kernels [`run_all`] times.
const KERNELS: f64 = 16.0;

/// Runs batches of one kernel until its time is up; reports the median
/// batch in ns per call.
struct Timer<'a> {
    budget: Duration,
    spans: &'a mut Spans,
}

impl Timer<'_> {
    /// `batch` prepares its input, then returns the time its measured part
    /// took and how many calls that covered. Preparation counts against
    /// the budget but not against the result.
    fn measure(&mut self, name: &'static str, mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
        let start = Instant::now();
        let mut per_call = Vec::new();
        while per_call.len() < 3 || (start.elapsed() < self.budget && per_call.len() < 64) {
            let span = self.spans.open(name);
            let (took, calls) = batch();
            self.spans.close(span);
            per_call.push(took.as_nanos() as f64 / calls.max(1) as f64);
        }
        median(&per_call)
    }
}

/// Time `calls` invocations of `f`.
fn time_calls(calls: u64, mut f: impl FnMut(u64)) -> (Duration, u64) {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    (t0.elapsed(), calls)
}

/// A collect layer holding the shape's backlog: `active` flows with
/// `depth` pending two-fragment messages each.
struct Backlog<'a> {
    collect: CollectLayer,
    flows: Vec<FlowId>,
    depth: usize,
    /// `(header, body)` lengths of every message, in submission order.
    lens: Vec<[u32; 2]>,
    shape: &'a Shape,
    /// Fragments of this size and above wait for a rendezvous.
    rndv_threshold: u64,
    pool: Bytes,
}

/// The part of a turn of the refill loop that a pass times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Candidates,
    SelectPlan,
    ValidatePlan,
}

/// What the optimizer is told about the rail it plans for.
struct Rail {
    caps: DriverCapabilities,
    cost: CostModel,
    mtu: u64,
    rails: usize,
    config: EngineConfig,
    registry: StrategyRegistry,
}

impl<'a> Backlog<'a> {
    fn build(shape: &'a Shape, pool: &Bytes, rndv_threshold: u64) -> Backlog<'a> {
        let depth = shape.queue_depth.min(MAX_BACKLOG_MSGS);
        let active = shape.active_flows.min(MAX_BACKLOG_MSGS / depth).max(1);
        let mut collect = CollectLayer::new();
        let classes = [
            TrafficClass::DEFAULT,
            TrafficClass::BULK,
            TrafficClass::PUT_GET,
            TrafficClass::CONTROL,
        ];
        let flows: Vec<FlowId> = (0..active)
            .map(|i| collect.open_flow(NodeId(1), classes[i % classes.len()]))
            .collect();
        let mut b = Backlog {
            collect,
            flows,
            depth,
            lens: Vec::with_capacity(depth * active),
            shape,
            rndv_threshold,
            pool: pool.clone(),
        };
        for _ in 0..depth * active {
            b.submit_next();
        }
        b
    }

    /// Submit one more message: flows take turns, sizes follow the run's
    /// schedule.
    fn submit_next(&mut self) {
        let n = self.lens.len();
        let body = self.shape.bodies[n % self.shape.bodies.len()];
        let parts = self.parts(body);
        self.lens.push([HEADER_BYTES as u32, body]);
        self.collect.submit(
            self.flows[n % self.flows.len()],
            parts,
            SimTime::from_nanos(n as u64),
            self.rndv_threshold,
        );
    }

    /// `turns` turns of the engine's refill loop without the simulator:
    /// take the window, select a plan, carry the winner out (commit and
    /// complete its chunks, or request and grant its rendezvous), and
    /// submit as many messages as it finished. The backlog keeps the run's
    /// depth, and the window holds what earlier plans left behind — on
    /// `flowscale_drain` mostly rendezvous requests no plan has won yet,
    /// which leave few slots for data and make a standing window much
    /// cheaper to plan than a freshly built one. Only `stage` is timed.
    fn refill_loop(&mut self, rail: &Rail, turns: u64, stage: Stage) -> (Duration, u64) {
        let mut took = Duration::ZERO;
        let mut timed = |this: Stage, t0: Instant| {
            if this == stage {
                took += t0.elapsed();
            }
        };
        for _ in 0..turns {
            let t0 = Instant::now();
            let groups = self.collect.collect_candidates(
                ChannelId(0),
                rail.config.lookahead_window,
                |_, _| true,
            );
            timed(Stage::Candidates, t0);
            let ctx = OptContext {
                now: SimTime::from_nanos(self.lens.len() as u64 + self.shape.age_ns),
                channel: ChannelId(0),
                caps: &rail.caps,
                cost: &rail.cost,
                config: &rail.config,
                groups: &groups,
                packet_limit: rail.mtu.min(rail.caps.max_packet_bytes),
                rail_count: rail.rails,
                health_penalty: 1.0,
            };
            let t0 = Instant::now();
            let outcome = select_plan(
                &rail.registry,
                &ctx,
                &self.collect,
                rail.mtu,
                rail.config.rearrange_budget,
            );
            timed(Stage::SelectPlan, t0);
            let plan = outcome
                .best
                .expect("a non-empty backlog yields a plan")
                .plan;
            let t0 = Instant::now();
            black_box(validate_plan(&plan, &self.collect, &rail.caps, rail.mtu)).ok();
            timed(Stage::ValidatePlan, t0);
            match &plan.body {
                PlanBody::Data { chunks, .. } => {
                    let mut finished = 0;
                    for c in chunks {
                        self.collect.commit_chunk(c, ChannelId(0));
                        finished += usize::from(self.collect.complete_chunk(c));
                    }
                    for _ in 0..finished {
                        self.submit_next();
                    }
                }
                // The grant is a round trip away in the run; here it
                // arrives at once.
                &PlanBody::RndvRequest { flow, seq, frag } => {
                    self.collect.mark_rndv_requested(flow, seq, frag);
                    self.collect.grant_rndv(flow, seq, frag);
                }
            }
        }
        (took, turns)
    }

    fn parts(&self, body: u32) -> Vec<Fragment> {
        MessageBuilder::new()
            .pack_express(&[7u8; HEADER_BYTES])
            .pack_bytes(self.pool.slice(0..body as usize), PackMode::Cheaper)
            .build_parts()
    }
}

/// Run every kernel on inputs of `shape`, spending about `seconds` in all.
pub fn run_all(shape: &Shape, seconds: f64, spans: &mut Spans) -> KernelTimes {
    let mut t = Timer {
        budget: Duration::from_secs_f64(seconds / KERNELS),
        spans,
    };
    let pool = payload_pool(1);
    let mut k = KernelTimes::default();
    let cfg = EngineConfig::default();
    let params = calib::params(shape.tech);

    k.message_pack = t.measure("kernel.message.pack", || {
        let body = pool.slice(0..shape.body_bytes.min(pool.len()));
        time_calls(2_000, |_| {
            black_box(
                MessageBuilder::new()
                    .pack_express(black_box(&[7u8; HEADER_BYTES]))
                    .pack_bytes(body.clone(), PackMode::Cheaper)
                    .build_parts(),
            );
        })
    });

    let mut backlog = Backlog::build(shape, &pool, shape.rndv_threshold);
    k.collect_submit = t.measure("kernel.collect.submit", || {
        // Submitted messages stay: the backlog drifts above the shape by
        // at most 64 messages per batch.
        let flows = backlog.flows.len();
        let parts: Vec<_> = (0..64)
            .map(|i| backlog.parts(shape.bodies[i % shape.bodies.len()]))
            .collect();
        let mut parts = parts.into_iter();
        time_calls(64, |i| {
            let flow = backlog.flows[i as usize % flows];
            black_box(backlog.collect.submit(
                flow,
                parts.next().expect("64 prepared"),
                SimTime::from_nanos(i),
                shape.rndv_threshold,
            ));
        })
    });

    let rail = Rail {
        caps: calib::capabilities(shape.tech),
        cost: CostModel::from_params(&params),
        mtu: params.mtu,
        rails: shape.rails,
        registry: StrategyRegistry::standard(&cfg),
        config: cfg,
    };
    let mut backlog = Backlog::build(shape, &pool, shape.rndv_threshold);
    k.collect_candidates = t.measure("kernel.collect.candidates", || {
        backlog.refill_loop(&rail, 100, Stage::Candidates)
    });
    k.optimizer_select_plan = t.measure("kernel.optimizer.select_plan", || {
        backlog.refill_loop(&rail, 100, Stage::SelectPlan)
    });
    k.constraints_validate_plan = t.measure("kernel.constraints.validate_plan", || {
        backlog.refill_loop(&rail, 100, Stage::ValidatePlan)
    });

    // Commit and complete whole fragments of the oldest message of each
    // flow in turn, as the engine does when a packet's injection ends.
    // Everything eager: rendezvous state would gate the commits.
    k.collect_complete = t.measure("kernel.collect.complete", || {
        let mut b = Backlog::build(shape, &pool, u64::MAX);
        let active = b.flows.len();
        let msgs = (active * b.depth).min(512);
        let chunks: Vec<PlannedChunk> = (0..msgs)
            .flat_map(|m| {
                let (flow, seq, lens) = (b.flows[m % active], (m / active) as u32, b.lens[m]);
                (0..2).map(move |frag| PlannedChunk {
                    flow,
                    seq,
                    frag,
                    offset: 0,
                    len: lens[frag as usize],
                })
            })
            .collect();
        let t0 = Instant::now();
        for c in &chunks {
            b.collect.commit_chunk(c, ChannelId(0));
            black_box(b.collect.complete_chunk(c));
        }
        (t0.elapsed(), chunks.len() as u64)
    });

    let wire_chunks: Vec<WireChunk> = (0..shape.chunks_per_packet)
        .map(|i| {
            let len = shape.chunk_bytes.min(pool.len());
            WireChunk {
                header: chunk_header(i as u32 % 8, i as u32 / 8, len),
                data: pool.slice(0..len),
            }
        })
        .collect();
    k.proto_encode = t.measure("kernel.proto.encode", || {
        time_calls(1_000, |_| {
            black_box(encode_packet(black_box(&wire_chunks), shape.linearize));
        })
    });
    let packet = WirePacket {
        src: NodeId(0),
        dst: NodeId(1),
        src_nic: NicId(0),
        dst_nic: NicId(1),
        vchan: 0,
        kind: 1,
        cookie: 0,
        seq: 0,
        ecn: false,
        payload: encode_packet(&wire_chunks, shape.linearize),
    };
    k.proto_decode = t.measure("kernel.proto.decode", || {
        time_calls(1_000, |_| {
            black_box(decode_packet(black_box(&packet)).expect("own encoding decodes"));
        })
    });

    let rx_flows = shape.active_flows.clamp(1, 1024) as u32;
    let decoded: Vec<DecodedChunk> = (0..4_096u32)
        .map(|i| {
            let len = shape.chunk_bytes.min(pool.len());
            DecodedChunk {
                header: chunk_header(i % rx_flows, i / rx_flows, len),
                data: pool.slice(0..len),
            }
        })
        .collect();
    k.receiver_on_chunk = t.measure("kernel.receiver.on_chunk", || {
        let mut r = Receiver::new();
        let t0 = Instant::now();
        for chunk in &decoded {
            black_box(r.on_chunk(NodeId(0), chunk, SimTime::from_nanos(1)));
        }
        (t0.elapsed(), decoded.len() as u64)
    });

    // One push and one pop against a resident queue: in-flight packets
    // each hold an event, and so does every armed timer.
    let resident = 64 + shape.peak_transfers;
    k.event_push_pop = t.measure("kernel.event.push_pop", || {
        let mut q = EventQueue::new();
        let mut lcg = 1u64;
        let mut next = |now: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            SimTime::from_nanos(now + (lcg >> 44))
        };
        for _ in 0..resident {
            let at = next(0);
            q.push(at, EventKind::TxEngineDone { nic: NicId(0) });
        }
        time_calls(20_000, |_| {
            let now = q.pop().expect("resident events").at.as_nanos();
            let at = next(now);
            q.push(at, EventKind::TxEngineDone { nic: NicId(0) });
        })
    });

    // Flat rails have no fabric; their kernels run on the smallest one so
    // the row is never empty, and their share is 0 by the call count.
    let link = params.link_profile();
    let topo = if shape.fat_tree {
        Topology::fat_tree(4, link)
    } else {
        Topology::dumbbell(1, 1, link, link)
    };
    let hosts = topo.hosts();
    let pair = |i: u32| {
        let src = i % hosts;
        (src, (src + [1, 5, 7, 11][(i / hosts) as usize % 4]) % hosts)
    };
    let capacities: Vec<u64> = topo.links().iter().map(|l| l.profile.bandwidth).collect();
    let routes: Vec<Vec<usize>> = (0..shape.peak_transfers as u32)
        .map(|i| {
            let (src, dst) = pair(i);
            topo.route(src, dst, flow_hash(src, dst, 0))
                .expect("hosts of one fabric are connected")
        })
        .collect();
    k.topo_max_min = t.measure("kernel.topo.max_min", || {
        time_calls(500, |_| {
            black_box(max_min_rates(black_box(&capacities), black_box(&routes)));
        })
    });
    k.topo_route = t.measure("kernel.topo.route", || {
        time_calls(2_000, |i| {
            let (src, dst) = pair(i as u32);
            black_box(topo.route(src, dst, flow_hash(src, dst, i as u16)));
        })
    });

    let planned: Vec<PlannedChunk> = (0..shape.chunks_per_packet as u32)
        .map(|i| PlannedChunk {
            flow: FlowId(i),
            seq: 0,
            frag: 1,
            offset: 0,
            len: shape.chunk_bytes as u32,
        })
        .collect();
    k.reliability_track_ack = t.measure("kernel.reliability.track_ack", || {
        let mut tracker = RetransmitTracker::new();
        let pending = |cookie: u64| PendingTx {
            chunks: planned.clone(),
            dst: NodeId(1),
            rail: 0,
            linearize: false,
            sent_at: SimTime::from_nanos(cookie),
            deadline: SimTime::from_nanos(cookie + 50_000),
            attempts: 1,
        };
        // A window of packets stays unacknowledged, as on a busy rail.
        for cookie in 0..32 {
            tracker.track(cookie, pending(cookie));
        }
        time_calls(5_000, |i| {
            tracker.track(i + 32, pending(i + 32));
            black_box(tracker.next_deadline());
            black_box(tracker.acked(i));
        })
    });

    k.metrics_record_delivery = t.measure("kernel.metrics.record_delivery", || {
        let mut m = EngineMetrics::default();
        let flows = shape.active_flows.max(1) as u64;
        time_calls(20_000, |i| {
            m.record_delivery(
                TrafficClass((i % 4) as u8),
                FlowId((i % flows) as u32),
                Some(i as usize % shape.rails),
                shape.body_bytes as u64,
                SimDuration::from_nanos(i % 100_000 + 1),
            );
        })
    });

    k.trace_emit = t.measure("kernel.trace.emit", || {
        let mut sink = EventSink::with_capacity(1 << 16);
        time_calls(50_000, |i| {
            sink.push(
                SimTime::from_nanos(i),
                EngineEvent::ChunkBound {
                    flow: FlowId(i as u32 % 8),
                    seq: i as u32,
                    frag: 1,
                    cookie: i,
                    bytes: shape.chunk_bytes as u64,
                },
            );
        })
    });

    k.scope_tick = t.measure("kernel.scope.tick", || {
        let mut sampler = Sampler::new(SimDuration::from_micros(50), 4096, shape.rails);
        let rails: Vec<RailTick> = (0..shape.rails)
            .map(|r| RailTick {
                busy: r == 0,
                health_milli: 1000,
                dead: false,
            })
            .collect();
        time_calls(10_000, |i| {
            let stats = TickStats {
                backlog_bytes: i * 64 % 8192,
                backlog_msgs: i % 32,
                submitted_msgs: i,
                ..TickStats::default()
            };
            black_box(sampler.record_tick(SimTime::from_nanos(i * 50_000), stats, &rails, false));
        })
    });
    k
}

fn chunk_header(flow: u32, seq: u32, len: usize) -> ChunkHeader {
    ChunkHeader {
        flow: FlowId(flow),
        msg_seq: seq,
        frag_index: 0,
        frag_count: 1,
        express: false,
        class: TrafficClass::DEFAULT,
        frag_len: len as u32,
        offset: 0,
        chunk_len: len as u32,
        submit_ns: 0,
    }
}
