//! The one traffic application and its statistics.
//!
//! [`TrafficApp`] is the workhorse of the experiment harness: a set of
//! [`FlowSpec`]s, each an independent message stream with its own arrival
//! process, size distribution and traffic class — "complex conglomerates of
//! multiple communication middlewares ... increasing the number of
//! concurrent communication flows between processing nodes" (§1) in
//! distilled form. The middlewares themselves are shapes of a stream:
//! [`FlowSpec::rpc`] and [`FlowSpec::dsm`] are requests that every
//! `TrafficApp` answers (see [`Reply`]), [`FlowSpec::corba`] a one-way
//! invocation of several marshalled arguments.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, MsgId, MsgSeq, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder, PackMode};
use rand::rngs::StdRng;
use simnet::{NodeId, SimDuration, SimTime, Summary};

use crate::verify::{pattern, IntegrityChecker};
use crate::workload::{rng_for, Arrival, SizeDist};

/// Shared, externally inspectable statistics of one app instance.
#[derive(Debug, Default)]
pub struct AppStats {
    /// Messages sent, replies included.
    pub sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Request→reply round-trip times in microseconds, one summary per
    /// [`FlowSpec`] in the order given (empty for flows without a reply).
    pub rtt_us: Vec<Summary>,
    /// End-to-end integrity verification of received payloads.
    pub integrity: IntegrityChecker,
    /// Time of last receipt.
    pub last_recv: SimTime,
}

/// Shared handle to [`AppStats`].
pub type StatsHandle = Rc<RefCell<AppStats>>;

/// One generated message stream.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Destination node.
    pub dst: NodeId,
    /// Traffic class.
    pub class: TrafficClass,
    /// Arrival process.
    pub arrival: Arrival,
    /// Size of each body fragment; a size of 0 packs no fragment.
    pub sizes: SizeDist,
    /// Bytes of express header prepended to each message (0 = none).
    pub express_header: usize,
    /// How many body fragments a message has.
    pub body_frags: SizeDist,
    /// The answer each message asks of its receiver (`None`: one-way).
    /// A request carries its tag in the express header, which must be at
    /// least 4 bytes long.
    pub reply: Option<Reply>,
    /// Stop after this many messages (`None` = run forever).
    pub stop_after: Option<u64>,
    /// Delay before the first arrival is scheduled (phased workloads).
    pub start_after: SimDuration,
}

/// The answer a request asks for: one message on `class` with a
/// [`REPLY_HEADER_BYTES`] express header and a body of a size drawn from
/// `sizes` by the requester, which carries it to the responder in its
/// header as a `u16` (so at most 65 535 bytes).
#[derive(Clone, Debug)]
pub struct Reply {
    /// Traffic class of the reply flow.
    pub class: TrafficClass,
    /// Reply body size.
    pub sizes: SizeDist,
}

/// Bytes of a DSM page.
pub const PAGE_BYTES: usize = 4096;

impl FlowSpec {
    /// A simple eager stream: Poisson arrivals of fixed-size messages with
    /// an 8-byte express header.
    pub fn eager(dst: NodeId, mean_gap: SimDuration, size: usize) -> Self {
        FlowSpec {
            dst,
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(mean_gap),
            sizes: SizeDist::Fixed(size),
            express_header: 8,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: None,
            start_after: SimDuration::ZERO,
        }
    }

    /// RPC, one of the "irregular communication schemes" of §2: a 12-byte
    /// express request id + method header the server reads before the
    /// 16–512 B of arguments, answered by a 256 B result.
    pub fn rpc(dst: NodeId, mean_gap: SimDuration) -> Self {
        FlowSpec {
            sizes: SizeDist::Uniform(16, 512),
            express_header: 12,
            reply: Some(Reply {
                class: TrafficClass::DEFAULT,
                sizes: SizeDist::Fixed(256),
            }),
            ..FlowSpec::eager(dst, mean_gap, 0)
        }
    }

    /// A DSM page fault: a 4-byte latency-critical request on `CONTROL`
    /// with no body, answered by a 4 KiB page on `BULK` — the mix of tiny
    /// urgent messages and bulk ones that class separation (E6) is about.
    pub fn dsm(dst: NodeId, mean_gap: SimDuration) -> Self {
        FlowSpec {
            class: TrafficClass::CONTROL,
            express_header: 4,
            reply: Some(Reply {
                class: TrafficClass::BULK,
                sizes: SizeDist::Fixed(PAGE_BYTES),
            }),
            ..FlowSpec::eager(dst, mean_gap, 0)
        }
    }

    /// A one-way CORBA-style invocation: a 12-byte GIOP-like express
    /// header and 1–5 marshalled arguments of 8–256 B, each a fragment of
    /// its own — small, numerous, a target for gather vs copy (E10).
    pub fn corba(dst: NodeId, mean_gap: SimDuration) -> Self {
        FlowSpec {
            sizes: SizeDist::Uniform(8, 256),
            express_header: 12,
            body_frags: SizeDist::Uniform(1, 5),
            ..FlowSpec::eager(dst, mean_gap, 0)
        }
    }
}

/// Bytes of a request's tag: kind, reply class, reply size (`u16`).
const REQUEST_TAG_BYTES: usize = 4;
/// Bytes of a reply's express header: kind, 3 bytes of padding, then the
/// request's flow and sequence number (`u32` each).
pub const REPLY_HEADER_BYTES: usize = 12;
const REQUEST: u8 = 1;
const REPLY: u8 = 2;

/// What the front of a message's express header says. The sender XORs
/// the tag over [`pattern`]`(flow, seq, 0, ..)`, the bytes a header of no
/// tag is made of: a plain stream's header and a replayed trace's
/// fragment unmask to zeros, which read as no tag at all.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tag {
    /// Answer with `size` bytes on a flow of `class`.
    Request { class: TrafficClass, size: usize },
    /// The answer to this request.
    Reply(MsgId),
}

impl Tag {
    fn encode(self) -> Vec<u8> {
        match self {
            Tag::Request { class, size } => {
                let size = u16::try_from(size).expect("a reply body fits in a u16");
                let [lo, hi] = size.to_le_bytes();
                vec![REQUEST, class.0, lo, hi]
            }
            Tag::Reply(id) => [
                [REPLY, 0, 0, 0],
                id.flow.0.to_le_bytes(),
                id.seq.0.to_le_bytes(),
            ]
            .concat(),
        }
    }

    fn decode(tag: &[u8]) -> Option<Tag> {
        match *tag {
            [REQUEST, class, lo, hi, ..] => Some(Tag::Request {
                class: TrafficClass(class),
                size: u16::from_le_bytes([lo, hi]).into(),
            }),
            [REPLY, _, _, _, f0, f1, f2, f3, s0, s1, s2, s3, ..] => Some(Tag::Reply(MsgId {
                flow: FlowId(u32::from_le_bytes([f0, f1, f2, f3])),
                seq: MsgSeq(u32::from_le_bytes([s0, s1, s2, s3])),
            })),
            _ => None,
        }
    }

    /// The tag `msg` carries, if its first fragment is an express header.
    fn read(msg: &DeliveredMessage) -> Option<Tag> {
        match msg.fragments.first()? {
            (PackMode::Express, hdr) => {
                let pad = pattern(msg.id.flow.0, msg.id.seq.0, 0, REPLY_HEADER_BYTES);
                let tag: Vec<u8> = hdr.iter().zip(pad).map(|(h, p)| h ^ p).collect();
                Tag::decode(&tag)
            }
            _ => None,
        }
    }
}

struct FlowRt {
    flow: FlowId,
    /// Messages sent, which is the next one's sequence number.
    sent: u32,
    /// Messages due at the flow's next timer: the count `Arrival::next`
    /// drew with its delay.
    due: u32,
}

impl FlowRt {
    fn open(api: &mut dyn CommApi, dst: NodeId, class: TrafficClass) -> Self {
        FlowRt {
            flow: api.open_flow(dst, class),
            sent: 0,
            due: 0,
        }
    }

    /// Submit a message: an express header of `header` bytes with `tag`
    /// masked over its front, then one `Cheaper` fragment per non-zero
    /// length `body` yields.
    fn submit(
        &mut self,
        api: &mut dyn CommApi,
        stats: &StatsHandle,
        header: usize,
        tag: Option<Tag>,
        body: impl Iterator<Item = usize>,
    ) -> MsgId {
        let id = MsgId {
            flow: self.flow,
            seq: MsgSeq(self.sent),
        };
        self.sent += 1;
        let mut b = MessageBuilder::new();
        let mut frag = 0;
        if header > 0 {
            let mut hdr = pattern(id.flow.0, id.seq.0, 0, header);
            let tag = tag.map_or_else(Vec::new, Tag::encode);
            assert!(
                tag.len() <= header,
                "a {header}-byte header cannot carry a tag of {}",
                tag.len()
            );
            for (h, t) in hdr.iter_mut().zip(tag) {
                *h ^= t;
            }
            b = b.pack(&hdr, PackMode::Express);
            frag = 1;
        }
        for len in body.filter(|&n| n > 0) {
            b = b.pack(&pattern(id.flow.0, id.seq.0, frag, len), PackMode::Cheaper);
            frag += 1;
        }
        let parts = b.build_parts();
        {
            let mut s = stats.borrow_mut();
            s.sent += 1;
            s.bytes_sent += parts.iter().map(|p| p.data.len() as u64).sum::<u64>();
        }
        api.send(self.flow, parts)
    }
}

/// Generic multi-stream traffic generator, verifier and responder.
///
/// Flows `0..specs.len()` of `flows` are the specs' own; the rest are the
/// reply flows it opens, one per (requester, class), as requests arrive.
pub struct TrafficApp {
    name: &'static str,
    specs: Vec<FlowSpec>,
    flows: Vec<FlowRt>,
    reply_flows: BTreeMap<(NodeId, TrafficClass), usize>,
    /// Requests awaiting their reply: spec index and submission time.
    pending: BTreeMap<MsgId, (usize, SimTime)>,
    rng: StdRng,
    stats: StatsHandle,
}

impl TrafficApp {
    /// Build a traffic app; `seed`/`stream` select the RNG stream.
    pub fn new(
        name: &'static str,
        specs: Vec<FlowSpec>,
        seed: u64,
        stream: u64,
    ) -> (Self, StatsHandle) {
        let stats = StatsHandle::default();
        stats.borrow_mut().rtt_us = vec![Summary::new(); specs.len()];
        (
            TrafficApp {
                name,
                specs,
                flows: Vec::new(),
                reply_flows: BTreeMap::new(),
                pending: BTreeMap::new(),
                rng: rng_for(seed, stream),
                stats: stats.clone(),
            },
            stats,
        )
    }

    fn send_one(&mut self, api: &mut dyn CommApi, idx: usize) {
        let spec = &self.specs[idx];
        let rng = &mut self.rng;
        let tag = spec.reply.as_ref().map(|r| Tag::Request {
            class: r.class,
            size: r.sizes.sample(rng),
        });
        let frags = spec.body_frags.sample(rng);
        let body = (0..frags).map(|_| spec.sizes.sample(rng));
        let id = self.flows[idx].submit(api, &self.stats, spec.express_header, tag, body);
        if tag.is_some() {
            self.pending.insert(id, (idx, api.now()));
        }
    }

    fn arm(&mut self, api: &mut dyn CommApi, idx: usize) {
        let (delay, count) = self.specs[idx].arrival.next(&mut self.rng);
        self.flows[idx].due = count;
        api.set_timer(delay, idx as u64);
    }

    fn reply(
        &mut self,
        api: &mut dyn CommApi,
        request: &DeliveredMessage,
        class: TrafficClass,
        size: usize,
    ) {
        let flows = &mut self.flows;
        let idx = *self
            .reply_flows
            .entry((request.src, class))
            .or_insert_with(|| {
                flows.push(FlowRt::open(api, request.src, class));
                flows.len() - 1
            });
        let tag = Some(Tag::Reply(request.id));
        let body = std::iter::once(size);
        flows[idx].submit(api, &self.stats, REPLY_HEADER_BYTES, tag, body);
    }

    /// The app's name (used in reports).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl AppDriver for TrafficApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        for (idx, spec) in self.specs.iter().enumerate() {
            assert!(
                spec.reply.is_none() || spec.express_header >= REQUEST_TAG_BYTES,
                "flow {idx} asks for replies: its express header needs {REQUEST_TAG_BYTES} bytes"
            );
            self.flows.push(FlowRt::open(api, spec.dst, spec.class));
        }
        for idx in 0..self.specs.len() {
            let start = self.specs[idx].start_after;
            if start.is_zero() {
                self.arm(api, idx);
            } else {
                // The first arrival is at `start` itself: no delay is drawn,
                // so read its count off a copy of the stream.
                self.flows[idx].due = self.specs[idx].arrival.next(&mut self.rng.clone()).1;
                api.set_timer(start, idx as u64);
            }
        }
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        let idx = tag as usize;
        let limit = self.specs[idx].stop_after.unwrap_or(u64::MAX);
        for _ in 0..self.flows[idx].due {
            if u64::from(self.flows[idx].sent) >= limit {
                return;
            }
            self.send_one(api, idx);
        }
        if u64::from(self.flows[idx].sent) < limit {
            self.arm(api, idx);
        }
    }

    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        {
            let mut s = self.stats.borrow_mut();
            s.received += 1;
            s.bytes_received += msg.total_len();
            s.last_recv = api.now();
            s.integrity.check(msg);
        }
        match Tag::read(msg) {
            Some(Tag::Request { class, size }) => self.reply(api, msg, class, size),
            Some(Tag::Reply(request)) => {
                if let Some((idx, at)) = self.pending.remove(&request) {
                    let rtt = api.now().since(at).as_micros_f64();
                    self.stats.borrow_mut().rtt_us[idx].record(rtt);
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::traffic_pair;
    use crate::trace::{Recorder, ReplayApp};
    use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
    use madeleine::{EngineConfig, ReliabilityMode};
    use simnet::FaultPlan;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn traffic_app_generates_and_verifies() {
        // Node 0 sends 50 messages to node 1.
        let flow = FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Periodic(SimDuration::from_micros(5)),
            sizes: SizeDist::Fixed(128),
            express_header: 8,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(50),
            start_after: SimDuration::ZERO,
        };
        let (mut c, tx_stats, rx_stats) =
            traffic_pair(&ClusterSpec::mx_pair(), "t", vec![flow], 42);
        c.drain();
        assert_eq!(tx_stats.borrow().sent, 50);
        let rx = rx_stats.borrow();
        assert_eq!(rx.received, 50);
        assert!(rx.integrity.all_ok(), "{:?}", rx.integrity.failures);
        assert_eq!(rx.integrity.checked, 50);
    }

    #[test]
    fn burst_arrivals_send_batches() {
        let flow = FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Burst {
                count: 10,
                period: SimDuration::from_micros(100),
            },
            sizes: SizeDist::Fixed(32),
            express_header: 0,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(30),
            start_after: SimDuration::ZERO,
        };
        let (mut c, tx_stats, rx_stats) = traffic_pair(&ClusterSpec::mx_pair(), "b", vec![flow], 7);
        c.drain();
        assert_eq!(tx_stats.borrow().sent, 30);
        assert_eq!(rx_stats.borrow().received, 30);
        assert!(rx_stats.borrow().integrity.all_ok());
    }

    #[test]
    fn multiple_flows_interleave_on_legacy_too() {
        let flow = FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(SimDuration::from_micros(3)),
            sizes: SizeDist::Uniform(16, 256),
            express_header: 4,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(25),
            start_after: SimDuration::ZERO,
        };
        let spec = ClusterSpec::mx_pair().legacy();
        let (mut c, _, rx_stats) = traffic_pair(&spec, "multi", vec![flow; 4], 11);
        c.drain();
        let rx = rx_stats.borrow();
        assert_eq!(rx.received, 100);
        assert!(rx.integrity.all_ok(), "{:?}", rx.integrity.failures);
    }

    /// Regression: `AppStats::default()` used to build its RTT summary
    /// through a derived `Default` whose minimum started at 0.
    #[test]
    fn fresh_stats_report_the_true_minimum_rtt() {
        let (_, stats) = TrafficApp::new("rtt", vec![FlowSpec::rpc(NodeId(1), us(5))], 1, 0);
        stats.borrow_mut().rtt_us[0].record(5.0);
        stats.borrow_mut().rtt_us[0].record(9.0);
        assert_eq!(stats.borrow().rtt_us[0].min(), 5.0);
    }

    #[test]
    fn request_reply_roundtrips_with_rtt() {
        let rpc = FlowSpec {
            sizes: SizeDist::Fixed(256),
            reply: Some(Reply {
                class: TrafficClass::DEFAULT,
                sizes: SizeDist::Fixed(512),
            }),
            stop_after: Some(40),
            ..FlowSpec::rpc(NodeId(1), us(20))
        };
        let (mut c, client, server) = traffic_pair(&ClusterSpec::mx_pair(), "rpc", vec![rpc], 5);
        c.drain();
        let (cs, ss) = (client.borrow(), server.borrow());
        assert_eq!(cs.sent, 40);
        assert_eq!(ss.received, 40);
        assert_eq!(cs.received, 40, "every request answered");
        assert_eq!(cs.rtt_us[0].count(), 40, "every reply matched");
        assert!(cs.rtt_us[0].mean() > 0.0);
        assert_eq!(cs.bytes_received, 40 * (REPLY_HEADER_BYTES as u64 + 512));
        assert!(cs.integrity.all_ok(), "{:?}", cs.integrity.failures);
        assert!(ss.integrity.all_ok(), "{:?}", ss.integrity.failures);
    }

    #[test]
    fn request_header_codec_roundtrip() {
        let request = Tag::Request {
            class: TrafficClass::BULK,
            size: 4096,
        };
        let reply = Tag::Reply(MsgId {
            flow: FlowId(0xDEAD_BEEF),
            seq: MsgSeq(42),
        });
        for (tag, len) in [(request, REQUEST_TAG_BYTES), (reply, REPLY_HEADER_BYTES)] {
            let bytes = tag.encode();
            assert_eq!(bytes.len(), len);
            assert_eq!(Tag::decode(&bytes), Some(tag));
            assert_eq!(Tag::decode(&bytes[..len - 1]), None, "truncated {tag:?}");
        }
        assert_eq!(Tag::decode(&[0; REPLY_HEADER_BYTES]), None);
    }

    #[test]
    fn page_faults_are_served() {
        let dsm = FlowSpec {
            stop_after: Some(30),
            ..FlowSpec::dsm(NodeId(1), us(30))
        };
        let (mut c, client, home) = traffic_pair(&ClusterSpec::mx_pair(), "dsm", vec![dsm], 13);
        c.drain();
        let cs = client.borrow();
        assert_eq!(cs.sent, 30);
        assert_eq!(cs.bytes_sent, 30 * 4, "a fault is its express header alone");
        assert_eq!(home.borrow().received, 30);
        assert_eq!(cs.received, 30);
        // Replies are 4 KiB pages behind the reply header.
        assert_eq!(
            cs.bytes_received,
            30 * (REPLY_HEADER_BYTES + PAGE_BYTES) as u64
        );
        assert!(cs.integrity.all_ok(), "{:?}", cs.integrity.failures);
        assert_eq!(cs.rtt_us[0].count(), 30);
    }

    #[test]
    fn marshalled_invocations_survive_optimization() {
        let corba = FlowSpec {
            sizes: SizeDist::Uniform(8, 512),
            stop_after: Some(60),
            ..FlowSpec::corba(NodeId(1), us(8))
        };
        let (mut c, invoker, servant) =
            traffic_pair(&ClusterSpec::mx_pair(), "corba", vec![corba], 21);
        c.drain();
        assert_eq!(invoker.borrow().sent, 60);
        let ss = servant.borrow();
        assert_eq!(ss.received, 60);
        assert_eq!(ss.sent, 0, "invocations are one-way");
        assert!(ss.integrity.all_ok(), "{:?}", ss.integrity.failures);
        // 1–5 arguments behind the header, never a constant count.
        let m = c.handle(0).metrics();
        assert!(m.submitted_bytes > 60 * (12 + 8) && m.submitted_bytes < 60 * (12 + 5 * 512));
    }

    #[test]
    fn every_request_gets_one_reply_on_a_lossy_rail() {
        let config = EngineConfig {
            reliability: ReliabilityMode::Recover,
            ..EngineConfig::default()
        };
        let spec = ClusterSpec::mx_pair().engine(EngineKind::with_config(config));
        let rpc = FlowSpec {
            stop_after: Some(200),
            ..FlowSpec::rpc(NodeId(1), us(5))
        };
        let (mut c, client, server) = traffic_pair(&spec, "rpc", vec![rpc], 3);
        c.set_fault_plan(0, FaultPlan::new(3).with_loss(0.02));
        c.drain();
        let (cs, ss) = (client.borrow(), server.borrow());
        assert_eq!((cs.sent, ss.received), (200, 200));
        assert_eq!(
            (ss.sent, cs.received),
            (200, 200),
            "exactly one reply a request"
        );
        assert_eq!(cs.rtt_us[0].count(), 200);
        assert!(cs.integrity.all_ok(), "{:?}", cs.integrity.failures);
        assert!(ss.integrity.all_ok(), "{:?}", ss.integrity.failures);
        assert!(c.handle(0).metrics().retransmits > 0, "the loss hit");
    }

    #[test]
    fn a_responder_answers_only_requests() {
        // Plain streams with every express header length up to 16 bytes.
        let plain: Vec<FlowSpec> = (0..=16)
            .map(|header| FlowSpec {
                express_header: header,
                stop_after: Some(20),
                ..FlowSpec::eager(NodeId(1), us(2), 64)
            })
            .collect();
        let (mut c, _, rx) = traffic_pair(&ClusterSpec::mx_pair(), "plain", plain, 9);
        c.drain();
        assert_eq!(rx.borrow().received, 17 * 20);
        assert_eq!(rx.borrow().sent, 0);

        // A replay of the three presets' requests: the same fragment
        // shapes, but pattern bytes where the tags were.
        let presets = [FlowSpec::rpc, FlowSpec::dsm, FlowSpec::corba]
            .map(|preset| FlowSpec {
                stop_after: Some(20),
                ..preset(NodeId(1), us(3))
            })
            .to_vec();
        let (app, _) = TrafficApp::new("rec", presets, 9, 0);
        let (recorder, trace) = Recorder::new(Box::new(app));
        let mut c = Cluster::build(
            &ClusterSpec::mx_pair(),
            vec![Some(Box::new(recorder)), None],
        );
        c.drain();
        let replay = ReplayApp::new(trace.borrow().clone());
        let (sink, rx) = TrafficApp::new("sink", vec![], 9, 1);
        let mut c = Cluster::build(
            &ClusterSpec::mx_pair(),
            vec![Some(Box::new(replay)), Some(Box::new(sink))],
        );
        c.drain();
        assert_eq!(rx.borrow().received, 60);
        assert_eq!(rx.borrow().sent, 0);
    }
}
