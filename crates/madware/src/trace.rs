//! Workload trace record & replay.
//!
//! Communication-library research lives and dies by apples-to-apples
//! comparisons: the same submission sequence must be driven into both
//! engines. [`Recorder`] wraps any [`AppDriver`] and records every
//! submission (time, flow, fragment shapes); the resulting [`Trace`]
//! serializes to a plain-text format and replays deterministically via
//! [`ReplayApp`] — on the optimizing engine, the legacy engine, or any
//! future one.
//!
//! Payload *contents* are not recorded: replay regenerates them from
//! [`crate::verify::pattern`], so replays remain integrity-checkable.
//!
//! Text format (one record per line):
//!
//! ```text
//! # madeleine-trace v1
//! flow <dst_node_id> <class_id>
//! msg <at_ns> <flow_idx> <len><e|c> [<len><e|c> ...]
//! ```

use madeleine::api::{AppDriver, CommApi};
use madeleine::ids::{FlowId, MsgId, TrafficClass};
use madeleine::message::{DeliveredMessage, Fragment, MessageBuilder, PackMode};
use simnet::{NodeId, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

use crate::verify::pattern;

/// One recorded submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMsg {
    /// Submission time (ns of virtual time).
    pub at_ns: u64,
    /// Index into [`Trace::flows`].
    pub flow_idx: usize,
    /// Fragment shapes: (length, express?).
    pub frags: Vec<(usize, bool)>,
}

/// A recorded workload.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Flows opened, in open order: (destination, class).
    pub flows: Vec<(NodeId, TrafficClass)>,
    /// Submissions, in submission order.
    pub msgs: Vec<TraceMsg>,
}

/// Errors from [`Trace::from_text`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for TraceParseError {}

impl Trace {
    /// Total messages recorded.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Total payload bytes across all recorded messages.
    pub fn total_bytes(&self) -> u64 {
        self.msgs
            .iter()
            .flat_map(|m| m.frags.iter())
            .map(|&(n, _)| n as u64)
            .sum()
    }

    /// Serialize to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# madeleine-trace v1\n");
        for (dst, class) in &self.flows {
            out.push_str(&format!("flow {} {}\n", dst.0, class.0));
        }
        for m in &self.msgs {
            out.push_str(&format!("msg {} {}", m.at_ns, m.flow_idx));
            for &(len, express) in &m.frags {
                out.push_str(&format!(" {}{}", len, if express { 'e' } else { 'c' }));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the text format.
    pub fn from_text(text: &str) -> Result<Trace, TraceParseError> {
        let mut trace = Trace::default();
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            let err = |reason: &str| TraceParseError {
                line: lineno,
                reason: reason.into(),
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("flow") => {
                    let dst: u32 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad flow destination"))?;
                    let class: u8 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad flow class"))?;
                    trace.flows.push((NodeId(dst), TrafficClass(class)));
                }
                Some("msg") => {
                    let at_ns: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad timestamp"))?;
                    let flow_idx: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad flow index"))?;
                    if flow_idx >= trace.flows.len() {
                        return Err(err("flow index out of range"));
                    }
                    let mut frags = Vec::new();
                    for tok in parts {
                        let (num, mode) = tok.split_at(tok.len() - 1);
                        let len: usize = num.parse().map_err(|_| err("bad fragment length"))?;
                        let express = match mode {
                            "e" => true,
                            "c" => false,
                            _ => return Err(err("bad fragment mode (want e|c)")),
                        };
                        frags.push((len, express));
                    }
                    if frags.is_empty() {
                        return Err(err("message with no fragments"));
                    }
                    trace.msgs.push(TraceMsg {
                        at_ns,
                        flow_idx,
                        frags,
                    });
                }
                Some(other) => {
                    return Err(err(&format!("unknown record '{other}'")));
                }
                None => unreachable!("empty lines filtered"),
            }
        }
        Ok(trace)
    }
}

/// Shared handle to a trace being recorded.
pub type TraceHandle = Rc<RefCell<Trace>>;

/// Wraps an [`AppDriver`], recording every flow it opens and every message
/// it submits.
pub struct Recorder {
    inner: Box<dyn AppDriver>,
    trace: TraceHandle,
    /// Engine flow id -> trace flow index, in open order.
    flow_map: Vec<FlowId>,
}

impl Recorder {
    /// Wrap `inner`; the handle accumulates the trace as the app runs.
    pub fn new(inner: Box<dyn AppDriver>) -> (Self, TraceHandle) {
        let trace = TraceHandle::default();
        (
            Recorder {
                inner,
                trace: trace.clone(),
                flow_map: Vec::new(),
            },
            trace,
        )
    }
}

struct RecordingApi<'a> {
    api: &'a mut dyn CommApi,
    trace: &'a TraceHandle,
    /// Engine flow id -> trace flow index.
    flow_map: &'a mut Vec<FlowId>,
}

impl CommApi for RecordingApi<'_> {
    fn now(&self) -> SimTime {
        self.api.now()
    }
    fn node(&self) -> NodeId {
        self.api.node()
    }
    fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> FlowId {
        let id = self.api.open_flow(dst, class);
        self.trace.borrow_mut().flows.push((dst, class));
        self.flow_map.push(id);
        id
    }
    fn send(&mut self, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        let idx = self
            .flow_map
            .iter()
            .position(|&f| f == flow)
            .expect("send on a flow the recorded app did not open");
        self.trace.borrow_mut().msgs.push(TraceMsg {
            at_ns: self.api.now().as_nanos(),
            flow_idx: idx,
            frags: parts
                .iter()
                .map(|p| (p.data.len(), p.mode == PackMode::Express))
                .collect(),
        });
        self.api.send(flow, parts)
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.api.set_timer(delay, tag);
    }
    fn flush(&mut self) {
        self.api.flush();
    }
}

impl AppDriver for Recorder {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        let Recorder {
            inner,
            trace,
            flow_map,
        } = self;
        let mut shim = RecordingApi {
            api,
            trace,
            flow_map,
        };
        inner.on_start(&mut shim);
    }
    fn on_timer(&mut self, api: &mut dyn CommApi, tag: u64) {
        let Recorder {
            inner,
            trace,
            flow_map,
        } = self;
        let mut shim = RecordingApi {
            api,
            trace,
            flow_map,
        };
        inner.on_timer(&mut shim, tag);
    }
    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let Recorder {
            inner,
            trace,
            flow_map,
        } = self;
        let mut shim = RecordingApi {
            api,
            trace,
            flow_map,
        };
        inner.on_message(&mut shim, msg);
    }
}

/// Replays a [`Trace`]: opens the same flows and re-submits every message
/// at its recorded virtual time, with pattern payloads.
pub struct ReplayApp {
    trace: Trace,
    flows: Vec<FlowId>,
    seqs: Vec<u32>,
    next: usize,
}

impl ReplayApp {
    /// Build a replayer for `trace` (messages must be time-sorted, as
    /// recorded).
    pub fn new(trace: Trace) -> Self {
        ReplayApp {
            trace,
            flows: Vec::new(),
            seqs: Vec::new(),
            next: 0,
        }
    }

    fn fire_due(&mut self, api: &mut dyn CommApi) {
        let now = api.now().as_nanos();
        while self.next < self.trace.msgs.len() && self.trace.msgs[self.next].at_ns <= now {
            let m = &self.trace.msgs[self.next];
            let flow = self.flows[m.flow_idx];
            let seq = self.seqs[m.flow_idx];
            self.seqs[m.flow_idx] += 1;
            let mut b = MessageBuilder::new();
            for (i, &(len, express)) in m.frags.iter().enumerate() {
                let mode = if express {
                    PackMode::Express
                } else {
                    PackMode::Cheaper
                };
                b = b.pack(&pattern(flow.0, seq, i as u16, len), mode);
            }
            api.send(flow, b.build_parts());
            self.next += 1;
        }
        if self.next < self.trace.msgs.len() {
            let delay = self.trace.msgs[self.next].at_ns - now;
            api.set_timer(SimDuration::from_nanos(delay.max(1)), 0);
        }
    }
}

impl AppDriver for ReplayApp {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        for &(dst, class) in &self.trace.flows {
            self.flows.push(api.open_flow(dst, class));
            self.seqs.push(0);
        }
        self.fire_due(api);
    }

    fn on_timer(&mut self, api: &mut dyn CommApi, _tag: u64) {
        self.fire_due(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{FlowSpec, TrafficApp};
    use crate::workload::{Arrival, SizeDist};
    use madeleine::harness::{Cluster, ClusterSpec};

    fn text_fixture() -> &'static str {
        "# madeleine-trace v1\n\
         flow 1 0\n\
         flow 1 3\n\
         msg 0 0 8e 100c\n\
         msg 2500 1 16c\n\
         msg 5000 0 300c\n"
    }

    #[test]
    fn text_roundtrip() {
        let t = Trace::from_text(text_fixture()).unwrap();
        assert_eq!(t.flows.len(), 2);
        assert_eq!(t.msgs.len(), 3);
        assert_eq!(t.msgs[0].frags, vec![(8, true), (100, false)]);
        assert_eq!(t.total_bytes(), 8 + 100 + 16 + 300);
        let again = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(t, again);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "flow 1 0\nmsg zzz 0 8c\n";
        let err = Trace::from_text(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("timestamp"));
        let bad = "msg 0 0 8c\n";
        assert!(Trace::from_text(bad)
            .unwrap_err()
            .reason
            .contains("out of range"));
        let bad = "flow 1 0\nmsg 0 0 8x\n";
        assert!(Trace::from_text(bad).unwrap_err().reason.contains("mode"));
    }

    #[test]
    fn record_then_replay_matches_submissions() {
        // Record a TrafficApp workload on the optimizing engine.
        let specs = vec![FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(SimDuration::from_micros(5)),
            sizes: SizeDist::Uniform(16, 400),
            express_header: 8,
            stop_after: Some(40),
            start_after: SimDuration::ZERO,
        }];
        let (app, _stats) = TrafficApp::new("rec", specs, 99, 0);
        let (recorder, trace) = Recorder::new(Box::new(app));
        let spec = ClusterSpec::mx_pair();
        let mut c = Cluster::build(&spec, vec![Some(Box::new(recorder)), None]);
        c.drain();
        let recorded = trace.borrow().clone();
        assert_eq!(recorded.len(), 40);
        assert_eq!(c.handle(1).delivered_count(), 40);

        // Replay the text-serialized trace on the *legacy* engine.
        let replayed = Trace::from_text(&recorded.to_text()).unwrap();
        let total = replayed.total_bytes();
        let spec = ClusterSpec::mx_pair().legacy();
        let mut c = Cluster::build(&spec, vec![Some(Box::new(ReplayApp::new(replayed))), None]);
        c.drain();
        let m = c.handle(0).metrics();
        assert_eq!(m.submitted_msgs, 40);
        assert_eq!(m.submitted_bytes, total);
        assert_eq!(c.handle(1).delivered_count(), 40);
        // Replayed payloads are pattern-generated and verify.
        for msg in c.handle(1).take_delivered() {
            for (i, (mode, d)) in msg.fragments.iter().enumerate() {
                if *mode == PackMode::Cheaper {
                    assert_eq!(
                        &d[..],
                        &pattern(msg.flow.0, msg.id.seq.0, i as u16, d.len())[..]
                    );
                }
            }
        }
    }

    #[test]
    fn replay_preserves_timing() {
        let t = Trace::from_text(text_fixture()).unwrap();
        let spec = ClusterSpec::mx_pair();
        let mut c = Cluster::build(&spec, vec![Some(Box::new(ReplayApp::new(t))), None]);
        c.drain();
        assert_eq!(c.handle(0).metrics().submitted_msgs, 3);
        assert_eq!(c.handle(1).delivered_count(), 3);
    }
}
