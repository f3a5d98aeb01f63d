//! Engine-level metrics: everything the experiment harness reports is
//! accumulated here, on both the sending and receiving sides.

// madlint: file: deterministic-output

use simnet::{NicStats, NodeId, SimDuration, Summary};
use std::collections::BTreeMap;

use crate::hist::LogHistogram;
use crate::ids::{FlowId, TrafficClass};
use crate::json::{obj, Json, JsonSink, JsonTree, JsonWriter};
use crate::receiver::ReceiverStats;

/// Distinct per-flow latency histograms retained before further flows are
/// pooled into the overflow histogram (madscope; bounds hot-path memory on
/// workloads with unbounded flow churn).
pub const MAX_FLOW_HISTS: usize = 64;

/// Why the optimizer ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// A NIC transmit engine drained (the paper's primary trigger).
    NicIdle,
    /// An application submission found an idle NIC.
    Submit,
    /// A Nagle-delay timer expired.
    Timer,
}

impl Activation {
    /// Stable label used by trace artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Activation::NicIdle => "nic-idle",
            Activation::Submit => "submit",
            Activation::Timer => "timer",
        }
    }
}

/// A should-stay-zero counter of [`EngineMetrics`], each a broken
/// invariant of the engine. The one list of them: the flight recorder
/// fires the first time one leaves zero, the debug report's `health:`
/// line renders them, and `madcheck`'s registry rule checks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// An undecodable packet arrived.
    ProtoError,
    /// A driver rejected a validated plan.
    DriverRejection,
    /// The receiver observed an express-ordering violation.
    ExpressViolation,
    /// A delivery's traffic class was out of range and got clamped.
    ClassClamped,
    /// A message was abandoned: no live rail is left to reach its peer.
    LostMsg,
    /// The reliability layer declared a rail dead.
    RailDead,
}

impl Fault {
    /// Every fault, in the order reports list them.
    pub const ALL: [Fault; 6] = [
        Fault::ProtoError,
        Fault::DriverRejection,
        Fault::ExpressViolation,
        Fault::ClassClamped,
        Fault::LostMsg,
        Fault::RailDead,
    ];

    /// The counter's [`EngineMetrics`] field name, which is also its key
    /// in the metrics JSON and the label artifacts carry.
    pub fn label(self) -> &'static str {
        match self {
            Fault::ProtoError => "proto_errors",
            Fault::DriverRejection => "driver_rejections",
            Fault::ExpressViolation => "express_violations",
            Fault::ClassClamped => "class_clamped",
            Fault::LostMsg => "lost_msgs",
            Fault::RailDead => "rails_dead",
        }
    }

    /// The counter's value in `m`.
    pub fn count(self, m: &EngineMetrics) -> u64 {
        match self {
            Fault::ProtoError => m.proto_errors,
            Fault::DriverRejection => m.driver_rejections,
            Fault::ExpressViolation => m.express_violations,
            Fault::ClassClamped => m.class_clamped,
            Fault::LostMsg => m.lost_msgs,
            Fault::RailDead => m.rails_dead,
        }
    }
}

/// Counters and distributions for one engine instance.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// Messages submitted by the local application.
    pub submitted_msgs: u64,
    /// Payload bytes submitted.
    pub submitted_bytes: u64,
    /// Messages delivered to the local application.
    pub delivered_msgs: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Submission→delivery latency of delivered messages.
    pub latency: LogHistogram<SimDuration>,
    /// Latency split by traffic class.
    pub latency_by_class: Vec<LogHistogram<SimDuration>>,
    /// Latency split by flow (receive side; keyed by the sending node and
    /// its flow id, since flow ids are per sender). Bounded to
    /// [`MAX_FLOW_HISTS`] distinct flows; later flows pool into
    /// [`EngineMetrics::latency_flow_overflow`].
    pub latency_by_flow: BTreeMap<(NodeId, FlowId), LogHistogram<SimDuration>>,
    /// Pooled latency of flows beyond the per-flow histogram budget.
    pub latency_flow_overflow: LogHistogram<SimDuration>,
    /// Latency split by the rail the completing packet arrived on (grown
    /// on demand; rail-less deliveries, e.g. injected packets on unknown
    /// NICs, only count in the aggregate histogram).
    pub latency_by_rail: Vec<LogHistogram<SimDuration>>,
    /// Submit→wire-commit delay of every scheduled chunk: how long payload
    /// waited in the collect backlog before the optimizer put it on a
    /// wire. This is the sender-side share of delivery latency that the
    /// scheduler controls.
    pub queue_delay: LogHistogram<SimDuration>,
    /// Plans scored per optimizer activation (the decision-work
    /// distribution behind `plans_evaluated`). Virtual-time decisions are
    /// instantaneous by construction, so decision *work* — not wall time —
    /// is the observable cost; madclock's `optimizer.select_plan_ns` row
    /// converts it to host nanoseconds.
    pub decision_evals: LogHistogram,
    /// Wire packets sent (data only).
    pub packets_sent: u64,
    /// Chunks sent (aggregation ratio = chunks / packets).
    pub chunks_sent: u64,
    /// Optimizer activations by NIC-idle events.
    pub activations_idle: u64,
    /// Optimizer activations by application submissions.
    pub activations_submit: u64,
    /// Optimizer activations by Nagle timers.
    pub activations_timer: u64,
    /// Candidate plans scored (the quantity E5 bounds).
    pub plans_evaluated: u64,
    /// Plans actually submitted to drivers.
    pub plans_submitted: u64,
    /// Rendezvous requests sent.
    pub rndv_requests: u64,
    /// Rendezvous grants received.
    pub rndv_grants: u64,
    /// Rendezvous requests sent again because no grant came back in time
    /// (madrel; a lost request or a lost grant).
    pub rndv_rerequests: u64,
    /// Multi-chunk packets sent linearized (by copy).
    pub linearized_packets: u64,
    /// Multi-chunk packets sent as zero-copy gather lists.
    pub gathered_packets: u64,
    /// Receiver-observed express-ordering violations (must stay 0 on
    /// single-rail runs; see `receiver` docs for the multi-rail caveat).
    pub express_violations: u64,
    /// Undecodable packets received (fault injection only).
    pub proto_errors: u64,
    /// Plans the driver rejected at submission (engine bugs; should be 0).
    pub driver_rejections: u64,
    /// Deliveries whose `TrafficClass` was out of range and got clamped
    /// into the last per-class histogram bucket (misclassified traffic;
    /// should be 0).
    pub class_clamped: u64,
    /// Retransmit timeouts fired (madrel; each one means a data packet's
    /// ack did not arrive in time).
    pub timeouts: u64,
    /// Timeouts that turned out wrong: the timed-out transmission's ack
    /// arrived after all (madrel; it repaired the retransmission's
    /// accounting and the rail's health).
    pub spurious_timeouts: u64,
    /// Data packets re-sent by the reliability layer.
    pub retransmits: u64,
    /// Acknowledgements received for tracked data packets.
    pub acks_received: u64,
    /// Acknowledgements that echoed a fabric ECN mark (madnet): the acked
    /// data packet crossed a switch queue past its marking threshold.
    pub ecn_echoes: u64,
    /// Optimizer activations declined because the rail's congestion
    /// penalty sat far above the best live rail's (madnet gate): the
    /// backlog was left for a cleaner rail to pull.
    pub congestion_gated: u64,
    /// Messages abandoned after the retry budget was exhausted on every
    /// live rail (should be 0 unless every rail died).
    pub lost_msgs: u64,
    /// Rails declared permanently dead by the reliability layer.
    pub rails_dead: u64,
    /// Submissions refused with `WouldBlock` by madflow admission control.
    pub blocked_sends: u64,
    /// Submissions refused permanently under the `Reject` policy.
    pub rejected_sends: u64,
    /// Messages shed from the backlog under the `ShedOldest` policy.
    pub shed_msgs: u64,
    /// Backlog bytes freed by shedding.
    pub shed_bytes: u64,
    /// Pressure episodes that ended (classes regaining headroom after a
    /// `WouldBlock`).
    pub unblocked_events: u64,
    /// Delivered messages dropped because the delivered buffer was full
    /// (oldest-drop, mirrors the EventSink ring convention).
    pub deliveries_dropped: u64,
    /// Backlog depth (schedulable chunks visible to the rail) sampled at
    /// each optimizer activation — the paper's "pool of lookahead packets".
    pub backlog_depth: Summary,
    /// How many times each strategy's proposal won the scoring contest
    /// (keyed by strategy name; `BTreeMap` for deterministic iteration).
    pub strategy_wins: BTreeMap<&'static str, u64>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics {
            submitted_msgs: 0,
            submitted_bytes: 0,
            delivered_msgs: 0,
            delivered_bytes: 0,
            latency: LogHistogram::new(),
            latency_by_class: (0..TrafficClass::COUNT)
                .map(|_| LogHistogram::new())
                .collect(),
            latency_by_flow: BTreeMap::new(),
            latency_flow_overflow: LogHistogram::new(),
            latency_by_rail: Vec::new(),
            queue_delay: LogHistogram::new(),
            decision_evals: LogHistogram::new(),
            packets_sent: 0,
            chunks_sent: 0,
            activations_idle: 0,
            activations_submit: 0,
            activations_timer: 0,
            plans_evaluated: 0,
            plans_submitted: 0,
            rndv_requests: 0,
            rndv_grants: 0,
            rndv_rerequests: 0,
            linearized_packets: 0,
            gathered_packets: 0,
            express_violations: 0,
            proto_errors: 0,
            driver_rejections: 0,
            class_clamped: 0,
            timeouts: 0,
            spurious_timeouts: 0,
            retransmits: 0,
            acks_received: 0,
            ecn_echoes: 0,
            congestion_gated: 0,
            lost_msgs: 0,
            rails_dead: 0,
            blocked_sends: 0,
            rejected_sends: 0,
            shed_msgs: 0,
            shed_bytes: 0,
            unblocked_events: 0,
            deliveries_dropped: 0,
            backlog_depth: Summary::new(),
            strategy_wins: BTreeMap::new(),
        }
    }
}

impl EngineMetrics {
    /// Record an optimizer activation.
    pub fn record_activation(&mut self, a: Activation) {
        match a {
            Activation::NicIdle => self.activations_idle += 1,
            Activation::Submit => self.activations_submit += 1,
            Activation::Timer => self.activations_timer += 1,
        }
    }

    /// Record a sent data packet of `chunks` chunks.
    pub fn record_packet(&mut self, chunks: usize, linearized: bool) {
        self.packets_sent += 1;
        self.chunks_sent += chunks as u64;
        if chunks > 1 {
            if linearized {
                self.linearized_packets += 1;
            } else {
                self.gathered_packets += 1;
            }
        }
    }

    /// [`EngineMetrics::record_delivery_from`] with the sender taken to be
    /// node 0: the form without a source, which madclock's
    /// `metrics.record_delivery` kernel calls.
    pub fn record_delivery(
        &mut self,
        class: TrafficClass,
        flow: FlowId,
        rail: Option<usize>,
        bytes: u64,
        latency: SimDuration,
    ) {
        self.record_delivery_from(NodeId(0), class, flow, rail, bytes, latency);
    }

    /// Record a delivered message, attributed to its traffic class, to
    /// flow `flow` of node `src`, and (when known) to the rail the
    /// completing packet arrived on. Out-of-range classes are clamped into
    /// the last per-class bucket and counted in `class_clamped` (and, with
    /// the `debug-invariants` feature, assert immediately).
    pub fn record_delivery_from(
        &mut self,
        src: NodeId,
        class: TrafficClass,
        flow: FlowId,
        rail: Option<usize>,
        bytes: u64,
        latency: SimDuration,
    ) {
        self.delivered_msgs += 1;
        self.delivered_bytes += bytes;
        self.latency.record(latency);
        let idx = class.0 as usize;
        if idx >= self.latency_by_class.len() {
            self.class_clamped += 1;
            #[cfg(feature = "debug-invariants")]
            panic!(
                "traffic class {} out of range ({} classes)",
                class.0,
                self.latency_by_class.len()
            );
        }
        let idx = idx.min(self.latency_by_class.len() - 1);
        self.latency_by_class[idx].record(latency);
        let key = (src, flow);
        if self.latency_by_flow.len() < MAX_FLOW_HISTS || self.latency_by_flow.contains_key(&key) {
            self.latency_by_flow.entry(key).or_default().record(latency);
        } else {
            self.latency_flow_overflow.record(latency);
        }
        if let Some(r) = rail {
            if r >= self.latency_by_rail.len() {
                self.latency_by_rail.resize_with(r + 1, LogHistogram::new);
            }
            self.latency_by_rail[r].record(latency);
        }
    }

    /// Mean chunks per data packet (1.0 = no aggregation).
    pub fn aggregation_ratio(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.chunks_sent as f64 / self.packets_sent as f64
    }

    /// Total optimizer activations.
    pub fn activations(&self) -> u64 {
        self.activations_idle + self.activations_submit + self.activations_timer
    }

    /// Mean plans evaluated per activation.
    pub fn plans_per_activation(&self) -> f64 {
        let a = self.activations();
        if a == 0 {
            return 0.0;
        }
        self.plans_evaluated as f64 / a as f64
    }

    /// The metrics as a JSON document (field order fixed, so rendering is
    /// deterministic).
    pub fn to_json(&self) -> Json {
        let mut wins = obj();
        for (name, n) in &self.strategy_wins {
            wins = wins.field(name, *n);
        }
        let mut per_class = obj();
        for (i, h) in self.latency_by_class.iter().enumerate() {
            per_class = per_class.field(TrafficClass(i as u8).label(), h.to_json());
        }
        let mut per_flow = obj();
        for ((src, flow), h) in &self.latency_by_flow {
            per_flow = per_flow.field(&format!("node{}_flow{}", src.0, flow.0), h.to_json());
        }
        if self.latency_flow_overflow.count() > 0 {
            per_flow = per_flow.field("overflow", self.latency_flow_overflow.to_json());
        }
        let mut per_rail = obj();
        for (r, h) in self.latency_by_rail.iter().enumerate() {
            per_rail = per_rail.field(&format!("rail{r}"), h.to_json());
        }
        obj()
            .field("submitted_msgs", self.submitted_msgs)
            .field("submitted_bytes", self.submitted_bytes)
            .field("delivered_msgs", self.delivered_msgs)
            .field("delivered_bytes", self.delivered_bytes)
            .field("packets_sent", self.packets_sent)
            .field("chunks_sent", self.chunks_sent)
            .field("aggregation_ratio", self.aggregation_ratio())
            .field("activations_idle", self.activations_idle)
            .field("activations_submit", self.activations_submit)
            .field("activations_timer", self.activations_timer)
            .field("plans_evaluated", self.plans_evaluated)
            .field("plans_submitted", self.plans_submitted)
            .field("rndv_requests", self.rndv_requests)
            .field("rndv_grants", self.rndv_grants)
            .field("rndv_rerequests", self.rndv_rerequests)
            .field("linearized_packets", self.linearized_packets)
            .field("gathered_packets", self.gathered_packets)
            .field("express_violations", self.express_violations)
            .field("proto_errors", self.proto_errors)
            .field("driver_rejections", self.driver_rejections)
            .field("class_clamped", self.class_clamped)
            .field("timeouts", self.timeouts)
            .field("spurious_timeouts", self.spurious_timeouts)
            .field("retransmits", self.retransmits)
            .field("acks_received", self.acks_received)
            .field("ecn_echoes", self.ecn_echoes)
            .field("congestion_gated", self.congestion_gated)
            .field("lost_msgs", self.lost_msgs)
            .field("rails_dead", self.rails_dead)
            .field("blocked_sends", self.blocked_sends)
            .field("rejected_sends", self.rejected_sends)
            .field("shed_msgs", self.shed_msgs)
            .field("shed_bytes", self.shed_bytes)
            .field("unblocked_events", self.unblocked_events)
            .field("deliveries_dropped", self.deliveries_dropped)
            .field(
                "backlog_depth",
                obj()
                    .field("count", self.backlog_depth.count())
                    .field("mean", self.backlog_depth.mean())
                    .field("max", self.backlog_depth.max())
                    .build(),
            )
            .field("strategy_wins", wins.build())
            .field("latency_us", self.latency.to_json())
            .field("latency_by_class_us", per_class.build())
            .field("latency_by_flow_us", per_flow.build())
            .field("latency_by_rail_us", per_rail.build())
            .field("queue_delay_us", self.queue_delay.to_json())
            .field("decision_evals", self.decision_evals.to_json())
            .build()
    }
}

/// Walks per-node engine, receiver and NIC statistics into **one**
/// serialized JSON document, consumed by the `experiments` runner and the
/// flight recorder instead of ad-hoc table plumbing.
///
/// Sections render in insertion order, so a registry filled in a fixed
/// order serializes byte-identically across repeat runs.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    sections: Vec<(String, Json)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add an engine-metrics section.
    pub fn add_engine(&mut self, name: &str, m: &EngineMetrics) {
        self.sections.push((name.to_string(), m.to_json()));
    }

    /// Add a receiver-statistics section.
    pub fn add_receiver(&mut self, name: &str, s: &ReceiverStats) {
        let per_vchan: Vec<Json> = s.per_vchan_packets.iter().map(|&n| Json::UInt(n)).collect();
        self.sections.push((
            name.to_string(),
            obj()
                .field("chunks", s.chunks)
                .field("completed", s.completed)
                .field("delivered", s.delivered)
                .field("express_violations", s.express_violations)
                .field("overlaps", s.overlaps)
                .field("per_vchan_packets", Json::Arr(per_vchan))
                .build(),
        ));
    }

    /// Add a NIC-statistics section.
    pub fn add_nic(&mut self, name: &str, s: &NicStats) {
        self.sections.push((
            name.to_string(),
            obj()
                .field("tx_packets", s.tx_packets)
                .field("tx_payload_bytes", s.tx_payload_bytes)
                .field("tx_wire_bytes", s.tx_wire_bytes)
                .field("rx_packets", s.rx_packets)
                .field("rx_payload_bytes", s.rx_payload_bytes)
                .field("idle_transitions", s.idle_transitions)
                .field("queue_full_rejections", s.queue_full_rejections)
                .field("wire_drops", s.wire_drops)
                .field("wire_dups", s.wire_dups)
                .field("wire_stalls", s.wire_stalls)
                .field("tx_segments", s.tx_segments)
                .field("ecn_marked", s.ecn_marked)
                .field("fabric_drops", s.fabric_drops)
                .build(),
        ));
    }

    /// Add an arbitrary extra section.
    pub fn add_section(&mut self, name: &str, doc: Json) {
        self.sections.push((name.to_string(), doc));
    }

    /// Add a trace ring's health when it is recording: a non-zero
    /// `dropped` means every post-hoc consumer of the ring (madprof
    /// included) saw a truncated stream.
    pub fn add_ring<E>(&mut self, name: &str, ring: &simnet::Ring<E>) {
        if ring.is_enabled() {
            let health = obj()
                .field("retained", ring.len() as u64)
                .field("dropped", ring.dropped())
                .field("capacity", ring.capacity() as u64);
            self.sections.push((name.to_string(), health.build()));
        }
    }

    /// Number of sections collected.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections were added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// The sections in insertion order.
    pub(crate) fn sections(&self) -> &[(String, Json)] {
        &self.sections
    }

    /// Describe the registry as one JSON document.
    pub fn write_to(&self, s: &mut impl JsonSink) {
        s.begin_object();
        s.field_str("artifact", "madtrace-metrics");
        s.key("sections");
        s.begin_object();
        for (name, doc) in &self.sections {
            s.key(name);
            s.value(doc);
        }
        s.end_object();
        s.end_object();
    }

    /// The registry as one JSON document.
    pub fn to_json(&self) -> Json {
        JsonTree::document(|t| self.write_to(t))
    }

    /// Render the registry as deterministic JSON text.
    pub fn render(&self) -> String {
        JsonWriter::document(|w| self.write_to(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_ratio_reflects_chunk_counts() {
        let mut m = EngineMetrics::default();
        m.record_packet(1, false);
        m.record_packet(3, true);
        m.record_packet(4, false);
        assert!((m.aggregation_ratio() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.linearized_packets, 1);
        assert_eq!((m.packets_sent, m.chunks_sent), (3, 8));
        assert_eq!(m.gathered_packets, 1);
    }

    #[test]
    fn activation_counters() {
        let mut m = EngineMetrics::default();
        m.record_activation(Activation::NicIdle);
        m.record_activation(Activation::NicIdle);
        m.record_activation(Activation::Submit);
        m.record_activation(Activation::Timer);
        assert_eq!(m.activations(), 4);
        assert_eq!(m.activations_idle, 2);
        m.plans_evaluated = 8;
        assert!((m.plans_per_activation() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn delivery_updates_class_histograms() {
        let mut m = EngineMetrics::default();
        m.record_delivery(
            TrafficClass::CONTROL,
            FlowId(1),
            Some(0),
            64,
            SimDuration::from_micros(3),
        );
        m.record_delivery(
            TrafficClass::BULK,
            FlowId(2),
            Some(1),
            1 << 20,
            SimDuration::from_millis(2),
        );
        assert_eq!(m.delivered_msgs, 2);
        assert_eq!(m.latency.count(), 2);
        assert_eq!(
            m.latency_by_class[TrafficClass::CONTROL.0 as usize].count(),
            1
        );
        assert_eq!(m.latency_by_class[TrafficClass::BULK.0 as usize].count(), 1);
    }

    #[test]
    fn empty_metrics_have_zero_ratios() {
        let m = EngineMetrics::default();
        assert_eq!(m.aggregation_ratio(), 0.0);
        assert_eq!(m.plans_per_activation(), 0.0);
    }

    #[test]
    #[cfg(not(feature = "debug-invariants"))]
    fn user_class_out_of_range_clamps_and_counts() {
        let mut m = EngineMetrics::default();
        m.record_delivery(
            TrafficClass(200),
            FlowId(1),
            None,
            1,
            SimDuration::from_nanos(1),
        );
        assert_eq!(m.latency_by_class.last().unwrap().count(), 1);
        assert_eq!(m.class_clamped, 1);
        m.record_delivery(
            TrafficClass::CONTROL,
            FlowId(1),
            None,
            1,
            SimDuration::from_nanos(1),
        );
        assert_eq!(m.class_clamped, 1, "in-range classes do not count");
    }

    #[test]
    #[cfg(feature = "debug-invariants")]
    #[should_panic(expected = "out of range")]
    fn user_class_out_of_range_asserts_under_invariants() {
        let mut m = EngineMetrics::default();
        m.record_delivery(
            TrafficClass(200),
            FlowId(1),
            None,
            1,
            SimDuration::from_nanos(1),
        );
    }

    #[test]
    fn metrics_json_is_deterministic_and_complete() {
        let mut m = EngineMetrics::default();
        m.record_packet(2, false);
        m.record_delivery(
            TrafficClass::CONTROL,
            FlowId(1),
            Some(0),
            64,
            SimDuration::from_micros(3),
        );
        *m.strategy_wins.entry("aggregate").or_insert(0) += 1;
        let doc = m.to_json();
        assert_eq!(doc.get("packets_sent").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("class_clamped").unwrap().as_u64(), Some(0));
        assert_eq!(
            doc.get("strategy_wins")
                .unwrap()
                .get("aggregate")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(doc.render(), m.to_json().render());
    }

    #[test]
    fn registry_walks_all_three_stat_kinds() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.add_engine("node0/engine", &EngineMetrics::default());
        r.add_receiver("node0/receiver", &ReceiverStats::default());
        r.add_nic("node0/nic0", &NicStats::default());
        assert_eq!(r.len(), 3);
        let text = r.render();
        let doc = crate::json::Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("artifact").unwrap().as_str(),
            Some("madtrace-metrics")
        );
        let sections = doc.get("sections").unwrap();
        assert!(sections.get("node0/engine").is_some());
        assert!(sections.get("node0/receiver").is_some());
        assert_eq!(
            sections
                .get("node0/nic0")
                .unwrap()
                .get("tx_packets")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert_eq!(text, r.render());
    }
}
