//! Counts read from the layers' public counters after a run. Everything
//! here is a pure function of the inputs: two runs of one seed must agree
//! on every field, and the harness checks that they do.

use std::collections::BTreeMap;

use crate::surface::{Cluster, EngineMetrics};

/// Cluster-wide counts, summed over nodes, NICs and fabric links.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    // collect
    pub submitted_msgs: u64,
    pub submitted_bytes: u64,
    pub backlog_depth_mean: f64,
    pub queue_delay_p99_ns: u64,
    // optimizer
    pub activations: u64,
    pub plans_evaluated: u64,
    pub plans_submitted: u64,
    pub plans_per_activation_p99: u64,
    /// Calls of `collect_candidates` + `select_plan` (several per activation).
    pub select_calls: u64,
    pub congestion_gated: u64,
    pub strategy_wins: BTreeMap<&'static str, u64>,
    // proto
    pub packets_sent: u64,
    pub chunks_sent: u64,
    pub linearized_packets: u64,
    // nic
    pub nic_tx_packets: u64,
    pub nic_rx_packets: u64,
    pub nic_wire_bytes: u64,
    pub nic_idle_transitions: u64,
    pub nic_busy_ns: u64,
    pub nics_used: u64,
    // receiver
    pub delivered_msgs: u64,
    pub delivered_bytes: u64,
    pub receiver_chunks: u64,
    pub receiver_overlaps: u64,
    // reliability
    pub retransmits: u64,
    pub timeouts: u64,
    pub acks_received: u64,
    // simnet
    pub events_processed: u64,
    // topo
    pub fabric_packets: u64,
    pub ecn_marks: u64,
    pub queue_drops: u64,
    // counters that must stay zero on every workload
    pub should_be_zero: BTreeMap<&'static str, u64>,
}

impl Counts {
    /// Read every counter of a finished run.
    pub fn gather(cluster: &Cluster) -> Counts {
        let mut c = Counts::default();
        let mut all = EngineMetrics::default();
        for h in &cluster.handles {
            let m = h.metrics();
            c.submitted_msgs += m.submitted_msgs;
            c.submitted_bytes += m.submitted_bytes;
            c.delivered_msgs += m.delivered_msgs;
            c.delivered_bytes += m.delivered_bytes;
            c.activations += m.activations();
            c.plans_evaluated += m.plans_evaluated;
            c.plans_submitted += m.plans_submitted;
            c.congestion_gated += m.congestion_gated;
            c.packets_sent += m.packets_sent;
            c.chunks_sent += m.chunks_sent;
            c.linearized_packets += m.linearized_packets;
            c.retransmits += m.retransmits;
            c.timeouts += m.timeouts;
            c.acks_received += m.acks_received;
            for (name, wins) in &m.strategy_wins {
                *c.strategy_wins.entry(name).or_default() += wins;
            }
            all.queue_delay.merge(&m.queue_delay);
            all.decision_evals.merge(&m.decision_evals);
            all.backlog_depth.merge(&m.backlog_depth);
            let r = h.receiver_stats();
            c.receiver_chunks += r.chunks;
            c.receiver_overlaps += r.overlaps;
            for (name, n) in [
                (
                    "express_violations",
                    m.express_violations + r.express_violations,
                ),
                ("proto_errors", m.proto_errors),
                ("driver_rejections", m.driver_rejections),
                ("class_clamped", m.class_clamped),
                ("lost_msgs", m.lost_msgs),
                ("rails_dead", m.rails_dead),
            ] {
                *c.should_be_zero.entry(name).or_default() += n;
            }
        }
        c.backlog_depth_mean = all.backlog_depth.mean();
        c.queue_delay_p99_ns = all.queue_delay.quantile(0.99).as_nanos();
        c.plans_per_activation_p99 = all.decision_evals.quantile(0.99);
        c.select_calls = all.decision_evals.count();
        let now = cluster.sim.now();
        c.events_processed = cluster.sim.events_processed();
        for &nic in cluster.nics.iter().flatten() {
            let state = cluster.sim.nic(nic);
            let s = &state.stats;
            c.nic_tx_packets += s.tx_packets;
            c.nic_rx_packets += s.rx_packets;
            c.nic_wire_bytes += s.tx_wire_bytes;
            c.nic_idle_transitions += s.idle_transitions;
            c.nic_busy_ns += state.tx_busy_time(now).as_nanos();
            c.nics_used += u64::from(s.tx_packets > 0);
        }
        for &net in &cluster.networks {
            let Some(fabric) = cluster.sim.fabric(net) else {
                continue;
            };
            c.fabric_packets += cluster
                .nics
                .iter()
                .flatten()
                .map(|&nic| cluster.sim.nic(nic))
                .filter(|nic| nic.network == net)
                .map(|nic| nic.stats.tx_packets)
                .sum::<u64>();
            for link in fabric.link_stats() {
                c.ecn_marks += link.ecn_marks;
                c.queue_drops += link.queue_drops;
            }
        }
        c
    }

    /// Names of the should-stay-zero counters that did not.
    pub fn nonzero(&self) -> Vec<String> {
        self.should_be_zero
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(name, n)| format!("{name}={n}"))
            .collect()
    }
}
