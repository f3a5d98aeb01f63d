//! **E2 — NIC-idle-triggered scheduling** (§3 and Figure 1): "The
//! scheduler is not activated each time the application submits a new
//! packet, but rather when one of the NICs becomes idle. While the NIC is
//! busy sending a packet, the scheduler simply accumulates a backlog of
//! packets."
//!
//! We drive a bursty multi-flow workload and report, per load level, how
//! the optimizer was activated (idle vs submit vs timer), how many
//! submissions each activation absorbed, and how submission remained
//! non-blocking (submissions during NIC-busy periods simply extend the
//! backlog).

use madeleine::harness::ClusterSpec;
use madware::scenario::eager_flows;
use simnet::SimDuration;

use crate::{fmt_f, Report, Table};

/// Run the experiment.
pub fn run() -> Report {
    let mut t = Table::new(
        "8 flows x 200 msgs of 64B, MX rail; load varies via mean inter-arrival gap",
        &[
            "gap(us)",
            "submits",
            "act(idle)",
            "act(submit)",
            "act(timer)",
            "pkts",
            "submits/act",
            "chunks/pkt",
            "mean backlog",
        ],
    );
    let mut notes = Vec::new();
    for &gap_us in &[1u64, 2, 5, 10, 50, 200] {
        let (mut cluster, _tx, _rx) = eager_flows(
            &ClusterSpec::mx_pair(),
            8,
            64,
            SimDuration::from_micros(gap_us),
            200,
            7,
        );
        cluster.drain();
        let m = cluster.handle(0).metrics();
        let acts = m.activations().max(1);
        t.row(vec![
            gap_us.to_string(),
            m.submitted_msgs.to_string(),
            m.activations_idle.to_string(),
            m.activations_submit.to_string(),
            m.activations_timer.to_string(),
            m.packets_sent.to_string(),
            fmt_f(m.submitted_msgs as f64 / acts as f64),
            fmt_f(m.aggregation_ratio()),
            fmt_f(m.backlog_depth.mean()),
        ]);
    }
    notes.push(
        "under heavy load (small gaps) most activations are NIC-idle events \
         and each absorbs several submissions (backlog accumulation); under \
         light load activations track submissions one-to-one — the 'send \
         packets as they become available' regime of §3"
            .into(),
    );
    Report {
        id: "E2",
        title: "optimizer activation is driven by NIC idleness, not submissions",
        claim: "the application simply enqueues packets and returns; the scheduler runs when a NIC becomes idle (§3, Fig. 1)",
        tables: vec![t],
        notes,
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_load_batches_submissions_per_activation() {
        let (mut cluster, _tx, _rx) = eager_flows(
            &ClusterSpec::mx_pair(),
            8,
            64,
            SimDuration::from_micros(1),
            100,
            3,
        );
        cluster.drain();
        let m = cluster.handle(0).metrics();
        // Backlogs form: far fewer packets than submissions, and idle
        // activations dominate the submit-triggered ones.
        assert!(m.packets_sent < m.submitted_msgs / 2);
        assert!(m.activations_idle > m.activations_submit);
        assert!(
            m.backlog_depth.mean() > 4.0,
            "backlog {}",
            m.backlog_depth.mean()
        );
    }

    #[test]
    fn light_load_sends_as_available() {
        let (mut cluster, _tx, _rx) = eager_flows(
            &ClusterSpec::mx_pair(),
            2,
            64,
            SimDuration::from_micros(500),
            20,
            3,
        );
        cluster.drain();
        let m = cluster.handle(0).metrics();
        // No queueing: one packet per message (each message is two chunks,
        // an express header plus its body — still a single packet).
        assert_eq!(m.packets_sent, m.submitted_msgs);
        assert!(
            (m.aggregation_ratio() - 2.0).abs() < 0.05,
            "{}",
            m.aggregation_ratio()
        );
    }
}
