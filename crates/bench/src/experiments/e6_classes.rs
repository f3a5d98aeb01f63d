//! **E6 — Traffic classes on dedicated channels** (§2: the scheduler "may
//! assign some of these resources to different classes of traffic
//! (assigning different channel to large synchronous sends, put/get
//! transfers and control/signalling messages) and help the receiver in
//! sorting out the incoming packets").
//!
//! A bulk stream and a latency-critical control stream share a two-rail
//! node pair. With the pooled policy, control messages queue behind bulk
//! packets; pinning the control class to its own rail restores its
//! latency, at a bounded cost in bulk throughput. A second table shows the
//! receiver-sorting effect of per-class virtual channels.

use madeleine::harness::{ClusterSpec, EngineKind, NodeHandle};
use madeleine::ids::TrafficClass;
use madeleine::{EngineConfig, PolicyKind};
use madware::apps::FlowSpec;
use madware::scenario::traffic_pair;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

use crate::{fmt_f, Report, Table};

/// Outcome of one policy setting.
pub struct ClassPoint {
    /// Mean control-message latency (µs).
    pub ctrl_mean_us: f64,
    /// p99-ish control latency (µs) from the log2 histogram.
    pub ctrl_p99_us: f64,
    /// Bulk goodput (MB/s over the run).
    pub bulk_mbps: f64,
    /// Packets per virtual channel at the receiver.
    pub vchan_packets: Vec<u64>,
}

fn workload() -> Vec<FlowSpec> {
    vec![
        // Saturating bulk stream: 16 KiB messages back to back.
        FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::BULK,
            arrival: Arrival::Periodic(SimDuration::from_micros(30)),
            sizes: SizeDist::Fixed(16 << 10),
            express_header: 0,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(400),
            start_after: SimDuration::ZERO,
        },
        // Latency-critical control stream.
        FlowSpec {
            dst: NodeId(1),
            class: TrafficClass::CONTROL,
            arrival: Arrival::Poisson(SimDuration::from_micros(25)),
            sizes: SizeDist::Fixed(16),
            express_header: 0,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(400),
            start_after: SimDuration::ZERO,
        },
    ]
}

/// Run the mixed workload under a policy; `pin` separates the classes.
pub fn run_point(pin: bool, collapse_vchans: bool) -> ClassPoint {
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    let policy = if pin {
        PolicyKind::ClassPinned
    } else {
        PolicyKind::Pooled
    };
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx, Technology::MyrinetMx])
        .engine(EngineKind::with_policy(config, policy));
    let (mut cluster, _tx, _rx) = traffic_pair(&spec, "mix", workload(), 17);
    if pin {
        if let NodeHandle::Opt(h) = cluster.handle(0) {
            h.pin_class(TrafficClass::CONTROL, &[0]);
            h.pin_class(TrafficClass::BULK, &[1]);
            h.pin_class(TrafficClass::DEFAULT, &[1]);
        }
    }
    if collapse_vchans {
        if let NodeHandle::Opt(h) = cluster.handle(0) {
            h.collapse_classes();
        }
    }
    let end = cluster.drain();
    let rx = cluster.handle(1).metrics();
    let ctrl = &rx.latency_by_class[TrafficClass::CONTROL.0 as usize];
    let bulk_bytes = 400u64 * (16 << 10);
    ClassPoint {
        ctrl_mean_us: ctrl.summary().mean(),
        ctrl_p99_us: ctrl.quantile(0.99).as_micros_f64(),
        bulk_mbps: bulk_bytes as f64 / 1e6 / end.as_secs_f64(),
        vchan_packets: cluster.handle(1).receiver_stats().per_vchan_packets,
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let pooled = run_point(false, false);
    let pinned = run_point(true, false);
    let collapsed = run_point(false, true);

    let mut t = Table::new(
        "bulk (16KiB x 400) + control (16B x 400) over 2 MX rails",
        &["policy", "ctrl mean(us)", "ctrl p99(us)", "bulk MB/s"],
    );
    for (name, p) in [
        ("pooled (shared)", &pooled),
        ("class-pinned rails", &pinned),
    ] {
        t.row(vec![
            name.to_string(),
            fmt_f(p.ctrl_mean_us),
            fmt_f(p.ctrl_p99_us),
            fmt_f(p.bulk_mbps),
        ]);
    }

    let mut t2 = Table::new(
        "receiver demultiplexing: packets per virtual channel (rail vchans)",
        &["classmap", "per-vchan packet counts"],
    );
    t2.row(vec![
        "per-class channels".into(),
        format!("{:?}", pooled.vchan_packets),
    ]);
    t2.row(vec![
        "collapsed (1 channel)".into(),
        format!("{:?}", collapsed.vchan_packets),
    ]);

    Report {
        id: "E6",
        title: "traffic classes: dedicated channels for control vs bulk",
        claim:
            "assign resources to traffic classes and help the receiver sort incoming packets (§2)",
        tables: vec![t, t2],
        notes: vec![format!(
            "class pinning cuts control p99 latency {}x while bulk keeps one \
             full rail",
            fmt_f(pooled.ctrl_p99_us / pinned.ctrl_p99_us.max(0.001))
        )],
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_improves_control_tail_latency() {
        let pooled = run_point(false, false);
        let pinned = run_point(true, false);
        assert!(
            pinned.ctrl_p99_us < pooled.ctrl_p99_us,
            "pinned {} !< pooled {}",
            pinned.ctrl_p99_us,
            pooled.ctrl_p99_us
        );
        // Bulk keeps moving in both configurations.
        assert!(pinned.bulk_mbps > 50.0);
        assert!(pooled.bulk_mbps > 50.0);
    }

    #[test]
    fn per_class_vchans_presort_packets_for_receiver() {
        let separated = run_point(false, false);
        let collapsed = run_point(false, true);
        let used = |v: &Vec<u64>| v.iter().filter(|&&n| n > 0).count();
        assert!(
            used(&separated.vchan_packets) > used(&collapsed.vchan_packets),
            "separated {:?} vs collapsed {:?}",
            separated.vchan_packets,
            collapsed.vchan_packets
        );
    }
}
