//! **E7 — Dynamic load balancing over multiple NICs** (§2: the scheduler
//! "may also perform dynamic load balancing on multiple resources,
//! multiple NICs, or even NICs from multiple technologies").
//!
//! A *single* bulk flow streams large messages. The legacy one-to-one
//! mapping chains the flow to one NIC forever; the pooled optimizer lets
//! every idle rail pull the next chunk, aggregating bandwidth — including
//! across a heterogeneous Myrinet+Quadrics node, where each rail
//! contributes in proportion to its speed with no explicit ratio
//! configured anywhere.

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madeleine::EngineConfig;
use madware::apps::{FlowSpec, StatsHandle};
use madware::scenario::traffic_pair;
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, SimTime, Technology};

use crate::{fmt_f, Report, Table};

/// Result of one rail configuration.
pub struct RailPoint {
    /// Aggregate goodput (MB/s).
    pub mbps: f64,
    /// Payload bytes that left via each sender NIC.
    pub per_nic_bytes: Vec<u64>,
    /// Median delivery latency (µs, madscope histogram).
    pub p50_us: f64,
    /// Tail delivery latency (µs, madscope histogram).
    pub p99_us: f64,
    /// All payloads verified.
    pub intact: bool,
}

/// One BULK flow streaming `msgs` x 24 KiB over the cell `spec`
/// describes, drained: the cluster, its end time and the sink's stats.
fn bulk_stream(spec: &ClusterSpec, msgs: u64) -> (Cluster, SimTime, StatsHandle) {
    let flow = FlowSpec {
        dst: NodeId(1),
        class: TrafficClass::BULK,
        arrival: Arrival::Periodic(SimDuration::from_micros(5)),
        sizes: SizeDist::Fixed(24 << 10),
        express_header: 0, // pure bulk: free to split across rails
        stop_after: Some(msgs),
        start_after: SimDuration::ZERO,
    };
    let (mut cluster, _tx, rx) = traffic_pair(spec, "bulk", vec![flow], 29);
    let end = cluster.drain();
    (cluster, end, rx)
}

/// Stream `msgs` x 24 KiB messages over the given rails with one flow.
pub fn run_point(engine: EngineKind, rails: Vec<Technology>, msgs: u64) -> RailPoint {
    let spec = ClusterSpec::new(2, rails).engine(engine);
    let (cluster, end, rx) = bulk_stream(&spec, msgs);
    let bytes = msgs * (24 << 10);
    let per_nic_bytes = cluster.nics[0]
        .iter()
        .map(|&nic| cluster.sim.nic(nic).stats.tx_payload_bytes)
        .collect();
    let intact = rx.borrow().integrity.all_ok();
    let rxm = cluster.handle(1).metrics();
    RailPoint {
        mbps: bytes as f64 / 1e6 / end.as_secs_f64(),
        per_nic_bytes,
        p50_us: rxm.latency.quantile(0.5).as_micros_f64(),
        p99_us: rxm.latency.quantile(0.99).as_micros_f64(),
        intact,
    }
}

/// Pooled optimizer with rendezvous disabled (also the regression gate's
/// engine for the E7 smoke point).
pub fn opt() -> EngineKind {
    // Disable rendezvous so the stream is a continuous eager chunk supply
    // (rendezvous handshakes would serialize on the request rail and make
    // the comparison about protocol, not balancing).
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    EngineKind::with_config(config)
}

/// Legacy engine under the same rendezvous-free configuration.
pub fn leg() -> EngineKind {
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    EngineKind::Legacy { config }
}

/// madprof artifacts for the two-rail pooled cell: a fully-traced replica
/// of `run_point(opt(), [mx; 2], msgs)` profiled post-hoc, showing how
/// idle-rail pull splits each message's time between decision and wire.
pub fn profile_artifacts(msgs: u64) -> Vec<(String, String)> {
    let spec = ClusterSpec::new(2, vec![Technology::MyrinetMx; 2])
        .engine(opt())
        .with_tracing(1 << 16);
    let prof = bulk_stream(&spec, msgs).0.profile();
    vec![
        ("e7_profile.folded".to_string(), prof.folded_stacks()),
        ("e7_attribution.csv".to_string(), prof.attribution_csv()),
        ("e7_profile.json".to_string(), prof.to_json().render()),
    ]
}

/// Run the experiment.
pub fn run() -> Report {
    let msgs = 300u64;
    let mut t = Table::new(
        "single bulk flow, 300 x 24KiB messages, homogeneous MX rails",
        &[
            "rails",
            "opt MB/s",
            "legacy MB/s",
            "gain",
            "opt p50(us)",
            "opt p99(us)",
        ],
    );
    for k in 1..=4usize {
        let rails = vec![Technology::MyrinetMx; k];
        let o = run_point(opt(), rails.clone(), msgs);
        let l = run_point(leg(), rails, msgs);
        assert!(o.intact && l.intact);
        t.row(vec![
            k.to_string(),
            fmt_f(o.mbps),
            fmt_f(l.mbps),
            format!("{:.2}x", o.mbps / l.mbps),
            fmt_f(o.p50_us),
            fmt_f(o.p99_us),
        ]);
    }

    let hetero = run_point(
        opt(),
        vec![Technology::MyrinetMx, Technology::QuadricsElan],
        msgs,
    );
    let mx_only = run_point(opt(), vec![Technology::MyrinetMx], msgs);
    let elan_only = run_point(opt(), vec![Technology::QuadricsElan], msgs);
    let mut t2 = Table::new(
        "heterogeneous node: Myrinet + Quadrics rails (Figure 1's node)",
        &["config", "MB/s", "bytes via MX", "bytes via Elan"],
    );
    t2.row(vec![
        "MX only".into(),
        fmt_f(mx_only.mbps),
        mx_only.per_nic_bytes[0].to_string(),
        "-".into(),
    ]);
    t2.row(vec![
        "Elan only".into(),
        fmt_f(elan_only.mbps),
        "-".into(),
        elan_only.per_nic_bytes[0].to_string(),
    ]);
    t2.row(vec![
        "MX + Elan pooled".into(),
        fmt_f(hetero.mbps),
        hetero.per_nic_bytes[0].to_string(),
        hetero.per_nic_bytes[1].to_string(),
    ]);

    Report {
        id: "E7",
        title: "multi-rail load balancing, homogeneous and heterogeneous",
        claim:
            "dynamic load balancing on multiple NICs, or even NICs from multiple technologies (§2)",
        tables: vec![t, t2],
        notes: vec![
            "the legacy engine chains a flow to one NIC; the pooled optimizer's \
             idle-rail pull distributes chunks with shares proportional to each \
             rail's drain rate"
                .into(),
        ],
        artifacts: profile_artifacts(msgs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_scales_with_rail_count_legacy_does_not() {
        let msgs = 120;
        let o1 = run_point(opt(), vec![Technology::MyrinetMx], msgs);
        let o2 = run_point(opt(), vec![Technology::MyrinetMx; 2], msgs);
        let l2 = run_point(leg(), vec![Technology::MyrinetMx; 2], msgs);
        assert!(o1.intact && o2.intact && l2.intact);
        assert!(
            o2.mbps > 1.6 * o1.mbps,
            "2 rails: {} vs 1 rail {}",
            o2.mbps,
            o1.mbps
        );
        // Legacy: single flow -> one rail only.
        assert_eq!(
            l2.per_nic_bytes[1], 0,
            "legacy must not use the second rail"
        );
        assert!(o2.mbps > 1.5 * l2.mbps);
    }

    #[test]
    fn heterogeneous_shares_track_rail_speeds() {
        let h = run_point(
            opt(),
            vec![Technology::MyrinetMx, Technology::QuadricsElan],
            150,
        );
        assert!(h.intact);
        let (mx, elan) = (h.per_nic_bytes[0] as f64, h.per_nic_bytes[1] as f64);
        assert!(mx > 0.0 && elan > 0.0, "both rails used");
        // Elan (~900 MB/s) should carry clearly more than MX (~250 MB/s).
        assert!(elan > 1.5 * mx, "elan {elan} vs mx {mx}");
    }
}
