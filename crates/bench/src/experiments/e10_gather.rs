//! **E10 — Aggregation by copy vs gather/scatter** (§1: merge packets "at the
//! cost of additional processing ... or even to use a gather/scatter
//! request").
//!
//! Two views of the same trade-off:
//!
//! 1. *Analytic*: the driver cost model's transmit-engine occupancy for an
//!    N-chunk packet sent linearized (one memcpy + single-segment DMA) vs
//!    gathered (zero copy, per-segment descriptor cost), across chunk
//!    sizes — the crossover the optimizer's scoring discovers per packet.
//! 2. *Measured*: a marshalled (CORBA-like) workload run with the gather
//!    variants enabled (optimizer picks per packet) vs forcibly linearized.

use madeleine::harness::ClusterSpec;
use madeleine::plan::PlannedChunk;
use madeleine::proto::wire_bytes;
use madeleine::{EngineConfig, FlowId};
use madware::scenario::eager_flows;
use nicdrv::{calib, CostModel};
use simnet::{Technology, TxMode};

use crate::{fmt_bytes, fmt_f, Report, Table};

/// Wire bytes of a packet aggregating one `chunk`-byte message from each of
/// `n` flows (every header names its message).
pub fn packet_bytes(n: usize, chunk: u64) -> u64 {
    let list: Vec<PlannedChunk> = (0..n as u32)
        .map(|flow| PlannedChunk {
            flow: FlowId(flow),
            seq: 0,
            frag: 0,
            offset: 0,
            len: chunk as u32,
        })
        .collect();
    wire_bytes(&list)
}

/// Analytic occupancy of an `n`-chunk packet of `chunk` bytes each.
pub fn analytic(cost: &CostModel, n: usize, chunk: u64) -> (f64, f64) {
    let bytes = packet_bytes(n, chunk);
    let gather = cost.injection_time(TxMode::Dma, bytes, 1 + n).as_nanos() as f64 / 1e3;
    let copy = (cost.injection_time(TxMode::Dma, bytes, 1) + cost.copy_time(bytes)).as_nanos()
        as f64
        / 1e3;
    (copy, gather)
}

/// Measured makespan of an aggregating workload with `size`-byte
/// messages, µs.
pub fn measured(force_copy: bool, size: usize) -> (f64, u64, u64) {
    let config = EngineConfig {
        enable_gather: !force_copy,
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    let (mut cluster, _tx, _rx) = eager_flows(
        &ClusterSpec::mx_pair().config(config),
        8,
        size,
        simnet::SimDuration::from_micros(2),
        150,
        53,
    );
    let end = cluster.drain();
    let m = cluster.handle(0).metrics();
    (
        end.as_micros_f64(),
        m.gathered_packets,
        m.linearized_packets,
    )
}

/// Run the experiment.
pub fn run() -> Report {
    let cost = CostModel::from_params(&calib::params(Technology::MyrinetMx));
    let mut t = Table::new(
        "analytic tx-engine occupancy (us) per aggregated MX packet: copy vs gather",
        &["chunks", "chunk size", "copy(us)", "gather(us)", "winner"],
    );
    for &n in &[2usize, 4, 8] {
        for &sz in &[16u64, 128, 1024, 4096] {
            let (copy, gather) = analytic(&cost, n, sz);
            t.row(vec![
                n.to_string(),
                fmt_bytes(sz),
                fmt_f(copy),
                fmt_f(gather),
                if copy < gather { "copy" } else { "gather" }.into(),
            ]);
        }
    }

    let mut t2 = Table::new(
        "measured: 8 flows x 150 msgs on MX, auto vs forced copy",
        &[
            "msg size",
            "mode",
            "makespan(us)",
            "gathered pkts",
            "copied pkts",
        ],
    );
    for &size in &[512usize, 4096] {
        let (auto_us, gathered, linearized) = measured(false, size);
        let (copy_us, g2, l2) = measured(true, size);
        t2.row(vec![
            fmt_bytes(size as u64),
            "auto (cost-model choice)".into(),
            fmt_f(auto_us),
            gathered.to_string(),
            linearized.to_string(),
        ]);
        t2.row(vec![
            fmt_bytes(size as u64),
            "forced copy".into(),
            fmt_f(copy_us),
            g2.to_string(),
            l2.to_string(),
        ]);
    }

    Report {
        id: "E10",
        title: "by-copy aggregation vs gather/scatter requests",
        claim:
            "aggregate at the cost of additional processing, or use a gather/scatter request (§1)",
        tables: vec![t, t2],
        notes: vec![
            "small chunks favour the memcpy (per-segment descriptor costs \
             dominate); large chunks favour zero-copy gather (memcpy bytes \
             dominate); the optimizer's scoring picks per packet"
                .into(),
        ],
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_crossover_exists() {
        let cost = CostModel::from_params(&calib::params(Technology::MyrinetMx));
        let (copy_small, gather_small) = analytic(&cost, 8, 16);
        let (copy_big, gather_big) = analytic(&cost, 8, 8192);
        assert!(copy_small < gather_small, "tiny chunks: copy should win");
        assert!(gather_big < copy_big, "big chunks: gather should win");
    }

    #[test]
    fn the_engine_flips_from_copy_to_gather_where_the_analytic_table_does() {
        // The table prices an N-chunk MX packet sent by DMA, copied or
        // gathered; `cheapest_injection` is what the engine asks. On MX's
        // own capabilities, for every row whose packet is too big for PIO
        // and narrow enough to gather (elsewhere the choice is not
        // between the table's two columns), the engine's choice is the
        // table's winner — and the flip falls between the same two sizes.
        let caps = calib::capabilities(Technology::MyrinetMx);
        let cost = CostModel::from_params(&calib::params(Technology::MyrinetMx));
        let mut flips = 0;
        for n in [2usize, 4, 8] {
            assert!(caps.can_gather(1 + n));
            let mut previous = None;
            for shift in 4..=12 {
                let chunk = 1u64 << shift;
                let bytes = packet_bytes(n, chunk);
                if caps.can_pio(bytes) || bytes > caps.max_packet_bytes {
                    continue;
                }
                let (copy, gather) = analytic(&cost, n, chunk);
                let how = madeleine::cost::cheapest_injection(&caps, &cost, n, bytes, true)
                    .expect("MX can DMA");
                assert_eq!(how.mode, TxMode::Dma);
                assert_eq!(how.linearize, copy < gather, "{n} x {chunk} B");
                let busy_us = how.busy.as_nanos() as f64 / 1e3;
                assert_eq!(busy_us, copy.min(gather), "{n} x {chunk} B");
                flips += usize::from(previous == Some(true) && !how.linearize);
                assert_ne!((previous, how.linearize), (Some(false), true), "one flip");
                previous = Some(how.linearize);
            }
        }
        assert!(flips > 0, "the sweep crosses the switch point");
    }

    #[test]
    fn forced_copy_linearizes_everything() {
        let (_, gathered, linearized) = measured(true, 512);
        assert_eq!(gathered, 0);
        assert!(linearized > 0);
    }

    #[test]
    fn auto_picks_gather_for_large_chunks() {
        let (_, gathered, linearized) = measured(false, 4096);
        assert!(
            gathered > linearized,
            "gathered {gathered} vs copied {linearized}"
        );
    }

    #[test]
    fn auto_mode_is_no_worse_than_forced_copy() {
        for &size in &[512usize, 4096] {
            let (auto_us, ..) = measured(false, size);
            let (copy_us, ..) = measured(true, size);
            assert!(
                auto_us <= copy_us * 1.05,
                "auto {auto_us} vs copy {copy_us} at {size}"
            );
        }
    }
}
