//! Activation cost vs flow-table size: `collect_candidates` with a fixed
//! handful of active flows while the number of flows that merely *exist*
//! grows by four orders of magnitude. The madflow active-flow index makes
//! this O(active); the acceptance bound for E13 is 100k-total within 1.5x
//! of 100-total at 10 active flows.
//!
//! And per-chunk cost vs queue *depth*: `collect_complete/depth` commits
//! and completes the oldest message of one flow holding `depth` pending
//! messages (then submits one, to hold the depth). Lookup and removal are
//! positional, so the acceptance bound is depth-16384 within 3x of
//! depth-16 — a per-queue scan would be ~1000x.
//!
//! Prints one row per case: host nanoseconds per operation, the median of
//! the timed batches between their 25th and 75th percentiles (the loop
//! `fabric_churn` has), so a before/after difference can be read against
//! the spread of either side.

use madeleine::collect::CollectLayer;
use madeleine::config::EngineConfig;
use madeleine::flowmgr::FairnessMode;
use madeleine::ids::{ChannelId, TrafficClass};
use madeleine::message::MessageBuilder;
use madeleine::plan::PlannedChunk;
use simnet::{NodeId, SimTime};
use std::hint::black_box;
use std::time::Instant;

const ACTIVE_FLOWS: usize = 10;
const OPS_PER_BATCH: u32 = 2_000;
const WARMUP_BATCHES: usize = 5;
const TIMED_BATCHES: usize = 31;

/// Print `case` with the 25th percentile, median and 75th percentile of
/// the nanoseconds one `op` takes.
fn row(case: &str, mut op: impl FnMut()) {
    let mut ns_per_op = Vec::with_capacity(TIMED_BATCHES);
    for batch in 0..WARMUP_BATCHES + TIMED_BATCHES {
        let start = Instant::now();
        for _ in 0..OPS_PER_BATCH {
            op();
        }
        let ns = start.elapsed().as_nanos() as f64;
        if batch >= WARMUP_BATCHES {
            ns_per_op.push(ns / f64::from(OPS_PER_BATCH));
        }
    }
    ns_per_op.sort_by(f64::total_cmp);
    println!(
        "{case:<48} {:>8.0} {:>10.0} {:>8.0}",
        ns_per_op[TIMED_BATCHES / 4],
        ns_per_op[TIMED_BATCHES / 2],
        ns_per_op[3 * TIMED_BATCHES / 4]
    );
}

/// A collect layer with `total` open flows, of which `ACTIVE_FLOWS`
/// (evenly spread over the id space) have one pending message each.
fn sparse_backlog(total: usize, fairness: FairnessMode) -> CollectLayer {
    let mut c = CollectLayer::new();
    let classes = [
        TrafficClass::DEFAULT,
        TrafficClass::BULK,
        TrafficClass::PUT_GET,
        TrafficClass::CONTROL,
    ];
    let flows: Vec<_> = (0..total)
        .map(|i| c.open_flow(NodeId(1), classes[i % classes.len()]))
        .collect();
    if fairness == FairnessMode::Drr {
        c.set_fairness(FairnessMode::Drr, 2048);
    }
    let stride = (total / ACTIVE_FLOWS).max(1);
    for k in 0..ACTIVE_FLOWS.min(total) {
        let parts = MessageBuilder::new()
            .pack_cheaper(&vec![k as u8; 256 + k * 64])
            .build_parts();
        c.submit(
            flows[k * stride],
            parts,
            SimTime::from_nanos(k as u64 * 100),
            1 << 30,
        );
    }
    c
}

fn bench_activation() {
    let cfg = EngineConfig::default();
    for (name, fairness) in [
        ("pack_order", FairnessMode::PackOrder),
        ("drr", FairnessMode::Drr),
    ] {
        for total in [10usize, 100, 1_000, 100_000] {
            let mut collect = sparse_backlog(total, fairness);
            row(
                &format!("collect_candidates/{name}/total_flows/{total}"),
                || {
                    black_box(collect.collect_candidates(
                        ChannelId(0),
                        cfg.lookahead_window,
                        |_, _| true,
                    ));
                },
            );
        }
    }
}

fn bench_complete() {
    for depth in [16u32, 1_024, 16_384] {
        let mut collect = CollectLayer::new();
        let flow = collect.open_flow(NodeId(1), TrafficClass::DEFAULT);
        let submit = |collect: &mut CollectLayer| {
            let parts = MessageBuilder::new().pack_cheaper(&[7u8; 64]).build_parts();
            collect.submit(flow, parts, SimTime::ZERO, 1 << 30);
        };
        for _ in 0..depth {
            submit(&mut collect);
        }
        let mut oldest = 0u32;
        row(&format!("collect_complete/depth/{depth}"), || {
            let chunk = PlannedChunk {
                flow,
                seq: oldest,
                frag: 0,
                offset: 0,
                len: 64,
            };
            oldest += 1;
            collect.commit_chunk(&chunk, ChannelId(0));
            let done = collect.complete_chunk(&chunk);
            submit(&mut collect);
            black_box(done);
        });
    }
}

fn main() {
    println!("{:<48} {:>8} {:>10} {:>8}", "case", "p25", "ns/op", "p75");
    bench_activation();
    bench_complete();
}
