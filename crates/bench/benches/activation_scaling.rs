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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use madeleine::collect::CollectLayer;
use madeleine::config::EngineConfig;
use madeleine::flowmgr::{FairnessMode, CLASS_SLOTS};
use madeleine::ids::{ChannelId, TrafficClass};
use madeleine::message::MessageBuilder;
use madeleine::plan::PlannedChunk;
use simnet::{NodeId, SimTime};
use std::hint::black_box;

const ACTIVE_FLOWS: usize = 10;

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
        c.set_fairness(FairnessMode::Drr, 2048, [1; CLASS_SLOTS]);
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

fn bench_activation(c: &mut Criterion) {
    let cfg = EngineConfig::default();
    for (name, fairness) in [
        ("pack_order", FairnessMode::PackOrder),
        ("drr", FairnessMode::Drr),
    ] {
        let mut group = c.benchmark_group(&format!("collect_candidates/{name}")[..]);
        for &total in &[10usize, 100, 1_000, 100_000] {
            let mut collect = sparse_backlog(total, fairness);
            group.bench_with_input(BenchmarkId::new("total_flows", total), &total, |b, _| {
                b.iter(|| {
                    black_box(collect.collect_candidates(
                        ChannelId(0),
                        cfg.lookahead_window,
                        |_, _| true,
                    ))
                })
            });
        }
        group.finish();
    }
}

fn bench_complete(c: &mut Criterion) {
    let mut group = c.benchmark_group("collect_complete");
    for &depth in &[16u32, 1_024, 16_384] {
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
        group.bench_with_input(BenchmarkId::new("depth", depth), &depth, |b, _| {
            b.iter(|| {
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
                black_box(done)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_activation, bench_complete);
criterion_main!(benches);
