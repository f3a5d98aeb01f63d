//! Wall-clock cost of one optimizer decision (`select_plan`) as the
//! backlog and the rearrangement budget grow — the CPU-side quantity the
//! paper's future-work item E5 proposes to bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use madeleine::collect::CollectLayer;
use madeleine::config::EngineConfig;
use madeleine::ids::{ChannelId, TrafficClass};
use madeleine::message::MessageBuilder;
use madeleine::optimizer::{select_plan, select_plan_traced};
use madeleine::strategy::{OptContext, StrategyRegistry};
use nicdrv::{calib, CostModel};
use simnet::{NodeId, SimTime, Technology};
use std::hint::black_box;

fn backlog(msgs: usize, flows: usize) -> CollectLayer {
    let mut c = CollectLayer::new();
    let fl: Vec<_> = (0..flows)
        .map(|_| c.open_flow(NodeId(1), TrafficClass::DEFAULT))
        .collect();
    for i in 0..msgs {
        let parts = MessageBuilder::new()
            .pack_express(&(i as u32).to_le_bytes())
            .pack_cheaper(&vec![i as u8; 64 + (i % 7) * 100])
            .build_parts();
        c.submit(
            fl[i % flows],
            parts,
            SimTime::from_nanos(i as u64 * 100),
            1 << 30,
        );
    }
    c
}

fn bench_select(c: &mut Criterion) {
    let caps = calib::capabilities(Technology::MyrinetMx);
    let cost = CostModel::from_params(&calib::params(Technology::MyrinetMx));
    let mut group = c.benchmark_group("select_plan");
    for &msgs in &[4usize, 16, 64, 256] {
        let mut collect = backlog(msgs, 8);
        let cfg = EngineConfig::default();
        let registry = StrategyRegistry::standard(&cfg);
        group.bench_with_input(BenchmarkId::new("backlog", msgs), &msgs, |b, _| {
            b.iter(|| {
                let groups =
                    collect.collect_candidates(ChannelId(0), cfg.lookahead_window, |_, _| true);
                let ctx = OptContext {
                    now: SimTime::from_nanos(1_000_000),
                    channel: ChannelId(0),
                    caps: &caps,
                    cost: &cost,
                    config: &cfg,
                    groups: &groups,
                    packet_limit: 32 << 10,
                    rail_count: 1,
                    health_penalty: 1.0,
                };
                black_box(select_plan(
                    &registry,
                    &ctx,
                    &collect,
                    32 << 10,
                    cfg.rearrange_budget,
                ))
            })
        });
    }
    group.finish();

    // The decision alone, on a standing window of `window` candidates
    // drawn once from a deep backlog: what the per-pass window index and
    // validation scratch are meant to keep near-linear in the window.
    let mut group = c.benchmark_group("select_plan");
    let mut collect = backlog(256, 8);
    for &window in &[8usize, 64] {
        let cfg = EngineConfig::default().with_window(window);
        let registry = StrategyRegistry::standard(&cfg);
        let groups = collect.collect_candidates(ChannelId(0), window, |_, _| true);
        let ctx = OptContext {
            now: SimTime::from_nanos(1_000_000),
            channel: ChannelId(0),
            caps: &caps,
            cost: &cost,
            config: &cfg,
            groups: &groups,
            packet_limit: 32 << 10,
            rail_count: 1,
            health_penalty: 1.0,
        };
        group.bench_with_input(BenchmarkId::new("window", window), &window, |b, _| {
            b.iter(|| {
                black_box(select_plan(
                    &registry,
                    &ctx,
                    &collect,
                    32 << 10,
                    cfg.rearrange_budget,
                ))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("select_plan_budget");
    let mut collect = backlog(128, 8);
    for &budget in &[1usize, 8, 64, 1024] {
        let cfg = EngineConfig::default().with_budget(budget);
        let registry = StrategyRegistry::standard(&cfg);
        group.bench_with_input(BenchmarkId::new("budget", budget), &budget, |b, _| {
            b.iter(|| {
                let groups =
                    collect.collect_candidates(ChannelId(0), cfg.lookahead_window, |_, _| true);
                let ctx = OptContext {
                    now: SimTime::from_nanos(1_000_000),
                    channel: ChannelId(0),
                    caps: &caps,
                    cost: &cost,
                    config: &cfg,
                    groups: &groups,
                    packet_limit: 32 << 10,
                    rail_count: 1,
                    health_penalty: 1.0,
                };
                black_box(select_plan(&registry, &ctx, &collect, 32 << 10, budget))
            })
        });
    }
    group.finish();

    // Madtrace overhead: the same decision with the event sink disabled
    // (the default; `select_plan` is this case) vs recording into an
    // enabled ring. The disabled/off delta is the acceptance bound for
    // "tracing off costs one branch"; off-vs-on is the price of the
    // decision log itself.
    let mut group = c.benchmark_group("select_plan_trace");
    let mut collect = backlog(64, 8);
    let cfg = EngineConfig::default();
    let registry = StrategyRegistry::standard(&cfg);
    for &traced in &[false, true] {
        let name = if traced { "on" } else { "off" };
        group.bench_with_input(BenchmarkId::new("trace", name), &traced, |b, _| {
            let mut sink = if traced {
                madeleine::EventSink::with_capacity(4096)
            } else {
                madeleine::EventSink::disabled()
            };
            let mut activation = 0u64;
            b.iter(|| {
                let groups =
                    collect.collect_candidates(ChannelId(0), cfg.lookahead_window, |_, _| true);
                let ctx = OptContext {
                    now: SimTime::from_nanos(1_000_000),
                    channel: ChannelId(0),
                    caps: &caps,
                    cost: &cost,
                    config: &cfg,
                    groups: &groups,
                    packet_limit: 32 << 10,
                    rail_count: 1,
                    health_penalty: 1.0,
                };
                activation += 1;
                black_box(select_plan_traced(
                    &registry,
                    &ctx,
                    &collect,
                    32 << 10,
                    cfg.rearrange_budget,
                    &mut sink,
                    activation,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_select);
criterion_main!(benches);
