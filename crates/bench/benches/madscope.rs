//! Host-side cost of madscope instrumentation: the per-delivery
//! histogram update, the full `record_delivery` fan-out (aggregate +
//! class + flow + rail), one sampler tick, and — the acceptance number —
//! a whole simulated workload with the sampler off vs on. The sampler-off
//! run must sit within noise of a build without madscope (nothing on the
//! hot path but one `Option` branch), and sampler-on must cost <= 3%.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use madeleine::harness::ClusterSpec;
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::metrics::EngineMetrics;
use madeleine::scope::{RailTick, Sampler, TickStats};
use madeleine::LatencyHistogram;
use madware::scenario::eager_flows;
use simnet::{SimDuration, SimTime};
use std::hint::black_box;

fn bench_madscope(c: &mut Criterion) {
    let mut group = c.benchmark_group("madscope_record");

    group.bench_with_input(BenchmarkId::new("hist_record", "lcg"), &(), |b, ()| {
        let mut h = LatencyHistogram::new();
        let mut ns = 1u64;
        b.iter(|| {
            ns = ns.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDuration::from_nanos(ns >> 44));
            black_box(h.count())
        })
    });

    group.bench_with_input(BenchmarkId::new("record_delivery", "full"), &(), |b, ()| {
        let mut m = EngineMetrics::default();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            m.record_delivery(
                TrafficClass::DEFAULT,
                FlowId(i % 8),
                Some((i % 2) as usize),
                512,
                SimDuration::from_nanos(u64::from(i % 100_000) + 1),
            );
            black_box(m.delivered_msgs)
        })
    });

    group.bench_with_input(BenchmarkId::new("sampler_tick", "2rail"), &(), |b, ()| {
        let mut s = Sampler::new(SimDuration::from_micros(5), 4096, 2);
        let rails = [
            RailTick {
                busy: true,
                health_milli: 1000,
                dead: false,
            },
            RailTick {
                busy: false,
                health_milli: 850,
                dead: false,
            },
        ];
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            let stats = TickStats {
                backlog_bytes: tick * 64 % 8192,
                backlog_msgs: tick % 32,
                inflight_pkts: tick % 8,
                submitted_msgs: tick,
                delivered_msgs: tick / 2,
                packets_sent: tick / 3,
                plans_evaluated: tick * 4,
                strategy_wins: tick / 3,
                ..TickStats::default()
            };
            black_box(s.record_tick(SimTime::from_nanos(tick * 5000), stats, &rails, false))
        })
    });
    group.finish();

    // Whole-run overhead: the same seeded workload, sampler off vs on.
    // "off" is the madscope-free baseline (one branch per wake probe);
    // the off->on delta is the sampler's total price and must stay <= 3%.
    let mut group = c.benchmark_group("madscope_run");
    for &sampled in &[false, true] {
        let name = if sampled { "sampler_on" } else { "sampler_off" };
        group.bench_with_input(BenchmarkId::new("eager_flows", name), &sampled, |b, _| {
            b.iter(|| {
                let (mut cluster, _tx, _rx) = eager_flows(
                    &ClusterSpec::mx_pair(),
                    4,
                    64,
                    SimDuration::from_micros(2),
                    50,
                    11,
                );
                if sampled {
                    cluster.enable_sampler(SimDuration::from_micros(5));
                }
                cluster.drain();
                black_box(cluster.handle(1).metrics().delivered_msgs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_madscope);
criterion_main!(benches);
