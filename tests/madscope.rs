//! madscope integration tests: the quantile bracket property, the
//! Prometheus export's golden shape, byte-identical deterministic
//! exports, and sampler zero-interference (enabling the sampler must not
//! change a single engine metric).

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::{flatten_registry, LogHistogram, MessageBuilder, TrafficClass};
use proptest::prelude::*;
use simnet::SimDuration;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// For any sample set and any q, the histogram's bucket-bound
    /// quantile must bracket the exact rank statistic: with
    /// `v = sorted[ceil(q*n).max(1) - 1]`, the report satisfies
    /// `v <= quantile(q) < 2 * max(v, 1)` — the one-power-of-two
    /// guarantee `core::hist` documents.
    #[test]
    fn quantiles_bracket_exact_percentiles(
        samples in prop::collection::vec(any::<u64>(), 1..200),
        q_milli in 0u64..=1000,
    ) {
        let q = q_milli as f64 / 1000.0;
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        let exact = sorted[rank - 1];
        let got = h.quantile(q);
        prop_assert!(
            u128::from(got) >= u128::from(exact),
            "quantile({q}) = {got} below exact rank statistic {exact}"
        );
        prop_assert!(
            u128::from(got) < 2 * u128::from(exact.max(1)),
            "quantile({q}) = {got} more than 2x the exact rank statistic {exact}"
        );
    }

    /// Merging histograms must agree with recording the union.
    #[test]
    fn merge_equals_union(
        a in prop::collection::vec(any::<u64>(), 0..60),
        b in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hu = LogHistogram::new();
        for &v in &a { ha.record(v); hu.record(v); }
        for &v in &b { hb.record(v); hu.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.buckets(), hu.buckets());
        prop_assert_eq!(ha.count(), hu.count());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }
}

/// A small deterministic two-flow workload on an MX pair.
fn run_workload(sampler: bool) -> Cluster {
    let mut c = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
    if sampler {
        c.enable_sampler(SimDuration::from_micros(5));
    }
    let src = c.nodes[0];
    let dst = c.nodes[1];
    let h = c.handles[0].clone();
    let f1 = h.open_flow(dst, TrafficClass::DEFAULT);
    let f2 = h.open_flow(dst, TrafficClass::BULK);
    for i in 0..16u8 {
        let flow = if i % 2 == 0 { f1 } else { f2 };
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                flow,
                MessageBuilder::new()
                    .pack_express(&[i; 8])
                    .pack_cheaper(&[i; 512])
                    .build_parts(),
            )
        });
    }
    c.drain();
    c
}

/// Structural golden shape of the Prometheus text export: alternating
/// HELP/TYPE headers and `family{labels} value` samples, every family
/// typed as gauge, unique sample keys, and one rendered sample per
/// flattened registry leaf.
#[test]
fn prometheus_export_golden_shape() {
    let c = run_workload(true);
    let reg = c.metrics_registry();
    let text = c.prometheus_text();

    let mut sample_keys = Vec::new();
    let mut families_typed = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE family kind");
            assert_eq!(kind, "gauge", "{line}");
            families_typed.push(family.to_string());
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        // Sample line: family{label="v",...} value
        let (key, value) = line.rsplit_once(' ').expect("sample line");
        let (family, labels) = key.split_once('{').expect("labelled sample");
        assert!(labels.ends_with('}'), "{line}");
        assert!(labels.contains("section=\""), "{line}");
        assert!(
            family
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'),
            "family must be a sanitized identifier: {line}"
        );
        assert!(family.starts_with("madeleine_"), "{line}");
        assert!(
            families_typed.iter().any(|f| f == family),
            "sample before its TYPE header: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value must be numeric: {line}"
        );
        sample_keys.push(key.to_string());
    }

    let total = sample_keys.len();
    sample_keys.sort();
    sample_keys.dedup();
    assert_eq!(sample_keys.len(), total, "duplicate sample keys");
    assert_eq!(
        total,
        flatten_registry(&reg).len(),
        "one rendered sample per registry leaf"
    );

    // Spot checks: engine counters, per-class histograms, the sampler
    // section and per-vchan arrays all surface.
    assert!(
        text.contains("madeleine_delivered_msgs{section=\"node1/engine\"} 16"),
        "{text}"
    );
    assert!(text.contains("section=\"node0/sampler\""), "{text}");
    assert!(
        text.contains("madeleine_latency_by_class_us_bulk_count"),
        "{text}"
    );
    assert!(text.contains("index="), "array leaves carry an index label");
}

/// Same seed, same bytes: the sampler CSV, the metrics registry and the
/// Prometheus export must all be byte-identical across repeat runs.
#[test]
fn same_seed_exports_are_byte_identical() {
    let a = run_workload(true);
    let b = run_workload(true);
    let csv_a = a.sampler_csv(0).expect("sampler enabled");
    let csv_b = b.sampler_csv(0).expect("sampler enabled");
    assert!(csv_a.lines().count() > 1, "CSV has data rows:\n{csv_a}");
    assert_eq!(csv_a, csv_b);
    assert_eq!(a.metrics_registry().render(), b.metrics_registry().render());
    assert_eq!(a.prometheus_text(), b.prometheus_text());
}

/// Enabling the sampler must not change any engine or receiver metric:
/// its ticks are read-only observations, so the metrics sections of the
/// registry (everything except the sampler section itself) are
/// byte-identical with and without it.
#[test]
fn sampler_does_not_perturb_the_run() {
    let with = run_workload(true);
    let without = run_workload(false);
    for node in 0..2 {
        assert_eq!(
            with.handle(node).metrics().to_json().render(),
            without.handle(node).metrics().to_json().render(),
            "node {node} engine metrics must be sampler-invariant"
        );
    }
    assert_eq!(
        with.handle(1).metrics().delivered_msgs,
        16,
        "workload delivered"
    );
}

/// The registry reports counters, not analysis: a traced cluster's
/// Prometheus text carries the simulator ring's health as `sim/trace` and
/// no `profile` section, and a ring that overflowed shows its drops there.
#[test]
fn a_traced_cluster_reports_its_simulator_ring() {
    let traced = |cap: usize, msgs: usize| {
        let mut c = Cluster::build(&ClusterSpec::mx_pair().with_tracing(cap), vec![]);
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let h = c.handles[0].clone();
        let flow = h.open_flow(dst, TrafficClass::DEFAULT);
        for i in 0..msgs {
            c.sim.inject(src, |ctx| {
                let parts = MessageBuilder::new()
                    .pack_cheaper(&[i as u8; 4 << 10])
                    .build_parts();
                h.send(ctx, flow, parts)
            });
        }
        c.drain();
        c
    };
    let sample = |text: &str, field: &str| -> u64 {
        let key = format!("madeleine_{field}{{section=\"sim/trace\"}} ");
        let line = text.lines().find_map(|l| l.strip_prefix(key.as_str()));
        line.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key}in\n{text}"))
    };

    let text = traced(1 << 16, 16).prometheus_text();
    assert!(!text.contains("section=\"profile\""), "{text}");
    assert_eq!(sample(&text, "capacity"), 1 << 16);
    assert!(sample(&text, "retained") > 0);
    assert_eq!(sample(&text, "dropped"), 0);

    let c = traced(4 << 10, 6000);
    let text = c.prometheus_text();
    assert_eq!(sample(&text, "capacity"), 4 << 10);
    assert_eq!(sample(&text, "retained"), 4 << 10);
    assert_eq!(sample(&text, "dropped"), c.sim.trace().dropped());
    assert!(sample(&text, "dropped") > 0, "a 4 Ki ring must overflow");

    // Untraced, the section is absent.
    let plain = run_workload(false).prometheus_text();
    assert!(!plain.contains("sim/trace"), "{plain}");
}
