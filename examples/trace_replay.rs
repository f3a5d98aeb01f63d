//! Trace record & replay: the apples-to-apples methodology.
//!
//! Record the multi-middleware workload once (flows, timings, fragment
//! shapes), serialize it to text, then replay the *identical* submission
//! sequence on the optimizing engine and on the legacy engine, comparing
//! what each did with the same input.
//!
//! ```text
//! cargo run --release -p madeleine --example trace_replay
//! ```

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madware::apps::{FlowSpec, TrafficApp};
use madware::trace::{Recorder, ReplayApp, Trace};
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration};

fn record() -> Trace {
    // A bursty mixed workload to record.
    let specs: Vec<FlowSpec> = (0..5)
        .map(|i| FlowSpec {
            dst: NodeId(1),
            class: if i == 0 {
                TrafficClass::CONTROL
            } else {
                TrafficClass::DEFAULT
            },
            arrival: Arrival::Burst {
                count: 4,
                period: SimDuration::from_micros(25),
            },
            sizes: SizeDist::Uniform(16, 800),
            express_header: 8,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(60),
            start_after: SimDuration::ZERO,
        })
        .collect();
    let (app, _) = TrafficApp::new("recorded", specs, 1234, 0);
    let (recorder, trace) = Recorder::new(Box::new(app));
    let spec = ClusterSpec::mx_pair();
    let mut c = Cluster::build(&spec, vec![Some(Box::new(recorder)), None]);
    c.drain();
    let t = trace.borrow().clone();
    t
}

fn replay(trace: Trace, engine: EngineKind, label: &str) {
    let spec = ClusterSpec::mx_pair().engine(engine);
    let n = trace.len() as u64;
    let mut c = Cluster::build(&spec, vec![Some(Box::new(ReplayApp::new(trace))), None]);
    let end = c.drain();
    let tx = c.handle(0).metrics();
    assert_eq!(c.handle(1).delivered_count(), n);
    println!(
        "  {label:<20} finished {end}, {} packets, {:.1} chunks/pkt, mean lat {:.1}us",
        tx.packets_sent,
        tx.aggregation_ratio(),
        c.handle(1).metrics().latency.summary().mean(),
    );
}

fn main() {
    let trace = record();
    let text = trace.to_text();
    println!(
        "recorded {} messages / {} bytes across {} flows ({} bytes of trace text)",
        trace.len(),
        trace.total_bytes(),
        trace.flows.len(),
        text.len()
    );
    // Round-trip through the text format, as a tool would.
    let parsed = Trace::from_text(&text).expect("own output parses");
    assert_eq!(parsed, trace);

    println!("replaying the identical submission sequence on both engines:");
    replay(
        parsed.clone(),
        EngineKind::optimizing(),
        "optimizing engine",
    );
    replay(parsed, EngineKind::legacy(), "legacy engine");
    println!("same input, different schedulers — the only fair comparison.");
}
