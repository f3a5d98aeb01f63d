//! A backlog of nothing but rendezvous bodies: `n` flows, one 33 KiB
//! message each, on one MX rail — the shape in which every pending
//! fragment is waiting to ask, has asked, or is in flight, and a window
//! walk that visits flows with nothing to give would visit all of them on
//! every pass. Prints host seconds per flow count; virtual time is a
//! function of `n` alone.
//!
//! ```text
//! cargo run --release -p madeleine --example rndv_backlog -- 2000 8000 32000
//! ```
//!
//! Host time should grow with `n`, not with `n²`: 0.11 / 0.39 / 1.6 s on
//! the machine that measured 0.11 / 0.52 / 12.5 s for a walk over every
//! active flow.

use std::time::Instant;

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madeleine::EngineConfig;

fn main() {
    let mut counts: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("a flow count"))
        .collect();
    if counts.is_empty() {
        counts = vec![2_000, 8_000];
    }
    let body = vec![7u8; 33 << 10];
    for n in counts {
        let config = EngineConfig {
            record_deliveries: false,
            ..EngineConfig::default()
        };
        let mut c = Cluster::build(&ClusterSpec::mx_pair().config(config), vec![]);
        let h = c.handle(0).clone();
        let (src, dst) = (c.nodes[0], c.nodes[1]);
        let flows: Vec<_> = (0..n)
            .map(|_| h.open_flow(dst, TrafficClass::DEFAULT))
            .collect();
        let started = Instant::now();
        c.sim.inject(src, |ctx| {
            for &f in &flows {
                let parts = MessageBuilder::new().pack_cheaper(&body).build_parts();
                h.send(ctx, f, parts);
            }
        });
        let end = c.drain();
        let host = started.elapsed().as_secs_f64();
        let m = c.handle(0).metrics();
        assert_eq!(
            c.handle(1).delivered_count(),
            n as u64,
            "every body arrives"
        );
        assert_eq!(m.rndv_requests, n as u64, "and every one negotiated");
        println!(
            "{n} flows: {host:.2} s of host time, {end} of virtual time, {} selection passes",
            m.decision_evals.count()
        );
    }
}
