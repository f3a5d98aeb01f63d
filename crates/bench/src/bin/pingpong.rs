//! The classic communication-library benchmark: ping-pong latency and
//! streaming bandwidth versus message size, on any calibrated technology
//! and either engine.
//!
//! ```text
//! pingpong [--tech mx|elan|ib|tcp|shm] [--legacy] [--max-size BYTES]
//! ```

use mad_bench::{fmt_bytes, fmt_f, tracecli::parse_tech, Table};
use madeleine::api::{AppDriver, CommApi};
use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::{FlowId, TrafficClass};
use madeleine::message::{DeliveredMessage, MessageBuilder};
use simnet::{NodeId, Technology};
use std::cell::RefCell;
use std::rc::Rc;

/// Ping side: sends, waits for the echo, repeats; records round trips.
struct Ping {
    peer: NodeId,
    size: usize,
    reps: u32,
    done: u32,
    flow: Option<FlowId>,
    sent_at: simnet::SimTime,
    rtts_us: Rc<RefCell<Vec<f64>>>,
}

impl AppDriver for Ping {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        let f = api.open_flow(self.peer, TrafficClass::DEFAULT);
        self.flow = Some(f);
        self.sent_at = api.now();
        api.send(
            f,
            MessageBuilder::new()
                .pack_cheaper(&vec![1u8; self.size])
                .build_parts(),
        );
    }
    fn on_message(&mut self, api: &mut dyn CommApi, _msg: &DeliveredMessage) {
        self.rtts_us
            .borrow_mut()
            .push(api.now().since(self.sent_at).as_micros_f64());
        self.done += 1;
        if self.done < self.reps {
            self.sent_at = api.now();
            api.send(
                self.flow.expect("started"),
                MessageBuilder::new()
                    .pack_cheaper(&vec![1u8; self.size])
                    .build_parts(),
            );
        }
    }
}

/// Pong side: echoes everything back.
struct Pong {
    peer: NodeId,
    flow: Option<FlowId>,
}

impl AppDriver for Pong {
    fn on_start(&mut self, api: &mut dyn CommApi) {
        self.flow = Some(api.open_flow(self.peer, TrafficClass::DEFAULT));
    }
    fn on_message(&mut self, api: &mut dyn CommApi, msg: &DeliveredMessage) {
        let body = msg.fragments[0].1.clone();
        api.send(
            self.flow.expect("started"),
            MessageBuilder::new()
                .pack_bytes(body, madeleine::PackMode::Cheaper)
                .build_parts(),
        );
    }
}

fn pingpong(tech: Technology, legacy: bool, size: usize, reps: u32) -> (f64, f64) {
    let engine = if legacy {
        EngineKind::legacy()
    } else {
        EngineKind::optimizing()
    };
    let spec = ClusterSpec::new(2, vec![tech]).engine(engine);
    let rtts = Rc::new(RefCell::new(Vec::new()));
    let ping = Ping {
        peer: NodeId(1),
        size,
        reps,
        done: 0,
        flow: None,
        sent_at: simnet::SimTime::ZERO,
        rtts_us: rtts.clone(),
    };
    let pong = Pong {
        peer: NodeId(0),
        flow: None,
    };
    let mut c = Cluster::build(&spec, vec![Some(Box::new(ping)), Some(Box::new(pong))]);
    c.drain();
    let rtts = rtts.borrow();
    assert_eq!(rtts.len(), reps as usize, "ping-pong stalled");
    let mean_rtt = rtts.iter().sum::<f64>() / rtts.len() as f64;
    let half = mean_rtt / 2.0;
    // Streaming bandwidth estimate from the one-way time.
    let mbps = size as f64 / half; // bytes per µs == MB/s
    (half, mbps)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let legacy = args.iter().any(|a| a == "--legacy");
    let tech = match args.iter().position(|a| a == "--tech") {
        Some(i) => {
            parse_tech(args.get(i + 1).map(String::as_str).unwrap_or("")).unwrap_or_else(|| {
                eprintln!("unknown technology");
                std::process::exit(2);
            })
        }
        None => Technology::MyrinetMx,
    };
    let max_size: usize = match args.iter().position(|a| a == "--max-size") {
        Some(i) => args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(1 << 20),
        None => 1 << 20,
    };
    let mut t = Table::new(
        format!(
            "ping-pong on {} ({} engine)",
            tech.label(),
            if legacy { "legacy" } else { "optimizing" }
        ),
        &["size", "half-RTT (us)", "bandwidth (MB/s)"],
    );
    let mut size = 1usize;
    while size <= max_size {
        let (half, mbps) = pingpong(tech, legacy, size, 30);
        t.row(vec![fmt_bytes(size as u64), fmt_f(half), fmt_f(mbps)]);
        size *= 4;
    }
    print!("{}", t.render());
}
