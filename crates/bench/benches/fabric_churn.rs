//! Fabric microbenchmark: what one packet through a switched fabric costs
//! the host — one join and one leave of the max-min allocation, plus the
//! simulator events they post — with nothing else in the way. Raw
//! [`Simulation`] endpoints, no engine: `c` tokens bounce between fixed
//! host pairs across the fabric's widest cut, each hop a fresh fixed-size
//! packet, on links five times slower than NIC injection so the tokens
//! spend their life as concurrent fluid transfers.
//!
//! Prints one row per (topology, concurrency): host nanoseconds per
//! packet — the median of the timed runs between their 25th and 75th
//! percentiles, so a before/after difference can be read against the
//! spread of either side (topology and cluster construction are outside
//! the clock) — and simulator events per packet. The same file
//! runs on any commit that has `Simulation::install_topology`, which is
//! how CHANGES.md gets its before/after columns.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use simnet::{
    Endpoint, LinkProfile, NetworkParams, NicId, SimCtx, SimDuration, SimTime, Simulation,
    Topology, TxMode, TxRequest, WirePacket,
};

const PACKETS_PER_RUN: u64 = 4_096;
const PAYLOAD_BYTES: usize = 1_024;
const WARMUP_RUNS: usize = 5;
const TIMED_RUNS: usize = 31;

/// Sends every packet it receives straight back, one hop fewer to go.
struct Bounce;

fn token(dst: NicId, hops_left: u64, payload: Bytes) -> TxRequest {
    TxRequest {
        dst_nic: dst,
        vchan: 0,
        kind: 0,
        cookie: hops_left,
        mode: TxMode::Pio,
        host_prep: SimDuration::ZERO,
        payload: vec![payload],
    }
}

impl Endpoint for Bounce {
    fn on_packet_rx(&mut self, ctx: &mut SimCtx<'_>, nic: NicId, mut pkt: WirePacket) {
        if pkt.cookie > 0 {
            let payload = pkt.payload.pop().expect("tokens carry one segment");
            ctx.submit(nic, token(pkt.src_nic, pkt.cookie - 1, payload))
                .expect("the tx queue holds every token");
        }
    }
}

/// A cluster on `topo` with `tokens` tokens queued at their home hosts,
/// each good for `PACKETS_PER_RUN / tokens` packets.
fn cluster(topo: Topology, tokens: u64) -> (Simulation, Vec<NicId>) {
    let hosts = topo.hosts();
    let mut sim = Simulation::new();
    let net = sim.add_network(NetworkParams {
        tx_queue_depth: tokens as usize,
        ..NetworkParams::synthetic()
    });
    sim.install_topology(net, topo);
    let nics: Vec<NicId> = (0..hosts)
        .map(|_| {
            let node = sim.add_node();
            sim.set_endpoint(node, Box::new(Bounce));
            sim.add_nic(node, net)
        })
        .collect();
    let payload = Bytes::from(vec![0u8; PAYLOAD_BYTES]);
    for t in 0..tokens {
        let home = (t % u64::from(hosts)) as usize;
        let away = nics[(home + hosts as usize / 2) % hosts as usize];
        let node = sim.nic(nics[home]).node;
        sim.inject(node, |ctx| {
            ctx.submit(
                nics[home],
                token(away, PACKETS_PER_RUN / tokens - 1, payload.clone()),
            )
            .expect("the tx queue holds every token");
        });
    }
    (sim, nics)
}

/// One row per concurrency level for the fabric `build` constructs.
fn rows(name: &str, build: impl Fn() -> Topology) {
    for tokens in [4u64, 16, 64] {
        let mut ns_per_packet = Vec::with_capacity(TIMED_RUNS);
        let mut events = 0;
        for run in 0..WARMUP_RUNS + TIMED_RUNS {
            let (mut sim, nics) = cluster(build(), tokens);
            let start = Instant::now();
            black_box(sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2)));
            let ns = start.elapsed().as_nanos() as f64;
            let delivered: u64 = nics.iter().map(|&n| sim.nic(n).stats.rx_packets).sum();
            assert_eq!(delivered, PACKETS_PER_RUN, "every hop was delivered");
            if run >= WARMUP_RUNS {
                ns_per_packet.push(ns / PACKETS_PER_RUN as f64);
            }
            events = sim.events_processed();
        }
        ns_per_packet.sort_by(f64::total_cmp);
        println!(
            "{:<16} {:>10} {:>8.0} {:>10.0} {:>8.0} {:>14.2}",
            name,
            tokens,
            ns_per_packet[TIMED_RUNS / 4],
            ns_per_packet[TIMED_RUNS / 2],
            ns_per_packet[3 * TIMED_RUNS / 4],
            events as f64 / PACKETS_PER_RUN as f64
        );
    }
}

fn main() {
    // A tenth of the synthetic NIC's wire rate, queues nothing overflows.
    let link = LinkProfile {
        bandwidth: 100_000_000,
        latency: SimDuration::from_nanos(500),
        queue_capacity: 1 << 30,
        ecn_threshold: 1 << 30,
    };
    println!(
        "{:<16} {:>10} {:>8} {:>10} {:>8} {:>14}",
        "fabric", "transfers", "p25", "ns/packet", "p75", "events/packet"
    );
    rows("fat_tree(4)", || Topology::fat_tree(4, link));
    rows("dumbbell(8,8)", || Topology::dumbbell(8, 8, link, link));
}
