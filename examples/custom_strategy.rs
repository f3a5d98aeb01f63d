//! Extending the strategy database (abstract: "The database of predefined
//! strategies can be easily extended").
//!
//! We register a custom `Strategy` that recognises a deadline-style user
//! traffic class and always proposes flushing it first, alone — an
//! application-specific policy the engine's scoring then weighs against
//! the built-in strategies.
//!
//! ```text
//! cargo run --release -p madeleine --example custom_strategy
//! ```

use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madeleine::plan::PlannedChunk;
use madeleine::strategy::{OptContext, Proposals, Strategy};
use madeleine::EngineBuilder;
use simnet::{NicId, NodeId, SimTime, Simulation, Technology};

/// A user-defined traffic class for deadline-critical telemetry.
const TELEMETRY: TrafficClass = TrafficClass(9);

/// Always propose sending the oldest telemetry chunk alone, immediately.
struct TelemetryFirst;

impl Strategy for TelemetryFirst {
    fn name(&self) -> &'static str {
        "telemetry-first"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            let telemetry = g
                .candidates
                .iter()
                .filter(|c| c.class == TELEMETRY)
                .min_by_key(|c| (c.submitted_at, c.flow, c.seq));
            if let Some(c) = telemetry {
                let alone = PlannedChunk {
                    flow: c.flow,
                    seq: c.seq,
                    frag: c.frag,
                    offset: c.offset,
                    len: c.remaining,
                };
                // Copied into the pass's chunk arena: proposing allocates
                // nothing, and only a winner becomes an owned plan. How
                // the packet is injected — by copy or as a gather list —
                // is not ours to say: the rail's cost model prices it.
                out.push_data(ctx.channel, g.dst, &[alone], self.name());
            }
        }
    }
}

fn main() {
    // Build the cluster by hand this time, to show the full builder API.
    let mut sim = Simulation::new();
    let net = sim.add_network(nicdrv::calib::params(Technology::MyrinetMx));
    let a = sim.add_node();
    let b = sim.add_node();
    let na = sim.add_nic(a, net);
    let nb = sim.add_nic(b, net);

    let build = |node: NodeId, nic: NicId, peer: NodeId, peer_nic: NicId| {
        EngineBuilder::new(node)
            .rail_tech(Technology::MyrinetMx, nic)
            .peer(peer, vec![peer_nic])
            .strategy(Box::new(TelemetryFirst))
            .build()
            .expect("valid engine")
    };
    let (ea, ha) = build(a, na, b, nb);
    let (eb, _hb) = build(b, nb, a, na);
    println!("strategy database: {:?}", ha.strategy_names());
    sim.set_endpoint(a, Box::new(ea));
    sim.set_endpoint(b, Box::new(eb));

    // Mixed backlog: bulk traffic plus telemetry beacons.
    let bulk = ha.open_flow(b, TrafficClass::BULK);
    let beacon = ha.open_flow(b, TELEMETRY);
    sim.inject(a, |ctx| {
        for i in 0..20u8 {
            ha.send(
                ctx,
                bulk,
                MessageBuilder::new()
                    .pack_cheaper(&vec![i; 8 << 10])
                    .build_parts(),
            );
            ha.send(
                ctx,
                beacon,
                MessageBuilder::new().pack_cheaper(&[i; 16]).build_parts(),
            );
        }
    });
    sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));

    let m = ha.metrics();
    println!(
        "sent {} packets for {} messages; telemetry rides its own strategy",
        m.packets_sent, m.submitted_msgs
    );
    println!("done — custom strategies compete in the same scoring loop.");
}
