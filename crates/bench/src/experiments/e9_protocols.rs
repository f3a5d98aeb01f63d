//! **E9 — Per-packet protocol and transfer-mode selection** (§1:
//! communication libraries "combine a variety of techniques ... PIO and
//! DMA transfer modes, eager, rendez-vous and remote memory access
//! protocols ... to select how to send a given packet the best way").
//!
//! One-shot message latency versus size on every calibrated technology,
//! annotated with the injection mode the driver's cost model selects and
//! the protocol (eager vs rendezvous) the engine uses. The crossover
//! points — where PIO yields to DMA and eager yields to rendezvous — are
//! the capability parameters the optimizer keys on.

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madware::pattern;
use nicdrv::{calib, injection_mode, CostModel};
use simnet::{Technology, TxMode};

use crate::{fmt_bytes, fmt_f, Report, Table};

/// Measured one-shot latency for a message of `size` over `tech`.
pub fn measure(tech: Technology, size: usize) -> (f64, bool) {
    let spec = ClusterSpec::new(2, vec![tech]);
    let mut cluster = Cluster::build(&spec, vec![]);
    let h = cluster.handle(0).clone();
    let dst = cluster.nodes[1];
    let flow = h.open_flow(dst, TrafficClass::DEFAULT);
    let src = cluster.nodes[0];
    cluster.sim.inject(src, |ctx| {
        let body = pattern(flow.0, 0, 0, size);
        h.send(
            ctx,
            flow,
            MessageBuilder::new().pack_cheaper(&body).build_parts(),
        );
    });
    cluster.drain();
    let m = cluster.handle(1).metrics();
    let rndv = cluster.handle(0).metrics().rndv_requests > 0;
    assert_eq!(m.delivered_msgs, 1);
    (m.latency.summary().mean(), rndv)
}

/// Run the experiment.
pub fn run() -> Report {
    let sizes: Vec<usize> = vec![
        1,
        64,
        256,
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
    ];
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for tech in [
        Technology::MyrinetMx,
        Technology::QuadricsElan,
        Technology::InfiniBand,
        Technology::TcpEthernet,
        Technology::SharedMem,
    ] {
        let caps = calib::capabilities(tech);
        let cost = CostModel::from_params(&calib::params(tech));
        let mut t = Table::new(
            format!("{} one-shot message latency vs size", tech.label()),
            &["size", "latency(us)", "mode", "protocol"],
        );
        for &s in &sizes {
            let (lat, rndv) = measure(tech, s);
            // A message past the packet limit leaves in packets of it.
            let packet = (s as u64).min(caps.max_packet_bytes);
            let mode = match injection_mode(&caps, &cost, packet, 1) {
                Some((TxMode::Pio, _)) => "PIO",
                Some((TxMode::Dma, _)) => "DMA",
                None => "-",
            };
            let proto = if rndv { "rndv" } else { "eager" };
            t.row(vec![
                fmt_bytes(s as u64),
                fmt_f(lat),
                mode.into(),
                proto.into(),
            ]);
        }
        tables.push(t);
        notes.push(format!(
            "{}: PIO→DMA crossover at {} bytes (cost model), eager→rndv at {}",
            tech.label(),
            cost.pio_dma_crossover().min(caps.pio_max_bytes + 1),
            if caps.rndv_threshold_hint == u64::MAX {
                "never".to_string()
            } else {
                fmt_bytes(caps.rndv_threshold_hint)
            }
        ));
    }
    Report {
        id: "E9",
        title: "PIO/DMA and eager/rendezvous selection across technologies",
        claim:
            "select how to send a given packet the best way: PIO vs DMA, eager vs rendez-vous (§1)",
        tables,
        notes,
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_monotone_in_size() {
        let small = measure(Technology::MyrinetMx, 8).0;
        let large = measure(Technology::MyrinetMx, 256 << 10).0;
        assert!(small < large);
        assert!(small < 6.0, "MX 8B one-way {small}us should be a few us");
    }

    #[test]
    fn rndv_engages_above_threshold() {
        let caps = calib::capabilities(Technology::MyrinetMx);
        let (_, below) = measure(
            Technology::MyrinetMx,
            (caps.rndv_threshold_hint / 2) as usize,
        );
        let (_, above) = measure(
            Technology::MyrinetMx,
            (caps.rndv_threshold_hint * 2) as usize,
        );
        assert!(!below);
        assert!(above);
    }

    #[test]
    fn tech_ordering_for_small_messages() {
        let shm = measure(Technology::SharedMem, 8).0;
        let elan = measure(Technology::QuadricsElan, 8).0;
        let mx = measure(Technology::MyrinetMx, 8).0;
        let tcp = measure(Technology::TcpEthernet, 8).0;
        assert!(shm < elan && elan < mx && mx < tcp);
    }
}
