//! Integration: eager/rendezvous protocol selection and PIO/DMA mode
//! choice, driven by driver capabilities (§1).

use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use madeleine::message::MessageBuilder;
use madeleine::EngineConfig;
use madware::pattern;
use nicdrv::calib;
use simnet::Technology;

fn one_shot(engine: EngineKind, tech: Technology, size: usize) -> (Cluster, u64) {
    let mut c = Cluster::build(&ClusterSpec::new(2, vec![tech]).engine(engine), vec![]);
    let h = c.handle(0).clone();
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let f = h.open_flow(dst, TrafficClass::DEFAULT);
    let body = pattern(f.0, 0, 0, size);
    c.sim.inject(src, |ctx| {
        h.send(
            ctx,
            f,
            MessageBuilder::new().pack_cheaper(&body).build_parts(),
        )
    });
    let end = c.drain();
    let got = c.handle(1).take_delivered();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].contiguous(), body);
    (c, end.as_nanos())
}

#[test]
fn rendezvous_triggers_exactly_at_driver_hint() {
    let hint = calib::capabilities(Technology::MyrinetMx).rndv_threshold_hint as usize;
    let (below, _) = one_shot(EngineKind::optimizing(), Technology::MyrinetMx, hint - 1);
    assert_eq!(below.handle(0).metrics().rndv_requests, 0);
    let (at, _) = one_shot(EngineKind::optimizing(), Technology::MyrinetMx, hint);
    assert_eq!(at.handle(0).metrics().rndv_requests, 1);
    assert_eq!(at.handle(0).metrics().rndv_grants, 1);
}

#[test]
fn config_override_beats_driver_hint() {
    let config = EngineConfig {
        rndv_threshold: Some(1024),
        ..EngineConfig::default()
    };
    let engine = EngineKind::with_config(config);
    let (c, _) = one_shot(engine, Technology::MyrinetMx, 2048);
    assert_eq!(c.handle(0).metrics().rndv_requests, 1);
}

#[test]
fn rendezvous_never_engages_on_tcp() {
    // TCP's hint is "never" (u64::MAX): eager all the way.
    let (c, _) = one_shot(EngineKind::optimizing(), Technology::TcpEthernet, 60_000);
    assert_eq!(c.handle(0).metrics().rndv_requests, 0);
}

#[test]
fn eager_latency_beats_rndv_for_medium_messages() {
    // Force rendezvous for a size where eager is better: the handshake
    // round trip must show up as extra latency.
    let eager_cfg = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    let rndv_cfg = EngineConfig {
        rndv_threshold: Some(1),
        ..EngineConfig::default()
    };
    let (_, t_eager) = one_shot(
        EngineKind::with_config(eager_cfg),
        Technology::MyrinetMx,
        4096,
    );
    let (_, t_rndv) = one_shot(
        EngineKind::with_config(rndv_cfg),
        Technology::MyrinetMx,
        4096,
    );
    assert!(
        t_rndv > t_eager + 3_000,
        "rndv {t_rndv}ns should pay a handshake over eager {t_eager}ns"
    );
}

#[test]
fn driver_mode_selection_matches_cost_model() {
    use nicdrv::Driver;
    for tech in [
        Technology::MyrinetMx,
        Technology::QuadricsElan,
        Technology::InfiniBand,
    ] {
        let d = calib::driver(tech, simnet::NicId(0));
        let caps = calib::capabilities(tech);
        // Tiny messages go PIO; messages beyond the PIO cap must go DMA.
        assert_eq!(d.select_mode(8, 1), simnet::TxMode::Pio, "{tech:?}");
        assert_eq!(
            d.select_mode(caps.pio_max_bytes + 1, 1),
            simnet::TxMode::Dma,
            "{tech:?}"
        );
    }
}

#[test]
fn mtu_chunking_is_transparent() {
    // A message larger than the rail MTU but below the rendezvous
    // threshold must be chunked eagerly and reassembled.
    let config = EngineConfig {
        rndv_threshold: Some(u64::MAX),
        ..EngineConfig::default()
    };
    let engine = EngineKind::with_config(config);
    let (c, _) = one_shot(engine, Technology::MyrinetMx, 100_000); // MTU is 32 KiB
    let m = c.handle(0).metrics();
    assert!(
        m.packets_sent >= 4,
        "chunked into {} packets",
        m.packets_sent
    );
    assert_eq!(m.rndv_requests, 0);
}
