//! Regression matrix: one (or more) tests per `PlanViolation` variant, so
//! every rejection path of `validate_plan` stays pinned. The strategy
//! database is checked against these same rules by `cargo xtask analyze`;
//! this file guards the checker itself.

use madeleine::collect::CollectLayer;
use madeleine::constraints::{validate_plan, PlanViolation};
use madeleine::ids::{ChannelId, FlowId, TrafficClass};
use madeleine::message::{Fragment, MessageBuilder, PackMode};
use madeleine::plan::{PlanBody, PlannedChunk, TransferPlan};
use nicdrv::DriverCapabilities;
use simnet::{NodeId, SimTime};

const MTU: u64 = 1 << 20;
const NO_RNDV: u64 = 1 << 30;

fn caps() -> DriverCapabilities {
    nicdrv::calib::synthetic_capabilities()
}

fn parts(sizes: &[(usize, PackMode)]) -> Vec<Fragment> {
    let mut b = MessageBuilder::new();
    for &(n, mode) in sizes {
        b = b.pack(&vec![7; n], mode);
    }
    b.build_parts()
}

/// One flow to node 1 holding one message with the given fragments.
fn setup(sizes: &[(usize, PackMode)]) -> (CollectLayer, FlowId) {
    let mut c = CollectLayer::new();
    let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
    c.submit(f, parts(sizes), SimTime::ZERO, NO_RNDV);
    (c, f)
}

fn data_plan(chunks: Vec<PlannedChunk>) -> TransferPlan {
    TransferPlan {
        channel: ChannelId(0),
        dst: NodeId(1),
        body: PlanBody::Data {
            chunks,
            linearize: false,
        },
        strategy: "matrix-test",
    }
}

fn chunk(flow: FlowId, frag: u16, offset: u32, len: u32) -> PlannedChunk {
    PlannedChunk {
        flow,
        seq: 0,
        frag,
        offset,
        len,
    }
}

#[test]
fn empty_plan() {
    let (c, _) = setup(&[(64, PackMode::Cheaper)]);
    assert_eq!(
        validate_plan(&data_plan(vec![]), &c, &caps(), MTU),
        Err(PlanViolation::EmptyPlan)
    );
}

#[test]
fn zero_length_chunk() {
    let (c, f) = setup(&[(64, PackMode::Cheaper)]);
    assert_eq!(
        validate_plan(&data_plan(vec![chunk(f, 0, 0, 0)]), &c, &caps(), MTU),
        Err(PlanViolation::ZeroLengthChunk)
    );
}

#[test]
fn unknown_chunk_variants() {
    let (c, f) = setup(&[(64, PackMode::Cheaper)]);
    // Unknown flow.
    let bogus_flow = FlowId(99);
    assert_eq!(
        validate_plan(
            &data_plan(vec![chunk(bogus_flow, 0, 0, 8)]),
            &c,
            &caps(),
            MTU
        ),
        Err(PlanViolation::UnknownChunk)
    );
    // Known flow, unknown sequence number.
    let p = data_plan(vec![PlannedChunk {
        flow: f,
        seq: 42,
        frag: 0,
        offset: 0,
        len: 8,
    }]);
    assert_eq!(
        validate_plan(&p, &c, &caps(), MTU),
        Err(PlanViolation::UnknownChunk)
    );
    // Known message, fragment index out of range.
    assert_eq!(
        validate_plan(&data_plan(vec![chunk(f, 5, 0, 8)]), &c, &caps(), MTU),
        Err(PlanViolation::UnknownChunk)
    );
    // Rendezvous request for an unknown message.
    let p = TransferPlan {
        channel: ChannelId(0),
        dst: NodeId(1),
        body: PlanBody::RndvRequest {
            flow: f,
            seq: 9,
            frag: 0,
        },
        strategy: "matrix-test",
    };
    assert_eq!(
        validate_plan(&p, &c, &caps(), MTU),
        Err(PlanViolation::UnknownChunk)
    );
}

#[test]
fn mixed_destinations() {
    let mut c = CollectLayer::new();
    let f1 = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
    let f2 = c.open_flow(NodeId(2), TrafficClass::DEFAULT);
    c.submit(
        f1,
        parts(&[(64, PackMode::Cheaper)]),
        SimTime::ZERO,
        NO_RNDV,
    );
    c.submit(
        f2,
        parts(&[(64, PackMode::Cheaper)]),
        SimTime::ZERO,
        NO_RNDV,
    );
    let p = data_plan(vec![chunk(f1, 0, 0, 64), chunk(f2, 0, 0, 64)]);
    assert_eq!(
        validate_plan(&p, &c, &caps(), MTU),
        Err(PlanViolation::MixedDestinations)
    );
}

#[test]
fn wrong_rail() {
    // A message whose express fragment is mid-transfer is pinned to the
    // rail it started on; scheduling the rest elsewhere must be rejected.
    let (mut c, f) = setup(&[(64, PackMode::Express), (64, PackMode::Cheaper)]);
    c.commit_chunk(&chunk(f, 0, 0, 32), ChannelId(0));
    let p = TransferPlan {
        channel: ChannelId(1),
        dst: NodeId(1),
        body: PlanBody::Data {
            chunks: vec![chunk(f, 0, 32, 32)],
            linearize: false,
        },
        strategy: "matrix-test",
    };
    assert_eq!(
        validate_plan(&p, &c, &caps(), MTU),
        Err(PlanViolation::WrongRail)
    );
    // Same chunk on the pinned rail is fine.
    let p = data_plan(vec![chunk(f, 0, 32, 32)]);
    assert_eq!(validate_plan(&p, &c, &caps(), MTU), Ok(()));
}

#[test]
fn non_contiguous() {
    let (c, f) = setup(&[(100, PackMode::Cheaper)]);
    assert_eq!(
        validate_plan(&data_plan(vec![chunk(f, 0, 10, 10)]), &c, &caps(), MTU),
        Err(PlanViolation::NonContiguous {
            flow: f,
            frag: 0,
            expected: 0,
            got: 10
        })
    );
}

#[test]
fn overrun() {
    let (c, f) = setup(&[(100, PackMode::Cheaper)]);
    assert_eq!(
        validate_plan(&data_plan(vec![chunk(f, 0, 0, 101)]), &c, &caps(), MTU),
        Err(PlanViolation::Overrun)
    );
}

#[test]
fn express_order() {
    let (c, f) = setup(&[(16, PackMode::Express), (64, PackMode::Cheaper)]);
    assert_eq!(
        validate_plan(&data_plan(vec![chunk(f, 1, 0, 64)]), &c, &caps(), MTU),
        Err(PlanViolation::ExpressOrder {
            flow: f,
            frag: 1,
            open_express: 0
        })
    );
    // Covering the express header earlier in the same packet unlocks it.
    let p = data_plan(vec![chunk(f, 0, 0, 16), chunk(f, 1, 0, 64)]);
    assert_eq!(validate_plan(&p, &c, &caps(), MTU), Ok(()));
}

#[test]
fn rndv_blocked() {
    // Submission threshold of 32 bytes gates the 64-byte fragment.
    let mut c = CollectLayer::new();
    let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
    c.submit(f, parts(&[(64, PackMode::Cheaper)]), SimTime::ZERO, 32);
    assert_eq!(
        validate_plan(&data_plan(vec![chunk(f, 0, 0, 64)]), &c, &caps(), MTU),
        Err(PlanViolation::RndvBlocked)
    );
    // Request + grant clears the gate.
    c.mark_rndv_requested(f, 0, 0);
    c.grant_rndv(f, 0, 0);
    assert_eq!(
        validate_plan(&data_plan(vec![chunk(f, 0, 0, 64)]), &c, &caps(), MTU),
        Ok(())
    );
}

#[test]
fn oversize() {
    let (c, f) = setup(&[(2000, PackMode::Cheaper)]);
    let p = data_plan(vec![chunk(f, 0, 0, 2000)]);
    match validate_plan(&p, &c, &caps(), 1000) {
        Err(PlanViolation::OverSize { bytes, limit }) => {
            assert!(bytes > limit);
            assert_eq!(limit, 1000);
        }
        other => panic!("expected OverSize, got {other:?}"),
    }
    // The driver's own packet cap binds even when the wire MTU is huge.
    let mut tight = caps();
    tight.max_packet_bytes = 512;
    assert!(matches!(
        validate_plan(&p, &c, &tight, MTU),
        Err(PlanViolation::OverSize { limit: 512, .. })
    ));
}

#[test]
fn gather_too_wide() {
    // 12 single-fragment flows, each larger than PIO when combined, and
    // more segments than the synthetic gather limit (8).
    let mut c = CollectLayer::new();
    let mut chunks = Vec::new();
    for _ in 0..12 {
        let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
        c.submit(
            f,
            parts(&[(1024, PackMode::Cheaper)]),
            SimTime::ZERO,
            NO_RNDV,
        );
        chunks.push(chunk(f, 0, 0, 1024));
    }
    let p = data_plan(chunks.clone());
    match validate_plan(&p, &c, &caps(), MTU) {
        Err(PlanViolation::GatherTooWide { segs, max }) => {
            assert_eq!(segs, 13); // 12 chunks + header block
            assert_eq!(max, 8);
        }
        other => panic!("expected GatherTooWide, got {other:?}"),
    }
    // Linearizing (copy into one staging buffer) escapes the gather limit.
    let p = TransferPlan {
        channel: ChannelId(0),
        dst: NodeId(1),
        body: PlanBody::Data {
            chunks,
            linearize: true,
        },
        strategy: "matrix-test",
    };
    assert_eq!(validate_plan(&p, &c, &caps(), MTU), Ok(()));
}

#[test]
fn no_injection_path() {
    // A rail that cannot DMA and streams at most 4 KiB by PIO, under a
    // 1 MiB request ceiling — capabilities `validate()` accepts. Nothing
    // can inject a one-chunk 8 KiB packet there, copied or not: the rail's
    // packet limit is what PIO streams.
    let mut pio_only = caps();
    pio_only.supports_dma = false;
    pio_only.pio_max_bytes = 4 << 10;
    pio_only.max_packet_bytes = 1 << 20;
    pio_only.validate().expect("a driver may be PIO-only");
    let (c, f) = setup(&[(8 << 10, PackMode::Cheaper)]);
    let whole = data_plan(vec![chunk(f, 0, 0, 8 << 10)]);
    for by_copy in [false, true] {
        assert!(matches!(
            validate_plan(&whole.clone().injected(by_copy), &c, &pio_only, MTU),
            Err(PlanViolation::OverSize { limit: 4096, .. })
        ));
    }
    // What fits the limit streams, whatever the number of segments.
    let piece = data_plan(vec![chunk(f, 0, 0, 4000)]);
    for by_copy in [false, true] {
        let piece = piece.clone().injected(by_copy);
        assert_eq!(validate_plan(&piece, &c, &pio_only, MTU), Ok(()));
    }
    // The veto of last resort, for capabilities no driver constructor
    // accepts: neither mode exists, so not even the copy goes out — where
    // the cost model prices `None`, validation says why.
    let mut neither = caps();
    neither.supports_pio = false;
    neither.supports_dma = false;
    assert!(neither.validate().is_err());
    let small = data_plan(vec![chunk(f, 0, 0, 64)]);
    match validate_plan(&small.clone().injected(true), &c, &neither, MTU) {
        Err(PlanViolation::NoInjectionPath { bytes }) => assert!(bytes > 64),
        other => panic!("expected NoInjectionPath, got {other:?}"),
    }
    assert!(matches!(
        validate_plan(&small, &c, &neither, MTU),
        Err(PlanViolation::GatherTooWide { segs: 2, max: 0 })
    ));
}

#[test]
fn rndv_not_needed() {
    let (c, f) = setup(&[(64, PackMode::Cheaper)]);
    let p = TransferPlan {
        channel: ChannelId(0),
        dst: NodeId(1),
        body: PlanBody::RndvRequest {
            flow: f,
            seq: 0,
            frag: 0,
        },
        strategy: "matrix-test",
    };
    assert_eq!(
        validate_plan(&p, &c, &caps(), MTU),
        Err(PlanViolation::RndvNotNeeded)
    );
}

#[test]
fn rndv_request_accepted_when_needed() {
    let mut c = CollectLayer::new();
    let f = c.open_flow(NodeId(1), TrafficClass::DEFAULT);
    c.submit(f, parts(&[(64, PackMode::Cheaper)]), SimTime::ZERO, 32);
    let p = TransferPlan {
        channel: ChannelId(0),
        dst: NodeId(1),
        body: PlanBody::RndvRequest {
            flow: f,
            seq: 0,
            frag: 0,
        },
        strategy: "matrix-test",
    };
    assert_eq!(validate_plan(&p, &c, &caps(), MTU), Ok(()));
    // Once requested, a second request is redundant.
    c.mark_rndv_requested(f, 0, 0);
    assert_eq!(
        validate_plan(&p, &c, &caps(), MTU),
        Err(PlanViolation::RndvNotNeeded)
    );
}

#[test]
fn well_formed_plans_pass() {
    let (c, f) = setup(&[(100, PackMode::Cheaper), (50, PackMode::Cheaper)]);
    // Split chunks of one fragment plus a second fragment, in order.
    let p = data_plan(vec![
        chunk(f, 0, 0, 40),
        chunk(f, 0, 40, 60),
        chunk(f, 1, 0, 50),
    ]);
    assert_eq!(validate_plan(&p, &c, &caps(), MTU), Ok(()));
}
