//! Deliberately broken strategies.
//!
//! These exist so the analyzer's failure path stays exercised: each one
//! violates a different constraint class, and the test suite (plus
//! `cargo xtask analyze --broken-fixture`) asserts madcheck catches it and
//! produces a minimized counterexample. They are **never** registered by
//! the engine.

use madeleine::ids::ChannelId;
use madeleine::plan::PlannedChunk;
use madeleine::strategy::{OptContext, Proposals, Strategy};

/// Proposes the first schedulable chunk with its offset shifted by one
/// byte — breaks the contiguity constraint on every backlog that has any
/// candidate at all.
#[derive(Debug, Default)]
pub struct SkewedOffset;

impl Strategy for SkewedOffset {
    fn name(&self) -> &'static str {
        "fixture-skewed-offset"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        let Some((dst, c)) = ctx
            .groups
            .iter()
            .flat_map(|g| g.candidates.iter().map(move |cand| (g.dst, cand)))
            .next()
        else {
            return;
        };
        let skewed = PlannedChunk {
            flow: c.flow,
            seq: c.seq,
            frag: c.frag,
            offset: c.offset + 1,
            len: 1,
        };
        out.push_data(ctx.channel, dst, &[skewed], self.name());
    }
}

/// Stuffs every candidate into a single packet, ignoring the packet size
/// budget — trips the oversize constraint once the backlog is large
/// enough. (The hardware gather width is not a strategy's to break: the
/// cost model prices a list too wide to gather as a copy.)
#[derive(Debug, Default)]
pub struct GatherHog;

impl Strategy for GatherHog {
    fn name(&self) -> &'static str {
        "fixture-gather-hog"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            if g.candidates.is_empty() {
                continue;
            }
            let chunks: Vec<PlannedChunk> = g
                .candidates
                .iter()
                .map(|c| PlannedChunk {
                    flow: c.flow,
                    seq: c.seq,
                    frag: c.frag,
                    offset: c.offset,
                    len: c.remaining,
                })
                .collect();
            out.push_data(ctx.channel, g.dst, &chunks, self.name());
        }
    }
}

/// Emits rendezvous requests for fragments that are perfectly happy going
/// eagerly — the handshake round-trip is pure overhead, and the state
/// machine rejects the request outright.
#[derive(Debug, Default)]
pub struct EagerRequester;

impl Strategy for EagerRequester {
    fn name(&self) -> &'static str {
        "fixture-eager-requester"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        for g in ctx.groups {
            if let Some(c) = g.candidates.first() {
                out.push_rndv(ctx.channel, g.dst, (c.flow, c.seq, c.frag), self.name());
            }
        }
    }
}

/// Cuts a perfectly valid chunk from the first candidate and proposes it
/// for the rail *next to* the one being scheduled. Every constraint on the
/// chunk holds; the engine would still send the packet on the scheduled
/// rail, past whatever that other rail was checked for — selection vetoes
/// such a plan as `WrongRail` before anything else, and so does the
/// analyzer.
#[derive(Debug, Default)]
pub struct OtherRail;

impl Strategy for OtherRail {
    fn name(&self) -> &'static str {
        "fixture-other-rail"
    }

    fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
        let Some(g) = ctx.groups.iter().find(|g| !g.candidates.is_empty()) else {
            return;
        };
        let c = &g.candidates[0];
        let chunk = PlannedChunk {
            flow: c.flow,
            seq: c.seq,
            frag: c.frag,
            offset: c.offset,
            len: 1,
        };
        let elsewhere = ChannelId(ctx.channel.0 + 1);
        out.push_data(elsewhere, g.dst, &[chunk], self.name());
    }
}
