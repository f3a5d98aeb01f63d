//! **E4 — Packet lookahead window sizing** (§4 future work: "we intend to
//! experiment with different packet lookahead window sizes").
//!
//! The lookahead window bounds how many backlog chunks the optimizer sees
//! per activation — and, since no chunk count caps a packet, how many a
//! packet of small messages can carry. Tiny windows cannot find merges;
//! wider ones make deeper packets, with returns that diminish.
//!
//! Two cells: uniform small eager messages on one rail (the shape where
//! the answer is easiest), and E13's heterogeneous cell — sizes across
//! the rendezvous threshold, four classes, two rails — where the backlog
//! also holds requests that wait, and a window that counted them would
//! have to be wide enough to see past them.

use madeleine::harness::ClusterSpec;
use madeleine::ids::TrafficClass;
use madeleine::EngineConfig;
use madware::scenario::eager_flows;
use simnet::SimDuration;

use crate::experiments::e13_flowscale::{run_hetero, HETERO_FLOWS};
use crate::{fmt_f, Report, Table};

/// Windows swept on the heterogeneous cell.
pub const HETERO_WINDOWS: [usize; 5] = [8, 16, 32, 64, 256];

/// Outcome of one window setting.
pub struct WindowPoint {
    /// Makespan (µs).
    pub makespan_us: f64,
    /// Aggregation ratio.
    pub agg: f64,
    /// Plans evaluated per activation.
    pub plans_per_act: f64,
}

/// Run one window size under heavy multi-flow load.
pub fn run_point(window: usize) -> WindowPoint {
    let config = EngineConfig::default().with_window(window);
    let (mut cluster, _tx, _rx) = eager_flows(
        &ClusterSpec::mx_pair().config(config),
        16,
        64,
        SimDuration::from_micros(1),
        120,
        23,
    );
    let end = cluster.drain();
    let m = cluster.handle(0).metrics();
    WindowPoint {
        makespan_us: end.as_micros_f64(),
        agg: m.aggregation_ratio(),
        plans_per_act: m.plans_per_activation(),
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let mut t = Table::new(
        "16 flows x 120 msgs of 64B, heavy load, MX rail",
        &["window", "makespan(us)", "chunks/pkt", "plans/act"],
    );
    let base = run_point(1);
    let mut best = (1, base.makespan_us);
    for &w in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let p = run_point(w);
        if p.makespan_us < best.1 {
            best = (w, p.makespan_us);
        }
        t.row(vec![
            w.to_string(),
            fmt_f(p.makespan_us),
            fmt_f(p.agg),
            fmt_f(p.plans_per_act),
        ]);
    }
    let mut th = Table::new(
        "E13's heterogeneous cell: 100k flows x 2 msgs, 64B..256KiB, 4 classes, MX + Elan",
        &[
            "window",
            "makespan(ms)",
            "chunks/pkt",
            "mean(us)",
            "ctrl mean(us)",
        ],
    );
    let mut hetero = Vec::new();
    for &w in &HETERO_WINDOWS {
        let p = run_hetero(HETERO_FLOWS, EngineConfig::default().with_window(w));
        th.row(vec![
            w.to_string(),
            fmt_f(p.makespan_us / 1000.0),
            fmt_f(p.chunks_per_pkt),
            fmt_f(p.mean_us),
            fmt_f(p.class_mean_us[TrafficClass::CONTROL.0 as usize]),
        ]);
        hetero.push((w, p.makespan_us / 1000.0));
    }
    let narrowest = hetero[0];
    let widest = hetero[hetero.len() - 1];
    Report {
        id: "E4",
        title: "lookahead window size sweep",
        claim:
            "experiment with different packet lookahead window sizes (§4, announced future work)",
        tables: vec![t, th],
        notes: vec![
            format!(
                "window=1 degenerates to per-packet sending ({} us); a packet of small \
                 messages ends where the rail or the window does, so a wider window \
                 makes deeper packets (best {} us, at window {})",
                fmt_f(base.makespan_us),
                fmt_f(best.1),
                best.0
            ),
            format!(
                "rendezvous requests parked in the backlog wait beside the window, not \
                 in it, so its width is all data and here too it ends a packet: \
                 makespan {} ms at window {}, {} ms at {} (while each parked request \
                 took a slot, only a window of 256 reached this cell's plateau; \
                 EXPERIMENTS.md E4 keeps both sweeps)",
                fmt_f(narrowest.1),
                narrowest.0,
                fmt_f(widest.1),
                widest.0
            ),
        ],
        artifacts: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_one_disables_aggregation() {
        let p = run_point(1);
        assert!((p.agg - 1.0).abs() < 0.05, "agg {}", p.agg);
    }

    #[test]
    fn wider_windows_help_then_saturate() {
        let w1 = run_point(1);
        let w32 = run_point(32);
        let w256 = run_point(256);
        assert!(
            w32.makespan_us < w1.makespan_us * 0.8,
            "window should speed things up"
        );
        // Returns diminish: window 32 is 4x faster than window 1, eight
        // times that window buys 12 % more (1128 -> 993 us at 256).
        let rel = (w256.makespan_us - w32.makespan_us).abs() / w32.makespan_us;
        assert!(rel < 0.25, "saturation expected, rel diff {rel}");
    }
}
