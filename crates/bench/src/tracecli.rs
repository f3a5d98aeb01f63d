//! Implementation of the `trace-tool` binary: inspect, generate, replay
//! and export workload traces from the command line.

use madeleine::harness::{Cluster, ClusterSpec};
use madeleine::json::{JsonError, Parser};
use madeleine::trace::{ChromeExport, EngineEvent};
use madeleine::{Json, LogHistogram, Sampler};
use madware::apps::{FlowSpec, TrafficApp};
use madware::trace::{Recorder, ReplayApp, Trace};
use madware::workload::{Arrival, SizeDist};
use simnet::{NodeId, SimDuration, Technology};

use crate::fmt_f;

/// Default ring capacity for traced replays (simulator + engine events).
pub const EXPORT_TRACE_CAP: usize = 1 << 16;

/// Parse a technology name.
pub fn parse_tech(s: &str) -> Option<Technology> {
    Some(match s.to_ascii_lowercase().as_str() {
        "mx" | "myrinet" => Technology::MyrinetMx,
        "elan" | "quadrics" => Technology::QuadricsElan,
        "ib" | "infiniband" => Technology::InfiniBand,
        "tcp" | "gige" => Technology::TcpEthernet,
        "shm" => Technology::SharedMem,
        _ => return None,
    })
}

/// Render a human summary of a trace.
pub fn info(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flows: {}   messages: {}   payload: {} bytes\n",
        trace.flows.len(),
        trace.len(),
        trace.total_bytes()
    ));
    if let (Some(first), Some(last)) = (trace.msgs.first(), trace.msgs.last()) {
        out.push_str(&format!(
            "span: {} us of virtual time\n",
            fmt_f((last.at_ns - first.at_ns) as f64 / 1e3)
        ));
    }
    for (i, (dst, class)) in trace.flows.iter().enumerate() {
        let msgs = trace.msgs.iter().filter(|m| m.flow_idx == i).count();
        let bytes: u64 = trace
            .msgs
            .iter()
            .filter(|m| m.flow_idx == i)
            .flat_map(|m| m.frags.iter())
            .map(|&(n, _)| n as u64)
            .sum();
        out.push_str(&format!(
            "  flow {i}: -> node {} class {} ({} msgs, {} bytes)\n",
            dst.0,
            class.label(),
            msgs,
            bytes
        ));
    }
    out
}

/// The two-node replay cell every subcommand runs, undrained: `trace`
/// replayed from node 0 onto a bare engine at node 1 over one `tech`
/// rail. `legacy` picks the baseline engine; `trace_cap` turns both
/// trace rings on.
fn replay_cluster(
    trace: Trace,
    legacy: bool,
    tech: Technology,
    trace_cap: Option<usize>,
) -> Cluster {
    let mut spec = ClusterSpec::new(2, vec![tech]).with_tracing(trace_cap);
    if legacy {
        spec = spec.legacy();
    }
    Cluster::build(&spec, vec![Some(Box::new(ReplayApp::new(trace))), None])
}

/// Replay a trace on a fresh two-node cluster; returns a result summary.
pub fn replay(trace: Trace, legacy: bool, tech: Technology) -> String {
    let expected = trace.len() as u64;
    let mut c = replay_cluster(trace, legacy, tech, None);
    let end = c.drain();
    let tx = c.handle(0).metrics();
    let rx = c.handle(1).metrics();
    format!(
        "engine: {}   rail: {}\n\
         delivered {}/{} messages in {} (virtual)\n\
         {} wire packets, {} chunks/pkt, mean latency {} us\n",
        if legacy { "legacy" } else { "optimizing" },
        tech.label(),
        rx.delivered_msgs,
        expected,
        end,
        tx.packets_sent,
        fmt_f(tx.aggregation_ratio()),
        fmt_f(rx.latency.summary().mean()),
    )
}

/// Run the same trace on both engines and render a comparison table.
pub fn compare(trace: Trace, tech: Technology) -> String {
    let run = |legacy: bool| {
        let mut c = replay_cluster(trace.clone(), legacy, tech, None);
        let end = c.drain();
        let tx = c.handle(0).metrics();
        let rx = c.handle(1).metrics();
        (end, tx, rx)
    };
    let (opt_end, opt_tx, opt_rx) = run(false);
    let (leg_end, leg_tx, leg_rx) = run(true);
    let mut t = crate::Table::new(
        format!("same trace on both engines ({} rail)", tech.label()),
        &["metric", "optimizing", "legacy"],
    );
    t.row(vec![
        "makespan (us)".into(),
        fmt_f(opt_end.as_micros_f64()),
        fmt_f(leg_end.as_micros_f64()),
    ]);
    t.row(vec![
        "wire packets".into(),
        opt_tx.packets_sent.to_string(),
        leg_tx.packets_sent.to_string(),
    ]);
    t.row(vec![
        "chunks/packet".into(),
        fmt_f(opt_tx.aggregation_ratio()),
        fmt_f(leg_tx.aggregation_ratio()),
    ]);
    t.row(vec![
        "mean latency (us)".into(),
        fmt_f(opt_rx.latency.summary().mean()),
        fmt_f(leg_rx.latency.summary().mean()),
    ]);
    t.row(vec![
        "p99-ish latency (us)".into(),
        fmt_f(opt_rx.latency.quantile(0.99).as_micros_f64()),
        fmt_f(leg_rx.latency.quantile(0.99).as_micros_f64()),
    ]);
    t.render()
}

/// Replay a trace on the optimizing engine with the madscope sampler
/// enabled, and render the run as percentile tables plus ASCII timelines
/// of the backlog and per-rail utilization. Returns the rendered report
/// and the sampler's CSV export (for `--csv`).
pub fn stats(trace: Trace, tech: Technology, tick_us: u64) -> (String, String) {
    let tick_us = tick_us.max(1);
    let expected = trace.len() as u64;
    // Classes the trace opens flows under, captured before the replay
    // consumes it: a class whose every flow was cancelled or shed
    // delivers nothing, and must still show up in the percentile table.
    let mut trace_classes: Vec<u8> = trace.flows.iter().map(|&(_, class)| class.0).collect();
    trace_classes.sort_unstable();
    trace_classes.dedup();
    let mut c = replay_cluster(trace, false, tech, None);
    c.enable_sampler(SimDuration::from_micros(tick_us));
    let end = c.drain();
    let tx = c.handle(0).metrics();
    let rx = c.handle(1).metrics();

    let mut out = format!(
        "madscope stats: {} rail, delivered {}/{} messages, makespan {} us, \
         sampler tick {tick_us} us\n\n",
        tech.label(),
        rx.delivered_msgs,
        expected,
        fmt_f(end.as_micros_f64()),
    );

    let mut t = crate::Table::new(
        "delivery latency percentiles (us; log2-bucket upper bounds, max exact)",
        &["scope", "count", "p50", "p90", "p99", "max"],
    );
    let mut rows = 0usize;
    let row = |t: &mut crate::Table, name: String, h: &LogHistogram<SimDuration>| -> bool {
        if h.count() == 0 {
            return false;
        }
        // A single sample makes every log2-bucket percentile the same
        // upper bound, which can overstate the one real value by almost
        // 2x — report the exact value instead of a degenerate spread.
        let q = |q: f64| {
            if h.count() == 1 {
                fmt_f(h.summary().max())
            } else {
                fmt_f(h.quantile(q).as_micros_f64())
            }
        };
        t.row(vec![
            name,
            h.count().to_string(),
            q(0.5),
            q(0.9),
            q(0.99),
            fmt_f(h.summary().max()),
        ]);
        true
    };
    rows += row(&mut t, "all".into(), &rx.latency) as usize;
    for (i, h) in rx.latency_by_class.iter().enumerate() {
        if h.count() == 0 && trace_classes.contains(&(i as u8)) {
            // The trace offered this class but nothing was delivered
            // (every flow cancelled or shed): an explicit zero row beats
            // silently vanishing from the table.
            rows += 1;
            t.row(vec![
                format!("class {}", madeleine::TrafficClass(i as u8).label()),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        rows += row(
            &mut t,
            format!("class {}", madeleine::TrafficClass(i as u8).label()),
            h,
        ) as usize;
    }
    for ((src, flow), h) in &rx.latency_by_flow {
        rows += row(&mut t, format!("node {} flow {}", src.0, flow.0), h) as usize;
    }
    for (r, h) in rx.latency_by_rail.iter().enumerate() {
        rows += row(&mut t, format!("rail {r}"), h) as usize;
    }
    rows += row(&mut t, "queue delay (tx)".into(), &tx.queue_delay) as usize;
    if rows == 0 {
        out.push_str("no deliveries recorded: latency percentile table omitted\n");
    } else {
        out.push_str(&t.render());
    }
    out.push('\n');

    if tx.decision_evals.count() > 0 {
        out.push_str(&format!(
            "optimizer decision work: {} activations, plans scored per \
             activation p50 {} / p99 {} / max {}\n\n",
            tx.decision_evals.count(),
            tx.decision_evals.quantile(0.5),
            tx.decision_evals.quantile(0.99),
            tx.decision_evals.summary().max(),
        ));
    }

    let csv = c.sampler_csv(0).unwrap_or_default();
    if let Some(s) = c.handle(0).opt().and_then(|h| h.sampler_snapshot()) {
        out.push_str(&timelines(&s));
    }
    (out, csv)
}

/// ASCII timelines of one sampler ring: backlog plus per-rail
/// utilization, downsampled to a fixed width (each column shows the
/// segment maximum).
fn timelines(s: &Sampler) -> String {
    let rows: Vec<_> = s.rows().collect();
    if rows.is_empty() {
        return "sampler recorded no ticks\n".to_string();
    }
    let span = format!(
        "sampler timeline: {} ticks ({} dropped), {} -> {}\n",
        rows.len(),
        s.dropped(),
        rows[0].at,
        rows[rows.len() - 1].at,
    );
    let backlog: Vec<u64> = rows.iter().map(|r| r.stats.backlog_bytes).collect();
    let inflight: Vec<u64> = rows.iter().map(|r| r.stats.inflight_pkts).collect();
    let mut out = span;
    out.push_str(&spark_line("backlog bytes", &backlog));
    out.push_str(&spark_line("inflight pkts", &inflight));
    let rails = rows[0].rails.len();
    for r in 0..rails {
        let util: Vec<u64> = rows
            .iter()
            .map(|row| u64::from(row.rails[r].util_milli))
            .collect();
        out.push_str(&spark_line(&format!("rail{r} util"), &util));
        let last = &rows[rows.len() - 1].rails[r];
        if last.dead {
            out.push_str(&format!("    rail{r} is DEAD\n"));
        } else if last.health_milli < 1000 {
            out.push_str(&format!(
                "    rail{r} final health {}.{:03}\n",
                last.health_milli / 1000,
                last.health_milli % 1000
            ));
        }
    }
    out
}

/// One labelled sparkline: `label  [.:-=+*#%@]  peak <max>`.
fn spark_line(label: &str, vals: &[u64]) -> String {
    const WIDTH: usize = 64;
    const LEVELS: &[u8] = b" .:-=+*#%@";
    let peak = vals.iter().copied().max().unwrap_or(0);
    let cols = WIDTH.min(vals.len().max(1));
    let mut bar = String::with_capacity(cols);
    for i in 0..cols {
        // Segment [start, end) of the input mapped onto column i.
        let start = i * vals.len() / cols;
        let end = ((i + 1) * vals.len() / cols).max(start + 1);
        let seg = vals[start..end.min(vals.len())]
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let idx = if peak == 0 {
            0
        } else {
            (seg as usize * (LEVELS.len() - 1)).div_ceil(peak as usize)
        };
        bar.push(LEVELS[idx.min(LEVELS.len() - 1)] as char);
    }
    format!("  {label:>14} |{bar}| peak {peak}\n")
}

/// Build the fully-traced two-node replay cluster used by `export`,
/// `explain` and the bench suite's madprof smoke point.
pub fn traced_replay(trace: Trace, legacy: bool, tech: Technology) -> Cluster {
    let mut c = replay_cluster(trace, legacy, tech, Some(EXPORT_TRACE_CAP));
    c.drain();
    c
}

/// Replay a trace with full tracing enabled and export the merged
/// simulator + engine timeline as Chrome trace-event JSON, plus the
/// cluster-wide metrics-registry document.
pub fn export(trace: Trace, legacy: bool, tech: Technology) -> (ChromeExport, String) {
    let c = traced_replay(trace, legacy, tech);
    let export = c.export_chrome_trace();
    let metrics = c.metrics_registry().render();
    (export, metrics)
}

/// Render the optimizer's decision log for one activation of a traced
/// replay: every plan proposed, its veto or score, and the winner.
/// `activation` picks an explicit id; by default the activation with the
/// most proposals (ties: lowest id) is explained.
pub fn explain(trace: Trace, tech: Technology, activation: Option<u64>) -> String {
    let c = traced_replay(trace, false, tech);
    let sink = c.handles[0].opt().expect("optimizing engine").trace();
    let mut out = format!(
        "node 0: {} engine events retained ({} dropped), {} activations\n",
        sink.len(),
        sink.dropped(),
        sink.count_matching(|e| matches!(e, EngineEvent::ActivationStart { .. })),
    );
    let target = activation.or_else(|| {
        // Most-contested activation: largest proposal count, lowest id.
        let mut counts: Vec<(u64, usize)> = Vec::new();
        for rec in sink.iter() {
            if let EngineEvent::PlanProposed { activation, .. } = rec.event {
                match counts.iter_mut().find(|(a, _)| *a == activation) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((activation, 1)),
                }
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
            .map(|(a, _)| a)
    });
    let Some(target) = target else {
        out.push_str("no optimizer activations recorded\n");
        return out;
    };
    let fmt_score = |num: u64, den: u64| fmt_f(num as f64 / den.max(1) as f64 / 1000.0);
    let mut seen = false;
    for rec in sink.iter() {
        if rec.event.activation() != Some(target) {
            continue;
        }
        seen = true;
        match &rec.event {
            EngineEvent::ActivationStart {
                cause,
                rail,
                backlog_depth,
                ..
            } => out.push_str(&format!(
                "activation {target} @ {}: cause {}, rail {rail}, backlog {backlog_depth}\n",
                rec.at,
                cause.label(),
            )),
            EngineEvent::PlanProposed {
                strategy,
                chunks,
                bytes,
                ..
            } => out.push_str(&format!(
                "  {strategy}: proposed {chunks} chunk(s) / {bytes} B\n"
            )),
            EngineEvent::PlanVetoed {
                strategy,
                violation,
                ..
            } => out.push_str(&format!("    {strategy} vetoed: {violation}\n")),
            EngineEvent::PlanScored {
                strategy,
                score_num,
                score_den,
                ..
            } => out.push_str(&format!(
                "    {strategy} scored {} ({score_num}/{score_den})\n",
                fmt_score(*score_num, *score_den),
            )),
            EngineEvent::PlanWon {
                strategy,
                score_num,
                score_den,
                ..
            } => out.push_str(&format!(
                "  winner: {strategy} (score {})\n",
                fmt_score(*score_num, *score_den),
            )),
            EngineEvent::PacketEncoded {
                cookie,
                chunks,
                bytes,
                linearized,
                ..
            } => out.push_str(&format!(
                "  encoded: cookie {cookie}, {chunks} chunk(s), {bytes} B{}\n",
                if *linearized { ", linearized" } else { "" },
            )),
            _ => {}
        }
    }
    if !seen {
        out.push_str(&format!("activation {target} not found in the ring\n"));
    }
    out
}

/// Everything `trace-tool profile` produces for one input.
pub struct ProfileOutput {
    /// Human report: truncation warnings, top-N explain table,
    /// critical-path summary.
    pub report: String,
    /// Folded-stack flamegraph text (inferno-compatible).
    pub folded: String,
    /// Per-message attribution CSV.
    pub csv: String,
    /// The profile JSON block.
    pub json: String,
    /// The trace ring dropped events — [`overflow_refusal`] refuses it.
    pub truncated: bool,
    /// How many events were dropped.
    pub dropped_events: u64,
}

/// What kind of JSON artifact an input is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Artifact {
    /// A `maddiff-snapshot` document.
    Snapshot,
    /// A Chrome trace-event export written by madtrace.
    ChromeExport,
    /// Anything else, workload traces included.
    Other,
}

/// Tell the artifacts apart by their leading top-level fields — `artifact`
/// opens a snapshot, `otherData.exporter` precedes a Chrome export's
/// events — and stop there, so that the one full read of a large document
/// is the reader's, not the sniffer's.
fn sniff(text: &str) -> Artifact {
    let mut p = Parser::new(text);
    let mut leading_fields = || -> Result<Artifact, JsonError> {
        if p.peek() != Some(b'{') {
            return Ok(Artifact::Other);
        }
        p.begin_object()?;
        while let Some(key) = p.next_key()? {
            match &*key {
                "artifact" => {
                    if p.value()?.as_str() == Some("maddiff-snapshot") {
                        return Ok(Artifact::Snapshot);
                    }
                }
                "otherData" => {
                    let exporter = p.value()?;
                    let exporter = exporter.get("exporter").and_then(|e| e.as_str());
                    if exporter == Some("madtrace") {
                        return Ok(Artifact::ChromeExport);
                    }
                }
                _ => p.skip()?,
            }
        }
        Ok(Artifact::Other)
    };
    leading_fields().unwrap_or(Artifact::Other)
}

/// madprof from the command line: accept either a madtrace Chrome export
/// (profiled directly from the artifact) or a workload trace (replayed on
/// a fully-traced cluster first), attribute every delivered message's
/// latency and explain the `top` slowest.
pub fn profile_input(text: &str, tech: Technology, top: usize) -> Result<ProfileOutput, String> {
    let prof = if sniff(text) == Artifact::ChromeExport {
        madeleine::ProfInput::from_chrome(text)?.into_profile()
    } else {
        let trace = Trace::from_text(text).map_err(|e| {
            format!("input is neither a madtrace Chrome export nor a workload trace: {e:?}")
        })?;
        traced_replay(trace, false, tech).profile()
    };
    let mut report = String::new();
    if prof.truncated() {
        report.push_str(&format!(
            "WARNING: {} trace events were dropped by ring overflow — the \
             event stream is TRUNCATED and attribution below may be \
             incomplete or misattributed (raise the trace capacity and \
             re-run)\n\n",
            prof.dropped_events
        ));
    }
    if prof.partition_violations > 0 {
        report.push_str(&format!(
            "WARNING: {} message(s) whose reconstructed lifetime disagrees \
             with the receiver-measured latency — inconsistent streams\n\n",
            prof.partition_violations
        ));
    }
    report.push_str(&prof.explain(top));
    Ok(ProfileOutput {
        report,
        folded: prof.folded_stacks(),
        csv: prof.attribution_csv(),
        json: prof.to_json().render(),
        truncated: prof.truncated(),
        dropped_events: prof.dropped_events,
    })
}

/// Everything `trace-tool diff` produces for one pair of inputs.
pub struct DiffOutput {
    /// Human report: phase deltas, migrations, divergences, top movers.
    pub report: String,
    /// Signed differential folded stacks (`stack a_ns b_ns`, inferno
    /// `difffolded` format).
    pub folded: String,
    /// The diff JSON document.
    pub json: String,
    /// Either input's trace ring dropped events.
    pub truncated: bool,
    /// Total events dropped across both inputs.
    pub dropped_events: u64,
}

/// Normalize one `trace-tool diff` input into a [`madeleine::RunSnapshot`].
/// Accepts, in sniffing order: a maddiff snapshot artifact (loaded
/// as-is), a madtrace Chrome export (profiled from the artifact), or a
/// workload trace (replayed on a fully-traced cluster first).
pub fn snapshot_input(
    text: &str,
    tech: Technology,
    label: &str,
) -> Result<madeleine::RunSnapshot, String> {
    match sniff(text) {
        Artifact::Snapshot => return madeleine::RunSnapshot::parse(text),
        Artifact::ChromeExport => {
            let input = madeleine::ProfInput::from_chrome(text)?;
            return Ok(madeleine::RunSnapshot::capture(label, &input));
        }
        Artifact::Other => {}
    }
    let trace = Trace::from_text(text).map_err(|e| {
        format!(
            "input is neither a maddiff snapshot, a madtrace Chrome export, \
             nor a workload trace: {e:?}"
        )
    })?;
    Ok(traced_replay(trace, false, tech).run_snapshot(label))
}

/// maddiff from the command line: normalize two inputs (any mix of
/// snapshot / Chrome export / workload trace) and diff run B against
/// baseline run A.
pub fn diff_inputs(
    a_text: &str,
    b_text: &str,
    tech: Technology,
    top: usize,
) -> Result<DiffOutput, String> {
    let a = snapshot_input(a_text, tech, "a")?;
    let b = snapshot_input(b_text, tech, "b")?;
    let d = madeleine::diff(&a, &b);
    let mut report = String::new();
    if d.truncated() {
        report.push_str(&format!(
            "WARNING: {} trace events were dropped by ring overflow — one \
             or both inputs are TRUNCATED and the deltas below may blame \
             the wrong phase (raise the trace capacity and re-run)\n\n",
            a.dropped_events + b.dropped_events
        ));
    }
    report.push_str(&d.report(top));
    Ok(DiffOutput {
        report,
        folded: d.folded_diff(),
        json: d.to_json().render(),
        truncated: d.truncated(),
        dropped_events: a.dropped_events + b.dropped_events,
    })
}

/// `profile` and `diff` refuse an analysis of rings that dropped events
/// unless the caller accepts it (`--allow-overflow`): the error to exit
/// nonzero with, or `None` when the history was complete or accepted.
pub fn overflow_refusal(dropped_events: u64, allow_overflow: bool) -> Option<String> {
    (dropped_events > 0 && !allow_overflow).then(|| {
        format!(
            "trace rings dropped {dropped_events} events, so the analysis above is of a \
             truncated run (raise the trace capacity, or pass --allow-overflow to accept it)"
        )
    })
}

/// Summarize a Chrome trace-event export produced by `export`: event
/// count plus the retained/dropped counters of every contributing ring.
/// Returns `None` when `text` is not a madtrace Chrome export.
pub fn info_export(text: &str) -> Option<String> {
    let header = madeleine::trace::read_chrome_export(text, Parser::skip).ok()?;
    let (events, other) = (header.events, header.other_data?);
    if other.get("exporter")?.as_str() != Some("madtrace") {
        return None;
    }
    let mut out = format!("chrome trace export: {events} events\n");
    out.push_str(&format!(
        "  sim trace: {} retained, {} dropped\n",
        other
            .get("sim_retained")
            .and_then(|v| v.as_u64())
            .unwrap_or(0),
        other
            .get("sim_dropped")
            .and_then(|v| v.as_u64())
            .unwrap_or(0),
    ));
    let fault = |key: &str| other.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    out.push_str(&format!(
        "  wire faults: {} dropped, {} duplicated, {} stalled\n",
        fault("wire_drops"),
        fault("wire_dups"),
        fault("wire_stalls"),
    ));
    // madnet: exports from switched clusters carry per-rail topology
    // metadata; flat private-pipe rails are simply absent.
    if let Some(Json::Arr(topos)) = other.get("topologies") {
        for t in topos {
            let u = |key: &str| t.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
            out.push_str(&format!(
                "  topology: {} — {} hosts, {} switches, {} links, \
                 oversubscription {:.2}:1\n",
                t.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
                u("hosts"),
                u("switches"),
                u("links"),
                u("oversub_milli") as f64 / 1000.0,
            ));
        }
    }
    if let Some(Json::Obj(retained)) = other.get("engine_retained") {
        for (node, v) in retained {
            let dropped = other
                .get("engine_dropped")
                .and_then(|d| d.get(node))
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            out.push_str(&format!(
                "  {node} engine trace: {} retained, {dropped} dropped\n",
                v.as_u64().unwrap_or(0),
            ));
        }
    }
    Some(out)
}

/// The record kinds a clean replay never emits, in one traced cell: a
/// `Recover` run under 10 % loss and 10 % duplication whose six messages
/// include one of rendezvous size, with a strategy registered that is
/// always vetoed — `Retransmit`, `RndvGranted` and `PlanVetoed` records
/// for the export and profile cross-checks (here and in `xtask`).
pub fn recovery_cell() -> Cluster {
    use madeleine::harness::NodeHandle;
    use madeleine::strategy::{OptContext, Proposals, Strategy};
    use madeleine::{EngineConfig, MadEngine, MessageBuilder, ReliabilityMode, TrafficClass};
    use simnet::FaultPlan;
    // The standard strategies are never vetoed (madcheck proves it),
    // so the cell registers one that always is — which the harness
    // has no knob for: the two engines are assembled by hand.
    struct EmptyHanded;
    impl Strategy for EmptyHanded {
        fn name(&self) -> &'static str {
            "empty-handed"
        }
        fn propose(&self, ctx: &OptContext<'_>, out: &mut Proposals) {
            if let Some(group) = ctx.groups.first() {
                out.push_data(ctx.channel, group.dst, &[], self.name());
            }
        }
    }
    let tech = Technology::MyrinetMx;
    let mut sim = simnet::Simulation::new();
    sim.enable_trace(EXPORT_TRACE_CAP);
    let net = sim.add_network(nicdrv::calib::params(tech));
    let nodes = vec![sim.add_node(), sim.add_node()];
    let nics: Vec<Vec<_>> = nodes.iter().map(|&n| vec![sim.add_nic(n, net)]).collect();
    let mut handles = Vec::new();
    for i in 0..2 {
        let (engine, handle) = MadEngine::builder(nodes[i])
            .config(EngineConfig {
                reliability: ReliabilityMode::Recover,
                ..EngineConfig::default()
            })
            .rail_tech(tech, nics[i][0])
            .peer(nodes[1 - i], nics[1 - i].clone())
            .strategy(Box::new(EmptyHanded))
            .build()
            .expect("valid engine");
        handle.enable_trace(EXPORT_TRACE_CAP);
        sim.set_endpoint(nodes[i], Box::new(engine));
        handles.push(NodeHandle::Opt(handle));
    }
    let networks = vec![net];
    let mut c = Cluster {
        sim,
        nodes,
        nics,
        handles,
        networks,
    };
    // (Plan 13's losses include a data packet of these six messages; a
    // plan that happens to spare them all leaves `Retransmit` untested.)
    c.set_fault_plan(0, FaultPlan::new(13).with_loss(0.1).with_dup(0.1));
    let (src, dst) = (c.nodes[0], c.nodes[1]);
    let h = c.handle(0).clone();
    let flow = h.open_flow(dst, TrafficClass::DEFAULT);
    for len in [64usize, 256 << 10, 512, 4096, 96, 2048] {
        c.sim.inject(src, |ctx| {
            let body = vec![0x3Cu8; len];
            let parts = MessageBuilder::new()
                .pack_express(&[7u8; 8])
                .pack_cheaper(&body)
                .build_parts();
            h.send(ctx, flow, parts)
        });
    }
    c.drain();
    c
}

/// Generate a sample multi-flow trace (for demos and tests).
pub fn sample(seed: u64) -> Trace {
    let specs: Vec<FlowSpec> = (0..4)
        .map(|_| FlowSpec {
            dst: NodeId(1),
            class: madeleine::TrafficClass::DEFAULT,
            arrival: Arrival::Poisson(SimDuration::from_micros(6)),
            sizes: SizeDist::Uniform(16, 1024),
            express_header: 8,
            body_frags: SizeDist::Fixed(1),
            reply: None,
            stop_after: Some(50),
            start_after: SimDuration::ZERO,
        })
        .collect();
    let (app, _) = TrafficApp::new("sample", specs, seed, 0);
    let (recorder, handle) = Recorder::new(Box::new(app));
    let spec = ClusterSpec::mx_pair();
    let mut c = Cluster::build(&spec, vec![Some(Box::new(recorder)), None]);
    c.drain();
    let t = handle.borrow().clone();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_traces_are_nonempty_and_parse() {
        let t = sample(7);
        assert_eq!(t.len(), 200);
        let text = t.to_text();
        assert_eq!(Trace::from_text(&text).unwrap(), t);
    }

    #[test]
    fn info_mentions_every_flow() {
        let t = sample(7);
        let s = info(&t);
        assert!(s.contains("messages: 200"));
        assert!(s.contains("flow 3:"));
    }

    #[test]
    fn replay_summary_reports_full_delivery() {
        let t = sample(9);
        let s = replay(t.clone(), false, Technology::MyrinetMx);
        assert!(s.contains("delivered 200/200"), "{s}");
        let s = replay(t, true, Technology::QuadricsElan);
        assert!(s.contains("legacy"));
        assert!(s.contains("delivered 200/200"), "{s}");
    }

    #[test]
    fn compare_renders_both_engines() {
        let t = sample(11);
        let s = compare(t, Technology::MyrinetMx);
        assert!(s.contains("optimizing"));
        assert!(s.contains("legacy"));
        assert!(s.contains("makespan"));
    }

    #[test]
    fn export_round_trips_and_is_deterministic() {
        let t = sample(7);
        let (a, metrics) = export(t.clone(), false, Technology::MyrinetMx);
        assert_eq!(
            madeleine::chrome_event_count(&a.json).unwrap(),
            a.events,
            "export -> parse -> event count must round-trip"
        );
        // Repeat runs of the same seeded workload are byte-identical.
        let (b, _) = export(t, false, Technology::MyrinetMx);
        assert_eq!(a.json, b.json);
        // The metrics registry parses and names both engine sections.
        let doc = Json::parse(&metrics).unwrap();
        assert_eq!(
            doc.get("artifact").and_then(|v| v.as_str()),
            Some("madtrace-metrics")
        );
        // info_export summarizes the export.
        let s = info_export(&a.json).expect("export is sniffable");
        assert!(s.contains(&format!("{} events", a.events)), "{s}");
        assert!(s.contains("sim trace:"), "{s}");
        assert!(s.contains("wire faults: 0 dropped"), "{s}");
        assert!(s.contains("engine trace:"), "{s}");
        // Plain workload traces are not mistaken for exports.
        assert!(info_export("# madeleine-trace v1\n").is_none());
    }

    #[test]
    fn info_export_summarizes_topology_metadata() {
        // A switched rail stamps its topology into the export; the info
        // summary surfaces it. Flat rails (every other test here) don't.
        let profile = nicdrv::calib::params(Technology::MyrinetMx).link_profile();
        let spec = ClusterSpec::mx_pair().with_tracing(1 << 12);
        let mut c = Cluster::build_with_topologies(
            &spec,
            vec![Some(simnet::Topology::dumbbell(1, 1, profile, profile))],
            vec![],
        );
        let dst = c.nodes[1];
        let h = c.handles[0].clone();
        let flow = h.open_flow(dst, madeleine::TrafficClass::DEFAULT);
        let src = c.nodes[0];
        c.sim.inject(src, |ctx| {
            h.send(
                ctx,
                flow,
                madeleine::MessageBuilder::new()
                    .pack_express(&[1u8; 64])
                    .build_parts(),
            )
        });
        c.drain();
        let s = info_export(&c.export_chrome_trace().json).expect("sniffable");
        assert!(
            s.contains("topology: dumbbell — 2 hosts, 2 switches, 6 links"),
            "{s}"
        );
        assert!(s.contains("oversubscription 1.00:1"), "{s}");
    }

    #[test]
    fn explain_shows_the_decision_contest() {
        let s = explain(sample(7), Technology::MyrinetMx, None);
        assert!(s.contains("activation"), "{s}");
        assert!(s.contains("proposed"), "{s}");
        assert!(s.contains("winner:"), "{s}");
        // Unknown activations are reported, not fabricated.
        let s = explain(sample(7), Technology::MyrinetMx, Some(u64::MAX));
        assert!(s.contains("not found"), "{s}");
    }

    #[test]
    fn stats_renders_percentiles_timeline_and_csv() {
        let (report, csv) = stats(sample(7), Technology::MyrinetMx, 5);
        assert!(report.contains("delivered 200/200"), "{report}");
        assert!(report.contains("p99"), "{report}");
        assert!(report.contains("all"), "{report}");
        assert!(report.contains("queue delay"), "{report}");
        assert!(report.contains("backlog bytes"), "{report}");
        assert!(report.contains("rail0 util"), "{report}");
        assert!(report.contains("sampler timeline:"), "{report}");
        assert!(csv.starts_with("t_us,"), "{csv}");
        assert!(csv.lines().count() > 2, "CSV has data rows");
        // Deterministic end to end.
        let (r2, c2) = stats(sample(7), Technology::MyrinetMx, 5);
        assert_eq!(report, r2);
        assert_eq!(csv, c2);
    }

    #[test]
    fn stats_survives_the_zero_flow_run() {
        // An empty trace delivers nothing: every histogram is empty and
        // the sampler may record no ticks. The report must say so instead
        // of rendering a degenerate headers-only table.
        let (report, csv) = stats(Trace::default(), Technology::MyrinetMx, 5);
        assert!(report.contains("delivered 0/0"), "{report}");
        assert!(
            report.contains("no deliveries recorded"),
            "empty run explains itself: {report}"
        );
        assert!(!report.contains("p99"), "no empty table header: {report}");
        // Deterministic even when empty.
        let (r2, c2) = stats(Trace::default(), Technology::MyrinetMx, 5);
        assert_eq!(report, r2);
        assert_eq!(csv, c2);
    }

    #[test]
    fn profile_replays_and_attributes() {
        let text = sample(7).to_text();
        let out = profile_input(&text, Technology::MyrinetMx, 8).expect("profiles");
        assert!(out.report.contains("delivered messages"), "{}", out.report);
        assert!(out.report.contains("critical path:"), "{}", out.report);
        assert!(!out.report.contains("WARNING"), "{}", out.report);
        assert!(out.csv.starts_with("src,flow,seq,class"), "{}", out.csv);
        assert_eq!(out.csv.lines().count(), 201, "200 messages + header");
        assert!(out.folded.contains(";wire "), "{}", out.folded);
        let doc = Json::parse(&out.json).expect("json parses");
        assert_eq!(
            doc.get("artifact").and_then(|v| v.as_str()),
            Some("madprof-profile")
        );
        assert_eq!(
            doc.get("messages").and_then(|v| v.as_u64()),
            Some(200),
            "{}",
            out.json
        );
        assert_eq!(
            doc.get("partition_violations").and_then(|v| v.as_u64()),
            Some(0)
        );
        // Deterministic end to end.
        let again = profile_input(&text, Technology::MyrinetMx, 8).expect("profiles");
        assert_eq!(out.csv, again.csv);
        assert_eq!(out.folded, again.folded);
        assert_eq!(out.report, again.report);
    }

    #[test]
    fn profile_reads_chrome_exports_identically() {
        // Profiling the exported Chrome artifact must agree with
        // profiling the live rings of the same replay.
        let t = sample(7);
        let (export, _) = export(t.clone(), false, Technology::MyrinetMx);
        let from_chrome =
            profile_input(&export.json, Technology::MyrinetMx, 8).expect("chrome profiles");
        let from_replay =
            profile_input(&t.to_text(), Technology::MyrinetMx, 8).expect("replay profiles");
        assert_eq!(from_chrome.csv, from_replay.csv);
        assert_eq!(from_chrome.folded, from_replay.folded);
    }

    /// The record kinds a clean replay never emits must cross the Chrome
    /// artifact unchanged too: `Retransmit` and `RndvGranted` (a Recover
    /// run under loss + duplication with one rendezvous-sized message),
    /// vetoes in the `P:/V:/S:/W:` decision log, and `CongestionMark`
    /// (E14's traced incast cell). Both directions: what the live rings
    /// fold to is what their export folds to, `decisions()` included.
    #[test]
    fn chrome_round_trip_crosses_recovery_rendezvous_veto_and_congestion_records() {
        use madeleine::RunSnapshot;
        let crossed = |c: &Cluster| {
            let live = c.prof_input();
            let chrome = madeleine::ProfInput::from_chrome(&c.export_chrome_trace().json)
                .expect("export parses");
            assert_eq!(live.decisions(), chrome.decisions());
            assert_eq!(live.undelivered(), chrome.undelivered());
            let (a, b) = (live.profile(), chrome.profile());
            assert_eq!(a.attribution_csv(), b.attribution_csv());
            assert_eq!(a.folded_stacks(), b.folded_stacks());
            assert_eq!(a.to_json().render(), b.to_json().render());
            assert_eq!(
                RunSnapshot::capture("x", &live).to_json().render(),
                RunSnapshot::capture("x", &chrome).to_json().render()
            );
            live
        };
        let count = |c: &Cluster, name: &str| -> usize {
            let sinks = c.handles.iter().filter_map(|h| h.opt());
            sinks
                .map(|h| h.trace().count_matching(|e| e.name() == name))
                .sum()
        };

        let c = recovery_cell();
        assert_eq!(c.handle(1).delivered_count(), 6, "Recover delivers all");
        assert!(count(&c, "Retransmit") > 0, "loss must force a resend");
        assert!(count(&c, "RndvGranted") > 0, "256 KiB goes by rendezvous");
        assert!(count(&c, "PlanVetoed") > 0, "a proposal must be vetoed");
        let live = crossed(&c);
        let decisions = live.decisions();
        let log = decisions.values().flatten();
        assert!(log.clone().any(|l| l.starts_with("V:")), "veto logged");
        assert!(log.clone().any(|l| l.starts_with("W:")), "winner logged");

        let incast = crate::experiments::e14_incast::traced_cell(0);
        assert!(
            count(&incast, "CongestionMark") > 0,
            "the incast fabric must echo congestion marks"
        );
        crossed(&incast);
    }

    #[test]
    fn profile_rejects_garbage() {
        assert!(profile_input("not a trace", Technology::MyrinetMx, 5).is_err());
    }

    #[test]
    fn diff_of_identical_inputs_is_zero_and_deterministic() {
        let text = sample(7).to_text();
        let out = diff_inputs(&text, &text, Technology::MyrinetMx, 5).expect("diffs");
        assert!(!out.truncated);
        let doc = Json::parse(&out.json).expect("diff json parses");
        assert_eq!(
            doc.get("artifact").and_then(|v| v.as_str()),
            Some("maddiff-diff")
        );
        assert_eq!(doc.get("is_zero").map(|v| v.render()), Some("true".into()));
        assert_eq!(doc.get("aligned").and_then(|v| v.as_u64()), Some(200));
        assert!(
            out.report.contains("decision divergence: none"),
            "{}",
            out.report
        );
        // Every folded line carries equal a/b columns.
        for line in out.folded.lines() {
            let cols: Vec<&str> = line.rsplitn(3, ' ').collect();
            assert_eq!(cols[0], cols[1], "{line}");
        }
        let again = diff_inputs(&text, &text, Technology::MyrinetMx, 5).expect("diffs");
        assert_eq!(out.report, again.report);
        assert_eq!(out.json, again.json);
        assert_eq!(out.folded, again.folded);
    }

    #[test]
    fn diff_mixes_snapshot_chrome_and_trace_inputs() {
        // A workload trace, its Chrome export, and its maddiff snapshot
        // all describe the same run; any pairing must diff to zero.
        let t = sample(7);
        let text = t.to_text();
        let (export, _) = export(t.clone(), false, Technology::MyrinetMx);
        let snap = traced_replay(t, false, Technology::MyrinetMx)
            .run_snapshot("baseline")
            .to_json()
            .render();
        for (a, b) in [(&text, &export.json), (&snap, &text), (&snap, &export.json)] {
            let out = diff_inputs(a, b, Technology::MyrinetMx, 3).expect("diffs");
            let doc = Json::parse(&out.json).unwrap();
            assert_eq!(
                doc.get("is_zero").map(|v| v.render()),
                Some("true".into()),
                "{}",
                out.report
            );
        }
    }

    #[test]
    fn diff_of_different_seeds_reports_divergence() {
        let a = sample(7).to_text();
        let b = sample(8).to_text();
        let out = diff_inputs(&a, &b, Technology::MyrinetMx, 5).expect("diffs");
        let doc = Json::parse(&out.json).unwrap();
        assert_eq!(doc.get("is_zero").map(|v| v.render()), Some("false".into()));
        // Different workloads submit different messages: they land in
        // unmatched, and the aligned partition invariant still holds.
        assert_eq!(
            doc.get("partition_violations").and_then(|v| v.as_u64()),
            Some(0)
        );
        assert!(out.report.contains("top movers") || out.report.contains("unmatched"));
    }

    /// A run whose rings overflowed is refused by default, for `profile`
    /// and `diff` alike, and analyzed with the warning under
    /// `--allow-overflow`; a complete run passes either way.
    #[test]
    fn an_overflowed_run_is_refused_unless_allowed() {
        let mut c = replay_cluster(sample(7), false, Technology::MyrinetMx, Some(256));
        c.drain();
        let truncated = c.export_chrome_trace().json;
        let clean = sample(7).to_text();
        let mx = Technology::MyrinetMx;

        let prof = profile_input(&truncated, mx, 5).expect("profiles");
        assert!(prof.truncated && prof.report.starts_with("WARNING"));
        let refusal = overflow_refusal(prof.dropped_events, false).expect("refused");
        assert!(refusal.contains("--allow-overflow"), "{refusal}");
        assert_eq!(overflow_refusal(prof.dropped_events, true), None);

        let diff = diff_inputs(&clean, &truncated, mx, 5).expect("diffs");
        assert!(diff.truncated && diff.report.starts_with("WARNING"));
        assert!(overflow_refusal(diff.dropped_events, false).is_some());
        assert_eq!(overflow_refusal(diff.dropped_events, true), None);

        let prof = profile_input(&clean, mx, 5).expect("profiles");
        let diff = diff_inputs(&clean, &clean, mx, 5).expect("diffs");
        for dropped in [prof.dropped_events, diff.dropped_events] {
            assert_eq!(overflow_refusal(dropped, false), None);
        }
    }

    #[test]
    fn diff_rejects_garbage() {
        let ok = sample(7).to_text();
        assert!(diff_inputs("nope", &ok, Technology::MyrinetMx, 5).is_err());
        assert!(diff_inputs(&ok, "nope", Technology::MyrinetMx, 5).is_err());
    }

    #[test]
    fn single_sample_histograms_report_exact_percentiles() {
        // One delivered message: p50/p90/p99 must equal the exact max,
        // not a log2-bucket upper bound almost 2x larger.
        let mut t = sample(7);
        t.msgs.truncate(1);
        let (report, _) = stats(t, Technology::MyrinetMx, 5);
        assert!(report.contains("delivered 1/1"), "{report}");
        let all = report
            .lines()
            .find(|l| l.split_whitespace().next() == Some("all"))
            .expect("an `all` percentile row");
        let cells: Vec<&str> = all.split_whitespace().collect();
        // cells: [all, count, p50, p90, p99, max]
        assert_eq!(cells[1], "1");
        assert_eq!(cells[2], cells[5], "p50 == exact max: {all}");
        assert_eq!(cells[4], cells[5], "p99 == exact max: {all}");
    }

    #[test]
    fn stats_keeps_zero_delivery_classes_visible() {
        // A trace that opens a BULK flow but never delivers on it (no
        // submissions survive for that class): the percentile table must
        // carry an explicit zero row instead of silently dropping the
        // class.
        let mut t = sample(7);
        t.flows.push((NodeId(1), madeleine::TrafficClass::BULK));
        let (report, _) = stats(t, Technology::MyrinetMx, 5);
        let bulk = report
            .lines()
            .find(|l| l.contains("class bulk"))
            .expect("an explicit zero-delivery row for the bulk class");
        let cells: Vec<&str> = bulk.split_whitespace().collect();
        // cells: [class, bulk, count, p50, p90, p99, max]
        assert_eq!(cells[2], "0", "zero-delivery count: {bulk}");
        assert_eq!(cells[3], "-", "percentiles dashed out: {bulk}");
        // Classes the trace never mentions stay out of the table.
        assert!(
            !report.contains("class put/get"),
            "unoffered class leaked into the table"
        );
    }

    #[test]
    fn spark_line_scales_to_peak() {
        let s = spark_line("x", &[0, 0, 5, 10]);
        assert!(s.contains("peak 10"), "{s}");
        assert!(s.contains('@'), "peak column saturates: {s}");
        assert!(s.contains(' '), "zero column is blank: {s}");
        let flat = spark_line("y", &[0, 0]);
        assert!(flat.contains("peak 0"), "{flat}");
    }

    #[test]
    fn tech_names_parse() {
        assert_eq!(parse_tech("mx"), Some(Technology::MyrinetMx));
        assert_eq!(parse_tech("ELAN"), Some(Technology::QuadricsElan));
        assert_eq!(parse_tech("nonsense"), None);
    }
}
