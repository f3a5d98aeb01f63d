//! Cluster harness: one-call construction of a simulated cluster running
//! either engine, used by integration tests, examples and the experiment
//! harness.

use simnet::{NicId, NodeId, SimDuration, SimTime, Simulation, Technology};

use crate::api::AppDriver;
use crate::config::EngineConfig;
use crate::engine::{EngineHandle, MadEngine};
use crate::ids::{FlowId, MsgId, TrafficClass};
use crate::legacy::LegacyHandle;
use crate::message::{DeliveredMessage, Fragment};
use crate::metrics::EngineMetrics;
use crate::policy::PolicyKind;
use crate::receiver::ReceiverStats;

/// Which engine the cluster's nodes run.
#[derive(Clone, Debug)]
pub enum EngineKind {
    /// The paper's optimizing engine.
    Optimizing {
        /// Engine configuration.
        config: EngineConfig,
        /// Scheduling policy.
        policy: PolicyKind,
    },
    /// The deterministic per-flow baseline.
    Legacy {
        /// Engine configuration (rendezvous/recording knobs).
        config: EngineConfig,
    },
}

impl EngineKind {
    /// Optimizing engine with defaults.
    pub fn optimizing() -> Self {
        EngineKind::with_config(EngineConfig::default())
    }

    /// Optimizing engine running `config` under the pooled policy.
    pub fn with_config(config: EngineConfig) -> Self {
        EngineKind::with_policy(config, PolicyKind::Pooled)
    }

    /// Optimizing engine running `config` under `policy`.
    pub fn with_policy(config: EngineConfig, policy: PolicyKind) -> Self {
        EngineKind::Optimizing { config, policy }
    }

    /// Legacy engine with defaults.
    pub fn legacy() -> Self {
        EngineKind::Legacy {
            config: EngineConfig::default(),
        }
    }
}

/// Handle onto one node's engine, independent of its kind.
#[derive(Clone)]
pub enum NodeHandle {
    /// Optimizing engine handle.
    Opt(EngineHandle),
    /// Legacy engine handle.
    Legacy(LegacyHandle),
}

impl NodeHandle {
    /// Metrics snapshot.
    pub fn metrics(&self) -> EngineMetrics {
        match self {
            NodeHandle::Opt(h) => h.metrics(),
            NodeHandle::Legacy(h) => h.metrics(),
        }
    }

    /// Receiver statistics snapshot.
    pub fn receiver_stats(&self) -> ReceiverStats {
        match self {
            NodeHandle::Opt(h) => h.receiver_stats(),
            NodeHandle::Legacy(h) => h.receiver_stats(),
        }
    }

    /// Drain recorded deliveries.
    pub fn take_delivered(&self) -> Vec<DeliveredMessage> {
        match self {
            NodeHandle::Opt(h) => h.take_delivered(),
            NodeHandle::Legacy(h) => h.take_delivered(),
        }
    }

    /// Messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        match self {
            NodeHandle::Opt(h) => h.delivered_count(),
            NodeHandle::Legacy(h) => h.delivered_count(),
        }
    }

    /// Bytes waiting to be transmitted (collect-layer backlog for the
    /// optimizer; software-queue payload for the legacy engine).
    pub fn backlog_bytes(&self) -> u64 {
        match self {
            NodeHandle::Opt(h) => h.backlog_bytes(),
            NodeHandle::Legacy(h) => h.queued_bytes(),
        }
    }

    /// Open a flow.
    pub fn open_flow(&self, dst: NodeId, class: TrafficClass) -> FlowId {
        match self {
            NodeHandle::Opt(h) => h.open_flow(dst, class),
            NodeHandle::Legacy(h) => h.open_flow(dst, class),
        }
    }

    /// Submit a message (inside a [`Simulation::inject`] closure).
    pub fn send(&self, ctx: &mut simnet::SimCtx<'_>, flow: FlowId, parts: Vec<Fragment>) -> MsgId {
        match self {
            NodeHandle::Opt(h) => h.send(ctx, flow, parts),
            NodeHandle::Legacy(h) => h.send(ctx, flow, parts),
        }
    }

    /// The optimizing-engine handle, when this node runs one (for
    /// policy/class operations the legacy engine does not support).
    pub fn opt(&self) -> Option<&EngineHandle> {
        match self {
            NodeHandle::Opt(h) => Some(h),
            NodeHandle::Legacy(_) => None,
        }
    }
}

/// Cluster construction parameters. Outside this file a spec is always
/// described through the constructors below ([`ClusterSpec::new`] or
/// [`ClusterSpec::mx_pair`], then `.engine` / `.config` / `.legacy` /
/// `.with_tracing`), so the defaults — optimizing engine, pooled policy,
/// no tracing — are spelled once.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// One rail per listed technology, on every node.
    pub rails: Vec<Technology>,
    /// Engine kind for every node.
    pub engine: EngineKind,
    /// Enable simulator tracing with this capacity.
    pub trace: Option<usize>,
    /// Enable per-node engine event tracing (madtrace) with this ring
    /// capacity. Only the optimizing engine records events.
    pub engine_trace: Option<usize>,
}

impl ClusterSpec {
    /// `nodes` nodes with one rail per entry of `rails`, the default
    /// optimizing engine, tracing off.
    pub fn new(nodes: usize, rails: Vec<Technology>) -> Self {
        ClusterSpec {
            nodes,
            rails,
            engine: EngineKind::optimizing(),
            trace: None,
            engine_trace: None,
        }
    }

    /// Two nodes, one MX rail, optimizing engine — the paper's beta setup.
    pub fn mx_pair() -> Self {
        ClusterSpec::new(2, vec![Technology::MyrinetMx])
    }

    /// Run `kind` on every node.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Run the optimizing engine with `config` under the pooled policy.
    pub fn config(self, config: EngineConfig) -> Self {
        self.engine(EngineKind::with_config(config))
    }

    /// Run the legacy baseline engine with defaults.
    pub fn legacy(self) -> Self {
        self.engine(EngineKind::legacy())
    }

    /// Enable both simulator and engine tracing with capacity `cap`
    /// (`None` turns both off, for callers whose tracing is optional).
    pub fn with_tracing(mut self, cap: impl Into<Option<usize>>) -> Self {
        self.trace = cap.into();
        self.engine_trace = self.trace;
        self
    }
}

/// A built cluster.
pub struct Cluster {
    /// The simulation.
    pub sim: Simulation,
    /// Node ids in construction order.
    pub nodes: Vec<NodeId>,
    /// `nics[node][rail]`.
    pub nics: Vec<Vec<NicId>>,
    /// Engine handles per node.
    pub handles: Vec<NodeHandle>,
    /// Network ids, one per rail in `spec.rails` order.
    pub networks: Vec<simnet::NetworkId>,
}

impl Cluster {
    /// Build a cluster; `apps[i]` is installed on node `i` (pad with
    /// `None` for pure-engine nodes). `apps` may be shorter than the node
    /// count.
    pub fn build(spec: &ClusterSpec, apps: Vec<Option<Box<dyn AppDriver>>>) -> Cluster {
        Self::build_with_topologies(spec, Vec::new(), apps)
    }

    /// [`Cluster::build`] with a madnet topology per rail: `topos[r]`
    /// (when `Some`) turns rail `r`'s flat pipe into a switched fabric —
    /// NICs attach to host ports in node order, so the topology must have
    /// exactly `spec.nodes` hosts. Pad with `None` (or pass a short/empty
    /// vec) for flat rails.
    pub fn build_with_topologies(
        spec: &ClusterSpec,
        mut topos: Vec<Option<simnet::Topology>>,
        mut apps: Vec<Option<Box<dyn AppDriver>>>,
    ) -> Cluster {
        assert!(spec.nodes >= 1);
        assert!(!spec.rails.is_empty(), "need at least one rail technology");
        let mut sim = Simulation::new();
        if let Some(cap) = spec.trace {
            sim.enable_trace(cap);
        }
        topos.resize_with(spec.rails.len(), || None);
        let networks: Vec<_> = spec
            .rails
            .iter()
            .map(|&t| sim.add_network(nicdrv::calib::params(t)))
            .collect();
        for (&net, topo) in networks.iter().zip(topos) {
            if let Some(t) = topo {
                assert_eq!(
                    t.hosts() as usize,
                    spec.nodes,
                    "topology '{}' has {} host ports but the cluster has {} nodes",
                    t.name(),
                    t.hosts(),
                    spec.nodes
                );
                sim.install_topology(net, t);
            }
        }
        let nodes: Vec<NodeId> = (0..spec.nodes).map(|_| sim.add_node()).collect();
        let nics: Vec<Vec<NicId>> = nodes
            .iter()
            .map(|&n| networks.iter().map(|&net| sim.add_nic(n, net)).collect())
            .collect();
        apps.resize_with(spec.nodes, || None);
        let mut handles = Vec::with_capacity(spec.nodes);
        for (i, (&node, app)) in nodes.iter().zip(apps).enumerate() {
            let (config, policy) = match &spec.engine {
                EngineKind::Optimizing { config, policy } => (config, Some(*policy)),
                EngineKind::Legacy { config } => (config, None),
            };
            let mut b = MadEngine::builder(node).config(config.clone());
            for (r, &tech) in spec.rails.iter().enumerate() {
                b = b.rail_tech(tech, nics[i][r]);
            }
            for (j, &peer) in nodes.iter().enumerate() {
                if j != i {
                    b = b.peer(peer, nics[j].clone());
                }
            }
            if let Some(app) = app {
                b = b.app(app);
            }
            if let Some(policy) = policy {
                let (engine, handle) = b.policy(policy).build().expect("valid cluster spec");
                if let Some(cap) = spec.engine_trace {
                    handle.enable_trace(cap);
                }
                sim.set_endpoint(node, Box::new(engine));
                handles.push(NodeHandle::Opt(handle));
            } else {
                let (engine, handle) = b.build_legacy().expect("valid cluster spec");
                sim.set_endpoint(node, Box::new(engine));
                handles.push(NodeHandle::Legacy(handle));
            }
        }
        Cluster {
            sim,
            nodes,
            nics,
            handles,
            networks,
        }
    }

    /// Install a deterministic fault plan (madrel) on one rail's network:
    /// every packet crossing that rail is subject to the plan's loss
    /// bursts, duplication, reordering, stalls and death schedule.
    pub fn set_fault_plan(&mut self, rail: usize, plan: simnet::FaultPlan) {
        self.sim.set_fault_plan(self.networks[rail], plan);
    }

    /// Run for a fixed span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> SimTime {
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline)
    }

    /// Run until no events remain (or the safety limit).
    pub fn drain(&mut self) -> SimTime {
        self.sim
            .run_until_quiescent(SimTime::from_nanos(u64::MAX / 2))
    }

    /// Handle of node `i`.
    pub fn handle(&self, i: usize) -> &NodeHandle {
        &self.handles[i]
    }

    /// Run `read` over the simulator trace's companions: every optimizing
    /// node's engine event ring, in node order, borrowed in place for the
    /// call — what the Chrome export and the profiler both read. (A ring
    /// of a few million records is tens of mebibytes; nothing here needs
    /// a copy of it.)
    fn with_engine_rings<R>(
        &self,
        read: impl FnOnce(&[(NodeId, &crate::trace::EventSink)]) -> R,
    ) -> R {
        let held: Vec<_> = self
            .nodes
            .iter()
            .zip(&self.handles)
            .filter_map(|(&n, h)| h.opt().map(|h| (n, h.trace())))
            .collect();
        let rings: Vec<(NodeId, &crate::trace::EventSink)> =
            held.iter().map(|(n, ring)| (*n, &**ring)).collect();
        read(&rings)
    }

    /// Merge the simulator trace and every node's engine trace into one
    /// Chrome trace-event export (rails as tracks, messages as flow
    /// arrows). Works with either trace disabled — the export simply
    /// contains fewer events.
    pub fn export_chrome_trace(&self) -> crate::trace::ChromeExport {
        // madnet: switched rails stamp their topology summary into the
        // export's otherData so `trace-tool info` can describe the fabric.
        let topos: Vec<crate::trace::TopologySummary> = self
            .networks
            .iter()
            .filter_map(|&net| self.sim.fabric(net))
            .map(|f| crate::trace::TopologySummary::of(f.topology()))
            .collect();
        self.with_engine_rings(|rings| {
            crate::trace::export_chrome_trace_with_topology(
                self.sim.trace(),
                rings,
                &self.nics,
                &topos,
            )
        })
    }

    /// madprof: attribute every delivered message's latency into phases
    /// and compute the run critical path from the same rings
    /// [`Cluster::export_chrome_trace`] reads. Meaningful only with
    /// engine tracing enabled ([`ClusterSpec::with_tracing`]); without it
    /// the profile is empty.
    pub fn profile(&self) -> crate::prof::Profile {
        self.prof_input().into_profile()
    }

    /// Normalize this cluster's live rings into a [`crate::prof::ProfInput`]
    /// — the shared front half of [`Cluster::profile`] and the maddiff
    /// snapshot/diff surfaces.
    pub fn prof_input(&self) -> crate::prof::ProfInput {
        self.with_engine_rings(|rings| {
            crate::prof::ProfInput::from_engine(self.sim.trace(), rings, &self.nics)
        })
    }

    /// maddiff: capture this run's profile as a serializable
    /// [`crate::diff::RunSnapshot`] — one half of a differential
    /// comparison, round-trippable through JSON for committed baselines.
    pub fn run_snapshot(&self, label: &str) -> crate::diff::RunSnapshot {
        crate::diff::RunSnapshot::capture(label, &self.prof_input())
    }

    /// Walk every node's engine/receiver metrics (plus sampler digests,
    /// via the single [`EngineHandle::register_metrics`] path) and every
    /// NIC's counters into one [`crate::metrics::MetricsRegistry`]. The
    /// registry holds counters, not analysis: with simulator tracing on,
    /// its ring's health rides along as `sim/trace`, and the profile those
    /// rings feed is [`Cluster::profile`].
    pub fn metrics_registry(&self) -> crate::metrics::MetricsRegistry {
        let mut reg = crate::metrics::MetricsRegistry::new();
        for (i, h) in self.handles.iter().enumerate() {
            match h {
                NodeHandle::Opt(h) => h.register_metrics(&mut reg, &format!("node{i}/")),
                NodeHandle::Legacy(h) => {
                    reg.add_engine(&format!("node{i}/engine"), &h.metrics());
                    reg.add_receiver(&format!("node{i}/receiver"), &h.receiver_stats());
                }
            }
        }
        for (i, nics) in self.nics.iter().enumerate() {
            for (r, &nic) in nics.iter().enumerate() {
                reg.add_nic(&format!("node{i}/nic{r}"), &self.sim.nic(nic).stats);
            }
        }
        // madnet: per-link fabric counters for every switched rail —
        // current queue depth, utilization integral, ECN marks and drops,
        // keyed by the link's endpoint labels.
        let now_ns = self.sim.now().as_nanos().max(1);
        for (r, &net) in self.networks.iter().enumerate() {
            let Some(fab) = self.sim.fabric(net) else {
                continue;
            };
            let topo = fab.topology();
            let links: Vec<crate::json::Json> = topo
                .links()
                .iter()
                .zip(fab.link_stats())
                .zip(fab.queue_bytes())
                .map(|((link, stats), &queued)| {
                    crate::json::obj()
                        .field(
                            "link",
                            format!("{}->{}", link.from.label(), link.to.label()).as_str(),
                        )
                        .field("queue_bytes", queued)
                        .field("peak_queue_bytes", stats.peak_queue_bytes)
                        .field("bytes_carried", stats.bytes_carried)
                        .field("utilization_milli", stats.busy_ns * 1000 / now_ns)
                        .field("ecn_marks", stats.ecn_marks)
                        .field("queue_drops", stats.queue_drops)
                        .build()
                })
                .collect();
            reg.add_section(
                &format!("rail{r}/fabric"),
                crate::json::obj()
                    .field("topology", topo.name())
                    .field("hosts", u64::from(topo.hosts()))
                    .field("switches", u64::from(topo.switches()))
                    .field("oversub_milli", topo.oversubscription_milli())
                    .field("active_transfers", fab.active_transfers() as u64)
                    .field("links", crate::json::Json::Arr(links))
                    .build(),
            );
        }
        reg.add_ring("sim/trace", self.sim.trace());
        reg
    }

    /// madscope: install a sampler ticking every `tick` on every
    /// optimizing-engine node
    /// ([`crate::scope::DEFAULT_SAMPLER_CAPACITY`] rows each). Legacy
    /// nodes have no sampler and are skipped.
    pub fn enable_sampler(&self, tick: SimDuration) {
        for h in &self.handles {
            if let NodeHandle::Opt(h) = h {
                h.enable_sampler(tick, crate::scope::DEFAULT_SAMPLER_CAPACITY);
            }
        }
    }

    /// madscope: node `i`'s sampler ring as deterministic CSV (`None` for
    /// legacy nodes or when sampling is disabled).
    pub fn sampler_csv(&self, i: usize) -> Option<String> {
        self.handles[i].opt().and_then(|h| h.sampler_csv())
    }

    /// The whole cluster registry rendered as Prometheus text format.
    pub fn prometheus_text(&self) -> String {
        crate::scope::prometheus_render(&self.metrics_registry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageBuilder;

    #[test]
    fn topology_cluster_roundtrip_with_fabric_metrics() {
        let profile = simnet::LinkProfile::synthetic();
        let topo = simnet::Topology::dumbbell(1, 1, profile, profile);
        let mut spec = ClusterSpec::mx_pair();
        spec.trace = Some(1 << 12);
        let mut c = Cluster::build_with_topologies(&spec, vec![Some(topo)], vec![]);
        let (a, b) = (c.nodes[0], c.nodes[1]);
        let ha = c.handle(0).clone();
        let f = ha.open_flow(b, TrafficClass::DEFAULT);
        c.sim.inject(a, |ctx| {
            ha.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(b"payload").build_parts(),
            )
        });
        c.drain();
        assert_eq!(c.handle(1).delivered_count(), 1);
        assert_eq!(c.handle(1).take_delivered()[0].contiguous(), b"payload");
        // The fabric carried bytes across the core and says so in both
        // the registry and the export's topology metadata.
        let text = c.prometheus_text();
        assert!(text.contains("rail0/fabric"), "missing fabric section");
        let export = c.export_chrome_trace().json;
        assert!(
            export.contains("\"topologies\"") && export.contains("dumbbell"),
            "export missing topology metadata"
        );
        let fab = c.sim.fabric(c.networks[0]).expect("switched rail");
        assert!(fab.link_stats().iter().any(|s| s.bytes_carried > 0));
        assert_eq!(fab.active_transfers(), 0, "fabric drained");
    }

    #[test]
    fn mx_pair_roundtrip() {
        let mut c = Cluster::build(&ClusterSpec::mx_pair(), vec![]);
        let (a, b) = (c.nodes[0], c.nodes[1]);
        let ha = c.handle(0).clone();
        let f = ha.open_flow(b, TrafficClass::DEFAULT);
        c.sim.inject(a, |ctx| {
            ha.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(b"payload").build_parts(),
            )
        });
        c.drain();
        assert_eq!(c.handle(1).delivered_count(), 1);
        let got = c.handle(1).take_delivered();
        assert_eq!(got[0].contiguous(), b"payload");
    }

    #[test]
    fn legacy_cluster_roundtrip() {
        let spec = ClusterSpec::new(3, vec![Technology::MyrinetMx]).legacy();
        let mut c = Cluster::build(&spec, vec![]);
        let h0 = c.handle(0).clone();
        let n2 = c.nodes[2];
        let f = h0.open_flow(n2, TrafficClass::DEFAULT);
        let n0 = c.nodes[0];
        c.sim.inject(n0, |ctx| {
            h0.send(
                ctx,
                f,
                MessageBuilder::new().pack_cheaper(&[3; 64]).build_parts(),
            )
        });
        c.drain();
        assert_eq!(c.handle(2).delivered_count(), 1);
        assert_eq!(c.handle(1).delivered_count(), 0);
    }

    #[test]
    fn multirail_cluster_builds() {
        let mut spec = ClusterSpec::new(2, vec![Technology::MyrinetMx, Technology::QuadricsElan]);
        spec.trace = Some(1024);
        let c = Cluster::build(&spec, vec![]);
        assert_eq!(c.nics[0].len(), 2);
        assert_eq!(c.nics[1].len(), 2);
        assert!(c.sim.trace().is_enabled());
    }
    /// The constructors are the literal, field for field, and compose in
    /// any order.
    #[test]
    fn constructors_equal_the_literal() {
        let literal = |engine: EngineKind, cap: Option<usize>| {
            let spec = ClusterSpec {
                nodes: 2,
                rails: vec![Technology::MyrinetMx],
                engine,
                trace: cap,
                engine_trace: cap,
            };
            format!("{spec:?}")
        };
        let show = |s: ClusterSpec| format!("{s:?}");
        let pooled = |config: EngineConfig| EngineKind::Optimizing {
            config,
            policy: PolicyKind::Pooled,
        };
        let legacy = || EngineKind::Legacy {
            config: EngineConfig::default(),
        };
        let new = || ClusterSpec::new(2, vec![Technology::MyrinetMx]);

        let plain = literal(pooled(EngineConfig::default()), None);
        assert_eq!(show(new()), plain);
        assert_eq!(show(ClusterSpec::mx_pair()), plain);
        assert_eq!(show(new().with_tracing(None)), plain);

        let traced_legacy = literal(legacy(), Some(64));
        assert_eq!(show(new().legacy().with_tracing(64)), traced_legacy);
        assert_eq!(show(new().with_tracing(64).legacy()), traced_legacy);

        let cfg = EngineConfig::default().with_nagle(SimDuration::from_micros(3));
        let tuned = literal(pooled(cfg.clone()), Some(8));
        assert_eq!(show(new().config(cfg.clone()).with_tracing(8)), tuned);
        let last_engine_wins = new().with_tracing(8).legacy().config(cfg);
        assert_eq!(show(last_engine_wins), tuned);
    }
}
