//! Composed scenarios: ready-made multi-middleware clusters for
//! experiments and examples.

use madeleine::api::AppDriver;
use madeleine::harness::{Cluster, ClusterSpec, EngineKind};
use madeleine::ids::TrafficClass;
use simnet::{NodeId, SimDuration, Technology};

use crate::apps::{FlowSpec, StatsHandle, TrafficApp};
use crate::corba::{CorbaInvoker, CorbaServant};
use crate::dsm::{DsmClient, DsmServer};
use crate::rpc::{RpcClient, RpcServer};
use crate::workload::{Arrival, SizeDist};

/// Offered-load level for [`multi_middleware`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Sparse arrivals: NICs mostly idle, little to aggregate.
    Light,
    /// Dense arrivals: backlogs form during NIC-busy periods.
    Heavy,
}

/// Handles returned by [`multi_middleware`].
pub struct MultiMiddlewareHandles {
    /// RPC client stats (node 0).
    pub rpc_client: StatsHandle,
    /// RPC server stats (node 1).
    pub rpc_server: StatsHandle,
    /// DSM client stats (node 0).
    pub dsm_client: StatsHandle,
    /// DSM server stats (node 1).
    pub dsm_server: StatsHandle,
    /// CORBA invoker stats (node 0).
    pub corba: StatsHandle,
    /// CORBA servant stats (node 1).
    pub servant: StatsHandle,
}

/// The paper's motivating workload: several middlewares (RPC + DSM +
/// CORBA) stacked on the *same* pair of nodes, producing concurrent
/// independent flows the engine may mix. Node 0 runs the three clients,
/// node 1 the three servers; incoming messages are demultiplexed to the
/// owning middleware by protocol signature, and each middleware gets a
/// private timer-tag lane. Returns the cluster and per-middleware stats.
pub fn multi_middleware(
    engine: EngineKind,
    tech: Technology,
    requests_per_mw: u64,
    load: Load,
    seed: u64,
) -> (Cluster, MultiMiddlewareHandles) {
    let div = match load {
        Load::Light => 1,
        Load::Heavy => 8,
    };
    // Simplest faithful composition: 2 nodes; node 0 runs the three client
    // middlewares (wrapped), node 1 runs the three servers (wrapped). To
    // avoid cross-talk in on_message each app checks its own protocol
    // header, and flows are disjoint, so stats remain meaningful: RPC and
    // DSM clients match replies by id; TrafficApp-style sinks just count.
    let (rpc_c, rpc_client) = RpcClient::new(
        NodeId(1),
        Arrival::Poisson(SimDuration::from_micros(15.max(div) / div)),
        SizeDist::Uniform(16, 512),
        Some(requests_per_mw),
        seed,
        0,
    );
    let (rpc_s, rpc_server) = RpcServer::new(SizeDist::Fixed(256), seed, 1);
    let (dsm_c, dsm_client) = DsmClient::new(
        NodeId(1),
        Arrival::Poisson(SimDuration::from_micros(40.max(div) / div)),
        256,
        Some(requests_per_mw),
        seed,
        2,
    );
    let (dsm_s, dsm_server) = DsmServer::new();
    let (corba_c, corba) = CorbaInvoker::new(
        NodeId(1),
        Arrival::Poisson(SimDuration::from_micros(12.max(div) / div)),
        SizeDist::Uniform(8, 256),
        Some(requests_per_mw),
        seed,
        3,
    );
    let (corba_s, servant) = CorbaServant::new();

    // Demultiplex receives by protocol signature so each middleware only
    // sees its own replies/requests.
    struct Mux {
        rpc: Box<dyn AppDriver>,
        dsm: Box<dyn AppDriver>,
        corba: Box<dyn AppDriver>,
    }
    impl Mux {
        fn classify(msg: &madeleine::DeliveredMessage) -> usize {
            if let Some((_, hdr)) = msg.fragments.first() {
                if hdr.len() >= 4 && &hdr[0..4] == b"GIOP" {
                    return 2; // corba
                }
                if hdr.len() == 12 {
                    return 0; // rpc header is exactly 12 bytes
                }
            }
            1 // dsm (4-byte page id header)
        }
    }
    impl AppDriver for Mux {
        fn on_start(&mut self, api: &mut dyn madeleine::CommApi) {
            self.rpc.on_start(api);
            self.dsm.on_start(api);
            self.corba.on_start(api);
        }
        fn on_timer(&mut self, api: &mut dyn madeleine::CommApi, tag: u64) {
            match tag % 3 {
                0 => self.rpc.on_timer(api, tag / 3),
                1 => self.dsm.on_timer(api, tag / 3),
                _ => self.corba.on_timer(api, tag / 3),
            }
        }
        fn on_message(
            &mut self,
            api: &mut dyn madeleine::CommApi,
            msg: &madeleine::DeliveredMessage,
        ) {
            match Mux::classify(msg) {
                0 => self.rpc.on_message(api, msg),
                1 => self.dsm.on_message(api, msg),
                _ => self.corba.on_message(api, msg),
            }
        }
    }
    // Timer-tag remapping shim: gives each middleware a private tag space.
    struct Shift {
        inner: Box<dyn AppDriver>,
        lane: u64,
        lanes: u64,
    }
    struct ShiftApi<'a> {
        api: &'a mut dyn madeleine::CommApi,
        lane: u64,
        lanes: u64,
    }
    impl madeleine::CommApi for ShiftApi<'_> {
        fn now(&self) -> simnet::SimTime {
            self.api.now()
        }
        fn node(&self) -> NodeId {
            self.api.node()
        }
        fn open_flow(&mut self, dst: NodeId, class: TrafficClass) -> madeleine::FlowId {
            self.api.open_flow(dst, class)
        }
        fn send(
            &mut self,
            flow: madeleine::FlowId,
            parts: Vec<madeleine::Fragment>,
        ) -> madeleine::MsgId {
            self.api.send(flow, parts)
        }
        fn set_timer(&mut self, delay: SimDuration, tag: u64) {
            self.api.set_timer(delay, tag * self.lanes + self.lane);
        }
        fn flush(&mut self) {
            self.api.flush();
        }
    }
    impl AppDriver for Shift {
        fn on_start(&mut self, api: &mut dyn madeleine::CommApi) {
            let mut shim = ShiftApi {
                api,
                lane: self.lane,
                lanes: self.lanes,
            };
            self.inner.on_start(&mut shim);
        }
        fn on_timer(&mut self, api: &mut dyn madeleine::CommApi, tag: u64) {
            let mut shim = ShiftApi {
                api,
                lane: self.lane,
                lanes: self.lanes,
            };
            self.inner.on_timer(&mut shim, tag);
        }
        fn on_message(
            &mut self,
            api: &mut dyn madeleine::CommApi,
            msg: &madeleine::DeliveredMessage,
        ) {
            let mut shim = ShiftApi {
                api,
                lane: self.lane,
                lanes: self.lanes,
            };
            self.inner.on_message(&mut shim, msg);
        }
    }

    let clients = Mux {
        rpc: Box::new(Shift {
            inner: Box::new(rpc_c),
            lane: 0,
            lanes: 3,
        }),
        dsm: Box::new(Shift {
            inner: Box::new(dsm_c),
            lane: 1,
            lanes: 3,
        }),
        corba: Box::new(Shift {
            inner: Box::new(corba_c),
            lane: 2,
            lanes: 3,
        }),
    };
    let servers = Mux {
        rpc: Box::new(Shift {
            inner: Box::new(rpc_s),
            lane: 0,
            lanes: 3,
        }),
        dsm: Box::new(Shift {
            inner: Box::new(dsm_s),
            lane: 1,
            lanes: 3,
        }),
        corba: Box::new(Shift {
            inner: Box::new(corba_s),
            lane: 2,
            lanes: 3,
        }),
    };

    let spec = ClusterSpec::new(2, vec![tech]).engine(engine);
    let cluster = Cluster::build(
        &spec,
        vec![Some(Box::new(clients)), Some(Box::new(servers))],
    );
    (
        cluster,
        MultiMiddlewareHandles {
            rpc_client,
            rpc_server,
            dsm_client,
            dsm_server,
            corba,
            servant,
        },
    )
}

/// One traffic source and one counting sink: node 0 runs `flows` as a
/// [`TrafficApp`] called `name` (RNG stream 0 of `seed`), node 1 a
/// flow-less sink (stream 1). `spec` describes everything else about the
/// cell — rails, engine, tracing. Returns the undrained cluster plus
/// (sender stats, sink stats).
pub fn traffic_pair(
    spec: &ClusterSpec,
    name: &'static str,
    flows: Vec<FlowSpec>,
    seed: u64,
) -> (Cluster, StatsHandle, StatsHandle) {
    let (app, tx) = TrafficApp::new(name, flows, seed, 0);
    let (sink, rx) = TrafficApp::new("sink", vec![], seed, 1);
    let cluster = Cluster::build(spec, vec![Some(Box::new(app)), Some(Box::new(sink))]);
    (cluster, tx, rx)
}

/// N independent eager flows between one node pair — the E1 workload —
/// on the cell `spec` describes. Returns the cluster plus (sender stats,
/// sink stats).
pub fn eager_flows(
    spec: &ClusterSpec,
    n_flows: usize,
    msg_size: usize,
    mean_gap: SimDuration,
    msgs_per_flow: u64,
    seed: u64,
) -> (Cluster, StatsHandle, StatsHandle) {
    let flow = FlowSpec {
        stop_after: Some(msgs_per_flow),
        ..FlowSpec::eager(NodeId(1), mean_gap, msg_size)
    };
    traffic_pair(spec, "eager", vec![flow; n_flows], seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_middleware_scenario_runs_clean() {
        let (mut cluster, h) = multi_middleware(
            EngineKind::optimizing(),
            Technology::MyrinetMx,
            25,
            Load::Light,
            77,
        );
        cluster.drain();
        assert_eq!(h.rpc_client.borrow().sent, 25);
        assert_eq!(h.rpc_client.borrow().received, 25, "all RPC replies");
        assert_eq!(h.rpc_client.borrow().rtt_us.count(), 25);
        assert_eq!(h.dsm_client.borrow().sent, 25);
        assert_eq!(h.dsm_client.borrow().received, 25, "all pages served");
        assert_eq!(h.corba.borrow().sent, 25);
        assert_eq!(h.servant.borrow().received, 25);
        for (name, s) in [
            ("rpc", &h.rpc_client),
            ("dsm", &h.dsm_client),
            ("servant", &h.servant),
            ("rpc_server", &h.rpc_server),
        ] {
            assert!(
                s.borrow().integrity.all_ok(),
                "{name}: {:?}",
                s.borrow().integrity.failures
            );
        }
    }

    #[test]
    fn eager_flows_scenario_counts_match() {
        let (mut cluster, tx, rx) = eager_flows(
            &ClusterSpec::mx_pair().legacy(),
            4,
            64,
            SimDuration::from_micros(10),
            20,
            3,
        );
        cluster.drain();
        assert_eq!(tx.borrow().sent, 80);
        assert_eq!(rx.borrow().received, 80);
        assert!(rx.borrow().integrity.all_ok());
    }
}
