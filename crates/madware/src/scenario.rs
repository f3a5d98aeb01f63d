//! Composed scenarios: ready-made clusters for experiments and examples.

use madeleine::harness::{Cluster, ClusterSpec};
use simnet::{NodeId, SimDuration};

use crate::apps::{FlowSpec, StatsHandle, TrafficApp};

/// One traffic source and one sink: node 0 runs `flows` as a
/// [`TrafficApp`] called `name` (RNG stream 0 of `seed`), node 1 a
/// flow-less one (stream 1) that counts, verifies and answers requests.
/// `spec` describes everything else about the cell — rails, engine,
/// tracing. Returns the undrained cluster plus (sender stats, sink stats).
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

    /// The paper's motivating workload (§1): RPC, DSM and CORBA stacked
    /// on one node pair, every request answered and every payload intact.
    #[test]
    fn multi_middleware_scenario_runs_clean() {
        let flows = [FlowSpec::rpc, FlowSpec::dsm, FlowSpec::corba]
            .map(|preset| FlowSpec {
                stop_after: Some(25),
                ..preset(NodeId(1), SimDuration::from_micros(15))
            })
            .to_vec();
        let (mut cluster, clients, servers) =
            traffic_pair(&ClusterSpec::mx_pair(), "middlewares", flows, 77);
        cluster.drain();
        let (c, s) = (clients.borrow(), servers.borrow());
        assert_eq!(c.sent, 75);
        assert_eq!(s.received, 75);
        assert_eq!(c.rtt_us[0].count(), 25, "all RPC replies");
        assert_eq!(c.rtt_us[1].count(), 25, "all pages served");
        assert_eq!(c.rtt_us[2].count(), 0, "CORBA is one-way");
        assert_eq!((s.sent, c.received), (50, 50));
        for (name, stats) in [("clients", &c), ("servers", &s)] {
            assert!(
                stats.integrity.all_ok(),
                "{name}: {:?}",
                stats.integrity.failures
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
