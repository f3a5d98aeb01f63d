//! Composed scenarios: ready-made clusters for experiments and examples.

use madeleine::api::AppDriver;
use madeleine::harness::{Cluster, ClusterSpec};
use simnet::{NodeId, SimDuration, Topology};

use crate::apps::{FlowSpec, StatsHandle, TrafficApp};

/// A [`TrafficApp`] on every node of the cell `spec` describes: node `i`
/// runs `flows_per_node[i]` on RNG stream `i` of `seed`, and a node past
/// the end of the list runs none — a sink that counts, verifies and
/// answers requests. `topos[r]` switches rail `r` as in
/// [`Cluster::build_with_topologies`]. Returns the undrained cluster plus
/// every node's stats, in node order.
pub fn traffic(
    spec: &ClusterSpec,
    topos: Vec<Option<Topology>>,
    flows_per_node: Vec<Vec<FlowSpec>>,
    seed: u64,
) -> (Cluster, Vec<StatsHandle>) {
    assert!(
        flows_per_node.len() <= spec.nodes,
        "more workloads than nodes"
    );
    let mut flows = flows_per_node.into_iter();
    let (apps, stats): (Vec<Option<Box<dyn AppDriver>>>, Vec<StatsHandle>) = (0..spec.nodes)
        .map(|i| {
            let (app, stats) = TrafficApp::new(flows.next().unwrap_or_default(), seed, i as u64);
            (Some(Box::new(app) as Box<dyn AppDriver>), stats)
        })
        .unzip();
    (Cluster::build_with_topologies(spec, topos, apps), stats)
}

/// [`traffic`] on a node pair: node 0 runs `flows`, node 1 is the sink.
/// Returns the undrained cluster plus (sender stats, sink stats).
pub fn traffic_pair(
    spec: &ClusterSpec,
    flows: Vec<FlowSpec>,
    seed: u64,
) -> (Cluster, StatsHandle, StatsHandle) {
    let (cluster, stats) = traffic(spec, Vec::new(), vec![flows], seed);
    let [tx, rx] = <[StatsHandle; 2]>::try_from(stats).expect("a pair is two nodes");
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
    traffic_pair(spec, vec![flow; n_flows], seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SizeDist;
    use madeleine::harness::NodeHandle;
    use simnet::Technology;

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
        let (mut cluster, clients, servers) = traffic_pair(&ClusterSpec::mx_pair(), flows, 77);
        cluster.drain();
        let (c, s) = (clients.borrow(), servers.borrow());
        assert_eq!(c.sent, 75);
        assert_eq!(s.received, 75);
        assert_eq!(c.rtt_us[0].len(), 25, "all RPC replies");
        assert_eq!(c.rtt_us[1].len(), 25, "all pages served");
        assert_eq!(c.rtt_us[2].len(), 0, "CORBA is one-way");
        assert_eq!((s.sent, c.received), (50, 50));
        for (name, stats) in [("clients", &c), ("servers", &s)] {
            assert!(
                stats.integrity.all_ok(),
                "{name}: {:?}",
                stats.integrity.failures
            );
        }
    }

    /// Four nodes across a dumbbell, every one streaming to every other.
    #[test]
    fn every_node_streams_to_every_other_across_a_dumbbell() {
        let nodes = 4;
        let profile = nicdrv::calib::params(Technology::MyrinetMx).link_profile();
        let topo = Topology::dumbbell(2, 2, profile, profile);
        let flows = (0..nodes)
            .map(|me| {
                (0..nodes)
                    .filter(|&dst| dst != me)
                    .map(|dst| FlowSpec {
                        sizes: SizeDist::Uniform(16, 2048),
                        stop_after: Some(20),
                        ..FlowSpec::eager(NodeId(dst as u32), SimDuration::from_micros(5), 0)
                    })
                    .collect()
            })
            .collect();
        let spec = ClusterSpec::new(nodes, vec![Technology::MyrinetMx]);
        let (mut cluster, stats) = traffic(&spec, vec![Some(topo)], flows, 4);
        cluster.drain();
        for (i, stats) in stats.iter().enumerate() {
            let s = stats.borrow();
            assert_eq!((s.sent, s.received), (60, 60), "node {i}");
            assert_eq!(s.integrity.checked, 60, "node {i}");
            assert!(s.integrity.all_ok(), "node {i}: {:?}", s.integrity.failures);
            assert_eq!(cluster.handle(i).backlog_bytes(), 0, "node {i} drained");
            if let NodeHandle::Opt(h) = cluster.handle(i) {
                assert!(h.is_drained(), "node {i} engine drained");
            }
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
