//! The threaded `recover` rejects what it cannot honour: standby
//! recovery and injected crash points are simulator-only options, and
//! a node that never crashed has nothing to recover. Each rejection
//! leaves the node untouched, so a valid recovery still succeeds.

use cblog_common::{Error, NodeId, PageId, RecoveryPhase};
use cblog_core::{PlanOp, RecoveryOptions, Runtime, TxnPlan};
use cblog_rt::{ThreadCluster, ThreadClusterConfig};

/// A two-node cluster with one committed write on node 0, which has
/// then crashed.
fn crashed_cluster() -> ThreadCluster {
    let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
    let plan = TxnPlan {
        client: NodeId(0),
        stream: 0,
        ops: vec![PlanOp::Write {
            pid: PageId::new(NodeId(0), 0),
            slot: 0,
            value: 7,
        }],
        abort: false,
    };
    assert_eq!(tc.run(&[plan]).unwrap().committed, 1);
    tc.crash(NodeId(0)).unwrap();
    tc
}

fn recovers_afterwards(tc: &mut ThreadCluster) {
    let rec = tc.recover(&RecoveryOptions::nodes(&[NodeId(0)])).unwrap();
    assert_eq!(rec.recovered_nodes, vec![NodeId(0)]);
}

#[test]
fn standby_recovery_is_rejected() {
    let mut tc = crashed_cluster();
    let err = tc
        .recover(&RecoveryOptions::nodes(&[NodeId(0)]).with_standby(NodeId(1)))
        .unwrap_err();
    assert!(matches!(err, Error::Invalid(_)), "{err}");
    recovers_afterwards(&mut tc);
}

#[test]
fn injected_crash_point_is_rejected() {
    let mut tc = crashed_cluster();
    let err = tc
        .recover(&RecoveryOptions::nodes(&[NodeId(0)]).crash_after(RecoveryPhase::Analysis))
        .unwrap_err();
    assert!(matches!(err, Error::Invalid(_)), "{err}");
    recovers_afterwards(&mut tc);
}

#[test]
fn recovering_a_live_node_is_a_protocol_error() {
    let mut tc = crashed_cluster();
    let err = tc
        .recover(&RecoveryOptions::nodes(&[NodeId(1)]))
        .unwrap_err();
    match &err {
        Error::Protocol(msg) => assert!(msg.contains("N1 is not crashed"), "{msg}"),
        other => panic!("expected a protocol error, got {other}"),
    }
    recovers_afterwards(&mut tc);
}
