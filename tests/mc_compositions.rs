//! Crash compositions the per-crate unit tests never exercise: torn
//! initial crashes composed with standby-coordinated recovery,
//! multi-crash (client + owner) recovery, phase-boundary
//! interruptions, re-runs, and open group-commit windows. These are
//! the hand-picked seeds of the space the model checker
//! (`cblog-mc`) enumerates exhaustively.

use cblog_common::{CostModel, Error, NodeId, PageId, RecoveryPhase};
use cblog_core::{
    recovery, Cluster, ClusterConfig, FaultPlan, GroupCommitPolicy, RecoveryOptions, ReplayMode,
    Runtime,
};

fn cluster(owned: Vec<u32>, policy: GroupCommitPolicy, tracing: bool) -> Cluster {
    Cluster::new(
        ClusterConfig::builder()
            .owned_pages(owned)
            .page_size(1024)
            .buffer_frames(16)
            .default_owned_pages(0)
            .cost(CostModel::unit())
            .group_commit(policy)
            .faults(FaultPlan::default())
            .tracing(tracing)
            .build(),
    )
    .unwrap()
}

/// Committed state + an in-flight (unforced) transaction on node 1.
fn setup() -> (Cluster, Vec<(PageId, u64)>) {
    let mut c = cluster(vec![4, 0, 0], GroupCommitPolicy::Immediate, true);
    let mut expect = Vec::new();
    for i in 0..4u32 {
        let p = PageId::new(NodeId(0), i % 4);
        let t = c.begin(NodeId(1 + (i % 2))).unwrap();
        let v = 100 + i as u64;
        c.write_u64(t, p, 0, v).unwrap();
        c.commit(t).unwrap();
        expect.retain(|(q, _)| *q != p);
        expect.push((p, v));
    }
    let t = c.begin(NodeId(1)).unwrap();
    c.write_u64(t, PageId::new(NodeId(0), 0), 3, 777).unwrap();
    (c, expect)
}

/// Standby-coordinated recovery interrupted after every phase, with a
/// torn initial crash.
#[test]
fn standby_torn_interrupted_recovery_converges() {
    let (probe, _) = setup();
    let pending = probe.pending_log_bytes(NodeId(1));
    for landed in [0, 1, pending / 2, pending] {
        for corrupt in [false, true] {
            for &phase in RecoveryPhase::ALL.iter() {
                let (mut c, expect) = setup();
                c.crash_torn(NodeId(1), landed, corrupt);
                let err = recovery::recover(
                    &mut c,
                    &RecoveryOptions::single(NodeId(1))
                        .with_standby(NodeId(2))
                        .crash_after(phase),
                )
                .unwrap_err();
                assert!(matches!(err, Error::RecoveryInterrupted(p) if p == phase));
                recovery::recover(
                    &mut c,
                    &RecoveryOptions::single(NodeId(1)).with_standby(NodeId(2)),
                )
                .unwrap_or_else(|e| {
                    panic!("landed={landed} corrupt={corrupt} phase={phase}: rerun: {e}")
                });
                let t = c.begin(NodeId(2)).unwrap();
                for &(p, v) in &expect {
                    assert_eq!(c.read_u64(t, p, 0).unwrap(), v);
                }
                assert_eq!(c.read_u64(t, PageId::new(NodeId(0), 0), 3).unwrap(), 0);
                c.commit(t).unwrap();
                c.trace_check().unwrap();
            }
        }
    }
}

/// Multi-crash (owner + client), both torn, interrupted after each
/// phase, then re-run. Also cross-checks Serial vs Parallel replay.
#[test]
fn multi_crash_double_torn_interrupted_converges() {
    let build = || {
        let mut c = cluster(vec![4, 0, 0], GroupCommitPolicy::Immediate, true);
        let mut expect = Vec::new();
        for i in 0..6u32 {
            let p = PageId::new(NodeId(0), i % 4);
            let t = c.begin(NodeId(1 + (i % 2))).unwrap();
            let v = 300 + i as u64;
            c.write_u64(t, p, 0, v).unwrap();
            c.commit(t).unwrap();
            expect.retain(|(q, _)| *q != p);
            expect.push((p, v));
        }
        // In-flight txns on both victims.
        let t0 = c.begin(NodeId(0)).unwrap();
        c.write_u64(t0, PageId::new(NodeId(0), 1), 3, 888).unwrap();
        let t1 = c.begin(NodeId(1)).unwrap();
        c.write_u64(t1, PageId::new(NodeId(0), 2), 3, 999).unwrap();
        // Owner's buffer holds the only current images.
        for i in 0..4u32 {
            let p = PageId::new(NodeId(0), i);
            let _ = c.evict_page(NodeId(1), p);
            let _ = c.evict_page(NodeId(2), p);
        }
        (c, expect)
    };
    let (probe, _) = build();
    let p0 = probe.pending_log_bytes(NodeId(0));
    let p1 = probe.pending_log_bytes(NodeId(1));
    for landed0 in [0, p0 / 2, p0] {
        for landed1 in [0, p1 / 2, p1] {
            for &phase in RecoveryPhase::ALL.iter() {
                for mode in [ReplayMode::Serial, ReplayMode::Parallel { workers: 2 }] {
                    let (mut c, expect) = build();
                    c.crash_torn(NodeId(0), landed0, true);
                    c.crash_torn(NodeId(1), landed1, true);
                    let opts = RecoveryOptions::nodes(&[NodeId(0), NodeId(1)]).replay(mode);
                    let err =
                        recovery::recover(&mut c, &opts.clone().crash_after(phase)).unwrap_err();
                    assert!(matches!(err, Error::RecoveryInterrupted(p) if p == phase));
                    recovery::recover(&mut c, &opts).unwrap_or_else(|e| {
                        panic!("l0={landed0} l1={landed1} phase={phase} {mode:?}: rerun: {e}")
                    });
                    let t = c.begin(NodeId(2)).unwrap();
                    for &(p, v) in &expect {
                        let got = c.read_u64(t, p, 0).unwrap();
                        assert_eq!(got, v, "l0={landed0} l1={landed1} phase={phase} {mode:?}");
                    }
                    assert_eq!(c.read_u64(t, PageId::new(NodeId(0), 1), 3).unwrap(), 0);
                    assert_eq!(c.read_u64(t, PageId::new(NodeId(0), 2), 3).unwrap(), 0);
                    c.commit(t).unwrap();
                    c.trace_check().unwrap_or_else(|e| {
                        panic!("l0={landed0} l1={landed1} phase={phase} {mode:?}: watchdog: {e}")
                    });
                }
            }
        }
    }
}

/// Open adaptive/window group-commit batch torn per byte, then an
/// interrupted recovery: only polled-durable commits may survive.
#[test]
fn open_window_torn_interrupted_only_acked_survive() {
    let policy = GroupCommitPolicy::Window {
        window_us: 1_000_000,
        max_batch: 64,
    };
    let build = || {
        let mut c = cluster(vec![4, 0], policy, true);
        // Warm-up committed synchronously.
        let warm = c.begin(NodeId(1)).unwrap();
        c.write_u64(warm, PageId::new(NodeId(0), 3), 0, 5).unwrap();
        c.commit(warm).unwrap();
        let mut txns = Vec::new();
        for i in 0..3u32 {
            let t = c.begin(NodeId(1)).unwrap();
            c.write_u64(t, PageId::new(NodeId(0), i), 0, 10 + i as u64)
                .unwrap();
            c.commit_submit(t).unwrap();
            txns.push(t);
        }
        (c, txns)
    };
    let (probe, _) = build();
    let pending = probe.pending_log_bytes(NodeId(1));
    assert!(pending > 0);
    // Durable page images after recovery: an interrupted-and-rerun
    // recovery must leave exactly the pages an uninterrupted one does.
    let images = |c: &mut Cluster| -> Vec<Vec<u8>> {
        (0..4u32)
            .map(|i| c.page_image(PageId::new(NodeId(0), i)).unwrap())
            .collect()
    };
    for landed in 0..=pending {
        let uninterrupted = {
            let (mut c, _) = build();
            c.crash_torn(NodeId(1), landed, false);
            recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
            images(&mut c)
        };
        for &phase in &[
            RecoveryPhase::Analysis,
            RecoveryPhase::PsnLists,
            RecoveryPhase::Replay,
            RecoveryPhase::Undo,
        ] {
            let (mut c, txns) = build();
            let acked: Vec<bool> = txns.iter().map(|t| c.poll_committed(*t).unwrap()).collect();
            assert!(acked.iter().all(|a| !a), "window still open");
            c.crash_torn(NodeId(1), landed, false);
            let err = recovery::recover(
                &mut c,
                &RecoveryOptions::single(NodeId(1)).crash_after(phase),
            )
            .unwrap_err();
            assert!(matches!(err, Error::RecoveryInterrupted(p) if p == phase));
            recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap();
            assert_eq!(
                images(&mut c),
                uninterrupted,
                "rerun after {phase} diverges from an uninterrupted recovery (landed={landed})"
            );
            let t = c.begin(NodeId(0)).unwrap();
            assert_eq!(
                c.read_u64(t, PageId::new(NodeId(0), 3), 0).unwrap(),
                5,
                "acked warm-up survives (landed={landed} phase={phase})"
            );
            // Unacked commits: all-or-prefix semantics, no garbage.
            let mut vals = Vec::new();
            for i in 0..3u32 {
                let v = c.read_u64(t, PageId::new(NodeId(0), i), 0).unwrap();
                assert!(v == 0 || v == 10 + i as u64, "garbage {v} at {i}");
                vals.push(v != 0);
            }
            for w in vals.windows(2) {
                assert!(
                    w[0] || !w[1],
                    "non-prefix survival {vals:?} landed={landed}"
                );
            }
            c.commit(t).unwrap();
            c.trace_check().unwrap();
        }
    }
}

/// The interrupting crash itself tears the recovering node's WAL tail
/// (`RecoveryOptions::crash_after_tear`): the re-run must still
/// converge to the same state, whatever phase the first attempt died
/// after and however the interrupt's tear landed.
#[test]
fn interrupt_tear_rerun_is_idempotent() {
    for &phase in RecoveryPhase::ALL.iter() {
        for (landed, corrupt) in [(0, false), (u64::MAX, false), (u64::MAX, true)] {
            let (mut c, expect) = setup();
            let pending = c.pending_log_bytes(NodeId(1));
            c.crash_torn(NodeId(1), pending, true);
            let err = recovery::recover(
                &mut c,
                &RecoveryOptions::single(NodeId(1))
                    .crash_after(phase)
                    .crash_after_tear(landed, corrupt),
            )
            .unwrap_err();
            assert!(matches!(err, Error::RecoveryInterrupted(p) if p == phase));
            recovery::recover(&mut c, &RecoveryOptions::single(NodeId(1))).unwrap_or_else(|e| {
                panic!("phase={phase} landed={landed} corrupt={corrupt}: rerun: {e}")
            });
            let t = c.begin(NodeId(2)).unwrap();
            for &(p, v) in &expect {
                assert_eq!(c.read_u64(t, p, 0).unwrap(), v);
            }
            assert_eq!(c.read_u64(t, PageId::new(NodeId(0), 0), 3).unwrap(), 0);
            c.commit(t).unwrap();
            c.trace_check().unwrap();
        }
    }
}
