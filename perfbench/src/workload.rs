//! The three workloads and their seeded plan generation.
//!
//! Every workload is a closed loop: each lane submits its next
//! transaction only after the previous one's commit is acknowledged
//! (`ThreadCluster::run` has no arrival-time input, so an open loop
//! needs a program change first). Every workload runs on 2 nodes (one
//! worker thread each), adaptive group commit on both sides, and a
//! working set that fits the buffer, because the threaded engine
//! cannot evict a dirty page.
//!
//! The engine receives only [`TxnPlan`]s: slots, values and remote-read
//! targets all come from the seed, so one seed always gives the same
//! inputs.

use cblog_common::rng::Rng;
use cblog_common::{NodeId, PageId};
use cblog_core::{GroupCommitPolicy, PlanOp, TxnPlan};
use cblog_storage::page::PAGE_HEADER_LEN;
use std::collections::BTreeMap;

/// Nodes in every workload.
pub const NODES: u32 = 2;
/// Page size of every workload, bytes.
pub const PAGE_SIZE: usize = 1024;
/// u64 slots per page.
pub const SLOTS: usize = (PAGE_SIZE - PAGE_HEADER_LEN) / 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's commit path: every write targets a page the writing
    /// lane owns privately, so a commit is one local force and zero
    /// messages. Loads `core`, `wal` and the group-commit scheduler;
    /// bypasses `net` and lock contention.
    LocalCommit,
    /// The data-shipping read path: the local-commit writes plus two
    /// reads per transaction of pages the other node's lanes are
    /// writing. Loads `net`, the owner's serve loop, S/X lock conflicts
    /// and the WAL-rule force before a dirty page ships. Two reads, not
    /// one: with one read the commit rate swung 10k–16k/s between runs.
    RemoteRead,
    /// Crash recovery of a large log: 256 owned pages per node, a
    /// 64k-update load per node, then crash and recover with parallel
    /// replay. Loads the `wal` read path and `recovery`, which the
    /// commit-path workloads barely touch (their logs cover 16 pages).
    CrashRecover,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LocalCommit,
        Workload::RemoteRead,
        Workload::CrashRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalCommit => "local_commit",
            Workload::RemoteRead => "remote_read",
            Workload::CrashRecover => "crash_recover",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::LocalCommit => Shape {
                lanes: 8,
                pages_per_lane: 2,
                txns_per_lane: 2_000,
                writes: 4,
                reads: 0,
            },
            Workload::RemoteRead => Shape {
                lanes: 8,
                pages_per_lane: 2,
                txns_per_lane: 100,
                writes: 4,
                reads: 2,
            },
            Workload::CrashRecover => Shape {
                lanes: 8,
                pages_per_lane: 32,
                txns_per_lane: 2_000,
                writes: 4,
                reads: 0,
            },
        }
    }
}

/// Size of one round of a workload, per node.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Concurrent transaction streams per node.
    pub lanes: usize,
    /// Pages each lane owns privately (and alone writes).
    pub pages_per_lane: u32,
    /// Transactions each lane runs per round.
    pub txns_per_lane: usize,
    /// Writes per transaction, to the lane's own pages.
    pub writes: usize,
    /// Reads per transaction, of pages the other node's lanes write.
    pub reads: usize,
}

impl Shape {
    pub fn owned_pages(&self) -> u32 {
        self.lanes as u32 * self.pages_per_lane
    }

    pub fn txns_per_round(&self) -> u64 {
        (NODES as usize * self.lanes * self.txns_per_lane) as u64
    }

    /// Adaptive group commit, `{min 50 µs, max 2000 µs, target_batch =
    /// lanes}` on every node.
    pub fn group_commit(&self) -> GroupCommitPolicy {
        GroupCommitPolicy::Adaptive {
            min_window_us: 50,
            max_window_us: 2_000,
            target_batch: self.lanes,
        }
    }

    /// Plans of round `round` under `seed`, lane order preserved.
    pub fn plans(&self, seed: u64, round: u64) -> Vec<TxnPlan> {
        let mut rng = Rng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut plans = Vec::with_capacity(self.txns_per_round() as usize);
        for node in 0..NODES {
            let other = NodeId((node + 1) % NODES);
            for lane in 0..self.lanes {
                let first = lane as u32 * self.pages_per_lane;
                for _ in 0..self.txns_per_lane {
                    let mut ops = Vec::with_capacity(self.reads + self.writes);
                    for _ in 0..self.reads {
                        let index = rng.gen_range(0..self.owned_pages() as u64) as u32;
                        ops.push(PlanOp::Read {
                            pid: PageId::new(other, index),
                            slot: rng.gen_range_usize(0..SLOTS),
                        });
                    }
                    for _ in 0..self.writes {
                        let index = first + rng.gen_range(0..self.pages_per_lane as u64) as u32;
                        ops.push(PlanOp::Write {
                            pid: PageId::new(NodeId(node), index),
                            slot: rng.gen_range_usize(0..SLOTS),
                            value: rng.next_u64(),
                        });
                    }
                    plans.push(TxnPlan {
                        client: NodeId(node),
                        stream: lane,
                        ops,
                        abort: false,
                    });
                }
            }
        }
        plans
    }

    /// Every page of node `node`.
    pub fn pages_of(&self, node: u32) -> Vec<PageId> {
        (0..self.owned_pages())
            .map(|i| PageId::new(NodeId(node), i))
            .collect()
    }
}

/// Slot values every page must hold once all `plans` committed. Write
/// sets are lane-private, so the final state is the last write to each
/// slot in plan order, whatever the interleaving of lanes.
pub fn expected_state(shape: &Shape, plans: &[TxnPlan]) -> BTreeMap<PageId, Vec<u64>> {
    let mut state: BTreeMap<PageId, Vec<u64>> = (0..NODES)
        .flat_map(|n| shape.pages_of(n))
        .map(|pid| (pid, vec![0; SLOTS]))
        .collect();
    for plan in plans {
        for op in &plan.ops {
            if let PlanOp::Write { pid, slot, value } = *op {
                state.get_mut(&pid).expect("plans write owned pages")[slot] = value;
            }
        }
    }
    state
}
