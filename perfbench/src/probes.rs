//! Probes: short, fixed-size timings of one layer's public functions,
//! each run on a single thread outside the engine. They price a layer's
//! work in isolation, which the engine's own profiler cannot split out
//! of its `cpu` remainder.

use crate::stats::{median, percentile};
use crate::workload::{Shape, PAGE_SIZE, SLOTS};
use cblog_common::{Lsn, NodeId, PageId, Psn, TxnId};
use cblog_core::{Node, NodeConfig, PlanOp, TxnPlan};
use cblog_locks::{LockMode, ShardedLockTable};
use cblog_net::transport::{ChannelMesh, Transport};
use cblog_net::MsgKind;
use cblog_storage::{Page, PageKind};
use cblog_wal::{FileLogStore, LogManager, LogPayload, LogRecord, PageOp};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Raw `fdatasync` latency of a file in `dir`: `(p50, p99)` µs over
/// 1000 one-record appends.
pub fn fdatasync_us(dir: &Path) -> std::io::Result<(f64, f64)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fdatasync.probe");
    let mut f = std::fs::File::create(&path)?;
    let record = [0x5au8; 64];
    let mut us = Vec::with_capacity(1000);
    for _ in 0..1000 {
        f.write_all(&record)?;
        let t = Instant::now();
        f.sync_data()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok((percentile(&mut us, 0.50), percentile(&mut us, 0.99)))
}

/// The log records the engine writes for `plans`: Begin, one
/// byte-range Update per write, Commit.
pub fn records_of(plans: &[TxnPlan]) -> Vec<LogRecord> {
    let mut out = Vec::new();
    for (seq, plan) in plans.iter().enumerate() {
        let txn = TxnId::new(plan.client, seq as u64 + 1);
        out.push(LogRecord {
            txn,
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::Begin,
        });
        for (i, op) in plan.ops.iter().enumerate() {
            if let PlanOp::Write { pid, slot, value } = *op {
                out.push(LogRecord {
                    txn,
                    prev_lsn: Lsn(i as u64),
                    payload: LogPayload::Update {
                        pid,
                        psn_before: Psn(seq as u64),
                        op: write_op(slot, 0, value),
                    },
                });
            }
        }
        out.push(LogRecord {
            txn,
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::Commit,
        });
    }
    out
}

/// The byte-range update the engine logs for a slot write.
fn write_op(slot: usize, before: u64, after: u64) -> PageOp {
    PageOp::WriteRange {
        off: (slot * 8) as u32,
        before: before.to_le_bytes().to_vec(),
        after: after.to_le_bytes().to_vec(),
    }
}

fn open_log(dir: &Path, name: &str) -> cblog_common::Result<LogManager> {
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    LogManager::new(NodeId(0), Box::new(FileLogStore::open(&path)?))
}

/// `LogManager::append` into a `FileLogStore`: median ns per record
/// over 32 batches of the workload's records (each batch forced
/// outside the timing, so the tail never grows past one batch).
pub fn wal_append_ns(dir: &Path, records: &[LogRecord]) -> cblog_common::Result<f64> {
    let mut log = open_log(dir, "append.probe")?;
    let mut per_record = Vec::with_capacity(32);
    for _ in 0..32 {
        let t = Instant::now();
        for r in records {
            black_box(log.append(black_box(r))?);
        }
        per_record.push(t.elapsed().as_nanos() as f64 / records.len() as f64);
        log.force_all()?;
    }
    drop(log);
    std::fs::remove_file(dir.join("append.probe"))?;
    Ok(median(&mut per_record))
}

/// `LogManager::force` of one group's bytes (one record batch of
/// `group` transactions): `(p50, p99)` µs over 1000 forces.
pub fn wal_force_us(dir: &Path, group: &[LogRecord]) -> cblog_common::Result<(f64, f64)> {
    let mut log = open_log(dir, "force.probe")?;
    let mut us = Vec::with_capacity(1000);
    for _ in 0..1000 {
        for r in group {
            log.append(r)?;
        }
        let t = Instant::now();
        log.force_all()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(log);
    std::fs::remove_file(dir.join("force.probe"))?;
    Ok((percentile(&mut us, 0.50), percentile(&mut us, 0.99)))
}

/// One transaction through `Node` on one thread: begin, the
/// workload's writes, `commit_begin`, `force_log`, `finish_commit`.
/// Median µs over 1000 transactions.
pub fn core_txn_us(dir: &Path, shape: &Shape, plans: &[TxnPlan]) -> cblog_common::Result<f64> {
    let path = dir.join("node.probe");
    let _ = std::fs::remove_file(&path);
    let owned = shape.owned_pages();
    let mut node = Node::with_log_store(
        NodeId(0),
        NodeConfig {
            page_size: PAGE_SIZE,
            buffer_frames: owned as usize + 16,
            owned_pages: owned,
            log_capacity: None,
        },
        Box::new(FileLogStore::open(&path)?),
    )?;
    for pid in shape.pages_of(0) {
        let (page, _) = node.authoritative_copy(pid)?;
        node.cache_page(page, false)?;
    }
    let mut us = Vec::with_capacity(1000);
    for plan in plans.iter().filter(|p| p.client == NodeId(0)).take(1000) {
        let t = Instant::now();
        let txn = node.begin()?;
        for op in &plan.ops {
            if let PlanOp::Write { pid, slot, value } = *op {
                let before = node.peek_slot(pid, slot).unwrap_or(0);
                node.log_update(txn, pid, write_op(slot, before, value))?;
            }
        }
        node.commit_begin(txn)?;
        node.force_log()?;
        node.finish_commit(txn)?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(node);
    std::fs::remove_file(&path)?;
    Ok(median(&mut us))
}

/// `ShardedLockTable::try_acquire` of one transaction's pages (X on its
/// writes, S on its reads) plus `release_all`: median ns per
/// transaction over 20 batches of 10k transactions.
pub fn lock_acquire_release_ns(plans: &[TxnPlan]) -> f64 {
    let table = ShardedLockTable::new(16);
    let sets: Vec<Vec<(PageId, LockMode)>> = plans
        .iter()
        .take(10_000)
        .map(|p| {
            p.ops
                .iter()
                .map(|op| match *op {
                    PlanOp::Read { pid, .. } => (pid, LockMode::Shared),
                    PlanOp::Write { pid, .. } => (pid, LockMode::Exclusive),
                })
                .collect()
        })
        .collect();
    let mut per_txn = Vec::with_capacity(20);
    for _ in 0..20 {
        let t = Instant::now();
        for (token, set) in sets.iter().enumerate() {
            for &(pid, mode) in set {
                black_box(table.try_acquire(pid, token as u64, mode));
            }
            table.release_all(token as u64);
        }
        per_txn.push(t.elapsed().as_nanos() as f64 / sets.len() as f64);
    }
    median(&mut per_txn)
}

/// `ChannelMesh` request → page-sized reply between two threads:
/// median µs over 20k round trips.
pub fn net_roundtrip_us() -> f64 {
    let mut eps = ChannelMesh::endpoints(2);
    let server = eps.pop().expect("two endpoints");
    let client = eps.pop().expect("two endpoints");
    let mut us = Vec::with_capacity(20_000);
    std::thread::scope(|s| {
        s.spawn(move || {
            // An empty request ends the echo loop.
            while let Some(env) = server.recv_timeout(Duration::from_secs(5)) {
                if env.payload.is_empty() {
                    break;
                }
                let _ = server.send(env.from, MsgKind::PageShip, vec![0u8; PAGE_SIZE]);
            }
        });
        let to = NodeId(1);
        for i in 0..20_000u64 {
            let t = Instant::now();
            if client
                .send(to, MsgKind::LockRequest, i.to_le_bytes().to_vec())
                .is_err()
            {
                break;
            }
            if client.recv_timeout(Duration::from_secs(5)).is_none() {
                break;
            }
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let _ = client.send(to, MsgKind::LockRequest, Vec::new());
    });
    median(&mut us)
}

/// `Page::to_bytes` + `Page::from_bytes` of one full page: median ns
/// over 20 batches of 2000 ships.
pub fn page_ship_ns() -> cblog_common::Result<f64> {
    let mut page = Page::new(PageId::new(NodeId(0), 0), PageKind::Raw, Psn(7), PAGE_SIZE);
    for slot in 0..SLOTS {
        page.write_slot(slot, slot as u64 * 0x0101_0101)?;
    }
    let mut per_ship = Vec::with_capacity(20);
    for _ in 0..20 {
        let t = Instant::now();
        for _ in 0..2_000 {
            let shipped = Page::from_bytes(black_box(&page).to_bytes())?;
            black_box(shipped);
        }
        per_ship.push(t.elapsed().as_nanos() as f64 / 2_000.0);
    }
    Ok(median(&mut per_ship))
}
