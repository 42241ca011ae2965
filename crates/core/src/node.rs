//! A processing node: buffer pool, local WAL, DPT, lock tables,
//! transaction manager, checkpointing, and the node-local halves of the
//! recovery protocol (restart analysis, NodePSNList construction,
//! PSN-filtered replay). Restart analysis decodes the log once and
//! keeps its Update/CLR records as a redo index that the later
//! recovery passes read instead of re-scanning the log.
//!
//! Everything here is node-local: no method sends messages. The
//! [`crate::Cluster`] composes these pieces into the distributed
//! protocols and accounts every message.

use crate::config::NodeConfig;
use crate::txn::{Savepoint, TxnState, TxnStatus};
use cblog_common::metrics::keys;
use cblog_common::{Counter, Error, Fnv1a, Lsn, NodeId, PageId, Psn, Registry, Result, TxnId};
use cblog_locks::{CachedLockTable, GlobalLockTable, LocalLockTable};
use cblog_storage::{BufferPool, Database, EvictedPage, MemStorage, Page, PageKind};
use cblog_wal::{
    CheckpointBody, DirtyPageTable, DptEntry, LogManager, LogPayload, LogRecord, LogStore,
    MemLogStore, PageOp,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Reserved transaction id used for non-transactional records
/// (checkpoints) in a node's log.
fn system_txn(node: NodeId) -> TxnId {
    TxnId::new(node, 0)
}

/// One entry of a NodePSNList (paper §2.3.4): the PSN a page had just
/// before the first update of a transaction burst, plus where in the
/// local log replay should start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePsnEntry {
    /// The page.
    pub pid: PageId,
    /// PSN just before the burst's first update.
    pub psn: Psn,
    /// Log location of that record (replay resume point).
    pub lsn: Lsn,
    /// Transaction that wrote the burst. Replay planning uses this to
    /// order pages touched by one multi-page transaction (DESIGN §13);
    /// the replay protocol itself never reads it.
    pub txn: TxnId,
}

/// Summary of restart analysis (ARIES analysis pass over the local
/// log, paper §2.3.1 / §2.4).
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// Loser transactions (active or mid-rollback at crash time).
    pub losers: Vec<TxnId>,
    /// Where the scan started.
    pub start_lsn: Lsn,
    /// Number of DPT entries reconstructed.
    pub dpt_entries: usize,
    /// Number of records scanned.
    pub records_scanned: u64,
    /// Bytes of log scanned.
    pub bytes_scanned: u64,
}

/// One redo-bearing (Update or CLR) record of the local log, decoded
/// once into the node's redo index.
#[derive(Clone, Debug, PartialEq)]
struct RedoRecord {
    lsn: Lsn,
    txn: TxnId,
    pid: PageId,
    psn_before: Psn,
    op: PageOp,
}

impl RedoRecord {
    /// The redo part of `rec` (read at `lsn`), if it is an Update/CLR.
    fn of(lsn: Lsn, rec: LogRecord) -> Option<Self> {
        match rec.payload {
            LogPayload::Update {
                pid,
                psn_before,
                op,
            }
            | LogPayload::Clr {
                pid,
                psn_before,
                op,
                ..
            } => Some(RedoRecord {
                lsn,
                txn: rec.txn,
                pid,
                psn_before,
                op,
            }),
            _ => None,
        }
    }
}

/// The Update/CLR records of the local log range `[from, end)` in LSN
/// order. Restart analysis builds it while it decodes the log; the
/// NodePSNList, replay and replay-extraction passes read slices of it.
/// It is volatile: a crash drops it, and so does a checkpoint, which
/// bounds it by the log a recovery can need.
struct RedoIndex {
    from: Lsn,
    end: Lsn,
    records: Vec<RedoRecord>,
}

/// Outcome of one rollback step (driven by the cluster because undoing
/// may require re-fetching a page from its owner, §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollbackStep {
    /// The page must be brought into the cache before undo proceeds.
    NeedPage(PageId),
    /// One update was undone (a CLR was written).
    Undone(PageId),
    /// Rollback (to the requested point) is complete.
    Done,
}

/// A processing node.
pub struct Node {
    id: NodeId,
    cfg: NodeConfig,
    pub(crate) db: Option<Database>,
    pub(crate) log: LogManager,
    pub(crate) buffer: BufferPool,
    pub(crate) dpt: DirtyPageTable,
    pub(crate) local_locks: LocalLockTable,
    pub(crate) cached_locks: CachedLockTable,
    pub(crate) global_locks: GlobalLockTable,
    pub(crate) txns: HashMap<TxnId, TxnState>,
    /// Owner-side: nodes that shipped dirty copies of each owned page
    /// and await a flush acknowledgment (§2.2 / §2.5).
    pub(crate) replacers: BTreeMap<PageId, BTreeSet<NodeId>>,
    /// Per-node metrics registry. Observability state is *not* part of
    /// the simulated node: it survives [`Node::crash`] so experiments
    /// can measure across failures.
    pub(crate) registry: Registry,
    /// Decoded redo records, from restart analysis (or the first
    /// recovery pass that needs them) until the next checkpoint.
    redo: Option<RedoIndex>,
    next_seq: u64,
    crashed: bool,
    commits: Counter,
    aborts: Counter,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Node({} owner={} crashed={} txns={} dpt={})",
            self.id,
            self.db.is_some(),
            self.crashed,
            self.txns.len(),
            self.dpt.len()
        )
    }
}

impl Node {
    /// Builds a node with in-memory database and log. Owner nodes
    /// (owned_pages > 0) get all their pages pre-allocated as raw
    /// counter pages.
    pub fn new(id: NodeId, cfg: NodeConfig) -> Result<Self> {
        Node::with_log_store(id, cfg, Box::new(MemLogStore::new()))
    }

    /// Builds a node whose WAL lives on the caller-provided store.
    /// The threaded runtime passes a `FileLogStore` here so log forces
    /// are real `fsync`s; the simulator keeps the in-memory default.
    pub fn with_log_store(id: NodeId, cfg: NodeConfig, store: Box<dyn LogStore>) -> Result<Self> {
        let db = if cfg.owned_pages > 0 {
            let storage = Box::new(MemStorage::new(cfg.page_size));
            let mut db = Database::create(storage, id, cfg.owned_pages)?;
            for _ in 0..cfg.owned_pages {
                db.allocate_page(PageKind::Raw)?;
            }
            Some(db)
        } else {
            None
        };
        let log = match cfg.log_capacity {
            Some(cap) => LogManager::with_capacity(id, store, cap)?,
            None => LogManager::new(id, store)?,
        };
        let buffer = BufferPool::new(cfg.buffer_frames);
        // The registry observes the very cells the subsystems bump:
        // existing counters are registered as shared handles, so the
        // WAL / buffer / storage code needs no metric plumbing of its
        // own.
        let registry = Registry::new();
        registry.register_counter(keys::WAL_RECORDS, log.records_counter());
        registry.register_counter(keys::WAL_FORCES, log.forces_counter());
        registry.register_counter(keys::WAL_BYTES, log.bytes_appended_counter());
        registry.register_counter(keys::WAL_STORE_SYNCS, log.store_syncs_counter());
        registry.register_counter(keys::WAL_REPAIR_SCAN_BYTES, log.repair_scanned_counter());
        if let Some(h) = log.fsync_histogram() {
            registry.register_histogram(keys::WAL_FSYNC_US, h);
        }
        registry.register_counter(keys::BUF_HITS, buffer.hits());
        registry.register_counter(keys::BUF_MISSES, buffer.misses());
        registry.register_counter(keys::BUF_EVICTIONS, buffer.evictions());
        if let Some(db) = &db {
            registry.register_counter(keys::DB_READS, db.reads_counter());
            registry.register_counter(keys::DB_WRITES, db.writes_counter());
            registry.register_counter(keys::DB_SYNCS, db.syncs_counter());
        }
        let commits = registry.counter(keys::TXN_COMMITS);
        let aborts = registry.counter(keys::TXN_ABORTS);
        Ok(Node {
            id,
            buffer,
            db,
            log,
            dpt: DirtyPageTable::new(),
            local_locks: LocalLockTable::new(),
            cached_locks: CachedLockTable::new(),
            global_locks: GlobalLockTable::new(),
            txns: HashMap::new(),
            replacers: BTreeMap::new(),
            registry,
            redo: None,
            next_seq: 1,
            crashed: false,
            commits,
            aborts,
            cfg,
        })
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// True between [`Node::crash`] and the start of recovery.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// True if the node owns a database.
    pub fn is_owner(&self) -> bool {
        self.db.is_some()
    }

    /// Node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// The local log.
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// Forces the entire local log (test harnesses use this to make
    /// uncommitted records durable before injecting a crash).
    pub fn force_log(&mut self) -> Result<()> {
        self.log.force_all()
    }

    /// The dirty page table.
    pub fn dpt(&self) -> &DirtyPageTable {
        &self.dpt
    }

    /// The buffer pool.
    pub fn buffer(&self) -> &BufferPool {
        &self.buffer
    }

    /// The node-level cached locks.
    pub fn cached_locks(&self) -> &CachedLockTable {
        &self.cached_locks
    }

    /// The owner-side global lock table.
    pub fn global_locks(&self) -> &GlobalLockTable {
        &self.global_locks
    }

    /// Committed-transaction count.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// Aborted-transaction count.
    pub fn aborts(&self) -> u64 {
        self.aborts.get()
    }

    /// The node's metrics registry (`subsystem/metric` names; see
    /// `cblog_common::obs`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// State of a transaction, if known.
    pub fn txn(&self, id: TxnId) -> Option<&TxnState> {
        self.txns.get(&id)
    }

    /// Ids of transactions currently active on this node.
    pub fn active_txns(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .txns
            .values()
            .filter(|t| !t.is_terminated())
            .map(|t| t.id)
            .collect();
        v.sort();
        v
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle (node-local)
    // ------------------------------------------------------------------

    /// Starts a transaction, logging its Begin record.
    pub fn begin(&mut self) -> Result<TxnId> {
        self.ensure_up()?;
        let id = TxnId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let lsn = self.log.append(&LogRecord {
            txn: id,
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::Begin,
        })?;
        self.txns.insert(id, TxnState::new(id, lsn));
        Ok(id)
    }

    fn ensure_up(&self) -> Result<()> {
        if self.crashed {
            Err(Error::NodeDown(self.id))
        } else {
            Ok(())
        }
    }

    fn active_txn(&mut self, id: TxnId) -> Result<&mut TxnState> {
        let t = self.txns.get_mut(&id).ok_or(Error::NoSuchTxn(id))?;
        match t.status {
            TxnStatus::Active => Ok(t),
            TxnStatus::Aborting | TxnStatus::Aborted => Err(Error::TxnAborted(id)),
            TxnStatus::Committing | TxnStatus::Committed => Err(Error::NoSuchTxn(id)),
        }
    }

    /// Applies and logs one update to a cached page. Preconditions
    /// (checked): transaction active, page present in the buffer. Lock
    /// discipline is the cluster's job.
    pub fn log_update(&mut self, txn: TxnId, pid: PageId, op: PageOp) -> Result<()> {
        self.ensure_up()?;
        self.active_txn(txn)?;
        let page = self.buffer.get_mut(pid).ok_or(Error::NoSuchPage(pid))?;
        // Apply first (ops are all-or-nothing), then log; un-apply if
        // the log is full so state stays consistent.
        op.apply_redo(page)?;
        let psn_before = page.psn();
        let prev = self.txns[&txn].last_lsn;
        let rec = LogRecord {
            txn,
            prev_lsn: prev,
            payload: LogPayload::Update {
                pid,
                psn_before,
                op: op.clone(),
            },
        };
        let lsn = match self.log.append(&rec) {
            Ok(l) => l,
            Err(e) => {
                let page = self.buffer.get_mut(pid).expect("still cached");
                op.apply_undo(page)?;
                return Err(e);
            }
        };
        let page = self.buffer.get_mut(pid).expect("still cached");
        page.bump_psn();
        let psn_after = page.psn();
        self.buffer.mark_dirty(pid);
        self.dpt.on_update(pid, psn_after, lsn);
        let t = self.txns.get_mut(&txn).expect("checked");
        t.last_lsn = lsn;
        t.undo_next = lsn;
        t.updates += 1;
        Ok(())
    }

    /// First half of commit: appends the Commit record and parks the
    /// transaction as force-pending ([`TxnStatus::Committing`]) at the
    /// returned LSN. Transaction-level locks release here (strict 2PL
    /// held through the append; early release is safe because any
    /// same-node dependent commits through the same log — its force
    /// covers this record — and any cross-node visibility requires a
    /// page transfer, which forces the whole log first under the WAL
    /// rule). The caller owns the force: either immediately
    /// ([`Node::commit`]) or batched by the cluster's force scheduler.
    pub fn commit_begin(&mut self, txn: TxnId) -> Result<Lsn> {
        self.ensure_up()?;
        let prev = self.active_txn(txn)?.last_lsn;
        let lsn = self.log.append(&LogRecord {
            txn,
            prev_lsn: prev,
            payload: LogPayload::Commit,
        })?;
        let t = self.txns.get_mut(&txn).expect("checked");
        t.status = TxnStatus::Committing;
        t.last_lsn = lsn;
        self.local_locks.release_all(txn);
        Ok(lsn)
    }

    /// Second half of commit: acknowledges a force-pending transaction
    /// whose Commit record has become durable.
    pub fn finish_commit(&mut self, txn: TxnId) -> Result<()> {
        let t = self.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
        if t.status != TxnStatus::Committing {
            return Err(Error::Protocol(format!(
                "finish_commit on {txn} in state {:?}",
                t.status
            )));
        }
        debug_assert!(
            t.last_lsn < self.log.flushed_lsn(),
            "commit record must be durable before acknowledgement"
        );
        t.status = TxnStatus::Committed;
        self.commits.bump();
        Ok(())
    }

    /// Commits: one Commit record, one local log force, zero messages
    /// (the paper's headline property). Strict 2PL: transaction-level
    /// locks release; node-level cached locks are retained.
    pub fn commit(&mut self, txn: TxnId) -> Result<()> {
        let lsn = self.commit_begin(txn)?;
        self.log.force(lsn)?;
        self.finish_commit(txn)
    }

    /// Takes a savepoint for partial rollback.
    pub fn savepoint(&mut self, txn: TxnId) -> Result<Savepoint> {
        self.ensure_up()?;
        let t = self.active_txn(txn)?;
        Ok(Savepoint {
            txn,
            at_lsn: t.last_lsn,
        })
    }

    /// Marks a transaction as rolling back (total abort entry point).
    pub fn start_abort(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_up()?;
        let t = self.txns.get_mut(&txn).ok_or(Error::NoSuchTxn(txn))?;
        match t.status {
            TxnStatus::Active | TxnStatus::Aborting => {
                t.status = TxnStatus::Aborting;
                Ok(())
            }
            _ => Err(Error::TxnAborted(txn)),
        }
    }

    /// Performs one step of rollback toward `upto` (Lsn::ZERO = total).
    /// The cluster drives the loop because undo may need a page fetched
    /// back from its owner.
    pub fn rollback_step(&mut self, txn: TxnId, upto: Lsn) -> Result<RollbackStep> {
        self.ensure_up()?;
        let (mut cursor, _last) = {
            let t = self.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
            (t.undo_next, t.last_lsn)
        };
        loop {
            if cursor.is_zero() || cursor <= upto {
                return Ok(RollbackStep::Done);
            }
            let (rec, _) = self.log.read_record(cursor)?;
            debug_assert_eq!(rec.txn, txn, "undo chain stays within the transaction");
            match rec.payload {
                LogPayload::Begin => return Ok(RollbackStep::Done),
                LogPayload::Clr { undo_next, .. } => {
                    cursor = undo_next;
                    let t = self.txns.get_mut(&txn).expect("checked");
                    t.undo_next = undo_next;
                }
                LogPayload::Update { pid, op, .. } => {
                    if !self.buffer.contains(pid) {
                        return Ok(RollbackStep::NeedPage(pid));
                    }
                    let comp = op.inverse();
                    let page = self.buffer.get_mut(pid).expect("checked");
                    comp.apply_redo(page)?;
                    let psn_before = page.psn();
                    let prev = self.txns[&txn].last_lsn;
                    let clr = LogRecord {
                        txn,
                        prev_lsn: prev,
                        payload: LogPayload::Clr {
                            pid,
                            psn_before,
                            op: comp,
                            undo_next: rec.prev_lsn,
                        },
                    };
                    let lsn = self.log.append(&clr)?;
                    let page = self.buffer.get_mut(pid).expect("checked");
                    page.bump_psn();
                    let psn_after = page.psn();
                    self.buffer.mark_dirty(pid);
                    self.dpt.on_update(pid, psn_after, lsn);
                    let t = self.txns.get_mut(&txn).expect("checked");
                    t.last_lsn = lsn;
                    t.undo_next = rec.prev_lsn;
                    return Ok(RollbackStep::Undone(pid));
                }
                ref p => {
                    return Err(Error::Protocol(format!(
                        "unexpected {p:?} on undo chain of {txn}"
                    )))
                }
            }
        }
    }

    /// Finishes a total rollback: Abort record, local lock release.
    pub fn finish_abort(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_up()?;
        let prev = {
            let t = self.txns.get(&txn).ok_or(Error::NoSuchTxn(txn))?;
            t.last_lsn
        };
        let lsn = self.log.append(&LogRecord {
            txn,
            prev_lsn: prev,
            payload: LogPayload::Abort,
        })?;
        let t = self.txns.get_mut(&txn).expect("checked");
        t.status = TxnStatus::Aborted;
        t.last_lsn = lsn;
        self.local_locks.release_all(txn);
        self.aborts.bump();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpointing (fuzzy, independent — paper §2.2, contribution (4))
    // ------------------------------------------------------------------

    /// Takes a fuzzy checkpoint: begin record, DPT + active-transaction
    /// snapshot, end record, force, master-record update. No pages are
    /// forced and no other node is contacted.
    pub fn checkpoint(&mut self) -> Result<Lsn> {
        self.ensure_up()?;
        let sys = system_txn(self.id);
        let begin = self.log.append(&LogRecord {
            txn: sys,
            prev_lsn: Lsn::ZERO,
            payload: LogPayload::CheckpointBegin,
        })?;
        let body = CheckpointBody {
            dpt: self.dpt.entries(),
            // Force-pending (Committing) transactions are excluded: the
            // checkpoint's own force makes their Commit records durable,
            // so restart must not treat them as losers (their Commit
            // record precedes the checkpoint and would confuse the undo
            // chain).
            active_txns: self
                .txns
                .values()
                .filter(|t| !t.is_terminated() && t.status != TxnStatus::Committing)
                .map(|t| (t.id, t.last_lsn))
                .collect(),
        };
        let end = self.log.append(&LogRecord {
            txn: sys,
            prev_lsn: begin,
            payload: LogPayload::CheckpointEnd(body),
        })?;
        self.log.force(end)?;
        self.log.write_master(begin)?;
        self.redo = None;
        Ok(begin)
    }

    /// The lowest LSN the local log must retain: min of DPT RedoLSNs,
    /// first LSNs of active transactions, and the last checkpoint.
    pub fn log_low_water(&self) -> Lsn {
        let mut low = self.log.end_lsn();
        if let Some(l) = self.dpt.min_redo_lsn() {
            low = low.min(l);
        }
        for t in self.txns.values() {
            if !t.is_terminated() {
                low = low.min(t.first_lsn);
            }
        }
        let ckpt = self.log.last_checkpoint();
        if !ckpt.is_zero() {
            low = low.min(ckpt);
        }
        low
    }

    /// Advances the log truncation point to the current low-water mark
    /// and returns it.
    pub fn truncate_log(&mut self) -> Lsn {
        let low = self.log_low_water();
        self.log.truncate(low);
        low
    }

    // ------------------------------------------------------------------
    // Buffer / page plumbing used by the cluster
    // ------------------------------------------------------------------

    /// Inserts a page into the cache; any eviction victim is returned
    /// for the cluster to route (write locally / ship to owner).
    pub fn cache_page(&mut self, page: Page, dirty: bool) -> Result<Option<EvictedPage>> {
        self.buffer.insert(page, dirty)
    }

    /// Current image of an owned page: buffer copy if cached, else the
    /// disk version. Returns `(page, did_disk_read)`.
    pub fn authoritative_copy(&mut self, pid: PageId) -> Result<(Page, bool)> {
        if pid.owner != self.id {
            return Err(Error::Protocol(format!(
                "{} asked for authoritative copy of {pid}",
                self.id
            )));
        }
        if let Some(p) = self.buffer.peek(pid) {
            return Ok((p.clone(), false));
        }
        let db = self.db.as_mut().ok_or(Error::NoSuchPage(pid))?;
        Ok((db.read_page(pid.index)?, true))
    }

    /// Serialized current image of an owned page (buffer copy if
    /// cached, else disk). Runtimes use this to cross-check final
    /// database state byte-for-byte against the sim oracle.
    pub fn page_image(&mut self, pid: PageId) -> Result<Vec<u8>> {
        Ok(self.authoritative_copy(pid)?.0.to_bytes())
    }

    /// Owner-side ingestion of a dirty page replaced from `from`'s
    /// cache (§2.1). Caller routes any eviction victim.
    pub fn receive_replaced(&mut self, from: NodeId, page: Page) -> Result<Option<EvictedPage>> {
        self.ensure_up()?;
        let pid = page.id();
        if pid.owner != self.id {
            return Err(Error::Protocol(format!(
                "{} received replaced page {pid} it does not own",
                self.id
            )));
        }
        self.replacers.entry(pid).or_default().insert(from);
        self.buffer.insert(page, true)
    }

    /// Writes an owned page image to disk, honouring the WAL rule for
    /// the node's own updates. Returns the nodes to flush-acknowledge.
    pub fn write_owned_page(&mut self, page: &Page) -> Result<Vec<NodeId>> {
        let pid = page.id();
        if self.dpt.contains(pid) {
            // Own log records may cover this image: force them first.
            self.log.force_all()?;
        }
        let db = self.db.as_mut().ok_or(Error::NoSuchPage(pid))?;
        db.write_page(page)?;
        db.sync()?;
        // Own DPT entry is satisfied by the write.
        self.dpt.remove(pid);
        self.buffer.mark_clean(pid);
        let acks = self
            .replacers
            .remove(&pid)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        Ok(acks)
    }

    /// PSN of the on-disk version of an owned page.
    pub fn disk_psn(&mut self, pid: PageId) -> Result<Psn> {
        let db = self.db.as_mut().ok_or(Error::NoSuchPage(pid))?;
        db.disk_psn(pid.index)
    }

    /// Prepares a dirty *remote* page for shipping to its owner: WAL
    /// rule (force local log), DPT replace bookkeeping. Returns the end
    /// of log remembered for §2.5.
    pub fn prepare_replace_to_owner(&mut self, pid: PageId) -> Result<Lsn> {
        self.log.force_all()?;
        let end = self.log.end_lsn();
        self.dpt.on_replace(pid, end);
        Ok(end)
    }

    /// Setup-time helper: rewrites an owned page's kind (e.g. format a
    /// slotted page before the workload starts). Not part of the
    /// transactional API.
    pub fn format_owned_page(&mut self, index: u32, kind: PageKind) -> Result<()> {
        let db = self
            .db
            .as_mut()
            .ok_or(Error::Invalid("not an owner".into()))?;
        let mut page = db.read_page(index)?;
        page.set_kind(kind);
        for b in page.body_mut() {
            *b = 0;
        }
        db.write_page(&page)?;
        if let Some(buf) = self.buffer.get_mut(page.id()) {
            *buf = page;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash and restart analysis
    // ------------------------------------------------------------------

    /// Crashes the node: volatile state (cache, lock tables, DPT,
    /// transaction table, owner-side replacer sets, unforced log tail)
    /// is lost; the database and the durable log survive. The metrics
    /// registry also survives — it models the experimenter's
    /// instruments, not the node's memory.
    pub fn crash(&mut self) {
        self.log.simulate_crash();
        self.clear_volatile();
    }

    /// Crashes the node mid-force: the first `landed` bytes of the
    /// unforced log tail reach the disk (a torn write); if `corrupt`,
    /// the last landed byte is additionally flipped, modeling a sector
    /// scribble. Restart's tail repair discards the torn suffix.
    pub fn crash_torn(&mut self, landed: u64, corrupt: bool) {
        self.log.simulate_crash_torn(landed, corrupt);
        self.clear_volatile();
    }

    fn clear_volatile(&mut self) {
        self.buffer.clear();
        self.dpt.clear();
        self.local_locks.clear();
        self.cached_locks.clear();
        self.global_locks.clear();
        self.txns.clear();
        self.replacers.clear();
        self.redo = None;
        self.crashed = true;
    }

    /// Clears the crashed flag (restart begins) and repairs the log
    /// tail: a torn/corrupted suffix left by a crash mid-force is
    /// checksum-detected and truncated away so it is never replayed.
    /// Returns the number of torn bytes discarded (0 for a clean log).
    pub fn mark_restarting(&mut self) -> Result<u64> {
        self.crashed = false;
        self.repair_tail()
    }

    /// The tail repair of [`Node::mark_restarting`] alone: the crashed
    /// flag stays set, so recovery still accepts the node afterwards.
    /// Idempotent — the model checker repairs early to fingerprint the
    /// post-repair durable state before committing to a recovery run.
    pub fn repair_tail(&mut self) -> Result<u64> {
        let torn = self.log.repair_tail()?;
        if torn > 0 {
            self.registry.counter(keys::WAL_TORN_BYTES).add(torn);
        }
        Ok(torn)
    }

    /// ARIES analysis over the local log from the last complete
    /// checkpoint: rebuilds the DPT (a conservative superset) and the
    /// loser transaction table. The Update/CLR records it decodes are
    /// kept as the node's redo index, so the passes after it decode
    /// nothing the analysis already read.
    pub fn restart_analysis(&mut self) -> Result<AnalysisResult> {
        let ckpt = self.log.last_checkpoint();
        let start = if ckpt.is_zero() {
            self.log.base_lsn()
        } else {
            ckpt
        };
        let mut att: HashMap<TxnId, TxnState> = HashMap::new();
        let mut dpt = DirtyPageTable::new();
        let mut records = 0u64;
        let mut max_seq = 0u64;
        let mut redo: Vec<RedoRecord> = Vec::new();
        let scan_start = start;
        let mut pos = start;
        let end = self.log.end_lsn();
        while pos < end {
            let (rec, next) = self.log.read_record(pos)?;
            records += 1;
            if rec.txn.node == self.id {
                max_seq = max_seq.max(rec.txn.seq);
            }
            match &rec.payload {
                LogPayload::Begin => {
                    att.insert(rec.txn, TxnState::new(rec.txn, pos));
                }
                LogPayload::Update {
                    pid, psn_before, ..
                } => {
                    let t = att
                        .entry(rec.txn)
                        .or_insert_with(|| TxnState::new(rec.txn, pos));
                    t.last_lsn = pos;
                    t.undo_next = pos;
                    t.updates += 1;
                    match dpt.get(*pid) {
                        Some(_) => dpt.on_update(*pid, psn_before.next(), pos),
                        None => {
                            dpt.insert(DptEntry {
                                pid: *pid,
                                psn_first: *psn_before,
                                curr_psn: psn_before.next(),
                                redo_lsn: pos,
                                replaced_at_lsn: None,
                                updated_since_replace: true,
                            });
                        }
                    }
                }
                LogPayload::Clr {
                    pid,
                    psn_before,
                    undo_next,
                    ..
                } => {
                    let t = att
                        .entry(rec.txn)
                        .or_insert_with(|| TxnState::new(rec.txn, pos));
                    t.last_lsn = pos;
                    t.undo_next = *undo_next;
                    t.status = TxnStatus::Aborting;
                    match dpt.get(*pid) {
                        Some(_) => dpt.on_update(*pid, psn_before.next(), pos),
                        None => {
                            dpt.insert(DptEntry {
                                pid: *pid,
                                psn_first: *psn_before,
                                curr_psn: psn_before.next(),
                                redo_lsn: pos,
                                replaced_at_lsn: None,
                                updated_since_replace: true,
                            });
                        }
                    }
                }
                LogPayload::Commit => {
                    att.remove(&rec.txn);
                }
                LogPayload::Abort => {
                    // Abort records are written only after the rollback
                    // completed, so the transaction needs no more undo.
                    att.remove(&rec.txn);
                }
                LogPayload::CheckpointBegin => {}
                LogPayload::CheckpointEnd(body) => {
                    for e in &body.dpt {
                        if !dpt.contains(e.pid) {
                            dpt.insert(*e);
                        }
                    }
                    for (t, last) in &body.active_txns {
                        att.entry(*t).or_insert_with(|| {
                            let mut s = TxnState::new(*t, *last);
                            s.last_lsn = *last;
                            s.undo_next = *last;
                            s
                        });
                        if t.node == self.id {
                            max_seq = max_seq.max(t.seq);
                        }
                    }
                }
                LogPayload::AllocPage { .. } | LogPayload::FreePage { .. } => {}
            }
            redo.extend(RedoRecord::of(pos, rec));
            pos = next;
        }
        self.redo = Some(RedoIndex {
            from: scan_start,
            end,
            records: redo,
        });
        let bytes_scanned = end.0 - scan_start.0;
        let mut losers: Vec<TxnId> = att.keys().copied().collect();
        losers.sort();
        for (id, mut t) in att {
            t.status = TxnStatus::Aborting;
            self.txns.insert(id, t);
        }
        self.dpt = dpt;
        self.next_seq = self.next_seq.max(max_seq + 1);
        Ok(AnalysisResult {
            losers,
            start_lsn: start,
            dpt_entries: self.dpt.len(),
            records_scanned: records,
            bytes_scanned,
        })
    }

    /// Folds this node's durable state into `h`: the on-device
    /// database pages (in index order), then the durable log bytes and
    /// master record. Volatile state — buffer pool, lock tables, DPT,
    /// transaction table — is excluded, so the digest is exactly what
    /// a crash at this instant preserves.
    pub fn durable_state_hash(&mut self, h: &mut Fnv1a) -> Result<()> {
        h.write_u64(self.id.0 as u64);
        if let Some(db) = &mut self.db {
            for i in 0..db.capacity() {
                match db.read_page(i) {
                    Ok(p) => h.write(&p.to_bytes()),
                    Err(_) => h.write_u64(u64::MAX),
                }
            }
        }
        self.log.durable_hash(h)
    }

    /// Pages owned by `owner` that this node's loser transactions
    /// updated, re-derived from the local log by walking each loser's
    /// undo chain (§2.4). Under strict 2PL every such page was held
    /// exclusively at crash time, so the list reconstructs the fences
    /// a *crashed* owner lost with its lock table — the operational
    /// counterpart is `drop_shared_retain_exclusive`. Call after
    /// [`Node::restart_analysis`] has rebuilt the loser table.
    pub fn loser_page_locks(&mut self, owner: NodeId) -> Result<Vec<PageId>> {
        let losers: Vec<Lsn> = self
            .txns
            .values()
            .filter(|t| t.status == TxnStatus::Aborting)
            .map(|t| t.undo_next)
            .collect();
        let mut pages: BTreeSet<PageId> = BTreeSet::new();
        for mut cursor in losers {
            while !cursor.is_zero() {
                let (rec, _) = self.log.read_record(cursor)?;
                match rec.payload {
                    LogPayload::Update { pid, .. } => {
                        if pid.owner == owner {
                            pages.insert(pid);
                        }
                        cursor = rec.prev_lsn;
                    }
                    LogPayload::Clr { pid, undo_next, .. } => {
                        if pid.owner == owner {
                            pages.insert(pid);
                        }
                        cursor = undo_next;
                    }
                    _ => break,
                }
            }
        }
        Ok(pages.into_iter().collect())
    }

    // ------------------------------------------------------------------
    // NodePSNList construction and PSN-filtered replay (paper §2.3.4)
    // ------------------------------------------------------------------

    /// Takes the redo index out of the node, made to cover `[from,
    /// end of log)` — the one place the recovery passes after analysis
    /// read the log. An index that already covers the range is
    /// returned as is; one that ends early (records appended since,
    /// e.g. a loser's CLRs) is extended by scanning only the new
    /// suffix; one that starts too late, or none at all (an
    /// operational node that never ran analysis), is rebuilt by a
    /// single scan from `from`.
    fn take_redo_index(&mut self, from: Lsn) -> Result<RedoIndex> {
        let end = self.log.end_lsn();
        let mut ix = match self.redo.take() {
            Some(ix) if ix.from <= from && ix.end <= end && self.log.base_lsn() <= from => ix,
            _ => RedoIndex {
                from,
                end: from,
                records: Vec::new(),
            },
        };
        let mut pos = ix.end;
        while pos < end {
            let (rec, next) = self.log.read_record(pos)?;
            ix.records.extend(RedoRecord::of(pos, rec));
            pos = next;
        }
        ix.end = end;
        Ok(ix)
    }

    /// The redo records of the local log from `from` through its end,
    /// in LSN order, read from the (kept) redo index.
    fn redo_records(&mut self, from: Lsn) -> Result<&[RedoRecord]> {
        let ix = self.take_redo_index(from)?;
        let ix = self.redo.insert(ix);
        let first = ix.records.partition_point(|r| r.lsn < from);
        Ok(&ix.records[first..])
    }

    /// Builds this node's NodePSNList for `pages`: scans the local log
    /// from the minimum RedoLSN of the DPT entries for those pages and
    /// records (page, PSN, log location) whenever an examined record
    /// updates one of the pages and belongs to a different transaction
    /// than the previous record recorded for that page.
    pub fn build_psn_list(&mut self, pages: &[PageId]) -> Result<Vec<NodePsnEntry>> {
        let wanted: HashSet<PageId> = pages.iter().copied().collect();
        let from = pages
            .iter()
            .filter_map(|p| self.dpt.get(*p).map(|e| e.redo_lsn))
            .min();
        let Some(from) = from else {
            return Ok(Vec::new());
        };
        let mut out: Vec<NodePsnEntry> = Vec::new();
        let mut last_txn: HashMap<PageId, TxnId> = HashMap::new();
        for r in self.redo_records(from)? {
            if wanted.contains(&r.pid) && last_txn.get(&r.pid) != Some(&r.txn) {
                out.push(NodePsnEntry {
                    pid: r.pid,
                    psn: r.psn_before,
                    lsn: r.lsn,
                    txn: r.txn,
                });
                last_txn.insert(r.pid, r.txn);
            }
        }
        Ok(out)
    }

    /// Replays this node's log records for `page` starting at
    /// `start_lsn`, applying each record whose stored PSN equals the
    /// page's current PSN, stopping when a record for the page carries
    /// a PSN greater than `bound` (if given). Returns `(resume_lsn,
    /// applied_count, hit_bound)`.
    pub fn replay_page(
        &mut self,
        page: &mut Page,
        start_lsn: Lsn,
        bound: Option<Psn>,
    ) -> Result<(Lsn, u64, bool)> {
        let pid = page.id();
        let end = self.log.end_lsn();
        let mut applied = 0u64;
        for r in self.redo_records(start_lsn)? {
            if r.pid != pid {
                continue;
            }
            if let Some(b) = bound {
                if r.psn_before > b {
                    return Ok((r.lsn, applied, true));
                }
            }
            if r.psn_before == page.psn() {
                r.op.apply_redo(page)?;
                page.set_psn(r.psn_before.next());
                applied += 1;
            }
        }
        Ok((end, applied, false))
    }

    /// Extracts this node's redo records for every target page as
    /// `(psn_before, op)` pairs in log order. `targets` maps each page
    /// to the LSN its redo starts at; records before a page's start
    /// are skipped. This is the serial "log dispatch" half of parallel
    /// replay: the threaded runtime extracts all replay units of a
    /// crashed node in one pass over the redo index, then workers
    /// apply the ops concurrently under the same PSN filter
    /// [`Node::replay_page`] uses — without needing `&mut self` (the
    /// log) at apply time. Extraction is the last pass that reads the
    /// index, so it moves the ops out instead of copying them and
    /// releases the index; a later pass would rebuild it.
    pub fn collect_replay_records_batch(
        &mut self,
        targets: &BTreeMap<PageId, Lsn>,
    ) -> Result<BTreeMap<PageId, Vec<(Psn, PageOp)>>> {
        let mut out: BTreeMap<PageId, Vec<(Psn, PageOp)>> =
            targets.keys().map(|&pid| (pid, Vec::new())).collect();
        let Some(&from) = targets.values().min() else {
            return Ok(out);
        };
        for r in self.take_redo_index(from)?.records {
            if let Some(&start) = targets.get(&r.pid) {
                if r.lsn >= start {
                    out.get_mut(&r.pid)
                        .expect("target vec exists")
                        .push((r.psn_before, r.op));
                }
            }
        }
        Ok(out)
    }

    /// Convenience for tests and the sim: read a u64 slot from the
    /// cached copy of a page (no locking).
    pub fn peek_slot(&self, pid: PageId, slot: usize) -> Option<u64> {
        self.buffer.peek(pid).and_then(|p| p.read_slot(slot).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(
            NodeId(0),
            NodeConfig {
                page_size: 512,
                buffer_frames: 8,
                owned_pages: 4,
                log_capacity: None,
            },
        )
        .unwrap()
    }

    fn load(n: &mut Node, idx: u32) -> PageId {
        let pid = PageId::new(n.id(), idx);
        let (page, _) = n.authoritative_copy(pid).unwrap();
        n.cache_page(page, false).unwrap();
        pid
    }

    fn upd(n: &mut Node, t: TxnId, pid: PageId, slot: usize, v: u64) {
        let before = n.buffer.peek(pid).unwrap().read_slot(slot).unwrap();
        n.log_update(
            t,
            pid,
            PageOp::WriteRange {
                off: (slot * 8) as u32,
                before: before.to_le_bytes().to_vec(),
                after: v.to_le_bytes().to_vec(),
            },
        )
        .unwrap();
    }

    #[test]
    fn update_bumps_psn_and_tracks_dpt() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        let psn0 = n.buffer.peek(pid).unwrap().psn();
        upd(&mut n, t, pid, 0, 7);
        let page = n.buffer.peek(pid).unwrap();
        assert_eq!(page.psn(), psn0.next());
        assert_eq!(page.read_slot(0).unwrap(), 7);
        let e = n.dpt().get(pid).unwrap();
        assert_eq!(e.curr_psn, psn0.next());
        assert_eq!(n.buffer.is_dirty(pid), Some(true));
    }

    #[test]
    fn commit_forces_log_once() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 1);
        upd(&mut n, t, pid, 1, 2);
        let forces0 = n.log().forces();
        n.commit(t).unwrap();
        assert_eq!(n.log().forces(), forces0 + 1);
        assert_eq!(n.txn(t).unwrap().status, TxnStatus::Committed);
        assert!(n.commits() == 1);
    }

    #[test]
    fn rollback_restores_values_and_writes_clrs() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 10);
        upd(&mut n, t, pid, 1, 20);
        let recs0 = n.log().records_appended();
        n.start_abort(t).unwrap();
        let mut undone = 0;
        loop {
            match n.rollback_step(t, Lsn::ZERO).unwrap() {
                RollbackStep::Undone(_) => undone += 1,
                RollbackStep::Done => break,
                RollbackStep::NeedPage(p) => panic!("page {p} should be cached"),
            }
        }
        n.finish_abort(t).unwrap();
        assert_eq!(undone, 2);
        // Two CLRs + one Abort record.
        assert_eq!(n.log().records_appended(), recs0 + 3);
        let page = n.buffer.peek(pid).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 0);
        assert_eq!(page.read_slot(1).unwrap(), 0);
        assert_eq!(n.txn(t).unwrap().status, TxnStatus::Aborted);
    }

    #[test]
    fn partial_rollback_to_savepoint() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 10);
        let sp = n.savepoint(t).unwrap();
        upd(&mut n, t, pid, 1, 20);
        upd(&mut n, t, pid, 2, 30);
        loop {
            match n.rollback_step(t, sp.at_lsn).unwrap() {
                RollbackStep::Done => break,
                RollbackStep::Undone(_) => {}
                RollbackStep::NeedPage(p) => panic!("page {p} should be cached"),
            }
        }
        let page = n.buffer.peek(pid).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 10, "pre-savepoint survives");
        assert_eq!(page.read_slot(1).unwrap(), 0);
        assert_eq!(page.read_slot(2).unwrap(), 0);
        // Transaction still active and usable.
        upd(&mut n, t, pid, 3, 40);
        n.commit(t).unwrap();
    }

    #[test]
    fn checkpoint_snapshots_dpt_and_att() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 5);
        let ckpt = n.checkpoint().unwrap();
        assert_eq!(n.log().last_checkpoint(), ckpt);
        // Read back the checkpoint body.
        let mut found = false;
        let end = n.log.end_lsn();
        let mut pos = ckpt;
        while pos < end {
            let (rec, next) = n.log.read_record(pos).unwrap();
            if let LogPayload::CheckpointEnd(body) = rec.payload {
                assert_eq!(body.dpt.len(), 1);
                assert_eq!(body.dpt[0].pid, pid);
                assert_eq!(body.active_txns.len(), 1);
                assert_eq!(body.active_txns[0].0, t);
                found = true;
            }
            pos = next;
        }
        assert!(found);
    }

    #[test]
    fn analysis_rebuilds_losers_and_dpt() {
        let mut n = node();
        let t1 = n.begin().unwrap();
        let t2 = n.begin().unwrap();
        let pid = load(&mut n, 0);
        let pid1 = load(&mut n, 1);
        upd(&mut n, t1, pid, 0, 1);
        upd(&mut n, t2, pid1, 0, 2);
        n.commit(t1).unwrap();
        // t2 still active; crash.
        n.crash();
        assert!(n.is_crashed());
        assert!(n.buffer().is_empty());
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        assert_eq!(a.losers, vec![t2]);
        // Both pages were updated; both must be in the rebuilt DPT.
        assert!(n.dpt().contains(pid));
        assert!(n.dpt().contains(pid1));
        // next_seq moved past t2.
        let t3 = n.begin().unwrap();
        assert!(t3.seq > t2.seq);
    }

    #[test]
    fn analysis_uses_checkpoint_dpt_for_pre_checkpoint_dirt() {
        let mut n = node();
        let t1 = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t1, pid, 0, 1);
        n.commit(t1).unwrap();
        n.checkpoint().unwrap();
        // No post-checkpoint records for pid, but the page is still
        // dirty (never written to disk): the checkpoint body must
        // resurrect the entry.
        n.crash();
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        assert!(a.losers.is_empty());
        assert!(n.dpt().contains(pid));
    }

    #[test]
    fn write_owned_page_clears_dpt_and_lists_replacers() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 9);
        n.commit(t).unwrap();
        // A remote node ships a replaced dirty copy.
        let (copy, _) = n.authoritative_copy(pid).unwrap();
        n.receive_replaced(NodeId(5), copy).unwrap();
        let page = n.buffer.peek(pid).unwrap().clone();
        let acks = n.write_owned_page(&page).unwrap();
        assert_eq!(acks, vec![NodeId(5)]);
        assert!(!n.dpt().contains(pid));
        assert_eq!(n.disk_psn(pid).unwrap(), page.psn());
        assert_eq!(n.buffer.is_dirty(pid), Some(false));
    }

    #[test]
    fn psn_list_groups_by_transaction_bursts() {
        let mut n = node();
        let pid = load(&mut n, 0);
        let t1 = n.begin().unwrap();
        upd(&mut n, t1, pid, 0, 1); // psn 1->2
        upd(&mut n, t1, pid, 0, 2); // psn 2->3
        n.commit(t1).unwrap();
        let t2 = n.begin().unwrap();
        upd(&mut n, t2, pid, 0, 3); // psn 3->4
        n.commit(t2).unwrap();
        let t3 = n.begin().unwrap();
        upd(&mut n, t3, pid, 0, 4); // psn 4->5
        n.commit(t3).unwrap();
        let list = n.build_psn_list(&[pid]).unwrap();
        let psns: Vec<Psn> = list.iter().map(|e| e.psn).collect();
        // One entry per transaction burst: first update PSNs 1, 3, 4.
        assert_eq!(psns, vec![Psn(1), Psn(3), Psn(4)]);
    }

    #[test]
    fn replay_page_applies_only_matching_psns_and_honours_bound() {
        let mut n = node();
        let pid = load(&mut n, 0);
        let t1 = n.begin().unwrap();
        upd(&mut n, t1, pid, 0, 11); // psn 1->2
        upd(&mut n, t1, pid, 1, 22); // psn 2->3
        upd(&mut n, t1, pid, 2, 33); // psn 3->4
        n.commit(t1).unwrap();
        // Rebuild from the disk version (psn 1, all zeros).
        let mut page = {
            let db = n.db.as_mut().unwrap();
            db.read_page(0).unwrap()
        };
        assert_eq!(page.psn(), Psn(1));
        let start = Lsn(8);
        // Bound at PSN 2: apply records with psn_before <= 2.
        let (resume, applied, hit) = n.replay_page(&mut page, start, Some(Psn(2))).unwrap();
        assert!(hit);
        assert_eq!(applied, 2);
        assert_eq!(page.psn(), Psn(3));
        assert_eq!(page.read_slot(0).unwrap(), 11);
        assert_eq!(page.read_slot(1).unwrap(), 22);
        assert_eq!(page.read_slot(2).unwrap(), 0);
        // Continue without bound.
        let (_, applied2, hit2) = n.replay_page(&mut page, resume, None).unwrap();
        assert!(!hit2);
        assert_eq!(applied2, 1);
        assert_eq!(page.read_slot(2).unwrap(), 33);
        // Replaying again is a no-op (PSN filter).
        let (_, applied3, _) = n.replay_page(&mut page, start, None).unwrap();
        assert_eq!(applied3, 0);
    }

    /// The NodePSNList by a direct scan of the log — the reference the
    /// redo-index-backed [`Node::build_psn_list`] must match.
    fn scan_psn_list(n: &mut Node, pages: &[PageId]) -> Vec<NodePsnEntry> {
        let from = pages
            .iter()
            .filter_map(|p| n.dpt().get(*p).map(|e| e.redo_lsn))
            .min()
            .unwrap();
        let mut out = Vec::new();
        let mut last_txn: HashMap<PageId, TxnId> = HashMap::new();
        let mut pos = from;
        while pos < n.log.end_lsn() {
            let (rec, next) = n.log.read_record(pos).unwrap();
            if let (Some(pid), Some(psn)) = (rec.page(), rec.psn_before()) {
                if pages.contains(&pid) && last_txn.get(&pid) != Some(&rec.txn) {
                    out.push(NodePsnEntry {
                        pid,
                        psn,
                        lsn: pos,
                        txn: rec.txn,
                    });
                    last_txn.insert(pid, rec.txn);
                }
            }
            pos = next;
        }
        out
    }

    /// Replay extraction by a direct scan of the log — the reference
    /// for [`Node::collect_replay_records_batch`].
    fn scan_replay_records(
        n: &mut Node,
        targets: &BTreeMap<PageId, Lsn>,
    ) -> BTreeMap<PageId, Vec<(Psn, PageOp)>> {
        let mut out: BTreeMap<PageId, Vec<(Psn, PageOp)>> =
            targets.keys().map(|&p| (p, Vec::new())).collect();
        let mut pos = *targets.values().min().unwrap();
        while pos < n.log.end_lsn() {
            let (rec, next) = n.log.read_record(pos).unwrap();
            if let Some(pid) = rec.page() {
                if targets.get(&pid).is_some_and(|&start| pos >= start) {
                    let op = rec.op().unwrap().clone();
                    out.get_mut(&pid)
                        .unwrap()
                        .push((rec.psn_before().unwrap(), op));
                }
            }
            pos = next;
        }
        out
    }

    /// A crashed node with committed work on both sides of a
    /// checkpoint and a forced loser (`t2` on pages 2 then 1), after
    /// restart analysis.
    fn analysed_crash() -> (Node, AnalysisResult, Vec<PageId>) {
        let mut n = node();
        let p: Vec<PageId> = (0..4).map(|i| load(&mut n, i)).collect();
        let t1 = n.begin().unwrap();
        upd(&mut n, t1, p[0], 0, 1);
        upd(&mut n, t1, p[0], 1, 2);
        upd(&mut n, t1, p[1], 0, 3);
        n.commit(t1).unwrap();
        n.checkpoint().unwrap();
        assert!(n.redo.is_none(), "a checkpoint frees the redo index");
        let t2 = n.begin().unwrap();
        upd(&mut n, t2, p[2], 0, 4);
        upd(&mut n, t2, p[1], 1, 5);
        let t3 = n.begin().unwrap();
        upd(&mut n, t3, p[0], 2, 6);
        upd(&mut n, t3, p[3], 0, 7);
        n.commit(t3).unwrap();
        n.crash();
        assert!(n.redo.is_none(), "a crash frees the redo index");
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        assert_eq!(a.losers, vec![t2]);
        (n, a, p)
    }

    fn replay_targets(list: &[NodePsnEntry]) -> BTreeMap<PageId, Lsn> {
        let mut targets: BTreeMap<PageId, Lsn> = BTreeMap::new();
        for e in list {
            let start = targets.entry(e.pid).or_insert(e.lsn);
            *start = (*start).min(e.lsn);
        }
        targets
    }

    #[test]
    fn redo_index_passes_match_a_fresh_scan_after_analysis() {
        let (mut n, a, p) = analysed_crash();
        // Pages dirtied after the checkpoint are served from the index
        // analysis built, without a rescan.
        let late = [p[2], p[3]];
        let want = scan_psn_list(&mut n, &late);
        assert_eq!(n.build_psn_list(&late).unwrap(), want);
        assert_eq!(n.redo.as_ref().unwrap().from, a.start_lsn);
        // Pre-checkpoint dirt reaches below analysis's start: the index
        // is rebuilt from the oldest RedoLSN by one scan.
        let pages: Vec<PageId> = n.dpt().entries().iter().map(|e| e.pid).collect();
        assert_eq!(pages, p);
        let want = scan_psn_list(&mut n, &pages);
        let list = n.build_psn_list(&pages).unwrap();
        assert_eq!(list, want);
        assert!(n.redo.as_ref().unwrap().from < a.start_lsn);
        let targets = replay_targets(&list);
        let want = scan_replay_records(&mut n, &targets);
        assert_eq!(n.collect_replay_records_batch(&targets).unwrap(), want);
        assert!(n.redo.is_none(), "extraction releases the index");
        // A node that never ran analysis builds the index on demand.
        assert_eq!(n.build_psn_list(&pages).unwrap(), list);
    }

    #[test]
    fn redo_index_sees_records_appended_after_analysis() {
        let (mut n, _, p) = analysed_crash();
        let pages: Vec<PageId> = n.dpt().entries().iter().map(|e| e.pid).collect();
        let list = n.build_psn_list(&pages).unwrap();
        let targets = replay_targets(&list);
        let from = n.redo.as_ref().unwrap().from;
        // Redo every page into the cache, then undo the loser: its two
        // CLRs land after the indexed range.
        for (&pid, &start) in &targets {
            let (mut page, _) = n.authoritative_copy(pid).unwrap();
            n.replay_page(&mut page, start, None).unwrap();
            n.cache_page(page, true).unwrap();
        }
        let loser = n.active_txns()[0];
        n.start_abort(loser).unwrap();
        loop {
            match n.rollback_step(loser, Lsn::ZERO).unwrap() {
                RollbackStep::Done => break,
                RollbackStep::Undone(_) => {}
                RollbackStep::NeedPage(pid) => panic!("{pid} was redone into the cache"),
            }
        }
        n.finish_abort(loser).unwrap();
        let want = scan_psn_list(&mut n, &pages);
        assert_eq!(n.build_psn_list(&pages).unwrap(), want);
        assert_eq!(
            n.redo.as_ref().unwrap().from,
            from,
            "extended in place, not rebuilt"
        );
        let want = scan_replay_records(&mut n, &targets);
        let got = n.collect_replay_records_batch(&targets).unwrap();
        assert_eq!(got, want);
        // Replay from the disk image now applies the loser's update and
        // then its CLR.
        let mut page = n.db.as_mut().unwrap().read_page(2).unwrap();
        let psn0 = page.psn();
        let (_, applied, _) = n.replay_page(&mut page, targets[&p[2]], None).unwrap();
        assert_eq!(applied, got[&p[2]].len() as u64);
        assert_eq!(got[&p[2]].len(), 2, "update + CLR");
        assert_eq!(page.psn(), Psn(psn0.0 + 2));
        assert_eq!(page.read_slot(0).unwrap(), 0, "the CLR undid the loser");
    }

    #[test]
    fn crash_loses_unforced_commits_work_is_in_log_only_after_force() {
        let mut n = node();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t, pid, 0, 77);
        // No commit: crash loses the tail.
        let recs = n.log().records_appended();
        assert!(recs >= 2);
        n.crash();
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        // Unforced records vanished; nothing to analyze.
        assert_eq!(a.records_scanned, 0);
        assert!(a.losers.is_empty());

        // Group-commit window: a transaction whose commit_begin ran
        // but whose force is still pending is lost the same way. Its
        // durable updates make it a loser; the unforced Commit record
        // never reached the disk, so restart rolls it back.
        let t2 = n.begin().unwrap();
        let pid = load(&mut n, 0);
        upd(&mut n, t2, pid, 0, 88);
        n.force_log().unwrap();
        let commit_lsn = n.commit_begin(t2).unwrap();
        assert!(
            commit_lsn >= n.log().flushed_lsn(),
            "commit record still volatile while force-pending"
        );
        n.crash();
        n.mark_restarting().unwrap();
        let a = n.restart_analysis().unwrap();
        assert_eq!(a.losers, vec![t2], "force-pending commit is a loser");
    }

    #[test]
    fn diskless_node_has_no_database() {
        let n = Node::new(
            NodeId(3),
            NodeConfig {
                owned_pages: 0,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        assert!(!n.is_owner());
    }

    #[test]
    fn operations_rejected_while_crashed() {
        let mut n = node();
        n.crash();
        assert!(matches!(n.begin(), Err(Error::NodeDown(_))));
        assert!(matches!(n.checkpoint(), Err(Error::NodeDown(_))));
    }

    #[test]
    fn log_full_unapplies_update() {
        let mut n = Node::new(
            NodeId(0),
            NodeConfig {
                page_size: 512,
                buffer_frames: 8,
                owned_pages: 2,
                log_capacity: Some(256),
            },
        )
        .unwrap();
        let t = n.begin().unwrap();
        let pid = load(&mut n, 0);
        let mut hit_full = false;
        for i in 0..100 {
            let before = n.buffer.peek(pid).unwrap().read_slot(0).unwrap();
            let r = n.log_update(
                t,
                pid,
                PageOp::WriteRange {
                    off: 0,
                    before: before.to_le_bytes().to_vec(),
                    after: (i as u64 + 1).to_le_bytes().to_vec(),
                },
            );
            if let Err(Error::LogFull(_)) = r {
                // Page value must be unchanged by the failed update.
                assert_eq!(n.buffer.peek(pid).unwrap().read_slot(0).unwrap(), before);
                hit_full = true;
                break;
            }
            r.unwrap();
        }
        assert!(hit_full, "bounded log must fill");
    }
}
