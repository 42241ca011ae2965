//! Threaded execution runtime: real threads, real fsync, real clock.
//!
//! The simulator ([`cblog_core::Cluster`]) runs the CBL protocol on a
//! simulated clock with in-memory stores — deterministic, and the
//! correctness oracle for everything here. This crate runs the *same*
//! per-node protocol machinery ([`cblog_core::Node`]) under real
//! concurrency:
//!
//! * **one OS thread per node** — each worker owns its `Node` (moved
//!   into the thread; `Node: Send` is asserted in core) and drives its
//!   MPL transaction streams;
//! * **file-backed WALs** — each node's log lives on a
//!   [`FileLogStore`], so a log force is an actual `fdatasync`;
//! * **channel transport** — inter-node traffic crosses threads over
//!   [`cblog_net::transport::ChannelMesh`] (per-link FIFO, accounted);
//! * **wall-clock group commit** — the per-node
//!   [`ForceScheduler`] from core is time-source agnostic (it takes
//!   `now` in µs), so the exact same Immediate/Window/Adaptive batching
//!   logic runs here against a [`WallClock`];
//! * **sharded page locks** — one process-wide
//!   [`ShardedLockTable`] gives strict 2PL across all worker threads
//!   without a global mutex.
//!
//! The paper's headline property survives the move to real threads
//! unchanged: a commit is one local log force and **zero messages** —
//! the only traffic on the mesh is read-path page fetching.
//!
//! # Scope
//!
//! Writes must target pages owned by the writing node; remote pages
//! are readable (fetched from the owner over the transport, S-locked
//! for the duration of the transaction). Remote *writes* need the full
//! callback-locking / page-replacement machinery, which today only the
//! simulator drives; plans containing them are rejected rather than
//! half-supported.
//!
//! # Correctness anchor
//!
//! `tests/equivalence.rs` runs identical seeded plan lists on both
//! engines and asserts the final page images are byte-identical and
//! the commit tallies equal. With per-stream-private write sets the
//! final state is interleaving-independent, so any divergence is an
//! engine bug, not scheduling noise.
//!
//! # Observability (DESIGN §14)
//!
//! Real threaded runs carry the same observability stack as the
//! simulator:
//!
//! * **Send-safe tracing** — each worker fills a private [`SpanBuf`]
//!   with the sim tracer's span vocabulary; the buffers are merged
//!   deterministically at join into one trace, and the watchdog
//!   function the simulator's tracer uses ([`check_spans`]) checks
//!   PSN-order, the WAL rule, and no-log-on-the-wire on it (including
//!   parallel replay). `run` and `recover` fail with
//!   [`Error::Protocol`] on any violation. Spans are the one event
//!   record: there is no separate event ring, and a post-mortem of an
//!   untraced run means re-running it with tracing on.
//! * **Per-thread profiler** — each worker attributes its wall time
//!   to the shared [`Bucket`] taxonomy with the simulator's exact
//!   partition invariant (`disk + cpu + net + replay == busy`); the
//!   split is exported per node as `prof/*_us` gauges and as
//!   [`RtNodeStats`].
//! * **Exact latency percentiles** — commit latencies feed a
//!   [`Reservoir`] of recorded values beside the log-2 histogram, so
//!   [`RtRunStats::p50_us`]/[`RtRunStats::p99_us`] are exact samples
//!   rather than bucket upper bounds.

use cblog_common::metrics::{keys, prof_key};
use cblog_common::span::check_spans;
use cblog_common::{
    Bucket, Error, Histogram, Lsn, MetricValue, NodeId, PageId, Psn, RecoveryPhase, Reservoir,
    Result, SimTime, Snapshot, Span, SpanBuf, SpanCtx, SpanId, SpanKind, TransferWhy, TxnId,
};
use cblog_core::node::RollbackStep;
use cblog_core::{
    plan_replay, ForceScheduler, GroupCommitPolicy, Node, NodeConfig, NodePsnEntry, PhaseTimings,
    PlanOp, RecoveryOptions, RecoveryReport, RunReport, Runtime, TxnPlan, WaveTiming,
};
use cblog_locks::{LockMode, ShardedLockTable};
use cblog_net::transport::{ChannelEndpoint, ChannelMesh, Envelope, Transport};
use cblog_net::MsgKind;
use cblog_storage::Page;
use cblog_wal::{FileLogStore, LogStore, MemLogStore, PageOp};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock time source, µs since construction. The value feeds the
/// same [`ForceScheduler`] interfaces the simulator feeds sim-µs into.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Clock starting at 0 now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since construction.
    pub fn now_us(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

/// Where each node's WAL lives.
#[derive(Clone, Debug)]
pub enum WalBacking {
    /// In-memory log store (tests; no real fsync).
    Mem,
    /// One `node<i>.wal` file per node inside this directory, opened
    /// as a [`FileLogStore`]: forces are real `fdatasync`s.
    Dir(PathBuf),
}

/// Configuration of a threaded cluster.
#[derive(Clone, Debug)]
pub struct ThreadClusterConfig {
    /// Pages owned by each node; length = node count.
    pub owned_pages: Vec<u32>,
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer frames per node (size above the working set: the
    /// threaded runtime treats eviction of a dirty page as overflow).
    pub buffer_frames: usize,
    /// Group-commit policy, shared by every node.
    pub group_commit: GroupCommitPolicy,
    /// Shards in the process-wide lock table.
    pub lock_shards: usize,
    /// WAL backing for every node.
    pub wal: WalBacking,
    /// Per-worker span tracing. When on, every run and recovery is
    /// merged into the cluster trace and checked by the protocol
    /// watchdog at join. Off buys back the (small) tracing overhead;
    /// `rtbench --trace-overhead` measures it.
    pub tracing: bool,
    /// Capacity of each worker's span buffer (spans beyond it are
    /// dropped and counted, never reallocated mid-run).
    pub trace_capacity: usize,
}

impl Default for ThreadClusterConfig {
    fn default() -> Self {
        ThreadClusterConfig {
            owned_pages: vec![16, 16],
            page_size: 1024,
            buffer_frames: 256,
            group_commit: GroupCommitPolicy::Immediate,
            lock_shards: 16,
            wal: WalBacking::Mem,
            tracing: true,
            trace_capacity: cblog_common::span::DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Per-run aggregates beyond the [`RunReport`] tally.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtRunStats {
    /// Wall time of the run, µs.
    pub wall_us: u64,
    /// Log forces summed over nodes (delta for this run).
    pub forces: u64,
    /// Messages crossing the mesh (all read-path).
    pub msgs: u64,
    /// Messages on the commit path — zero by construction; reported
    /// so benchmarks can assert the paper's headline property.
    pub commit_msgs: u64,
    /// Median commit latency (submit → durable ack), µs — an exact
    /// recorded value from the latency [`Reservoir`], not a histogram
    /// bucket bound.
    pub p50_us: u64,
    /// Tail commit latency, µs (exact recorded value, see `p50_us`).
    pub p99_us: u64,
    /// Spans this run added to the cluster trace (0 with tracing off).
    pub spans: u64,
}

/// Wall-time split of one worker thread across the profiler [`Bucket`]
/// taxonomy the simulator uses (DESIGN §14).
///
/// The partition invariant is the simulator's, held *exactly* in
/// integer µs: `disk + cpu + net + replay == busy`, with `lock_wait`
/// accounted beside busy and `busy + lock_wait <= wall`. The
/// remainder of the wall time is idle parking in `recv_timeout`
/// (group-commit windows, shutdown straggler service), which is
/// deliberately not attributed to any bucket.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtNodeStats {
    /// Node id.
    pub node: u32,
    /// Worker wall time, µs.
    pub wall_us: u64,
    /// Non-idle worker time: everything the thread did outside
    /// lock-wait spinning and idle parks, µs.
    pub busy_us: u64,
    /// Time inside log forces (fsync), µs.
    pub disk_us: u64,
    /// Time in channel sends/receives and page-fetch service, µs.
    pub net_us: u64,
    /// Busy remainder: transaction execution and loop bookkeeping, µs.
    pub cpu_us: u64,
    /// Time spinning on contended page locks, net of the inbox
    /// service performed between spins, µs.
    pub lock_wait_us: u64,
    /// Time replaying recovery waves, µs (0 for normal runs; filled
    /// into the `prof/replay_us` gauge by `recover`).
    pub replay_us: u64,
}

/// Capacity of the exact commit-latency sample reservoir.
const LATENCY_RESERVOIR_CAP: usize = 4096;

/// A set of OS-thread nodes executing [`TxnPlan`]s.
pub struct ThreadCluster {
    cfg: ThreadClusterConfig,
    nodes: Vec<Node>,
    locks: Arc<ShardedLockTable>,
    latency: Histogram,
    latency_samples: Reservoir,
    last: Option<RtRunStats>,
    last_nodes: Vec<RtNodeStats>,
    /// Cluster-lifetime clock: every worker stamps spans off the same
    /// epoch, so timestamps are monotone across runs and recoveries.
    epoch: WallClock,
    /// Merged span trace, in watchdog-checkable order.
    trace: Vec<Span>,
    trace_next_id: u64,
    trace_dropped: u64,
}

impl ThreadCluster {
    /// Builds the nodes (and their WAL files, for
    /// [`WalBacking::Dir`]).
    pub fn new(cfg: ThreadClusterConfig) -> Result<Self> {
        let mut nodes = Vec::with_capacity(cfg.owned_pages.len());
        for (i, &owned) in cfg.owned_pages.iter().enumerate() {
            let ncfg = NodeConfig {
                page_size: cfg.page_size,
                buffer_frames: cfg.buffer_frames,
                owned_pages: owned,
                log_capacity: None,
            };
            let store: Box<dyn LogStore> = match &cfg.wal {
                WalBacking::Mem => Box::new(MemLogStore::new()),
                WalBacking::Dir(dir) => {
                    std::fs::create_dir_all(dir)?;
                    Box::new(FileLogStore::open(&dir.join(format!("node{i}.wal")))?)
                }
            };
            nodes.push(Node::with_log_store(NodeId(i as u32), ncfg, store)?);
        }
        let locks = Arc::new(ShardedLockTable::new(cfg.lock_shards));
        Ok(ThreadCluster {
            cfg,
            nodes,
            locks,
            latency: Histogram::new(),
            latency_samples: Reservoir::new(LATENCY_RESERVOIR_CAP),
            last: None,
            last_nodes: Vec::new(),
            epoch: WallClock::new(),
            trace: Vec::new(),
            trace_next_id: 0,
            trace_dropped: 0,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cfg.owned_pages.len()
    }

    /// Aggregates of the most recent [`Runtime::run`].
    pub fn last_stats(&self) -> Option<RtRunStats> {
        self.last
    }

    /// Per-worker wall-time split of the most recent run, ordered by
    /// node id.
    pub fn last_node_stats(&self) -> &[RtNodeStats] {
        &self.last_nodes
    }

    /// The shared commit-latency histogram (µs, submit → durable).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Exact commit-latency samples feeding [`RtRunStats::p50_us`] /
    /// [`RtRunStats::p99_us`] (the histogram stays for bucketed
    /// exports; the reservoir keeps recorded values).
    pub fn latency_samples(&self) -> &Reservoir {
        &self.latency_samples
    }

    /// The merged span trace accumulated across runs, crashes and
    /// recoveries (empty when [`ThreadClusterConfig::tracing`] is
    /// off). Spans are in watchdog order: per-worker emission order,
    /// workers concatenated ascending, batches appended run by run.
    pub fn trace(&self) -> &[Span] {
        &self.trace
    }

    /// Spans lost to per-worker buffer overflow, cumulative.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// Appends a span to the merged trace with a fresh id, regardless
    /// of the tracing switch — a hook for tests to inject observations
    /// the workers did not make (e.g. a forged out-of-order replay
    /// hop) and watch [`ThreadCluster::trace_check`] catch them.
    pub fn inject_span(&mut self, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        let at = self.epoch.now_us();
        self.trace_next_id += 1;
        let id = SpanId(self.trace_next_id);
        self.trace.push(Span {
            id,
            parent,
            node,
            start: at,
            dur: 0,
            kind,
        });
        id
    }

    /// Runs the protocol watchdog ([`check_spans`]) over the merged
    /// trace, so real threaded executions are checked for the same
    /// invariants as simulated ones: per-page PSN order (updates and
    /// replay hops), the WAL rule on page ships and owned writes, and
    /// no-log-on-the-wire. `run` and `recover` call this at join when
    /// tracing is on; tests may call it after [`Self::inject_span`].
    pub fn trace_check(&self) -> Result<()> {
        check_spans(&self.trace).map_err(Error::Protocol)
    }

    /// Emits a point span from the coordinating thread (ids continue
    /// the merged sequence directly). No-op returning
    /// [`SpanId::NONE`] when tracing is off.
    fn trace_point(&mut self, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        if !self.cfg.tracing {
            return SpanId::NONE;
        }
        self.inject_span(node, parent, kind)
    }

    /// Merges per-worker buffers into the cluster trace.
    fn absorb(&mut self, bufs: Vec<SpanBuf>) {
        let (spans, dropped) = SpanBuf::merge(bufs, &mut self.trace_next_id);
        self.trace.extend(spans);
        self.trace_dropped += dropped;
    }

    /// Crashes `node`: its volatile state (buffer, DPT, transaction
    /// table, unforced log tail) is lost; the database file and the
    /// durable WAL survive. Follow with [`Runtime::recover`].
    pub fn crash(&mut self, node: NodeId) -> Result<()> {
        let i = node.0 as usize;
        if i >= self.nodes.len() {
            return Err(Error::Invalid(format!("crash of unknown node {node}")));
        }
        self.nodes[i].crash();
        // The watchdog resets its per-page frontiers at a Crash span,
        // exactly as in the simulator.
        self.trace_point(node, SpanId::NONE, SpanKind::Crash { node });
        Ok(())
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        let i = id.0 as usize;
        self.nodes
            .get_mut(i)
            .ok_or_else(|| Error::Invalid(format!("unknown node {id}")))
    }
}

impl Runtime for ThreadCluster {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn run(&mut self, plans: &[TxnPlan]) -> Result<RunReport> {
        let n = self.node_count();
        let mut per_node: Vec<Vec<TxnPlan>> = vec![Vec::new(); n];
        for plan in plans {
            let i = plan.client.0 as usize;
            if i >= n {
                return Err(Error::Invalid(format!(
                    "plan for unknown node {}",
                    plan.client
                )));
            }
            per_node[i].push(plan.clone());
        }

        let endpoints = ChannelMesh::endpoints(n);
        let nodes = std::mem::take(&mut self.nodes);
        let forces_before: u64 = nodes.iter().map(|nd| nd.log().forces()).sum();
        let remaining = Arc::new(AtomicUsize::new(n));
        let clock = self.epoch;
        let tracing = self.cfg.tracing;
        let trace_cap = self.cfg.trace_capacity;
        let started = Instant::now();

        let outcomes: Vec<Result<WorkerOutcome>> = std::thread::scope(|s| {
            let handles: Vec<_> = nodes
                .into_iter()
                .zip(endpoints)
                .zip(per_node)
                .map(|((node, ep), plans)| {
                    let locks = Arc::clone(&self.locks);
                    let remaining = Arc::clone(&remaining);
                    let latency = self.latency.clone();
                    let samples = self.latency_samples.clone();
                    let policy = self.cfg.group_commit;
                    let buf = if tracing {
                        SpanBuf::new(node.id().0, trace_cap)
                    } else {
                        SpanBuf::disabled()
                    };
                    s.spawn(move || {
                        run_worker(
                            node, ep, locks, plans, policy, clock, remaining, latency, samples, buf,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => Err(Error::Protocol("worker thread panicked".into())),
                })
                .collect()
        });

        let wall_us = started.elapsed().as_micros() as u64;
        let mut report = RunReport::default();
        let mut msgs = 0;
        let mut restored = Vec::with_capacity(n);
        let mut node_stats = Vec::with_capacity(n);
        let mut bufs = Vec::with_capacity(n);
        let mut first_err = None;
        for outcome in outcomes {
            match outcome {
                Ok(o) => {
                    report.committed += o.report.committed;
                    report.user_aborts += o.report.user_aborts;
                    report.forced_aborts += o.report.forced_aborts;
                    report.ops_executed += o.report.ops_executed;
                    msgs += o.sent;
                    node_stats.push(RtNodeStats {
                        node: o.node.id().0,
                        ..o.stats
                    });
                    restored.push(o.node);
                    bufs.push(o.buf);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        restored.sort_by_key(|nd| nd.id().0);
        node_stats.sort_by_key(|s| s.node);
        self.nodes = restored;

        // Merge the per-worker traces and mirror each worker's bucket
        // split onto its node's registry (cumulative, like the sim
        // profiler's gauges).
        let spans_before = self.trace.len();
        self.absorb(bufs);
        for s in &node_stats {
            let reg = self.nodes[s.node as usize].registry();
            reg.gauge(prof_key(Bucket::Disk)).add(s.disk_us as i64);
            reg.gauge(prof_key(Bucket::Cpu)).add(s.cpu_us as i64);
            reg.gauge(prof_key(Bucket::Net)).add(s.net_us as i64);
            reg.gauge(prof_key(Bucket::LockWait))
                .add(s.lock_wait_us as i64);
            reg.gauge(prof_key(Bucket::Replay)).add(s.replay_us as i64);
        }
        self.last_nodes = node_stats;

        let forces_after: u64 = self.nodes.iter().map(|nd| nd.log().forces()).sum();
        self.last = Some(RtRunStats {
            wall_us,
            forces: forces_after - forces_before,
            msgs,
            commit_msgs: 0,
            p50_us: self.latency_samples.percentile(0.50),
            p99_us: self.latency_samples.percentile(0.99),
            spans: (self.trace.len() - spans_before) as u64,
        });
        if self.cfg.tracing {
            self.trace_check()?;
        }
        Ok(report)
    }

    fn page_image(&mut self, pid: PageId) -> Result<Vec<u8>> {
        let i = pid.owner.0 as usize;
        if i >= self.nodes.len() {
            return Err(Error::NoSuchPage(pid));
        }
        self.nodes[i].page_image(pid)
    }

    fn metrics(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for node in &self.nodes {
            out.merge_prefixed(&format!("n{}/", node.id().0), node.registry().snapshot());
        }
        out.entries.insert(
            "rt/commit_latency_us".into(),
            MetricValue::Histogram(Box::new(self.latency.snapshot())),
        );
        out
    }

    /// Crash recovery under real concurrency. The threaded runtime
    /// only writes owned pages, so every update record for a page
    /// lives in its owner's WAL — the [`plan_replay`] dependency graph
    /// degenerates to independent per-page chains and Redo is
    /// embarrassingly parallel: each wave's units are latched and
    /// replayed by [`ReplayMode::Parallel`](cblog_core::ReplayMode)
    /// worker threads. Each replay lane records its hops into a
    /// [`SpanBuf`]; the merged trace is replayed through the protocol
    /// watchdog at the end ([`ThreadCluster::trace_check`]), which
    /// enforces the same per-page PSN-order invariant on real parallel
    /// replay that the simulator's tracer enforces on simulated
    /// recovery.
    ///
    /// Standby recovery and injected crash points are simulator-only
    /// options; asking for either is [`Error::Invalid`], and so is
    /// recovering a node that is not crashed ([`Error::Protocol`]).
    fn recover(&mut self, opts: &RecoveryOptions) -> Result<RecoveryReport> {
        if opts.standby().is_some() || opts.crash_after_phase().is_some() {
            return Err(Error::Invalid(
                "the threaded engine supports neither standby recovery nor injected crash points"
                    .into(),
            ));
        }
        let crashed = opts.recovered_nodes().to_vec();
        for &c in &crashed {
            if c.0 as usize >= self.nodes.len() {
                return Err(Error::Invalid(format!("recovery of unknown node {c}")));
            }
            if !self.nodes[c.0 as usize].is_crashed() {
                return Err(Error::Protocol(format!("{c} is not crashed")));
            }
        }
        let workers = opts.replay_mode().workers();
        let rec_root = match crashed.first() {
            Some(&c) => self.trace_point(
                c,
                SpanId::NONE,
                SpanKind::Recovery {
                    nodes: crashed.len() as u32,
                },
            ),
            None => SpanId::NONE,
        };
        let mut report = RecoveryReport {
            recovered_nodes: crashed.clone(),
            ..RecoveryReport::default()
        };
        let mut timings = PhaseTimings::default();
        let mut mark = Instant::now();
        fn lap(mark: &mut Instant) -> u64 {
            let us = mark.elapsed().as_micros() as u64;
            *mark = Instant::now();
            us
        }

        // ---- Analysis: tail repair + ARIES analysis per crashed
        // node. The message phases of the distributed protocol
        // (InfoExchange … RecoveryLocks) have no threaded counterpart:
        // updates are owner-local, so no operational node holds state
        // the restarting owner needs; their timings stay zero. ----
        let mut losers: Vec<(NodeId, Vec<TxnId>)> = Vec::new();
        for &c in &crashed {
            let node = self.node_mut(c)?;
            report.torn_bytes_discarded += node.mark_restarting()?;
            let a = node.restart_analysis()?;
            report.log_bytes_scanned += a.bytes_scanned;
            losers.push((c, a.losers));
        }
        timings.record(RecoveryPhase::Analysis, lap(&mut mark));

        // ---- PSN lists: each crashed owner's NodePSNList over its
        // own dirty pages (the only log involved, see above). ----
        let mut involved: BTreeMap<PageId, Vec<NodeId>> = BTreeMap::new();
        let mut psn_lists: BTreeMap<NodeId, Vec<NodePsnEntry>> = BTreeMap::new();
        for &c in &crashed {
            let node = self.node_mut(c)?;
            let pages: Vec<PageId> = node.dpt().entries().iter().map(|e| e.pid).collect();
            for &pid in &pages {
                involved.entry(pid).or_default().push(c);
            }
            psn_lists.insert(c, node.build_psn_list(&pages)?);
        }
        timings.record(RecoveryPhase::PsnLists, lap(&mut mark));

        let plan = plan_replay(&involved, &psn_lists);
        report.replay_waves = plan.waves.len();
        report.critical_path_psns = plan.critical_path_psns;

        // ---- Replay: wave by wave. Extraction is serial (it needs
        // the owner's node) and decodes nothing: it slices the redo
        // index analysis built, one pass per crashed node for every
        // unit. The PSN-filtered redo itself runs on `workers` scoped
        // threads against owned page images. ----
        let mut extracted: BTreeMap<PageId, Vec<(Psn, PageOp)>> = BTreeMap::new();
        let mut targets: BTreeMap<NodeId, BTreeMap<PageId, Lsn>> = BTreeMap::new();
        for unit in &plan.units {
            let start = unit.hops.iter().map(|h| h.2).min().unwrap_or(Lsn::ZERO);
            targets
                .entry(unit.pid.owner)
                .or_default()
                .insert(unit.pid, start);
        }
        for (owner, pages) in targets {
            extracted.append(&mut self.node_mut(owner)?.collect_replay_records_batch(&pages)?);
        }
        let mut wave_timings = Vec::with_capacity(plan.waves.len());
        let tracing = self.cfg.tracing;
        let trace_cap = self.cfg.trace_capacity;
        let clock = self.epoch;
        let mut replay_by_node: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut replay_lock_wait: BTreeMap<NodeId, u64> = BTreeMap::new();
        for wave in &plan.waves {
            let mut work = Vec::with_capacity(wave.len());
            for &ui in wave {
                let unit = &plan.units[ui];
                let node = self.node_mut(unit.pid.owner)?;
                let (page, _) = node.authoritative_copy(unit.pid)?;
                let records = extracted.remove(&unit.pid).unwrap_or_default();
                work.push(ReplayWork {
                    pid: unit.pid,
                    page,
                    records,
                });
            }
            let wave_started = Instant::now();
            let mut lanes: Vec<Vec<ReplayWork>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, w) in work.into_iter().enumerate() {
                lanes[i % workers].push(w);
            }
            let outcomes: Vec<Result<(Vec<ReplayedUnit>, SpanBuf)>> = std::thread::scope(|s| {
                let handles: Vec<_> = lanes
                    .into_iter()
                    .enumerate()
                    .map(|(lane, items)| {
                        let locks = Arc::clone(&self.locks);
                        let buf = if tracing {
                            SpanBuf::new(lane as u32, trace_cap)
                        } else {
                            SpanBuf::disabled()
                        };
                        s.spawn(move || replay_lane(&locks, lane, items, buf, clock, rec_root))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        Err(_) => Err(Error::Protocol("replay worker panicked".into())),
                    })
                    .collect()
            });
            let makespan_us = wave_started.elapsed().as_micros() as u64;
            let mut timing = WaveTiming {
                makespan_us,
                ..WaveTiming::default()
            };
            // Absorb every lane's hop spans before the page writes so
            // the merged trace shows each wave's replay before the
            // durable writes it produced (per-wave merging also keeps
            // lane buffer ids from colliding across waves).
            let mut wave_units = Vec::new();
            let mut lane_bufs = Vec::new();
            for outcome in outcomes {
                let (units, buf) = outcome?;
                lane_bufs.push(buf);
                wave_units.extend(units);
            }
            self.absorb(lane_bufs);
            for done in wave_units {
                report.records_replayed += done.applied;
                report.pages_recovered += 1;
                timing.units += 1;
                timing.serial_us += done.wall_us;
                let owner = done.page.id().owner;
                *replay_by_node.entry(owner).or_insert(0) +=
                    done.wall_us.saturating_sub(done.lock_wait_us);
                *replay_lock_wait.entry(owner).or_insert(0) += done.lock_wait_us;
                // Durable write re-anchors the page and clears its
                // DPT entry, like the simulator's post-replay ship.
                let (psn, wal_ok) = {
                    let node = self.node_mut(owner)?;
                    node.write_owned_page(&done.page)?;
                    (done.page.psn(), node.log().fully_forced())
                };
                self.trace_point(
                    owner,
                    rec_root,
                    SpanKind::PageWrite {
                        pid: done.page.id(),
                        node: owner,
                        psn,
                        wal_ok,
                    },
                );
            }
            wave_timings.push(timing);
        }
        timings.record(RecoveryPhase::Replay, lap(&mut mark));
        timings.set_replay_waves(wave_timings);

        // ---- Undo losers locally (CLRs), then checkpoint. ----
        for (c, txns) in losers {
            for txn in txns {
                roll_back(self.node_mut(c)?, txn)?;
                report.losers_undone += 1;
            }
        }
        for &c in &crashed {
            let node = self.node_mut(c)?;
            node.force_log()?;
            node.checkpoint()?;
        }
        timings.record(RecoveryPhase::Undo, lap(&mut mark));
        timings.record(RecoveryPhase::Done, lap(&mut mark));

        for &c in &crashed {
            let reg = self.nodes[c.0 as usize].registry();
            reg.gauge(keys::RECOVERY_REPLAY_WAVES)
                .set(plan.waves.len() as i64);
            reg.gauge(keys::RECOVERY_CRITICAL_PATH_PSNS)
                .set(plan.critical_path_psns as i64);
            let widths = reg.histogram(keys::RECOVERY_WAVE_WIDTH);
            for w in &plan.waves {
                widths.record(w.len() as u64);
            }
        }
        // Replay wall time lands in the owner's `prof/replay_us`
        // gauge (lane lock waits go to `prof/lock_wait_us`), summed
        // serially across lanes like `WaveTiming::serial_us`.
        for (owner, us) in &replay_by_node {
            self.nodes[owner.0 as usize]
                .registry()
                .gauge(prof_key(Bucket::Replay))
                .add(*us as i64);
        }
        for (owner, us) in &replay_lock_wait {
            self.nodes[owner.0 as usize]
                .registry()
                .gauge(prof_key(Bucket::LockWait))
                .add(*us as i64);
        }
        report.timings = timings;
        if self.cfg.tracing {
            self.trace_check()?;
        }
        Ok(report)
    }
}

// ----------------------------------------------------------------------
// Parallel replay workers
// ----------------------------------------------------------------------

/// Lock-table token namespace for replay workers: `node << 48` tokens
/// from live transactions never reach node 0xffff.
const REPLAY_TOKEN_BASE: u64 = 0xffff_0000_0000_0000;

/// One page's redo, pre-extracted so the worker needs no `&mut Node`.
struct ReplayWork {
    pid: PageId,
    page: Page,
    records: Vec<(Psn, PageOp)>,
}

/// What one worker did to one page.
struct ReplayedUnit {
    page: Page,
    applied: u64,
    wall_us: u64,
    /// Time spent spinning for the page latch (part of `wall_us`).
    lock_wait_us: u64,
}

/// Replays one lane's units in order, latching each page exclusively
/// for the duration of its redo. Every applied record lands in the
/// lane's [`SpanBuf`] as [`SpanKind::ReplayHop`] spans — one per
/// maximal run of consecutively applied PSNs, which preserves the
/// watchdog's per-record ordering power (any non-monotone application
/// splits a run, and the out-of-order run then starts below the
/// watchdog's replay frontier).
fn replay_lane(
    locks: &ShardedLockTable,
    lane: usize,
    items: Vec<ReplayWork>,
    mut buf: SpanBuf,
    clock: WallClock,
    root: SpanId,
) -> Result<(Vec<ReplayedUnit>, SpanBuf)> {
    let token = REPLAY_TOKEN_BASE | lane as u64;
    let mut out = Vec::with_capacity(items.len());
    for mut w in items {
        let t = Instant::now();
        let waited = locks.acquire_spin_timed(w.pid, token, LockMode::Exclusive, ACQUIRE_SPINS);
        let Some(lock_wait_us) = waited else {
            return Err(Error::Protocol(format!(
                "replay worker could not latch {}",
                w.pid
            )));
        };
        let applied = apply_unit(&mut w);
        locks.release(w.pid, token);
        let from_psns = applied?;
        let owner = w.pid.owner;
        let at = clock.now_us();
        for (first, last, applied) in psn_runs(&from_psns) {
            buf.point(
                at,
                owner,
                root,
                SpanKind::ReplayHop {
                    pid: w.pid,
                    node: owner,
                    from_psn: first,
                    to_psn: last.next(),
                    applied,
                },
            );
        }
        out.push(ReplayedUnit {
            applied: from_psns.len() as u64,
            wall_us: t.elapsed().as_micros() as u64,
            lock_wait_us,
            page: w.page,
        });
    }
    Ok((out, buf))
}

/// PSN-filtered redo of one page (the filter of [`Node::replay_page`],
/// against pre-extracted records). Returns the applied PSNs in order.
fn apply_unit(w: &mut ReplayWork) -> Result<Vec<Psn>> {
    let mut from_psns = Vec::new();
    for (psn_before, op) in &w.records {
        if *psn_before == w.page.psn() {
            op.apply_redo(&mut w.page)?;
            w.page.set_psn(psn_before.next());
            from_psns.push(*psn_before);
        }
    }
    Ok(from_psns)
}

/// Maximal runs of consecutively applied PSNs, as
/// `(first, last, count)`. Correct application applies each record at
/// exactly the page's PSN, so the whole unit is one run; anything
/// else fractures into runs whose ReplayHop spans the watchdog
/// rejects.
fn psn_runs(from_psns: &[Psn]) -> Vec<(Psn, Psn, u64)> {
    let mut runs: Vec<(Psn, Psn, u64)> = Vec::new();
    for &p in from_psns {
        match runs.last_mut() {
            Some((_, last, n)) if p == last.next() => {
                *last = p;
                *n += 1;
            }
            _ => runs.push((p, p, 1)),
        }
    }
    runs
}

// ----------------------------------------------------------------------
// Worker
// ----------------------------------------------------------------------

/// Spins this many times on a contended lock (serving the inbox in
/// between) before aborting the transaction and retrying the plan.
const ACQUIRE_SPINS: usize = 20_000;
/// Retries of one plan after forced aborts before giving up.
const PLAN_RETRIES: usize = 100;
/// Patience for a remote page fetch (the owner may be mid-fsync).
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

struct WorkerOutcome {
    node: Node,
    report: RunReport,
    sent: u64,
    stats: RtNodeStats,
    buf: SpanBuf,
}

/// Wall-time profiler of one worker thread (DESIGN §14).
///
/// `outer_us` sums the top-level timed scopes of the worker loop
/// (inbox service, flushes, transaction execution, shutdown serving);
/// the leaf buckets are measured *inside* those scopes and are
/// disjoint sub-intervals of them. The derived buckets therefore keep
/// the simulator's partition invariant exactly in integer µs:
/// `busy = outer − lock_wait` and `cpu = busy − disk − net`, so
/// `disk + cpu + net == busy` by construction. Time parked in
/// `recv_timeout` between scopes (group-commit windows, shutdown
/// stragglers) is idle and deliberately unattributed.
#[derive(Clone, Copy, Debug, Default)]
struct Prof {
    outer_us: u64,
    disk_us: u64,
    net_us: u64,
    lock_wait_us: u64,
}

impl Prof {
    fn busy_us(&self) -> u64 {
        self.outer_us.saturating_sub(self.lock_wait_us)
    }

    fn cpu_us(&self) -> u64 {
        self.busy_us()
            .saturating_sub(self.disk_us)
            .saturating_sub(self.net_us)
    }
}

/// One MPL lane: its plans run sequentially; the worker interleaves
/// lanes so several commits can park in the force scheduler at once.
struct Lane {
    plans: Vec<TxnPlan>,
    next: usize,
    /// Parked commit: (txn, submit time). Its locks were released at
    /// `commit_begin`.
    waiting: Option<(TxnId, SimTime)>,
    retries: usize,
}

fn token_of(txn: TxnId) -> u64 {
    ((txn.node.0 as u64) << 48) | (txn.seq & 0xffff_ffff_ffff)
}

fn encode_pid(pid: PageId) -> Vec<u8> {
    pid.to_u64().to_le_bytes().to_vec()
}

fn decode_pid(payload: &[u8]) -> Result<PageId> {
    let bytes: [u8; 8] = payload
        .try_into()
        .map_err(|_| Error::Protocol("bad page-fetch payload".into()))?;
    Ok(PageId::from_u64(u64::from_le_bytes(bytes)))
}

#[allow(clippy::too_many_arguments)]
fn run_worker(
    mut node: Node,
    ep: ChannelEndpoint,
    locks: Arc<ShardedLockTable>,
    plans: Vec<TxnPlan>,
    policy: GroupCommitPolicy,
    clock: WallClock,
    remaining: Arc<AtomicUsize>,
    latency: Histogram,
    samples: Reservoir,
    mut buf: SpanBuf,
) -> Result<WorkerOutcome> {
    let mut sched = ForceScheduler::new(policy);
    let mut report = RunReport::default();
    let started = Instant::now();
    let mut prof = Prof::default();
    let mut forced_bytes = node.log().bytes_written();
    macro_rules! outer {
        ($e:expr) => {{
            let t = Instant::now();
            let r = $e;
            prof.outer_us += t.elapsed().as_micros() as u64;
            r
        }};
    }

    // Bucket plans into lanes, preserving per-lane order.
    let mut lanes: Vec<Lane> = Vec::new();
    let mut lane_ids: Vec<usize> = Vec::new();
    for plan in plans {
        let idx = match lane_ids.iter().position(|&s| s == plan.stream) {
            Some(i) => i,
            None => {
                lane_ids.push(plan.stream);
                lanes.push(Lane {
                    plans: Vec::new(),
                    next: 0,
                    waiting: None,
                    retries: 0,
                });
                lanes.len() - 1
            }
        };
        lanes[idx].plans.push(plan);
    }

    let mut finished = lanes.is_empty();
    if finished {
        remaining.fetch_sub(1, Ordering::AcqRel);
    }
    loop {
        outer!(serve_inbox(&mut node, &ep, &clock, &mut prof, &mut buf)?);
        if sched.is_due(clock.now_us()) {
            outer!(flush(
                &mut node,
                &mut sched,
                &mut lanes,
                &clock,
                &latency,
                &samples,
                &mut report,
                &mut prof,
                &mut buf,
                &mut forced_bytes,
            )?);
        }

        let mut progressed = false;
        let mut live = false;
        for li in 0..lanes.len() {
            if lanes[li].waiting.is_some() {
                live = true;
                continue;
            }
            if lanes[li].next >= lanes[li].plans.len() {
                continue;
            }
            live = true;
            let plan = lanes[li].plans[lanes[li].next].clone();
            let outcome = outer!(run_txn(
                &mut node,
                &ep,
                &locks,
                &clock,
                &plan,
                &mut sched,
                &mut report,
                &mut prof,
                &mut buf,
            )?);
            match outcome {
                TxnOutcome::Committing(txn, at) => {
                    lanes[li].waiting = Some((txn, at));
                    lanes[li].retries = 0;
                }
                TxnOutcome::Done => {
                    lanes[li].next += 1;
                    lanes[li].retries = 0;
                }
                TxnOutcome::Retry => {
                    lanes[li].retries += 1;
                    if lanes[li].retries > PLAN_RETRIES {
                        return Err(Error::Protocol(format!(
                            "{} lane {} livelocked on plan {}",
                            node.id(),
                            lane_ids[li],
                            lanes[li].next
                        )));
                    }
                }
            }
            progressed = true;
        }

        if !live {
            // All lanes done. Force out any stragglers, then keep
            // serving page fetches until every node is done too.
            while sched.pending_len() > 0 {
                outer!(flush(
                    &mut node,
                    &mut sched,
                    &mut lanes,
                    &clock,
                    &latency,
                    &samples,
                    &mut report,
                    &mut prof,
                    &mut buf,
                    &mut forced_bytes,
                )?);
            }
            if !finished {
                finished = true;
                remaining.fetch_sub(1, Ordering::AcqRel);
            }
            if remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            if let Some(env) = ep.recv_timeout(Duration::from_micros(500)) {
                outer!(serve(&mut node, &ep, env, &clock, &mut prof, &mut buf)?);
            }
            continue;
        }

        if !progressed {
            // Every live lane is parked on a group-commit window.
            let now = clock.now_us();
            if sched.is_due(now) {
                outer!(flush(
                    &mut node,
                    &mut sched,
                    &mut lanes,
                    &clock,
                    &latency,
                    &samples,
                    &mut report,
                    &mut prof,
                    &mut buf,
                    &mut forced_bytes,
                )?);
            } else if let Some(d) = sched.deadline() {
                let wait = d.saturating_sub(now).clamp(1, 5_000);
                if let Some(env) = ep.recv_timeout(Duration::from_micros(wait)) {
                    outer!(serve(&mut node, &ep, env, &clock, &mut prof, &mut buf)?);
                }
            }
        }
    }

    ep.drain();
    Ok(WorkerOutcome {
        stats: RtNodeStats {
            node: node.id().0,
            wall_us: started.elapsed().as_micros() as u64,
            busy_us: prof.busy_us(),
            disk_us: prof.disk_us,
            net_us: prof.net_us,
            cpu_us: prof.cpu_us(),
            lock_wait_us: prof.lock_wait_us,
            replay_us: 0,
        },
        node,
        report,
        sent: ep.sent(),
        buf,
    })
}

enum TxnOutcome {
    /// Commit record appended; parked in the scheduler.
    Committing(TxnId, SimTime),
    /// Plan consumed (user abort completed).
    Done,
    /// Forced abort (lock conflict); plan not consumed.
    Retry,
}

/// Closes a transaction's span with its outcome and duration.
/// `committed: true` is recorded at `commit_begin` — the commit record
/// exists and the group force is scheduled; the worker loop never
/// exits with an unforced commit, so the label is safe within a run.
fn end_txn_span(
    buf: &mut SpanBuf,
    id: SpanId,
    node: NodeId,
    start: SimTime,
    now: SimTime,
    txn: TxnId,
    committed: bool,
) {
    if id.is_none() {
        return;
    }
    buf.emit(Span {
        id,
        parent: SpanId::NONE,
        node,
        start,
        dur: now.saturating_sub(start),
        kind: SpanKind::Txn { txn, committed },
    });
}

#[allow(clippy::too_many_arguments)]
fn run_txn(
    node: &mut Node,
    ep: &ChannelEndpoint,
    locks: &ShardedLockTable,
    clock: &WallClock,
    plan: &TxnPlan,
    sched: &mut ForceScheduler,
    report: &mut RunReport,
    prof: &mut Prof,
    buf: &mut SpanBuf,
) -> Result<TxnOutcome> {
    let me = node.id();
    let txn = node.begin()?;
    let token = token_of(txn);
    let t_start = clock.now_us();
    let span = buf.alloc();
    for op in &plan.ops {
        let (pid, mode) = match *op {
            PlanOp::Read { pid, .. } => (pid, LockMode::Shared),
            PlanOp::Write { pid, .. } => (pid, LockMode::Exclusive),
        };
        if mode == LockMode::Exclusive && pid.owner != me {
            abort_txn(node, locks, txn, token)?;
            return Err(Error::Protocol(format!(
                "{me} plan writes remote page {pid}: the threaded runtime only writes owned pages"
            )));
        }
        if !acquire(node, ep, locks, pid, token, mode, clock, prof, buf)? {
            abort_txn(node, locks, txn, token)?;
            report.forced_aborts += 1;
            end_txn_span(buf, span, me, t_start, clock.now_us(), txn, false);
            return Ok(TxnOutcome::Retry);
        }
        match *op {
            PlanOp::Read { pid, slot } => {
                if pid.owner == me {
                    ensure_cached(node, pid)?;
                    node.peek_slot(pid, slot).ok_or(Error::NoSuchPage(pid))?;
                } else {
                    remote_read(node, ep, pid, slot, span, clock, prof, buf)?;
                }
            }
            PlanOp::Write { pid, slot, value } => {
                ensure_cached(node, pid)?;
                let before = node.peek_slot(pid, slot).ok_or(Error::NoSuchPage(pid))?;
                // The watchdog checks the pre-update PSN edge, so read
                // it before `log_update` bumps it.
                let psn_before = node
                    .buffer()
                    .peek(pid)
                    .map(|p| p.psn())
                    .unwrap_or(Psn::ZERO);
                node.log_update(
                    txn,
                    pid,
                    PageOp::WriteRange {
                        off: (slot * 8) as u32,
                        before: before.to_le_bytes().to_vec(),
                        after: value.to_le_bytes().to_vec(),
                    },
                )?;
                let lsn = node.txn(txn).map(|t| t.last_lsn).unwrap_or(Lsn::ZERO);
                buf.point(
                    clock.now_us(),
                    me,
                    span,
                    SpanKind::Update {
                        pid,
                        txn,
                        psn: psn_before,
                        lsn,
                        clr: false,
                    },
                );
            }
        }
        report.ops_executed += 1;
    }
    if plan.abort {
        abort_txn(node, locks, txn, token)?;
        report.user_aborts += 1;
        end_txn_span(buf, span, me, t_start, clock.now_us(), txn, false);
        return Ok(TxnOutcome::Done);
    }
    let lsn = node.commit_begin(txn)?;
    // Strict 2PL releases transaction locks at commit_begin; the same
    // early release is safe here because cross-thread visibility of
    // this transaction's updates requires a page ship, and the serving
    // path forces the whole log first (WAL rule).
    locks.release_all(token);
    let now = clock.now_us();
    sched.submit(txn, lsn, now);
    end_txn_span(buf, span, me, t_start, now, txn, true);
    Ok(TxnOutcome::Committing(txn, now))
}

/// Forces the log and acknowledges every commit the force covered.
/// The force itself is attributed to `disk` (on a file-backed WAL it
/// is a real `fdatasync`); ack bookkeeping stays in the enclosing
/// scope's `cpu` remainder. An acknowledging force emits a
/// [`SpanKind::GroupForce`] span covering the batch.
#[allow(clippy::too_many_arguments)]
fn flush(
    node: &mut Node,
    sched: &mut ForceScheduler,
    lanes: &mut [Lane],
    clock: &WallClock,
    latency: &Histogram,
    samples: &Reservoir,
    report: &mut RunReport,
    prof: &mut Prof,
    buf: &mut SpanBuf,
    forced_bytes: &mut u64,
) -> Result<()> {
    let pending = node.log().bytes_written().saturating_sub(*forced_bytes);
    let ft = Instant::now();
    node.force_log()?;
    prof.disk_us += ft.elapsed().as_micros() as u64;
    *forced_bytes = node.log().bytes_written();
    let flushed = node.log().flushed_lsn();
    let mut acked = 0u64;
    for txn in sched.drain_acked(flushed) {
        node.finish_commit(txn)?;
        report.committed += 1;
        acked += 1;
        let now = clock.now_us();
        for lane in lanes.iter_mut() {
            if let Some((w, at)) = lane.waiting {
                if w == txn {
                    let d = now.saturating_sub(at);
                    latency.record(d);
                    samples.record(d);
                    lane.waiting = None;
                    lane.next += 1;
                    break;
                }
            }
        }
    }
    if acked > 0 {
        buf.point(
            clock.now_us(),
            node.id(),
            SpanId::NONE,
            SpanKind::GroupForce {
                node: node.id(),
                txns: acked,
                bytes: pending,
            },
        );
    }
    Ok(())
}

/// Takes `pid` for `token`, serving incoming page fetches while it
/// spins so two nodes waiting on each other's service cannot deadlock.
/// The spin time — minus the nested service work, which lands in its
/// own buckets — is attributed to `lock_wait`.
#[allow(clippy::too_many_arguments)]
fn acquire(
    node: &mut Node,
    ep: &ChannelEndpoint,
    locks: &ShardedLockTable,
    pid: PageId,
    token: u64,
    mode: LockMode,
    clock: &WallClock,
    prof: &mut Prof,
    buf: &mut SpanBuf,
) -> Result<bool> {
    if locks.try_acquire(pid, token, mode) {
        return Ok(true);
    }
    let t = Instant::now();
    let leaf0 = prof.disk_us + prof.net_us;
    let mut won = false;
    for i in 0..ACQUIRE_SPINS {
        if locks.try_acquire(pid, token, mode) {
            won = true;
            break;
        }
        serve_inbox(node, ep, clock, prof, buf)?;
        if i % 64 == 63 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    let nested = (prof.disk_us + prof.net_us).saturating_sub(leaf0);
    prof.lock_wait_us += (t.elapsed().as_micros() as u64).saturating_sub(nested);
    Ok(won)
}

fn abort_txn(node: &mut Node, locks: &ShardedLockTable, txn: TxnId, token: u64) -> Result<()> {
    roll_back(node, txn)?;
    locks.release_all(token);
    Ok(())
}

/// Rolls `txn` back completely (CLRs for every update) and writes its
/// Abort record. Both a live abort and recovery's Undo of a loser run
/// it; the pages it touches are owned, so they come from local disk.
fn roll_back(node: &mut Node, txn: TxnId) -> Result<()> {
    node.start_abort(txn)?;
    loop {
        match node.rollback_step(txn, Lsn::ZERO)? {
            RollbackStep::Done => break,
            RollbackStep::Undone(_) => {}
            RollbackStep::NeedPage(pid) => ensure_cached(node, pid)?,
        }
    }
    node.finish_abort(txn)
}

/// Brings an owned page into the buffer (from disk if necessary). The
/// buffer is sized above the working set, so eviction of a dirty page
/// is an overflow error rather than a silent correctness hazard.
fn ensure_cached(node: &mut Node, pid: PageId) -> Result<()> {
    if node.buffer().contains(pid) {
        return Ok(());
    }
    let (page, _) = node.authoritative_copy(pid)?;
    if let Some(ev) = node.cache_page(page, false)? {
        if ev.dirty {
            return Err(Error::Protocol(format!(
                "{} buffer overflow evicted dirty page {}: raise buffer_frames",
                node.id(),
                ev.page.id()
            )));
        }
    }
    Ok(())
}

/// Fetches a remote page image from its owner and reads one slot. The
/// image is used once and dropped — without callback locking there is
/// no safe way to keep it cached past the transaction's S lock.
///
/// The fetch is traced as a [`SpanKind::Msg`] whose id rides the
/// envelope header, so the owner's Transfer/ship spans parent on it
/// and the causal chain crosses the mesh exactly as in the simulator.
/// The blocking wait for the reply is attributed to `net`; nested
/// service of other nodes' fetches lands in its own buckets.
#[allow(clippy::too_many_arguments)]
fn remote_read(
    node: &mut Node,
    ep: &ChannelEndpoint,
    pid: PageId,
    slot: usize,
    parent: SpanId,
    clock: &WallClock,
    prof: &mut Prof,
    buf: &mut SpanBuf,
) -> Result<u64> {
    let t = Instant::now();
    let leaf0 = prof.disk_us + prof.net_us;
    let me = node.id();
    let payload = encode_pid(pid);
    let nbytes = payload.len() as u64;
    let msg = buf.alloc();
    ep.send_ctx(
        pid.owner,
        MsgKind::LockRequest,
        payload,
        SpanCtx::child(msg, parent),
    )?;
    if !msg.is_none() {
        buf.emit(Span {
            id: msg,
            parent,
            node: me,
            start: clock.now_us(),
            dur: 0,
            kind: SpanKind::Msg {
                kind: MsgKind::LockRequest.label(),
                from: me,
                to: pid.owner,
                bytes: nbytes,
                carries_log: false,
            },
        });
    }
    let deadline = Instant::now() + FETCH_TIMEOUT;
    let value = loop {
        match ep.recv_timeout(Duration::from_millis(1)) {
            Some(env) if env.kind == MsgKind::PageShip => {
                let page = Page::from_bytes(env.payload)?;
                if page.id() == pid {
                    break page.read_slot(slot);
                }
                // A ship we did not ask for; workers have one fetch in
                // flight at a time, so this cannot happen — drop it.
            }
            Some(env) => serve(node, ep, env, clock, prof, buf)?,
            None => {
                if Instant::now() >= deadline {
                    return Err(Error::Protocol(format!("page fetch of {pid} timed out")));
                }
            }
        }
    };
    let nested = (prof.disk_us + prof.net_us).saturating_sub(leaf0);
    prof.net_us += (t.elapsed().as_micros() as u64).saturating_sub(nested);
    value
}

fn serve_inbox(
    node: &mut Node,
    ep: &ChannelEndpoint,
    clock: &WallClock,
    prof: &mut Prof,
    buf: &mut SpanBuf,
) -> Result<()> {
    while let Some(env) = ep.try_recv() {
        serve(node, ep, env, clock, prof, buf)?;
    }
    Ok(())
}

/// Owner-side service: ship the authoritative image of an owned page.
/// If the buffer copy is dirty, the WAL rule applies — our log records
/// may cover its updates, so force the log before the image escapes
/// the node. The force is attributed to `disk` and the rest of the
/// service to `net`; the ship is traced as Transfer + Msg spans
/// parented on the requester's message span.
fn serve(
    node: &mut Node,
    ep: &ChannelEndpoint,
    env: Envelope,
    clock: &WallClock,
    prof: &mut Prof,
    buf: &mut SpanBuf,
) -> Result<()> {
    let t = Instant::now();
    let mut force_us = 0u64;
    match env.kind {
        MsgKind::LockRequest => {
            let pid = decode_pid(&env.payload)?;
            let dirty = node.buffer().is_dirty(pid) == Some(true);
            if dirty {
                let ft = Instant::now();
                node.force_log()?;
                force_us = ft.elapsed().as_micros() as u64;
            }
            let (page, _) = node.authoritative_copy(pid)?;
            let me = node.id();
            let at = clock.now_us();
            // WAL rule at the sender: a dirty image leaves only after
            // the force above; a clean image is trivially covered.
            let wal_ok = !dirty || node.log().fully_forced();
            buf.point(
                at,
                me,
                env.ctx.span,
                SpanKind::Transfer {
                    pid,
                    from: me,
                    to: env.from,
                    psn: page.psn(),
                    why: TransferWhy::Ship,
                    wal_ok,
                },
            );
            let bytes = page.to_bytes();
            let nbytes = bytes.len() as u64;
            let msg = buf.alloc();
            ep.send_ctx(
                env.from,
                MsgKind::PageShip,
                bytes,
                SpanCtx::child(msg, env.ctx.span),
            )?;
            if !msg.is_none() {
                buf.emit(Span {
                    id: msg,
                    parent: env.ctx.span,
                    node: me,
                    start: at,
                    dur: 0,
                    kind: SpanKind::Msg {
                        kind: MsgKind::PageShip.label(),
                        from: me,
                        to: env.from,
                        bytes: nbytes,
                        carries_log: false,
                    },
                });
            }
        }
        other => {
            return Err(Error::Protocol(format!(
                "threaded runtime got unexpected {other:?} message"
            )));
        }
    }
    prof.disk_us += force_us;
    prof.net_us += (t.elapsed().as_micros() as u64).saturating_sub(force_us);
    Ok(())
}

/// Serializes the per-node profile as the `"nodes":[…],"folded":[…]`
/// JSON fragment shared by every threaded-runtime telemetry export
/// (`rtbench`, `obsreport --compare`) — the same skeleton the
/// simulator's `export_json` emits, so one renderer draws both.
///
/// The folded lines are `flamegraph.pl` input: `label;n<id>;<bucket>`
/// frames weighted by measured µs. Zero buckets are elided, matching
/// the simulator's export.
pub fn profile_fragment(label: &str, nodes: &[RtNodeStats]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("\"nodes\":[");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let util = (n.busy_us * 100).checked_div(n.wall_us).unwrap_or(0);
        let _ = write!(
            out,
            "{{\"node\":{},\"busy_us\":{},\"total_us\":{},\"utilization_pct\":{util},\"buckets\":{{\"disk\":{},\"cpu\":{},\"net\":{},\"lock_wait\":{},\"replay\":{}}}}}",
            n.node, n.busy_us, n.wall_us, n.disk_us, n.cpu_us, n.net_us, n.lock_wait_us, n.replay_us
        );
    }
    out.push_str("],\"folded\":[");
    let mut first = true;
    for n in nodes {
        for (bucket, us) in [
            (Bucket::Disk, n.disk_us),
            (Bucket::Cpu, n.cpu_us),
            (Bucket::Net, n.net_us),
            (Bucket::LockWait, n.lock_wait_us),
            (Bucket::Replay, n.replay_us),
        ] {
            if us == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{};n{};{} {us}\"",
                cblog_common::obs::json_escape(label),
                n.node,
                bucket.label()
            );
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(owner: u32, index: u32) -> PageId {
        PageId::new(NodeId(owner), index)
    }

    fn wplan(client: u32, stream: usize, writes: &[(PageId, usize, u64)]) -> TxnPlan {
        TxnPlan {
            client: NodeId(client),
            stream,
            ops: writes
                .iter()
                .map(|&(pid, slot, value)| PlanOp::Write { pid, slot, value })
                .collect(),
            abort: false,
        }
    }

    #[test]
    fn two_threaded_nodes_commit_locally() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        let plans = vec![
            wplan(0, 0, &[(pid(0, 0), 0, 11)]),
            wplan(1, 0, &[(pid(1, 0), 0, 22)]),
        ];
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 2);
        assert_eq!(report.forced_aborts, 0);
        let stats = tc.last_stats().unwrap();
        assert_eq!(stats.commit_msgs, 0, "commit path sends no messages");
        assert_eq!(stats.msgs, 0, "purely local plans need no traffic at all");
        assert!(stats.forces >= 2, "each commit forced its local log");

        let img = tc.page_image(pid(0, 0)).unwrap();
        let page = Page::from_bytes(img).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 11);
    }

    #[test]
    fn remote_read_crosses_the_mesh() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        // Node 0 commits a value; then node 1 reads it remotely.
        let report = tc.run(&[wplan(0, 0, &[(pid(0, 3), 2, 77)])]).unwrap();
        assert_eq!(report.committed, 1);
        let plans = vec![TxnPlan {
            client: NodeId(1),
            stream: 0,
            ops: vec![PlanOp::Read {
                pid: pid(0, 3),
                slot: 2,
            }],
            abort: false,
        }];
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 1);
        let stats = tc.last_stats().unwrap();
        assert_eq!(stats.msgs, 2, "one fetch request, one page ship");
        assert_eq!(stats.commit_msgs, 0);
    }

    #[test]
    fn user_abort_rolls_back_on_a_real_thread() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig::default()).unwrap();
        let setup = tc.run(&[wplan(0, 0, &[(pid(0, 1), 0, 5)])]).unwrap();
        assert_eq!(setup.committed, 1);
        let plans = vec![TxnPlan {
            client: NodeId(0),
            stream: 0,
            ops: vec![PlanOp::Write {
                pid: pid(0, 1),
                slot: 0,
                value: 99,
            }],
            abort: true,
        }];
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 0);
        assert_eq!(report.user_aborts, 1);
        assert_eq!(tc.locks.locked_pages(), 0, "abort released its locks");
        let page = Page::from_bytes(tc.page_image(pid(0, 1)).unwrap()).unwrap();
        assert_eq!(page.read_slot(0).unwrap(), 5, "abort undone");
    }

    #[test]
    fn file_backed_wals_sync_for_real() {
        let dir = std::env::temp_dir().join(format!(
            "cblog-rt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![4, 4],
            wal: WalBacking::Dir(dir.clone()),
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        let report = tc
            .run(&[
                wplan(0, 0, &[(pid(0, 0), 0, 1)]),
                wplan(1, 0, &[(pid(1, 0), 0, 2)]),
            ])
            .unwrap();
        assert_eq!(report.committed, 2);
        assert!(dir.join("node0.wal").exists());
        assert!(dir.join("node1.wal").exists());
        assert!(
            std::fs::metadata(dir.join("node0.wal")).unwrap().len() > 0,
            "commit records reached the file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn window_policy_batches_forces_across_lanes() {
        let mut tc = ThreadCluster::new(ThreadClusterConfig {
            owned_pages: vec![16],
            group_commit: GroupCommitPolicy::Window {
                window_us: 2_000,
                max_batch: 4,
            },
            ..ThreadClusterConfig::default()
        })
        .unwrap();
        // 4 lanes × 4 txns, each lane on its own page: commits park
        // together, so forces come out well below one per commit.
        let mut plans = Vec::new();
        for lane in 0..4usize {
            for t in 0..4u64 {
                plans.push(wplan(0, lane, &[(pid(0, lane as u32), 0, t + 1)]));
            }
        }
        let report = tc.run(&plans).unwrap();
        assert_eq!(report.committed, 16);
        let stats = tc.last_stats().unwrap();
        assert!(
            stats.forces <= 8,
            "expected batched forces, got {} for 16 commits",
            stats.forces
        );
        let snap = tc.latency().snapshot();
        assert_eq!(snap.count, 16, "every commit's latency was recorded");
        assert_eq!(
            tc.locks.locked_pages(),
            0,
            "parked commits hold no locks past commit_begin"
        );
    }
}
