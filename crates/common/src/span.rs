//! Causal cross-node tracing: spans with cluster-unique ids and causal
//! parents, per-page PSN lineage, an online invariant watchdog, and
//! Chrome trace-event export.
//!
//! The paper's correctness argument is a *cross-node* total order: every
//! update to a page bumps its PSN under an exclusive lock, so the update
//! history of one page is totally ordered across all nodes even though
//! each node logs privately (LSNs are never compared across nodes).
//! Node-local metrics (`obs`) cannot check that order — they see one
//! node's slice of it. Spans are the one event record, and the
//! [`Tracer`] is the cluster-wide instrument: every traced unit
//! (transaction, page transfer, recovery phase, per-page replay hop,
//! protocol message) becomes a [`Span`] with a cluster-unique
//! [`SpanId`] and a causal parent, and cross-node edges
//! are carried explicitly in message headers (`cblog_net::MsgHeader`)
//! instead of being inferred after the fact.
//!
//! Four consumers sit on the span stream:
//!
//! * **PSN lineage** ([`Tracer::lineage`]): for any page, the totally
//!   ordered update / transfer / replay history across all nodes.
//! * **Invariant watchdog**: checks the paper's invariants over a span
//!   sequence — PSNs strictly increasing per page, the WAL rule on
//!   page writes and transfers, zero log records crossing the network,
//!   replay visiting PSNs in global order — and fails loudly with the
//!   offending lineage slice. [`check_spans`] is the one check over a
//!   span slice; the [`Tracer`] runs the same watchdog online inside
//!   [`Tracer::emit`] (so it also sees spans past its capacity) and
//!   [`Tracer::check`] renders its findings through the same renderer,
//!   so both give identical messages for the same spans.
//! * **Post-mortem tail** ([`render_tail`], [`Tracer::tail`]): the last
//!   few spans of every node, printed when an oracle check fails. A
//!   run with tracing off has no tail; re-run the same seed with
//!   tracing on — tracing draws no randomness and charges no clock, so
//!   the re-run is the same run.
//! * **Chrome trace export** ([`Tracer::chrome_trace_json`]): the whole
//!   span store as trace-event JSON loadable in `chrome://tracing` /
//!   Perfetto, one process lane per node.
//!
//! Tracing is an observer: it never charges the simulated clock and
//! draws no randomness, so enabling it cannot change a run's outcome,
//! and same-seed runs produce byte-identical exports. A disabled
//! [`Tracer`] is a `None` behind the handle — emission is a single
//! branch, which is what keeps the tracing-off overhead unmeasurable.
//!
//! # Two tiers: online `Tracer` (sim) and buffered [`SpanBuf`] (threads)
//!
//! The `Tracer` keeps `Rc<RefCell<_>>` internals and stays
//! single-threaded on purpose: its value is the *deterministic* causal
//! order of spans, which only the simulator's serialized schedule
//! provides — span ids come from one shared monotone counter and the
//! watchdog asserts global orderings online, as spans arrive.
//!
//! The threaded runtime gets the same span vocabulary through
//! [`SpanBuf`]: a plain-data, `Send` per-thread buffer whose ids are
//! namespaced by worker index (`(worker+1) << 48 | seq`), so threads
//! allocate without coordination and causal parents still cross thread
//! boundaries via the usual [`SpanCtx`] wire format. At join the
//! buffers are merged deterministically ([`SpanBuf::merge`]: ascending
//! worker order, local emission order preserved, ids rewritten to a
//! single monotone sequence) and the merged trace is checked by
//! [`check_spans`] on one thread. The merge order is sound for every
//! invariant the watchdog checks because each of them is per-page,
//! and a page is only ever updated/replayed by its
//! owner's thread: per-page span order inside one buffer *is* the true
//! order, and concatenation preserves it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::ids::{Lsn, NodeId, PageId, Psn, TxnId};
use crate::obs::json_escape;
use crate::simclock::SimTime;
use crate::trace::RecoveryPhase;

/// Cluster-unique span identifier. The simulator allocates ids from
/// one shared monotone counter, so allocation order is deterministic;
/// threaded workers allocate from disjoint per-worker namespaces
/// ([`SpanBuf`]) that are rewritten into one monotone sequence when the
/// buffers are merged. Either way two live spans never share an id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (no parent / tracing disabled).
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            f.write_str("-")
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

/// Causal context propagated with an operation: the operation's own
/// span and that span's parent. This is the payload of a message
/// header (`cblog_net::MsgHeader` wraps one), so the receiving side of
/// a cross-node edge knows exactly which span caused the message.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpanCtx {
    /// The span the current operation runs under.
    pub span: SpanId,
    /// That span's causal parent.
    pub parent: SpanId,
}

impl SpanCtx {
    /// The empty context (tracing disabled / no active span).
    pub const NONE: SpanCtx = SpanCtx {
        span: SpanId::NONE,
        parent: SpanId::NONE,
    };

    /// Context for a root span.
    pub fn root(span: SpanId) -> SpanCtx {
        SpanCtx {
            span,
            parent: SpanId::NONE,
        }
    }

    /// Context for `span` caused by `parent`.
    pub fn child(span: SpanId, parent: SpanId) -> SpanCtx {
        SpanCtx { span, parent }
    }
}

/// Why a page image crossed the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferWhy {
    /// Owner → requester ship on a page fetch.
    Ship,
    /// Holder → requester ship answering an exclusive callback.
    Callback,
    /// Dirty remote page replaced from a cache back to its owner.
    Replace,
    /// Recovery replay shuttle hop (§2.4).
    Recovery,
}

impl TransferWhy {
    /// Short label for lineage lines and trace export.
    pub fn label(self) -> &'static str {
        match self {
            TransferWhy::Ship => "ship",
            TransferWhy::Callback => "callback",
            TransferWhy::Replace => "replace",
            TransferWhy::Recovery => "recovery",
        }
    }
}

/// B+-tree structural operation (the `access` crate's traced units).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeOp {
    /// Root-to-leaf descent.
    Traverse,
    /// Leaf split (new page allocated, separator posted).
    Split,
    /// Leaf merge (an emptied leaf folded out of its parent, its
    /// record freed).
    Merge,
}

impl TreeOp {
    /// Short label for lineage lines and trace export.
    pub fn label(self) -> &'static str {
        match self {
            TreeOp::Traverse => "traverse",
            TreeOp::Split => "split",
            TreeOp::Merge => "merge",
        }
    }
}

/// What a span records: the traced unit or causal edge.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanKind {
    /// A transaction's lifetime on its home node (begin → outcome).
    Txn {
        /// The transaction.
        txn: TxnId,
        /// True if it committed, false if it aborted.
        committed: bool,
    },
    /// One transaction's commit pipeline (submit → durable → acked).
    Commit {
        /// The committing transaction.
        txn: TxnId,
    },
    /// One log force acknowledging a batch of commits (group commit).
    GroupForce {
        /// The forcing node.
        node: NodeId,
        /// Commit records covered by this force.
        txns: u64,
        /// Log bytes made durable.
        bytes: u64,
    },
    /// One logged update: the page's PSN edge `psn → psn+1`.
    Update {
        /// The updated page.
        pid: PageId,
        /// The updating transaction.
        txn: TxnId,
        /// PSN *before* the update (the edge is `psn → psn.next()`).
        psn: Psn,
        /// LSN of the log record in the updater's local log.
        lsn: Lsn,
        /// True for a compensation (undo) update.
        clr: bool,
    },
    /// A page image crossing the network.
    Transfer {
        /// The page.
        pid: PageId,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The page's PSN at ship time.
        psn: Psn,
        /// Why the page moved.
        why: TransferWhy,
        /// WAL rule at the sender: true iff every local log record was
        /// forced before a *dirty* image left the node (always true for
        /// clean images).
        wal_ok: bool,
    },
    /// A global lock granted by an owner to a remote transaction.
    LockGrant {
        /// The locked page.
        pid: PageId,
        /// The granting owner node.
        owner: NodeId,
        /// The requesting node.
        to: NodeId,
        /// The requesting transaction.
        txn: TxnId,
    },
    /// An owned page image written to the owner's disk.
    PageWrite {
        /// The page.
        pid: PageId,
        /// The writing owner node.
        node: NodeId,
        /// The PSN of the written image.
        psn: Psn,
        /// WAL rule: true iff the owner's own covering records were
        /// forced before the write.
        wal_ok: bool,
    },
    /// A node crashed (volatile state lost).
    Crash {
        /// The crashed node.
        node: NodeId,
    },
    /// A whole recovery pass (paper §2.3/§2.4).
    Recovery {
        /// How many nodes restarted in this pass.
        nodes: u32,
    },
    /// One recovery phase completed on a crashed node's behalf.
    Phase {
        /// The recovering node.
        node: NodeId,
        /// The completed phase.
        phase: RecoveryPhase,
    },
    /// One per-page replay hop: `node` applied its own log records to
    /// the page while it held the replay shuttle (§2.4).
    ReplayHop {
        /// The page under recovery.
        pid: PageId,
        /// The node whose log was replayed.
        node: NodeId,
        /// Page PSN when the hop began.
        from_psn: Psn,
        /// Page PSN when the hop ended.
        to_psn: Psn,
        /// Log records applied during the hop.
        applied: u64,
    },
    /// A protocol message (the cross-node causal edge, recorded from
    /// its `MsgHeader` by the transport).
    Msg {
        /// Message kind label (`MsgKind::label`).
        kind: &'static str,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Accounted payload bytes (header included).
        bytes: u64,
        /// True iff the payload carries log records — the paper's
        /// design never does; baselines do.
        carries_log: bool,
    },
    /// A B+-tree structural operation (`access` crate).
    Tree {
        /// The operation.
        op: TreeOp,
        /// The transaction driving it.
        txn: TxnId,
    },
    /// §2.5 log-space reclamation: a node discarded the prefix of its
    /// local log below `upto`. The protocol may only reclaim records
    /// already covered by the master checkpoint, so `upto` past
    /// `anchor` is a violation the watchdog flags.
    LogTruncate {
        /// The reclaiming node.
        node: NodeId,
        /// New start of the retained log (everything below is gone).
        upto: Lsn,
        /// The master-record checkpoint anchor at reclamation time.
        anchor: Lsn,
    },
}

impl SpanKind {
    /// The page this span is about, if any — the lineage filter.
    pub fn page(&self) -> Option<PageId> {
        match self {
            SpanKind::Update { pid, .. }
            | SpanKind::Transfer { pid, .. }
            | SpanKind::LockGrant { pid, .. }
            | SpanKind::PageWrite { pid, .. }
            | SpanKind::ReplayHop { pid, .. } => Some(*pid),
            _ => None,
        }
    }

    /// Short category name (Chrome trace `cat`, lane naming).
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Txn { .. } => "txn",
            SpanKind::Commit { .. } => "commit",
            SpanKind::GroupForce { .. } => "force",
            SpanKind::Update { .. } => "update",
            SpanKind::Transfer { .. } => "transfer",
            SpanKind::LockGrant { .. } => "lock",
            SpanKind::PageWrite { .. } => "write",
            SpanKind::Crash { .. } => "crash",
            SpanKind::Recovery { .. } => "recovery",
            SpanKind::Phase { .. } => "recovery",
            SpanKind::ReplayHop { .. } => "replay",
            SpanKind::Msg { .. } => "msg",
            SpanKind::Tree { .. } => "tree",
            SpanKind::LogTruncate { .. } => "wal",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKind::Txn { txn, committed } => {
                write!(
                    f,
                    "txn {txn} {}",
                    if *committed { "commit" } else { "abort" }
                )
            }
            SpanKind::Commit { txn } => write!(f, "commit-pipeline {txn}"),
            SpanKind::GroupForce { node, txns, bytes } => {
                write!(f, "group-force {node} {txns}txns {bytes}B")
            }
            SpanKind::Update {
                pid,
                txn,
                psn,
                lsn,
                clr,
            } => write!(
                f,
                "{} {pid} psn {}→{} {lsn} by {txn}",
                if *clr { "undo" } else { "update" },
                psn.0,
                psn.0 + 1
            ),
            SpanKind::Transfer {
                pid,
                from,
                to,
                psn,
                why,
                wal_ok,
            } => write!(
                f,
                "{} {pid} {from}→{to} @psn {}{}",
                why.label(),
                psn.0,
                if *wal_ok { "" } else { " WAL-VIOLATION" }
            ),
            SpanKind::LockGrant {
                pid,
                owner,
                to,
                txn,
            } => {
                write!(f, "lock-grant {pid} {owner}→{to} for {txn}")
            }
            SpanKind::PageWrite {
                pid,
                node,
                psn,
                wal_ok,
            } => write!(
                f,
                "disk-write {pid} on {node} @psn {}{}",
                psn.0,
                if *wal_ok { "" } else { " WAL-VIOLATION" }
            ),
            SpanKind::Crash { node } => write!(f, "crash {node}"),
            SpanKind::Recovery { nodes } => write!(f, "recovery {nodes} node(s)"),
            SpanKind::Phase { node, phase } => write!(f, "phase {phase} for {node}"),
            SpanKind::ReplayHop {
                pid,
                node,
                from_psn,
                to_psn,
                applied,
            } => write!(
                f,
                "replay-hop {pid} on {node} psn {}→{} ({applied} applied)",
                from_psn.0, to_psn.0
            ),
            SpanKind::Msg {
                kind,
                from,
                to,
                bytes,
                ..
            } => {
                write!(f, "msg {kind} {from}→{to} {bytes}B")
            }
            SpanKind::Tree { op, txn } => write!(f, "btree-{} by {txn}", op.label()),
            SpanKind::LogTruncate { node, upto, anchor } => {
                write!(f, "log-truncate {node} upto {upto} (anchor {anchor})")
            }
        }
    }
}

/// One traced unit: id, causal parent, emitting node, sim-time
/// interval, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Cluster-unique id.
    pub id: SpanId,
    /// Causal parent ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// The node the span is attributed to.
    pub node: NodeId,
    /// Start sim-time, µs.
    pub start: SimTime,
    /// Duration, µs (0 for point events).
    pub dur: SimTime,
    /// The payload.
    pub kind: SpanKind,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}us {} {}←{}] {}",
            self.start, self.node, self.id, self.parent, self.kind
        )
    }
}

/// One invariant violation detected by the watchdog.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The span that violated the invariant.
    pub span: SpanId,
    /// The page involved, if page-scoped (drives the lineage slice).
    pub pid: Option<PageId>,
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.what)
    }
}

/// Watchdog state: per-page PSN frontiers and the violations found so
/// far. Fed span by span — online by [`Tracer::emit`], over a slice by
/// [`check_spans`]; a crash clears the frontiers because PSNs above the
/// durable coverage are legitimately regenerated by post-recovery
/// execution.
#[derive(Default)]
struct Watchdog {
    /// Highest PSN each page has reached via update/replay edges.
    hi_psn: BTreeMap<PageId, Psn>,
    /// Last PSN each page was replayed to (replay-order check).
    replay_hi: BTreeMap<PageId, Psn>,
    violations: Vec<Violation>,
}

impl Watchdog {
    fn observe(&mut self, span: &Span) {
        match &span.kind {
            SpanKind::Update { pid, psn, .. } => {
                let after = psn.next();
                if let Some(&hi) = self.hi_psn.get(pid) {
                    if after <= hi {
                        self.violations.push(Violation {
                            span: span.id,
                            pid: Some(*pid),
                            what: format!(
                                "PSN not strictly increasing on {pid}: update edge {}→{} \
                                 but page already reached psn {}",
                                psn.0, after.0, hi.0
                            ),
                        });
                    }
                }
                let e = self.hi_psn.entry(*pid).or_insert(after);
                *e = (*e).max(after);
            }
            SpanKind::ReplayHop {
                pid,
                from_psn,
                to_psn,
                ..
            } => {
                if to_psn < from_psn {
                    self.violations.push(Violation {
                        span: span.id,
                        pid: Some(*pid),
                        what: format!(
                            "replay hop moved {pid} backwards: psn {}→{}",
                            from_psn.0, to_psn.0
                        ),
                    });
                }
                if let Some(&r) = self.replay_hi.get(pid) {
                    if *from_psn < r {
                        self.violations.push(Violation {
                            span: span.id,
                            pid: Some(*pid),
                            what: format!(
                                "replay out of global PSN order on {pid}: hop starts at \
                                 psn {} after page was already replayed to psn {}",
                                from_psn.0, r.0
                            ),
                        });
                    }
                }
                let e = self.replay_hi.entry(*pid).or_insert(*to_psn);
                *e = (*e).max(*to_psn);
                let h = self.hi_psn.entry(*pid).or_insert(*to_psn);
                *h = (*h).max(*to_psn);
            }
            // Spans whose flags are clean fall through to the catch-all:
            // the watchdog only acts on the violating shapes.
            SpanKind::Transfer {
                pid,
                from,
                to,
                wal_ok: false,
                why,
                ..
            } => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: Some(*pid),
                    what: format!(
                        "WAL rule violated: dirty {pid} left {from} for {to} ({}) \
                         with unforced covering log records",
                        why.label()
                    ),
                });
            }
            SpanKind::PageWrite {
                pid,
                node,
                wal_ok: false,
                ..
            } => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: Some(*pid),
                    what: format!(
                        "WAL rule violated: {pid} written to disk on {node} with \
                         unforced covering log records"
                    ),
                });
            }
            SpanKind::Msg {
                kind,
                from,
                to,
                carries_log: true,
                ..
            } => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: None,
                    what: format!(
                        "log records crossed the network: {kind} {from}→{to} \
                         (the paper's design ships none)"
                    ),
                });
            }
            SpanKind::LogTruncate { node, upto, anchor } if upto > anchor => {
                self.violations.push(Violation {
                    span: span.id,
                    pid: None,
                    what: format!(
                        "log-space protocol violated: {node} reclaimed its log up to \
                         {upto}, past the master checkpoint anchor {anchor} — records \
                         newer than the checkpoint were discarded"
                    ),
                });
            }
            SpanKind::Crash { .. } => {
                // Unforced updates above the durable coverage died with
                // the volatile state; recovery rebuilds a lower PSN and
                // execution legitimately re-walks those numbers.
                self.hi_psn.clear();
                self.replay_hi.clear();
            }
            _ => {}
        }
    }
}

/// The watchdog over a span sequence: observes `spans` in order and
/// passes iff no span violates an invariant; otherwise returns every
/// violation with the offending page's lineage slice. This is the
/// check for a trace that was recorded without an online watchdog
/// (the threaded engine's merged [`SpanBuf`] trace); it returns the
/// same message [`Tracer::check`] returns for the same spans.
pub fn check_spans(spans: &[Span]) -> std::result::Result<(), String> {
    let mut w = Watchdog::default();
    for s in spans {
        w.observe(s);
    }
    render_violations(&w.violations, spans)
}

/// `Ok` when `violations` is empty; otherwise an error message listing
/// each violation with its page's lineage slice taken from `spans`:
/// the last 12 spans up to the offending one, not the whole history.
fn render_violations(violations: &[Violation], spans: &[Span]) -> std::result::Result<(), String> {
    if violations.is_empty() {
        return Ok(());
    }
    let mut msg = format!("trace watchdog: {} violation(s)\n", violations.len());
    for v in violations {
        let _ = writeln!(msg, "- {v}");
        if let Some(pid) = v.pid {
            let upto: Vec<&Span> = lineage(spans, pid).take_while(|s| s.id <= v.span).collect();
            let tail = upto.len().saturating_sub(12);
            if tail > 0 {
                let _ = writeln!(msg, "    … {tail} earlier span(s)");
            }
            for s in &upto[tail..] {
                let _ = writeln!(msg, "    {s}");
            }
        }
    }
    Err(msg)
}

/// The PSN lineage of `pid` in `spans`: every page-scoped span
/// mentioning it plus the crash markers that punctuate its history, in
/// emission (= causal) order.
fn lineage(spans: &[Span], pid: PageId) -> impl Iterator<Item = &Span> {
    spans
        .iter()
        .filter(move |s| s.kind.page() == Some(pid) || matches!(s.kind, SpanKind::Crash { .. }))
}

/// Post-mortem view of `spans`: for every node that emitted one, its
/// last `per_node` spans, oldest first (the newest span prints last).
/// Nodes appear in id order, each under a header naming the node and
/// how many of its spans the tail shows.
pub fn render_tail(spans: &[Span], per_node: usize) -> String {
    let mut tails: BTreeMap<NodeId, (usize, Vec<&Span>)> = BTreeMap::new();
    for s in spans.iter().rev() {
        let (seen, tail) = tails.entry(s.node).or_default();
        *seen += 1;
        if tail.len() < per_node {
            tail.push(s);
        }
    }
    let mut out = String::new();
    for (node, (seen, tail)) in tails {
        let _ = writeln!(out, "--- {node}: last {} of {seen} span(s) ---", tail.len());
        for s in tail.iter().rev() {
            let _ = writeln!(out, "  {s}");
        }
    }
    out
}

struct TracerInner {
    next_id: u64,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    watchdog: Watchdog,
}

/// Shared handle to the cluster-wide span store (cheap `Rc` clone; the
/// simulator is single-threaded). A disabled tracer holds no store at
/// all, so the emission fast-path with tracing off is one `Option`
/// check.
///
/// The store is bounded: the first `capacity` spans are kept and later
/// ones counted in [`Tracer::dropped`] — keeping the *head* preserves
/// lineage from the start of a run, and the watchdog still observes
/// every span (it runs before the capacity check).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TracerInner>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(i) => write!(f, "Tracer({} spans)", i.borrow().spans.len()),
        }
    }
}

/// Default bound on retained spans.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

impl Tracer {
    /// A disabled tracer: allocation returns [`SpanId::NONE`], emission
    /// is a no-op.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer retaining up to `capacity` spans (clamped to
    /// at least 1), watchdog on.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TracerInner {
                next_id: 0,
                spans: Vec::new(),
                cap: capacity.max(1),
                dropped: 0,
                watchdog: Watchdog::default(),
            }))),
        }
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocates the next cluster-unique span id ([`SpanId::NONE`] when
    /// disabled).
    pub fn alloc(&self) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(i) => {
                let mut t = i.borrow_mut();
                t.next_id += 1;
                SpanId(t.next_id)
            }
        }
    }

    /// Records a completed span. The watchdog observes it even when the
    /// bounded store is full.
    pub fn emit(&self, span: Span) {
        let Some(i) = &self.inner else { return };
        let mut t = i.borrow_mut();
        t.watchdog.observe(&span);
        if t.spans.len() < t.cap {
            t.spans.push(span);
        } else {
            t.dropped += 1;
        }
    }

    /// Allocates an id and records a zero-duration span in one call;
    /// returns the id (NONE when disabled).
    pub fn point(&self, at: SimTime, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        let id = self.alloc();
        if !id.is_none() {
            self.emit(Span {
                id,
                parent,
                node,
                start: at,
                dur: 0,
                kind,
            });
        }
        id
    }

    /// Number of spans retained.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().spans.len())
    }

    /// True when nothing has been recorded (or tracing is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans emitted past the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    /// A copy of every retained span, in emission order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().spans.clone())
    }

    /// Violations the watchdog has found so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().watchdog.violations.clone())
    }

    /// The page with the most page-scoped spans (lineage default).
    pub fn busiest_page(&self) -> Option<PageId> {
        let Some(i) = &self.inner else { return None };
        let mut counts: BTreeMap<PageId, usize> = BTreeMap::new();
        for s in &i.borrow().spans {
            if let Some(pid) = s.kind.page() {
                *counts.entry(pid).or_default() += 1;
            }
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.to_u64().cmp(&a.0.to_u64())))
            .map(|(pid, _)| pid)
    }

    /// The PSN lineage of `pid`: every page-scoped span mentioning it
    /// plus the crash markers that punctuate its history, in emission
    /// (= causal) order.
    pub fn lineage(&self, pid: PageId) -> Vec<Span> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        lineage(&i.borrow().spans, pid).cloned().collect()
    }

    /// Human-readable lineage dump for `pid`, one line per span.
    pub fn render_lineage(&self, pid: PageId) -> String {
        let mut out = format!("PSN lineage of {pid}:\n");
        let lin = self.lineage(pid);
        if lin.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for s in lin {
            out.push_str(&format!("  {s}\n"));
        }
        out
    }

    /// Passes iff the online watchdog saw no violation — including in
    /// spans past the store's capacity; otherwise returns the message
    /// [`check_spans`] gives, with lineage slices from the retained
    /// spans.
    pub fn check(&self) -> std::result::Result<(), String> {
        let Some(i) = &self.inner else { return Ok(()) };
        let t = i.borrow();
        render_violations(&t.watchdog.violations, &t.spans)
    }

    /// The post-mortem tail of the retained spans ([`render_tail`]);
    /// `None` when tracing is off.
    pub fn tail(&self, per_node: usize) -> Option<String> {
        let i = self.inner.as_ref()?;
        let t = i.borrow();
        let mut out = render_tail(&t.spans, per_node);
        if t.dropped > 0 {
            let _ = writeln!(
                out,
                "… {} later span(s) not retained: the store was full",
                t.dropped
            );
        }
        Some(out)
    }

    /// Exports every retained span as Chrome trace-event JSON (the
    /// "JSON object format": `{"traceEvents": [...]}`), loadable in
    /// `chrome://tracing` and Perfetto. Nodes become processes; span
    /// categories become named thread lanes; cross-node transfers and
    /// messages additionally emit flow-event pairs so the causal edge
    /// is drawn as an arrow.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut events: Vec<String> = Vec::new();
        // Lane metadata: one process per node, one named lane per
        // category present on that node.
        let mut lanes: BTreeMap<(u32, usize), &'static str> = BTreeMap::new();
        for s in &spans {
            let cat = s.kind.category();
            lanes.insert((s.node.0, lane_of(cat)), cat);
            if let SpanKind::Transfer { to, .. } | SpanKind::Msg { to, .. } = &s.kind {
                lanes.insert((to.0, lane_of(s.kind.category())), cat);
            }
        }
        let mut seen_procs = std::collections::BTreeSet::new();
        for ((node, lane), cat) in &lanes {
            if seen_procs.insert(*node) {
                events.push(format!(
                    "{{\"ph\":\"M\",\"pid\":{node},\"tid\":0,\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"node {node}\"}}}}"
                ));
            }
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{lane},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(cat)
            ));
        }
        for s in &spans {
            let lane = lane_of(s.kind.category());
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"span\":\"{}\",\"parent\":\"{}\"}}}}",
                s.node.0,
                lane,
                s.start,
                s.dur,
                json_escape(&s.kind.to_string()),
                s.kind.category(),
                s.id,
                s.parent
            ));
            // Cross-node edges as flow arrows.
            let edge = match &s.kind {
                SpanKind::Transfer { from, to, .. } => Some((*from, *to)),
                SpanKind::Msg { from, to, .. } => Some((*from, *to)),
                _ => None,
            };
            if let Some((from, to)) = edge {
                events.push(format!(
                    "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{},\
                     \"name\":\"edge\",\"cat\":\"flow\"}}",
                    from.0, lane, s.start, s.id.0
                ));
                events.push(format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{},\
                     \"name\":\"edge\",\"cat\":\"flow\"}}",
                    to.0,
                    lane,
                    s.start + s.dur,
                    s.id.0
                ));
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(&events.join(","));
        out.push_str("]}");
        out
    }
}

/// Send-safe per-thread span buffer for the threaded runtime.
///
/// Worker threads cannot share the [`Tracer`] (it is `Rc`-based and
/// its watchdog asserts a serialized global order), so each worker
/// records into its own `SpanBuf` and the buffers are merged on the
/// main thread at join. Ids are allocated coordination-free from the
/// worker's own namespace: `((worker + 1) << 48) | seq`. Raw buffer
/// ids therefore always have bits ≥ 48 set, which is how
/// [`SpanBuf::merge`] tells an in-batch parent reference (rewritten)
/// from a reference to an already-merged span id (kept verbatim).
///
/// Like the tracer's store, the buffer is bounded: the first
/// `capacity` spans are kept, later ones are counted in
/// [`SpanBuf::dropped`]. Unlike the tracer there is no online
/// watchdog — dropped spans are invisible to [`check_spans`], so
/// a nonzero drop count means reduced invariant coverage, not just a
/// shorter export.
#[derive(Debug, Default)]
pub struct SpanBuf {
    worker: u32,
    seq: u64,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    enabled: bool,
}

impl SpanBuf {
    /// A disabled buffer: allocation returns [`SpanId::NONE`],
    /// emission is a no-op. This is the tracing-off fast path.
    pub fn disabled() -> SpanBuf {
        SpanBuf::default()
    }

    /// An enabled buffer for `worker` (its id namespace) retaining up
    /// to `capacity` spans (clamped to at least 1).
    pub fn new(worker: u32, capacity: usize) -> SpanBuf {
        SpanBuf {
            worker,
            seq: 0,
            spans: Vec::new(),
            cap: capacity.max(1),
            dropped: 0,
            enabled: true,
        }
    }

    /// Is this buffer recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates the next id in this worker's namespace
    /// ([`SpanId::NONE`] when disabled).
    pub fn alloc(&mut self) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.seq += 1;
        SpanId(((self.worker as u64 + 1) << 48) | self.seq)
    }

    /// Records a completed span (bounded: head kept, overflow counted).
    pub fn emit(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Allocates an id and records a zero-duration span in one call;
    /// returns the id (NONE when disabled).
    pub fn point(&mut self, at: SimTime, node: NodeId, parent: SpanId, kind: SpanKind) -> SpanId {
        let id = self.alloc();
        if !id.is_none() {
            self.emit(Span {
                id,
                parent,
                node,
                start: at,
                dur: 0,
                kind,
            });
        }
        id
    }

    /// Number of spans retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans emitted past the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Merges per-thread buffers into one deterministic span sequence.
    ///
    /// Buffers are ordered by ascending worker index and concatenated
    /// with local emission order preserved; ids are rewritten to a
    /// monotone sequence continuing from `*next_id` (which is advanced
    /// past the ids consumed). Parent references are rewritten through
    /// the same map — including references into *other* buffers of the
    /// batch, which is how cross-thread causal edges carried in message
    /// headers survive the merge. A parent below the `1 << 48` worker
    /// namespace is an id from an earlier merge batch and is kept
    /// verbatim; an in-namespace parent that is not in the batch (its
    /// span was dropped at capacity) degrades to [`SpanId::NONE`].
    ///
    /// Concatenation is order-correct for the watchdog because every
    /// invariant it checks is per-page and each page is mutated by
    /// exactly one worker: that page's spans all sit in one buffer, in
    /// true order.
    ///
    /// Returns the merged spans and the total dropped count.
    pub fn merge(mut bufs: Vec<SpanBuf>, next_id: &mut u64) -> (Vec<Span>, u64) {
        bufs.sort_by_key(|b| b.worker);
        let mut map: BTreeMap<SpanId, SpanId> = BTreeMap::new();
        let mut dropped = 0;
        for b in &bufs {
            dropped += b.dropped;
            for s in &b.spans {
                *next_id += 1;
                map.insert(s.id, SpanId(*next_id));
            }
        }
        let remap = |id: SpanId| -> SpanId {
            match map.get(&id) {
                Some(&new) => new,
                None if id.0 < (1 << 48) => id,
                None => SpanId::NONE,
            }
        };
        let mut out = Vec::with_capacity(map.len());
        for b in bufs {
            for mut s in b.spans {
                s.id = remap(s.id);
                s.parent = remap(s.parent);
                out.push(s);
            }
        }
        (out, dropped)
    }
}

/// Stable lane (Chrome `tid`) per span category.
fn lane_of(cat: &str) -> usize {
    match cat {
        "txn" => 1,
        "commit" => 2,
        "force" => 3,
        "update" => 4,
        "transfer" => 5,
        "lock" => 6,
        "write" => 7,
        "replay" => 8,
        "recovery" => 9,
        "crash" => 10,
        "msg" => 11,
        "tree" => 12,
        "wal" => 13,
        _ => 14,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PageId {
        PageId::new(NodeId(0), i)
    }

    fn txn(n: u32, s: u64) -> TxnId {
        TxnId::new(NodeId(n), s)
    }

    fn update(t: &Tracer, at: SimTime, node: u32, p: PageId, psn: u64) -> SpanId {
        t.point(
            at,
            NodeId(node),
            SpanId::NONE,
            SpanKind::Update {
                pid: p,
                txn: txn(node, 1),
                psn: Psn(psn),
                lsn: Lsn(at),
                clr: false,
            },
        )
    }

    /// The online tracer's verdict, asserted identical to the slice
    /// check's over the same spans.
    fn checked(t: &Tracer) -> std::result::Result<(), String> {
        let online = t.check();
        assert_eq!(
            online,
            check_spans(&t.spans()),
            "online and slice checks differ"
        );
        online
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.alloc(), SpanId::NONE);
        t.emit(Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            node: NodeId(0),
            start: 0,
            dur: 0,
            kind: SpanKind::Crash { node: NodeId(0) },
        });
        assert!(t.is_empty());
        assert!(t.check().is_ok());
        assert_eq!(
            t.chrome_trace_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let t = Tracer::new(16);
        let a = t.alloc();
        let b = t.alloc();
        assert!(a < b);
        assert!(!a.is_none());
    }

    #[test]
    fn monotone_updates_pass_the_watchdog() {
        let t = Tracer::new(64);
        for (i, n) in [(1u64, 0u32), (2, 1), (3, 1), (4, 2)] {
            update(&t, i * 10, n, pid(0), i);
        }
        assert!(t.check().is_ok());
        assert_eq!(t.violations().len(), 0);
    }

    #[test]
    fn psn_regression_is_caught_with_lineage_slice() {
        let t = Tracer::new(64);
        update(&t, 10, 0, pid(3), 1);
        update(&t, 20, 1, pid(3), 2);
        update(&t, 30, 2, pid(3), 2); // re-walks psn 2→3: violation
        update(&t, 40, 1, pid(4), 9); // other page: not in the slice
        let err = checked(&t).unwrap_err();
        assert!(err.contains("not strictly increasing"), "{err}");
        assert!(err.contains("P0.3"), "lineage slice names the page: {err}");
        assert!(!err.contains("P0.4"), "slice is page-scoped: {err}");
        assert_eq!(t.violations().len(), 1);
        assert_eq!(t.violations()[0].pid, Some(pid(3)));
    }

    #[test]
    fn crash_resets_the_psn_frontier() {
        let t = Tracer::new(64);
        update(&t, 10, 0, pid(0), 5);
        t.point(
            20,
            NodeId(0),
            SpanId::NONE,
            SpanKind::Crash { node: NodeId(0) },
        );
        // Post-recovery execution legitimately re-walks lower PSNs.
        update(&t, 30, 0, pid(0), 3);
        assert!(checked(&t).is_ok(), "{:?}", t.check());
        update(&t, 40, 0, pid(0), 3); // but not twice after one crash
        assert!(checked(&t).is_err());
    }

    #[test]
    fn replay_order_violation_is_caught() {
        let t = Tracer::new(64);
        let hop = |from: u64, to: u64, node: u32| SpanKind::ReplayHop {
            pid: pid(1),
            node: NodeId(node),
            from_psn: Psn(from),
            to_psn: Psn(to),
            applied: to.saturating_sub(from),
        };
        t.point(10, NodeId(1), SpanId::NONE, hop(1, 4, 1));
        t.point(20, NodeId(2), SpanId::NONE, hop(4, 7, 2));
        assert!(t.check().is_ok());
        t.point(30, NodeId(1), SpanId::NONE, hop(2, 9, 1)); // restarts below 7
        t.point(40, NodeId(2), SpanId::NONE, hop(9, 8, 2)); // moves backwards
        let err = checked(&t).unwrap_err();
        assert!(err.contains("replay out of global PSN order"), "{err}");
        assert!(err.contains("replay hop moved P0.1 backwards"), "{err}");
        assert_eq!(t.violations().len(), 2);
    }

    #[test]
    fn wal_rule_and_log_ship_violations_are_caught() {
        let t = Tracer::new(64);
        t.point(
            10,
            NodeId(1),
            SpanId::NONE,
            SpanKind::Transfer {
                pid: pid(0),
                from: NodeId(1),
                to: NodeId(0),
                psn: Psn(4),
                why: TransferWhy::Replace,
                wal_ok: false,
            },
        );
        t.point(
            20,
            NodeId(1),
            SpanId::NONE,
            SpanKind::Msg {
                kind: "log-ship",
                from: NodeId(1),
                to: NodeId(0),
                bytes: 100,
                carries_log: true,
            },
        );
        t.point(
            30,
            NodeId(0),
            SpanId::NONE,
            SpanKind::PageWrite {
                pid: pid(0),
                node: NodeId(0),
                psn: Psn(5),
                wal_ok: false,
            },
        );
        let err = checked(&t).unwrap_err();
        assert!(err.contains("WAL rule violated: dirty"), "{err}");
        assert!(err.contains("log records crossed the network"), "{err}");
        assert!(err.contains("written to disk on N0"), "{err}");
        assert_eq!(t.violations().len(), 3);
    }

    #[test]
    fn log_truncation_past_the_anchor_is_caught() {
        let t = Tracer::new(64);
        // Reclaiming below (or exactly to) the anchor is the protocol
        // working as designed.
        t.point(
            10,
            NodeId(0),
            SpanId::NONE,
            SpanKind::LogTruncate {
                node: NodeId(0),
                upto: Lsn(100),
                anchor: Lsn(100),
            },
        );
        assert!(checked(&t).is_ok());
        // Reclaiming past it discards records the master checkpoint
        // still needs.
        t.point(
            20,
            NodeId(0),
            SpanId::NONE,
            SpanKind::LogTruncate {
                node: NodeId(0),
                upto: Lsn(250),
                anchor: Lsn(100),
            },
        );
        t.point(
            30,
            NodeId(1),
            SpanId::NONE,
            SpanKind::LogTruncate {
                node: NodeId(1),
                upto: Lsn(8),
                anchor: Lsn(0),
            },
        );
        let err = checked(&t).unwrap_err();
        assert!(err.contains("log-space protocol violated"), "{err}");
        assert!(err.contains("N1 reclaimed its log"), "{err}");
        assert_eq!(t.violations().len(), 2);
    }

    #[test]
    fn lineage_is_page_scoped_and_ordered() {
        let t = Tracer::new(64);
        update(&t, 10, 0, pid(0), 1);
        update(&t, 20, 0, pid(1), 1);
        t.point(
            30,
            NodeId(0),
            SpanId::NONE,
            SpanKind::Transfer {
                pid: pid(0),
                from: NodeId(0),
                to: NodeId(1),
                psn: Psn(2),
                why: TransferWhy::Ship,
                wal_ok: true,
            },
        );
        let lin = t.lineage(pid(0));
        assert_eq!(lin.len(), 2);
        assert!(lin[0].start < lin[1].start);
        assert_eq!(t.busiest_page(), Some(pid(0)));
        let s = t.render_lineage(pid(0));
        assert!(s.contains("update P0.0"), "{s}");
        assert!(s.contains("ship P0.0 N0→N1"), "{s}");
    }

    #[test]
    fn capacity_bound_keeps_head_and_counts_drops() {
        let t = Tracer::new(2);
        for i in 1..=5u64 {
            update(&t, i, 0, pid(0), i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        // The online watchdog still saw the dropped spans; a check
        // over the retained head alone cannot.
        update(&t, 99, 0, pid(0), 2); // regression vs frontier psn 6
        assert!(t.check().is_err());
        assert!(check_spans(&t.spans()).is_ok());
    }

    #[test]
    fn tail_names_every_node_bounds_each_and_ends_newest() {
        assert_eq!(Tracer::disabled().tail(4), None, "no tail with tracing off");
        let t = Tracer::new(64);
        for psn in 1..=5u64 {
            update(&t, psn * 10, 0, pid(0), psn);
        }
        update(&t, 60, 1, pid(1), 1);
        t.point(
            70,
            NodeId(2),
            SpanId::NONE,
            SpanKind::Crash { node: NodeId(2) },
        );
        let out = render_tail(&t.spans(), 2);
        assert_eq!(t.tail(2).as_deref(), Some(out.as_str()));
        for header in [
            "--- N0: last 2 of 5 span(s) ---",
            "--- N1: last 1 of 1 span(s) ---",
            "--- N2: last 1 of 1 span(s) ---",
        ] {
            assert!(out.contains(header), "{header} missing: {out}");
        }
        let n0: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("--- N0"))
            .skip(1)
            .take_while(|l| !l.starts_with("---"))
            .collect();
        assert_eq!(n0.len(), 2, "at most 2 spans per node: {out}");
        assert!(n0[0].contains("psn 4→5"), "{out}");
        assert!(n0[1].contains("psn 5→6"), "newest span last: {out}");
    }

    #[test]
    fn chrome_export_is_schema_shaped() {
        let t = Tracer::new(64);
        update(&t, 10, 0, pid(0), 1);
        t.point(
            30,
            NodeId(0),
            SpanId::NONE,
            SpanKind::Transfer {
                pid: pid(0),
                from: NodeId(0),
                to: NodeId(1),
                psn: Psn(2),
                why: TransferWhy::Ship,
                wal_ok: true,
            },
        );
        let j = t.chrome_trace_json();
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"ph\":\"M\""), "{j}");
        assert!(j.contains("\"process_name\""), "{j}");
        assert!(
            j.contains("\"ph\":\"s\"") && j.contains("\"ph\":\"f\""),
            "flow pair: {j}"
        );
        // Every event is an object in one array; no trailing commas.
        assert!(!j.contains(",]") && !j.contains(",,"), "{j}");
    }

    #[test]
    fn span_ctx_constructors() {
        let root = SpanCtx::root(SpanId(3));
        assert_eq!(root.parent, SpanId::NONE);
        let c = SpanCtx::child(SpanId(4), SpanId(3));
        assert_eq!(c.parent, SpanId(3));
        assert_eq!(SpanCtx::NONE.span, SpanId::NONE);
        assert_eq!(format!("{}", SpanId::NONE), "-");
        assert_eq!(format!("{}", SpanId(7)), "S7");
    }

    fn buf_crash(b: &mut SpanBuf, at: SimTime, node: u32) -> SpanId {
        b.point(
            at,
            NodeId(node),
            SpanId::NONE,
            SpanKind::Crash { node: NodeId(node) },
        )
    }

    #[test]
    fn spanbuf_disabled_is_inert_and_ids_are_namespaced() {
        let mut off = SpanBuf::disabled();
        assert!(!off.is_enabled());
        assert_eq!(off.alloc(), SpanId::NONE);
        buf_crash(&mut off, 5, 0);
        assert!(off.is_empty());

        let mut a = SpanBuf::new(0, 16);
        let mut b = SpanBuf::new(1, 16);
        let ia = a.alloc();
        let ib = b.alloc();
        assert_eq!(ia, SpanId(1 << 48 | 1));
        assert_eq!(ib, SpanId(2 << 48 | 1));
        assert_ne!(ia, ib, "worker namespaces must not collide");
    }

    #[test]
    fn spanbuf_merge_is_deterministic_and_rewrites_parents() {
        // Build twice in opposite buffer order; merged output must be
        // identical, with ids rewritten to one monotone sequence and a
        // cross-buffer parent edge surviving the rewrite.
        let build = |swap: bool| {
            let mut a = SpanBuf::new(0, 16);
            let mut b = SpanBuf::new(1, 16);
            let cause = buf_crash(&mut a, 1, 0);
            // b's span is caused by a's (cross-thread edge), plus one
            // parent that refers to an already-merged trace id (< 2^48)
            // and must be kept verbatim.
            b.point(2, NodeId(1), cause, SpanKind::Crash { node: NodeId(1) });
            b.point(3, NodeId(1), SpanId(7), SpanKind::Crash { node: NodeId(1) });
            let bufs = if swap { vec![b, a] } else { vec![a, b] };
            let mut next = 10;
            SpanBuf::merge(bufs, &mut next)
        };
        let (m1, d1) = build(false);
        let (m2, _) = build(true);
        assert_eq!(m1, m2, "merge must not depend on buffer arrival order");
        assert_eq!(d1, 0);
        assert_eq!(
            m1.iter().map(|s| s.id.0).collect::<Vec<_>>(),
            vec![11, 12, 13],
            "ids continue the trace's monotone sequence"
        );
        assert_eq!(m1[1].parent, m1[0].id, "cross-buffer parent rewritten");
        assert_eq!(m1[2].parent, SpanId(7), "pre-merged parent kept");
    }

    #[test]
    fn spanbuf_bounds_the_store_and_drops_count_through_merge() {
        let mut b = SpanBuf::new(3, 2);
        for at in 0..5 {
            buf_crash(&mut b, at, 0);
        }
        assert_eq!(b.len(), 2, "head kept");
        assert_eq!(b.dropped(), 3);
        let mut next = 0;
        let (spans, dropped) = SpanBuf::merge(vec![b], &mut next);
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 3);
        assert_eq!(next, 2);
    }

    #[test]
    fn merged_spanbuf_trace_replays_through_the_watchdog() {
        // Two workers each update their own page; the merged trace is
        // clean. A regressing PSN inside one worker's buffer must
        // surface in the slice check of the merged trace.
        let mut a = SpanBuf::new(0, 64);
        let mut b = SpanBuf::new(1, 64);
        for (w, buf) in [(0u32, &mut a), (1u32, &mut b)] {
            for psn in 1..4u64 {
                let id = buf.alloc();
                buf.emit(Span {
                    id,
                    parent: SpanId::NONE,
                    node: NodeId(w),
                    start: psn,
                    dur: 0,
                    kind: SpanKind::Update {
                        pid: PageId::new(NodeId(w), 0),
                        txn: txn(w, 1),
                        psn: Psn(psn),
                        lsn: Lsn(psn),
                        clr: false,
                    },
                });
            }
        }
        let mut next = 0;
        let (clean, _) = SpanBuf::merge(vec![a, b], &mut next);
        assert_eq!(check_spans(&clean), Ok(()));

        let mut bad = SpanBuf::new(0, 64);
        for psn in [1u64, 2, 2] {
            let id = bad.alloc();
            bad.emit(Span {
                id,
                parent: SpanId::NONE,
                node: NodeId(0),
                start: psn,
                dur: 0,
                kind: SpanKind::Update {
                    pid: pid(0),
                    txn: txn(0, 1),
                    psn: Psn(psn),
                    lsn: Lsn(psn),
                    clr: false,
                },
            });
        }
        let mut next = 0;
        let (spans, _) = SpanBuf::merge(vec![bad], &mut next);
        assert!(
            check_spans(&spans).is_err(),
            "PSN regression must be caught"
        );
    }
}
