//! Recovery phase names, shared by the recovery drivers, the phase
//! timing reports and the recovery spans.
//!
//! Events are recorded once, as spans (`crate::span`): a post-mortem
//! is the tail of the span trace, and a run that had tracing off is
//! re-run with the same seed and tracing on — tracing draws no
//! randomness and charges no clock, so the re-run is the same run.

use std::fmt;

/// The phases of distributed restart (paper §2.3), in execution order.
///
/// Recovery code, phase-timing reports and trace events all share this
/// enum; the only place a phase has a string name is
/// [`RecoveryPhase::label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryPhase {
    /// Local ARIES analysis pass over each crashed node's log.
    Analysis,
    /// Cache-inventory + DPT exchange with every operational node.
    InfoExchange,
    /// Rebuild of the crashed owners' global lock tables (§2.3.3).
    LockRebuild,
    /// Determine the recovery set: which pages need replay, and from
    /// whose logs (§2.3.4).
    RecoverySets,
    /// Fence pages under recovery with owner-side exclusive locks.
    RecoveryLocks,
    /// Gather NodePSNLists from the involved nodes.
    PsnLists,
    /// PSN-ordered replay, shuttling each page between involved nodes.
    Replay,
    /// Roll back loser transactions.
    Undo,
    /// Recovery-complete broadcast and final bookkeeping.
    Done,
}

impl RecoveryPhase {
    /// Every phase, in execution order.
    pub const ALL: [RecoveryPhase; 9] = [
        RecoveryPhase::Analysis,
        RecoveryPhase::InfoExchange,
        RecoveryPhase::LockRebuild,
        RecoveryPhase::RecoverySets,
        RecoveryPhase::RecoveryLocks,
        RecoveryPhase::PsnLists,
        RecoveryPhase::Replay,
        RecoveryPhase::Undo,
        RecoveryPhase::Done,
    ];

    /// Short report/trace label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPhase::Analysis => "analysis",
            RecoveryPhase::InfoExchange => "info_exchange",
            RecoveryPhase::LockRebuild => "lock_rebuild",
            RecoveryPhase::RecoverySets => "recovery_sets",
            RecoveryPhase::RecoveryLocks => "recovery_locks",
            RecoveryPhase::PsnLists => "psn_lists",
            RecoveryPhase::Replay => "replay",
            RecoveryPhase::Undo => "undo",
            RecoveryPhase::Done => "done",
        }
    }
}

impl fmt::Display for RecoveryPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}
