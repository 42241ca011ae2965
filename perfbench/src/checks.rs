//! Correctness checks, and the planted faults each must catch.
//!
//! A check that cannot fail would stay green forever, so
//! [`plant_faults`] feeds every check a broken copy of real data from
//! a traced round and reports whether the check noticed.

use cblog_common::{NodeId, PageId, Psn, SpanId, SpanKind};
use cblog_core::RunReport;
use cblog_rt::ThreadCluster;
use cblog_storage::Page;
use std::collections::BTreeMap;

pub type Images = BTreeMap<PageId, Vec<u8>>;

/// Every planned transaction committed, none ended otherwise.
pub fn tally(planned: u64, report: &RunReport) -> Result<(), String> {
    if report.committed == planned && report.user_aborts == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {planned} planned transactions committed ({} user aborts)",
            report.committed, report.user_aborts
        ))
    }
}

/// The commit path sent no message (the paper's headline property).
pub fn no_messages(msgs: u64) -> Result<(), String> {
    if msgs == 0 {
        Ok(())
    } else {
        Err(format!("{msgs} messages on a message-free commit path"))
    }
}

/// Each page holds the slot values its committed writes left.
pub fn final_state(expected: &BTreeMap<PageId, Vec<u64>>, images: &Images) -> Result<(), String> {
    for (pid, slots) in expected {
        let image = images.get(pid).ok_or(format!("no image of {pid}"))?;
        let page = Page::from_bytes(image.clone()).map_err(|e| format!("{pid}: {e}"))?;
        for (slot, &want) in slots.iter().enumerate() {
            let got = page.read_slot(slot).map_err(|e| format!("{pid}: {e}"))?;
            if got != want {
                return Err(format!("{pid} slot {slot} holds {got}, expected {want}"));
            }
        }
    }
    Ok(())
}

/// Recovery restored every page byte for byte.
pub fn same_images(before: &Images, after: &Images) -> Result<(), String> {
    for (pid, image) in before {
        if after.get(pid) != Some(image) {
            return Err(format!("{pid} differs after recovery"));
        }
    }
    Ok(())
}

/// The engine's protocol watchdog passes on the merged trace and no
/// span was dropped, so it checked the whole trace.
pub fn trace_clean(tc: &ThreadCluster) -> Result<(), String> {
    tc.trace_check().map_err(|e| format!("watchdog: {e}"))?;
    match tc.trace_dropped() {
        0 => Ok(()),
        n => Err(format!(
            "{n} spans dropped: the watchdog saw a truncated trace"
        )),
    }
}

/// Plants one fault per check on a traced round's real results and
/// returns `(fault, caught)` for each. `tc` must have recovered node 0
/// with tracing on; its trace is spoiled afterwards.
pub fn plant_faults(
    tc: &mut ThreadCluster,
    planned: u64,
    report: &RunReport,
    before: &Images,
    after: &Images,
) -> Vec<(&'static str, bool)> {
    let dropped_plan = RunReport {
        committed: report.committed.saturating_sub(1),
        ..*report
    };
    let mut flipped = after.clone();
    if let Some(image) = flipped.values_mut().next() {
        let last = image.len() - 1;
        image[last] ^= 0x01;
    }
    // Replay the most-updated recovered page from behind the PSN its
    // real replay reached: what a lost dependency edge would produce.
    let victim = before
        .iter()
        .filter_map(|(pid, image)| Some((Page::from_bytes(image.clone()).ok()?.psn(), *pid)))
        .max();
    let forged = match victim {
        Some((psn, pid)) if psn > Psn(2) => {
            tc.inject_span(
                NodeId(0),
                SpanId::NONE,
                SpanKind::ReplayHop {
                    pid,
                    node: NodeId(0),
                    from_psn: Psn(1),
                    to_psn: Psn(2),
                    applied: 1,
                },
            );
            trace_clean(tc).is_err()
        }
        _ => false,
    };
    vec![
        (
            "plan dropped from the tally",
            tally(planned, &dropped_plan).is_err(),
        ),
        (
            "byte flipped in a recovered page",
            same_images(before, &flipped).is_err(),
        ),
        ("out-of-order replay hop injected", forged),
    ]
}
