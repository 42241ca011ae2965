//! The repository benchmark: drives the threaded engine
//! (`cblog_rt::ThreadCluster`) through its public API on one of three
//! workloads, checks every output, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <local_commit|remote_read|crash_recover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --fsync-probe <dir>
//! ```
//!
//! A run is a sequence of rounds until `--seconds` have passed. Each
//! round builds a fresh two-node cluster (the latency reservoir and the
//! merged trace accumulate over a cluster's life), runs the round's
//! seeded plans, checks the committed state, crashes node 0, recovers
//! it with two replay workers and checks that every page came back
//! byte for byte. Figures are medians over the run's quiet rounds: the
//! half of its rounds that lost the least CPU time to other guests on
//! the host (see [`quiet`]).
//!
//! `--trace 1` first times each layer's public functions in isolation
//! (the probes), then alternates rounds with the engine's tracing off
//! and on. Engine-reported per-layer figures come from the untraced
//! rounds, so they describe the same execution the end-to-end figures
//! do; the traced rounds give the tracing cost, run the protocol
//! watchdog and, once, plant a fault for every check to catch.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! nonzero when any check failed.

mod checks;
mod probes;
mod spans;
mod stats;
mod workload;

use cblog_common::metrics::keys;
use cblog_common::{NodeId, PageId};
use cblog_core::{RecoveryOptions, RecoveryReport, ReplayMode, RunReport, Runtime};
use cblog_rt::{RtNodeStats, RtRunStats, ThreadCluster, ThreadClusterConfig, WalBacking};
use checks::Images;
use spans::Spans;
use stats::median;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{expected_state, Shape, Workload, NODES, PAGE_SIZE};

const USAGE: &str = "usage: perfbench --workload <local_commit|remote_read|crash_recover> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --fsync-probe <dir>";

/// Capacity of the engine's commit-latency reservoir: the percentiles
/// of one round come from at most this many samples.
const RESERVOIR_CAP: u64 = 4096;

/// Layers whose self time `--trace 1` reports (span name prefix) and
/// the metric that carries it.
const LAYERS: [(&str, &str); 9] = [
    ("bench", "bench.self_pct"),
    ("rt", "rt.self_pct"),
    ("recovery", "recovery.self_pct"),
    ("wal", "wal.self_pct"),
    ("core", "core.self_pct"),
    ("locks", "locks.self_pct"),
    ("net", "net.self_pct"),
    ("storage", "storage.self_pct"),
    ("span", "span.self_pct"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Bench(Args),
    FsyncProbe(PathBuf),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    if let Some(dir) = value("--fsync-probe")? {
        return Ok(Mode::FsyncProbe(PathBuf::from(dir)));
    }
    let need = |flag: &str| value(flag)?.ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        let v = need(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} takes a whole number, not {v}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace takes 0 or 1, not {v}")),
    };
    Ok(Mode::Bench(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Mode::Bench(a)) => a,
        Ok(Mode::FsyncProbe(dir)) => match probes::fdatasync_us(&dir) {
            Ok((p50, p99)) => {
                println!(
                    "fdatasync in {}: p50 {p50:.1} us, p99 {p99:.1} us",
                    dir.display()
                );
                return;
            }
            Err(e) => {
                eprintln!("perfbench: fdatasync probe in {}: {e}", dir.display());
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Everything the benchmark writes stays under its own directory.
    let run_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
    let wal_dir = run_dir.join(format!("wal-{}", args.workload.name()));
    let result = if args.trace {
        per_layer(&args, &run_dir, &wal_dir)
    } else {
        end_to_end(&args)
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        println!("check failed: {e}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

/// What one invocation reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN: a figure with no samples reads 0.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn tally<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Outcome {
        let mut out = Outcome::default();
        for r in rounds {
            out.attempted += r.planned + 1;
            out.failed += r.failed();
            out.errors.extend(r.errors.iter().cloned());
        }
        out
    }
}

/// One round: a fresh cluster, one `run`, one crash and recovery.
#[derive(Default)]
struct Round {
    traced: bool,
    planned: u64,
    setup_s: f64,
    run_s: f64,
    report: RunReport,
    stats: RtRunStats,
    nodes: Vec<RtNodeStats>,
    wal_bytes: u64,
    p50_us: f64,
    p99_us: f64,
    samples: u64,
    /// The run completed and every check on its outcome passed.
    run_ok: bool,
    /// Recovery completed and restored every page.
    rec_ok: bool,
    recovery_ms: f64,
    rec: RecoveryReport,
    check_ms: f64,
    dropped: u64,
    /// Share of the host's CPU time stolen by other guests while the
    /// round ran (`None` where the kernel does not report it).
    steal: Option<f64>,
    faults: Vec<(&'static str, bool)>,
    errors: Vec<String>,
}

impl Round {
    /// A failed check fails every operation it covers: a check on the
    /// run fails the round's transactions, a check on recovery fails
    /// the recovery.
    fn failed(&self) -> u64 {
        let txns = if self.run_ok { 0 } else { self.planned };
        txns + u64::from(!self.rec_ok)
    }

    fn commits_per_s(&self) -> f64 {
        self.report.committed as f64 / self.run_s
    }

    /// `part` summed over the worker threads, per commit.
    fn per_commit(&self, part: impl Fn(&RtNodeStats) -> u64) -> f64 {
        self.nodes.iter().map(part).sum::<u64>() as f64 / self.report.committed as f64
    }
}

/// What one round runs.
struct RoundPlan {
    shape: Shape,
    /// The commit path must send no message (the local-commit workload).
    message_free: bool,
    seed: u64,
    index: u64,
    /// Engine tracing and its watchdog on.
    traced: bool,
    /// After the checks, plant a fault for each to catch (traced only).
    plant: bool,
    wal: WalBacking,
}

impl RoundPlan {
    fn cluster_config(&self) -> ThreadClusterConfig {
        let shape = &self.shape;
        // Room for every span a traced round can emit per worker: the
        // transaction, each write, three per remote read (request, ship,
        // transfer, the last two on the owner), one group force, doubled
        // for lock-conflict retries. Buffers grow on demand.
        let per_txn = 2 + shape.writes + 3 * shape.reads;
        ThreadClusterConfig {
            owned_pages: vec![shape.owned_pages(); NODES as usize],
            page_size: PAGE_SIZE,
            buffer_frames: shape.owned_pages() as usize + 16,
            group_commit: shape.group_commit(),
            lock_shards: 16,
            wal: self.wal.clone(),
            tracing: self.traced,
            trace_capacity: 2 * shape.lanes * shape.txns_per_lane * per_txn + 4096,
        }
    }
}

fn images_of(tc: &mut ThreadCluster, pages: &[PageId]) -> Result<Images, String> {
    pages
        .iter()
        .map(|&pid| {
            Ok((
                pid,
                tc.page_image(pid)
                    .map_err(|e| format!("image of {pid}: {e}"))?,
            ))
        })
        .collect()
}

fn run_round(plan: &RoundPlan, sp: &mut Spans) -> Round {
    let root = sp.enter("bench.round");
    let mut r = Round {
        traced: plan.traced,
        ..Round::default()
    };
    if let Err(e) = round_body(&mut r, plan, sp) {
        r.errors.push(format!("round {}: {e}", plan.index));
    }
    sp.exit(root);
    if let WalBacking::Dir(dir) = &plan.wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    r
}

fn round_body(r: &mut Round, plan: &RoundPlan, sp: &mut Spans) -> Result<(), String> {
    let shape = &plan.shape;
    let started = Instant::now();
    let (plans, expected) = sp
        .time("bench.plans", || {
            let plans = shape.plans(plan.seed, plan.index);
            let expected = expected_state(shape, &plans);
            (plans, expected)
        })
        .value;
    r.planned = plans.len() as u64;
    if let WalBacking::Dir(dir) = &plan.wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut tc = sp
        .time("rt.new", || ThreadCluster::new(plan.cluster_config()))
        .value
        .map_err(|e| format!("cluster: {e}"))?;
    r.setup_s = started.elapsed().as_secs_f64();

    let run = sp.time("rt.run", || tc.run(&plans));
    r.report = run.value.map_err(|e| format!("run: {e}"))?;
    r.run_s = run.secs;
    r.stats = tc.last_stats().unwrap_or_default();
    r.nodes = tc.last_node_stats().to_vec();
    let snap = tc.metrics();
    r.wal_bytes = (0..NODES)
        .map(|n| snap.counter(&format!("n{n}/{}", keys::WAL_BYTES)))
        .sum();
    let lat = tc.latency_samples();
    r.p50_us = lat.percentile(0.50) as f64;
    r.p99_us = lat.percentile(0.99) as f64;
    r.samples = lat.count().min(RESERVOIR_CAP);

    let all_pages: Vec<PageId> = (0..NODES).flat_map(|n| shape.pages_of(n)).collect();
    let images = sp
        .time("bench.images", || images_of(&mut tc, &all_pages))
        .value?;
    let checked = sp.time("bench.check", || {
        checks::tally(r.planned, &r.report)?;
        if plan.message_free {
            checks::no_messages(r.stats.msgs)?;
        }
        checks::final_state(&expected, &images)
    });
    match checked.value {
        Ok(()) => r.run_ok = true,
        Err(e) => r.errors.push(format!("round {}: {e}", plan.index)),
    }

    let victim = NodeId(0);
    let before: Images = images
        .into_iter()
        .filter(|(pid, _)| pid.owner == victim)
        .collect();
    let crash = sp.time("rt.crash", || tc.crash(victim));
    crash.value.map_err(|e| format!("crash: {e}"))?;
    let opts = RecoveryOptions::single(victim).replay(ReplayMode::Parallel { workers: 2 });
    let rec = sp.time("rt.recover", || tc.recover(&opts));
    r.rec = rec.value.map_err(|e| format!("recover: {e}"))?;
    r.recovery_ms = (crash.secs + rec.secs) * 1e3;
    let t = &r.rec.timings;
    sp.engine_children(
        rec.span,
        &[
            ("recovery.analysis", t.analysis_us()),
            ("recovery.psn_lists", t.psn_lists_us()),
            ("recovery.replay", t.replay_us()),
            ("recovery.undo", t.undo_us()),
        ],
    );
    let victim_pages = shape.pages_of(victim.0);
    let after = sp
        .time("bench.images", || images_of(&mut tc, &victim_pages))
        .value?;
    match sp
        .time("bench.check", || checks::same_images(&before, &after))
        .value
    {
        Ok(()) => r.rec_ok = true,
        Err(e) => r.errors.push(format!("round {}: {e}", plan.index)),
    }

    if plan.traced {
        let check = sp.time("span.trace_check", || checks::trace_clean(&tc));
        r.check_ms = check.secs * 1e3;
        r.dropped = tc.trace_dropped();
        if let Err(e) = check.value {
            r.run_ok = false;
            r.rec_ok = false;
            r.errors.push(format!("round {}: {e}", plan.index));
        }
        if plan.plant {
            r.faults = checks::plant_faults(&mut tc, r.planned, &r.report, &before, &after);
        }
    }
    Ok(())
}

/// Timed rounds until `seconds` have passed (at least `min` of them);
/// `traced(i)` says whether round `i` runs with engine tracing.
fn rounds(args: &Args, sp: &mut Spans, min: u64, traced: impl Fn(u64) -> bool) -> Vec<Round> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut out: Vec<Round> = Vec::new();
    let mut planted = false;
    for index in 0.. {
        if index >= min && Instant::now() >= deadline {
            break;
        }
        let tr = traced(index);
        let plan = RoundPlan {
            shape: args.workload.shape(),
            message_free: args.workload == Workload::LocalCommit,
            seed: args.seed,
            index,
            traced: tr,
            plant: tr && !planted,
            wal: WalBacking::Mem,
        };
        planted |= plan.plant;
        let ticks = cpu_ticks();
        let mut r = run_round(&plan, sp);
        r.steal = ticks
            .zip(cpu_ticks())
            .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
        eprintln!(
            "round {index}{}: steal {:.1}%, {:.0} commits/s, p50 {} us, p99 {} us, \
             recovery {:.1} ms, setup {:.4} s",
            if tr { " (traced)" } else { "" },
            100.0 * r.steal.unwrap_or(0.0),
            r.commits_per_s(),
            r.p50_us,
            r.p99_us,
            r.recovery_ms,
            r.setup_s
        );
        out.push(r);
    }
    out
}

/// Stolen and total CPU time of the host since boot, in clock ticks,
/// from the kernel's `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The half of `rounds` (rounded up) that lost the least CPU time to
/// other guests, or all of them where steal time is not reported.
///
/// On a shared host the hypervisor runs other guests on this guest's
/// CPUs, and the steal time it reports moved between 0% and 28% from
/// one round to the next. A robbed round runs slower for reasons
/// outside the program: with two busy worker threads on two CPUs,
/// stealing one CPU stalls the other node too. Taking the quiet half
/// by steal time, not by the figures themselves, keeps a slow round
/// that was not robbed.
fn quiet<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Vec<&'a Round> {
    let mut rounds: Vec<&Round> = rounds.into_iter().collect();
    if rounds.iter().all(|r| r.steal.is_some()) {
        rounds.sort_by(|a, b| a.steal.unwrap_or(0.0).total_cmp(&b.steal.unwrap_or(0.0)));
        rounds.truncate(rounds.len().div_ceil(2));
    }
    rounds
}

/// Mean steal share of `rounds`, %.
fn steal_pct<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> f64 {
    let steal: Vec<f64> = rounds.into_iter().map(|r| r.steal.unwrap_or(0.0)).collect();
    100.0 * steal.iter().sum::<f64>() / steal.len() as f64
}

/// Median of `f` over `rounds`.
fn med(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut sp = Spans::new(false);
    let all = rounds(args, &mut sp, 1, |_| false);
    let ok = quiet(all.iter().filter(|r| r.run_ok && r.rec_ok));
    let mut out = Outcome::tally(&all);
    println!(
        "workload {} seed {}: {} rounds, {} quiet; steal {:.1}% over all rounds, {:.1}% over quiet ones; \
         {} latency samples per round",
        args.workload.name(),
        args.seed,
        all.len(),
        ok.len(),
        steal_pct(&all),
        steal_pct(ok.iter().copied()),
        med(&ok, |r| r.samples as f64)
    );
    println!(
        "failed_frac {} (failed / attempted operations)",
        out.failed as f64 / out.attempted as f64
    );
    out.metrics = vec![
        ("commits_per_s", med(&ok, Round::commits_per_s), "1/s"),
        ("commit_p50_us", med(&ok, |r| r.p50_us), "us"),
        ("commit_p99_us", med(&ok, |r| r.p99_us), "us"),
        ("recovery_p50_ms", med(&ok, |r| r.recovery_ms), "ms"),
        ("setup_s", med(&ok, |r| r.setup_s), "s"),
    ];
    Ok(out)
}

struct Probes {
    fsync_p50_us: f64,
    fsync_p99_us: f64,
    append_ns: f64,
    force_p50_us: f64,
    force_p99_us: f64,
    txn_us: f64,
    lock_ns: f64,
    roundtrip_us: f64,
    page_ship_ns: f64,
}

fn run_probes(args: &Args, dir: &Path, sp: &mut Spans) -> Result<Probes, String> {
    let shape = args.workload.shape();
    let plans = shape.plans(args.seed, u64::MAX);
    let records = probes::records_of(&plans[..512]);
    let group = probes::records_of(&plans[..shape.lanes]);
    let e = |what: &'static str| move |err: cblog_common::Error| format!("{what} probe: {err}");
    std::fs::create_dir_all(dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    let (fsync_p50_us, fsync_p99_us) = sp
        .time("bench.fdatasync", || probes::fdatasync_us(dir))
        .value
        .map_err(|err| format!("fdatasync probe: {err}"))?;
    let append_ns = sp
        .time("wal.append", || probes::wal_append_ns(dir, &records))
        .value
        .map_err(e("append"))?;
    let (force_p50_us, force_p99_us) = sp
        .time("wal.force", || probes::wal_force_us(dir, &group))
        .value
        .map_err(e("force"))?;
    let txn_us = sp
        .time("core.txn", || probes::core_txn_us(dir, &shape, &plans))
        .value
        .map_err(e("core"))?;
    let lock_ns = sp
        .time("locks.acquire_release", || {
            probes::lock_acquire_release_ns(&plans)
        })
        .value;
    let roundtrip_us = sp.time("net.roundtrip", probes::net_roundtrip_us).value;
    let page_ship_ns = sp
        .time("storage.page_ship", probes::page_ship_ns)
        .value
        .map_err(e("page ship"))?;
    Ok(Probes {
        fsync_p50_us,
        fsync_p99_us,
        append_ns,
        force_p50_us,
        force_p99_us,
        txn_us,
        lock_ns,
        roundtrip_us,
        page_ship_ns,
    })
}

/// Filesystem type of the mount holding `dir`, from the kernel's
/// mount table (`unknown` when it cannot be read).
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let Ok(table) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    table
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            dir.starts_with(mount)
                .then_some((mount.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

fn per_layer(args: &Args, run_dir: &Path, dir: &Path) -> Result<Outcome, String> {
    let mut sp = Spans::new(true);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let probes = run_probes(args, dir, &mut sp)?;
    println!(
        "host: nproc {nproc}; timed rounds keep the WAL in memory; file probes in {} on {}: \
         fdatasync p50 {:.1} us p99 {:.1} us",
        dir.display(),
        fs_type(dir),
        probes.fsync_p50_us,
        probes.fsync_p99_us
    );
    // One quarter-size round on a file-backed WAL in the same directory:
    // its recovery reads the log through `FileLogStore`, which the
    // in-memory timed rounds bypass.
    let shape = args.workload.shape();
    let file_round = run_round(
        &RoundPlan {
            shape: Shape {
                txns_per_lane: shape.txns_per_lane / 4,
                ..shape
            },
            message_free: args.workload == Workload::LocalCommit,
            seed: args.seed,
            index: u64::MAX - 1,
            traced: false,
            plant: false,
            wal: WalBacking::Dir(dir.to_path_buf()),
        },
        &mut sp,
    );
    // Odd rounds traced, so every run has at least one of each.
    let all = rounds(args, &mut sp, 2, |i| i % 2 == 1);
    let mut out = Outcome::tally(all.iter().chain([&file_round]));
    let plain = quiet(all.iter().filter(|r| !r.traced && r.run_ok && r.rec_ok));
    let traced = quiet(all.iter().filter(|r| r.traced && r.run_ok && r.rec_ok));

    let faults: Vec<(&str, bool)> = all.iter().flat_map(|r| r.faults.clone()).collect();
    for (fault, caught) in &faults {
        println!(
            "self-test: {fault}: {}",
            if *caught { "caught" } else { "MISSED" }
        );
        if !caught {
            out.errors
                .push(format!("self-test: the checks missed a {fault}"));
        }
    }
    if faults.len() != 3 {
        out.errors
            .push("self-test: no traced round to plant faults in".into());
    }

    let spans_path = run_dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, sp.to_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());
    let self_ns = sp.self_ns_by_layer();
    let total_ns: u64 = self_ns.values().sum();
    let self_pct = |layer: &str| {
        100.0 * self_ns.get(layer).copied().unwrap_or(0) as f64 / total_ns.max(1) as f64
    };

    let forces_per_commit = med(&plain, |r| {
        r.stats.forces as f64 / r.report.committed as f64
    });
    let apply_ms = |r: &Round| {
        r.rec
            .timings
            .replay_waves()
            .iter()
            .map(|w| w.makespan_us)
            .sum::<u64>() as f64
            / 1e3
    };
    let ms = |us: u64| us as f64 / 1e3;
    let scan_mb_per_s = |r: &Round| {
        let t = &r.rec.timings;
        r.rec.log_bytes_scanned as f64 / (t.analysis_us() + t.psn_lists_us()) as f64
    };
    let mut m: Vec<(&'static str, f64, &'static str)> = vec![
        ("host.nproc", nproc as f64, "count"),
        ("host.fdatasync_us_p50", probes.fsync_p50_us, "us"),
        ("host.fdatasync_us_p99", probes.fsync_p99_us, "us"),
        ("host.steal_pct", steal_pct(&all), "%"),
        (
            "rt.cpu_us_per_commit",
            med(&plain, |r| r.per_commit(|n| n.cpu_us)),
            "us",
        ),
        (
            "rt.disk_us_per_commit",
            med(&plain, |r| r.per_commit(|n| n.disk_us)),
            "us",
        ),
        (
            "rt.net_us_per_commit",
            med(&plain, |r| r.per_commit(|n| n.net_us)),
            "us",
        ),
        (
            "rt.lock_wait_us_per_commit",
            med(&plain, |r| r.per_commit(|n| n.lock_wait_us)),
            "us",
        ),
        (
            "rt.idle_frac",
            med(&plain, |r| {
                let active: u64 = r.nodes.iter().map(|n| n.busy_us + n.lock_wait_us).sum();
                let wall: u64 = r.nodes.iter().map(|n| n.wall_us).sum();
                1.0 - active as f64 / wall as f64
            }),
            "fraction",
        ),
        (
            "rt.latency_samples",
            med(&plain, |r| r.samples as f64),
            "count",
        ),
        ("wal.forces_per_commit", forces_per_commit, "count"),
        (
            "wal.bytes_per_commit",
            med(&plain, |r| r.wal_bytes as f64 / r.report.committed as f64),
            "B",
        ),
        (
            "wal.device_us_per_commit",
            forces_per_commit * probes.fsync_p50_us,
            "us",
        ),
        ("wal.append_ns", probes.append_ns, "ns"),
        ("wal.force_us_p50", probes.force_p50_us, "us"),
        ("wal.force_us_p99", probes.force_p99_us, "us"),
        ("core.txn_us", probes.txn_us, "us"),
        (
            "locks.attempts_per_commit",
            med(&plain, |r| {
                (r.report.committed + r.report.forced_aborts) as f64 / r.report.committed as f64
            }),
            "count",
        ),
        ("locks.acquire_release_ns", probes.lock_ns, "ns"),
        (
            "net.msgs_per_commit",
            med(&plain, |r| r.stats.msgs as f64 / r.report.committed as f64),
            "count",
        ),
        ("net.roundtrip_us_p50", probes.roundtrip_us, "us"),
        ("storage.page_ship_ns", probes.page_ship_ns, "ns"),
        (
            "recovery.analysis_ms",
            med(&plain, |r| ms(r.rec.timings.analysis_us())),
            "ms",
        ),
        (
            "recovery.psn_lists_ms",
            med(&plain, |r| ms(r.rec.timings.psn_lists_us())),
            "ms",
        ),
        (
            "recovery.undo_ms",
            med(&plain, |r| ms(r.rec.timings.undo_us())),
            "ms",
        ),
        ("recovery.apply_ms", med(&plain, apply_ms), "ms"),
        (
            "recovery.extract_ms",
            med(&plain, |r| ms(r.rec.timings.replay_us()) - apply_ms(r)),
            "ms",
        ),
        ("recovery.scan_mb_per_s", med(&plain, scan_mb_per_s), "MB/s"),
        ("recovery.file_ms", file_round.recovery_ms, "ms"),
        (
            "recovery.file_scan_mb_per_s",
            scan_mb_per_s(&file_round),
            "MB/s",
        ),
        (
            "recovery.records_replayed",
            med(&plain, |r| r.rec.records_replayed as f64),
            "count",
        ),
        (
            "recovery.log_bytes_scanned",
            med(&plain, |r| r.rec.log_bytes_scanned as f64),
            "B",
        ),
        (
            "recovery.waves",
            med(&plain, |r| r.rec.replay_waves as f64),
            "count",
        ),
        (
            "span.overhead_pct",
            100.0 * (1.0 - med(&traced, Round::commits_per_s) / med(&plain, Round::commits_per_s)),
            "%",
        ),
        (
            "span.spans_per_commit",
            med(&traced, |r| {
                r.stats.spans as f64 / r.report.committed as f64
            }),
            "count",
        ),
        ("span.check_ms", med(&traced, |r| r.check_ms), "ms"),
        (
            "span.dropped",
            all.iter()
                .filter(|r| r.traced)
                .map(|r| r.dropped as f64)
                .sum(),
            "count",
        ),
        (
            "checks.faults_caught",
            faults.iter().filter(|(_, caught)| *caught).count() as f64,
            "count",
        ),
    ];
    for (layer, name) in LAYERS {
        m.push((name, self_pct(layer), "%"));
    }
    out.metrics = m;
    Ok(out)
}
