#!/usr/bin/env sh
# Offline CI gate: everything runs from the vendored toolchain and the
# in-repo code — no network, no crates.io. Run before every push.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

# The simulator is deterministic, so a regenerated experiment artifact
# must match the committed file byte for byte. A difference means the
# change moved a simulated number: the check fails and says how to
# re-baseline on purpose (regenerate the file, commit it with the change).
check_artifact() {
    name=$1
    file=$2
    echo "==> $name experiment ($file): regenerated must equal committed"
    cargo run --release --offline -p cblog-bench --bin experiments -- \
        --json --only "$name" > /tmp/ci_artifact.json
    if ! cmp -s /tmp/ci_artifact.json "$file"; then
        echo "ERROR: $file differs from a fresh run of experiment $name:" >&2
        diff "$file" /tmp/ci_artifact.json | head -20 >&2 || true
        echo "If the change is meant to move these numbers, re-baseline with" >&2
        echo "  cargo run --release --offline -p cblog-bench --bin experiments -- --json --only $name > $file" >&2
        echo "and commit $file together with the change." >&2
        rm -f /tmp/ci_artifact.json
        exit 1
    fi
    rm -f /tmp/ci_artifact.json
}
check_artifact e1b BENCH_e1_groupcommit.json
check_artifact e1c BENCH_e1c_adaptive.json
check_artifact e7b BENCH_e7_faults.json
check_artifact e8b BENCH_e8_trace_overhead.json
check_artifact e9b BENCH_e9_parallel_recovery.json

echo "==> perf-regression gate (BASELINES.json)"
cargo run --release --offline -p cblog-bench --bin experiments -- \
    --check-baselines BASELINES.json

echo "==> perf-regression gate rejects an injected regression"
# Self-test of the gate itself: perturb one pinned value and assert
# the check exits nonzero. Without this, a gate that silently passes
# everything would look green forever.
sed 's/"expect": 0.125/"expect": 0.225/' BASELINES.json > /tmp/ci_perturbed_baselines.json
if cargo run --release --offline -p cblog-bench --bin experiments -- \
    --check-baselines /tmp/ci_perturbed_baselines.json > /dev/null 2>&1; then
    echo "ERROR: gate accepted a perturbed baseline" >&2
    exit 1
fi
rm -f /tmp/ci_perturbed_baselines.json

echo "==> tracedump smoke: watchdog-verified E5 lineage + Chrome JSON"
# Write to a file first, then grep the file: in a `cmd | grep` pipeline
# the pipeline's exit status is grep's, which would mask a nonzero exit
# from the dump itself (e.g. a watchdog violation).
cargo run --release --offline -p cblog-bench --bin tracedump -- \
    --scenario e5 > /tmp/ci_tracedump.txt
grep "replay-hop" /tmp/ci_tracedump.txt > /dev/null
cargo run --release --offline -p cblog-bench --bin tracedump -- \
    --scenario e5 --json > /tmp/ci_tracedump.json
grep '"traceEvents"' /tmp/ci_tracedump.json > /dev/null
rm -f /tmp/ci_tracedump.txt /tmp/ci_tracedump.json

echo "==> obsreport smoke: self-contained HTML + folded stacks (OBS_e1.html)"
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --scenario e1 --out OBS_e1.html
grep '<svg' OBS_e1.html > /dev/null
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --scenario e1 --folded > /tmp/ci_obs_folded.txt
grep 'n0;disk ' /tmp/ci_obs_folded.txt > /dev/null
rm -f /tmp/ci_obs_folded.txt

echo "==> rtbench smoke: threaded runtime wall-clock sweep (BENCH_rt_threads.json)"
# Real OS threads + real fsync, so the numbers are machine-dependent:
# the cells are recorded for the report but deliberately EXCLUDED from
# the BASELINES.json perf gate above, which only pins deterministic
# simulator counters. The smoke checks structure, not speed.
cargo run --release --offline -p cblog-bench --bin rtbench -- \
    --quick --txns 4 --wal-dir /tmp/ci_rtbench_wal --out BENCH_rt_threads.json
grep '"cells"' BENCH_rt_threads.json > /dev/null
grep '"commit_msgs":0' BENCH_rt_threads.json > /dev/null
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --input BENCH_rt_threads.json --out /tmp/ci_rt_report.html
grep 'Benchmark cells' /tmp/ci_rt_report.html > /dev/null
rm -rf /tmp/ci_rtbench_wal /tmp/ci_rt_report.html

echo "==> rtbench trace-overhead smoke: tracing off vs on (BENCH_rt_trace_overhead.json)"
# The run itself asserts bit-identical tallies and page images between
# the untraced and traced passes; overhead_pct is wall-clock and
# machine-dependent, so (like every rt cell) it is EXCLUDED from the
# BASELINES.json gate — the smoke checks structure, not the number.
cargo run --release --offline -p cblog-bench --bin rtbench -- \
    --trace-overhead --quick --txns 4 --wal-dir /tmp/ci_rtovh_wal \
    --out BENCH_rt_trace_overhead.json
grep '"overhead_pct"' BENCH_rt_trace_overhead.json > /dev/null
grep '"spans"' BENCH_rt_trace_overhead.json > /dev/null
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --input BENCH_rt_trace_overhead.json --out /tmp/ci_rtovh_report.html
grep 'overhead %' /tmp/ci_rtovh_report.html > /dev/null
rm -rf /tmp/ci_rtovh_wal /tmp/ci_rtovh_report.html

echo "==> obsreport compare smoke: sim vs rt, one seeded workload"
cargo run --release --offline -p cblog-bench --bin obsreport -- \
    --compare --out /tmp/ci_obs_compare.html
grep 'Bucket shares' /tmp/ci_obs_compare.html > /dev/null
rm -f /tmp/ci_obs_compare.html

echo "==> rtbench recovery smoke: parallel replay sweep (BENCH_rt_recovery.json)"
# Same caveat as above: wall-clock cells are machine-dependent (and
# this container may expose a single CPU, where parallel replay cannot
# beat serial in wall time) — the smoke checks structure only.
cargo run --release --offline -p cblog-bench --bin rtbench -- \
    --recovery --quick --wal-dir /tmp/ci_rtrec_wal --out BENCH_rt_recovery.json
grep '"rt_recovery"' BENCH_rt_recovery.json > /dev/null
grep '"workers":4' BENCH_rt_recovery.json > /dev/null
rm -rf /tmp/ci_rtrec_wal

echo "==> perfbench recovery smoke: crash_recover on the threaded engine"
# Recovers a 256-page, 64k-update threaded log and checks every
# recovered page byte-equal to its pre-crash image; the traced run
# also plants three faults and must catch each one. Wall-clock figures
# are not checked here — BENCHMARK.json's runs compare those.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload crash_recover --seed 1 --seconds 2 --trace 1 > /tmp/ci_perfbench.txt
grep '"correct": true' /tmp/ci_perfbench.txt > /dev/null
grep '"failed": 0' /tmp/ci_perfbench.txt > /dev/null
grep 'self-test: plan dropped from the tally: caught' /tmp/ci_perfbench.txt > /dev/null
grep 'self-test: byte flipped in a recovered page: caught' /tmp/ci_perfbench.txt > /dev/null
grep 'self-test: out-of-order replay hop injected: caught' /tmp/ci_perfbench.txt > /dev/null
rm -f /tmp/ci_perfbench.txt

echo "==> crash-point model checker: bounded CI budget"
# Exhaustively enumerates the CI space (crash points x victim sets x
# torn-tail landings x recovery interruptions x one-step message
# schedules), pruning converged branches by durable-state fingerprint.
# Deterministic, a few thousand branches, seconds of wall clock; any
# violation prints a replayable branch spec and exits nonzero.
cargo run --release --offline -p cblog-bench --bin checker -- \
    --ci > /tmp/ci_checker.txt
grep "violations=0" /tmp/ci_checker.txt > /dev/null
grep "truncated=false" /tmp/ci_checker.txt > /dev/null
cat /tmp/ci_checker.txt
rm -f /tmp/ci_checker.txt

echo "==> crash-point model checker: must-fail self-test"
# Proves the checker can fail: recovery with the undo phase planted
# out must produce violations that shrink to a minimal counterexample.
# A checker that never fails would look green forever.
cargo run --release --offline -p cblog-bench --bin checker -- \
    --self-test > /tmp/ci_checker_selftest.txt 2>&1
grep "planted undo-skip caught" /tmp/ci_checker_selftest.txt > /dev/null
rm -f /tmp/ci_checker_selftest.txt

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "CI OK"
