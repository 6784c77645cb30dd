#!/usr/bin/env bash
# CI gate: formatting, lints, build, the tier-1 test suite, the
# benchmark's self-test, and the oracle, recovery and daemon smokes.
#
# This script is the one definition of CI: .github/workflows/ci.yml runs it
# after installing the toolchain, so the same checks run locally before a
# push. The workspace has no external dependencies, so everything works
# offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== tier-1: cargo test (root package) =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== workspace tests (release) =="
cargo test --workspace --release -q

echo "== benchmark build + self-test (perfbench) =="
# perfbench is its own workspace and builds against these crates by path,
# so a change to their public API can break `python3 perfbench/run.py`
# while every workspace step stays green.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "== differential oracle smoke (consim-check, fixed seed) =="
# The generator draws dynamic-repartitioning cases at ~30% and lifecycle
# churn at ~30%, so this smoke covers the QoS controller and the
# birth–death/migration machinery against the naive mirror.
cargo run --release -q -p consim-check --bin fuzz -- --cases 500 --seed 7

echo "== QoS mutation self-test (IgnoreRepartition must be caught) =="
cargo test --release -q -p consim-check ignore_repartition_mutation_is_detected

echo "== churn mutation self-tests (IgnoreRetire, SkipMigrationInvalidation) =="
cargo test --release -q -p consim-check ignore_retire_mutation_is_detected
cargo test --release -q -p consim-check skip_migration_invalidation_mutation_is_detected

echo "== lifecycle churn smoke (every case churned, fixed seed) =="
cargo run --release -q -p consim-check --bin fuzz -- --cases 200 --seed 23 --churn

echo "== checkpoint/resume seam smoke (consim-check, fixed seed) =="
cargo run --release -q -p consim-check --bin fuzz -- --cases 200 --seed 11 --resume

echo "== fast-path fuzz smoke (high-locality bias, fixed seed) =="
cargo run --release -q -p consim-check --bin fuzz -- --cases 200 --seed 19 --high-locality

echo "== determinism across thread counts (CONSIM_THREADS=4) =="
CONSIM_THREADS=4 cargo test -q --test determinism

echo "== audit + trace smoke (release run_all at tiny quotas) =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
CONSIM_REFS=2000 CONSIM_WARMUP=500 CONSIM_SEEDS=1 \
  cargo run --release -q -p consim-bench --bin run_all -- \
  --audit --trace "$smoke_dir" > /dev/null
test -s "$smoke_dir/events.jsonl"
test -s "$smoke_dir/manifest.json"
grep -q '"event":"audit_passed"' "$smoke_dir/events.jsonl"
grep -q '"bin": "run_all"' "$smoke_dir/manifest.json"

echo "== job-pool crash/resume smoke (CONSIM_FAULT, zero lost jobs) =="
# Kill a run after 2 completed jobs, resume it, and demand the resumed
# figure text is byte-identical to an uninterrupted run. The faulted
# invocation must exit non-zero but journal every completed job.
job_env=(CONSIM_REFS=2000 CONSIM_WARMUP=500 CONSIM_SEEDS=1)
env "${job_env[@]}" \
  cargo run --release -q -p consim-bench --bin run_all \
  > "$smoke_dir/plain.txt"
if env "${job_env[@]}" CONSIM_FAULT=cell:2 \
  cargo run --release -q -p consim-bench --bin run_all -- \
  --resume "$smoke_dir/journal" > /dev/null 2> "$smoke_dir/fault.log"; then
  echo "fault-injected run_all unexpectedly succeeded" >&2
  exit 1
fi
grep -q "fault injected" "$smoke_dir/fault.log"
recs=$(ls "$smoke_dir/journal"/job-*.bin | wc -l)
[ "$recs" -ge 2 ] || { echo "expected >=2 journaled jobs, got $recs" >&2; exit 1; }
env "${job_env[@]}" \
  cargo run --release -q -p consim-bench --bin run_all -- \
  --resume "$smoke_dir/journal" > "$smoke_dir/resumed.txt"
cmp "$smoke_dir/plain.txt" "$smoke_dir/resumed.txt"

echo "== daemon stress smoke (crash mid-run, restart, ledger match) =="
# A fixed-seed 200-job stress against the consim-serve daemon. The
# reference run is uninterrupted and verifies every completed outcome
# byte-for-byte against a serial WorkerPool reference; the crash run
# SIGKILLs the daemon after 60 acked submissions and additionally arms
# CONSIM_FAULT=jobs:40 on the first daemon process, restarting over the
# same journal each time. Zero lost jobs (stress exits non-zero
# otherwise), at least one restart, and a byte-identical ledger are the
# gates. consim-serve is not a root-package dependency, so build it
# explicitly.
cargo build --release -q -p consim-serve
target/release/stress --seed 9 --jobs 200 --clients 4 --workers 2 \
  --scratch "$smoke_dir/serve-ref" --ledger "$smoke_dir/ref.ledger" \
  > "$smoke_dir/stress-ref.txt"
target/release/stress --seed 9 --jobs 200 --clients 4 --workers 2 \
  --kill-after 60 --fault-after 40 --no-verify \
  --scratch "$smoke_dir/serve-crash" --ledger "$smoke_dir/crash.ledger" \
  > "$smoke_dir/stress-crash.txt"
if grep -q "restarts=0" "$smoke_dir/stress-crash.txt"; then
  echo "crash run never restarted the daemon" >&2
  cat "$smoke_dir/stress-crash.txt" >&2
  exit 1
fi
cmp "$smoke_dir/ref.ledger" "$smoke_dir/crash.ledger"

echo "== perf smoke (non-gating, short engine-shapes run) =="
# A short perfbench engine-shapes run compared with the change-side median
# committed in BENCH_engine-shapes.json. Informational only: wall-clock
# noise (shared CI boxes, thermal state) is far above any gate we could
# set, so a regression here prompts alternating parent/change
# `python3 perfbench/run.py --workload engine-shapes` pairs by hand
# (DESIGN.md §10, "Measurement protocol").
if [ ! -s BENCH_engine-shapes.json ]; then
  echo "perf smoke: SKIPPED — no committed BENCH_engine-shapes.json"
else
  probe=$(python3 perfbench/run.py --workload engine-shapes --seed 1 --seconds 10 \
    --trace 0 2> /dev/null | tail -n 1) || echo "perf smoke failed (non-gating)"
  python3 - "$probe" 2> /dev/null <<'PY' ||
import json, sys
probe = json.loads(sys.argv[1])
base = json.load(open("BENCH_engine-shapes.json"))["change"]["refs_per_s"]["median"]
rate = probe["metrics"]["refs_per_s"]["value"]
print(f"perf smoke: correct={str(probe['correct']).lower()} refs_per_s={rate:.3g}"
      f" vs committed change-side median {base:.3g} ({rate / base:.2f}x; informational)")
PY
    echo "perf smoke: probe produced no parsable output (non-gating)"
fi

echo "CI OK"
