#!/usr/bin/env bash
# Tier-1 verification: everything here must pass before merging.
#
# The suite is dependency-free by design (see DESIGN.md "Telemetry & run
# reports"), so this runs fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== bench binaries refuse an unknown flag (exit 2, before any work) =="
for cmd in "kernels --bogus" "fleet --qiuck" "fault_inject run --bogus"; do
  status=0
  ./target/release/$cmd 2>/dev/null || status=$?
  if [ "$status" -ne 2 ]; then
    echo "$cmd: expected exit 2, got $status" >&2
    exit 1
  fi
done

echo "== cargo test --workspace --release -q (default parallelism) =="
cargo test --workspace --release -q

echo "== cargo test --workspace --release -q (SPLATONIC_THREADS=1) =="
# The worker pool must be bit-identical at every width; re-running the
# whole suite pinned to one worker catches any schedule-dependent output.
SPLATONIC_THREADS=1 cargo test --workspace --release -q

echo "== cargo test --workspace --release -q (SPLATONIC_THREADS=4) =="
# A mid-width pass exercises real chunked fan-out (width 1 degenerates to
# the sequential path), catching merge-order bugs 1-vs-default can miss.
SPLATONIC_THREADS=4 cargo test --workspace --release -q

echo "== cargo test --release --manifest-path slam_bench/Cargo.toml =="
# The benchmark driver calls the public API directly; building and testing
# it here catches an API change that would break it before the benchmark
# pipeline runs.
cargo test --release --manifest-path slam_bench/Cargo.toml

echo "== examples: quickstart + accelerator_sweep =="
# The two fast examples run end to end on the public slam/harness API;
# replica_room and tum_fast_motion (10-20 s each) stay compile-only.
cargo run --release --example quickstart
cargo run --release --example accelerator_sweep

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (documented crates; warnings are errors) =="
# The crates with #![warn(missing_docs)]: every public item must be
# documented and every intra-doc link must resolve (DESIGN.md §13, §14).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p splatonic-math -p splatonic-scene -p splatonic-render \
  -p splatonic-telemetry -p splatonic-slam -p splatonic-bench

echo "== traced instrumented run + trace/report gates (DESIGN.md §14) =="
# One quick instrumented pass exporting all three artifacts, then the
# gates: the Chrome trace must nest per-lane and span >= 2 threads (pool
# workers trace on their own lanes at SPLATONIC_THREADS=4), and report_diff
# must pass the report against the committed baseline (DESIGN.md §9). The
# JSONL stream's shape is asserted by the bench crate's report tests.
VERIFY_TMP="$(mktemp -d)"
trap 'rm -rf "$VERIFY_TMP"' EXIT
SPLATONIC_THREADS=4 cargo run --release -p splatonic-bench --bin figures -- --quick \
  --report "$VERIFY_TMP/report.json" \
  --trace-out "$VERIFY_TMP/trace.json" \
  --events-out "$VERIFY_TMP/events.jsonl"
python3 scripts/check_trace.py "$VERIFY_TMP/trace.json" --min-threads 2
cargo run --release -p splatonic-bench --bin report_diff -- \
  "$VERIFY_TMP/report.json" scripts/bench_baseline.json

echo "== fleet smoke: 3 interleaved sessions, bitwise vs sequential (DESIGN.md §15) =="
# The serving layer's contract end to end: K sessions interleaved through
# one SessionManager (with snapshot eviction/resume forced by the default
# max-resident of K-1) must be bitwise identical to K sequential runs —
# the fleet binary exits nonzero on any divergence or if no eviction
# cycle happened. The merged trace must carry one process group per
# session and still pass the per-lane nesting gate.
SPLATONIC_THREADS=4 cargo run --release -p splatonic-bench --bin fleet -- --quick --sessions 3 \
  --report "$VERIFY_TMP/fleet_report.json" \
  --trace-out "$VERIFY_TMP/fleet_trace.json"
python3 scripts/check_trace.py "$VERIFY_TMP/fleet_trace.json" --min-threads 2

echo "== kernels + fault_inject trace/event exports (DESIGN.md §14) =="
# The other two bench binaries export through the same helper as figures
# and fleet (crates/bench/src/cli.rs); their traces pass the same gate.
# The fault_inject run writes its trace just before the simulated crash,
# so it must still exit 21.
SPLATONIC_THREADS=4 cargo run --release -q -p splatonic-bench --bin kernels -- --iters 1 \
  --trace-out "$VERIFY_TMP/kernels_trace.json" \
  --events-out "$VERIFY_TMP/kernels_events.jsonl" > /dev/null
status=0
SPLATONIC_THREADS=4 cargo run --release -q -p splatonic-bench --bin fault_inject -- run \
  --dir "$VERIFY_TMP/fault" --kill-at 3 \
  --trace-out "$VERIFY_TMP/fault_run_trace.json" \
  --events-out "$VERIFY_TMP/fault_run_events.jsonl" || status=$?
if [ "$status" -ne 21 ]; then
  echo "fault_inject run: expected the simulated crash to exit 21, got $status" >&2
  exit 1
fi
SPLATONIC_THREADS=4 cargo run --release -q -p splatonic-bench --bin fault_inject -- resume \
  --dir "$VERIFY_TMP/fault" \
  --trace-out "$VERIFY_TMP/fault_resume_trace.json" \
  --events-out "$VERIFY_TMP/fault_resume_events.jsonl"
for name in kernels fault_run fault_resume; do
  python3 scripts/check_trace.py "$VERIFY_TMP/${name}_trace.json" --min-threads 2
  test -s "$VERIFY_TMP/${name}_events.jsonl"
done

echo "== scripts/bench_record.sh --iters 1 (sort-reduction + KERNEL_SPANS gates) =="
# The recorder refuses a tile-sort reduction below 2x (DESIGN.md §16) and
# fails when a recorded kernel span is missing from the kernels report, so
# running it here gates both locally as CI does. It writes to scratch files;
# the committed trajectories are appended to only on purpose.
bash scripts/bench_record.sh --iters 1 \
  --out "$VERIFY_TMP/BENCH_kernels.json" --sort-out "$VERIFY_TMP/BENCH_sort.json"

echo "== scripts/fault_inject.sh (kill/resume bitwise + corruption gate) =="
# Cross-process checkpoint/resume: kill mid-run, resume from the snapshot,
# assert bitwise-identical results at widths 1, 4, and auto (DESIGN.md §12).
bash scripts/fault_inject.sh

echo "verify: OK"
