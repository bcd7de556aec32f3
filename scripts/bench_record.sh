#!/usr/bin/env bash
# Records a scalar-vs-SIMD kernel benchmark pair into BENCH_kernels.json
# and the tile-sort work counts into BENCH_sort.json.
#
# Runs the `kernels` micro-benchmark binary twice — once with `--scalar`
# (the bit-exactness oracle) and once with `--simd` (the vector projection,
# DESIGN.md §13) — and hands both run reports to `report_diff record`
# (crates/bench/src/record.rs), which appends one dated entry, stamped with
# `rustc -V`, to each trajectory:
#
# * BENCH_kernels.json: both runs' span timings plus the derived per-kernel
#   speedups. Each commit that touches the hot kernels should append one so
#   the history of the scalar/SIMD gap stays reviewable in-repo.
# * BENCH_sort.json: the SIMD run's sorted-element counts for the grouped
#   tile sort, whose backward passes read their forward's sorted lists,
#   against the per-tile baseline that sorts in every pass, which every
#   `kernels` run measures in-process (DESIGN.md §16). These are
#   deterministic workload counters, comparable across hosts; the recorder
#   exits nonzero (writing neither file) if the reduction is below 2x.
#
# Usage: bench_record.sh [--iters N] [--out BENCH_kernels.json]
#                        [--sort-out BENCH_sort.json]
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS=50
OUT=BENCH_kernels.json
SORT_OUT=BENCH_sort.json
while [[ $# -gt 0 ]]; do
  case "$1" in
    --iters) ITERS="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --sort-out) SORT_OUT="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cargo build --release -p splatonic-bench --bin kernels --bin report_diff

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "[bench_record] scalar pass (${ITERS} iters)..."
./target/release/kernels --iters "$ITERS" --scalar \
  --report "$TMP/scalar.json" >/dev/null
echo "[bench_record] simd pass (${ITERS} iters)..."
./target/release/kernels --iters "$ITERS" --simd \
  --report "$TMP/simd.json" >/dev/null

./target/release/report_diff record "$TMP/scalar.json" "$TMP/simd.json" "$OUT" "$SORT_OUT"
