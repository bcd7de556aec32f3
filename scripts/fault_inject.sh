#!/usr/bin/env bash
# Fault-injection gate for the checkpoint/resume subsystem (DESIGN.md §12).
#
# For each thread width (1, 4, and auto) the harness:
#   1. runs SLAM, cutting snapshots on a cadence, and kills the process
#      after a configurable frame (exit code 21 marks the planned crash);
#   2. resumes from the newest snapshot in a fresh process and asserts the
#      completed run is BITWISE identical in every result field
#      (SlamResult::bitwise_mismatches) to an uninterrupted in-process run;
#   3. corrupts the snapshot four ways (payload flip, truncation, bad magic,
#      future version) and asserts each is rejected with its typed error.
#
# Dependency-free: only cargo + coreutils.
set -uo pipefail
cd "$(dirname "$0")/.."

KILL_AT="${KILL_AT:-5}"
CHECKPOINT_EVERY="${CHECKPOINT_EVERY:-2}"
BIN=(cargo run --release -q -p splatonic-bench --bin fault_inject --)

echo "== build fault_inject =="
cargo build --release -q -p splatonic-bench --bin fault_inject

for width in 1 4 auto; do
  dir="$(mktemp -d "${TMPDIR:-/tmp}/splatonic-fault-XXXXXX")"
  trap 'rm -rf "$dir"' EXIT
  if [ "$width" = auto ]; then
    # Auto = the pool's own resolution (host parallelism); the env var must
    # be absent, not zero — it is read once per process and cached.
    unset SPLATONIC_THREADS || true
    env_prefix=(env -u SPLATONIC_THREADS)
  else
    env_prefix=(env "SPLATONIC_THREADS=$width")
  fi
  echo "== fault injection at SPLATONIC_THREADS=$width =="

  "${env_prefix[@]}" "${BIN[@]}" run --dir "$dir" --kill-at "$KILL_AT" \
    --checkpoint-every "$CHECKPOINT_EVERY"
  status=$?
  if [ "$status" -ne 21 ]; then
    echo "fault_inject: expected the simulated crash to exit 21, got $status" >&2
    exit 1
  fi
  if ! ls "$dir"/*.snap >/dev/null 2>&1; then
    echo "fault_inject: the killed run left no snapshot in $dir" >&2
    exit 1
  fi

  "${env_prefix[@]}" "${BIN[@]}" resume --dir "$dir" || exit 1
  "${env_prefix[@]}" "${BIN[@]}" corrupt --dir "$dir" || exit 1

  rm -rf "$dir"
  trap - EXIT
done

echo "fault_inject: OK"
