#!/usr/bin/env bash
# Prints the non-test lines of code per crate and in total under
# crates/*/src. A file's non-test lines are the lines before its first
# `#[cfg(test)]` (all of its lines when it has none).
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  n=0
  while IFS= read -r -d '' f; do
    c="$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
    n=$((n + c))
  done < <(find "${dir}src" -name '*.rs' -print0)
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
