#!/usr/bin/env bash
# Consolidated bench regression gate, driven by tools/bench_manifest.tsv
# and tools/bench_digests.txt.
#
# It runs every virtual-time experiment of bench/main.exe (all but the
# host-time `micro` and `analyzer`) in smoke mode unless SEA_BENCH_SMOKE
# is already set, then makes two checks:
#
# - Digests: the simulation is deterministic, so the SHA-256 of each
#   experiment's stdout and of each manifest JSON must match
#   tools/bench_digests.txt byte for byte. The regenerated file is left
#   at _build/bench_digests.txt; when a change is meant to move an
#   output, copy it over tools/bench_digests.txt in that change.
# - Manifest: each bench's JSON is compared against its checked-in
#   baseline at +-10% per metric, and then the named headline check is
#   applied — the single result each bench exists to demonstrate, which
#   a drift that stays within 10% per-row could still break.
#
# Usage: tools/check_bench.sh [experiment ...]   (default: all of them)
#
# Run it from anywhere; it cds to the repo root. In CI wrap it with
# `opam exec --`. All BENCH_*.json outputs are left in the repo root so
# the always-upload artifact step can collect them even on failure.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bench/main.exe
export SEA_BENCH_SMOKE="${SEA_BENCH_SMOKE:-1}"
exe=_build/default/bench/main.exe
experiments=(table1 table2 figure2 figure3 impact concurrency faster-tpm
             io-loss multicore serving degradation trace fleet cost vtpm
             churn backend autoscale)

selected=("$@")
want() {
  [ ${#selected[@]} -eq 0 ] && return 0
  local b
  for b in "${selected[@]}"; do [ "$b" = "$1" ] && return 0; done
  return 1
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail=0
for e in "${experiments[@]}"; do
  want "$e" || continue
  if "$exe" "$e" >"$work/$e.partial"; then
    mv "$work/$e.partial" "$work/$e.stdout"
  else
    echo "$e: bench run failed"
    fail=1
  fi
done

echo "=== digests ==="
new=_build/bench_digests.txt
{
  for e in "${experiments[@]}"; do
    if [ -e "$work/$e.stdout" ]; then (cd "$work" && sha256sum "$e.stdout"); fi
  done
  while read -r bench out _; do
    case "$bench" in ''|\#*) continue ;; esac
    if [ -e "$work/$bench.stdout" ]; then sha256sum "$out"; fi
  done <tools/bench_manifest.tsv
} >"$new"
expected=tools/bench_digests.txt
if [ ${#selected[@]} -ne 0 ]; then
  expected="$work/expected"
  awk 'NR == FNR { ran[$2]; next } $2 in ran' "$new" tools/bench_digests.txt \
    >"$expected"
fi
if diff -u "$expected" "$new"; then
  echo "bench digests match"
else
  echo "bench output drifted; if intended: cp $new tools/bench_digests.txt"
  fail=1
fi

while read -r bench out baseline keys metrics headline; do
  case "$bench" in ''|\#*) continue ;; esac
  want "$bench" || continue
  echo "=== bench: $bench ==="
  if [ ! -e "$work/$bench.stdout" ]; then
    echo "$bench: no successful run"
    fail=1
    continue
  fi
  [ "$baseline" = "-" ] && { echo "$bench: run-only (no baseline)"; continue; }
  if ! python3 tools/compare_bench.py \
         "$bench" "$out" "$baseline" "$keys" "$metrics" "$headline"; then
    fail=1
  fi
done <tools/bench_manifest.tsv

if [ "$fail" -ne 0 ]; then
  echo "bench gate FAILED"
  exit 1
fi
echo "bench gate passed"
