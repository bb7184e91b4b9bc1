#!/usr/bin/env bash
# Consolidated cluster-determinism gate.
#
# Every case runs the same fleet twice — once on 1 shard, once on 4 —
# and byte-diffs the merged reports: the virtual-time simulation must
# not let the domain count show anywhere in its output. The current-mode
# pair of the `shards` case doubles as the shard speedup measurement
# (its per-request TPM/LPC event storm gives the longest single-shard
# wall time), gated at SEA_MIN_SPEEDUP (default 2.0; set 0 to skip on
# oversubscribed machines).
#
# Usage: tools/check_determinism.sh [all|shards|cost|vtpm|churn|autoscale|observe|compose]
#
# Run it from anywhere; it cds to the repo root. In CI wrap it with
# `opam exec --`. Report files are left as fleet-*.txt in the repo root
# so the always-upload artifact step can collect them.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/sea_cli.exe
cli=_build/default/bin/sea_cli.exe

filter="${1:-all}"
case "$filter" in
  all|shards|cost|vtpm|churn|autoscale|observe|compose) ;;
  *)
    echo "usage: $0 [all|shards|cost|vtpm|churn|autoscale|observe|compose]" >&2
    exit 2
    ;;
esac
want() { [ "$filter" = all ] || [ "$filter" = "$1" ]; }

timed_run() { # timed_run <out-file> <ms-file> <cluster args...>
  out=$1; msf=$2; shift 2
  start=$(date +%s%N)
  "$cli" cluster "$@" >"$out" 2>/dev/null
  end=$(date +%s%N)
  echo $(( (end - start) / 1000000 )) >"$msf"
}

# Shard determinism on all three isolation backends, plus the shard
# speedup gate on the current-mode pair.
if want shards; then
  for mode in current proposed sfi; do
    case "$mode" in
      current)  flags="--rate 8 --duration 60" ;;
      proposed) flags="--rate 96 --duration 60" ;;
      sfi)      flags="--rate 96 --duration 60" ;;
    esac
    timed_run "fleet-$mode-s1.txt" "ms-$mode-s1" \
      --mode "$mode" --machines 8 --shards 1 --seed 11 $flags
    timed_run "fleet-$mode-s4.txt" "ms-$mode-s4" \
      --mode "$mode" --machines 8 --shards 4 --seed 11 $flags
    diff "fleet-$mode-s1.txt" "fleet-$mode-s4.txt"
    echo "$mode: fleet report byte-identical across shard counts" \
         "(shards=1 $(cat ms-$mode-s1) ms, shards=4 $(cat ms-$mode-s4) ms)"
  done
  python3 - "$(cat ms-current-s1)" "$(cat ms-current-s4)" \
    "${SEA_MIN_SPEEDUP:-2.0}" <<'EOF'
import sys
s1, s4, floor = (float(a) for a in sys.argv[1:4])
speedup = s1 / max(s4, 1e-9)
print(f"current-mode shard speedup: {speedup:.2f}x "
      f"(shards=1 {s1:.0f} ms, shards=4 {s4:.0f} ms, floor {floor:g}x)")
sys.exit(0 if speedup >= floor else 1)
EOF
fi

# The cost-aware pair — cost-weighted routing driven by the static
# certificates plus certificate-cost admission.
if want cost; then
  for shards in 1 4; do
    "$cli" cluster --mode proposed --machines 4 --shards "$shards" \
      --seed 5 --rate 120 --duration 2 \
      --policy cost-weighted --admission cost >"fleet-cost-s$shards.txt"
  done
  diff fleet-cost-s1.txt fleet-cost-s4.txt
  echo "cost-aware fleet report byte-identical across shard counts"
fi

# vTPM multiplexing on both hardware modes (the anchor pipeline runs in
# the background, so the shard count must not show in the render).
if want vtpm; then
  for mode in current proposed; do
    case "$mode" in
      current)  flags="--rate 8 --duration 5" ;;
      proposed) flags="--rate 48 --duration 5" ;;
    esac
    for shards in 1 4; do
      "$cli" cluster --mode "$mode" --machines 4 --shards "$shards" \
        --seed 13 --vtpm 4 $flags >"fleet-vtpm-$mode-s$shards.txt"
    done
    diff "fleet-vtpm-$mode-s1.txt" "fleet-vtpm-$mode-s4.txt"
    grep -q "vtpm: 16 instances" "fleet-vtpm-$mode-s1.txt"
    echo "$mode: vTPM fleet report byte-identical across shard counts"
  done
fi

# Machine churn: crashes, heartbeat detection and sealed-state failover
# all happen at epoch barriers on the main domain, so shards never see
# them. SFI takes the cold-restart failover path.
if want churn; then
  for mode in current proposed sfi; do
    case "$mode" in
      current)  flags="--rate 8 --duration 6" ;;
      proposed) flags="--rate 48 --duration 6" ;;
      sfi)      flags="--rate 48 --duration 6" ;;
    esac
    for shards in 1 4; do
      "$cli" cluster --mode "$mode" --machines 8 --shards "$shards" \
        --seed 11 --mttf 2 --mttr 3 --link-loss 0.2 $flags \
        >"fleet-churn-$mode-s$shards.txt" 2>/dev/null
    done
    diff "fleet-churn-$mode-s1.txt" "fleet-churn-$mode-s4.txt"
    grep -q "^churn:" "fleet-churn-$mode-s1.txt"
    echo "$mode: churn fleet report byte-identical across shard counts"
  done
fi

# Autoscaling: the controller samples loads, resizes the ring and
# migrates resident PALs at the same epoch barriers, so a flash crowd
# being actively rebalanced must still render byte-identically across
# shard counts — on the proposed hardware (live sealed-state migration)
# and under SFI (kill-and-respawn spreading).
if want autoscale; then
  for mode in proposed sfi; do
    case "$mode" in
      proposed) as="migrate" ;;
      sfi)      as="auto" ;;
    esac
    for shards in 1 4; do
      "$cli" cluster --mode "$mode" --machines 4 --shards "$shards" \
        --seed 11 --rate 96 --duration 4 --policy hash \
        --autoscale "$as" --shape flash \
        >"fleet-autoscale-$mode-s$shards.txt" 2>/dev/null
    done
    diff "fleet-autoscale-$mode-s1.txt" "fleet-autoscale-$mode-s4.txt"
    grep -q "^autoscale:" "fleet-autoscale-$mode-s1.txt"
    grep -q "^rebalance:" "fleet-autoscale-$mode-s1.txt"
    echo "$mode: autoscaling fleet report byte-identical across shard counts"
  done
fi

# Observing must not perturb: an observe-only controller (static
# autoscale) cuts the window every 0.25 s, and each machine's live
# server pauses at the cut instead of restarting, so the render is the
# uncontrolled one apart from the controller's own two lines — on every
# backend, and on 1 and 4 shards alike.
if want observe; then
  for mode in current proposed sfi; do
    case "$mode" in
      current)  flags="--rate 8 --duration 5 --vtpm 4" ;;
      proposed) flags="--rate 40 --duration 5" ;;
      sfi)      flags="--rate 40 --duration 5" ;;
    esac
    "$cli" cluster --mode "$mode" --machines 4 --seed 13 --policy hash \
      $flags >"fleet-observe-$mode-plain.txt" 2>/dev/null
    for shards in 1 4; do
      "$cli" cluster --mode "$mode" --machines 4 --shards "$shards" \
        --seed 13 --policy hash $flags --autoscale static \
        --scale-interval 0.25 2>/dev/null \
        | grep -v -e '^autoscale:' -e '^rebalance:' \
        >"fleet-observe-$mode-s$shards.txt"
    done
    diff "fleet-observe-$mode-plain.txt" "fleet-observe-$mode-s1.txt"
    diff "fleet-observe-$mode-s1.txt" "fleet-observe-$mode-s4.txt"
    echo "$mode: observe-only controller leaves the fleet report unchanged" \
         "(shards 1 = 4)"
  done
fi

# Every fleet feature at once: churn with failover, migrate autoscaling
# under a flash crowd, vTPM multiplexing and fault injection (plus lossy
# links and cost admission on the proposed hardware) — the runs pinned
# as cluster_composed_*.txt in test/golden.
if want compose; then
  for mode in proposed current; do
    case "$mode" in
      proposed) flags="--rate 48 --link-loss 0.1 --admission cost" ;;
      current)  flags="--rate 6" ;;
    esac
    for shards in 1 4; do
      "$cli" cluster --mode "$mode" --machines 4 --shards "$shards" \
        --policy hash --seed 7 --duration 3 --mttf 3 --mttr 1 \
        --autoscale migrate --shape flash --vtpm 2 --fault-rate 0.02 $flags \
        >"fleet-compose-$mode-s$shards.txt" 2>/dev/null
    done
    diff "fleet-compose-$mode-s1.txt" "fleet-compose-$mode-s4.txt"
    for line in '^churn:' '^failover:' '^autoscale:' '^vtpm:' '^faults injected:'; do
      grep -q "$line" "fleet-compose-$mode-s1.txt"
    done
    echo "$mode: composed fleet report byte-identical across shard counts"
  done
fi

echo "determinism gate passed ($filter)"
