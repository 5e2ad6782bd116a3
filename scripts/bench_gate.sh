#!/usr/bin/env bash
# Bench regression gate: run the deterministic bench harness set and diff
# the resulting tables against the committed baseline (BENCH_mapping.json).
#
# Everything compared is seed-fixed and virtual-time — wall-clock columns
# (svc_load's p50/p99 latencies, per-run seconds) ride along in the
# baseline as informational context but never gate — so the gate flags
# changes to mapping quality (hop-bytes, max-link-load, L2, simulated
# completion), cache-sharing invariants (svc_load hit_rate) and the work
# counters of the benchmark's mapping shapes (work_counters, compared
# exactly), never machine speed.  After an intentional algorithm change,
# regenerate the baseline and commit it:
#
#   scripts/bench_gate.sh <build-dir> --update
#
# Usage: scripts/bench_gate.sh <build-dir> [--update]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:?usage: scripts/bench_gate.sh <build-dir> [--update]}"
MODE="${2:-compare}"
REPO="$PWD"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run() {
  local bin="$1"
  shift
  (cd "$TMP" && "$REPO/$BUILD/bench/$bin" "$@" >/dev/null)
}

# The gate set: fixed seeds, reduced iteration counts for CI speed.  The
# baseline must be generated with these exact flags (--update does).
run fig7_8_latency_vs_bw --iterations=50
run fig9_completion_time --iterations=200
run ablation_strategy_shootout
run ablation_soft_faults
run ablation_hier_scale --full=0
run ablation_chaos_soak --epochs=60
run ablation_optimality_gap
run svc_load
run work_counters

if [ "$MODE" = "--update" ]; then
  python3 scripts/bench_compare.py rollup --dir "$TMP/bench_results" \
    --out BENCH_mapping.json
else
  python3 scripts/bench_compare.py compare --baseline BENCH_mapping.json \
    --dir "$TMP/bench_results"
fi
