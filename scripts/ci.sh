#!/usr/bin/env bash
# CI driver: three builds.  The full suite in release (warnings are
# errors) plus the obs artifact and telemetry checks on its binaries, then
# the labeled slices under ASan/UBSan (TOPOMAP_SANITIZE=ON), then the
# threaded suites under ThreadSanitizer.  Telemetry is compiled into every
# build and switched on at runtime, so every build runs the OBS_* sites.
#
# The sanitizer pass runs label by label — unit, property, fault, hier,
# chaos, oracle, svc, fuzz — so a failure names the tier that broke, and the
# (slower) instrumented binaries only run the suites worth instrumenting
# instead of every sweep twice.
#
# Usage: scripts/ci.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== release: configure + build + full suite ==="
cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DTOPOMAP_WERROR=ON >/dev/null
cmake --build build-ci-release -j "$JOBS"
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS"

echo "=== oracle slice (release): exact ground truth + optimality gaps ==="
# Brute-force/B&B agreement and every strategy's admissibility bound; fast
# enough to call out explicitly so an optimality regression names itself.
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L oracle

echo "=== svc slice (release): protocol, cache pool, daemon e2e ==="
# The topomapd service layer: framing/schema strictness, deterministic
# CachePool sharing, and the 64-in-flight byte-identity contract against
# one-shot CLI execution.
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" -L svc

echo "=== bench regression gate (deterministic tables vs baseline) ==="
# Non-timing gate: wall-clock columns (svc_load p50/p99, per-run seconds)
# ride along as informational baseline context but are skipped at compare,
# so only mapping-quality columns (hop-bytes, max-link-load, L2,
# virtual-time results) and deterministic service-cache counters can fail
# it.  scripts/bench_gate.sh <dir> --update regenerates.
scripts/bench_gate.sh build-ci-release

echo "=== smoke (release): CLI end to end, exit codes, CLI == daemon bytes ==="
# Thread invariance, fault/partition/oracle paths, the exit-code taxonomy
# (including topomapd/client range checks) and the served == one-shot
# byte diffs for every mapping kind, on the release build above.
scripts/smoke_test.sh build-ci-release

echo "=== obs (release): artifact validation, recording on vs off ==="
# Telemetry is compiled into every build and switched on at runtime, so the
# obs unit tests already ran in the full suite above.  Here: one traced
# mapping; the artifacts must validate and the mapping must be
# byte-identical to the same binary's run with recording off.  TopoLB's
# work counts are pinned exactly (they do not depend on host or thread
# count; tests/test_obs.cpp pins them too), so a change to the row-minima
# buffer, the row sweep or the selection's block skipping shows up here as
# a counted work change, and so does a change to the link-load route walk
# (links/route_hops); the stage
# spans of ops::run_map must all close.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
CLI=build-ci-release/tools/topomap
DAEMON=build-ci-release/tools/topomapd
"$CLI" map --strategy=topolb --tasks=stencil2d:16x16 \
  --topology=torus:16x16 --seed=7 --output="$OBS_TMP/obs.map" \
  --trace="$OBS_TMP/trace.json" --stats="$OBS_TMP/stats.json" >/dev/null
python3 scripts/check_trace.py --trace "$OBS_TMP/trace.json" \
  --stats "$OBS_TMP/stats.json" \
  --require-series topolb/hop_bytes_trajectory \
  --require-counter topolb/placements --require-counter distcache/builds \
  --expect-counter topolb/row_rescans=480 \
  --expect-counter topolb/f_est_evals=67784 \
  --expect-counter topolb/select_evals=13555 \
  --expect-counter links/route_hops=960 \
  --require-span ops/make_task_graph --require-span ops/acquire_machine \
  --require-span ops/strategy_map --require-span ops/hop_bytes \
  --require-span ops/link_loads --require-span ops/mapping_text
TOPOMAP_OBS=0 "$CLI" map --strategy=topolb --tasks=stencil2d:16x16 \
  --topology=torus:16x16 --seed=7 --output="$OBS_TMP/plain.map" >/dev/null
diff "$OBS_TMP/plain.map" "$OBS_TMP/obs.map"
# RefineTopoLB on the served map shape: one sweep visits every pair, and
# the swap bound skips all but the pairs one link apart, so a change to the
# bound or the sweep shows up as a counted work change.
"$CLI" map --strategy=topolb+refine --tasks=stencil2d:16x16 \
  --topology=torus:8x8x4 --output="$OBS_TMP/refine_obs.map" \
  --stats="$OBS_TMP/refine_stats.json" >/dev/null
python3 scripts/check_trace.py --stats "$OBS_TMP/refine_stats.json" \
  --expect-counter refine/swap_attempts=32640 \
  --expect-counter refine/delta_evals=768 \
  --expect-counter refine/pairs_skipped=31872 \
  --require-span refine/run
TOPOMAP_OBS=0 "$CLI" map --strategy=topolb+refine --tasks=stencil2d:16x16 \
  --topology=torus:8x8x4 --output="$OBS_TMP/refine_plain.map" >/dev/null
diff "$OBS_TMP/refine_plain.map" "$OBS_TMP/refine_obs.map"
# The cold served shape with 4 dead processors: one BFS per alive row of
# the SubTopology's plane plus one row proving it connected (253).  The
# "random expectation" line reads that plane's means instead of searching
# the 252 alive rows again.  A second search per row for its mean, or a
# connectivity check per member, shows up here (the count was 1008 with
# both, 505 with the expectation's own searches).
"$CLI" map --strategy=topolb+refine --tasks=stencil2d:15x16 \
  --topology=torus:8x8x4 --random-node-faults=4 --fault-seed=7 \
  --output="$OBS_TMP/cold_obs.map" --stats="$OBS_TMP/cold_stats.json" >/dev/null
python3 scripts/check_trace.py --stats "$OBS_TMP/cold_stats.json" \
  --expect-counter faultoverlay/row_searches=253 \
  --expect-counter distcache/rows_built=252
TOPOMAP_OBS=0 "$CLI" map --strategy=topolb+refine --tasks=stencil2d:15x16 \
  --topology=torus:8x8x4 --random-node-faults=4 --fault-seed=7 \
  --output="$OBS_TMP/cold_plain.map" >/dev/null
diff "$OBS_TMP/cold_plain.map" "$OBS_TMP/cold_obs.map"
# Link faults only: every processor is alive, so the strategy's plane
# covers the machine, and the run searches its 4096 rows plus one
# connectivity row (8193 when the expectation searched them again).  The
# overlay's plane, the one kind that is repaired in place, stores two bytes
# per pair: 4096^2 * 2.
"$CLI" map --strategy=topolb --tasks=stencil2d:64x64 --topology=torus:64x64 \
  --random-link-faults=40 --stats="$OBS_TMP/links_stats.json" >/dev/null
python3 scripts/check_trace.py --stats "$OBS_TMP/links_stats.json" \
  --expect-counter faultoverlay/row_searches=4097 \
  --expect-counter distcache/plane_bytes=33554432
# The flat-4k shape: torus:16x16x16 (diameter 24) fits its plane in one
# byte per pair, 4096^2 bytes, and TopoLB's work counts on it are pinned,
# with its placed-cost pool: at most 2 tasks have two placed neighbours at
# once, so it takes 2 rows.
"$CLI" map --strategy=topolb --tasks=stencil2d:64x64 \
  --topology=torus:16x16x16 --stats="$OBS_TMP/flat_stats.json" >/dev/null
python3 scripts/check_trace.py --stats "$OBS_TMP/flat_stats.json" \
  --expect-counter distcache/plane_bytes=16777216 \
  --expect-counter topolb/f_est_evals=16902912 \
  --expect-counter topolb/row_rescans=8147 \
  --expect-counter topolb/pool_rows=2
# A swap-dense random start: 278 accepted swaps over eight passes.  Every
# visited pair is skipped or evaluated exactly once, so the counts pin the
# sequential first-improvement sweep, and the mapping must not depend on
# the pool width.
TOPOMAP_THREADS=1 "$CLI" map --strategy=random+refine --tasks=er:128:0.1 \
  --topology=hypercube:7 --seed=5 --output="$OBS_TMP/swaps_w1.map" \
  --stats="$OBS_TMP/swaps_stats.json" >/dev/null
python3 scripts/check_trace.py --stats "$OBS_TMP/swaps_stats.json" \
  --expect-counter refine/swap_attempts=65024 \
  --expect-counter refine/delta_evals=54141 \
  --expect-counter refine/pairs_skipped=10883 \
  --expect-counter refine/swap_accepts=278
TOPOMAP_THREADS=4 "$CLI" map --strategy=random+refine --tasks=er:128:0.1 \
  --topology=hypercube:7 --seed=5 --output="$OBS_TMP/swaps_w4.map" >/dev/null
diff "$OBS_TMP/swaps_w1.map" "$OBS_TMP/swaps_w4.map"
# Contention explainability: the explain artifact must carry the versioned
# schema with exact attribution sums, a diff, and netsim counter tracks in
# the trace (virtual-time telemetry next to the wall-clock spans).
"$CLI" explain --strategy=topolb --baseline=greedy \
  --tasks=stencil2d:8x8 --topology=torus:8x8 --seed=7 --iterations=30 \
  --report="$OBS_TMP/contention.json" --trace="$OBS_TMP/explain_trace.json" \
  --stats="$OBS_TMP/explain_stats.json" >/dev/null
python3 scripts/check_trace.py --contention "$OBS_TMP/contention.json"
# The report bytes are pinned whole: every attribution, timeline and diff
# cell of this instance.
echo "743267c91b305000d01856ef1f6829db1df0ff20b60fe9000c674ed49dc615f4  $OBS_TMP/contention.json" \
  | sha256sum -c --quiet
python3 scripts/check_trace.py --trace "$OBS_TMP/explain_trace.json" \
  --require-counter-track netsim/util_max \
  --require-counter-track netsim/queue_depth \
  --stats "$OBS_TMP/explain_stats.json" \
  --expect-counter links/route_hops=1110 \
  --require-any-series netsim/util_max \
  --require-any-series netsim/queue_depth
echo "obs slice ok: artifacts validate, mapping identical with recording off"

echo "=== telemetry e2e (release): daemon metrics/flight/event-log ==="
# The service telemetry plane end to end: a recording daemon (--stats
# switches recording on) with the event log active serves requests, its
# metrics snapshot and flight dump validate against the strict schemas
# (including per-correlation lifecycle nesting), the Prometheus exposition
# carries the request counters, SIGUSR1 dumps the flight recorder, the
# event log holds one line per request with unique correlation ids — and
# the served mapping bytes are identical to the same binary's with
# recording off.  The per-stage histograms are pinned by test_svc_telemetry.
SVC_SOCK="$OBS_TMP/topomapd.sock"
"$DAEMON" --socket="$SVC_SOCK" --workers=4 \
  --event-log="$OBS_TMP/events.jsonl" --flight-capacity=64 \
  --stats="$OBS_TMP/svc_stats.json" 2>"$OBS_TMP/topomapd.log" &
SVC_PID=$!
for _ in $(seq 50); do [ -S "$SVC_SOCK" ] && break; sleep 0.1; done
for i in 1 2 3; do
  "$CLI" client --socket="$SVC_SOCK" --kind=map \
    --tasks=stencil2d:4x4 --topology=torus:4x4 --seed="$i" \
    > "$OBS_TMP/resp_obs_$i.json"
done
"$CLI" client --socket="$SVC_SOCK" --kind=metrics > "$OBS_TMP/metrics.json"
"$CLI" client --socket="$SVC_SOCK" --kind=metrics --prom \
  > "$OBS_TMP/metrics.prom"
grep -q 'topomap_requests_by_kind_total{kind="map",outcome="served"} 3' \
  "$OBS_TMP/metrics.prom"
"$CLI" client --socket="$SVC_SOCK" --kind=flight > "$OBS_TMP/flight.json"
python3 scripts/check_trace.py --svc "$OBS_TMP/metrics.json" \
  --svc "$OBS_TMP/flight.json"
kill -USR1 "$SVC_PID"
sleep 0.5
grep -q "flight recorder" "$OBS_TMP/topomapd.log"
kill "$SVC_PID" && wait "$SVC_PID"
# One event-log line per request, every correlation id unique.
python3 - "$OBS_TMP/events.jsonl" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
corrs = [l["corr"] for l in lines]
assert len(lines) >= 5 and len(set(corrs)) == len(corrs), corrs
PYEOF
python3 scripts/check_trace.py --stats "$OBS_TMP/svc_stats.json"
# Telemetry must not perturb served bytes: replay against a daemon with
# recording off and byte-compare the responses.
PLAIN_SOCK="$OBS_TMP/topomapd-plain.sock"
TOPOMAP_OBS=0 "$DAEMON" --socket="$PLAIN_SOCK" --workers=4 2>/dev/null &
PLAIN_PID=$!
for _ in $(seq 50); do [ -S "$PLAIN_SOCK" ] && break; sleep 0.1; done
for i in 1 2 3; do
  "$CLI" client --socket="$PLAIN_SOCK" --kind=map \
    --tasks=stencil2d:4x4 --topology=torus:4x4 --seed="$i" \
    > "$OBS_TMP/resp_plain_$i.json"
  diff "$OBS_TMP/resp_plain_$i.json" "$OBS_TMP/resp_obs_$i.json"
done
kill "$PLAIN_PID" && wait "$PLAIN_PID"
echo "telemetry e2e ok: schemas validate, bytes identical with recording on/off"

echo "=== sanitize (ASan/UBSan): labeled slices ==="
cmake -B build-ci-sanitize -S . -DTOPOMAP_SANITIZE=ON >/dev/null
cmake --build build-ci-sanitize -j "$JOBS"
for label in unit property fault hier chaos oracle svc fuzz; do
  echo "--- ctest -L $label ---"
  ctest --test-dir build-ci-sanitize --output-on-failure -j "$JOBS" -L "$label"
done
# The svc slice drives the telemetry hot paths — registry histogram
# shards, the flight ring's seqlock, the event-log rotation — with the
# OBS_* sites live (test_svc_telemetry switches recording on).
# Reduced-scale chaos soak under the sanitizers: the full event/recovery/
# quarantine/repair loop with every allocation and UB check armed.
build-ci-sanitize/tools/topomap chaos --tasks=stencil2d:12x12 \
  --topology=torus:6x6 --epochs=40 --chaos=7:0.8:0.2 >/dev/null
echo "sanitized chaos soak ok"

echo "=== tsan (-fsanitize=thread): parallel, plane, chaos, obs and svc suites ==="
# ThreadSanitizer over every suite that shares memory across threads: the
# support::parallel pool and third-order TopoLB's pooled row rescan
# (test_parallel maps at 1 and 4 threads), the parallel distance-plane fill,
# whose byte planes narrow each row from a per-thread scratch row, and
# repairs (test_distance_cache, test_chaos, and test_refine, which
# refines on pooled planes at 1 and 4 threads), faulted-overlay planes,
# whose row searches keep per-thread scratch (test_fault_overlay and
# test_soft_faults fill them at 4 threads), the obs registry and the
# recording kernels (test_obs maps with recording on at 1 to 8 threads),
# and topomapd with its telemetry plane (the flight recorder's seqlock
# under lapping writers).  Any race report fails the run.
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
TSAN_SUITES="test_parallel test_distance_cache test_chaos test_refine test_fault_overlay test_soft_faults test_obs test_svc test_svc_telemetry"
# shellcheck disable=SC2086  # the suite list is word-split on purpose
cmake --build build-ci-tsan -j "$JOBS" --target $TSAN_SUITES
for suite in $TSAN_SUITES; do
  echo "--- $suite ---"
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" "build-ci-tsan/tests/$suite"
done

echo "ci passed"
