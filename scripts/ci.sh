#!/usr/bin/env bash
# CI driver: the full suite in release (warnings are errors), then the
# labeled slices under ASan/UBSan (TOPOMAP_SANITIZE=ON), then the
# threaded suites under ThreadSanitizer.
#
# The sanitizer pass runs label by label — unit, property, fault, hier,
# chaos, oracle, svc — so a failure names the tier that broke, and the
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

echo "=== obs (-DTOPOMAP_OBS=ON): unit slice + artifact validation ==="
cmake -B build-ci-obs -S . -DCMAKE_BUILD_TYPE=Release -DTOPOMAP_OBS=ON \
  >/dev/null
cmake --build build-ci-obs -j "$JOBS"
ctest --test-dir build-ci-obs --output-on-failure -j "$JOBS" -L unit
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
# One traced mapping; the artifacts must validate and the mapping must be
# byte-identical to the uninstrumented release build's.
build-ci-obs/tools/topomap map --strategy=topolb --tasks=stencil2d:16x16 \
  --topology=torus:16x16 --seed=7 --output="$OBS_TMP/obs.map" \
  --trace="$OBS_TMP/trace.json" --stats="$OBS_TMP/stats.json" >/dev/null
python3 scripts/check_trace.py --trace "$OBS_TMP/trace.json" \
  --stats "$OBS_TMP/stats.json" \
  --require-series topolb/hop_bytes_trajectory \
  --require-counter topolb/placements --require-counter distcache/builds
build-ci-release/tools/topomap map --strategy=topolb --tasks=stencil2d:16x16 \
  --topology=torus:16x16 --seed=7 --output="$OBS_TMP/plain.map" >/dev/null
diff "$OBS_TMP/plain.map" "$OBS_TMP/obs.map"
# Contention explainability: the explain artifact must carry the versioned
# schema with exact attribution sums, a diff, and netsim counter tracks in
# the trace (virtual-time telemetry next to the wall-clock spans).
build-ci-obs/tools/topomap explain --strategy=topolb --baseline=greedy \
  --tasks=stencil2d:8x8 --topology=torus:8x8 --seed=7 --iterations=30 \
  --report="$OBS_TMP/contention.json" --trace="$OBS_TMP/explain_trace.json" \
  --stats="$OBS_TMP/explain_stats.json" >/dev/null
python3 scripts/check_trace.py --contention "$OBS_TMP/contention.json"
python3 scripts/check_trace.py --trace "$OBS_TMP/explain_trace.json" \
  --require-counter-track netsim/util_max \
  --require-counter-track netsim/queue_depth \
  --stats "$OBS_TMP/explain_stats.json" \
  --require-any-series netsim/util_max \
  --require-any-series netsim/queue_depth
echo "obs slice ok: artifacts validate, mapping identical to release build"

echo "=== telemetry e2e (obs build): daemon metrics/flight/event-log ==="
# The service telemetry plane end to end: an instrumented daemon with the
# event log active serves requests, its metrics snapshot and flight dump
# validate against the strict schemas (including per-correlation lifecycle
# nesting), the Prometheus exposition carries the request counters, the
# latency histograms populate, SIGUSR1 dumps the flight recorder, the
# event log holds one line per request with unique correlation ids — and
# the served mapping bytes are identical to an uninstrumented daemon's.
SVC_SOCK="$OBS_TMP/topomapd.sock"
build-ci-obs/tools/topomapd --socket="$SVC_SOCK" --workers=4 \
  --event-log="$OBS_TMP/events.jsonl" --flight-capacity=64 \
  --stats="$OBS_TMP/svc_stats.json" 2>"$OBS_TMP/topomapd.log" &
SVC_PID=$!
for _ in $(seq 50); do [ -S "$SVC_SOCK" ] && break; sleep 0.1; done
for i in 1 2 3; do
  build-ci-obs/tools/topomap client --socket="$SVC_SOCK" --kind=map \
    --tasks=stencil2d:4x4 --topology=torus:4x4 --seed="$i" \
    > "$OBS_TMP/resp_obs_$i.json"
done
build-ci-obs/tools/topomap client --socket="$SVC_SOCK" --kind=metrics \
  > "$OBS_TMP/metrics.json"
build-ci-obs/tools/topomap client --socket="$SVC_SOCK" --kind=metrics \
  --prom > "$OBS_TMP/metrics.prom"
grep -q 'topomap_requests_by_kind_total{kind="map",outcome="served"} 3' \
  "$OBS_TMP/metrics.prom"
build-ci-obs/tools/topomap client --socket="$SVC_SOCK" --kind=flight \
  > "$OBS_TMP/flight.json"
python3 scripts/check_trace.py --svc "$OBS_TMP/metrics.json" \
  --svc "$OBS_TMP/flight.json"
# The instrumented daemon's snapshot must carry per-stage histograms.
python3 - "$OBS_TMP/metrics.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))["result"]
hists = doc["histograms"]
for name in ("svc/map/total_us", "svc/map/acquire_us", "svc/map/kernel_us"):
    assert name in hists and hists[name]["count"] == 3, \
        f"missing/short histogram {name}: {sorted(hists)}"
PYEOF
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
# Telemetry must not perturb served bytes: replay against an
# uninstrumented daemon and byte-compare the responses.
PLAIN_SOCK="$OBS_TMP/topomapd-plain.sock"
build-ci-release/tools/topomapd --socket="$PLAIN_SOCK" --workers=4 \
  2>/dev/null &
PLAIN_PID=$!
for _ in $(seq 50); do [ -S "$PLAIN_SOCK" ] && break; sleep 0.1; done
for i in 1 2 3; do
  build-ci-release/tools/topomap client --socket="$PLAIN_SOCK" --kind=map \
    --tasks=stencil2d:4x4 --topology=torus:4x4 --seed="$i" \
    > "$OBS_TMP/resp_plain_$i.json"
  diff "$OBS_TMP/resp_plain_$i.json" "$OBS_TMP/resp_obs_$i.json"
done
kill "$PLAIN_PID" && wait "$PLAIN_PID"
echo "telemetry e2e ok: schemas validate, bytes identical with obs on/off"

echo "=== sanitize (ASan/UBSan): labeled slices ==="
cmake -B build-ci-sanitize -S . -DTOPOMAP_SANITIZE=ON >/dev/null
cmake --build build-ci-sanitize -j "$JOBS"
for label in unit property fault hier chaos oracle svc; do
  echo "--- ctest -L $label ---"
  ctest --test-dir build-ci-sanitize --output-on-failure -j "$JOBS" -L "$label"
done
# Reduced-scale chaos soak under the sanitizers: the full event/recovery/
# quarantine/repair loop with every allocation and UB check armed.
build-ci-sanitize/tools/topomap chaos --tasks=stencil2d:12x12 \
  --topology=torus:6x6 --epochs=40 --chaos=7:0.8:0.2 >/dev/null
echo "sanitized chaos soak ok"

echo "=== sanitize + obs: svc slice with telemetry compiled in ==="
# The telemetry hot paths — registry histogram shards, the flight ring's
# seqlock, the event-log rotation — under ASan/UBSan with the obs macro
# sites live, driven by the svc suites (64 in-flight with metrics polling).
cmake -B build-ci-obs-sanitize -S . -DTOPOMAP_SANITIZE=ON \
  -DTOPOMAP_OBS=ON >/dev/null
cmake --build build-ci-obs-sanitize -j "$JOBS"
ctest --test-dir build-ci-obs-sanitize --output-on-failure -j "$JOBS" -L svc

echo "=== tsan (-fsanitize=thread): parallel, plane, chaos, obs and svc suites ==="
# ThreadSanitizer over every suite that shares memory across threads: the
# support::parallel pool and TopoLB's parallel regions (test_parallel maps
# at 1 and 4 threads, so placed-cost pool rows taken or returned inside a
# region would race), the parallel distance-plane fill and repairs
# (test_distance_cache, test_chaos), the obs registry, and topomapd with
# its telemetry plane (the flight recorder's seqlock under lapping
# writers).  Any race report fails the run.
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
TSAN_SUITES="test_parallel test_distance_cache test_chaos test_obs test_svc test_svc_telemetry"
# shellcheck disable=SC2086  # the suite list is word-split on purpose
cmake --build build-ci-tsan -j "$JOBS" --target $TSAN_SUITES
for suite in $TSAN_SUITES; do
  echo "--- $suite ---"
  TSAN_OPTIONS="halt_on_error=1 exitcode=66" "build-ci-tsan/tests/$suite"
done

echo "ci passed"
