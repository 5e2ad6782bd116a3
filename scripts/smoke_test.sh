#!/usr/bin/env bash
# Tier-1 smoke: configure, build, run the test suite, then prove the
# parallel mapping kernels are deterministic end-to-end by diffing CLI
# mappings produced with 1 worker against 2 workers.
#
# Usage: scripts/smoke_test.sh [build-dir]   (default: build-smoke)
# Env:   TOPOMAP_SANITIZE=ON to build with ASan/UBSan.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-smoke}"
SANITIZE="${TOPOMAP_SANITIZE:-OFF}"

cmake -B "$BUILD_DIR" -S . -DTOPOMAP_SANITIZE="$SANITIZE" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Thread-count invariance: the same map request must produce identical
# 'task processor' lines with a 1-worker and a 2-worker pool.  The
# partition and pipeline requests contract fractional-weight graphs, whose
# merged edge bytes depend on the order parallel edges are summed in.
CLI="$BUILD_DIR/tools/topomap"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for spec in \
  "map --strategy=topolb   --tasks=stencil2d:16x16 --topology=torus:16x16" \
  "map --strategy=topolb3  --tasks=stencil2d:8x8   --topology=mesh:8x8" \
  "map --strategy=topocent --tasks=stencil2d:12x12 --topology=torus:12x12" \
  "map --strategy=topolb+refine --tasks=stencil2d:10x10 --topology=torus:10x10" \
  "partition --tasks=er:2000:0.01 --parts=128" \
  "pipeline --tasks=md:10x10x10 --topology=torus:8x8x8"
do
  # shellcheck disable=SC2086
  TOPOMAP_THREADS=1 "$CLI" $spec --seed=7 --output="$TMP/t1.map" >/dev/null
  # shellcheck disable=SC2086
  TOPOMAP_THREADS=2 "$CLI" $spec --seed=7 --output="$TMP/t2.map" >/dev/null
  if ! diff -q "$TMP/t1.map" "$TMP/t2.map" >/dev/null; then
    echo "FAIL: output differs between 1 and 2 workers for: $spec" >&2
    diff "$TMP/t1.map" "$TMP/t2.map" >&2 || true
    exit 1
  fi
  echo "ok: thread-invariant  $spec"
done

# Hier scale path: a 100k-task graph must map onto a 4096-proc torus well
# inside the timeout, produce a complete in-range many-to-one mapping, and
# stay byte-identical across worker-pool widths.
HIER_SPEC="--strategy=hier --tasks=stencil3d:50x50x40 --topology=torus:16x16x16"
# shellcheck disable=SC2086
TOPOMAP_THREADS=1 timeout 300 "$CLI" map $HIER_SPEC --seed=7 \
  --output="$TMP/hier1.map" | tee "$TMP/hier.log" >/dev/null
# shellcheck disable=SC2086
TOPOMAP_THREADS=2 timeout 300 "$CLI" map $HIER_SPEC --seed=7 \
  --output="$TMP/hier2.map" >/dev/null
if ! diff -q "$TMP/hier1.map" "$TMP/hier2.map" >/dev/null; then
  echo "FAIL: hier mapping differs between 1 and 2 workers" >&2
  exit 1
fi
awk '
  NF == 2 {
    count++
    if ($2 < 0 || $2 >= 4096) { print "task " $1 " on bad proc " $2; exit 1 }
  }
  END { if (count != 100000) { print "expected 100000 lines, got " count; exit 1 } }
' "$TMP/hier1.map"
grep -Eq 'hop-bytes: *[0-9]+' "$TMP/hier.log"
echo "ok: hier scale         100k tasks -> torus:16x16x16, thread-invariant"

# Fault injection end-to-end: map around failed links/nodes, then evacuate
# stranded tasks after processor deaths.  Both must produce valid mappings
# (every task on a distinct alive processor) and finite hop-bytes.
check_mapping() {  # file, tasks, dead-procs...
  local file="$1" tasks="$2"
  shift 2
  awk -v tasks="$tasks" -v dead="$*" '
    BEGIN { n = split(dead, d, " ") }
    NF == 2 {
      count++
      for (i = 1; i <= n; i++)
        if ($2 == d[i]) { print "task " $1 " placed on dead proc " $2; exit 1 }
      if (seen[$2]++) { print "processor " $2 " used twice"; exit 1 }
    }
    END { if (count != tasks) { print "expected " tasks " lines, got " count; exit 1 } }
  ' "$file"
}

"$CLI" map --strategy=topolb --tasks=stencil2d:7x8 --topology=torus:8x8 \
  --fail-node=9,27 --fail-link=0:1 --seed=7 --output="$TMP/fault.map" \
  | tee "$TMP/fault.log" >/dev/null
check_mapping "$TMP/fault.map" 56 9 27
grep -Eq 'hop-bytes: *[0-9]+(\.[0-9]+)?' "$TMP/fault.log"
echo "ok: faulted map        --fail-node=9,27 --fail-link=0:1"

"$CLI" evacuate --strategy=topolb --tasks=stencil2d:7x8 --topology=torus:8x8 \
  --fail-node=3,12 --refine-passes=1 --seed=7 --output="$TMP/evac.map" \
  | tee "$TMP/evac.log" >/dev/null
check_mapping "$TMP/evac.map" 56 3 12
grep -Eq 'evacuate: *[0-9]+ stranded, [0-9]+ migrations' "$TMP/evac.log"
grep -Eq 'hop-bytes [0-9]+' "$TMP/evac.log"
echo "ok: evacuate           --fail-node=3,12"

# Soft faults end-to-end: degraded links engage the health-weighted
# distance plane (mapping) and slow the simulated links (netsim), while a
# health of 1.0 must change nothing at all.
"$CLI" simulate --strategy=topolb --tasks=stencil2d:8x8 --topology=torus:8x8 \
  --degrade-link=0:1:0.5,8:16:0.25 --random-degrades=2 --seed=7 \
  --iterations=10 | tee "$TMP/soft.log" >/dev/null
grep -q '4 degraded' "$TMP/soft.log"
grep -Eq 'completion: *[0-9]' "$TMP/soft.log"
TOPOMAP_OBS=0 "$CLI" map --strategy=topolb --tasks=stencil2d:8x8 \
  --topology=torus:8x8 --seed=7 --output="$TMP/plain.map" >/dev/null
"$CLI" map --strategy=topolb --tasks=stencil2d:8x8 --topology=torus:8x8 \
  --degrade-link=0:1:1.0 --seed=7 --output="$TMP/healthy.map" >/dev/null
if ! diff -q "$TMP/plain.map" "$TMP/healthy.map" >/dev/null; then
  echo "FAIL: a health-1.0 degrade changed the mapping" >&2
  exit 1
fi
echo "ok: soft faults        --degrade-link engages, health 1.0 is a no-op"

# Chaos soak end-to-end: the dynamic runtime survives a seeded 60-epoch
# fault/recovery timeline (bursts, degrades, transient partitions) with its
# self-validation on, and the final placement is thread-invariant.
TOPOMAP_THREADS=1 "$CLI" chaos --tasks=stencil2d:16x8 --topology=torus:8x8 \
  --epochs=60 --chaos=7:0.8:0.25 --seed=7 --output="$TMP/chaos1.map" \
  | tee "$TMP/chaos.log" >/dev/null
TOPOMAP_THREADS=2 "$CLI" chaos --tasks=stencil2d:16x8 --topology=torus:8x8 \
  --epochs=60 --chaos=7:0.8:0.25 --seed=7 --output="$TMP/chaos2.map" >/dev/null
if ! diff -q "$TMP/chaos1.map" "$TMP/chaos2.map" >/dev/null; then
  echo "FAIL: chaos final placement differs between 1 and 2 workers" >&2
  diff "$TMP/chaos1.map" "$TMP/chaos2.map" >&2 || true
  exit 1
fi
grep -Eq 'events: *[1-9][0-9]* applied' "$TMP/chaos.log"
grep -Eq '0 violations caught' "$TMP/chaos.log"
echo "ok: chaos soak         60 epochs, validated, thread-invariant"

# Exact oracle end-to-end: `topomap optimal` must solve an 8-task stencil
# on a same-shape mesh to the provable optimum (a perfect embedding: every
# edge one hop, hop-bytes == total bytes == 10 edges * 1024 B), and an
# independent topolb map of the same instance can never beat it.
"$CLI" optimal --tasks=stencil2d:4x2 --topology=mesh:4x2 --compare=topolb \
  --seed=7 --output="$TMP/opt.map" | tee "$TMP/opt.log" >/dev/null
check_mapping "$TMP/opt.map" 8
grep -Eq 'hop-bytes: *10240' "$TMP/opt.log"
grep -Eq 'optimality gap' "$TMP/opt.log"
"$CLI" map --strategy=topolb --tasks=stencil2d:4x2 --topology=mesh:4x2 \
  --seed=7 | tee "$TMP/optmap.log" >/dev/null
OPT_HB="$(sed -nE 's/^hop-bytes: *([0-9.]+).*/\1/p' "$TMP/opt.log")"
MAP_HB="$(sed -nE 's/^hop-bytes: *([0-9.]+).*/\1/p' "$TMP/optmap.log")"
awk -v opt="$OPT_HB" -v strat="$MAP_HB" 'BEGIN {
  if (opt == "" || strat == "" || opt + 0 > strat + 0) {
    print "FAIL: oracle hop-bytes " opt " vs topolb " strat
    exit 1
  }
}'
echo "ok: optimal oracle     stencil2d:4x2 solved exactly (<= topolb)"

# Exit-code taxonomy: 0 ok, 1 usage, 2 bad input (precondition), 3 internal
# invariant, 4 I/O failure — sweep scripts branch on these.
expect_rc() {  # expected-rc, description, command...
  local want="$1" what="$2" rc=0
  shift 2
  "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" != "$want" ]; then
    echo "FAIL: $what exited $rc, expected $want" >&2
    exit 1
  fi
}
expect_rc 1 "unknown command" "$CLI" frobnicate
expect_rc 2 "malformed chaos spec" "$CLI" chaos --chaos=bogus
expect_rc 2 "malformed fault spec" "$CLI" map --tasks=stencil2d:4x4 \
  --topology=torus:4x4 --fail-link=0
expect_rc 2 "partitioned simulate" "$CLI" simulate --tasks=ring:4 \
  --topology=mesh:5 --fail-node=2
expect_rc 2 "oversized oracle instance" "$CLI" optimal \
  --tasks=stencil2d:4x4 --topology=torus:4x4
expect_rc 4 "unwritable output" "$CLI" map --tasks=stencil2d:4x4 \
  --topology=torus:4x4 --output=/nonexistent-dir/out.map
expect_rc 1 "unknown simulate --model" "$CLI" simulate --tasks=stencil2d:4x4 \
  --topology=torus:4x4 --iterations=2 --model=bogus
expect_rc 1 "unknown explain --model" "$CLI" explain --tasks=stencil2d:4x4 \
  --topology=torus:4x4 --iterations=2 --model=bogus
# Ports and sizes are range-checked, never wrapped through a cast (the
# timeout turns a daemon that wrongly starts into a failure, not a hang).
for bad in --tcp-port=65537 --tcp-port=-1 --workers=-1 --queue=-1 --cache=-1 \
  --flight-capacity=-1 --event-log-max-bytes=-1; do
  expect_rc 2 "topomapd $bad" timeout 10 "$BUILD_DIR/tools/topomapd" \
    --socket="$TMP/bad.sock" "$bad"
done
expect_rc 2 "client --tcp with a non-numeric port" "$CLI" client \
  --tcp=127.0.0.1:abc --kind=status
expect_rc 2 "client --tcp port above 65535" "$CLI" client \
  --tcp=127.0.0.1:70000 --kind=status
# Integer flags are parsed whole and range-checked before narrowing: a
# malformed or too-wide value exits 2 and names the flag on stderr.
expect_flag_error() {  # flag, command...
  local flag="$1" rc=0
  shift
  "$@" >/dev/null 2>"$TMP/flag.err" || rc=$?
  if [ "$rc" != 2 ] || ! grep -q -- "$flag" "$TMP/flag.err"; then
    echo "FAIL: $flag exited $rc, expected 2 naming the flag:" >&2
    cat "$TMP/flag.err" >&2
    exit 1
  fi
}
expect_flag_error --parts "$CLI" partition --tasks=stencil2d:8x8 \
  --parts=4294967300
expect_flag_error --top-k "$CLI" explain --tasks=stencil2d:4x4 \
  --topology=torus:4x4 --baseline=random --top-k=4294967297
expect_flag_error --seed "$CLI" map --tasks=stencil2d:4x4 \
  --topology=torus:4x4 --seed=abc
# Seeds are unsigned 64-bit: a negative one does not wrap, the largest runs.
expect_flag_error --seed "$CLI" map --strategy=random --tasks=stencil2d:4x4 \
  --topology=torus:4x4 --seed=-1
"$CLI" map --strategy=random --tasks=stencil2d:4x4 --topology=torus:4x4 \
  --seed=18446744073709551615 >/dev/null
# Spec fields are strict: a stray or trailing separator is an empty field,
# which exits 2 naming the spec instead of mapping a smaller spec.
for spec in torus:4x4x mesh:4x; do
  expect_flag_error "$spec" "$CLI" map --tasks=stencil2d:2x2 --topology="$spec"
done
for spec in stencil2d:4x4x stencil2d:4x4:; do
  expect_flag_error "$spec" "$CLI" map --tasks="$spec" --topology=torus:4x4
done
echo "ok: exit codes         1 usage / 2 precondition / 4 io"

# Self-validation drills: each documented corruption class must be caught
# by core::validate_state and surfaced as an invariant error — exit code 3
# with the violation named (the negative paths of tests/test_validate_state
# proven end to end through the CLI taxonomy).
expect_rc 3 "placement drill" "$CLI" chaos --drill=placement
expect_rc 3 "quarantine drill" "$CLI" chaos --drill=quarantine
expect_rc 3 "plane drill" "$CLI" chaos --drill=plane
expect_rc 2 "unknown drill kind" "$CLI" chaos --drill=bogus
"$CLI" chaos --drill=placement > "$TMP/drill.log" 2>&1 || true
grep -q 'placed on dead processor' "$TMP/drill.log"
"$CLI" chaos --drill=quarantine > "$TMP/drill.log" 2>&1 || true
grep -q 'is active but unplaced' "$TMP/drill.log"
"$CLI" chaos --drill=plane > "$TMP/drill.log" 2>&1 || true
grep -q 'plane scale' "$TMP/drill.log"
echo "ok: validation drills  placement/quarantine/plane caught, exit 3"

# Partition tolerance: a split machine maps what fits on the primary
# component and quarantines the rest instead of refusing.
"$CLI" map --tasks=ring:4 --topology=mesh:5 --fail-node=2 --seed=7 \
  | tee "$TMP/part.log" >/dev/null
grep -Eq 'quarantined: *2 of 4 tasks' "$TMP/part.log"
grep -q 'split into 2 components' "$TMP/part.log"
echo "ok: partition map      2 of 4 tasks quarantined on a split mesh:5"

# Observability: --stats/--trace switch recording on in the same binary;
# the run must emit a schema-valid --stats report whose hop-bytes
# trajectory is monotone and whose counters fired, a parseable Chrome
# trace, and a mapping byte-identical to the recording-off run's
# (telemetry only observes).
"$CLI" map --strategy=topolb --tasks=stencil2d:8x8 --topology=torus:8x8 \
  --seed=7 --output="$TMP/obs.map" --stats="$TMP/stats.json" \
  --trace="$TMP/trace.json" >/dev/null
python3 scripts/check_trace.py --trace "$TMP/trace.json" \
  --stats "$TMP/stats.json" --require-series topolb/hop_bytes_trajectory \
  --require-counter topolb/placements
if ! diff -q "$TMP/plain.map" "$TMP/obs.map" >/dev/null; then
  echo "FAIL: recording telemetry changed the mapping" >&2
  diff "$TMP/plain.map" "$TMP/obs.map" >&2 || true
  exit 1
fi
echo "ok: observability      --stats/--trace validate, mapping unchanged"

# Contention explainability: an A-vs-B explain run must emit a schema-valid
# contention report (exact attribution sums, a diff, a netsim timeline)
# and name the improvement in its terminal diff.
"$CLI" explain --strategy=topolb --baseline=greedy \
  --tasks=stencil2d:8x8 --topology=torus:8x8 --seed=7 --iterations=20 \
  --report="$TMP/contention.json" | tee "$TMP/explain.log" >/dev/null
python3 scripts/check_trace.py --contention "$TMP/contention.json"
grep -q 'hottest links:' "$TMP/explain.log"
grep -Eq 'mapping diff: *max link [0-9]+' "$TMP/explain.log"
# A recording run must put netsim counter tracks in the trace.
"$CLI" explain --strategy=topolb --tasks=stencil2d:8x8 \
  --topology=torus:8x8 --seed=7 --iterations=20 \
  --report="$TMP/obs_contention.json" --trace="$TMP/explain_trace.json" \
  >/dev/null
python3 scripts/check_trace.py --contention "$TMP/obs_contention.json"
python3 scripts/check_trace.py --trace "$TMP/explain_trace.json" \
  --require-counter-track netsim/util_max \
  --require-counter-track netsim/queue_depth
echo "ok: explain            A-vs-B diff, contention report, counter tracks"

# Mapping-as-a-service: start topomapd, round-trip a client map request
# (the served mapping must be byte-identical to the one-shot CLI's), check
# the status endpoint shows the cache pool working, prove the exit-code
# taxonomy survives the network hop, then shut down cleanly on SIGTERM.
DAEMON="$BUILD_DIR/tools/topomapd"
SOCK="$TMP/topomapd.sock"
"$DAEMON" --socket="$SOCK" --workers=2 --event-log="$TMP/events.jsonl" \
  --flight-capacity=64 > "$TMP/daemon.log" 2>&1 &
DAEMON_PID=$!
# A failing check below must not leave the daemon running.
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
if [ ! -S "$SOCK" ]; then
  echo "FAIL: topomapd never bound $SOCK" >&2
  cat "$TMP/daemon.log" >&2
  exit 1
fi
"$CLI" client --socket="$SOCK" --kind=map --strategy=topolb \
  --tasks=stencil2d:8x8 --topology=torus:8x8 --seed=7 \
  --output="$TMP/svc.map" >/dev/null
if ! diff -q "$TMP/plain.map" "$TMP/svc.map" >/dev/null; then
  echo "FAIL: daemon-served mapping differs from the one-shot CLI" >&2
  diff "$TMP/plain.map" "$TMP/svc.map" >&2 || true
  exit 1
fi
"$CLI" client --socket="$SOCK" --kind=status | tee "$TMP/status.log" >/dev/null
grep -q '"requests_served"' "$TMP/status.log"
grep -Eq '"misses": *1' "$TMP/status.log"
expect_rc 2 "unknown strategy via daemon" "$CLI" client --socket="$SOCK" \
  --kind=map --strategy=frobnicate --tasks=stencil2d:4x4 --topology=torus:4x4
expect_rc 4 "client without a daemon" "$CLI" client --socket="$TMP/nope.sock" \
  --kind=status
# Telemetry surfaces: the metrics snapshot and flight dump validate
# against the strict schemas, the Prometheus exposition and `topomap top`
# render, --prom is rejected off the metrics kind, and SIGUSR1 makes the
# daemon dump its flight recorder to stderr.
"$CLI" client --socket="$SOCK" --kind=metrics > "$TMP/metrics.json"
python3 scripts/check_trace.py --svc "$TMP/metrics.json"
"$CLI" client --socket="$SOCK" --kind=metrics --prom > "$TMP/metrics.prom"
grep -q '^topomap_requests_served_total ' "$TMP/metrics.prom"
grep -q '^topomap_queue_depth ' "$TMP/metrics.prom"
# Two distinct machines by now: the served torus:8x8 map and the failed
# frobnicate request's torus:4x4 (the plane is acquired before the unknown
# strategy is rejected).
grep -q 'topomap_pool_events_total{event="misses"} 2' "$TMP/metrics.prom"
"$CLI" client --socket="$SOCK" --kind=flight > "$TMP/flight.json"
python3 scripts/check_trace.py --svc "$TMP/flight.json"
"$CLI" top --socket="$SOCK" --iterations=1 > "$TMP/top.log"
grep -q 'topomapd  served' "$TMP/top.log"
expect_rc 2 "--prom off the metrics kind" "$CLI" client --socket="$SOCK" \
  --kind=status --prom
# Served bytes equal one-shot bytes for every mapping kind, including a
# diffed explain on a soft-faulted machine and a map that quarantines.
for spec in \
  "explain --tasks=stencil2d:8x8 --topology=torus:8x8 --baseline=greedy --degrade-link=0:1:0.5" \
  "evacuate --tasks=stencil2d:7x8 --topology=torus:8x8 --fail-node=3,12" \
  "optimal --tasks=stencil2d:3x3 --topology=torus:3x3" \
  "map --tasks=ring:4 --topology=mesh:5 --fail-node=2"
do
  read -r kind args <<< "$spec"
  # shellcheck disable=SC2086
  "$CLI" "$kind" $args --seed=7 --output="$TMP/oneshot.map" >/dev/null
  # shellcheck disable=SC2086
  "$CLI" client --socket="$SOCK" --kind="$kind" $args --seed=7 \
    --output="$TMP/served.map" >/dev/null
  if ! diff -q "$TMP/oneshot.map" "$TMP/served.map" >/dev/null; then
    echo "FAIL: served $kind bytes differ from the one-shot CLI: $spec" >&2
    diff "$TMP/oneshot.map" "$TMP/served.map" >&2 || true
    exit 1
  fi
done
# Strict spec fields through the daemon: exit 2 naming the spec.
for spec in torus:4x4x mesh:4x; do
  expect_flag_error "$spec" "$CLI" client --socket="$SOCK" --kind=map \
    --tasks=stencil2d:2x2 --topology="$spec"
done
for spec in stencil2d:4x4x stencil2d:4x4:; do
  expect_flag_error "$spec" "$CLI" client --socket="$SOCK" --kind=map \
    --tasks="$spec" --topology=torus:4x4
done
kill -USR1 "$DAEMON_PID"
for _ in $(seq 1 50); do
  grep -q 'flight recorder' "$TMP/daemon.log" && break; sleep 0.05
done
grep -q 'flight recorder' "$TMP/daemon.log"
kill -TERM "$DAEMON_PID"
DAEMON_RC=0
wait "$DAEMON_PID" || DAEMON_RC=$?
trap 'rm -rf "$TMP"' EXIT
if [ "$DAEMON_RC" != 0 ]; then
  echo "FAIL: topomapd exited $DAEMON_RC on SIGTERM, expected 0" >&2
  cat "$TMP/daemon.log" >&2
  exit 1
fi
grep -q 'clean shutdown' "$TMP/daemon.log"
if [ -S "$SOCK" ]; then
  echo "FAIL: topomapd left its socket behind after shutdown" >&2
  exit 1
fi
# The event log holds one JSONL line per completed request, every
# correlation id unique.
python3 - "$TMP/events.jsonl" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
corrs = [l["corr"] for l in lines]
assert len(lines) >= 5, f"only {len(lines)} event-log lines"
assert len(set(corrs)) == len(corrs), f"duplicate correlation ids: {corrs}"
assert any(not l["ok"] for l in lines), "failed request missing from log"
PYEOF
echo "ok: topomapd           serve == one-shot bytes (all kinds), taxonomy intact, clean stop"
echo "ok: telemetry          metrics/flight schemas, prom, top, SIGUSR1, event log"

echo "smoke test passed"
