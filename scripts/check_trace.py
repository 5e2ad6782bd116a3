#!/usr/bin/env python3
"""Validate the machine-readable obs:: artifacts.

Usage:
    scripts/check_trace.py --trace trace.json      # Chrome-trace array
    scripts/check_trace.py --stats stats.json      # obs::Report document
    scripts/check_trace.py --stats stats.json --require-series NAME
    scripts/check_trace.py --stats stats.json --require-counter NAME
    scripts/check_trace.py --stats stats.json --expect-counter NAME=VALUE
    scripts/check_trace.py --stats stats.json --require-span NAME
    scripts/check_trace.py --trace trace.json --require-counter-track NAME
    scripts/check_trace.py --contention report.json  # explain artifact
    scripts/check_trace.py --svc metrics.json        # daemon telemetry

A trace must be a JSON array of events: complete spans ("ph" == "X" with
numeric "ts"/"dur" >= 0) or counter samples ("ph" == "C" with numeric "ts"
>= 0 and a numeric args.value) — netsim telemetry emits the latter on its
own pid so Perfetto renders counter tracks beside the wall-clock spans.
--require-counter-track asserts a named counter track exists in the trace.
A stats file must carry the versioned report schema ("topomap.obs.report",
version 2) with object-valued counters/histograms/series/spans sections,
every histogram well-formed as in a metrics snapshot (below).  --require-series additionally asserts the named series exists,
is non-empty, and is monotone non-decreasing (the shape of TopoLB's
hop-bytes trajectory); --require-counter asserts the named counter exists
and is a positive integer; --expect-counter pins a counter to an exact
value (deterministic work counts, such as TopoLB's row rescans, do not
depend on the host); --require-span asserts a span rollup of that name
exists.  --contention validates a `topomap explain`
artifact ("topomap.obs.contention", version 1): per-link contributor sums
must equal the link totals, the stats total must equal the links' sum,
timeline arrays must be parallel with ascending timestamps and utilization
in [0, 1], and any diff must satisfy delta == bytes_b - bytes_a.
--svc validates daemon telemetry by schema: a "topomap.svc.metrics"
snapshot (all request kinds present in by_kind, by_kind sums matching the
totals, ascending non-empty histogram buckets whose counts sum to each
histogram's count) or a "topomap.svc.flight" dump (ascending seqs plus
per-correlation lifecycle nesting — accept/enqueue precede the request
interval, every acquire nests inside its done/error interval, serialize
starts after it).  Exit 0 on success, 1 on validation failure, 2 on usage
or I/O errors.  Stdlib only — no third-party imports.
"""

import argparse
import json
import sys

SCHEMA_NAME = "topomap.obs.report"
SCHEMA_VERSION = 2
CONTENTION_SCHEMA_NAME = "topomap.obs.contention"
CONTENTION_SCHEMA_VERSION = 1
METRICS_SCHEMA_NAME = "topomap.svc.metrics"
FLIGHT_SCHEMA_NAME = "topomap.svc.flight"
SVC_SCHEMA_VERSION = 1
REQUEST_KINDS = ("map", "explain", "evacuate", "optimal", "status",
                 "metrics", "flight")
FLIGHT_STAGES = ("accept", "enqueue", "dequeue", "acquire", "serialize",
                 "done", "error")
EPS = 1e-9


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace: error reading {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_trace(path: str, require_counter_tracks) -> None:
    doc = load(path)
    if not isinstance(doc, list):
        fail(f"{path}: trace must be a JSON array of events")
    spans = 0
    counter_tracks = {}
    for i, event in enumerate(doc):
        if not isinstance(event, dict):
            fail(f"{path}: event {i} is not an object")
        if not isinstance(event.get("name"), str) or not event["name"]:
            fail(f"{path}: event {i} missing string 'name'")
        ph = event.get("ph")
        if ph not in ("X", "C"):
            fail(f"{path}: event {i} has ph={ph!r}, want 'X' or 'C'")
        keys = ("ts", "dur") if ph == "X" else ("ts",)
        for key in keys:
            v = event.get(key)
            if not isinstance(v, (int, float)) or v < 0:
                fail(f"{path}: event {i} has bad {key}={v!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                fail(f"{path}: event {i} missing integer '{key}'")
        if ph == "X":
            spans += 1
        else:
            args = event.get("args")
            if (not isinstance(args, dict)
                    or not isinstance(args.get("value"), (int, float))):
                fail(f"{path}: counter event {i} missing numeric args.value")
            counter_tracks[event["name"]] = \
                counter_tracks.get(event["name"], 0) + 1
    for name in require_counter_tracks:
        if name not in counter_tracks:
            fail(f"{path}: required counter track {name!r} missing "
                 f"(present: {sorted(counter_tracks)})")
        print(f"check_trace: counter track '{name}': "
              f"{counter_tracks[name]} samples")
    print(f"check_trace: OK: {path} ({spans} complete events, "
          f"{len(counter_tracks)} counter tracks)")


def check_histogram(path: str, name: str, h) -> None:
    """One obs::Histogram rendering: summary fields plus ascending,
    non-empty [lo, hi, count] buckets whose counts sum to the count."""
    if not isinstance(h, dict):
        fail(f"{path}: histogram {name} is not an object")
    for key in ("count", "sum", "min", "max", "mean", "p50", "p90", "p99"):
        if not isinstance(h.get(key), (int, float)):
            fail(f"{path}: histogram {name} missing numeric '{key}'")
    buckets = h.get("buckets")
    if not isinstance(buckets, list):
        fail(f"{path}: histogram {name} missing buckets array")
    total, prev_lo = 0, None
    for i, triple in enumerate(buckets):
        if (not isinstance(triple, list) or len(triple) != 3
                or not all(isinstance(x, (int, float)) for x in triple)):
            fail(f"{path}: histogram {name} bucket {i} is not a "
                 f"[lo, hi, count] triple")
        lo, hi, count = triple
        if lo >= hi:
            fail(f"{path}: histogram {name} bucket {i}: lo {lo} >= hi {hi}")
        if count <= 0:
            fail(f"{path}: histogram {name} bucket {i} is empty — only "
                 f"populated buckets are serialized")
        if prev_lo is not None and lo <= prev_lo:
            fail(f"{path}: histogram {name} buckets not ascending at {i}")
        prev_lo = lo
        total += count
    if total != h["count"]:
        fail(f"{path}: histogram {name}: bucket counts sum {total} != "
             f"count {h['count']}")


def check_stats(path: str, require_series, require_any_series,
                require_counters, expect_counters, require_spans) -> None:
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: report must be a JSON object")
    if doc.get("schema") != SCHEMA_NAME:
        fail(f"{path}: schema={doc.get('schema')!r}, want {SCHEMA_NAME!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(f"{path}: schema_version={doc.get('schema_version')!r}, "
             f"want {SCHEMA_VERSION}")
    for section in ("meta", "counters", "histograms", "series", "spans"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: section '{section}' missing or not an object")
    for name, value in doc["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"{path}: counter {name} has bad value {value!r}")
    for name, h in doc["histograms"].items():
        check_histogram(path, name, h)
    for name in require_series:
        series = doc["series"].get(name)
        if not isinstance(series, list) or not series:
            fail(f"{path}: required series '{name}' missing or empty")
        if any(b < a - 1e-9 for a, b in zip(series, series[1:])):
            fail(f"{path}: series '{name}' is not monotone non-decreasing")
        print(f"check_trace: series '{name}': {len(series)} points, "
              f"final {series[-1]}")
    for name in require_any_series:
        series = doc["series"].get(name)
        if not isinstance(series, list) or not series:
            fail(f"{path}: required series '{name}' missing or empty")
        print(f"check_trace: series '{name}': {len(series)} points")
    for name in require_counters:
        value = doc["counters"].get(name)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"{path}: required counter '{name}' missing or non-positive "
                 f"({value!r})")
        print(f"check_trace: counter '{name}' = {value}")
    for name, want in expect_counters:
        value = doc["counters"].get(name)
        if value != want:
            fail(f"{path}: counter '{name}' = {value!r}, expected {want}")
        print(f"check_trace: counter '{name}' = {value} (pinned)")
    for name in require_spans:
        rollup = doc["spans"].get(name)
        if not isinstance(rollup, dict) or not rollup.get("count"):
            fail(f"{path}: required span '{name}' missing "
                 f"(present: {sorted(doc['spans'])})")
        print(f"check_trace: span '{name}': {rollup['count']} closed")
    print(f"check_trace: OK: {path} ({len(doc['counters'])} counters, "
          f"{len(doc['histograms'])} histograms, "
          f"{len(doc['spans'])} span rollups, {len(doc['series'])} series)")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= EPS * max(1.0, abs(a), abs(b))


def check_link_entry(path: str, i: int, link) -> float:
    """Validate one entry of a contention report's links array; returns its
    byte total."""
    if not isinstance(link, dict):
        fail(f"{path}: links[{i}] is not an object")
    for key in ("from", "to"):
        if not isinstance(link.get(key), int):
            fail(f"{path}: links[{i}] missing integer '{key}'")
    bytes_total = link.get("bytes")
    if not isinstance(bytes_total, (int, float)) or bytes_total < 0:
        fail(f"{path}: links[{i}] has bad bytes={bytes_total!r}")
    contributors = link.get("contributors")
    if not isinstance(contributors, list) or not contributors:
        fail(f"{path}: links[{i}] missing contributors")
    contrib_sum = 0.0
    for j, c in enumerate(contributors):
        if (not isinstance(c, dict)
                or not isinstance(c.get("a"), int)
                or not isinstance(c.get("b"), int)
                or not isinstance(c.get("bytes"), (int, float))
                or c["bytes"] < 0):
            fail(f"{path}: links[{i}].contributors[{j}] malformed")
        contrib_sum += c["bytes"]
    if not close(contrib_sum, bytes_total):
        fail(f"{path}: links[{i}] ({link['from']},{link['to']}): "
             f"contributors sum {contrib_sum} != bytes {bytes_total}")
    return bytes_total


def check_contention(path: str) -> None:
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: contention report must be a JSON object")
    if doc.get("schema") != CONTENTION_SCHEMA_NAME:
        fail(f"{path}: schema={doc.get('schema')!r}, "
             f"want {CONTENTION_SCHEMA_NAME!r}")
    if doc.get("schema_version") != CONTENTION_SCHEMA_VERSION:
        fail(f"{path}: schema_version={doc.get('schema_version')!r}, "
             f"want {CONTENTION_SCHEMA_VERSION}")
    stats = doc.get("stats")
    if not isinstance(stats, dict):
        fail(f"{path}: missing 'stats' object")
    for key in ("total_bytes", "max_bytes", "mean_bytes", "l2", "gini",
                "links_used", "links_total"):
        if not isinstance(stats.get(key), (int, float)):
            fail(f"{path}: stats missing numeric '{key}'")
    links = doc.get("links")
    if not isinstance(links, list):
        fail(f"{path}: missing 'links' array")
    links_sum = sum(check_link_entry(path, i, l) for i, l in
                    enumerate(links))
    if not close(links_sum, stats["total_bytes"]):
        fail(f"{path}: per-link totals sum {links_sum} != "
             f"stats.total_bytes {stats['total_bytes']}")
    timeline = doc.get("timeline")
    if timeline is not None:
        for key in ("t_us", "util_max", "queue_depth"):
            if not isinstance(timeline.get(key), list):
                fail(f"{path}: timeline missing array '{key}'")
        n = len(timeline["t_us"])
        for key in ("util_max", "queue_depth"):
            if len(timeline[key]) != n:
                fail(f"{path}: timeline.{key} has {len(timeline[key])} "
                     f"entries, want {n} (parallel arrays)")
        ts = timeline["t_us"]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            fail(f"{path}: timeline.t_us is not strictly ascending")
        if any(not 0.0 <= u <= 1.0 + EPS for u in timeline["util_max"]):
            fail(f"{path}: timeline.util_max outside [0, 1]")
    diff = doc.get("diff")
    if diff is not None:
        dlinks = diff.get("links")
        if not isinstance(dlinks, list):
            fail(f"{path}: diff missing 'links' array")
        for i, d in enumerate(dlinks):
            for key in ("bytes_a", "bytes_b", "delta"):
                if not isinstance(d.get(key), (int, float)):
                    fail(f"{path}: diff.links[{i}] missing '{key}'")
            if not close(d["bytes_b"] - d["bytes_a"], d["delta"]):
                fail(f"{path}: diff.links[{i}]: delta {d['delta']} != "
                     f"bytes_b - bytes_a "
                     f"({d['bytes_b']} - {d['bytes_a']})")
    print(f"check_trace: OK: {path} ({len(links)} attributed links"
          f"{', timeline' if timeline is not None else ''}"
          f"{', diff' if diff is not None else ''})")


def nonneg_int(doc: dict, key: str, path: str, where: str) -> float:
    v = doc.get(key)
    if not isinstance(v, (int, float)) or v < 0 or v != int(v):
        fail(f"{path}: {where}.{key} must be a non-negative integer, "
             f"got {v!r}")
    return v


def check_svc_metrics(path: str, doc: dict) -> None:
    requests = doc.get("requests")
    if not isinstance(requests, dict):
        fail(f"{path}: missing 'requests' object")
    served = nonneg_int(requests, "served", path, "requests")
    failed = nonneg_int(requests, "failed", path, "requests")
    by_kind = requests.get("by_kind")
    if not isinstance(by_kind, dict):
        fail(f"{path}: missing requests.by_kind object")
    # Every kind is always present — the key set is part of the contract
    # that makes snapshots from two runs comparable.
    if sorted(by_kind) != sorted(REQUEST_KINDS):
        fail(f"{path}: by_kind kinds {sorted(by_kind)} != "
             f"{sorted(REQUEST_KINDS)}")
    for kind, counts in by_kind.items():
        if not isinstance(counts, dict):
            fail(f"{path}: by_kind.{kind} is not an object")
        nonneg_int(counts, "served", path, f"by_kind.{kind}")
        nonneg_int(counts, "failed", path, f"by_kind.{kind}")
    if sum(c["served"] for c in by_kind.values()) != served:
        fail(f"{path}: by_kind served counts do not sum to "
             f"requests.served {served}")
    if sum(c["failed"] for c in by_kind.values()) != failed:
        fail(f"{path}: by_kind failed counts do not sum to "
             f"requests.failed {failed}")
    nonneg_int(doc, "queue_depth", path, "snapshot")
    pool = doc.get("pool")
    if not isinstance(pool, dict):
        fail(f"{path}: missing 'pool' object")
    for key in ("hits", "misses", "evictions", "entries", "capacity"):
        nonneg_int(pool, key, path, "pool")
    if pool["entries"] > pool["capacity"]:
        fail(f"{path}: pool.entries {pool['entries']} exceeds capacity "
             f"{pool['capacity']}")
    scheme = doc.get("bucket_scheme")
    if not isinstance(scheme, dict) or scheme.get("kind") != "log2-linear":
        fail(f"{path}: bucket_scheme missing or kind != 'log2-linear'")
    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        fail(f"{path}: missing 'histograms' object")
    for name, h in hists.items():
        check_histogram(path, name, h)
    print(f"check_trace: OK: {path} (metrics snapshot: {int(served)} "
          f"served, {int(failed)} failed, {len(hists)} histograms)")


def check_svc_flight(path: str, doc: dict) -> None:
    capacity = nonneg_int(doc, "capacity", path, "flight")
    nonneg_int(doc, "recorded", path, "flight")
    events = doc.get("events")
    if not isinstance(events, list):
        fail(f"{path}: missing 'events' array")
    if len(events) > capacity:
        fail(f"{path}: {len(events)} events exceed capacity {capacity}")
    prev_seq = -1
    by_corr = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: events[{i}] is not an object")
        seq = nonneg_int(ev, "seq", path, f"events[{i}]")
        nonneg_int(ev, "t_ns", path, f"events[{i}]")
        nonneg_int(ev, "dur_ns", path, f"events[{i}]")
        for key in ("corr", "kind", "stage"):
            if not isinstance(ev.get(key), str) or not ev[key]:
                fail(f"{path}: events[{i}] missing string '{key}'")
        if ev["stage"] not in FLIGHT_STAGES:
            fail(f"{path}: events[{i}] has unknown stage "
                 f"{ev['stage']!r}")
        if seq <= prev_seq:
            fail(f"{path}: events[{i}] seq {seq} not ascending")
        prev_seq = seq
        by_corr.setdefault(ev["corr"], []).append(ev)
    # Lifecycle nesting per correlation id.  The ring may have dropped
    # stages for a given request, so only pairs both present are checked:
    # accept/enqueue happen before the request interval (the done/error
    # event spans handle() start to end), every acquire nests inside it,
    # and serialize starts at or after its end.
    nested = 0
    for corr, evs in by_corr.items():
        finish = next((e for e in evs if e["stage"] in ("done", "error")),
                      None)
        if finish is None:
            continue
        t0, t1 = finish["t_ns"], finish["t_ns"] + finish["dur_ns"]
        for ev in evs:
            stage = ev["stage"]
            if stage in ("accept", "enqueue", "dequeue"):
                if ev["t_ns"] > t0:
                    fail(f"{path}: corr {corr}: {stage} at {ev['t_ns']} "
                         f"after request start {t0}")
            elif stage == "acquire":
                if ev["t_ns"] < t0 or ev["t_ns"] + ev["dur_ns"] > t1:
                    fail(f"{path}: corr {corr}: acquire "
                         f"[{ev['t_ns']}, {ev['t_ns'] + ev['dur_ns']}] "
                         f"not nested in request [{t0}, {t1}]")
                nested += 1
            elif stage == "serialize":
                if ev["t_ns"] < t1:
                    fail(f"{path}: corr {corr}: serialize at {ev['t_ns']} "
                         f"before request end {t1}")
    print(f"check_trace: OK: {path} (flight dump: {len(events)} events, "
          f"{len(by_corr)} correlation ids, {nested} nested acquires)")


def check_svc(path: str) -> None:
    """Dispatch a daemon telemetry document by its schema field."""
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: svc document must be a JSON object")
    # `topomap client` prints the whole response envelope; accept either
    # the envelope (unwrapping its result) or a bare snapshot document.
    if doc.get("schema") == "topomap.svc.response":
        if doc.get("status") != "ok":
            fail(f"{path}: response envelope has "
                 f"status={doc.get('status')!r}")
        doc = doc.get("result")
        if not isinstance(doc, dict):
            fail(f"{path}: response envelope has no result object")
    schema = doc.get("schema")
    if doc.get("schema_version") != SVC_SCHEMA_VERSION:
        fail(f"{path}: schema_version={doc.get('schema_version')!r}, "
             f"want {SVC_SCHEMA_VERSION}")
    if schema == METRICS_SCHEMA_NAME:
        check_svc_metrics(path, doc)
    elif schema == FLIGHT_SCHEMA_NAME:
        check_svc_flight(path, doc)
    else:
        fail(f"{path}: schema={schema!r}, want {METRICS_SCHEMA_NAME!r} or "
             f"{FLIGHT_SCHEMA_NAME!r}")


def counter_pin(text: str):
    """Parse NAME=VALUE for --expect-counter."""
    name, sep, value = text.rpartition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"want NAME=VALUE, got {text!r}")
    try:
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"counter value must be an integer, got {value!r}") from None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome-trace JSON file to validate")
    parser.add_argument("--stats", help="obs::Report JSON file to validate")
    parser.add_argument("--contention",
                        help="topomap explain contention report to validate")
    parser.add_argument("--svc", action="append", default=[], metavar="FILE",
                        help="daemon telemetry document to validate "
                             "(metrics snapshot or flight dump, dispatched "
                             "by schema; repeatable)")
    parser.add_argument("--require-series", action="append", default=[],
                        metavar="NAME",
                        help="assert this series exists in --stats and is "
                             "monotone non-decreasing")
    parser.add_argument("--require-any-series", action="append", default=[],
                        metavar="NAME",
                        help="assert this series exists in --stats and is "
                             "non-empty (no shape constraint)")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="assert this counter exists in --stats and is "
                             "positive")
    parser.add_argument("--expect-counter", action="append", default=[],
                        metavar="NAME=VALUE", type=counter_pin,
                        help="assert this counter in --stats equals VALUE "
                             "exactly")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="assert a span of this name closed in --stats")
    parser.add_argument("--require-counter-track", action="append",
                        default=[], metavar="NAME",
                        help="assert this counter track exists in --trace")
    args = parser.parse_args()
    if (not args.trace and not args.stats and not args.contention
            and not args.svc):
        parser.error("give --trace, --stats, --contention, and/or --svc")
    if ((args.require_series or args.require_any_series
         or args.require_counter or args.expect_counter
         or args.require_span) and not args.stats):
        parser.error("--require-series/--require-any-series/"
                     "--require-counter/--expect-counter/--require-span "
                     "need --stats")
    if args.require_counter_track and not args.trace:
        parser.error("--require-counter-track needs --trace")
    if args.trace:
        check_trace(args.trace, args.require_counter_track)
    if args.stats:
        check_stats(args.stats, args.require_series, args.require_any_series,
                    args.require_counter, args.expect_counter,
                    args.require_span)
    if args.contention:
        check_contention(args.contention)
    for path in args.svc:
        check_svc(path)


if __name__ == "__main__":
    main()
