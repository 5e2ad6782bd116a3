#!/usr/bin/env python3
"""Bench regression gate: roll up bench tables, diff against a baseline.

The bench harnesses mirror every table into bench_results/<name>.json
(obs::Report documents).  This tool turns a directory of those into one
flat baseline artifact and compares a later run against it:

    scripts/bench_compare.py rollup --dir bench_results --out BENCH_mapping.json
    scripts/bench_compare.py compare --baseline BENCH_mapping.json \
        --dir bench_results [--tolerance 1e-6]

Only *deterministic* columns participate in the gate: wall-clock columns
(named "seconds", "*_sec", "*wall*") stay in the baseline as
informational context (e.g. the svc_load p50/p99 service latencies) but
are skipped during compare, so the gate never fails on machine speed —
it fails when mapping quality metrics (hop-bytes, max-link-load, L2,
simulated virtual-time results) move.  Real-valued cells compare under a
relative tolerance; integer cells (counts) and strings must match exactly.
Intentional algorithm changes regenerate the baseline with `rollup`.

Exit 0 when every shared table matches, 1 on any regression or missing
table, 2 on usage/I-O errors.  Stdlib only.
"""

import argparse
import glob
import json
import os
import sys

SCHEMA_NAME = "topomap.bench.baseline"
SCHEMA_VERSION = 1

# Column names carrying wall-clock time: kept in the baseline for context
# but excluded from the compare, so the gate is independent of machine
# speed.  Virtual-time columns (simulated completion in ms/us) are
# deterministic and fully gated.
WALL_CLOCK_NAMES = ("seconds",)
WALL_CLOCK_SUFFIXES = ("_sec", "_seconds")
WALL_CLOCK_SUBSTRINGS = ("wall",)


def is_wall_clock(column: str) -> bool:
    low = column.lower()
    return (low in WALL_CLOCK_NAMES
            or any(low.endswith(s) for s in WALL_CLOCK_SUFFIXES)
            or any(s in low for s in WALL_CLOCK_SUBSTRINGS))


def die(msg: str, code: int = 2) -> None:
    print(f"bench_compare: error: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"reading {path}: {e}")


def collect_tables(directory: str) -> dict:
    """All tables from every bench_results/*.json, keyed by table name
    (table names are unique repo-wide).  Wall-clock columns are kept —
    compare_table() skips them cell-by-cell."""
    tables = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        die(f"no *.json files under {directory!r}")
    for path in paths:
        doc = load_json(path)
        if not isinstance(doc, dict) or not isinstance(doc.get("tables"),
                                                       dict):
            continue  # not an obs::Report mirror (e.g. a contention report)
        source = os.path.basename(path)
        for name, table in doc["tables"].items():
            if name in tables:
                die(f"table {name!r} appears in both "
                    f"{tables[name]['source']} and {source}")
            tables[name] = {
                "source": source,
                "columns": table.get("columns", []),
                "rows": table.get("rows", []),
            }
    if not tables:
        die(f"no bench tables found under {directory!r}")
    return tables


def cmd_rollup(args) -> None:
    tables = collect_tables(args.dir)
    doc = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "benches": {name: tables[name] for name in sorted(tables)},
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    total_rows = sum(len(t["rows"]) for t in tables.values())
    wall = sorted({c for t in tables.values() for c in t["columns"]
                   if is_wall_clock(c)})
    print(f"bench_compare: wrote {args.out}: {len(tables)} tables, "
          f"{total_rows} rows (informational wall-clock columns: "
          f"{', '.join(wall) if wall else 'none'})")


def cells_match(a, b, tolerance: float) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b  # counts (work counters, migrations) match exactly
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= tolerance * scale


def compare_table(name: str, base: dict, cur: dict, tolerance: float) -> list:
    problems = []
    if base["columns"] != cur["columns"]:
        problems.append(f"{name}: columns changed "
                        f"{base['columns']} -> {cur['columns']}")
        return problems
    if len(base["rows"]) != len(cur["rows"]):
        problems.append(f"{name}: row count changed "
                        f"{len(base['rows'])} -> {len(cur['rows'])}")
        return problems
    for r, (brow, crow) in enumerate(zip(base["rows"], cur["rows"])):
        for c, (bval, cval) in enumerate(zip(brow, crow)):
            if is_wall_clock(base["columns"][c]):
                continue  # informational only — machine speed never gates
            if not cells_match(bval, cval, tolerance):
                problems.append(
                    f"{name} row {r} col {base['columns'][c]!r}: "
                    f"{bval!r} -> {cval!r}")
    return problems


def cmd_compare(args) -> None:
    baseline = load_json(args.baseline)
    if (not isinstance(baseline, dict)
            or baseline.get("schema") != SCHEMA_NAME
            or baseline.get("schema_version") != SCHEMA_VERSION):
        die(f"{args.baseline} is not a {SCHEMA_NAME} v{SCHEMA_VERSION} "
            "baseline (regenerate with `rollup`)")
    current = collect_tables(args.dir)
    problems = []
    compared = 0
    for name, base in sorted(baseline["benches"].items()):
        if name not in current:
            problems.append(f"{name}: missing from current run "
                            f"(baseline source {base['source']})")
            continue
        compared += 1
        problems.extend(compare_table(name, base, current[name],
                                      args.tolerance))
    for problem in problems:
        print(f"bench_compare: REGRESSION: {problem}", file=sys.stderr)
    if problems:
        print(f"bench_compare: FAIL: {len(problems)} difference(s) across "
              f"{len(baseline['benches'])} baseline tables "
              f"(tolerance {args.tolerance})", file=sys.stderr)
        sys.exit(1)
    print(f"bench_compare: OK: {compared} tables match the baseline "
          f"(tolerance {args.tolerance})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_rollup = sub.add_parser(
        "rollup", help="collect bench_results/*.json into one baseline")
    p_rollup.add_argument("--dir", default="bench_results",
                          help="directory of bench JSON mirrors")
    p_rollup.add_argument("--out", default="BENCH_mapping.json",
                          help="baseline artifact to write")
    p_rollup.set_defaults(func=cmd_rollup)
    p_compare = sub.add_parser(
        "compare", help="diff a bench run against a committed baseline")
    p_compare.add_argument("--baseline", default="BENCH_mapping.json")
    p_compare.add_argument("--dir", default="bench_results")
    p_compare.add_argument("--tolerance", type=float, default=1e-6,
                           help="relative tolerance for numeric cells")
    p_compare.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
