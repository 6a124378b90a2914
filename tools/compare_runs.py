#!/usr/bin/env python
"""Regression compare: diff two JSON artifact exports.

Given two directories written by ``repro-experiments ... --json DIR``
(e.g. from two revisions of the simulator), prints every numeric leaf
of every shared artifact whose relative change exceeds a threshold —
the quick way to see what a core change did to the reproduction.

Usage::

    repro-experiments all --json before/
    # ... hack on the simulator ...
    repro-experiments all --json after/
    python tools/compare_runs.py before/ after/ --threshold 0.05

With ``--telemetry BEFORE.jsonl AFTER.jsonl`` the two runs' JSONL
telemetry streams (``repro-experiments ... --telemetry FILE``) are
also compared: simulation counts, cache hits and wall time. The tool
stays standalone (no ``repro`` import) so it can diff artifacts from
any two checkouts.
"""

import argparse
import json
import os
import sys


def _leaves(value, prefix=""):
    """Yield (path, number) for every numeric leaf of nested data."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaves(sub, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _leaves(sub, f"{prefix}[{i}]")
    elif isinstance(value, bool):
        return
    elif isinstance(value, (int, float)):
        yield prefix, float(value)


def compare_artifact(before: dict, after: dict, threshold: float):
    """Yield (path, before, after, relative delta) over numeric leaves."""
    before_leaves = dict(_leaves(before.get("data", {})))
    after_leaves = dict(_leaves(after.get("data", {})))
    for path in sorted(before_leaves.keys() & after_leaves.keys()):
        old, new = before_leaves[path], after_leaves[path]
        base = max(abs(old), 1e-12)
        delta = (new - old) / base
        if abs(delta) >= threshold:
            yield path, old, new, delta


def telemetry_summary(path: str) -> dict:
    """Aggregate one JSONL telemetry stream (standalone reader).

    Sums cache counters and wall time over every ``matrix_finish`` and
    ``artifact_finish`` event; malformed lines are skipped, mirroring
    :func:`repro.experiments.telemetry.read_telemetry`.
    """
    totals = {
        "simulations": 0, "memory_hits": 0, "store_hits": 0,
        "wall": 0.0, "events": 0,
    }
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict):
                continue
            totals["events"] += 1
            if event.get("event") in ("matrix_finish", "artifact_finish"):
                for key in ("simulations", "memory_hits", "store_hits"):
                    totals[key] += int(event.get(key, 0))
                totals["wall"] += float(event.get("wall", 0.0))
    return totals


def compare_telemetry(before: dict, after: dict):
    """Yield (metric, before, after) rows for the telemetry diff."""
    for key in ("simulations", "memory_hits", "store_hits", "wall"):
        yield key, before[key], after[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="report leaves whose relative change exceeds this "
             "(default 0.05)",
    )
    parser.add_argument(
        "--telemetry", nargs=2, metavar=("BEFORE", "AFTER"),
        help="also compare two JSONL telemetry streams",
    )
    args = parser.parse_args(argv)

    shared = sorted(
        set(os.listdir(args.before)) & set(os.listdir(args.after))
    )
    shared = [name for name in shared if name.endswith(".json")]
    if not shared:
        print("no shared artifact JSON files found", file=sys.stderr)
        return 1

    changes = 0
    for name in shared:
        with open(os.path.join(args.before, name)) as handle:
            before = json.load(handle)
        with open(os.path.join(args.after, name)) as handle:
            after = json.load(handle)
        rows = list(compare_artifact(before, after, args.threshold))
        if rows:
            print(f"== {name} ==")
            for path, old, new, delta in rows:
                print(f"  {path}: {old:.4g} -> {new:.4g} ({delta:+.1%})")
            changes += len(rows)
    if not changes:
        print(f"no changes beyond {args.threshold:.0%} threshold across "
              f"{len(shared)} artifacts")

    if args.telemetry:
        before_t = telemetry_summary(args.telemetry[0])
        after_t = telemetry_summary(args.telemetry[1])
        print("== telemetry ==")
        for metric, old, new in compare_telemetry(before_t, after_t):
            if metric == "wall":
                print(f"  {metric}: {old:.2f}s -> {new:.2f}s")
            else:
                print(f"  {metric}: {old:g} -> {new:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
