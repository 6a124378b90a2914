#!/usr/bin/env python
"""CI smoke benchmark: a mini experiment matrix through the store.

Runs a small (benchmark x configuration) matrix twice — a cold pass
that simulates and populates the persistent result store, then a warm
pass that must be served entirely from the store (zero re-simulations,
enforced mechanically from the telemetry counters). Writes:

``<out>/telemetry.jsonl``
    The structured run telemetry for both passes (uploaded as a CI
    artifact; readable with ``repro-experiments status``).
``<out>/BENCH_ci.json``
    Per-point IPC plus run metadata (the CI benchmark artifact).

If a committed baseline is given, every (config, benchmark) IPC is
compared against it and the run fails when any point drifts by more
than ``--drift`` (relative). Regenerate the baseline after intentional
simulator changes with ``--write-baseline``.

Usage (CI)::

    PYTHONPATH=src python tools/ci_bench.py \\
        --out ci-bench --baseline benchmarks/baseline_ci.json

``--gate MEASURED.json`` switches to the structured throughput
comparator used by the ``perf-smoke`` job: compare a fresh
``perf_bench`` measurement against the committed per-backend baseline
(``--gate-baseline``), write a machine-readable verdict
(``--gate-out``), and **fail** when the KIPS geomean over overlapping
cells regresses by more than ``--gate-threshold``. Cells whose pinned
per-cell work (warm-up/timed instruction split, committed count)
disagrees between the two files — e.g. a ``--quick`` measurement
against a full baseline — are excluded from the geomean and recorded
under ``unequal_work`` in the verdict, so the gate never compares
unequal work. Intentional
baseline refreshes ride a ``[perf-baseline-bump]`` marker in the head
commit message (checked via ``$CI_COMMIT_MESSAGE`` or ``git log -1``),
which records the override in the verdict instead of failing — see
docs/TESTING.md.

Exit codes: 0 ok, 1 IPC drift / KIPS regression beyond threshold,
2 warm pass re-simulated (store regression), 3 baseline
missing/incompatible.
"""

import argparse
import json
import math
import os
import subprocess
import sys

#: Commit-message marker that turns a blocking gate failure into a
#: recorded override (used when intentionally refreshing baselines).
BUMP_MARKER = "[perf-baseline-bump]"


def _geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _head_commit_message():
    """Head commit message: $CI_COMMIT_MESSAGE, else ``git log -1``."""
    message = os.environ.get("CI_COMMIT_MESSAGE")
    if message:
        return message
    try:
        proc = subprocess.run(
            ["git", "log", "-1", "--pretty=%B"],
            capture_output=True, text=True, check=False,
        )
    except OSError:
        return ""
    return proc.stdout if proc.returncode == 0 else ""


def run_gate(args) -> int:
    """Blocking per-backend KIPS comparator (``--gate``)."""
    try:
        with open(args.gate, "r", encoding="utf-8") as handle:
            measured = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read measurement {args.gate}: {exc}",
              file=sys.stderr)
        return 3
    try:
        with open(args.gate_baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.gate_baseline}: {exc}",
              file=sys.stderr)
        return 3

    backend = measured.get("backend", "reference")
    base_backend = baseline.get("backend", "reference")
    if backend != base_backend:
        print(
            f"backend mismatch: measurement is {backend!r} but "
            f"baseline {args.gate_baseline} is {base_backend!r}",
            file=sys.stderr,
        )
        return 3

    base_cells = baseline.get("cells", {})
    cells = {}
    unequal_work = {}
    for label, cell in measured.get("cells", {}).items():
        base = base_cells.get(label, {})
        old = base.get("kips")
        new = cell.get("kips")
        if not (old and new):
            continue
        # Never compare unequal work: a --quick measurement against a
        # full baseline (or any warm/timed drift) is a different
        # simulation, not a perf signal. Cells record their pinned
        # split and committed count; when both sides carry them and
        # they disagree, the cell is excluded and recorded as such.
        counts = {}
        mismatch = False
        for key in (
            "warmup_instructions", "timing_instructions", "committed",
        ):
            got, want = cell.get(key), base.get(key)
            if got is not None and want is not None:
                counts[f"measured_{key}"] = got
                counts[f"baseline_{key}"] = want
                if got != want:
                    mismatch = True
        if mismatch:
            unequal_work[label] = counts
            continue
        cells[label] = dict(
            baseline_kips=old,
            measured_kips=new,
            ratio=round(new / old, 4),
            **counts,
        )
    if unequal_work:
        print(
            f"excluded {len(unequal_work)} cell(s) with unequal "
            f"work: {', '.join(sorted(unequal_work))}"
        )
    ratio = _geomean([c["ratio"] for c in cells.values()])
    regressed = bool(cells) and ratio < 1.0 - args.gate_threshold
    override = regressed and BUMP_MARKER in _head_commit_message()

    verdict = {
        "schema": 1,
        "mode": "perf-gate",
        "backend": backend,
        "baseline": args.gate_baseline,
        "threshold": args.gate_threshold,
        "cells": cells,
        "unequal_work": unequal_work,
        "geomean_ratio": round(ratio, 4) if cells else None,
        "regressed": regressed,
        "override": override,
        "override_marker": BUMP_MARKER,
    }
    if args.gate_out:
        with open(args.gate_out, "w", encoding="utf-8") as handle:
            json.dump(verdict, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.gate_out}")

    if not cells:
        print(
            f"no overlapping cells between {args.gate} and "
            f"{args.gate_baseline}; gate skipped"
        )
        return 0
    print(
        f"{backend} KIPS vs {args.gate_baseline} over "
        f"{len(cells)} cells: {ratio:.2f}x geomean "
        f"(threshold {1.0 - args.gate_threshold:.2f}x)"
    )
    if regressed and override:
        print(
            f"::notice title=perf-gate::{backend} geomean regressed "
            f"{1 - ratio:.0%} but the head commit carries "
            f"{BUMP_MARKER}; gate overridden — refresh "
            f"{args.gate_baseline} in this PR"
        )
        return 0
    if regressed:
        worst = sorted(cells.items(), key=lambda kv: kv[1]["ratio"])[:3]
        for label, cell in worst:
            print(
                f"  {label}: {cell['baseline_kips']:.1f} -> "
                f"{cell['measured_kips']:.1f} KIPS "
                f"({cell['ratio']:.2f}x)",
                file=sys.stderr,
            )
        print(
            f"::error title=perf-gate::{backend} KIPS geomean is "
            f"{1 - ratio:.0%} below {args.gate_baseline} (threshold "
            f"{args.gate_threshold:.0%}); optimize, or refresh the "
            f"baseline with a {BUMP_MARKER} commit",
            file=sys.stderr,
        )
        return 1
    return 0


def build_matrix():
    """The smoke matrix: 3 cheap benchmarks x 4 core policies."""
    from repro.config import (
        continuous_window_128, SchedulingModel, SpeculationPolicy,
    )

    nas = SchedulingModel.NAS
    benchmarks = ("132.ijpeg", "107.mgrid", "126.gcc")
    configs = {
        policy.value: continuous_window_128(nas, policy)
        for policy in (
            SpeculationPolicy.NO, SpeculationPolicy.NAIVE,
            SpeculationPolicy.SYNC, SpeculationPolicy.ORACLE,
        )
    }
    return benchmarks, configs


def run_passes(out_dir, settings, workers, backend=None):
    """Cold + warm matrix passes; returns (ipc table, warm summary)."""
    from repro.experiments import clear_results, set_store
    from repro.experiments.parallel import run_matrix_parallel
    from repro.experiments.telemetry import (
        read_telemetry, summarize_telemetry, TelemetryWriter,
    )

    benchmarks, configs = build_matrix()
    set_store(os.path.join(out_dir, "store"))
    telemetry_path = os.path.join(out_dir, "telemetry.jsonl")

    with TelemetryWriter(telemetry_path) as writer:
        writer.emit("ci_pass", phase="cold")
        clear_results()
        run_matrix_parallel(
            benchmarks, configs, settings, workers=workers,
            telemetry=writer, backend=backend,
        )
        writer.emit("ci_pass", phase="warm")
        clear_results()
        warm = run_matrix_parallel(
            benchmarks, configs, settings, workers=workers,
            telemetry=writer, backend=backend,
        )

    events = read_telemetry(telemetry_path)
    # The warm pass is everything after the second ci_pass marker.
    marker = max(
        i for i, e in enumerate(events)
        if e["event"] == "ci_pass" and e.get("phase") == "warm"
    )
    warm_summary = summarize_telemetry(events[marker:])

    ipc = {
        label: {
            name: warm[label][name].ipc for name in sorted(warm[label])
        }
        for label in sorted(warm)
    }
    return ipc, warm_summary


def compare_to_baseline(ipc, baseline, drift):
    """Offending (config, benchmark, old, new, delta) rows."""
    offenders = []
    base_ipc = baseline.get("ipc", {})
    for label, per_bench in ipc.items():
        for name, new in per_bench.items():
            old = base_ipc.get(label, {}).get(name)
            if old is None:
                offenders.append((label, name, None, new, None))
                continue
            delta = (new - old) / max(abs(old), 1e-12)
            if abs(delta) > drift:
                offenders.append((label, name, old, new, delta))
    return offenders


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--gate", default=None, metavar="MEASURED.json",
        help="compare a perf_bench measurement against the committed "
             "per-backend baseline and fail on regression",
    )
    parser.add_argument(
        "--gate-baseline", default=None, metavar="BENCH.json",
        help="committed baseline for --gate (e.g. "
             "benchmarks/BENCH_core.json)",
    )
    parser.add_argument(
        "--gate-threshold", type=float, default=0.25,
        help="relative KIPS geomean regression that fails the gate "
             "(default 0.25)",
    )
    parser.add_argument(
        "--gate-out", default=None, metavar="VERDICT.json",
        help="write the structured gate verdict here",
    )
    parser.add_argument(
        "--out", default=None,
        help="output directory (store, telemetry, BENCH_ci.json)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed baseline JSON to compare IPC against",
    )
    parser.add_argument(
        "--drift", type=float, default=0.10,
        help="max relative IPC drift vs baseline (default 0.10)",
    )
    parser.add_argument(
        "--timing", type=int, default=None,
        help="override timed instructions (default: quick settings)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="override warm-up instructions (default: quick settings)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--backend", default=None,
        help="simulator backend for the matrix passes (reference/"
             "vector); recorded in the baseline and checked on compare",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the measured IPC table to --baseline and exit",
    )
    args = parser.parse_args(argv)

    if args.gate:
        if not args.gate_baseline:
            print("--gate requires --gate-baseline", file=sys.stderr)
            return 3
        return run_gate(args)
    if not args.out:
        print("--out is required (unless using --gate)",
              file=sys.stderr)
        return 3

    from repro.experiments.runner import (
        ExperimentSettings, quick_settings,
    )

    settings = quick_settings()
    if args.timing or args.warmup:
        settings = ExperimentSettings(
            timing_instructions=args.timing
            or settings.timing_instructions,
            warmup_instructions=args.warmup
            or settings.warmup_instructions,
        )

    os.makedirs(args.out, exist_ok=True)
    ipc, warm_summary = run_passes(
        args.out, settings, args.workers, backend=args.backend,
    )

    backend = args.backend or "reference"
    bench = {
        "backend": backend,
        "settings": {
            "timing_instructions": settings.timing_instructions,
            "warmup_instructions": settings.warmup_instructions,
            "seed": settings.seed,
        },
        "warm_pass": {
            key: warm_summary[key]
            for key in ("simulations", "store_hits", "memory_hits",
                        "cache_hit_rate")
        },
        "ipc": ipc,
    }
    bench_path = os.path.join(args.out, "BENCH_ci.json")
    with open(bench_path, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
    print(f"wrote {bench_path}")

    if warm_summary["simulations"]:
        print(
            f"FAIL: warm pass re-simulated "
            f"{warm_summary['simulations']} points (expected 0) — "
            "the persistent store is not serving results",
            file=sys.stderr,
        )
        return 2
    print(
        f"warm pass: 0 re-simulations, "
        f"{warm_summary['store_hits']} store hits, "
        f"{warm_summary['memory_hits']} memory hits"
    )

    if args.write_baseline:
        if not args.baseline:
            print("--write-baseline requires --baseline",
                  file=sys.stderr)
            return 3
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "backend": backend,
                    "settings": bench["settings"],
                    "ipc": ipc,
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote baseline {args.baseline}")
        return 0

    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 3
        base_backend = baseline.get("backend", "reference")
        if base_backend != backend:
            print(
                f"backend mismatch: run used {backend!r} but baseline "
                f"{args.baseline} records {base_backend!r}; pass "
                f"--backend {base_backend} or regenerate the baseline",
                file=sys.stderr,
            )
            return 3
        offenders = compare_to_baseline(ipc, baseline, args.drift)
        if offenders:
            print(f"FAIL: IPC drift beyond {args.drift:.0%}:",
                  file=sys.stderr)
            for label, name, old, new, delta in offenders:
                if old is None:
                    print(f"  {label}/{name}: no baseline point",
                          file=sys.stderr)
                else:
                    print(
                        f"  {label}/{name}: {old:.4f} -> {new:.4f} "
                        f"({delta:+.1%})",
                        file=sys.stderr,
                    )
            return 1
        print(
            f"IPC within {args.drift:.0%} of baseline across "
            f"{sum(len(v) for v in ipc.values())} points"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
