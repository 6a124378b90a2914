"""Paired comparison of two commits on the benchmark.

Usage (from the repository root)::

    python bench/compare.py BASE CHANGE [--workload W ...]

Both commits run with this checkout's ``bench/`` code: each commit's
``src/`` is exported with ``git archive`` into ``bench/out/compare/``
(which leaves the repository's git metadata alone) and
``bench/run.py --src`` points at it. For every workload, one traced
run per side first checks that both do the same work (the
``runner.simulations``, ``*.committed`` and ``*.sim_cycles`` counts);
then :data:`PAIRS` untraced pairs run, alternating which side goes
first. Every run is on seed 0, whose outputs ``bench/expected`` holds,
for the benchmark's own ``run_seconds``.

One row per (metric, workload) gives each side's median and quartiles,
the share of pairs the change won (ties count for neither) and a
verdict:

* ``improved``: the change won at least 90% of pairs and the medians
  differ by more than the base's interquartile range;
* ``unresolved``: the base's interquartile range is wider than the
  metric's bound and not every change run beats every base run;
* ``regressed``: the change's median is worse by more than the bound;
* ``no-worse``: otherwise.

A row whose work counts or correctness checks differ is refused. The
exit code is 1 when any row regressed or was refused.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Sequence

from spec import BENCH_DIR, REPO_ROOT, load_spec, quartiles, workload_names

RUN = os.path.join(BENCH_DIR, "run.py")
WORK_DIR = os.path.join(BENCH_DIR, "out", "compare")

#: Untraced pairs per workload: the fewest the paired protocol allows.
PAIRS = 10


def is_work_counter(name: str) -> bool:
    return name == "runner.simulations" or name.endswith(
        (".committed", ".sim_cycles")
    )


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> tuple:
    """``(verdict, win share)`` of paired samples (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in zip(base, change) if sign * (a - b) > 0)
    share = wins / len(base)
    q1, base_median, q3 = quartiles(base)
    _, change_median, _ = quartiles(change)
    gain = sign * (base_median - change_median)
    if share >= 0.9 and gain > q3 - q1:
        return "improved", share
    all_better = all(sign * (a - b) > 0 for a in base for b in change)
    if (q3 - q1) > bound * abs(base_median) and not all_better:
        return "unresolved", share
    if -gain > bound * abs(base_median):
        return "regressed", share
    return "no-worse", share


def export_src(commit: str, side: str) -> str:
    """``src/`` of *commit* extracted under ``bench/out/compare``.

    *side* is one letter, so both sides' paths have the same length:
    the source path alone moved ``paper-warm``'s mean peak memory by
    0.04 MiB when one directory name was two letters longer.
    """
    sha = subprocess.run(
        ["git", "-C", REPO_ROOT, "rev-parse", "--verify",
         f"{commit}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest = os.path.join(WORK_DIR, f"{side}-{sha[:12]}")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(
        ["git", "-C", REPO_ROOT, "archive", "--format=tar", sha, "src"],
        stdout=subprocess.PIPE,
    )
    try:
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {commit} failed")
    return os.path.join(dest, "src")


def bench_once(src: str, workload: str, trace: int) -> dict:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "0",
            "--trace", str(trace), "--src", src]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"bench/run.py failed on {src}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="bench/compare.py",
        description="Paired comparison of two commits on the benchmark.",
    )
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("change", help="the commit claiming a change")
    parser.add_argument("--workload", action="append",
                        choices=workload_names(spec),
                        help="workload to compare (repeatable; default all)")
    args = parser.parse_args(argv)

    sides = {"base": export_src(args.base, "a"),
             "change": export_src(args.change, "b")}
    metrics = spec["end_to_end"]
    rows: List[tuple] = []
    try:
        for workload in args.workload or workload_names(spec):
            refused = []
            traced = {side: bench_once(src, workload, 1)
                      for side, src in sides.items()}
            for name, block in traced["base"]["metrics"].items():
                other = traced["change"]["metrics"].get(name, {})
                if is_work_counter(name) and block["value"] != other.get(
                    "value"
                ):
                    refused.append(f"unequal work: {name} "
                                   f"{block['value']} vs {other.get('value')}")
            samples: Dict[str, Dict[str, List[float]]] = {
                side: {m["name"]: [] for m in metrics} for side in sides
            }
            for k in range(PAIRS):
                order = ("base", "change") if k % 2 == 0 else ("change",
                                                                "base")
                for side in order:
                    result = bench_once(sides[side], workload, 0)
                    if not result["correct"]:
                        refused.append(f"{side} failed its checks")
                    for m in metrics:
                        samples[side][m["name"]].append(
                            result["metrics"][m["name"]]["value"])
            for m in metrics:
                base = samples["base"][m["name"]]
                change = samples["change"][m["name"]]
                if refused:
                    outcome, share = "refused", 0.0
                else:
                    outcome, share = verdict(base, change, m["better"],
                                             m["bound"])
                rows.append((m["name"], workload, quartiles(base),
                             quartiles(change), share, outcome))
            for reason in sorted(set(refused)):
                print(f"{workload}: refused: {reason}", file=sys.stderr)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    print(f"{'metric':12s} {'workload':12s} {'base q1/med/q3':34s} "
          f"{'change q1/med/q3':34s} {'wins':>5s}  verdict")
    for name, workload, base, change, share, outcome in rows:
        print(f"{name:12s} {workload:12s} "
              f"{'/'.join(f'{v:.4g}' for v in base):34s} "
              f"{'/'.join(f'{v:.4g}' for v in change):34s} "
              f"{share:5.0%}  {outcome}")
    bad = {"regressed", "refused"}
    return 1 if any(row[-1] in bad for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
