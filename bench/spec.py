"""The benchmark definition (``BENCHMARK.json``) and the statistics
every other bench module shares.

``load_spec`` refuses a definition that breaks its format, so a typo
in a metric name fails before any run instead of after one.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

TOP_KEYS = {
    "command", "paths", "run_seconds", "workloads", "end_to_end",
    "per_layer",
}
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25


class SpecError(ValueError):
    """``BENCHMARK.json`` does not follow its format."""


def load_spec(path: str = SPEC_PATH) -> dict:
    """Read and validate the benchmark definition."""
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    validate_spec(spec)
    return spec


def validate_spec(spec: dict) -> None:
    """Raise :class:`SpecError` on the first rule *spec* breaks."""
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        raise SpecError(f"top-level keys must be exactly {sorted(TOP_KEYS)}")

    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(a, str) and len(a) <= 200
                       for a in command)):
        raise SpecError("command: 1-32 strings of at most 200 characters")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise SpecError("paths: 1-16 directories")
    for path in paths:
        if (not isinstance(path, str) or not PATH_RE.match(path)
                or path.startswith("/") or ".." in path.split("/")):
            raise SpecError(f"paths: bad directory {path!r}")
    seconds = spec["run_seconds"]
    if (not isinstance(seconds, int) or isinstance(seconds, bool)
            or not 1 <= seconds <= 60):
        raise SpecError("run_seconds: a whole number from 1 to 60")

    names = set()

    def check_name(name) -> None:
        if not isinstance(name, str) or not NAME_RE.match(name):
            raise SpecError(f"bad name {name!r}")
        if name in names:
            raise SpecError(f"name {name!r} used twice")
        names.add(name)

    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise SpecError("workloads: 2 to 8 entries")
    for entry in workloads:
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            raise SpecError("a workload has exactly 'name' and 'why'")
        check_name(entry["name"])
        why = entry["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or (
            "\n" in why
        ):
            raise SpecError(f"workload {entry['name']}: 'why' is one line")

    for key, limit, bounded in (
        ("end_to_end", MAX_END_TO_END, True),
        ("per_layer", MAX_PER_LAYER, False),
    ):
        metrics = spec[key]
        if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
            raise SpecError(f"{key}: 1 to {limit} metrics")
        want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for metric in metrics:
            if not isinstance(metric, dict) or set(metric) != want:
                raise SpecError(f"{key}: each metric has exactly {sorted(want)}")
            check_name(metric["name"])
            if not isinstance(metric["unit"], str) or not UNIT_RE.match(
                metric["unit"]
            ):
                raise SpecError(f"{metric['name']}: bad unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                raise SpecError(f"{metric['name']}: better is lower or higher")
            if bounded:
                bound = metric["bound"]
                if (not isinstance(bound, (int, float))
                        or isinstance(bound, bool)
                        or not 0 < bound <= MAX_BOUND):
                    raise SpecError(
                        f"{metric['name']}: bound in (0, {MAX_BOUND}]"
                    )
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(spec)) > 64 * 1024:
        raise SpecError("the definition is larger than 64 KiB")


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def metric_units(spec: dict, key: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2 or ordered[mid - 1] == ordered[mid]:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; the quartiles are those of
    ``statistics.quantiles(values, n=4)`` (exclusive method)."""
    import statistics

    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(pct: float, n: int) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 6)))


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank *pct*-th percentile of *values*."""
    ordered = sorted(values)
    return float(ordered[_rank(pct, len(ordered)) - 1])


#: Percentiles a tail can be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile that has at least ten of *n* samples
    beyond it (nearest rank), or ``None`` when no candidate has."""
    for pct in TAIL_CANDIDATES:
        if n - _rank(pct, n) >= 10:
            return pct
    return None


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the reportable tail of *values*;
    ``(0.0, 0.0)`` when there are too few samples for any."""
    pct = tail_percentile(len(values))
    if pct is None:
        return 0.0, 0.0
    return pct, nearest_rank(values, pct)
