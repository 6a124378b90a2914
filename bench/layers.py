"""Per-layer metrics from one traced child's spans, and the map of
which end-to-end metric each layer should move on which workload.

Layers are named after the modules they time: the simulator cores
(``core/processor.py`` reference and observed runs, ``core/vector.py``,
``eventsim/``, ``splitwindow/``), the result store
(``experiments/store.py``), trace acquisition (``workloads/catalog.py``),
the runner memo (``experiments/runner.py``), report rendering and each
CLI artifact. A metric of a layer the workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict, List

from spec import median, tail
from tracing import (
    ATTRS, END, NAME, PARENT, START, self_time_residual, self_times,
)

#: Every artifact of ``repro-experiments all``, in its order.
ARTIFACTS = (
    "table1", "figure1", "table3", "figure2", "table4", "figure3",
    "figure4", "figure5", "figure6", "figure7", "figure7-sweep",
    "summary", "stalls",
    "ablation-recovery", "ablation-predictors", "ablation-window",
    "ablation-squash", "ablation-split",
)

#: Simulator layer -> the metrics it reports besides ``cells``,
#: ``run_s`` and ``ns_per_insn``. ``committed`` and ``sim_cycles`` are
#: the work counters ``bench/compare.py`` refuses to compare across; the
#: vector pass has none, since its cells must equal the reference pass.
CORE_LAYERS = {
    "core.reference": ("init_s", "init_ms", "committed", "sim_cycles",
                       "ns_per_cycle"),
    "core.vector": ("init_s", "skipped_cycles", "elided_frac"),
    "observe": ("committed", "sim_cycles", "overhead_ratio"),
    "eventsim": ("init_s", "committed", "sim_cycles", "events_fired",
                 "ns_per_event"),
    "split.legacy": ("init_s", "committed", "sim_cycles"),
}

#: Which end-to-end metric each layer's metrics should move, on which
#: workloads, and where they should not move. Written down before any
#: measurement (choosing-metrics section 3); ``bench/tests`` checks that
#: every per-layer metric of ``BENCHMARK.json`` falls under one row.
LAYER_MAP = (
    {"prefix": "core.reference.", "moves": ["norm_wall_s"],
     "on": ["core-sweep", "paper-cold"],
     "not_on": ["paper-warm", "split-sweep"]},
    {"prefix": "core.vector.", "moves": [],
     "on": ["core-sweep"], "not_on": []},
    {"prefix": "observe.", "moves": ["norm_wall_s"],
     "on": ["paper-cold"],
     "not_on": ["core-sweep", "split-sweep", "paper-warm"]},
    {"prefix": "eventsim.", "moves": ["norm_wall_s"],
     "on": ["split-sweep", "paper-cold"],
     "not_on": ["core-sweep", "paper-warm"]},
    {"prefix": "split.legacy.", "moves": ["norm_wall_s"],
     "on": ["split-sweep", "paper-cold"],
     "not_on": ["core-sweep", "paper-warm"]},
    {"prefix": "store.load", "moves": ["norm_wall_s"],
     "on": ["paper-warm"], "not_on": ["core-sweep", "split-sweep"]},
    {"prefix": "store.hit_ratio", "moves": ["norm_wall_s"],
     "on": ["paper-warm"], "not_on": ["core-sweep", "split-sweep"]},
    {"prefix": "store.save", "moves": ["norm_wall_s"],
     "on": ["paper-cold"],
     "not_on": ["paper-warm", "core-sweep", "split-sweep"]},
    {"prefix": "trace.", "moves": ["setup_s", "norm_wall_s"],
     "on": ["core-sweep", "paper-warm"], "not_on": []},
    {"prefix": "runner.", "moves": ["norm_wall_s"],
     "on": ["paper-warm", "paper-cold"], "not_on": ["core-sweep"]},
    {"prefix": "render.", "moves": ["norm_wall_s"],
     "on": ["paper-warm", "paper-cold"], "not_on": ["core-sweep"]},
    {"prefix": "artifact.", "moves": ["norm_wall_s"],
     "on": ["paper-warm", "paper-cold"], "not_on": ["core-sweep"]},
    {"prefix": "startup.", "moves": ["setup_s"],
     "on": ["paper-warm", "paper-cold", "core-sweep", "split-sweep"],
     "not_on": []},
    {"prefix": "shutdown.", "moves": ["norm_wall_s"],
     "on": ["paper-warm"], "not_on": []},
    {"prefix": "trace_overhead_frac", "moves": [], "on": [], "not_on": []},
    {"prefix": "span_coverage", "moves": [], "on": [], "not_on": []},
    {"prefix": "self_time_residual", "moves": [], "on": [], "not_on": []},
)


def _per(value_s: float, count: int, scale: float) -> float:
    return value_s * scale / count if count else 0.0


def layer_metrics(spans: List[list], stats: dict, wall_ns: int) -> Dict:
    """Per-layer metrics of one traced child.

    *stats* is the child's own ``trace_stats()``/``cache_stats()``
    report; *wall_ns* is the child's wall time as its parent measured
    it (``trace_overhead_frac`` needs untraced runs, so the caller adds
    it).
    """
    own = self_times(spans)
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def self_s(*names: str) -> float:
        return sum(own[s[0]] for n in names for s in by_name.get(n, ())) / 1e9

    def durations(name: str, scale: float) -> List[float]:
        return [(s[END] - s[START]) / scale for s in by_name.get(name, ())]

    out: Dict[str, float] = {}
    for layer, extra in CORE_LAYERS.items():
        inits = by_name.get(f"{layer}.init", [])
        runs = by_name.get(f"{layer}.run", [])
        attrs = [s[ATTRS] or {} for s in runs]
        committed = sum(a.get("committed", 0) for a in attrs)
        cycles = sum(a.get("cycles", 0) for a in attrs)
        skipped = sum(a.get("skipped", 0) for a in attrs)
        events = sum(a.get("events", 0) for a in attrs)
        init_s = self_s(f"{layer}.init")
        run_s = self_s(f"{layer}.run")
        ns_per_insn = _per(run_s, committed, 1e9)
        reference = out.get("core.reference.ns_per_insn", 0.0)
        candidates = {
            "init_s": init_s,
            "init_ms": _per(init_s, len(inits), 1e3),
            "committed": committed,
            "sim_cycles": cycles,
            "ns_per_cycle": _per(run_s, cycles, 1e9),
            "skipped_cycles": skipped,
            "elided_frac": skipped / cycles if cycles else 0.0,
            "events_fired": events,
            "ns_per_event": _per(run_s, events, 1e9),
            "overhead_ratio": ns_per_insn / reference if reference else 0.0,
        }
        out[f"{layer}.cells"] = len(runs)
        out[f"{layer}.run_s"] = run_s
        out[f"{layer}.ns_per_insn"] = ns_per_insn
        for key in extra:
            out[f"{layer}.{key}"] = candidates[key]

    for op in ("load", "save"):
        calls = by_name.get(f"store.{op}", [])
        micros = durations(f"store.{op}", 1e3)
        out[f"store.{op}_calls"] = len(calls)
        out[f"store.{op}_s"] = self_s(f"store.{op}")
        out[f"store.{op}_p50_us"] = median(micros) if micros else 0.0
        out[f"store.{op}_tail_us"] = tail(micros)[1]
    loads = by_name.get("store.load", [])
    hits = sum(1 for s in loads if (s[ATTRS] or {}).get("hit"))
    out["store.hit_ratio"] = hits / len(loads) if loads else 0.0

    getters = ("trace.get_trace", "trace.get_compiled",
               "trace.get_dependence_info")
    trace = stats.get("trace", {})
    out["trace.calls"] = sum(len(by_name.get(n, ())) for n in getters)
    out["trace.self_s"] = self_s(*getters)
    for key in ("generated", "store_hits", "memory_hits"):
        out[f"trace.{key}"] = trace.get(key, 0)

    cache = stats.get("cache", {})
    calls_ms = durations("runner.run_benchmark", 1e6)
    out["runner.calls"] = len(calls_ms)
    out["runner.self_s"] = self_s("runner.run_benchmark")
    out["runner.call_p50_ms"] = median(calls_ms) if calls_ms else 0.0
    out["runner.call_tail_ms"] = tail(calls_ms)[1]
    for key in ("memory_hits", "store_hits", "simulations"):
        out[f"runner.{key}"] = cache.get(key, 0)

    out["render.self_s"] = self_s("render")
    out["startup.s"] = sum(durations("startup", 1e9))
    out["shutdown.s"] = sum(durations("shutdown", 1e9))
    for name in ARTIFACTS:
        out[f"artifact.{name}.s"] = sum(durations(f"artifact.{name}", 1e9))

    top = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    out["span_coverage"] = top / wall_ns if wall_ns else 0.0
    out["self_time_residual"] = self_time_residual(spans)
    return out
