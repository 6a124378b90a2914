"""Workload catalog: one place to get any trace, with caching.

Traces are deterministic functions of ``(name, length, seed,
generator_version)``; the catalog memoizes them at three layers so a
benchmark suite that runs 16 machine configurations over 18 workloads
generates each trace once — ideally once *ever*:

1. **Object memo** (``_trace_cache``): materialized :class:`Trace`
   instances, LRU-bounded, exactly as before.
2. **Compiled memo** (``_compiled_cache``): packed
   :class:`~repro.trace.compiled.CompiledTrace` columns per *series*
   ``(name, seed)``. :func:`precompile` fills this before the parallel
   runner forks, so workers inherit the buffers copy-on-write and
   never regenerate a trace.
3. **Persistent store** (:mod:`repro.trace.tracestore`): compiled
   binaries on disk, shared across processes and CI runs. Enabled via
   ``$REPRO_TRACE_STORE`` or
   :func:`repro.trace.tracestore.set_trace_store`.

Dependence analyses are memoized by trace **provenance** — the same
``(name, length, seed, generator_version)`` tuple, stamped onto every
trace the catalog produces — so they survive trace-cache eviction, can
be persisted inside compiled trace files, and need no ``id()``-reuse
pinning. Hand-built traces (``provenance is None``) are computed on
demand and not memoized.

Budgeting: kernels run on the VM to natural completion under an
instruction budget (exceeding it raises
:class:`~repro.vm.interpreter.ExecutionLimitExceeded`); synthetic
SPEC'95 stand-ins generate exactly the requested length. Both default
to the one :data:`DEFAULT_LENGTH` constant. Every kernel's natural
length fits the default budget (the longest, ``matmul``, retires
~25.5k instructions); a test pins that invariant.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace as _dc_replace
from time import perf_counter
from typing import Dict, Iterable, Optional, Tuple

from repro.trace.compiled import CompiledTrace, compile_trace
from repro.trace.dependences import (
    DependenceInfo,
    compute_dependence_info,
    compute_true_dependences,
)
from repro.trace.events import Trace
from repro.trace.tracestore import active_trace_store
from repro.vm.interpreter import run_program
from repro.workloads.kernels import KERNELS
from repro.workloads.spec95 import profile_for
from repro.workloads.synthetic import SyntheticProgram

#: Default instruction budget for every workload: synthetic SPEC'95
#: stand-ins generate exactly this many instructions, kernels must run
#: to natural completion within it. The paper simulated ~100M
#: instructions per program; this is our laptop-scale substitute (see
#: DESIGN.md Section 2).
DEFAULT_LENGTH = 30_000

#: Version stamp of everything that determines trace *content*: the
#: synthetic generator, the kernel sources, and the VM's execution
#: semantics. Bump it whenever any of those change observable traces —
#: every persisted trace and memoized dependence analysis is then
#: invalidated (new store address, new provenance key).
GENERATOR_VERSION = "1"

KERNEL_NAMES = tuple(sorted(KERNELS))

#: LRU bound for all catalog memos. A full benchmark suite touches ~18
#: workloads times a couple of (length, seed) variants; 32 keeps that
#: whole working set resident while bounding a long-lived process.
TRACE_CACHE_SIZE = 32

#: Provenance: (canonical name, trace length, seed, generator version).
Provenance = Tuple[str, int, int, str]

_trace_cache: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()
#: series (name, seed) -> (compiled, origin); origin is "precompiled"
#: (placed by :func:`precompile`, pre-fork), "loaded" (trace store) or
#: "compiled" (packed after a local generation).
_compiled_cache: "OrderedDict[Tuple[str, int], Tuple[CompiledTrace, str]]" = (
    OrderedDict()
)
_dep_cache: "OrderedDict[Provenance, Dict[int, DependenceInfo]]" = (
    OrderedDict()
)
_true_dep_cache: "OrderedDict[Provenance, Dict[int, int]]" = OrderedDict()


@dataclass
class TraceStats:
    """Where traces came from, and what acquiring them cost.

    ``trace_wall`` counts seconds spent off the fast path: generating,
    loading, materializing and analysing traces (in-memory memo hits
    are effectively free and not timed).
    """

    #: Generated from scratch (VM run or synthetic generation).
    generated: int = 0
    #: Loaded from the persistent trace store.
    store_hits: int = 0
    #: Served from compiled columns placed by :func:`precompile`
    #: (in a forked worker: inherited copy-on-write from the parent).
    inherited: int = 0
    #: Served from an in-process memo (object or compiled).
    memory_hits: int = 0
    #: Seconds spent acquiring traces and dependence analyses.
    trace_wall: float = 0.0

    def delta(self, earlier: "TraceStats") -> "TraceStats":
        """Counters accumulated since the *earlier* snapshot."""
        return TraceStats(
            generated=self.generated - earlier.generated,
            store_hits=self.store_hits - earlier.store_hits,
            inherited=self.inherited - earlier.inherited,
            memory_hits=self.memory_hits - earlier.memory_hits,
            trace_wall=self.trace_wall - earlier.trace_wall,
        )

    @property
    def source(self) -> Optional[str]:
        """Dominant acquisition source, for telemetry labels."""
        if self.generated:
            return "generated"
        if self.store_hits:
            return "store_hit"
        if self.inherited:
            return "inherited"
        if self.memory_hits:
            return "memory"
        return None


_trace_stats = TraceStats()


def trace_stats() -> TraceStats:
    """A snapshot of the current trace-acquisition counters."""
    return _dc_replace(_trace_stats)


def _canonical_name(name: str) -> str:
    """Series name: kernel names as-is, SPEC stand-ins canonicalized
    (``"126"`` and ``"126.gcc"`` are the same trace series)."""
    if name in KERNELS:
        return name
    return profile_for(name).name


def get_trace(
    name: str, length: int = DEFAULT_LENGTH, seed: int = 0
) -> Trace:
    """Trace for benchmark *name* ('126.gcc', '126', or a kernel name).

    Lookup order: object memo, compiled memo (columns placed by
    :func:`precompile` or a previous call), persistent trace store,
    then actual generation. Freshly generated traces are compiled and
    persisted when a store is active.
    """
    key = (name, length, seed)
    cached = _trace_cache.get(key)
    if cached is not None:
        _trace_cache.move_to_end(key)
        _trace_stats.memory_hits += 1
        return cached

    started = perf_counter()
    canonical = _canonical_name(name)
    series = (canonical, seed)
    trace: Optional[Trace] = None

    entry = _compiled_cache.get(series)
    if entry is not None:
        compiled, origin = entry
        served = _serve(compiled, length)
        if served is not None:
            _compiled_cache.move_to_end(series)
            trace = served.materialize(
                provenance=(canonical, served.length, seed,
                            GENERATOR_VERSION)
            )
            if origin == "precompiled":
                _trace_stats.inherited += 1
            else:
                _trace_stats.memory_hits += 1

    if trace is None:
        store = active_trace_store()
        if store is not None:
            compiled = store.load(canonical, length, seed,
                                  GENERATOR_VERSION)
            if compiled is not None:
                _remember_compiled(series, compiled, "loaded")
                trace = compiled.materialize(
                    provenance=(canonical, compiled.length, seed,
                                GENERATOR_VERSION)
                )
                _trace_stats.store_hits += 1

    if trace is None:
        trace, kind = _generate(canonical, length, seed)
        _trace_stats.generated += 1
        store = active_trace_store()
        if store is not None:
            compiled = _compile_with_dependences(trace, kind, length)
            store.save(compiled, seed, GENERATOR_VERSION)
            _remember_compiled(series, compiled, "compiled")

    _trace_stats.trace_wall += perf_counter() - started
    _trace_cache[key] = trace
    if len(_trace_cache) > TRACE_CACHE_SIZE:
        _trace_cache.popitem(last=False)
    return trace


def get_compiled(
    name: str, length: int = DEFAULT_LENGTH, seed: int = 0
) -> CompiledTrace:
    """Packed columns for benchmark *name* — no ``DynInst`` objects.

    The vector backend's entry point: same three-layer lookup as
    :func:`get_trace` (compiled memo, persistent store, generation) but
    the result stays columnar, so a sweep running on the ``vector``
    backend never materializes an instruction list. The returned trace
    always carries its packed dependence map. The compiled memo stays
    authoritative: a trace served here and one served by
    :func:`get_trace` for the same request come from the same columns.
    """
    started = perf_counter()
    canonical = _canonical_name(name)
    series = (canonical, seed)

    entry = _compiled_cache.get(series)
    if entry is not None:
        compiled, origin = entry
        served = _serve(compiled, length)
        if served is not None:
            _compiled_cache.move_to_end(series)
            if not served.has_dependences:
                served.attach_dependences(
                    _dependence_info_for(served, canonical, seed)
                )
            if origin == "precompiled":
                _trace_stats.inherited += 1
            else:
                _trace_stats.memory_hits += 1
            _trace_stats.trace_wall += perf_counter() - started
            return served

    store = active_trace_store()
    if store is not None:
        compiled = store.load(canonical, length, seed,
                              GENERATOR_VERSION)
        if compiled is not None:
            _remember_compiled(series, compiled, "loaded")
            if not compiled.has_dependences:
                compiled.attach_dependences(
                    _dependence_info_for(compiled, canonical, seed)
                )
            _trace_stats.store_hits += 1
            _trace_stats.trace_wall += perf_counter() - started
            return compiled

    trace, kind = _generate(canonical, length, seed)
    _trace_stats.generated += 1
    compiled = _compile_with_dependences(trace, kind, length)
    if store is not None:
        store.save(compiled, seed, GENERATOR_VERSION)
    _remember_compiled(series, compiled, "compiled")
    _trace_stats.trace_wall += perf_counter() - started
    return compiled


def _generate(canonical: str, length: int, seed: int):
    """Run the generator; returns ``(trace, kind)`` with provenance."""
    if canonical in KERNELS:
        trace = kernel_trace(canonical, max_instructions=length)
        kind = "kernel"
    else:
        profile = profile_for(canonical)
        trace = SyntheticProgram(profile, seed=seed).generate(length)
        kind = "synthetic"
    trace.provenance = (canonical, len(trace), seed, GENERATOR_VERSION)
    return trace, kind


def _serve(compiled: CompiledTrace, length: int) -> Optional[CompiledTrace]:
    """The part of *compiled* answering a request for *length*, if any.

    Kernel entries hold a run to natural completion: they serve any
    budget ≥ that length (regeneration under a smaller budget would
    raise, exactly as uncached). Synthetic entries are prefix-stable:
    a longer entry serves a shorter request by column slicing.
    """
    if compiled.kind == "kernel":
        return compiled if length >= compiled.length else None
    if compiled.length == length:
        return compiled
    if compiled.length > length:
        return compiled.slice_prefix(length)
    return None


def _compile_with_dependences(
    trace: Trace, kind: str, budget: int
) -> CompiledTrace:
    """Pack *trace* with its dependence map (memoizing the analysis)."""
    info = compute_dependence_info(trace)
    prov = trace.provenance
    if prov is not None:
        _memo_put(_dep_cache, prov, info)
    return compile_trace(
        trace, dep_info=info, kind=kind,
        budget=budget if kind == "kernel" else None,
    )


def _remember_compiled(
    series: Tuple[str, int], compiled: CompiledTrace, origin: str
) -> None:
    """Keep the longest compiled entry seen for *series*."""
    entry = _compiled_cache.get(series)
    if entry is not None and entry[0].length >= compiled.length:
        compiled = entry[0]
    _compiled_cache[series] = (compiled, origin)
    _compiled_cache.move_to_end(series)
    if len(_compiled_cache) > TRACE_CACHE_SIZE:
        _compiled_cache.popitem(last=False)


def precompile(
    requests: Iterable[Tuple[str, int]], seed: int = 0
) -> Dict[str, str]:
    """Fill the compiled memo for ``(name, length)`` *requests*.

    Called by the parallel runner **before forking**: workers inherit
    the packed columns copy-on-write and serve every ``get_trace``
    from memory (telemetry source ``inherited``) instead of
    regenerating per process. Entries already compiled, and entries
    found in the persistent store, are re-flagged as precompiled;
    missing ones are generated (and persisted when a store is active).

    Returns ``{name: "memo" | "store" | "generated"}`` describing
    where each series came from. A generation that raises (e.g. a
    kernel that does not fit the requested budget) propagates, so the
    run stops before the fork.
    """
    out: Dict[str, str] = {}
    started = perf_counter()
    for name, length in requests:
        canonical = _canonical_name(name)
        series = (canonical, seed)
        entry = _compiled_cache.get(series)
        if entry is not None and _serve(entry[0], length) is not None:
            if not entry[0].has_dependences:
                entry[0].attach_dependences(
                    _dependence_info_for(entry[0], canonical, seed)
                )
            _compiled_cache[series] = (entry[0], "precompiled")
            out[name] = "memo"
            continue
        store = active_trace_store()
        compiled = (
            store.load(canonical, length, seed, GENERATOR_VERSION)
            if store is not None else None
        )
        if compiled is not None:
            _remember_compiled(series, compiled, "precompiled")
            out[name] = "store"
            _trace_stats.store_hits += 1
            continue
        trace, kind = _generate(canonical, length, seed)
        _trace_stats.generated += 1
        compiled = _compile_with_dependences(trace, kind, length)
        if store is not None:
            store.save(compiled, seed, GENERATOR_VERSION)
        _remember_compiled(series, compiled, "precompiled")
        out[name] = "generated"
    _trace_stats.trace_wall += perf_counter() - started
    return out


def kernel_trace(
    name: str, max_instructions: int = DEFAULT_LENGTH, **kwargs
) -> Trace:
    """Run kernel *name* on the VM and return its trace.

    Kernel parameters (e.g. ``n=...``) pass through to the kernel
    factory. *max_instructions* is a budget, not a truncation length:
    the run raises :class:`~repro.vm.interpreter.ExecutionLimitExceeded`
    if the kernel does not complete within it. The default is the same
    :data:`DEFAULT_LENGTH` that sizes synthetic traces, so kernel and
    synthetic workloads are budgeted consistently.
    """
    if name not in KERNELS:
        raise KeyError(
            f"unknown kernel {name!r}; kernels: {', '.join(KERNEL_NAMES)}"
        )
    source, memory = KERNELS[name](**kwargs)
    return run_program(
        source,
        memory=memory,
        max_instructions=max_instructions,
        name=name,
    )


# -- dependence analyses -----------------------------------------------------


def _memo_put(memo: OrderedDict, key, value) -> None:
    memo[key] = value
    memo.move_to_end(key)
    if len(memo) > TRACE_CACHE_SIZE:
        memo.popitem(last=False)


def _dependence_info_for(
    compiled: CompiledTrace, canonical: str, seed: int
) -> Dict[int, DependenceInfo]:
    """Dependence info for a compiled entry, memoized by provenance."""
    prov = (canonical, compiled.length, seed, GENERATOR_VERSION)
    cached = _dep_cache.get(prov)
    if cached is not None:
        _dep_cache.move_to_end(prov)
        return cached
    info = (
        compiled.dependence_info()
        if compiled.has_dependences
        else compiled.compute_dependence_info()
    )
    _memo_put(_dep_cache, prov, info)
    return info


def get_dependence_info(trace: Trace) -> Dict[int, DependenceInfo]:
    """Memoized :func:`compute_dependence_info` for *trace*.

    Keyed by the trace's provenance; catalog-produced traces share one
    analysis per ``(name, length, seed, generator_version)`` no matter
    how many times the trace object itself is evicted and rebuilt.
    When the analysis was persisted inside a compiled trace file, it
    is decoded from the packed columns instead of recomputed.
    Hand-built traces (no provenance) are computed uncached.
    """
    prov = trace.provenance
    if prov is None:
        return compute_dependence_info(trace)
    cached = _dep_cache.get(prov)
    if cached is not None:
        _dep_cache.move_to_end(prov)
        return cached
    started = perf_counter()
    info: Optional[Dict[int, DependenceInfo]] = None
    entry = _compiled_cache.get((prov[0], prov[2]))
    if entry is not None:
        served = _serve(entry[0], prov[1])
        if served is not None and served.has_dependences:
            info = served.dependence_info()
    if info is None:
        info = compute_dependence_info(trace)
    _memo_put(_dep_cache, prov, info)
    _trace_stats.trace_wall += perf_counter() - started
    return info


def get_dependences(trace: Trace) -> Dict[int, int]:
    """Memoized :func:`compute_true_dependences` for *trace*.

    Derived from :func:`get_dependence_info` (same loads, same
    producing stores), so both analyses share one scan and one memo
    entry per provenance.
    """
    prov = trace.provenance
    if prov is None:
        return compute_true_dependences(trace)
    cached = _true_dep_cache.get(prov)
    if cached is not None:
        _true_dep_cache.move_to_end(prov)
        return cached
    deps = {
        load: info.store_seq
        for load, info in get_dependence_info(trace).items()
    }
    _memo_put(_true_dep_cache, prov, deps)
    return deps


def clear_cache() -> None:
    """Drop all cached traces, compiled columns and dependence memos."""
    _trace_cache.clear()
    _compiled_cache.clear()
    _dep_cache.clear()
    _true_dep_cache.clear()
