"""Shared experiment runner with result caching.

Methodology (DESIGN.md Section 2): every (benchmark, configuration) run
simulates the same deterministic trace; the first ``warmup`` dynamic
instructions run functionally (caches and branch predictors learn —
the paper's sampling methodology), the remaining ``timing`` instructions
run through the detailed timing model.

Results are memoized at two levels. An in-process dict means figure
drivers sharing configurations (most share the NAS/NO and NAS/NAV
baselines) never simulate the same point twice within one interpreter.
When a persistent store is active (:mod:`repro.experiments.store`),
results also survive across processes — a warm CI run or a second CLI
invocation re-simulates nothing. :func:`cache_stats` counts where each
result came from; the parallel runner folds those counters into its
telemetry stream.

Observation is a property of the request, not of the cell: observing
never perturbs timing, so an observed result (``extra["observe"]``)
also serves a plain request, as a copy without that key. A caller
that knows which cells will later be requested observed announces
them with :func:`observe_planned`, and the first request for such a
cell simulates it observed, once.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace as _dc_replace
from typing import (
    Dict, Iterable, Iterator, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.config.presets import config_name
from repro.config.processor import ProcessorConfig
from repro.core.backend import resolve_backend, vector_limitation
from repro.core.processor import Processor
from repro.core.result import SimResult
from repro.splitwindow.processor import SplitWindowProcessor
from repro.trace.sampling import SamplingPlan, Segment, parse_ratio
from repro.workloads.catalog import (
    get_compiled,
    get_dependence_info,
    get_trace,
)
from repro.workloads.spec95 import profile_for


@dataclass(frozen=True)
class ExperimentSettings:
    """Run lengths for the scaled-down reproduction.

    With ``paper_sampling`` enabled, the region after warm-up is split
    into alternating timing/functional intervals according to each
    benchmark's Table 1 "SR" ratio (e.g. 104.hydro2d's "1:10"), scaled
    to ``observation``-sized windows — the paper's Section 3.1
    methodology in miniature. The trace is lengthened so the *timed*
    instruction count stays ``timing_instructions``.
    """

    timing_instructions: int = 16_000
    warmup_instructions: int = 10_000
    seed: int = 0
    paper_sampling: bool = False
    observation: int = 2_000

    def __post_init__(self) -> None:
        for name, least in (
            ("timing_instructions", 1),
            ("warmup_instructions", 0),
            ("observation", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(
                    f"{name} must be at least {least}, got {value}"
                )

    @property
    def trace_length(self) -> int:
        return self.timing_instructions + self.warmup_instructions


#: Default settings; ``quick()`` for test-suite-sized runs.
DEFAULT_SETTINGS = ExperimentSettings()


def quick_settings() -> ExperimentSettings:
    """Short runs for smoke tests (shapes hold, noisier values)."""
    return ExperimentSettings(
        timing_instructions=6_000, warmup_instructions=4_000
    )


_result_cache: Dict[Tuple, SimResult] = {}
#: Cell keys that some request of the current plan will observe (see
#: :func:`observe_planned`); a plain request for one simulates it
#: observed.
_observe_plan: Set[Tuple] = set()


@dataclass
class CacheStats:
    """Where results came from since the last :func:`clear_results`."""

    #: Served from the in-process memo.
    memory_hits: int = 0
    #: Restored from the persistent on-disk store.
    store_hits: int = 0
    #: Actually simulated (cache misses everywhere).
    simulations: int = 0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since the *earlier* snapshot."""
        return CacheStats(
            memory_hits=self.memory_hits - earlier.memory_hits,
            store_hits=self.store_hits - earlier.store_hits,
            simulations=self.simulations - earlier.simulations,
        )


_cache_stats = CacheStats()


def cache_stats() -> CacheStats:
    """A snapshot of the current cache counters."""
    return _dc_replace(_cache_stats)


def clear_results() -> None:
    """Drop every cached simulation result, the observation plan and
    the cache counters."""
    _result_cache.clear()
    _observe_plan.clear()
    _cache_stats.memory_hits = 0
    _cache_stats.store_hits = 0
    _cache_stats.simulations = 0


def _fixed_parts(config: ProcessorConfig) -> Tuple:
    """The parts of *config* that every preset leaves at Table 2."""
    return (
        config.fetch, config.branch, config.icache, config.dcache,
        config.l2, config.main_memory, config.latencies,
        config.branch_redirect_penalty,
    )


_TABLE2_FIXED = _fixed_parts(ProcessorConfig())


def _config_key(config: ProcessorConfig) -> Tuple:
    """What identifies a cell's machine, in the memo and in the store:
    every field of *config* but ``observe`` and ``backend``.

    The parts the presets vary are listed field by field. The fixed
    parts add one string only where they differ from Table 2, so every
    config the artifacts build keys by this tuple alone.
    """
    memdep = config.memdep
    key = (
        config_name(config),
        config.window.size,
        config.window.issue_width,
        config.window.memory_ports,
        config.window.fu_copies,
        memdep.flush_interval,
        memdep.recovery,
        memdep.predictor_entries,
        memdep.predictor_assoc,
        memdep.confidence_threshold,
        memdep.lfst_entries,
        memdep.squash_refill_penalty,
        config.split.enabled,
        config.split.num_units,
        config.split.task_size,
        # Fabric knobs change timing, so they must be part of the key —
        # omitting them made every point of a fabric sweep collide on
        # the same store entry (fixed with SCHEMA_VERSION 3).
        config.split.link_latency,
        config.split.sync_bandwidth,
        config.split.mem_banks,
        config.split.bank_ports,
    )
    fixed = _fixed_parts(config)
    if fixed != _TABLE2_FIXED:
        key += (repr(fixed),)
    return key


@dataclass(frozen=True)
class Cells:
    """The cells an artifact requests: every config crossed with every
    benchmark. *configs* maps the artifact's own labels to configs."""

    configs: Mapping[object, ProcessorConfig]
    benchmarks: Sequence[str]


def plan_cells(
    declarations: Iterable[Cells], settings: ExperimentSettings
) -> Dict[Tuple, ProcessorConfig]:
    """The distinct cells of *declarations*, keyed like the memo.

    Each cell maps to the config to simulate it under: an observed one
    if any declaration requests the cell observed.
    """
    cells: Dict[Tuple, ProcessorConfig] = {}
    for declared in declarations:
        for config in declared.configs.values():
            config_key = _config_key(config)
            for name in declared.benchmarks:
                key = (name, settings, config_key)
                if config.observe or key not in cells:
                    cells[key] = config
    return cells


@contextmanager
def observe_planned(
    cells: Mapping[Tuple, ProcessorConfig],
) -> Iterator[None]:
    """Within the block, simulate the observed cells of *cells* (from
    :func:`plan_cells`) observed even when a plain request comes first.
    """
    _observe_plan.update(key for key, config in cells.items()
                         if config.observe)
    try:
        yield
    finally:
        _observe_plan.clear()


def _serves(result: Optional[SimResult], observe: bool) -> bool:
    return result is not None and (not observe or "observe" in result.extra)


def _as_requested(result: SimResult, observe: bool) -> SimResult:
    """*result* for a request, stripped of its observation when the
    request is plain; the held result is never modified."""
    if observe or "observe" not in result.extra:
        return result
    extra = {k: v for k, v in result.extra.items() if k != "observe"}
    return _dc_replace(result, extra=extra)


def _remember(key: Tuple, result: SimResult) -> None:
    """Memoize *result*, never replacing an observed result with a
    plain one."""
    held = _result_cache.get(key)
    if held is None or "observe" not in held.extra or "observe" in result.extra:
        _result_cache[key] = result


def run_benchmark(
    name: str,
    config: ProcessorConfig,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    backend: Optional[str] = None,
) -> SimResult:
    """Simulate one (benchmark, config) point, with caching.

    Lookup order: in-process memo, then the persistent store (if one
    is active — see :func:`repro.experiments.store.set_store`), then
    an actual simulation. Fresh simulations populate both layers.

    *backend* selects the continuous-window core (precedence:
    argument > ``config.backend`` > ``$REPRO_BACKEND`` >
    ``"reference"``). Backends are bit-identical, so cache keys ignore
    the choice — a result produced by either backend satisfies both;
    fresh results record their producer in ``extra["backend"]``. Split
    configs always run on the split-window machine (``"split"``).

    ``config.observe`` is not part of the key. An observed result
    serves a plain request, without ``extra["observe"]``; an observed
    request that finds only a plain result simulates again, observed,
    and the observed result replaces the plain one in both layers.
    """
    from repro.experiments.store import active_store

    backend_name = resolve_backend(backend, config)
    config_key = _config_key(config)
    key = (name, settings, config_key)
    observe = config.observe
    cached = _result_cache.get(key)
    if _serves(cached, observe):
        _cache_stats.memory_hits += 1
        return _as_requested(cached, observe)
    store = active_store()
    if store is not None:
        restored = store.load(name, settings, config_key)
        if _serves(restored, observe):
            _cache_stats.store_hits += 1
            _result_cache[key] = restored
            return _as_requested(restored, observe)
    if not observe and key in _observe_plan:
        config = _dc_replace(config, observe=True)
    try:
        backend_name, result = _simulate(name, config, settings, backend_name)
    except BaseException as exc:
        # Name the cell and re-raise unchanged: callers match on the
        # exception's type, and a serial run has no other record of
        # which cell failed.
        _note_cell(exc, f"{name} / {config.label}")
        raise
    result.extra["backend"] = backend_name
    _cache_stats.simulations += 1
    _result_cache[key] = result
    if store is not None:
        store.save(name, settings, config_key, result)
    return _as_requested(result, observe)


def _simulate(
    name: str,
    config: ProcessorConfig,
    settings: ExperimentSettings,
    backend_name: str,
) -> Tuple[str, SimResult]:
    """Simulate one cell; returns the backend that ran it and the result."""
    plan = _plan_for(name, settings)
    if config.split.enabled:
        # The split-window model has no functional-warm mode; its caches
        # warm during the run, and comparisons against it use the same
        # treatment on both sides.
        trace = get_trace(name, plan.length, settings.seed)
        info = _dependences_for_length(
            name, plan.length, settings.seed, trace=trace
        )
        return "split", SplitWindowProcessor(config, trace, info).run()
    if backend_name == "vector" and vector_limitation(config) is None:
        from repro.core.vector import VectorProcessor

        compiled = get_compiled(name, plan.length, settings.seed)
        return "vector", VectorProcessor(config, compiled).run(plan)
    trace = get_trace(name, plan.length, settings.seed)
    info = _dependences_for_length(
        name, plan.length, settings.seed, trace=trace
    )
    return "reference", Processor(config, trace, info).run(plan)


#: How :func:`run_benchmark` names a failing cell in the exception's
#: notes: ``cell BENCH / LABEL``, the form ``--parallel`` prints.
_CELL_NOTE = "cell "


def _note_cell(exc: BaseException, cell: str) -> None:
    note = _CELL_NOTE + cell
    if sys.version_info >= (3, 11):
        exc.add_note(note)
    else:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def pop_cell_note(exc: BaseException) -> Optional[str]:
    """Take :func:`run_benchmark`'s ``cell BENCH / LABEL`` note off
    *exc* and return ``BENCH / LABEL``; None if *exc* has no such note.
    """
    notes = getattr(exc, "__notes__", None) or []
    for note in notes:
        if isinstance(note, str) and note.startswith(_CELL_NOTE):
            notes.remove(note)
            if not notes:
                del exc.__notes__
            return note[len(_CELL_NOTE):]
    return None


def _dependences_for_length(name: str, length: int, seed: int, trace=None):
    """Dependence analysis via the catalog's provenance-keyed memo.

    Pass *trace* when already in hand so a catalog-cache miss does not
    regenerate it. The analysis is memoized by the trace's provenance
    ``(name, length, seed, generator_version)`` — and when the trace
    came from the persistent store, decoded from the packed dependence
    columns instead of recomputed.
    """
    if trace is None:
        trace = get_trace(name, length, seed)
    return get_dependence_info(trace)


def _plan_for(name: str, settings: ExperimentSettings) -> SamplingPlan:
    """Warm-up segment plus the timed region (optionally SR-sampled)."""
    warm = settings.warmup_instructions
    if not settings.paper_sampling:
        length = settings.trace_length
        segments = []
        if warm:
            segments.append(Segment(0, warm, timing=False))
        segments.append(Segment(warm, length, timing=True))
        return SamplingPlan(tuple(segments), length)

    # Paper-style: alternate timing/functional per the benchmark's
    # Table 1 ratio so that exactly `timing_instructions` are timed.
    try:
        ratio_text = profile_for(name).sampling_ratio
    except KeyError:
        ratio_text = None
    timing_ratio, functional_ratio = parse_ratio(ratio_text)
    observation = settings.observation
    segments = []
    if warm:
        segments.append(Segment(0, warm, timing=False))
    pos = warm
    timed = 0
    while timed < settings.timing_instructions:
        span = min(
            observation * timing_ratio,
            settings.timing_instructions - timed,
        )
        segments.append(Segment(pos, pos + span, timing=True))
        pos += span
        timed += span
        if functional_ratio and timed < settings.timing_instructions:
            func = observation * functional_ratio
            segments.append(Segment(pos, pos + func, timing=False))
            pos += func
    return SamplingPlan(tuple(segments), pos)


def run_benchmark_seeds(
    name: str,
    config: ProcessorConfig,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    seeds: Tuple[int, ...] = (0, 1, 2),
    backend: Optional[str] = None,
) -> list:
    """One (benchmark, config) point across several workload seeds.

    Each seed generates a statistically-identical but distinct trace;
    the spread of the returned results bounds workload-generation noise
    (see :func:`repro.stats.summary.mean_and_spread`).
    """
    extra = {} if backend is None else {"backend": backend}
    results = []
    for seed in seeds:
        seeded = _dc_replace(settings, seed=seed)
        results.append(run_benchmark(name, config, seeded, **extra))
    return results


def run_matrix(
    benchmarks: Iterable[str],
    configs: Mapping[str, ProcessorConfig],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    telemetry=None,
    backend: Optional[str] = None,
) -> Dict[str, Dict[str, SimResult]]:
    """Results for every (benchmark, config) pair.

    Returns ``{config_label: {benchmark: SimResult}}``. This is the
    one-worker case of
    :func:`repro.experiments.parallel.run_matrix_parallel`: the cells
    run in this process, and *telemetry* (an
    :class:`~repro.experiments.telemetry.TelemetryWriter` or a path)
    gets the same event stream. *backend* is forwarded to every
    :func:`run_benchmark` cell.
    """
    from repro.experiments.parallel import run_matrix_parallel

    return run_matrix_parallel(
        benchmarks, configs, settings, workers=1,
        telemetry=telemetry, backend=backend,
    )
