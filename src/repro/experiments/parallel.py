"""Multiprocess experiment runner.

The full evaluation is a few hundred (benchmark, configuration) cells;
they are independent, so the matrix parallelises cleanly across
processes. Work is sharded **by benchmark** so each worker generates a
benchmark's trace and dependence analysis once and reuses them across
every configuration — the same locality the in-process cache exploits.

Results are deterministic and identical to the serial runner's (same
seeds, same traces); finished results are folded back into the serial
runner's cache so subsequent figure drivers reuse them. When a
persistent store is active, workers consult and populate it too (the
``fork`` start method carries the active store into each child).

A cell that raises fails the matrix: the error names its benchmark and
config label, the pool is terminated, the telemetry stream ends in
``matrix_abort`` and the exception propagates to the caller. A worker
that dies without raising (killed by a signal) fails it the same way,
with an error saying so. Every
lifecycle step streams to a JSONL **telemetry** file (see
:mod:`repro.experiments.telemetry`) consumed by the
``repro-experiments status`` subcommand and
``tools/compare_runs.py --telemetry``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.config.processor import ProcessorConfig
from repro.core.result import SimResult
from repro.experiments import runner as _runner
from repro.experiments.runner import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
)
from repro.experiments.telemetry import as_writer
from repro.workloads import catalog as _catalog


def _run_benchmark_shard(
    args: Tuple[str, List[Tuple[str, ProcessorConfig]],
                ExperimentSettings, Optional[str]],
) -> Tuple[str, List[Tuple[str, SimResult]], dict]:
    """Worker: one benchmark through every configuration.

    *args* is ``(benchmark, [(label, config), ...], settings,
    backend)``. Returns ``(benchmark, [(label, result), ...], stats)``
    where *stats* carries the worker pid, shard wall time and the cache
    counters this shard accumulated (memory/store hits, simulations).
    A cell that raises is re-raised as a :class:`RuntimeError` naming
    the benchmark and the config label.
    """
    name, labelled_configs, settings, backend = args
    before = _runner.cache_stats()
    traces_before = _catalog.trace_stats()
    started = time.perf_counter()
    results = []
    for label, config in labelled_configs:
        try:
            result = _runner.run_benchmark(name, config, settings, backend)
        except Exception as exc:
            raise RuntimeError(f"cell {name} / {label}: {exc!r}") from exc
        results.append((label, result))
    spent = _runner.cache_stats().delta(before)
    traces = _catalog.trace_stats().delta(traces_before)
    stats = {
        "worker": os.getpid(),
        "wall": time.perf_counter() - started,
        "memory_hits": spent.memory_hits,
        "store_hits": spent.store_hits,
        "simulations": spent.simulations,
        #: Where this shard's trace came from: "generated" (ran the
        #: generator), "store_hit" (persistent trace store),
        #: "inherited" (compiled columns placed pre-fork by
        #: precompile), "memory" (in-process memo), or None (every
        #: result was cached — no trace was needed at all).
        "trace_source": traces.source,
        "trace_wall": traces.trace_wall,
    }
    return name, results, stats


def run_matrix_parallel(
    benchmarks: Iterable[str],
    configs: Mapping[str, ProcessorConfig],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    **options,
) -> Dict[str, Dict[str, SimResult]]:
    """Parallel :func:`repro.experiments.runner.run_matrix`: every
    config crossed with every benchmark, through
    :func:`run_cells_parallel` (which takes the same *options*).

    Returns ``{config_label: {benchmark: SimResult}}``. With
    ``workers=1`` (or a single benchmark) the cells run in this
    process without spawning any.
    """
    labelled = list(configs.items())
    return run_cells_parallel(
        {name: labelled for name in benchmarks}, settings, workers,
        **options,
    )[0]


def run_cells_parallel(
    cells: Mapping[str, List[Tuple[str, ProcessorConfig]]],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    *,
    telemetry=None,
    backend: Optional[str] = None,
) -> Tuple[Dict[str, Dict[str, SimResult]], Dict[str, float]]:
    """Simulate *cells* (``{benchmark: [(label, config), ...]}``) over a
    fork pool of *workers* processes, one shard per benchmark.

    Returns ``({config_label: {benchmark: SimResult}}, totals)``, where
    *totals* sums the shards' ``memory_hits``, ``store_hits``,
    ``simulations`` and ``trace_wall``, as ``matrix_finish`` does. With
    ``workers=1`` (or a single benchmark) the shards run in this
    process, one after another, without spawning any.

    With a pool, every benchmark's trace is compiled into packed
    columns **before** the fork: workers inherit the buffers
    copy-on-write and serve ``get_trace`` from memory instead of
    regenerating per process. When a persistent
    trace store is active (:func:`repro.trace.tracestore.set_trace_store`
    or ``$REPRO_TRACE_STORE``), precompilation loads from and populates
    it. A trace that cannot be generated stops the run before the fork.

    A cell that raises stops the matrix: the pool is terminated and
    the error, which names the cell's benchmark and config label,
    propagates. *telemetry* is a
    :class:`~repro.experiments.telemetry.TelemetryWriter` or a JSONL
    path receiving the structured event stream; an interrupted or
    failed run ends it with ``matrix_abort``. *backend* names the
    simulator backend forwarded to every cell; the resolved name is
    recorded in the ``matrix_start`` telemetry event and on each fresh
    result's ``extra["backend"]``.
    """
    from repro.core.backend import resolve_backend

    shards = {name: list(labelled) for name, labelled in cells.items()}
    if workers is None:
        workers = min(len(shards), multiprocessing.cpu_count())
    pooled = workers > 1 and len(shards) > 1
    out: Dict[str, Dict[str, SimResult]] = {
        label: {} for labelled in shards.values() for label, _ in labelled
    }
    #: Cache counters summed over every finished shard. Pooled shards
    #: simulate in child processes, so the parent's own counters never
    #: see them — the per-shard stats do.
    totals = {
        "memory_hits": 0, "store_hits": 0, "simulations": 0,
        "trace_wall": 0.0,
    }
    done = 0

    writer, owned = as_writer(telemetry)
    started = time.perf_counter()
    writer.emit(
        "matrix_start",
        mode="parallel" if pooled else "serial",
        backend=resolve_backend(backend),
        benchmarks=len(shards),
        configs=len(out),
        points=sum(len(labelled) for labelled in shards.values()),
        workers=workers,
    )
    pool = None
    try:
        try:
            if pooled:
                _precompile(shards, settings, writer)
            for name, labelled in shards.items():
                writer.emit(
                    "shard_start",
                    benchmark=name,
                    configs=[label for label, _ in labelled],
                )
            args = [
                (name, labelled, settings, backend)
                for name, labelled in shards.items()
            ]
            if pooled:
                pool = multiprocessing.get_context("fork").Pool(workers)
                finished = _watched(
                    pool, pool.imap_unordered(_run_benchmark_shard, args)
                )
            else:
                finished = map(_run_benchmark_shard, args)
            for name, results, stats in finished:
                configs = dict(shards[name])
                for label, result in results:
                    out[label][name] = result
                    # Seed the serial cache so later drivers reuse this.
                    _runner._remember(
                        (name, settings, _runner._config_key(configs[label])),
                        result,
                    )
                for key in totals:
                    totals[key] += stats[key]
                done += 1
                writer.emit(
                    "shard_finish",
                    benchmark=name,
                    configs=list(configs),
                    points=len(results),
                    **stats,
                )
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
    except BaseException as exc:
        # Record why the stream stops, then re-raise: a post-crash
        # reader sees the failing cell, or the interrupt.
        writer.emit(
            "matrix_abort",
            reason=type(exc).__name__,
            error=str(exc),
            wall=time.perf_counter() - started,
            shards_done=done,
            **totals,
        )
        raise
    else:
        writer.emit(
            "matrix_finish", wall=time.perf_counter() - started, **totals
        )
    finally:
        if owned:
            writer.close()
    return out, totals


def _watched(pool, results):
    """Yield from *results*, an iterator over *pool*'s tasks; raise once
    a worker of *pool* has died.

    The pool replaces a worker killed by a signal (the OOM killer, a
    segfault) but never yields its shard, so waiting on *results* alone
    would hang. Workers exit only when the pool is terminated.
    """
    workers = list(pool._pool)
    while True:
        try:
            yield results.next(timeout=0.1)
        except StopIteration:
            return
        except multiprocessing.TimeoutError:
            for worker in workers:
                if worker.exitcode is not None:
                    raise RuntimeError(
                        f"pool worker {worker.pid} died with exit code "
                        f"{worker.exitcode}; its shard was lost"
                    ) from None


def _precompile(shards, settings: ExperimentSettings, writer) -> None:
    """Compile every shard's trace in this process, before the fork."""
    started = time.perf_counter()
    sources = _catalog.precompile(
        ((name, _runner._plan_for(name, settings).length)
         for name in shards),
        seed=settings.seed,
    )
    counts: Dict[str, int] = {}
    for source in sources.values():
        counts[source] = counts.get(source, 0) + 1
    writer.emit(
        "trace_precompile",
        benchmarks=len(sources),
        wall=time.perf_counter() - started,
        **counts,
    )
