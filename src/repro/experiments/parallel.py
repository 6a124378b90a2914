"""Fault-tolerant multiprocess experiment runner.

The full evaluation is ~250 (benchmark, configuration) points; they are
independent, so the matrix parallelises cleanly across processes. Work
is sharded **by benchmark** so each worker generates a benchmark's
trace and dependence analysis once and reuses them across every
configuration — the same locality the in-process cache exploits.

Results are deterministic and identical to the serial runner's (same
seeds, same traces); finished results are folded back into the serial
runner's cache so subsequent figure drivers reuse them. When a
persistent store is active, workers consult and populate it too (the
``fork`` start method carries the active store into each child).

Fault tolerance (this is a long-running harness — a single wedged or
crashed worker must not cost the whole matrix):

* Each shard may be given a wall-clock **timeout** measured from
  submission; a shard that never reports back (e.g. its worker was
  OOM-killed) is abandoned and rescheduled.
* Failed or timed-out shards are **retried** up to ``retries`` times
  with exponential backoff before being declared dead; dead shards are
  dropped from the returned matrix while every surviving shard's
  results are kept.
* If the pool itself cannot be created or dies mid-run, the remaining
  shards **degrade to serial** execution in the parent process.
* Every lifecycle step streams to a JSONL **telemetry** file (see
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

#: Scheduler poll interval while waiting on in-flight shards.
_POLL_SECONDS = 0.01


def _run_benchmark_shard(
    args: Tuple[str, List[Tuple[str, ProcessorConfig]],
                ExperimentSettings],
) -> Tuple[str, List[Tuple[str, SimResult]], dict]:
    """Worker: one benchmark through every configuration.

    Returns ``(benchmark, [(label, result), ...], stats)`` where
    *stats* carries the worker pid, shard wall time and the cache
    counters this shard accumulated (memory/store hits, simulations).
    The optional fourth tuple element names the simulator backend
    (older three-element tuples still work).
    """
    name, labelled_configs, settings = args[:3]
    backend = args[3] if len(args) > 3 else None
    before = _runner.cache_stats()
    traces_before = _catalog.trace_stats()
    started = time.perf_counter()
    results = []
    for label, config in labelled_configs:
        results.append(
            (label,
             _runner.run_benchmark(name, config, settings, backend))
        )
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


def _make_pool(workers: int):
    """A fork-context pool (patchable seam for pool-death tests)."""
    return multiprocessing.get_context("fork").Pool(processes=workers)


class _MatrixRun:
    """One matrix execution: scheduling state + telemetry plumbing."""

    def __init__(
        self,
        shards: Dict[str, List[Tuple[str, ProcessorConfig]]],
        settings: ExperimentSettings,
        writer,
        shard_timeout: Optional[float],
        retries: int,
        retry_backoff: float,
        backend: Optional[str] = None,
    ) -> None:
        #: benchmark -> the (label, config) cells its shard runs.
        self.shards = shards
        self.benchmarks = list(shards)
        self.backend = backend
        self.settings = settings
        self.writer = writer
        self.shard_timeout = shard_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.out: Dict[str, Dict[str, SimResult]] = {
            label: {} for cells in shards.values() for label, _ in cells
        }
        self.attempts: Dict[str, int] = {name: 0 for name in shards}
        self.failed: List[str] = []
        #: Cache counters summed over every finished shard. Pooled
        #: shards simulate in child processes, so the parent's own
        #: counters never see them — the per-shard stats do.
        self.totals = {
            "memory_hits": 0, "store_hits": 0, "simulations": 0,
            "trace_wall": 0.0,
        }

    def _labels(self, name: str) -> List[str]:
        """The config labels of *name*'s shard. Every telemetry record
        carries them with the benchmark (the shard's full cell key), so
        JSONL traces can be joined with result-store entries even on
        the retry/timeout/error paths."""
        return [label for label, _ in self.shards[name]]

    def _args(self, name: str) -> tuple:
        return (name, self.shards[name], self.settings, self.backend)

    # -- result folding ------------------------------------------------------

    def _fold(
        self,
        name: str,
        shard: List[Tuple[str, SimResult]],
        stats: dict,
        mode: str,
    ) -> None:
        configs = dict(self.shards[name])
        for label, result in shard:
            self.out[label][name] = result
            # Seed the serial cache so later drivers reuse this.
            key = (name, self.settings, _runner._config_key(configs[label]))
            _runner._remember(key, result)
        for key in self.totals:
            value = stats.get(key, 0) or 0
            self.totals[key] += (
                float(value) if key == "trace_wall" else int(value)
            )
        self.writer.emit(
            "shard_finish",
            benchmark=name,
            configs=self._labels(name),
            attempt=self.attempts[name],
            mode=mode,
            points=len(shard),
            **stats,
        )

    def _run_serial_shard(self, name: str) -> None:
        """In-process execution of one shard (fallback path)."""
        self.attempts[name] += 1
        self.writer.emit(
            "shard_start",
            benchmark=name,
            configs=self._labels(name),
            attempt=self.attempts[name],
            mode="serial",
        )
        try:
            _, shard, stats = _run_benchmark_shard(self._args(name))
        except Exception as exc:
            self.failed.append(name)
            self.writer.emit(
                "shard_failed",
                benchmark=name,
                configs=self._labels(name),
                attempt=self.attempts[name],
                mode="serial",
                error=repr(exc),
            )
            return
        self._fold(name, shard, stats, mode="serial")

    def run_serial(self, names: Iterable[str]) -> None:
        for name in names:
            self._run_serial_shard(name)

    # -- parallel scheduling -------------------------------------------------

    def run_parallel(self, workers: int) -> None:
        """Pooled execution with timeout/retry; may degrade to serial."""
        try:
            pool = _make_pool(workers)
        except Exception as exc:
            self.writer.emit(
                "serial_fallback", reason=f"pool creation: {exc!r}"
            )
            self.run_serial(self.benchmarks)
            return

        pending: List[str] = list(self.benchmarks)
        #: benchmark -> (AsyncResult, deadline or None)
        active: Dict[str, Tuple[object, Optional[float]]] = {}
        # ``with pool`` terminates outstanding workers on exit, so an
        # abandoned (timed-out) shard cannot outlive this call. The
        # explicit join below extends that to interrupts: a
        # KeyboardInterrupt/SIGTERM mid-matrix must not leave orphan
        # workers behind the raised exception.
        try:
            with pool:
                while pending or active:
                    abandoned = self._submit(pool, pending, active)
                    if abandoned:
                        # Pool died while submitting: drain what is
                        # still in flight, then go serial.
                        remaining = abandoned + self._drain(active)
                        self.writer.emit(
                            "serial_fallback", reason="pool died"
                        )
                        self.run_serial(remaining)
                        return
                    self._poll(pending, active)
                    if pending or active:
                        time.sleep(_POLL_SECONDS)
        finally:
            pool.join()

    def _submit(self, pool, pending: List[str], active) -> List[str]:
        """Launch pending shards; returns shards orphaned by pool death."""
        while pending:
            name = pending.pop(0)
            self.attempts[name] += 1
            self.writer.emit(
                "shard_start",
                benchmark=name,
                configs=self._labels(name),
                attempt=self.attempts[name],
                mode="pool",
            )
            try:
                handle = pool.apply_async(
                    _run_benchmark_shard, (self._args(name),)
                )
            except Exception:
                return [name] + pending
            deadline = (
                time.monotonic() + self.shard_timeout
                if self.shard_timeout else None
            )
            active[name] = (handle, deadline)
        return []

    def _drain(self, active) -> List[str]:
        """Collect whatever finished; return the rest for serial."""
        leftovers = []
        for name, (handle, _deadline) in list(active.items()):
            collected = False
            if handle.ready():
                try:
                    _, shard, stats = handle.get()
                    self._fold(name, shard, stats, mode="pool")
                    collected = True
                except Exception:
                    pass
            if not collected:
                leftovers.append(name)
        active.clear()
        return leftovers

    def _poll(self, pending: List[str], active) -> None:
        now = time.monotonic()
        for name in list(active):
            handle, deadline = active[name]
            if handle.ready():
                del active[name]
                try:
                    _, shard, stats = handle.get()
                except Exception as exc:
                    self.writer.emit(
                        "shard_error",
                        benchmark=name,
                        configs=self._labels(name),
                        attempt=self.attempts[name],
                        mode="pool",
                        error=repr(exc),
                    )
                    self._retry_or_fail(name, pending)
                    continue
                self._fold(name, shard, stats, mode="pool")
            elif deadline is not None and now > deadline:
                # Abandon the in-flight call (its worker may be hung
                # or dead); the pool context cleans it up on exit.
                del active[name]
                self.writer.emit(
                    "shard_timeout",
                    benchmark=name,
                    configs=self._labels(name),
                    attempt=self.attempts[name],
                    mode="pool",
                    timeout=self.shard_timeout,
                )
                self._retry_or_fail(name, pending)

    def _retry_or_fail(self, name: str, pending: List[str]) -> None:
        if self.attempts[name] <= self.retries:
            delay = self.retry_backoff * (
                2 ** (self.attempts[name] - 1)
            )
            self.writer.emit(
                "shard_retry",
                benchmark=name,
                configs=self._labels(name),
                attempt=self.attempts[name] + 1,
                mode="pool",
                delay=delay,
            )
            if delay:
                time.sleep(delay)
            pending.append(name)
        else:
            self.failed.append(name)
            self.writer.emit(
                "shard_failed",
                benchmark=name,
                configs=self._labels(name),
                attempt=self.attempts[name],
                mode="pool",
                error="retries exhausted",
            )


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
    ``workers=1`` (or a single benchmark) this degrades to the serial
    path without spawning processes.
    """
    labelled = list(configs.items())
    return run_cells_parallel(
        {name: labelled for name in benchmarks}, settings, workers,
        **options,
    )


def run_cells_parallel(
    cells: Mapping[str, List[Tuple[str, ProcessorConfig]]],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    *,
    shard_timeout: Optional[float] = None,
    retries: int = 2,
    retry_backoff: float = 0.1,
    telemetry=None,
    precompile: bool = True,
    backend: Optional[str] = None,
) -> Dict[str, Dict[str, SimResult]]:
    """Simulate *cells* (``{benchmark: [(label, config), ...]}``) over a
    process pool, one shard per benchmark.

    Returns ``{config_label: {benchmark: SimResult}}``. With
    ``workers=1`` (or a single benchmark) this degrades to the serial
    path without spawning processes.

    With *precompile* (the default on the pooled path), every
    benchmark's trace is compiled into packed columns **before** the
    pool forks: workers inherit the buffers copy-on-write and serve
    ``get_trace`` from memory instead of regenerating per process —
    and because shards are keyed by benchmark name (never pickled
    traces), the retry and serial-fallback paths reuse the same
    compiled entries. When a persistent trace store is active
    (:func:`repro.trace.tracestore.set_trace_store` or
    ``$REPRO_TRACE_STORE``), precompilation loads from and populates
    it.

    *shard_timeout* bounds each shard's wall-clock time, measured from
    submission (``None`` disables). Failed or timed-out shards are
    retried up to *retries* times with exponential backoff starting at
    *retry_backoff* seconds; shards that still fail are omitted from
    the result while all surviving shards are returned. *telemetry* is
    a :class:`~repro.experiments.telemetry.TelemetryWriter` or a JSONL
    path receiving the structured event stream. *backend* names the
    simulator backend forwarded to every cell (workers inherit it
    through the shard tuple, so pool, retry and serial-fallback paths
    all use the same core); the resolved name is recorded in the
    ``matrix_start`` telemetry event and on each fresh result's
    ``extra["backend"]``.
    """
    from repro.core.backend import resolve_backend

    shards = {name: list(labelled) for name, labelled in cells.items()}
    benchmarks = list(shards)
    if workers is None:
        workers = min(len(benchmarks), multiprocessing.cpu_count())
    workers = max(1, workers)

    writer, owned = as_writer(telemetry)
    run = _MatrixRun(
        shards, settings, writer,
        shard_timeout, retries, retry_backoff, backend,
    )
    started = time.perf_counter()
    parallel_path = workers > 1 and len(benchmarks) > 1
    writer.emit(
        "matrix_start",
        mode="parallel" if parallel_path else "serial",
        backend=resolve_backend(backend),
        benchmarks=len(benchmarks),
        configs=len(run.out),
        points=sum(len(labelled) for labelled in shards.values()),
        workers=workers,
    )
    aborted = False
    try:
        if parallel_path and precompile:
            precompile_started = time.perf_counter()
            sources = _catalog.precompile(
                ((name, _runner._plan_for(name, settings).length)
                 for name in benchmarks),
                seed=settings.seed,
            )
            counts: Dict[str, int] = {}
            for source in sources.values():
                counts[source] = counts.get(source, 0) + 1
            writer.emit(
                "trace_precompile",
                benchmarks=len(sources),
                wall=time.perf_counter() - precompile_started,
                **counts,
            )
        if workers == 1 or len(benchmarks) <= 1:
            run.run_serial(benchmarks)
        else:
            run.run_parallel(workers)
    except (KeyboardInterrupt, SystemExit) as exc:
        # Interrupted mid-matrix (Ctrl-C, SIGTERM via SystemExit):
        # the pool context + join above already reaped every worker;
        # record the abort as a final telemetry event so a post-crash
        # reader sees *why* the stream stops, then re-raise.
        aborted = True
        done = len(
            {name for cells in run.out.values() for name in cells}
        )
        writer.emit(
            "matrix_abort",
            reason=type(exc).__name__,
            wall=time.perf_counter() - started,
            shards_done=done,
            shards_failed=len(run.failed),
            **run.totals,
        )
        raise
    finally:
        if not aborted:
            writer.emit(
                "matrix_finish",
                wall=time.perf_counter() - started,
                shards_ok=len(benchmarks) - len(run.failed),
                shards_failed=len(run.failed),
                failed=list(run.failed),
                **run.totals,
            )
        if owned:
            writer.close()
    return run.out
