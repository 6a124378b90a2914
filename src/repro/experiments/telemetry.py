"""Structured JSONL telemetry for experiment runs.

Every long-running harness entry point (the matrix runner of
:mod:`repro.experiments.parallel`, which ``run_matrix`` also uses, and
the CLI artifact loop) can stream one JSON object per line into a
telemetry file. Each event carries at least:

``event``
    The event name: ``matrix_start``, ``trace_precompile``,
    ``shard_start``, ``shard_finish``, ``matrix_finish``
    (``matrix_abort`` when a cell raises, a worker dies or the run is
    interrupted), ``artifact_start``, ``artifact_finish``
    (``artifact_abort`` when an artifact raises or is interrupted).
``ts``
    Unix timestamp (``time.time()``) when the event was emitted.

Shard events add ``benchmark`` and ``configs`` (the config labels of
the shard) and — on ``shard_finish`` — ``wall`` (seconds), ``worker``
(pid), the cache counters ``memory_hits`` / ``store_hits`` /
``simulations``, and the trace acquisition split for that shard:
``trace_source`` (``generated`` / ``store_hit`` / ``inherited`` /
``memory`` / null) and ``trace_wall`` (seconds spent producing or
loading traces and dependence analyses). ``matrix_finish`` carries the
same counters aggregated over the whole matrix, which is how "a warm
re-run performed zero re-simulations" is verified mechanically;
``matrix_abort`` carries them so far, with ``reason`` (the exception
type) and ``error`` (its message, which names a failing cell);
``artifact_abort`` carries ``artifact``, ``reason``, ``error`` and
``cell`` (``BENCH / LABEL`` when a simulation raised, else null). The
pooled runner additionally emits one ``trace_precompile`` event before
forking, counting how many benchmark traces came from the in-process
memo, the persistent trace store, or fresh generation.

The format is append-only and line-oriented so a crashed run leaves a
readable prefix; :func:`read_telemetry` skips any torn final line.
``repro-experiments status`` and ``tools/compare_runs.py --telemetry``
both consume it.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Iterable, List, Optional, Tuple, Union

from repro.stats.summary import percentile


class TelemetryWriter:
    """Append-only JSONL event writer.

    With ``path=None`` every :meth:`emit` is a no-op, so callers can
    thread one writer through unconditionally. Lines are flushed as
    they are written: a concurrently-running ``status`` command (or a
    post-crash reader) always sees complete events.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]]) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._handle: Optional[IO[str]] = None
        if self.path is not None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")

    @property
    def enabled(self) -> bool:
        return self._handle is not None

    def emit(self, event: str, **fields) -> None:
        """Write one event line (silently dropped when disabled)."""
        if self._handle is None:
            return
        record = {"event": event, "ts": time.time()}
        record.update(fields)
        self._handle.write(
            json.dumps(record, sort_keys=True, default=str) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def as_writer(
    telemetry: Union["TelemetryWriter", str, os.PathLike, None],
) -> Tuple["TelemetryWriter", bool]:
    """Coerce a writer-or-path into ``(writer, caller_owns_it)``.

    Paths produce a fresh writer the caller must close (``True``);
    existing writers (and ``None`` → disabled writer) are passed
    through (``False`` — whoever made them closes them).
    """
    if isinstance(telemetry, TelemetryWriter):
        return telemetry, False
    if telemetry is None:
        return TelemetryWriter(None), False
    return TelemetryWriter(telemetry), True


def read_telemetry(path: Union[str, os.PathLike]) -> List[dict]:
    """Parse a JSONL telemetry file; malformed lines are skipped."""
    events: List[dict] = []
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "event" in record:
                events.append(record)
    return events


def summarize_telemetry(events: Iterable[dict]) -> dict:
    """Aggregate counters over a telemetry event stream.

    Returns a flat dict: event, shard and abort counts, aggregated
    cache counters (preferring ``matrix_finish`` totals, falling back to
    summing ``shard_finish`` events, plus every ``artifact_finish``),
    and shard wall-time statistics. The artifact counters never overlap
    a pool's: after ``--parallel`` simulates the cells, the artifacts
    only hit the in-process memo.
    """
    events = list(events)
    by_name = {}
    for event in events:
        by_name.setdefault(event["event"], []).append(event)

    def _count(name: str) -> int:
        return len(by_name.get(name, ()))

    walls = [
        float(e["wall"]) for e in by_name.get("shard_finish", ())
        if "wall" in e
    ]
    finishes = by_name.get("matrix_finish", ())
    counters = {"memory_hits": 0, "store_hits": 0, "simulations": 0}
    source = list(finishes or by_name.get("shard_finish", ()))
    source += by_name.get("artifact_finish", ())
    for event in source:
        for key in counters:
            counters[key] += int(event.get(key, 0))

    trace_sources: dict = {}
    for event in by_name.get("shard_finish", ()):
        source = event.get("trace_source")
        if source:
            trace_sources[source] = trace_sources.get(source, 0) + 1
    if finishes:
        trace_wall = sum(
            float(e.get("trace_wall", 0)) for e in finishes
        )
    else:
        trace_wall = sum(
            float(e.get("trace_wall", 0))
            for e in by_name.get("shard_finish", ())
        )

    cached = counters["memory_hits"] + counters["store_hits"]
    total = cached + counters["simulations"]
    summary = {
        "events": len(events),
        "matrix_runs": len(finishes),
        "shards_started": _count("shard_start"),
        "shards_finished": _count("shard_finish"),
        "aborts": _count("matrix_abort") + _count("artifact_abort"),
        "cache_hit_rate": (cached / total) if total else 0.0,
        "wall_total": sum(walls),
        "wall_p50": percentile(walls, 0.5) if walls else 0.0,
        "wall_p95": percentile(walls, 0.95) if walls else 0.0,
        "wall_max": max(walls) if walls else 0.0,
        "trace_wall": trace_wall,
        "trace_sources": trace_sources,
    }
    summary.update(counters)
    return summary


def render_summary(summary: dict) -> str:
    """Human-readable block for ``repro-experiments status``.

    The matrix, shard and shard wall-time lines appear only for a
    stream with shard events: a serial run has none, and zeros there
    would describe shards that never existed.
    """
    pooled = summary["shards_started"] or summary["shards_finished"]
    lines = [f"events             {summary['events']:,}"]
    if pooled:
        lines += [
            f"matrix runs        {summary['matrix_runs']}",
            (
                f"shards             {summary['shards_finished']} "
                f"finished / {summary['shards_started']} started"
            ),
        ]
    lines += [
        f"faults             {summary['aborts']} aborts",
        (
            f"cache              {summary['memory_hits']} memory + "
            f"{summary['store_hits']} store hits, "
            f"{summary['simulations']} simulated "
            f"({summary['cache_hit_rate']:.1%} hit rate)"
        ),
    ]
    if pooled:
        lines.append(
            f"shard wall time    total {summary['wall_total']:.2f}s, "
            f"p50 {summary['wall_p50']:.2f}s, "
            f"p95 {summary['wall_p95']:.2f}s, "
            f"max {summary['wall_max']:.2f}s"
        )
    sources = summary.get("trace_sources") or {}
    if sources or summary.get("trace_wall"):
        shards = ", ".join(
            f"{count} {source}"
            for source, count in sorted(sources.items())
        ) or "none"
        lines.append(
            f"traces             {shards} "
            f"(acquisition {summary.get('trace_wall', 0.0):.2f}s)"
        )
    return "\n".join(lines)
