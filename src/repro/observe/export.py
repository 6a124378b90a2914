"""Exporters for observed pipeline activity.

Four output formats, all fed by a :class:`PipelineRecorder` sink (or,
for :func:`write_summary` / :func:`validate_summary`, by the stall
summary attached to an observed :class:`~repro.core.result.SimResult`):

* :func:`pipeview` — an ASCII pipeline view of chosen records, one row
  per instruction over a cycle axis: the quickest way to *see* a load
  held in the LSQ behind older stores.
* :func:`chrome_trace` — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev). Each committed
  instruction is one complete ("X") slice; concurrent instructions are
  spread over lanes (tids) greedily. Timestamps are **cycles**, not
  microseconds.
* :func:`konata_log` — a Kanata/Onikiri pipeline-viewer log
  (https://github.com/shioyadan/Konata) with fetch/wait/execute stages
  and squash-flush retire records.
* :func:`write_summary` — a compact JSON metrics document
  (``{"schema", "benchmark", "config", "settings", "observe"}``)
  machine-validated by :func:`validate_summary` against
  ``schemas/observe_summary.schema.json`` (a hand-rolled subset
  validator: no third-party jsonschema dependency).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.observe.bus import (
    EV_BLOCKED,
    EV_COMMIT,
    EV_FETCH,
    EV_REPLAY,
    EV_SQUASH,
    ObservedEvent,
)

#: Schema version of the JSON summary document.
SUMMARY_SCHEMA = 1


class PipelineRecord:
    """Stage timestamps of one committed instruction."""

    __slots__ = (
        "seq", "pc", "op", "fetch", "dispatch", "issue",
        "mem_issue", "done", "commit", "blocked_cause", "blocked_cycle",
    )

    def __init__(self, seq: int, pc: int, op: str) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.fetch: Optional[int] = None
        self.dispatch: Optional[int] = None
        self.issue: Optional[int] = None
        self.mem_issue: Optional[int] = None
        self.done: Optional[int] = None
        self.commit: Optional[int] = None
        self.blocked_cause: Optional[str] = None
        self.blocked_cycle: Optional[int] = None


class PipelineRecorder:
    """Event sink retaining per-instruction stage timestamps.

    Commit events carry the full dispatch/issue/mem-issue/done history,
    so a record is materialised only at commit; fetch cycles and first
    blocked-causes are staged in side dicts keyed by seq and pruned at
    commit/squash. Retention is bounded by *limit* committed records
    (older activity is still counted, just not retained).
    """

    wants_events = True
    wants_cycles = False
    summary_key = "pipeline"

    def __init__(self, limit: int = 20_000) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1 (got {limit})")
        self.limit = limit
        self.records: List[PipelineRecord] = []
        self.squashes: List[dict] = []
        self.dropped = 0
        self.replays = 0
        self._fetch: Dict[int, int] = {}
        self._blocked: Dict[int, tuple] = {}

    def on_event(self, event: ObservedEvent) -> None:
        kind = event.kind
        if kind == EV_COMMIT:
            if len(self.records) >= self.limit:
                self.dropped += 1
                self._fetch.pop(event.seq, None)
                self._blocked.pop(event.seq, None)
                return
            record = PipelineRecord(event.seq, event.pc, event.op)
            record.fetch = self._fetch.pop(event.seq, None)
            info = event.info
            record.dispatch = info["dispatch"]
            record.issue = info["issue"]
            record.mem_issue = info["mem_issue"]
            record.done = info["done"]
            record.commit = event.cycle
            blocked = self._blocked.pop(event.seq, None)
            if blocked is not None:
                record.blocked_cause, record.blocked_cycle = blocked
            self.records.append(record)
        elif kind == EV_FETCH:
            self._fetch[event.seq] = event.cycle
        elif kind == EV_BLOCKED:
            if event.seq not in self._blocked:
                self._blocked[event.seq] = (
                    event.info["cause"], event.cycle
                )
        elif kind == EV_SQUASH:
            self.squashes.append({
                "cycle": event.cycle,
                "load_seq": event.seq,
                "store_seq": event.info["store_seq"],
                "squashed": event.info["squashed"],
                "resume": event.info["resume"],
            })
            # Squash truncates from the young end: forget staged state
            # for everything at or after the violating load.
            seq = event.seq
            for staged in (self._fetch, self._blocked):
                for key in [k for k in staged if k >= seq]:
                    del staged[key]
        elif kind == EV_REPLAY:
            self.replays += 1

    def summary(self) -> dict:
        return {
            "records": len(self.records),
            "dropped": self.dropped,
            "squashes": len(self.squashes),
            "replays": self.replays,
        }


def _record_start(record: PipelineRecord) -> int:
    if record.fetch is not None:
        return record.fetch
    if record.dispatch is not None:
        return record.dispatch
    return record.commit


def pipeview(records: Iterable[PipelineRecord], max_width: int = 100) -> str:
    """ASCII pipeview of *records*, one row per instruction.

    Marks: ``D`` dispatch, ``I`` issue, ``-`` a load waiting in the LSQ
    between address generation and its memory access, ``M`` that
    access, ``=`` in flight, ``C`` done (a store's write; a store draws
    no ``M``), ``R`` commit. Callers pick the rows, e.g.
    ``[r for r in recorder.records if r.seq >= start][:20]``. A span
    wider than *max_width* cycles is drawn several cycles per column.
    """
    records = list(records)
    if not records:
        return "(no instructions captured)"
    base = min(r.dispatch for r in records)
    end = max(r.commit for r in records)
    span = end - base + 1
    scale = max(1, -(-span // max_width))  # cycles per column
    columns = -(-span // scale)

    def col(cycle: int) -> int:
        return min(columns - 1, max(0, (cycle - base) // scale))

    lines = [
        f"cycles {base}..{end}"
        + (f" ({scale} cycles/column)" if scale > 1 else "")
    ]
    for r in records:
        row = [" "] * columns
        mem = None if r.op == "STORE" else r.mem_issue
        if r.issue is not None and r.done is not None:
            issue = col(r.issue)
            for i in range(issue, col(r.done) + 1):
                row[i] = "="
            if r.op == "LOAD" and mem is not None:
                for i in range(issue, col(mem)):
                    row[i] = "-"
        for mark, cycle in (
            ("D", r.dispatch), ("I", r.issue), ("M", mem),
            ("C", r.done), ("R", r.commit),
        ):
            if cycle is not None:
                row[col(cycle)] = mark
        lines.append(f"{r.seq:6d} {r.op:8s} |{''.join(row)}|")
    return "\n".join(lines)


def chrome_trace(recorder: PipelineRecorder, pid: int = 0) -> dict:
    """Chrome ``trace_event`` document for *recorder*'s records.

    One "X" (complete) slice per committed instruction, ``ts``/``dur``
    in cycles; overlapping instructions are packed into the lowest free
    lane (tid). Squashes appear as global instant events.
    """
    events: List[dict] = []
    lane_free: List[int] = []  # lane -> first free cycle
    for record in recorder.records:
        start = _record_start(record)
        end = record.commit + 1
        for lane, free_at in enumerate(lane_free):
            if free_at <= start:
                lane_free[lane] = end
                break
        else:
            lane = len(lane_free)
            lane_free.append(end)
        args = {
            "seq": record.seq,
            "pc": record.pc,
            "fetch": record.fetch,
            "dispatch": record.dispatch,
            "issue": record.issue,
            "mem_issue": record.mem_issue,
            "done": record.done,
            "commit": record.commit,
        }
        if record.blocked_cause is not None:
            args["blocked"] = record.blocked_cause
            args["blocked_at"] = record.blocked_cycle
        events.append({
            "name": f"{record.op} @{record.pc:#x}",
            "cat": "instruction",
            "ph": "X",
            "pid": pid,
            "tid": lane,
            "ts": start,
            "dur": end - start,
            "args": args,
        })
    for squash in recorder.squashes:
        events.append({
            "name": "memdep-squash",
            "cat": "squash",
            "ph": "i",
            "s": "g",
            "pid": pid,
            "tid": 0,
            "ts": squash["cycle"],
            "args": squash,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "unit": "cycles",
            "records": len(recorder.records),
            "dropped": recorder.dropped,
        },
    }


def konata_log(recorder: PipelineRecorder) -> str:
    """Kanata pipeline-viewer log for *recorder*'s records.

    Stages: ``F`` fetch, ``W`` dispatch-to-issue wait, ``X`` execute,
    ``M`` memory access. Only committed instructions appear (squashed
    work is summarised by the squash count in the file header comment).
    """
    # (cycle, order, line) — order keeps same-cycle commands stable:
    # stage ends before stage starts before retires.
    commands: List[tuple] = []
    serial = 0
    for lane_id, record in enumerate(recorder.records):
        fetch = _record_start(record)
        dispatch = record.dispatch if record.dispatch is not None else fetch
        commands.append((
            fetch, 1, f"I\t{lane_id}\t{record.seq}\t0"
        ))
        commands.append((
            fetch, 2,
            f"L\t{lane_id}\t0\t{record.op} @{record.pc:#x} seq={record.seq}",
        ))
        commands.append((fetch, 3, f"S\t{lane_id}\t0\tF"))
        stages = [("F", fetch)]
        if dispatch > fetch:
            stages.append(("W", dispatch))
        issue = record.issue
        if issue is not None and issue > stages[-1][1]:
            stages.append(("X", issue))
        mem = record.mem_issue
        if mem is not None and mem > stages[-1][1]:
            stages.append(("M", mem))
        # Close out each stage when the next begins.
        for (name, start), (next_name, next_start) in zip(
            stages, stages[1:]
        ):
            commands.append((next_start, 0, f"E\t{lane_id}\t0\t{name}"))
            commands.append((
                next_start, 3, f"S\t{lane_id}\t0\t{next_name}"
            ))
        commit = record.commit
        commands.append((commit, 4, f"E\t{lane_id}\t0\t{stages[-1][0]}"))
        commands.append((commit, 5, f"R\t{lane_id}\t{serial}\t0"))
        serial += 1
    commands.sort()
    lines = ["Kanata\t0004"]
    if commands:
        current = commands[0][0]
        lines.append(f"C=\t{current}")
        for cycle, _, line in commands:
            if cycle > current:
                lines.append(f"C\t{cycle - current}")
                current = cycle
            lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON summary + schema validation
# ---------------------------------------------------------------------------


def summary_doc(result, settings: Optional[dict] = None) -> dict:
    """The compact JSON metrics document for an observed run."""
    observe = result.extra.get("observe")
    if not isinstance(observe, dict):
        raise ValueError(
            "result carries no observe summary — was the processor "
            "run with config.observe / an attached ObserverBus?"
        )
    return {
        "schema": SUMMARY_SCHEMA,
        "benchmark": result.benchmark,
        "config": result.config_label,
        "settings": settings or {},
        "ipc": round(result.ipc, 4),
        "cycles": result.cycles,
        "committed": result.committed,
        "observe": observe,
    }


def write_summary(path, result, settings: Optional[dict] = None) -> dict:
    """Write the JSON summary for *result* to *path*; returns the doc."""
    doc = summary_doc(result, settings)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _check(instance, schema: dict, path: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        kinds = expected if isinstance(expected, list) else [expected]
        ok = False
        for kind in kinds:
            pytype = _TYPES[kind]
            if isinstance(instance, pytype) and not (
                kind in ("integer", "number")
                and isinstance(instance, bool)
            ):
                ok = True
                break
        if not ok:
            errors.append(
                f"{path}: expected {expected}, "
                f"got {type(instance).__name__}"
            )
            return
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum")
    if isinstance(instance, (int, float)) and not isinstance(
        instance, bool
    ):
        minimum = schema.get("minimum")
        if minimum is not None and instance < minimum:
            errors.append(f"{path}: {instance} < minimum {minimum}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key '{key}'")
        properties = schema.get("properties", {})
        for key, value in instance.items():
            if key in properties:
                _check(value, properties[key], f"{path}.{key}", errors)
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key '{key}'")
            elif isinstance(
                schema.get("additionalProperties"), dict
            ):
                _check(
                    value, schema["additionalProperties"],
                    f"{path}.{key}", errors,
                )
    if isinstance(instance, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for index, value in enumerate(instance):
                _check(value, items, f"{path}[{index}]", errors)


def validate_summary(instance, schema: dict) -> List[str]:
    """Validate *instance* against a JSON-Schema subset.

    Supports ``type`` (incl. type lists), ``properties``, ``required``,
    ``items``, ``minimum``, ``enum`` and ``additionalProperties``
    (``False`` or a schema) — enough for the checked-in
    ``schemas/observe_summary.schema.json`` without a third-party
    dependency. Returns a list of error strings; empty means valid.
    """
    errors: List[str] = []
    _check(instance, schema, "$", errors)
    return errors
