"""Spans around the public entry points of each layer, from outside.

The benchmark never edits ``src/``: a traced child process calls
:func:`install`, which replaces each public entry point below with a
wrapper that records one span per call, and :meth:`Tracing.restore`
puts every original object back. Spans stay in memory until the child
writes them out with :func:`write_spans`.

A span is ``[id, parent, name, start_ns, end_ns, request, attrs]``.
Times come from ``time.monotonic_ns``, which on Linux is one clock for
every process, so the top-level spans can cross the process boundary:
the child dates ``startup`` from the moment its parent launched it,
and the parent adds ``shutdown``, from the child's last span to its
exit. The request id names the workload, the artifact, the benchmark
and the configuration a span served.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ID, PARENT, NAME, START, END, REQUEST, ATTRS = range(7)


class Recorder:
    """In-memory span stack for one process."""

    def __init__(self, request: str = "") -> None:
        self.request = request
        self.spans: List[list] = []
        self._stack: List[list] = []

    def open(self, name: str, suffix: Optional[str] = None) -> list:
        """Start a child of the innermost open span. Its request id is
        its parent's, extended by ``/suffix`` when given."""
        parent = self._stack[-1] if self._stack else None
        request = parent[REQUEST] if parent is not None else self.request
        if suffix is not None:
            request = f"{request}/{suffix}"
        span = [
            len(self.spans) + 1,
            parent[ID] if parent is not None else None,
            name, time.monotonic_ns(), None, request, None,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list, attrs: Optional[dict] = None) -> None:
        span[END] = time.monotonic_ns()
        span[ATTRS] = attrs
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished top-level span, such as process start-up."""
        self.spans.append(
            [len(self.spans) + 1, None, name, start_ns, end_ns,
             self.request, None]
        )


def _wrap(
    recorder: Recorder,
    fn: Callable,
    name,
    request: Optional[Callable] = None,
    attrs: Optional[Callable] = None,
) -> Callable:
    """*fn* recording a span per call. *name* is a string or a function
    of ``(args, kwargs)``; *request* extends the parent's request id;
    *attrs* turns the return value into span attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(
            name if isinstance(name, str) else name(args, kwargs),
            request(args, kwargs) if request is not None else None,
        )
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(
                span, attrs(result) if attrs is not None and result is not None
                else None,
            )

    return wrapper


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


def _cell_request(args, kwargs) -> str:
    config = _arg(args, kwargs, 1, "config")
    label = f"split{config.split.num_units} " if config.split.enabled else ""
    return f"{args[0]}/{label}{config.label}@w{config.window.size}"


def _sim_attrs(result) -> dict:
    extra = result.extra
    out = {"committed": result.committed, "cycles": result.cycles}
    if "skipped_cycles" in extra:
        out["skipped"] = extra["skipped_cycles"]
    if "eventsim" in extra:
        out["events"] = extra["eventsim"]["events_fired"]
    return out


def _reference_layer(config) -> str:
    return "observe" if config.observe else "core.reference"


#: ``(module, class, layer)``: the simulator cores whose ``__init__``
#: and ``run`` become ``<layer>.init`` / ``<layer>.run`` spans. A class
#: whose module the traced process has not imported is left alone.
CORES = (
    ("repro.core.processor", "Processor", None),
    ("repro.core.vector", "VectorProcessor", "core.vector"),
    ("repro.splitwindow.processor", "SplitWindowProcessor", "split.legacy"),
    ("repro.eventsim.splitwindow", "EventSplitWindowProcessor", "eventsim"),
)

#: ``(module, function, span name)``: functions wrapped in every
#: ``repro`` module that holds them, including modules that imported
#: them by name.
FUNCTIONS = (
    ("repro.experiments.runner", "run_benchmark", "runner.run_benchmark"),
    ("repro.workloads.catalog", "get_trace", "trace.get_trace"),
    ("repro.workloads.catalog", "get_compiled", "trace.get_compiled"),
    ("repro.workloads.catalog", "get_dependence_info",
     "trace.get_dependence_info"),
    ("repro.experiments.export", "report_to_json", "render"),
)


class Tracing:
    """Installed wrappers; :meth:`restore` undoes every one."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, key, value) -> None:
        """Set *owner*[*key*] (a dict item or an attribute), remembering
        the original for :meth:`restore`."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracing":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _repro_modules() -> Iterable[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def replace_everywhere(tracing: Tracing, original, wrapper) -> None:
    """Replace *original* by *wrapper* in every ``repro`` module that
    holds it, including modules that imported it by name."""
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                tracing.replace(module, key, wrapper)


def install(recorder: Recorder) -> Tracing:
    """Wrap every entry point of :data:`FUNCTIONS`, :data:`CORES`, the
    result store, report rendering and each CLI artifact."""
    tracing = Tracing()
    for module_name, attr, span_name in FUNCTIONS:
        home = sys.modules.get(module_name)
        if home is None:
            continue
        original = getattr(home, attr)
        request = _cell_request if attr == "run_benchmark" else None
        replace_everywhere(tracing, original, _wrap(
            recorder, original, span_name, request=request,
        ))

    for module_name, cls_name, layer in CORES:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        cls = getattr(module, cls_name)
        if layer is None:
            init_name = lambda a, k: _reference_layer(  # noqa: E731
                _arg(a, k, 1, "config")) + ".init"
            run_name = lambda a, k: _reference_layer(  # noqa: E731
                a[0].config) + ".run"
        else:
            init_name, run_name = f"{layer}.init", f"{layer}.run"
        tracing.replace(cls, "__init__",
                     _wrap(recorder, vars(cls)["__init__"], init_name))
        tracing.replace(cls, "run", _wrap(recorder, vars(cls)["run"], run_name,
                                       attrs=_sim_attrs))

    store = sys.modules.get("repro.experiments.store")
    if store is not None:
        cls = store.ResultStore
        tracing.replace(cls, "load", _wrap(
            recorder, vars(cls)["load"], "store.load",
            attrs=lambda result: {"hit": 1},
        ))
        tracing.replace(cls, "save", _wrap(recorder, vars(cls)["save"],
                                        "store.save"))

    report = sys.modules.get("repro.experiments.report")
    if report is not None:
        cls = report.ExperimentReport
        tracing.replace(cls, "render",
                     _wrap(recorder, vars(cls)["render"], "render"))

    cli = sys.modules.get("repro.experiments.cli")
    if cli is not None:
        for key, fn in list(cli.ARTIFACTS.items()):
            tracing.replace(cli.ARTIFACTS, key, _wrap(
                recorder, fn, f"artifact.{key}",
                request=lambda a, k, key=key: key,
            ))
    return tracing


# -- analysis ----------------------------------------------------------------


def self_times(spans: List[list]) -> Dict[int, int]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out: Dict[int, int] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(span[ID], ()),
                            key=lambda c: c[START]):
            lo = max(child[START], cursor)
            hi = min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[ID]] = (end - start) - covered
    return out


def self_time_residual(spans: List[list]) -> float:
    """Largest share by which a top-level span's duration differs from
    the self times of its whole subtree (0 when children nest)."""
    own = self_times(spans)
    children: Dict[int, List[int]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span[ID])
    worst = 0.0
    for span in spans:
        if span[PARENT] is not None:
            continue
        total, todo = 0, [span[ID]]
        while todo:
            sid = todo.pop()
            total += own[sid]
            todo.extend(children.get(sid, ()))
        duration = span[END] - span[START]
        if duration > 0:
            worst = max(worst, abs(total - duration) / duration)
    return worst


_KEYS = ("id", "parent", "name", "start_ns", "end_ns", "req", "attrs")


def write_spans(path: str, recorder: Recorder) -> None:
    """Write every span as one JSON line, then a top-level
    ``spans.write`` span timing the write itself."""
    started = time.monotonic_ns()
    with open(path, "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(dict(zip(_KEYS, span))) + "\n")
        handle.flush()
        span = [len(recorder.spans) + 1, None, "spans.write", started,
                time.monotonic_ns(), recorder.request, None]
        handle.write(json.dumps(dict(zip(_KEYS, span))) + "\n")


def read_spans(path: str) -> List[list]:
    with open(path, "r", encoding="utf-8") as handle:
        return [[record[k] for k in _KEYS]
                for record in map(json.loads, handle)]
