"""End-to-end tests for the compiled-trace pipeline.

The tentpole guarantees under test:

* the parallel runner precompiles traces **before forking**, so
  workers inherit packed columns copy-on-write and never regenerate a
  trace (telemetry ``trace_source == "inherited"``);
* routing every trace through the persistent store produces
  bit-identical simulation results — checked against the committed
  golden-parity fixture (all 28 cells);
* every kernel still completes inside the default instruction budget
  (the invariant that lets one ``DEFAULT_LENGTH`` constant budget both
  kernel and synthetic workloads).
"""

import json
import os

import pytest

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.experiments.parallel import run_matrix_parallel
from repro.experiments.runner import ExperimentSettings, clear_results
from repro.experiments.telemetry import read_telemetry
from repro.trace.tracestore import set_trace_store
from repro.vm.interpreter import ExecutionLimitExceeded
from repro.workloads.catalog import (
    DEFAULT_LENGTH,
    KERNEL_NAMES,
    clear_cache,
    kernel_trace,
    precompile,
)

_SETTINGS = ExperimentSettings(
    timing_instructions=1200, warmup_instructions=800
)
_CONFIGS = {
    "NO": continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NO
    ),
    "NAV": continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    ),
}
_BENCHES = ("132.ijpeg", "107.mgrid")


def setup_function(_):
    clear_results()
    clear_cache()
    set_trace_store(None)


def teardown_function(_):
    set_trace_store(None)
    clear_results()
    clear_cache()


def test_forked_workers_inherit_precompiled_traces(tmp_path):
    """Acceptance: with precompilation on, no worker regenerates a
    trace — every shard reports trace_source == "inherited"."""
    tele = tmp_path / "run.jsonl"
    run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2, telemetry=str(tele)
    )
    events = read_telemetry(tele)
    pre = [e for e in events if e["event"] == "trace_precompile"]
    assert len(pre) == 1
    assert pre[0]["benchmarks"] == len(_BENCHES)
    assert pre[0].get("generated") == len(_BENCHES)  # cold, no store
    finishes = [e for e in events if e["event"] == "shard_finish"]
    assert len(finishes) == len(_BENCHES)
    assert all(e["trace_source"] == "inherited" for e in finishes)
    assert all(e["trace_wall"] >= 0.0 for e in finishes)
    matrix = [e for e in events if e["event"] == "matrix_finish"][0]
    assert matrix["trace_wall"] >= 0.0


def test_precompile_disabled_regenerates_per_worker(tmp_path):
    tele = tmp_path / "run.jsonl"
    run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2,
        telemetry=str(tele), precompile=False,
    )
    events = read_telemetry(tele)
    assert not any(e["event"] == "trace_precompile" for e in events)
    finishes = [e for e in events if e["event"] == "shard_finish"]
    assert all(e["trace_source"] == "generated" for e in finishes)


def test_precompile_reports_store_hits(tmp_path):
    set_trace_store(tmp_path / "traces")
    sources = precompile(
        ((name, _SETTINGS.trace_length) for name in _BENCHES)
    )
    assert sources == {name: "generated" for name in _BENCHES}
    clear_cache()
    sources = precompile(
        ((name, _SETTINGS.trace_length) for name in _BENCHES)
    )
    assert sources == {name: "store" for name in _BENCHES}
    # Already resident: re-flagged from the in-process memo.
    sources = precompile(
        ((name, _SETTINGS.trace_length) for name in _BENCHES)
    )
    assert sources == {name: "memo" for name in _BENCHES}


def test_precompile_isolates_failing_benchmarks(tmp_path):
    """A kernel that cannot fit the requested budget fails loudly: the
    error names the benchmark, and the matrix stops before its fork
    instead of dropping that benchmark."""
    with pytest.raises(ExecutionLimitExceeded, match="btree: exceeded 50"):
        precompile([("132.ijpeg", 2_000), ("btree", 50)])
    tele = tmp_path / "run.jsonl"
    with pytest.raises(ExecutionLimitExceeded, match="btree"):
        run_matrix_parallel(
            ("132.ijpeg", "btree"), _CONFIGS,
            ExperimentSettings(timing_instructions=30,
                               warmup_instructions=20),
            workers=2, telemetry=str(tele),
        )
    events = read_telemetry(tele)
    assert [e["event"] for e in events] == ["matrix_start", "matrix_abort"]
    assert "btree" in events[-1]["error"]


def test_parallel_precompiled_matches_serial_regenerated():
    from repro.experiments.runner import run_benchmark

    parallel = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2
    )
    clear_results()
    clear_cache()
    for label in _CONFIGS:
        for name in _BENCHES:
            serial = run_benchmark(name, _CONFIGS[label], _SETTINGS)
            assert parallel[label][name].cycles == serial.cycles
            assert parallel[label][name].committed == serial.committed


def test_every_kernel_fits_the_default_budget():
    """Invariant behind the one-constant budget (DEFAULT_LENGTH): every
    kernel, at its default parameters, runs to natural completion
    within it. If a kernel grows past the budget, either shrink its
    default size or raise DEFAULT_LENGTH — deliberately, not by
    letting callers silently diverge."""
    for name in KERNEL_NAMES:
        trace = kernel_trace(name)  # raises if the budget is exceeded
        assert 0 < len(trace) <= DEFAULT_LENGTH, name


def test_golden_parity_with_store_routed_traces(tmp_path):
    """Acceptance: the full 28-cell golden-parity matrix, with every
    trace persisted to and re-loaded from the trace store, matches the
    committed fixture bit for bit."""
    from tests.test_golden_parity import CELLS, FIXTURE, simulate_cell

    if not os.path.exists(FIXTURE):
        pytest.fail(f"missing golden fixture {FIXTURE}")
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        golden = json.load(handle)

    from repro.workloads.catalog import get_trace

    store = set_trace_store(tmp_path / "traces")
    # Warm the store, then drop every in-process cache so each cell's
    # trace is materialized from stored compiled columns.
    for benchmark, _warm, length in {
        (benchmark, warm, length)
        for benchmark, warm, length, _label, _config in CELLS
    }:
        get_trace(benchmark, length)  # generates and persists
    assert store.writes > 0
    clear_cache()
    clear_results()

    mismatches = []
    for benchmark, warm, length, label, config in CELLS:
        cell = f"{benchmark}:{label}"
        actual = simulate_cell(benchmark, warm, length, config)
        if actual != golden["cells"][cell]:
            mismatches.append(cell)
    assert not mismatches, (
        f"store-routed traces drifted in {len(mismatches)} cells: "
        + ", ".join(mismatches)
    )
    assert store.hits + store.prefix_hits > 0  # genuinely store-served
