"""Tests for the multiprocess runner, including a failing cell."""

import multiprocessing

import pytest

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.experiments import runner
from repro.experiments.parallel import run_matrix_parallel
from repro.experiments.runner import (
    ExperimentSettings,
    clear_results,
    run_benchmark,
)
from repro.experiments.store import set_store
from repro.experiments.telemetry import (
    read_telemetry,
    render_summary,
    summarize_telemetry,
)

_SETTINGS = ExperimentSettings(
    timing_instructions=1200, warmup_instructions=800
)
_CONFIGS = {
    "NO": continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NO
    ),
    "ORACLE": continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.ORACLE
    ),
}
_BENCHES = ("132.ijpeg", "107.mgrid")


def plant_failing_cell(monkeypatch, benchmark, config):
    """Make ``runner.run_benchmark`` raise ``ValueError("planted")``
    for the one cell (*benchmark*, *config*), observed or not. The fork
    start method carries the patch into pool workers."""
    real = runner.run_benchmark
    key = runner._config_key(config)

    def planted(name, cell_config, *args, **kwargs):
        if name == benchmark and runner._config_key(cell_config) == key:
            raise ValueError("planted")
        return real(name, cell_config, *args, **kwargs)

    monkeypatch.setattr(runner, "run_benchmark", planted)


def setup_function(_):
    clear_results()
    set_store(None)


def teardown_function(_):
    set_store(None)
    clear_results()


def test_parallel_matches_serial():
    parallel = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2
    )
    clear_results()
    for label in _CONFIGS:
        for name in _BENCHES:
            serial = run_benchmark(name, _CONFIGS[label], _SETTINGS)
            assert parallel[label][name].ipc == pytest.approx(
                serial.ipc
            ), (label, name)
            assert (
                parallel[label][name].cycles == serial.cycles
            )


def test_single_worker_fallback():
    result = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=1
    )
    assert set(result) == set(_CONFIGS)
    assert set(result["NO"]) == set(_BENCHES)


def test_parallel_seeds_serial_cache():
    run_matrix_parallel(("132.ijpeg",), _CONFIGS, _SETTINGS, workers=2)
    # A subsequent serial call should hit the cache (identical object).
    first = run_benchmark("132.ijpeg", _CONFIGS["NO"], _SETTINGS)
    second = run_benchmark("132.ijpeg", _CONFIGS["NO"], _SETTINGS)
    assert first is second


def test_telemetry_stream_for_clean_run(tmp_path):
    tele = tmp_path / "run.jsonl"
    run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2, telemetry=str(tele)
    )
    events = read_telemetry(tele)
    names = [e["event"] for e in events]
    assert names[0] == "matrix_start"
    assert names[-1] == "matrix_finish"
    summary = summarize_telemetry(events)
    assert summary["shards_finished"] == len(_BENCHES)
    assert summary["aborts"] == 0
    # Cold run: every point was actually simulated.
    assert summary["simulations"] == len(_BENCHES) * len(_CONFIGS)
    finish = [e for e in events if e["event"] == "shard_finish"]
    assert all("worker" in e and "wall" in e for e in finish)


def test_shard_events_carry_cell_key(tmp_path):
    """Every shard record names its full cell key (benchmark and
    config labels) so telemetry traces can be joined with
    result-store entries."""
    tele = tmp_path / "run.jsonl"
    run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2, telemetry=str(tele),
    )
    shard_events = [
        e for e in read_telemetry(tele)
        if e["event"].startswith("shard_")
    ]
    assert {e["event"] for e in shard_events} == {
        "shard_start", "shard_finish",
    }
    assert len(shard_events) == 2 * len(_BENCHES)
    for event in shard_events:
        assert event["benchmark"] in _BENCHES, event
        assert event["configs"] == list(_CONFIGS), event


@pytest.mark.parametrize("workers", [1, 2], ids=lambda n: f"workers={n}")
def test_failing_cell_fails_the_matrix(tmp_path, monkeypatch, workers):
    """A cell that raises is attempted once and fails the whole
    matrix, naming its benchmark and config label; no worker
    outlives the call."""
    plant_failing_cell(monkeypatch, "107.mgrid", _CONFIGS["NO"])
    tele = tmp_path / "run.jsonl"
    with pytest.raises(
        RuntimeError, match=r"cell 107\.mgrid / NO: ValueError\('planted'\)"
    ):
        run_matrix_parallel(
            _BENCHES, _CONFIGS, _SETTINGS, workers=workers,
            telemetry=str(tele),
        )
    events = read_telemetry(tele)
    starts = [e["benchmark"] for e in events if e["event"] == "shard_start"]
    assert sorted(starts) == sorted(_BENCHES)
    assert events[-1]["event"] == "matrix_abort"
    assert "107.mgrid / NO" in events[-1]["error"]
    assert "matrix_finish" not in [e["event"] for e in events]
    assert multiprocessing.active_children() == []


def test_warm_rerun_performs_zero_resimulations(tmp_path):
    """Acceptance: cold matrix, then a warm re-run served entirely
    from the persistent store — zero re-simulations, verified from
    the telemetry counters."""
    set_store(tmp_path / "store")
    cold_tele = tmp_path / "cold.jsonl"
    cold = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2,
        telemetry=str(cold_tele),
    )
    cold_summary = summarize_telemetry(read_telemetry(cold_tele))
    assert cold_summary["simulations"] == len(_BENCHES) * len(_CONFIGS)

    clear_results()  # forget everything in-process; keep the disk
    warm_tele = tmp_path / "warm.jsonl"
    warm = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2,
        telemetry=str(warm_tele),
    )
    warm_summary = summarize_telemetry(read_telemetry(warm_tele))
    assert warm_summary["simulations"] == 0
    assert warm_summary["store_hits"] == len(_BENCHES) * len(_CONFIGS)
    for label in _CONFIGS:
        for name in _BENCHES:
            assert warm[label][name].ipc == pytest.approx(
                cold[label][name].ipc
            )

def test_interrupt_emits_matrix_abort_serial(tmp_path, monkeypatch):
    """KeyboardInterrupt mid-matrix ends the stream with matrix_abort
    (and no matrix_finish), then re-raises."""

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "run_benchmark", interrupted)
    tele = tmp_path / "abort.jsonl"
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(
            _BENCHES, _CONFIGS, _SETTINGS, workers=1,
            telemetry=str(tele),
        )
    events = read_telemetry(tele)
    names = [e["event"] for e in events]
    assert names[-1] == "matrix_abort"
    assert "matrix_finish" not in names
    abort = events[-1]
    assert abort["reason"] == "KeyboardInterrupt"
    assert abort["shards_done"] == 0
    summary = summarize_telemetry(events)
    assert summary["aborts"] == 1
    # `repro status` must show the abort, not only the JSON summary.
    assert "1 aborts" in render_summary(summary)


def test_interrupt_mid_pool_reaps_workers(tmp_path, monkeypatch):
    """An interrupt while shards are in flight terminates the pool
    (no orphan workers) and still records the abort event."""
    import multiprocessing.pool as mp_pool

    terminated = []
    real_terminate = mp_pool.Pool.terminate

    def tracking_terminate(self):
        terminated.append(True)
        return real_terminate(self)

    monkeypatch.setattr(
        mp_pool.Pool, "terminate", tracking_terminate
    )

    def interrupting_fold(key, result):
        # The parent is interrupted at its first fold, pool still open.
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "_remember", interrupting_fold)
    tele = tmp_path / "abort.jsonl"
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(
            _BENCHES, _CONFIGS, _SETTINGS, workers=2,
            telemetry=str(tele),
        )
    assert terminated  # the pool was terminated, not left running
    assert multiprocessing.active_children() == []
    events = read_telemetry(tele)
    assert events[-1]["event"] == "matrix_abort"
