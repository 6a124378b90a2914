"""Tests for the multiprocess runner (including fault injection)."""

import os
import time

import pytest

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.experiments import parallel as parallel_mod
from repro.experiments.parallel import (
    _run_benchmark_shard,
    run_matrix_parallel,
)
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

#: The unpatched shard runner, for fault-injecting wrappers below.
_REAL_SHARD = _run_benchmark_shard

#: Env var naming a sentinel file: fault wrappers misbehave only while
#: the sentinel does not exist, so the first attempt fails and the
#: retry succeeds. The env var (and the fork start method) carry both
#: the patch and the sentinel path into pool workers.
_SENTINEL_VAR = "REPRO_TEST_FAULT_SENTINEL"


def _crash_once_shard(args):
    """Raises on the first attempt at 107.mgrid, then behaves."""
    name = args[0]
    sentinel = os.environ[_SENTINEL_VAR]
    if name == "107.mgrid" and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("injected worker crash")
    return _REAL_SHARD(args)


def _hang_once_shard(args):
    """Hangs on the first attempt at 107.mgrid, then behaves."""
    name = args[0]
    sentinel = os.environ[_SENTINEL_VAR]
    if name == "107.mgrid" and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        time.sleep(60.0)
    return _REAL_SHARD(args)


def _always_crash_shard(args):
    """107.mgrid never completes; other shards behave."""
    if args[0] == "107.mgrid":
        raise RuntimeError("injected permanent crash")
    return _REAL_SHARD(args)


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
    assert summary["shards_failed"] == 0
    # Cold run: every point was actually simulated.
    assert summary["simulations"] == len(_BENCHES) * len(_CONFIGS)
    finish = [e for e in events if e["event"] == "shard_finish"]
    assert all("worker" in e and "wall" in e for e in finish)


def test_worker_crash_is_retried(tmp_path, monkeypatch):
    monkeypatch.setenv(_SENTINEL_VAR, str(tmp_path / "crashed"))
    monkeypatch.setattr(
        parallel_mod, "_run_benchmark_shard", _crash_once_shard
    )
    tele = tmp_path / "run.jsonl"
    out = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2,
        retries=2, retry_backoff=0.0, telemetry=str(tele),
    )
    # Every (benchmark, config) point survived the injected crash.
    for label in _CONFIGS:
        assert set(out[label]) == set(_BENCHES)
    events = read_telemetry(tele)
    assert any(e["event"] == "shard_error" for e in events)
    assert any(e["event"] == "shard_retry" for e in events)
    assert summarize_telemetry(events)["shards_failed"] == 0


def test_worker_hang_times_out_and_retries(tmp_path, monkeypatch):
    monkeypatch.setenv(_SENTINEL_VAR, str(tmp_path / "hung"))
    monkeypatch.setattr(
        parallel_mod, "_run_benchmark_shard", _hang_once_shard
    )
    tele = tmp_path / "run.jsonl"
    started = time.monotonic()
    out = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2,
        shard_timeout=2.0, retries=2, retry_backoff=0.0,
        telemetry=str(tele),
    )
    # The hung worker was abandoned, not waited for.
    assert time.monotonic() - started < 45.0
    for label in _CONFIGS:
        assert set(out[label]) == set(_BENCHES)
    events = read_telemetry(tele)
    assert any(e["event"] == "shard_timeout" for e in events)


def test_shard_events_carry_cell_key(tmp_path, monkeypatch):
    """Every shard record — including retry/error — names its full
    cell key (config labels + mode) so telemetry traces can be joined
    with result-store entries."""
    monkeypatch.setenv(_SENTINEL_VAR, str(tmp_path / "crashed"))
    monkeypatch.setattr(
        parallel_mod, "_run_benchmark_shard", _crash_once_shard
    )
    tele = tmp_path / "run.jsonl"
    run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2,
        retries=2, retry_backoff=0.0, telemetry=str(tele),
    )
    shard_events = [
        e for e in read_telemetry(tele)
        if e["event"].startswith("shard_")
    ]
    # The injected crash exercises the retry path too.
    assert {e["event"] for e in shard_events} >= {
        "shard_start", "shard_finish", "shard_error", "shard_retry",
    }
    for event in shard_events:
        assert event["configs"] == list(_CONFIGS), event
        assert event["mode"] in ("pool", "serial"), event


def test_permanent_failure_keeps_surviving_points(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(
        parallel_mod, "_run_benchmark_shard", _always_crash_shard
    )
    tele = tmp_path / "run.jsonl"
    out = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2,
        retries=1, retry_backoff=0.0, telemetry=str(tele),
    )
    for label in _CONFIGS:
        assert set(out[label]) == {"132.ijpeg"}
    events = read_telemetry(tele)
    failed = [e for e in events if e["event"] == "shard_failed"]
    assert [e["benchmark"] for e in failed] == ["107.mgrid"]
    finish = [e for e in events if e["event"] == "matrix_finish"]
    assert finish[0]["failed"] == ["107.mgrid"]


def test_pool_death_degrades_to_serial(tmp_path, monkeypatch):
    def broken_pool(workers):
        raise OSError("no processes available")

    monkeypatch.setattr(parallel_mod, "_make_pool", broken_pool)
    tele = tmp_path / "run.jsonl"
    out = run_matrix_parallel(
        _BENCHES, _CONFIGS, _SETTINGS, workers=2, telemetry=str(tele)
    )
    for label in _CONFIGS:
        assert set(out[label]) == set(_BENCHES)
    events = read_telemetry(tele)
    assert any(e["event"] == "serial_fallback" for e in events)
    serial = [
        e for e in events
        if e["event"] == "shard_finish" and e.get("mode") == "serial"
    ]
    assert len(serial) == len(_BENCHES)


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

    def interrupted(self, names):
        raise KeyboardInterrupt

    monkeypatch.setattr(
        parallel_mod._MatrixRun, "run_serial", interrupted
    )
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

    def interrupting_poll(self, pending, active):
        raise KeyboardInterrupt

    monkeypatch.setattr(
        parallel_mod._MatrixRun, "_poll", interrupting_poll
    )
    tele = tmp_path / "abort.jsonl"
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(
            _BENCHES, _CONFIGS, _SETTINGS, workers=2,
            telemetry=str(tele),
        )
    assert terminated  # the pool context reaped its workers
    events = read_telemetry(tele)
    assert events[-1]["event"] == "matrix_abort"
