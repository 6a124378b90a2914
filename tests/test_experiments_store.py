"""Tests for the persistent result store."""

import json
import os

import pytest

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core.result import SimResult
from repro.experiments import store as store_mod
from repro.experiments.export import (
    RAW_RESULT_FIELDS,
    result_from_record,
    result_to_record,
)
from repro.experiments.runner import (
    ExperimentSettings,
    _config_key,
    cache_stats,
    clear_results,
    run_benchmark,
)
from repro.experiments.store import ResultStore, set_store

_SETTINGS = ExperimentSettings(
    timing_instructions=1200, warmup_instructions=800
)
_CONFIG = continuous_window_128(
    SchedulingModel.NAS, SpeculationPolicy.NO
)


def _sample_result() -> SimResult:
    return SimResult(
        config_label="w128 NAS/NO",
        benchmark="132.ijpeg",
        suite="int",
        cycles=1000,
        committed=1200,
        committed_loads=300,
        misspeculations=7,
        extra={"custom": 1.5},
    )


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    """Isolate each test from $REPRO_RESULT_STORE and globals."""
    monkeypatch.delenv(store_mod.STORE_ENV_VAR, raising=False)
    clear_results()
    set_store(None)
    yield
    set_store(None)
    clear_results()


def test_record_round_trip():
    result = _sample_result()
    record = result_to_record(result)
    rebuilt = result_from_record(record)
    for field in RAW_RESULT_FIELDS:
        assert getattr(rebuilt, field) == getattr(result, field)


def test_record_missing_field_raises():
    record = result_to_record(_sample_result())
    del record["cycles"]
    with pytest.raises(KeyError):
        result_from_record(record)


def test_store_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    key = _config_key(_CONFIG)
    assert store.load("132.ijpeg", _SETTINGS, key) is None
    assert store.misses == 1

    result = _sample_result()
    path = store.save("132.ijpeg", _SETTINGS, key, result)
    assert path is not None and os.path.exists(path)
    assert store.writes == 1

    loaded = store.load("132.ijpeg", _SETTINGS, key)
    assert loaded is not None
    assert loaded.cycles == result.cycles
    assert loaded.extra == {"custom": 1.5}
    assert store.hits == 1


def test_store_distinct_keys(tmp_path):
    store = ResultStore(tmp_path)
    key = _config_key(_CONFIG)
    store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    other_settings = ExperimentSettings(
        timing_instructions=1300, warmup_instructions=800
    )
    assert store.load("132.ijpeg", other_settings, key) is None
    assert store.load("107.mgrid", _SETTINGS, key) is None
    oracle_key = _config_key(
        continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.ORACLE
        )
    )
    assert store.load("132.ijpeg", _SETTINGS, oracle_key) is None


def test_corrupt_record_falls_through(tmp_path):
    store = ResultStore(tmp_path)
    key = _config_key(_CONFIG)
    path = store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    with open(path, "w") as handle:
        handle.write("{ not json")
    assert store.load("132.ijpeg", _SETTINGS, key) is None
    # Parse failures count as plain misses; the entry was unreadable.
    assert store.misses == 1
    # A checksum mismatch is detected and the entry dropped from disk.
    path = store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    with open(path) as handle:
        record = json.load(handle)
    record["payload"]["cycles"] = 1  # tamper without re-checksumming
    with open(path, "w") as handle:
        json.dump(record, handle)
    assert store.load("132.ijpeg", _SETTINGS, key) is None
    assert store.corrupt_dropped == 1
    assert not os.path.exists(path)


def test_schema_version_invalidates(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    key = _config_key(_CONFIG)
    path = store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    # Path-level: a bumped schema version addresses a different entry.
    monkeypatch.setattr(store_mod, "SCHEMA_VERSION", 999)
    assert store.load("132.ijpeg", _SETTINGS, key) is None
    monkeypatch.undo()
    # Record-level: a record claiming another schema is dropped even
    # if it somehow lands on the current address.
    with open(path) as handle:
        record = json.load(handle)
    record["schema"] = 999
    with open(path, "w") as handle:
        json.dump(record, handle)
    assert store.load("132.ijpeg", _SETTINGS, key) is None
    assert store.stale_dropped == 1


def test_atomic_writes_leave_no_temp_files(tmp_path):
    store = ResultStore(tmp_path)
    key = _config_key(_CONFIG)
    store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    leftovers = [
        name
        for _, _, names in os.walk(tmp_path)
        for name in names
        if not name.endswith(".json")
    ]
    assert leftovers == []


def test_store_maintenance(tmp_path):
    store = ResultStore(tmp_path)
    key = _config_key(_CONFIG)
    store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    store.save("107.mgrid", _SETTINGS, key, _sample_result())
    assert len(store) == 2
    assert store.size_bytes() > 0
    stats = store.stats()
    assert stats["entries"] == 2
    assert store.clear() == 2
    assert len(store) == 0


def test_run_benchmark_uses_store(tmp_path):
    store = set_store(tmp_path)
    first = run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    assert cache_stats().simulations == 1
    assert len(store) == 1

    # New "process": drop the in-memory cache, keep the store.
    clear_results()
    second = run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    stats = cache_stats()
    assert stats.simulations == 0
    assert stats.store_hits == 1
    assert second.cycles == first.cycles
    assert second.ipc == pytest.approx(first.ipc)

    # Third call in the same process hits the in-memory layer.
    run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    assert cache_stats().memory_hits == 1


def test_store_corruption_triggers_resimulation(tmp_path):
    store = set_store(tmp_path)
    run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    for path in store.entries():
        with open(path, "w") as handle:
            handle.write("garbage")
    clear_results()
    result = run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    assert cache_stats().simulations == 1
    assert result.cycles > 0


def test_env_var_activates_store(tmp_path, monkeypatch):
    monkeypatch.setenv(store_mod.STORE_ENV_VAR, str(tmp_path))
    # Clear the explicit-disable left by the fixture setup.
    monkeypatch.setattr(store_mod._selected, "disabled", False)
    active = store_mod.active_store()
    assert active is not None
    assert active.root == str(tmp_path)


def test_set_store_none_disables(tmp_path, monkeypatch):
    monkeypatch.setenv(store_mod.STORE_ENV_VAR, str(tmp_path))
    set_store(None)
    assert store_mod.active_store() is None


def test_observed_request_after_plain_resimulates_and_upgrades(tmp_path):
    import dataclasses

    store = set_store(tmp_path)
    run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    key = _config_key(_CONFIG)
    assert "observe" not in store.load("132.ijpeg", _SETTINGS, key).extra

    observed = dataclasses.replace(_CONFIG, observe=True)
    result = run_benchmark("132.ijpeg", observed, _SETTINGS)
    assert cache_stats().simulations == 2
    assert "observe" in result.extra
    assert len(store) == 1
    stored = store.load("132.ijpeg", _SETTINGS, key)
    assert stored.extra["observe"] == result.extra["observe"]

    # A new process: the observed record serves a plain request.
    clear_results()
    plain = run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    assert cache_stats().store_hits == 1
    assert "observe" not in plain.extra
    assert plain.cycles == result.cycles


def test_clear_and_prune_reach_older_schema_records(
    tmp_path, monkeypatch, capsys
):
    from repro.experiments.cli import main

    store = ResultStore(tmp_path)
    key = _config_key(_CONFIG)
    old = store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    monkeypatch.setattr(store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION + 1)
    current = store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    assert list(store.entries()) == [current]
    assert list(store.stale_entries()) == [old]
    assert store.stats()["stale_entries"] == 1

    assert main(["cache", "--path", str(tmp_path),
                 "--trace-path", str(tmp_path / "traces")]) == 0
    assert "older schemas   1" in capsys.readouterr().out
    assert main(["cache", "prune", "--path", str(tmp_path),
                 "--max-age", "0", "--apply", "--results-only"]) == 0
    assert "pruned 2/2" in capsys.readouterr().out
    assert not os.path.exists(old)

    old = store.save("132.ijpeg", _SETTINGS, key, _sample_result())
    monkeypatch.setattr(store_mod, "SCHEMA_VERSION", store_mod.SCHEMA_VERSION + 1)
    assert store.clear() == 1
    assert not os.path.exists(old)


def test_unwritable_store_still_returns_the_result(tmp_path):
    # A regular file where the store root should be: every mkdir and
    # open under it raises NotADirectoryError (chmod tricks do not
    # work when the suite runs as root).
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    store = set_store(blocker / "store")
    result = run_benchmark("132.ijpeg", _CONFIG, _SETTINGS)
    assert result.cycles > 0
    assert cache_stats().simulations == 1
    assert store.writes == 0
