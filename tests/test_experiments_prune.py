"""Age/size store eviction (``repro cache prune``)."""

from __future__ import annotations

import os

import pytest

from repro.experiments.prune import prune_paths


def _make(tmp_path, name, size, age, now=1_000_000.0):
    path = tmp_path / name
    path.write_bytes(b"x" * size)
    os.utime(path, (now - age, now - age))
    return str(path)


NOW = 1_000_000.0


def test_dry_run_deletes_nothing(tmp_path):
    old = _make(tmp_path, "old.json", 100, age=10_000)
    report = prune_paths([old], max_age_seconds=1.0, now=NOW)
    assert report["selected"] == [old]
    assert report["removed"] == 0
    assert not report["applied"]
    assert os.path.exists(old)


def test_age_eviction(tmp_path):
    old = _make(tmp_path, "old.json", 100, age=7_200)
    fresh = _make(tmp_path, "fresh.json", 100, age=60)
    report = prune_paths(
        [old, fresh], max_age_seconds=3_600, now=NOW, apply=True
    )
    assert report["selected"] == [old]
    assert report["removed"] == 1
    assert not os.path.exists(old)
    assert os.path.exists(fresh)


def test_size_eviction_oldest_first(tmp_path):
    oldest = _make(tmp_path, "a.json", 400, age=300)
    middle = _make(tmp_path, "b.json", 400, age=200)
    newest = _make(tmp_path, "c.json", 400, age=100)
    report = prune_paths(
        [oldest, middle, newest], max_size_bytes=500, now=NOW,
        apply=True,
    )
    assert report["selected"] == [oldest, middle]
    assert os.path.exists(newest)
    assert report["kept_bytes"] == 400


def test_age_and_size_compose(tmp_path):
    """Age evicts first; size then trims the survivors."""
    ancient = _make(tmp_path, "ancient.json", 10, age=10_000)
    big = _make(tmp_path, "big.json", 900, age=200)
    small = _make(tmp_path, "small.json", 100, age=100)
    report = prune_paths(
        [ancient, big, small],
        max_age_seconds=3_600, max_size_bytes=500, now=NOW,
    )
    assert sorted(report["selected"]) == sorted([ancient, big])
    assert report["kept"] == 1


def test_missing_paths_skipped(tmp_path):
    present = _make(tmp_path, "here.json", 10, age=10)
    report = prune_paths(
        [str(tmp_path / "ghost.json"), present],
        max_age_seconds=3_600, now=NOW,
    )
    assert report["examined"] == 1
    assert report["selected"] == []


def test_no_limits_selects_nothing(tmp_path):
    path = _make(tmp_path, "a.json", 10, age=10_000)
    report = prune_paths([path], now=NOW, apply=True)
    assert report["selected"] == []
    assert os.path.exists(path)


def test_cli_prune_dry_run_then_apply(tmp_path, capsys):
    """The `cache prune` subcommand wires through to real stores."""
    from repro.experiments.cli import main
    from repro.experiments.runner import (
        ExperimentSettings, clear_results, run_benchmark,
    )
    from repro.experiments.store import ResultStore, set_store
    from repro.config import (
        SchedulingModel, SpeculationPolicy, continuous_window_64,
    )

    store_dir = tmp_path / "results"
    store = set_store(store_dir)
    config = continuous_window_64(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    run_benchmark(
        "132.ijpeg", config,
        ExperimentSettings(timing_instructions=1000,
                           warmup_instructions=500),
    )
    assert len(list(store.entries())) == 1
    set_store(None)
    clear_results()

    rc = main([
        "cache", "prune", "--path", str(store_dir),
        "--trace-path", str(tmp_path / "traces"),
        "--max-age", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "would prune 1/1" in out
    assert "dry run" in out
    assert len(list(ResultStore(store_dir).entries())) == 1

    rc = main([
        "cache", "prune", "--path", str(store_dir),
        "--trace-path", str(tmp_path / "traces"),
        "--max-age", "0", "--apply", "--results-only",
    ])
    assert rc == 0
    assert "pruned 1/1" in capsys.readouterr().out
    assert len(list(ResultStore(store_dir).entries())) == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-size", "-1"], "--max-size must be a finite number >= 0"),
        (["--max-age", "-0.5"], "--max-age must be a finite number >= 0"),
        (["--max-size", "inf"], "--max-size must be a finite number >= 0"),
        ([], "nothing to do"),
        (
            ["--max-age", "1", "--results-only", "--traces-only"],
            "exclusive",
        ),
    ],
    ids=[
        "negative-size", "negative-age", "infinite-size", "no-limit",
        "both-only",
    ],
)
def test_cli_prune_rejects_bad_limits(tmp_path, capsys, flags, message):
    """A bad limit is a usage error (exit 2), never a plan: at -1 MiB
    or -0.5 days every entry would be selected, and an infinite size
    cannot be converted to bytes."""
    from repro.experiments.cli import main
    from repro.experiments.store import ResultStore

    store = ResultStore(tmp_path / "results")
    entry = store._path_for("ab" * 32)
    os.makedirs(os.path.dirname(entry))
    with open(entry, "w") as handle:
        handle.write("{}")
    assert list(store.entries()) == [entry]

    with pytest.raises(SystemExit) as excinfo:
        main([
            "cache", "prune", "--path", str(store.root),
            "--trace-path", str(tmp_path / "traces"), "--apply",
            *flags,
        ])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "prune" not in captured.out
    assert os.path.exists(entry)
