"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
SRC = os.path.join(REPO, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def span(sid, parent, start, end, name="s"):
    return [sid, parent, name, start, end, "", None]


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, None, 0, 100),
        span(2, 1, 10, 60),
        span(3, 2, 20, 30),
        span(4, 2, 40, 55),
    ]
    assert tracing.self_times(spans) == {1: 50, 2: 25, 3: 10, 4: 15}
    assert tracing.self_time_residual(spans) == 0.0


def test_self_time_of_adjacent_and_overlapping_children():
    spans = [
        span(1, None, 0, 100),
        span(2, 1, 0, 40),     # adjacent to 3: no double count, no gap
        span(3, 1, 40, 70),
        span(4, 1, 60, 90),    # overlaps 3: the overlap counts once
        span(5, None, 100, 130),  # adjacent top-level span
    ]
    own = tracing.self_times(spans)
    assert own[1] == 100 - 90
    assert own[5] == 30
    assert (own[2], own[3], own[4]) == (40, 30, 30)


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [
    (10, None), (19, None), (20, 50.0), (40, 75.0), (112, 90.0),
    (199, 90.0), (200, 95.0), (486, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert spec.tail_percentile(n) == pct
    if pct is not None:
        values = list(range(n))
        got_pct, value = spec.tail(values)
        assert got_pct == pct
        assert sum(v > value for v in values) >= 10
        higher = [p for p in spec.TAIL_CANDIDATES if p > pct]
        for p in higher:
            assert sum(v > spec.nearest_rank(values, p) for v in values) < 10


# -- host-speed normalization -------------------------------------------------


def test_normalized_time_leaves_out_probes_and_rescales_each_stretch():
    n = speed.NOMINAL_NS
    probes = [
        (0, n),                  # full speed
        (10 * n, 11 * n),        # full speed
        (21 * n, 23 * n),        # half speed
        (33 * n, 35 * n),        # half speed
    ]
    # 9n at full speed, then 10n between a full- and a half-speed
    # probe (the faster one counts), then 10n at half speed.
    assert speed.normalized_s(probes, 0, 35 * n) * 1e9 == pytest.approx(
        9 * n + 10 * n + 5 * n)
    # Only the part of the interval between probes counts.
    assert speed.normalized_s(probes, 5 * n, 15 * n) * 1e9 == pytest.approx(
        5 * n + 4 * n)
    assert speed.normalized_s(probes[1:], 0, 5 * n) == 0.0


def test_an_interrupted_probe_does_not_slow_its_neighbours():
    n = speed.NOMINAL_NS
    probes = [(0, n), (10 * n, 16 * n), (26 * n, 27 * n)]
    assert speed.normalized_s(probes, 0, 27 * n) * 1e9 == pytest.approx(
        19 * n)


def test_meter_probes_at_most_once_per_interval():
    meter = speed.Meter()
    far = 10 ** 18
    meter.probes[-1] = (far, far)
    meter.tick()
    assert len(meter.probes) == 1
    meter.probes[-1] = (0, 0)
    meter.tick()
    assert len(meter.probes) == 2


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = spec.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert spec.median(values) == statistics.median(values)


# -- BENCHMARK.json ----------------------------------------------------------


def test_committed_definition_is_valid():
    definition = spec.load_spec()
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in definition[key]:
            assert spec.NAME_RE.match(entry["name"])
    assert len(definition["end_to_end"]) <= 16
    assert len(definition["per_layer"]) <= 128
    assert set(spec.workload_names(definition)) == set(run.WORKLOADS)


@pytest.mark.parametrize("breakage", [
    lambda d: d["end_to_end"][0].update(name="bad name"),
    lambda d: d["end_to_end"][0].update(bound=0.3),
    lambda d: d["end_to_end"].extend(
        {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
        for i in range(16)),
    lambda d: d["per_layer"].extend(
        {"name": f"l{i}", "unit": "s", "better": "lower"}
        for i in range(128)),
    lambda d: d["end_to_end"].__setitem__(slice(None), [
        m for m in d["end_to_end"] if m["name"] != "setup_s"]),
    lambda d: d["per_layer"].append(dict(d["per_layer"][0])),
    lambda d: d.update(extra=1),
    lambda d: d["workloads"][0].update(why="two\nlines"),
    lambda d: d.update(paths=["../elsewhere"]),
])
def test_malformed_definitions_are_refused(breakage):
    definition = copy.deepcopy(spec.load_spec())
    breakage(definition)
    with pytest.raises(spec.SpecError):
        spec.validate_spec(definition)


def test_per_layer_metrics_are_the_ones_measured():
    definition = spec.load_spec()
    measured = set(layers.layer_metrics([], {}, 1)) | {"trace_overhead_frac"}
    assert {m["name"] for m in definition["per_layer"]} == measured


def test_every_per_layer_metric_falls_under_one_map_row():
    definition = spec.load_spec()
    end_to_end = {m["name"] for m in definition["end_to_end"]}
    workloads = set(spec.workload_names(definition))
    for row in layers.LAYER_MAP:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) <= workloads
        assert set(row["not_on"]) <= workloads
        assert not set(row["on"]) & set(row["not_on"])
    for metric in definition["per_layer"]:
        rows = [r for r in layers.LAYER_MAP
                if metric["name"].startswith(r["prefix"])]
        assert len(rows) == 1, metric["name"]
    for row in layers.LAYER_MAP:
        assert any(m["name"].startswith(row["prefix"])
                   for m in definition["per_layer"]), row["prefix"]


def test_artifacts_and_sweep_match_the_program():
    from repro.experiments import cli
    from repro.workloads.spec95 import ALL_BENCHMARKS

    assert layers.ARTIFACTS == cli._ORDER
    assert set(run.SPLIT_ARTIFACTS) <= set(cli.ARTIFACTS)
    assert child.BENCHMARKS == ALL_BENCHMARKS
    names = child.cell_names()
    assert len(names) == len(set(names)) == 7 * 18
    for design in child.DESIGNS:
        config = child._config(*design)
        assert config.window.size == design[0]
        assert config.memdep.policy.value == design[2]


# -- tracing wrappers ---------------------------------------------------------


def _snapshot():
    import repro.core.vector  # noqa: F401
    import repro.eventsim.splitwindow  # noqa: F401
    import repro.experiments.cli  # noqa: F401

    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "repro" or n.startswith("repro."))]
    for module_name, cls_name, _ in tracing.CORES:
        owners.append(getattr(sys.modules[module_name], cls_name))
    owners.append(sys.modules["repro.experiments.store"].ResultStore)
    owners.append(sys.modules["repro.experiments.report"].ExperimentReport)
    state = [(owner, dict(vars(owner))) for owner in owners]
    artifacts = repro.experiments.cli.ARTIFACTS
    state.append((artifacts, dict(artifacts)))
    return state


def test_install_wraps_and_restore_puts_back_every_attribute():
    from repro.experiments import runner
    from repro.workloads import catalog

    before = _snapshot()
    original = runner.run_benchmark
    recorder = tracing.Recorder("test")
    with tracing.install(recorder):
        assert runner.run_benchmark is not original
        catalog.get_trace("099.go", 300, 0)
    assert [s[tracing.NAME] for s in recorder.spans] == ["trace.get_trace"]
    _assert_unchanged(before)


def _assert_unchanged(before):
    for owner, saved in before:
        current = owner if isinstance(owner, dict) else vars(owner)
        assert set(current) == set(saved)
        for key, value in saved.items():
            assert current[key] is value, (owner, key)


def test_meter_wrappers_probe_and_are_put_back():
    from repro.experiments import cli, runner, tables

    before = _snapshot()
    original = runner.run_benchmark
    meter = speed.Meter()
    report = {}
    undo = child._install_meter(meter, report)
    try:
        assert runner.run_benchmark is not original
        assert tables.run_benchmark is runner.run_benchmark
        assert cli.ARTIFACTS["table1"] is not before[-1][1]["table1"]
        meter.probes[-1] = (0, 0)
        runner.run_benchmark("099.go", child._config(128, "NAS", "NO", 0),
                             runner.ExperimentSettings(40, 20, 0))
        assert len(meter.probes) >= 2
    finally:
        undo.restore()
    assert "setup_end_ns" not in report
    _assert_unchanged(before)


# -- compare verdicts ---------------------------------------------------------


@pytest.mark.parametrize("change, expected", [
    ([8.0 + 0.01 * i for i in range(10)], "improved"),
    ([10.0 + 0.01 * i for i in range(10)], "no-worse"),
    ([12.0 + 0.01 * i for i in range(10)], "regressed"),
])
def test_compare_verdicts(change, expected):
    base = [10.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(base, change, "lower", 0.1)[0] == expected


def test_compare_reports_wide_spread_as_unresolved():
    base = [5.0, 15.0] * 5
    change = [6.0, 14.0] * 5
    assert compare.verdict(base, change, "lower", 0.1)[0] == "unresolved"


# -- end to end ----------------------------------------------------------------


def _run(args, cwd=REPO):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench",
                                                        "run.py")] + args,
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric(trace, key):
    proc = _run(["--smoke", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    definition = spec.load_spec()
    wanted = {m["name"]: m["unit"] for m in definition[key]}
    assert set(result["metrics"]) == set(spec.workload_names(definition))
    for block in result["metrics"].values():
        assert {k: v["unit"] for k, v in block.items()} == wanted


def test_smoke_cannot_be_recorded():
    proc = _run(["--smoke", "--record", "nope"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not os.path.exists(os.path.join(BENCH, "records", "nope.json"))


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "paper-warm", "--seed", "3", "--seconds",
                 "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
