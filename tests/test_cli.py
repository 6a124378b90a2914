"""Tests for the experiment CLI."""

import json

import pytest

from repro.experiments import cli
from repro.experiments.runner import clear_results
from repro.experiments.store import set_store


def setup_function(_):
    clear_results()
    set_store(None)


def teardown_function(_):
    set_store(None)
    clear_results()


def test_cli_runs_one_artifact(capsys, monkeypatch):
    # Shrink the benchmark set so the CLI test stays fast.
    from repro.experiments import tables

    original = tables.table1

    def small_table1(settings):
        return original(settings, benchmarks=("132.ijpeg",))

    monkeypatch.setitem(cli.ARTIFACTS, "table1", small_table1)
    rc = cli.main(["table1", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Table 1" in out
    assert "regenerated in" in out


def test_cli_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        cli.main(["not-an-artifact"])


def test_cli_settings_flags(monkeypatch):
    captured = {}

    def fake_table1(settings):
        captured["settings"] = settings
        from repro.experiments.report import ExperimentReport
        return ExperimentReport("Table 1", "t", ("a",), [("x",)])

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    cli.main(["table1", "--timing", "1234", "--warmup", "567",
              "--seed", "9"])
    assert captured["settings"].timing_instructions == 1234
    assert captured["settings"].warmup_instructions == 567
    assert captured["settings"].seed == 9


def test_cli_export_flags(monkeypatch, tmp_path):
    def fake_table1(settings):
        from repro.experiments.report import ExperimentReport
        return ExperimentReport(
            "Table 1", "t", ("a", "b"), [("x", 1)], data={"x": 1}
        )

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    json_dir = tmp_path / "json"
    csv_dir = tmp_path / "csv"
    cli.main([
        "table1", "--quick",
        "--json", str(json_dir), "--csv", str(csv_dir),
    ])
    import json as jsonlib
    payload = jsonlib.loads((json_dir / "table1.json").read_text())
    assert payload["experiment"] == "Table 1"
    assert (csv_dir / "table1.csv").read_text().startswith("a,b")


def test_cli_quick_flag(monkeypatch):
    captured = {}

    def fake_table1(settings):
        captured["settings"] = settings
        from repro.experiments.report import ExperimentReport
        return ExperimentReport("Table 1", "t", ("a",), [("x",)])

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    cli.main(["table1", "--quick"])
    assert captured["settings"].timing_instructions == 6000


def test_cli_store_and_telemetry_flags(monkeypatch, tmp_path):
    from repro.experiments.store import active_store

    def fake_table1(settings):
        from repro.experiments.report import ExperimentReport
        return ExperimentReport("Table 1", "t", ("a",), [("x",)])

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    store_dir = tmp_path / "store"
    tele = tmp_path / "run.jsonl"
    rc = cli.main([
        "table1", "--quick",
        "--store", str(store_dir), "--telemetry", str(tele),
    ])
    assert rc == 0
    assert active_store() is not None
    assert active_store().root == str(store_dir)
    from repro.experiments.telemetry import read_telemetry

    names = [e["event"] for e in read_telemetry(tele)]
    assert names == ["artifact_start", "artifact_finish"]


def test_cache_subcommand_reports_and_clears(capsys, tmp_path):
    from repro.config import continuous_window_128
    from repro.core.result import SimResult
    from repro.experiments.runner import (
        ExperimentSettings, _config_key,
    )
    from repro.experiments.store import ResultStore

    store = ResultStore(tmp_path)
    store.save(
        "132.ijpeg",
        ExperimentSettings(100, 100),
        _config_key(continuous_window_128()),
        SimResult(cycles=10, committed=20),
    )

    rc = cli.main(["cache", "--path", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "entries         1" in out

    rc = cli.main(["cache", "--path", str(tmp_path), "--clear"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cleared 1" in out
    assert len(store) == 0


def test_status_subcommand(capsys, tmp_path):
    from repro.experiments.telemetry import TelemetryWriter

    tele = tmp_path / "run.jsonl"
    with TelemetryWriter(tele) as writer:
        writer.emit("shard_start", benchmark="x", configs=["NO"])
        writer.emit(
            "shard_finish", benchmark="x", configs=["NO"], wall=1.0,
            worker=1, memory_hits=0, store_hits=2, simulations=2,
        )
        writer.emit(
            "matrix_finish", wall=1.2, memory_hits=0, store_hits=2,
            simulations=2,
        )

    rc = cli.main(["status", str(tele)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 simulated" in out
    assert "50.0% hit rate" in out

    rc = cli.main(["status", str(tele), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["simulations"] == 2
    assert payload["matrix_runs"] == 1


def test_status_prints_shard_lines_only_for_pooled_runs(capsys, tmp_path):
    """A serial run's stream has no shard events, so ``status`` prints
    no matrix, shard or shard wall-time line for it; ``--json`` keeps
    every key. A pooled run's stream prints all three."""
    from repro.experiments.telemetry import TelemetryWriter

    shard_lines = ("matrix runs", "shards ", "shard wall time")
    serial = tmp_path / "serial.jsonl"
    with TelemetryWriter(serial) as writer:
        writer.emit("artifact_start", artifact="figure7")
        writer.emit(
            "artifact_finish", artifact="figure7", wall=0.5,
            memory_hits=0, store_hits=0, simulations=26,
        )
    assert cli.main(["status", str(serial)]) == 0
    out = capsys.readouterr().out
    assert "26 simulated" in out
    assert not [line for line in shard_lines if line in out]

    assert cli.main(["status", str(serial), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["simulations"] == 26
    assert payload["matrix_runs"] == payload["shards_started"] == 0
    assert payload["wall_total"] == 0.0

    pooled = tmp_path / "pooled.jsonl"
    with TelemetryWriter(pooled) as writer:
        writer.emit("shard_start", benchmark="x", configs=["NO"])
        writer.emit(
            "shard_finish", benchmark="x", configs=["NO"], wall=1.0,
            worker=1, memory_hits=0, store_hits=0, simulations=2,
        )
        writer.emit(
            "matrix_finish", wall=1.2, memory_hits=0, store_hits=0,
            simulations=2,
        )
    assert cli.main(["status", str(pooled)]) == 0
    out = capsys.readouterr().out
    assert "matrix runs        1" in out
    assert "shards             1 finished / 1 started" in out
    assert "shard wall time    total 1.00s" in out


def test_status_subcommand_missing_file(capsys, tmp_path):
    rc = cli.main(["status", str(tmp_path / "absent.jsonl")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table3", "--timing", "0", "--warmup", "0"], "--timing must be >= 1"),
        (["table3", "--timing", "-5"], "--timing must be >= 1"),
        (["table3", "--warmup", "-3", "--timing", "50"],
         "--warmup must be >= 0"),
        (["figure1", "--parallel", "-2", "--timing", "60", "--warmup", "40"],
         "--parallel must be >= 0"),
        (["observe", "099.go", "--timing", "0"], "--timing must be >= 1"),
        (["observe", "099.go", "--warmup", "-1", "--timing", "60"],
         "--warmup must be >= 0"),
        (["observe", "099.go", "--latency", "-1"], "--latency must be >= 0"),
        (["observe", "099.go", "--limit", "0", "--timing", "60",
          "--warmup", "40"], "--limit must be >= 1"),
        (["check", "run", "099.go", "--timing", "0"],
         "--timing must be >= 1"),
        (["check", "run", "099.go", "--warmup", "-1", "--timing", "60"],
         "--warmup must be >= 0"),
        (["check", "run", "099.go", "--latency", "-1"],
         "--latency must be >= 0"),
        (["check", "run", "099.go", "--stride", "0", "--timing", "60",
          "--warmup", "40"], "--stride must be >= 1"),
        (["check", "fuzz", "--budget", "-1"], "--budget must be >= 0"),
    ],
    ids=["zero-timing", "negative-timing", "negative-warmup",
         "negative-parallel", "observe-zero-timing",
         "observe-negative-warmup", "observe-negative-latency",
         "observe-zero-limit", "check-run-zero-timing",
         "check-run-negative-warmup", "check-run-negative-latency",
         "check-run-zero-stride", "check-fuzz-negative-budget"],
)
def test_cli_rejects_bad_run_lengths(
    monkeypatch, capsys, tmp_path, argv, message
):
    """A run length, worker count, latency, record limit, stride or
    fuzz budget out of range is a usage error (exit 2), not a traceback
    from the sampler, a silent serial run or an empty run."""
    from repro.experiments.report import ExperimentReport

    # A command that wrongly runs writes its output here.
    monkeypatch.chdir(tmp_path)

    for name in ("table3", "figure1"):
        monkeypatch.setitem(
            cli.ARTIFACTS, name,
            lambda settings: ExperimentReport("T", "t", ("a",), [("x",)]),
        )
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["observe"], ["check", "run"]], ids=["observe", "check-run"]
)
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--latency", "1"], "--latency 1 needs --scheduling AS"),
        (["--scheduling", "AS", "--policy", "SYNC"],
         "--scheduling AS --policy SYNC"),
    ],
    ids=["latency-without-scheduler", "predictor-with-scheduler"],
)
def test_cell_flags_the_machine_rejects_are_usage_errors(
    monkeypatch, capsys, tmp_path, command, flags, message
):
    """A machine the config rejects (an address-scheduler latency with
    no address scheduler, a predictor policy with one) is a usage error
    (exit 2) naming the flags, not the config's ValueError traceback."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(command + ["099.go", *flags, "--timing", "60",
                            "--warmup", "0"])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


#: The run size of the planning tests below: big enough to run every
#: artifact, small enough for about a second of simulation.
_SMALL = ["--timing", "60", "--warmup", "40"]


def _finished(telemetry):
    from repro.experiments.telemetry import read_telemetry

    return {
        event["artifact"]: event["simulations"]
        for event in read_telemetry(telemetry)
        if event["event"] == "artifact_finish"
    }


@pytest.fixture(scope="module")
def serial_all(tmp_path_factory):
    """``all`` at :data:`_SMALL`, recording every request each artifact
    makes as ``(benchmark, config key, observed)``."""
    from repro.experiments import ablations, figures, runner, tables

    clear_results()
    set_store(None)
    out = tmp_path_factory.mktemp("serial")
    requests = {}
    current = []
    original = runner.run_benchmark

    def recording(name, config, settings, *args, **kwargs):
        requests.setdefault(current[-1], set()).add(
            (name, runner._config_key(config), config.observe)
        )
        return original(name, config, settings, *args, **kwargs)

    def tagged(artifact, render):
        def wrapper(settings):
            current.append(artifact)
            return render(settings)
        return wrapper

    patch = pytest.MonkeyPatch()
    for module in (figures, tables, ablations):
        patch.setattr(module, "run_benchmark", recording)
    for artifact, render in list(cli.ARTIFACTS.items()):
        patch.setitem(cli.ARTIFACTS, artifact, tagged(artifact, render))
    try:
        cli.main(["all", *_SMALL, "--json", str(out / "json"),
                  "--telemetry", str(out / "run.jsonl")])
        stats = runner.cache_stats()
    finally:
        patch.undo()
        clear_results()
    return {"out": out, "requests": requests, "stats": stats}


def test_all_requests_only_declared_cells(serial_all):
    from repro.experiments.runner import _config_key

    for artifact, requested in serial_all["requests"].items():
        declared = cli.CELLS[artifact]()
        assert requested == {
            (name, _config_key(config), config.observe)
            for config in declared.configs.values()
            for name in declared.benchmarks
        }, artifact
    assert set(serial_all["requests"]) == set(cli.CELLS)


def test_all_simulates_each_distinct_cell_once(serial_all):
    distinct = {
        (name, key)
        for requested in serial_all["requests"].values()
        for name, key, _ in requested
    }
    assert len(distinct) == 396
    assert serial_all["stats"].simulations == 396
    assert sum(_finished(serial_all["out"] / "run.jsonl").values()) == 396


def test_plan_is_lazy_and_observes_at_the_first_request(tmp_path):
    """Planning simulates nothing, with or without ``--parallel 1``;
    ``figure1``'s cells, which ``stalls`` observes later, are simulated
    observed when ``figure1`` asks."""
    from repro.experiments.runner import cache_stats

    render = cli.ARTIFACTS["figure1"]
    for extra in ([], ["--parallel", "1"]):
        clear_results()
        at_start = []

        def first(settings):
            at_start.append(cache_stats().simulations)
            return render(settings)

        telemetry = tmp_path / f"run{len(extra)}.jsonl"
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(cli.ARTIFACTS, "figure1", first)
            cli.main(["figure1", "stalls", *_SMALL, *extra,
                      "--telemetry", str(telemetry)])
        assert at_start == [0], extra
        # figure1: 4 designs x 18 benchmarks. stalls: 6 x 18, of which
        # figure1 already ran w64/w128 NO and ORACLE observed.
        assert _finished(telemetry) == {"figure1": 72, "stalls": 36}, extra


def test_parallel_all_renders_without_simulating(serial_all, tmp_path):
    telemetry = tmp_path / "run.jsonl"
    cli.main(["all", *_SMALL, "--parallel", "2",
              "--json", str(tmp_path / "json"),
              "--telemetry", str(telemetry)])
    finished = _finished(telemetry)
    assert set(finished) == set(cli.ARTIFACTS)
    assert set(finished.values()) == {0}
    serial = serial_all["out"] / "json"
    for path in sorted(serial.iterdir()):
        assert (tmp_path / "json" / path.name).read_bytes() == \
            path.read_bytes(), path.name


def test_parallel_all_fails_on_a_failing_cell(tmp_path, monkeypatch):
    """A cell that raises in the pool stops the run before any
    artifact starts, with an error naming the cell."""
    from repro.experiments.telemetry import read_telemetry
    from tests.test_experiments_parallel import plant_failing_cell

    declared = cli.CELLS["figure1"]()
    plant_failing_cell(monkeypatch, "107.mgrid", declared.configs["w64 NO"])
    telemetry = tmp_path / "run.jsonl"
    with pytest.raises(
        RuntimeError, match=r"cell 107\.mgrid / w64 NAS/NO #\d+: ValueError"
    ):
        cli.main(["figure1", *_SMALL, "--parallel", "2",
                  "--telemetry", str(telemetry)])
    events = [event["event"] for event in read_telemetry(telemetry)]
    assert "artifact_start" not in events
    assert events[-1] == "matrix_abort"


def test_serial_failing_cell_ends_in_artifact_abort(
    tmp_path, monkeypatch, capsys
):
    """A serial run whose cell raises records an ``artifact_abort``
    and re-raises the error unchanged; ``status`` counts the abort."""
    from repro.experiments.telemetry import read_telemetry
    from repro.splitwindow.processor import SplitWindowProcessor

    def planted(self):
        raise ValueError("planted")

    monkeypatch.setattr(SplitWindowProcessor, "run", planted)
    telemetry = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="^planted$"):
        cli.main(["figure7", *_SMALL, "--telemetry", str(telemetry)])
    events = read_telemetry(telemetry)
    assert [e["event"] for e in events] == [
        "artifact_start", "artifact_abort",
    ]
    assert {k: events[-1][k] for k in ("artifact", "reason", "error")} == {
        "artifact": "figure7", "reason": "ValueError", "error": "planted",
    }
    capsys.readouterr()
    assert cli.main(["status", str(telemetry)]) == 0
    assert "1 aborts" in capsys.readouterr().out


def test_serial_failing_cell_is_named(tmp_path, monkeypatch, capsys):
    """A serial run whose cell raises names the cell in its
    ``artifact_abort`` record and on stderr; the exception itself
    leaves unchanged."""
    from repro.experiments.telemetry import read_telemetry
    from repro.splitwindow.processor import SplitWindowProcessor

    failed = []

    def planted(self):
        assert self.config.split.enabled
        failed.append(f"{self.trace.name} / {self.config.label}")
        raise ValueError("planted")

    monkeypatch.setattr(SplitWindowProcessor, "run", planted)
    telemetry = tmp_path / "run.jsonl"
    with pytest.raises(ValueError, match="^planted$") as excinfo:
        cli.main(["figure7", *_SMALL, "--telemetry", str(telemetry)])
    assert type(excinfo.value) is ValueError
    assert excinfo.value.args == ("planted",)
    assert not hasattr(excinfo.value, "__notes__")
    assert len(failed) == 1
    abort = read_telemetry(telemetry)[-1]
    assert abort["event"] == "artifact_abort"
    assert abort["cell"] == failed[0]
    assert f"figure7: cell {failed[0]} raised ValueError" in (
        capsys.readouterr().err
    )


def test_parallel_reports_store_served_cells(tmp_path, capsys):
    """On a warm result store, ``--parallel`` says the store served
    every cell and nothing was simulated."""
    store = tmp_path / "store"
    cli.main(["figure1", *_SMALL, "--store", str(store)])
    clear_results()
    capsys.readouterr()
    cli.main(["figure1", *_SMALL, "--parallel", "2", "--store", str(store)])
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith(
        "  [72 cells of the requested artifacts with 2 workers"
    ), summary
    assert summary.endswith(": 0 simulated, 72 from the result store]"), (
        summary
    )
