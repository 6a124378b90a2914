"""Tests for the experiment runner (caching, warm-up plan)."""

import pytest

from repro.config import (
    continuous_window_128,
    split_window,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.experiments.runner import (
    ExperimentSettings,
    clear_results,
    run_benchmark,
    run_matrix,
)

_SETTINGS = ExperimentSettings(
    timing_instructions=1500, warmup_instructions=1000
)


def setup_function(_):
    clear_results()


@pytest.mark.parametrize("field, value", [
    ("timing_instructions", 0),
    ("warmup_instructions", -1),
    ("observation", 0),
], ids=["timing_instructions", "warmup_instructions", "observation"])
def test_settings_reject_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentSettings(**{field: value})


def test_run_benchmark_commits_timed_instructions():
    cfg = continuous_window_128()
    result = run_benchmark("132.ijpeg", cfg, _SETTINGS)
    assert result.committed == _SETTINGS.timing_instructions
    assert result.cycles > 0


def test_result_caching():
    cfg = continuous_window_128()
    a = run_benchmark("132.ijpeg", cfg, _SETTINGS)
    b = run_benchmark("132.ijpeg", cfg, _SETTINGS)
    assert a is b
    clear_results()
    c = run_benchmark("132.ijpeg", cfg, _SETTINGS)
    assert c is not a


def test_distinct_configs_not_conflated():
    no = run_benchmark("132.ijpeg", continuous_window_128(), _SETTINGS)
    oracle = run_benchmark(
        "132.ijpeg",
        continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.ORACLE
        ),
        _SETTINGS,
    )
    assert no is not oracle
    assert oracle.ipc >= no.ipc


def test_split_config_routed_to_split_model():
    result = run_benchmark(
        "132.ijpeg",
        split_window(SchedulingModel.AS, SpeculationPolicy.NAIVE),
        _SETTINGS,
    )
    assert result.config_label.startswith("split")
    assert result.committed == _SETTINGS.trace_length


def test_run_benchmark_seeds_vary_but_agree():
    from repro.experiments.runner import run_benchmark_seeds
    from repro.stats import mean_and_spread

    results = run_benchmark_seeds(
        "132.ijpeg", continuous_window_128(), _SETTINGS, seeds=(0, 1, 2)
    )
    assert len(results) == 3
    ipcs = [r.ipc for r in results]
    # Different seeds give different traces...
    assert len(set(ipcs)) > 1
    # ...but statistically similar machines.
    mean, spread = mean_and_spread(ipcs)
    assert spread < 0.4 * mean


def test_run_benchmark_seeds_preserves_every_settings_field(
    monkeypatch,
):
    """The per-seed settings must be a full copy: every field except
    ``seed`` carried over (dataclasses.replace, not a hand-copy that
    silently drops fields added later)."""
    import dataclasses

    from repro.experiments import runner as runner_mod
    from repro.experiments.runner import run_benchmark_seeds

    seen = []

    def fake_run_benchmark(name, config, settings):
        seen.append(settings)
        from repro.core.result import SimResult
        return SimResult(cycles=1, committed=1)

    monkeypatch.setattr(
        runner_mod, "run_benchmark", fake_run_benchmark
    )
    base = ExperimentSettings(
        timing_instructions=1500,
        warmup_instructions=1000,
        seed=42,
        paper_sampling=True,
        observation=777,
    )
    run_benchmark_seeds(
        "132.ijpeg", continuous_window_128(), base, seeds=(5, 6)
    )
    assert [s.seed for s in seen] == [5, 6]
    for settings in seen:
        for field in dataclasses.fields(ExperimentSettings):
            if field.name == "seed":
                continue
            assert getattr(settings, field.name) == getattr(
                base, field.name
            ), field.name


def test_run_matrix_telemetry(tmp_path):
    from repro.experiments.telemetry import read_telemetry

    tele = tmp_path / "run.jsonl"
    run_matrix(
        ("132.ijpeg",), {"NO": continuous_window_128()}, _SETTINGS,
        telemetry=str(tele),
    )
    events = read_telemetry(tele)
    assert [e["event"] for e in events] == [
        "matrix_start", "shard_start", "shard_finish", "matrix_finish",
    ]
    assert events[0]["mode"] == "serial"
    assert events[-1]["simulations"] == 1
    # A warm re-run in the same process is all memory hits.
    tele2 = tmp_path / "warm.jsonl"
    run_matrix(
        ("132.ijpeg",), {"NO": continuous_window_128()}, _SETTINGS,
        telemetry=str(tele2),
    )
    warm = read_telemetry(tele2)
    assert warm[-1]["simulations"] == 0
    assert warm[-1]["memory_hits"] == 1


def test_run_matrix_shape():
    configs = {
        "NO": continuous_window_128(),
        "ORACLE": continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.ORACLE
        ),
    }
    matrix = run_matrix(("132.ijpeg", "107.mgrid"), configs, _SETTINGS)
    assert set(matrix) == {"NO", "ORACLE"}
    assert set(matrix["NO"]) == {"132.ijpeg", "107.mgrid"}


def _observed(config):
    import dataclasses

    return dataclasses.replace(config, observe=True)


def test_plain_request_after_observed_is_a_memory_hit():
    from repro.experiments.runner import cache_stats

    config = continuous_window_128()
    observed = run_benchmark("132.ijpeg", _observed(config), _SETTINGS)
    assert "observe" in observed.extra
    held = dict(observed.extra)

    plain = run_benchmark("132.ijpeg", config, _SETTINGS)
    stats = cache_stats()
    assert (stats.simulations, stats.memory_hits) == (1, 1)
    assert "observe" not in plain.extra
    assert plain.cycles == observed.cycles
    assert plain.committed == observed.committed
    # The memo still holds the observed result, untouched.
    assert observed.extra == held
    again = run_benchmark("132.ijpeg", _observed(config), _SETTINGS)
    assert again is observed
    assert cache_stats().simulations == 1


def test_planned_cell_is_simulated_observed_at_its_first_request():
    from repro.experiments.runner import (
        Cells, cache_stats, observe_planned, plan_cells,
    )

    config = continuous_window_128()
    cells = plan_cells(
        [Cells({"plain": config}, ("132.ijpeg", "107.mgrid")),
         Cells({"observed": _observed(config)}, ("132.ijpeg",))],
        _SETTINGS,
    )
    assert len(cells) == 2
    with observe_planned(cells):
        plain = run_benchmark("132.ijpeg", config, _SETTINGS)
        run_benchmark("107.mgrid", config, _SETTINGS)
        observed = run_benchmark("132.ijpeg", _observed(config), _SETTINGS)
    assert "observe" not in plain.extra
    assert "observe" in observed.extra
    stats = cache_stats()
    assert (stats.simulations, stats.memory_hits) == (2, 1)
    # The plan ends with its block: a new plain cell simulates plain.
    clear_results()
    assert "observe" not in run_benchmark(
        "132.ijpeg", config, _SETTINGS
    ).extra


def test_parallel_fold_keeps_an_observed_result():
    from repro.experiments import runner
    from repro.experiments.parallel import run_matrix_parallel

    config = continuous_window_128()
    observed = run_benchmark("132.ijpeg", _observed(config), _SETTINGS)
    out = run_matrix_parallel(
        ("132.ijpeg",), {"plain": config}, _SETTINGS, workers=1
    )
    assert "observe" not in out["plain"]["132.ijpeg"].extra
    key = ("132.ijpeg", _SETTINGS, runner._config_key(config))
    assert runner._result_cache[key] is observed


def test_failing_simulation_is_noted_with_its_cell(monkeypatch):
    """An exception that leaves a simulation keeps its type and message
    and gains a ``cell BENCH / LABEL`` note, which ``pop_cell_note``
    takes back off."""
    from repro.core.processor import Processor
    from repro.experiments.runner import pop_cell_note

    def planted(self, plan=None):
        raise ValueError("planted")

    monkeypatch.setattr(Processor, "run", planted)
    config = continuous_window_128()
    with pytest.raises(ValueError) as excinfo:
        run_benchmark("132.ijpeg", config, _SETTINGS)
    exc = excinfo.value
    assert exc.args == ("planted",)
    assert exc.__notes__ == [f"cell 132.ijpeg / {config.label}"]
    assert pop_cell_note(exc) == f"132.ijpeg / {config.label}"
    assert not hasattr(exc, "__notes__")
    assert pop_cell_note(exc) is None


def test_every_machine_setting_keys_the_cell(tmp_path):
    """Machines that differ only outside the preset fields (here the
    redirect penalty and the fetch width) are distinct cells, in the
    memo and in the result store."""
    import dataclasses

    from repro.core.processor import Processor
    from repro.experiments import runner
    from repro.experiments.store import set_store
    from repro.workloads.catalog import get_dependence_info, get_trace

    settings = ExperimentSettings(2_000, 1_000)
    base = continuous_window_128(SchedulingModel.NAS, SpeculationPolicy.NAIVE)
    variants = (
        dataclasses.replace(base, branch_redirect_penalty=40),
        dataclasses.replace(
            base, fetch=dataclasses.replace(base.fetch, width=2)
        ),
    )
    plan = runner._plan_for("126.gcc", settings)
    trace = get_trace("126.gcc", plan.length, settings.seed)
    direct = [
        Processor(config, trace, get_dependence_info(trace)).run(plan).cycles
        for config in variants
    ]

    def cycles(config):
        return run_benchmark("126.gcc", config, settings).cycles

    set_store(None)
    assert cycles(base) not in direct
    assert [cycles(config) for config in variants] == direct

    set_store(str(tmp_path))
    try:
        clear_results()
        cycles(base)
        clear_results()
        assert [cycles(config) for config in variants] == direct
        assert runner.cache_stats().simulations == 2
    finally:
        set_store(None)
