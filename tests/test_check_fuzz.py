"""Tests for the metamorphic design-space fuzzer and its corpus."""

import json
import os
import random

import pytest

from repro.check.fuzz import (
    AS_POLICIES,
    CORPUS_VERSION,
    DEFAULT_BENCHMARKS,
    FuzzCell,
    NAS_POLICIES,
    fuzz,
    load_corpus,
    minimize_cell,
    run_cell,
    sample_cell,
    save_corpus,
)
from repro.experiments.runner import clear_results

COMMITTED_CORPUS = os.path.join(
    os.path.dirname(__file__), "corpus", "fuzz_corpus.json"
)


def setup_function(_):
    clear_results()


def test_cell_policy_families():
    nas = FuzzCell("126.gcc", 0, 128, "NAS", 0, 1500, 500)
    as_ = FuzzCell("126.gcc", 0, 128, "AS", 1, 1500, 500)
    assert tuple(nas.policies()) == NAS_POLICIES
    assert tuple(as_.policies()) == AS_POLICIES
    config = as_.config("NAV")
    assert config.memdep.scheduling.value == "AS"
    assert config.memdep.addr_scheduler_latency == 1


def test_cell_dict_roundtrip():
    cell = FuzzCell("099.go", 3, 64, "AS", 2, 2500, 1000)
    assert FuzzCell.from_dict(cell.to_dict()) == cell


def test_sample_cell_is_deterministic_and_in_pools():
    cells = [sample_cell(random.Random(42)) for _ in range(5)]
    assert cells == [sample_cell(random.Random(42)) for _ in range(5)]
    for cell in cells:
        assert cell.benchmark in DEFAULT_BENCHMARKS
        assert cell.scheduling in ("NAS", "AS")
        if cell.scheduling == "NAS":
            assert cell.latency == 0


def test_committed_corpus_loads_and_spans_the_design_space():
    cells = load_corpus(COMMITTED_CORPUS)
    assert len(cells) >= 6
    assert {c.scheduling for c in cells} == {"NAS", "AS"}
    assert {c.window for c in cells} == {64, 128}


def test_committed_corpus_cells_still_pass():
    # Two representative cells (one per scheduling model) — CI replays
    # the full corpus in the check-fuzz job.
    cells = load_corpus(COMMITTED_CORPUS)
    nas = next(c for c in cells if c.scheduling == "NAS")
    as_ = next(c for c in cells if c.scheduling == "AS")
    for cell in (nas, as_):
        small = FuzzCell(**{
            **cell.to_dict(), "timing": 1500, "warmup": 500,
        })
        assert run_cell(small) == []


def test_corpus_io_roundtrip(tmp_path):
    path = str(tmp_path / "corpus.json")
    cells = [
        FuzzCell("126.gcc", 0, 128, "NAS", 0, 1500, 500),
        FuzzCell("102.swim", 1, 64, "AS", 2, 2500, 1000),
    ]
    save_corpus(path, cells)
    assert load_corpus(path) == cells
    doc = json.loads(open(path).read())
    assert doc["version"] == CORPUS_VERSION


def test_corpus_version_mismatch_rejected(tmp_path):
    path = tmp_path / "stale.json"
    path.write_text('{"version": 0, "cells": []}')
    with pytest.raises(ValueError):
        load_corpus(str(path))


def test_fuzz_fixed_seed_budget_runs_clean():
    result = fuzz(budget=1, rng_seed=11)
    assert result.ok
    assert result.cells_run == 1
    assert result.minimized == []


def test_relations_catch_planted_inconsistencies(monkeypatch):
    """Doctored results must trip the metamorphic relations."""
    from repro.core.result import SimResult
    from repro.experiments import runner

    def doctored(benchmark, config, settings):
        policy = config.memdep.policy.value
        result = SimResult(
            benchmark=benchmark, cycles=1_000, committed=1_000,
            committed_loads=250, committed_stores=125,
            committed_branches=100,
        )
        if policy == "NO":
            result.misspeculations = 3      # R2: NO never squashes
            result.squashed_instructions = 9
        if policy == "NAV":
            result.committed = 1_001        # R1: commit stream differs
            result.cycles = 500             # R3: IPC above ORACLE
        if policy == "SEL":
            result.squashed_instructions = 5  # R4: squash w/o missp
        return result

    monkeypatch.setattr(runner, "run_benchmark", doctored)
    failures = run_cell(FuzzCell("126.gcc", 0, 128, "NAS", 0, 1500, 500))
    relations = {f["relation"] for f in failures}
    assert {
        "commit-equality", "nonspeculative-cleanliness",
        "oracle-dominance", "squash-accounting",
    } <= relations


def test_minimize_shrinks_while_failure_persists(monkeypatch):
    # ``repro.check`` re-exports the ``fuzz`` *function* under the
    # submodule's name, so fetch the real module for patching.
    import importlib

    fuzz_mod = importlib.import_module("repro.check.fuzz")

    # Pretend every cell with timing above 500 fails.
    monkeypatch.setattr(
        fuzz_mod, "run_cell",
        lambda cell, *a, **k: (
            [{"relation": "fake", "cell": cell.to_dict(), "detail": ""}]
            if cell.timing > 500 else []
        ),
    )
    big = FuzzCell("126.gcc", 0, 128, "NAS", 0, 4000, 2000)
    small = minimize_cell(big)
    assert small.timing < big.timing
    assert fuzz_mod.run_cell(small)  # still reproduces


# -- R6: split-window cells ------------------------------------------


def _split_cell(**overrides):
    base = dict(
        benchmark="126.gcc", seed=0, window=128, scheduling="AS",
        latency=0, timing=1500, warmup=500,
        split_units=4, split_task=32, split_bandwidth=0,
    )
    base.update(overrides)
    return FuzzCell(**base)


def test_split_cell_dict_roundtrip_and_backward_compat():
    cell = _split_cell(split_bandwidth=2)
    assert FuzzCell.from_dict(cell.to_dict()) == cell
    # Continuous-window cells serialize exactly as before the split
    # fields existed, so CORPUS_VERSION 1 files stay valid both ways.
    continuous = FuzzCell("126.gcc", 0, 128, "NAS", 0, 1500, 500)
    doc = continuous.to_dict()
    assert "split_units" not in doc
    assert FuzzCell.from_dict(doc) == continuous


def test_split_cell_builds_split_config():
    cell = _split_cell(split_bandwidth=2, latency=1)
    config = cell.config("NAV", latency=1)
    assert config.split.enabled
    assert config.split.num_units == 4
    assert config.split.task_size == 32
    assert config.split.sync_bandwidth == 2
    assert config.memdep.addr_scheduler_latency == 1
    assert tuple(cell.policies()) == ("NAV",)


def test_split_cell_passes_r6_relations():
    assert run_cell(_split_cell()) == []


def test_sample_cell_emits_split_cells():
    cells = [sample_cell(random.Random(seed)) for seed in range(40)]
    split = [c for c in cells if c.split_units]
    assert split  # the sampler reaches the split design space
    for cell in split:
        assert cell.scheduling == "AS"  # NAS has no latency axis
        assert cell.split_units in (2, 4, 8)
        assert cell.split_task in (16, 32)
