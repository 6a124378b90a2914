"""A finished simulation leaves no cyclic garbage.

Window entries link producers, waiters and consumers both ways; commit
and squash drop those links, and the L1 caches hold no reference back
to their hierarchy. So everything a run allocates is freed by
reference counting, and a collection after the run finds nothing.
That holds for a run that saves to the result store and for a run
with every checker attached too.
"""

import dataclasses
import gc

import pytest

from repro.check import check_benchmark
from repro.config import (
    SchedulingModel,
    SpeculationPolicy,
    continuous_window_128,
    split_window,
)
from repro.experiments.runner import (
    ExperimentSettings,
    clear_results,
    run_benchmark,
)
from repro.experiments.store import ResultStore, set_store

_SETTINGS = ExperimentSettings(
    timing_instructions=1000, warmup_instructions=500
)
_NAS = SchedulingModel.NAS
_NAV = SpeculationPolicy.NAIVE

#: label -> (config, whether the cell must miss-speculate)
CELLS = {
    "NAS/NAV": (continuous_window_128(_NAS, _NAV), True),
    "NAS/NAV:selective": (
        continuous_window_128(_NAS, _NAV, recovery="selective"), True
    ),
    "AS/NAV": (continuous_window_128(SchedulingModel.AS, _NAV), False),
    "NAS/SYNC": (
        continuous_window_128(_NAS, SpeculationPolicy.SYNC), False
    ),
    "NAS/NAV:observed": (
        dataclasses.replace(continuous_window_128(_NAS, _NAV),
                            observe=True),
        True,
    ),
    "split": (split_window(), False),
}


def _unreachable(run):
    """``(value, unreachable)`` of *run*'s second call: what it returns
    and the objects a collection then finds. The first call acquires
    the trace and fills lazy module state."""
    run()
    clear_results()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        value = run()
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    clear_results()
    return value, unreachable


@pytest.mark.parametrize("label", list(CELLS))
def test_run_leaves_no_cyclic_garbage(label):
    config, squashes = CELLS[label]
    result, unreachable = _unreachable(
        lambda: run_benchmark("126.gcc", config, _SETTINGS)
    )
    assert result.committed > 0
    if squashes:
        assert result.misspeculations > 0
    assert unreachable == 0


def test_store_backed_run_leaves_no_cyclic_garbage(tmp_path):
    config, _ = CELLS["NAS/NAV"]
    # A fresh store per call, so the measured call saves its result.
    stores = iter((tmp_path / "first", tmp_path / "second"))

    def run():
        set_store(next(stores))
        return run_benchmark("126.gcc", config, _SETTINGS)

    try:
        result, unreachable = _unreachable(run)
    finally:
        set_store(None)
    assert result.committed > 0
    assert len(ResultStore(tmp_path / "second")) == 1
    assert unreachable == 0


def test_checked_run_leaves_no_cyclic_garbage():
    config, _ = CELLS["NAS/NAV"]
    outcome, unreachable = _unreachable(
        lambda: check_benchmark("126.gcc", config, _SETTINGS)
    )
    assert outcome.ok
    assert outcome.result.misspeculations > 0
    assert unreachable == 0
