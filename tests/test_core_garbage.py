"""A finished simulation leaves no cyclic garbage.

Window entries link producers, waiters and consumers both ways; commit
and squash drop those links, and the L1 caches hold no reference back
to their hierarchy. So everything a run allocates is freed by
reference counting, and a collection after the run finds nothing.
"""

import dataclasses
import gc

import pytest

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


@pytest.mark.parametrize("label", list(CELLS))
def test_run_leaves_no_cyclic_garbage(label):
    config, squashes = CELLS[label]
    # The first run acquires the trace and fills lazy module state.
    run_benchmark("126.gcc", config, _SETTINGS)
    clear_results()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_benchmark("126.gcc", config, _SETTINGS)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    clear_results()
    assert result.committed > 0
    if squashes:
        assert result.misspeculations > 0
    assert unreachable == 0
