"""The default observer's whole summary is pinned, not just its timing.

``tests/test_observe_parity.py`` pins the timing fields an observed run
produces and the stall accountant's conservation identity. This suite
pins everything else the default bus reports: the stall causes, the
occupancy histograms, ``skipped_cycles``, the event count, the bus
counters and high-water marks. Every golden-parity config is run on the
first golden benchmark with :func:`default_observer` attached, and its
``extra["observe"]`` must equal the committed fixture.

Regenerate after an intentional change to what the observer reports
with::

    PYTHONPATH=src python -m tests.test_observe_summary --regen
"""

import json
import os
import sys

import pytest

from repro.observe import default_observer

from tests.test_golden_parity import BENCHMARKS, parity_configs
from tests.test_observe_parity import _observed_fields

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "observe_summary.json"
)

#: The benchmark every config is observed on.
_BENCHMARK = BENCHMARKS[0]


def observed_summary(label):
    """``extra["observe"]`` of one default-observer run of *label*."""
    benchmark, warm, length = _BENCHMARK
    config = parity_configs()[label]
    result, _ = _observed_fields(
        benchmark, warm, length, config, default_observer(config)
    )
    return result.extra["observe"]


@pytest.fixture(scope="module")
def pinned():
    if not os.path.exists(FIXTURE):
        pytest.fail(
            f"missing observer-summary fixture {FIXTURE}; regenerate "
            "with `PYTHONPATH=src python -m tests.test_observe_summary "
            "--regen`"
        )
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("label", sorted(parity_configs()))
def test_default_observer_summary_is_pinned(pinned, label):
    assert pinned["benchmark"] == list(_BENCHMARK)
    expected = pinned["cells"][label]
    actual = observed_summary(label)
    assert actual == expected, (
        f"{label}: observer summary drifted in "
        + ", ".join(
            key for key in sorted(set(expected) | set(actual))
            if expected.get(key) != actual.get(key)
        )
    )


def regenerate():
    cells = {}
    for label in sorted(parity_configs()):
        cells[label] = observed_summary(label)
        print(f"  {label}: events={cells[label]['events']}")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": list(_BENCHMARK), "cells": cells},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {FIXTURE} ({len(cells)} cells)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
