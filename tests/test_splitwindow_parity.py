"""Golden numbers for the split-window machine.

Mirrors ``test_golden_parity.py``: a committed fixture pins the exact
``SimResult`` integers for a matrix of split-window cells, replayed on
:class:`repro.splitwindow.SplitWindowProcessor`:

* ideal-fabric cells over unit count x task size x scheduling/policy x
  scheduler latency;
* fabric cells (link latency, bounded bandwidth, banked memory) at the
  headline 4 x 32 organization, which also pin the fabric and bank
  counters the machine reports under ``extra["fabric"]``.

The fabric cells were recorded by the discrete-event machine this one
replaced, so they also pin that its delivery order and squash
cancellation carried over unchanged.

Every cell replays under both names the machine is reached by (see
``ENTRY_POINTS``); the ``-legacy``/``-eventsim`` id suffixes are those of
the two engines that were merged into it.

Regenerate the fixture (only for an intentional semantic change) with::

    PYTHONPATH=src python tests/test_splitwindow_parity.py --regen
"""

import json
import os
import sys

import pytest

from repro.config import SchedulingModel, SpeculationPolicy
from repro.config.presets import split_window
from repro.eventsim.splitwindow import EventSplitWindowProcessor
from repro.splitwindow import SplitWindowProcessor
from repro.trace.dependences import compute_dependence_info
from repro.workloads.catalog import get_trace

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "splitwindow_parity.json"
)

#: (benchmark, trace length) — one pointer-heavy integer stand-in, one
#: regular FP stand-in, same pair the continuous-window golden suite pins.
BENCHMARKS = (("126.gcc", 4_000), ("102.swim", 4_000))

#: id suffix -> name the split-window machine is reached by: its home
#: module, and the alias the benchmark harness imports (bench/child.py,
#: bench/tracing.py). Both must replay the pinned numbers.
ENTRY_POINTS = {
    "eventsim": EventSplitWindowProcessor,
    "legacy": SplitWindowProcessor,
}

#: Every integer field of SimResult that the split model produces.
FIELDS = (
    "cycles", "committed", "committed_loads", "committed_stores",
    "committed_branches", "misspeculations", "squashed_instructions",
    "false_dependence_loads", "true_dependence_loads",
    "false_dependence_latency", "branch_predictions",
    "branch_mispredictions", "load_forwards", "speculative_loads",
    "dcache_accesses", "dcache_misses", "icache_accesses",
    "icache_misses", "l2_accesses", "l2_misses",
)

#: Sync-fabric and bank counters, pinned for fabric cells only.
COUNTERS = (
    "fabric_posted", "fabric_queued", "fabric_max_queue_delay",
    "bank_accesses", "bank_conflicts", "bank_conflict_cycles",
)

#: label suffix -> fabric knobs of a fabric cell.
FABRIC_POINTS = {
    "link1": {"link_latency": 1},
    "link3": {"link_latency": 3},
    "bw1": {"sync_bandwidth": 1},
    "bw4": {"sync_bandwidth": 4},
    "banks1p1": {"mem_banks": 1, "bank_ports": 1},
    "banks4": {"mem_banks": 4},
    "link2bw1banks2": {
        "link_latency": 2, "sync_bandwidth": 1, "mem_banks": 2,
    },
    "banks2p2": {"mem_banks": 2, "bank_ports": 2},
}

#: label part -> (scheduling, policy, scheduler latency) for fabric cells.
FABRIC_SCHEDULES = {
    "AS-NAV-lat0": (SchedulingModel.AS, SpeculationPolicy.NAIVE, 0),
    "AS-NAV-lat2": (SchedulingModel.AS, SpeculationPolicy.NAIVE, 2),
    "NAS-NAV": (SchedulingModel.NAS, SpeculationPolicy.NAIVE, 0),
}


def parity_configs():
    """label -> split-window config, ideal-fabric cells then fabric cells."""
    configs = {}
    # Unit counts 1 to 8 and task sizes 1 to 64.
    for units, task in (
        (1, 32), (2, 16), (3, 16), (4, 1), (4, 32), (4, 64), (8, 16)
    ):
        configs[f"u{units}t{task}-AS-NAV-lat0"] = split_window(
            SchedulingModel.AS, SpeculationPolicy.NAIVE,
            num_units=units, task_size=task,
        )
        configs[f"u{units}t{task}-NAS-NAV"] = split_window(
            SchedulingModel.NAS, SpeculationPolicy.NAIVE,
            num_units=units, task_size=task,
        )
    # Scheduler latency axis and the no-speculation policy, at the
    # paper's headline organization (4 units x 32-instruction tasks).
    for latency in (1, 2):
        configs[f"u4t32-AS-NAV-lat{latency}"] = split_window(
            SchedulingModel.AS, SpeculationPolicy.NAIVE,
            addr_scheduler_latency=latency,
        )
    configs["u4t32-NAS-NO"] = split_window(
        SchedulingModel.NAS, SpeculationPolicy.NO,
    )
    for schedule, (scheduling, policy, latency) in FABRIC_SCHEDULES.items():
        for point, knobs in FABRIC_POINTS.items():
            configs[f"u4t32-{schedule}-{point}"] = split_window(
                scheduling, policy, latency, **knobs
            )
    # The no-speculation policy behind a slow, narrow, banked fabric.
    configs["u4t32-NAS-NO-link2bw1banks2"] = split_window(
        SchedulingModel.NAS, SpeculationPolicy.NO,
        **FABRIC_POINTS["link2bw1banks2"],
    )
    return configs


def _cell_id(benchmark, label):
    return f"{benchmark}/{label}"


CELLS = [
    (benchmark, length, label)
    for benchmark, length in BENCHMARKS
    for label in parity_configs()
]


def simulate_cell(benchmark, length, config, entry="legacy"):
    trace = get_trace(benchmark, length, seed=0)
    dep_info = compute_dependence_info(trace)
    result = ENTRY_POINTS[entry](config, trace, dep_info).run()
    measured = {field: getattr(result, field) for field in FIELDS}
    split = config.split
    if split.link_latency or split.sync_bandwidth or split.mem_banks:
        measured.update(
            {name: result.extra["fabric"][name] for name in COUNTERS}
        )
    return measured


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(FIXTURE):
        pytest.fail(
            f"missing fixture {FIXTURE} — generate it with "
            "`PYTHONPATH=src python tests/test_splitwindow_parity.py "
            "--regen`"
        )
    with open(FIXTURE) as handle:
        return json.load(handle)


# ``bench`` not ``benchmark``: the latter collides with the
# pytest-benchmark plugin's fixture of that name.
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "bench,length,label",
    CELLS,
    ids=[_cell_id(b, lab) for b, _, lab in CELLS],
)
def test_split_results_match_fixture(golden, bench, length, label, entry):
    cell_id = _cell_id(bench, label)
    assert cell_id in golden["cells"], (
        f"cell {cell_id} absent from fixture — regenerate with --regen"
    )
    expected = golden["cells"][cell_id]
    measured = simulate_cell(bench, length, parity_configs()[label], entry)
    drifted = {
        field: (want, measured.get(field))
        for field, want in expected.items()
        if want != measured.get(field)
    }
    assert not drifted, (
        f"split-window machine ({entry}) drifted from golden fixture on "
        f"{cell_id}: "
        + ", ".join(
            f"{field} {want} -> {got}"
            for field, (want, got) in sorted(drifted.items())
        )
        + ". If the split-window semantics changed intentionally, "
        "regenerate with --regen."
    )


def regenerate():
    cells = {}
    for benchmark, length in BENCHMARKS:
        for label, config in parity_configs().items():
            cell_id = _cell_id(benchmark, label)
            cells[cell_id] = simulate_cell(benchmark, length, config)
            print(f"  {cell_id}: cycles={cells[cell_id]['cycles']}")
    doc = {
        "description": (
            "Golden split-window SimResult numbers; fabric cells also "
            "pin the sync-fabric and bank counters."
        ),
        "benchmarks": [list(pair) for pair in BENCHMARKS],
        "cells": cells,
    }
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE} ({len(cells)} cells)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
