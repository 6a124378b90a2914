"""Attaching an observer must not perturb the golden timing model.

Re-runs golden-parity cells with (a) a bus carrying a sink that takes
every hook and does nothing — exercising every hook path — beside the
pipeline recorder and the utilisation sampler, and (b) the default
stall-accounting observer, and asserts the results match the
checked-in golden fixture bit for bit.
"""

import json

import pytest

from repro.core.processor import Processor
from repro.observe import (
    ObserverBus,
    ObserverSink,
    PipelineRecorder,
    UtilisationSampler,
    default_observer,
)
from repro.trace.dependences import compute_dependence_info
from repro.trace.sampling import SamplingPlan, Segment
from repro.workloads.catalog import get_trace

from tests.test_golden_parity import (
    BENCHMARKS,
    FIELDS,
    FIXTURE,
    parity_configs,
)


class _NullSink(ObserverSink):
    """Takes every hook and does nothing."""

    def on_segment(self, processor):
        pass

    def on_cycle(self, processor):
        pass

    def raw_fetch(self, inst, cycle):
        pass

    def raw_dispatch(self, entry, cycle):
        pass

    def raw_issue(self, entry, cycle):
        pass

    def raw_mem_issue(self, entry, cycle, forwarded):
        pass

    def raw_blocked(self, entry, cycle, cause):
        pass

    def raw_squash(self, load, store, cycle, squashed, resume):
        pass

    def raw_replay(self, load, cycle, reexecuted):
        pass

    def raw_commit(self, entry, cycle):
        pass


def _observed_fields(benchmark, warm, length, config, observer):
    trace = get_trace(benchmark, length, seed=0)
    info = compute_dependence_info(trace)
    plan = SamplingPlan(
        (Segment(0, warm, timing=False),
         Segment(warm, length, timing=True)),
        length,
    )
    result = Processor(config, trace, info, observer=observer).run(plan)
    return result, {name: getattr(result, name) for name in FIELDS}


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: Null-sink parity covers every config on the first golden benchmark.
_NULL_BENCHMARK = BENCHMARKS[0]

#: The (heavier) default observer is spot-checked on the policy corners
#: of the F1/F2 argument, on both golden benchmarks.
_DEFAULT_LABELS = ("NAS/NO", "NAS/NAV", "NAS/ORACLE", "AS/NO")


@pytest.mark.parametrize("label", sorted(parity_configs()))
def test_null_sink_parity(golden, label):
    benchmark, warm, length = _NULL_BENCHMARK
    config = parity_configs()[label]
    sampler = UtilisationSampler(config)
    observer = ObserverBus([_NullSink(), PipelineRecorder(), sampler])
    result, actual = _observed_fields(
        benchmark, warm, length, config, observer
    )
    expected = golden["cells"][f"{benchmark}:{label}"]
    assert actual == expected, (
        f"{label}: null observer perturbed " + ", ".join(
            k for k in FIELDS if expected[k] != actual[k]
        )
    )
    # Every hook is bound, and the hooks really fired: a non-trivial
    # run emits events.
    assert all(observer._hooks.values())
    assert observer.events_emitted > 0
    assert result.extra["observe"]["events"] == observer.events_emitted
    assert result.extra["observe"]["pipeline"]["records"] > 0
    assert sampler.window.samples > 0


@pytest.mark.parametrize(
    "cell", [
        (benchmark, label)
        for benchmark in BENCHMARKS
        for label in _DEFAULT_LABELS
    ],
    ids=lambda cell: f"{cell[0]}:{cell[1]}",
)
def test_default_observer_parity(golden, cell):
    (benchmark, warm, length), label = cell
    config = parity_configs()[label]
    result, actual = _observed_fields(
        benchmark, warm, length, config, default_observer(config)
    )
    expected = golden["cells"][f"{benchmark}:{label}"]
    assert actual == expected, (
        f"{benchmark}:{label}: stall accountant perturbed "
        + ", ".join(k for k in FIELDS if expected[k] != actual[k])
    )
    stalls = result.extra["observe"]["stalls"]
    assert stalls["cycles"] == result.cycles
    assert (
        stalls["commit_slots"] + stalls["stall_slots"]
        == stalls["slots"]
        == stalls["width"] * stalls["cycles"]
    )
