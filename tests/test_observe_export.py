"""Pipeline recorder, trace exporters, and the summary schema contract.

The Chrome trace and Konata log of four short observed cells are pinned
by sha256 in ``tests/fixtures/observe_export_digests.json``. Regenerate
after an intentional change to what the exporters write with::

    PYTHONPATH=src python -m tests.test_observe_export --regen
"""

import dataclasses
import hashlib
import importlib.util
import json
import os
import sys

import pytest

from repro.config.presets import continuous_window_128
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.core.processor import Processor
from repro.experiments import cli
from repro.experiments.runner import (
    ExperimentSettings,
    _dependences_for_length,
    _plan_for,
)
from repro.observe import ObserverBus, PipelineRecorder, StallAccountant
from repro.observe.export import (
    chrome_trace,
    konata_log,
    summary_doc,
    validate_summary,
    write_summary,
)
from repro.trace.dependences import compute_dependence_info
from repro.trace.sampling import SamplingPlan, Segment
from repro.workloads.catalog import get_trace

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "schemas", "observe_summary.schema.json",
)
VALIDATOR_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "tools", "validate_observe_summary.py",
)
DIGESTS = os.path.join(
    os.path.dirname(__file__), "fixtures", "observe_export_digests.json"
)


class _Inst:
    def __init__(self, seq, pc, op):
        self.seq = seq
        self.pc = pc
        self.op = type("Op", (), {"name": op})()


class _Entry:
    """Just enough of a window entry for the bus emit methods."""

    def __init__(self, seq, pc=0x400000, op="ADD", is_store=False,
                 dispatch=0, issue=None, mem_issue=None, done=None):
        self.seq = seq
        self.inst = _Inst(seq, pc, op)
        self.is_store = is_store
        self.dispatch_cycle = dispatch
        self.issue_cycle = issue
        self.mem_issue_cycle = mem_issue
        self.write_cycle = done if is_store else None
        self.complete_cycle = None if is_store else done


def _committed_bus(recorder):
    bus = ObserverBus([recorder])

    def commit(seq, fetch, dispatch, issue, done, commit_at, op="ADD"):
        inst = _Inst(seq, 0x400000 + 4 * seq, op)
        bus.emit_fetch(inst, fetch)
        entry = _Entry(seq, inst.pc, op, dispatch=dispatch,
                       issue=issue, done=done)
        bus.emit_dispatch(entry, dispatch)
        bus.emit_commit(entry, commit_at)

    return bus, commit


def test_recorder_builds_records_at_commit():
    recorder = PipelineRecorder()
    bus, commit = _committed_bus(recorder)
    commit(0, fetch=1, dispatch=2, issue=3, done=5, commit_at=6)
    (record,) = recorder.records
    assert (record.seq, record.fetch, record.dispatch) == (0, 1, 2)
    assert (record.issue, record.done, record.commit) == (3, 5, 6)
    assert recorder.summary() == {
        "records": 1, "dropped": 0, "squashes": 0, "replays": 0,
    }


def test_recorder_keeps_first_blocked_cause():
    recorder = PipelineRecorder()
    bus = ObserverBus([recorder])
    entry = _Entry(3, op="LW", dispatch=1, issue=2, done=9)
    bus.emit_fetch(entry.inst, 0)
    bus.emit_blocked(entry, 4, "sync-wait")
    bus.emit_blocked(entry, 5, "fd-true")
    bus.emit_commit(entry, 10)
    (record,) = recorder.records
    assert record.blocked_cause == "sync-wait"
    assert record.blocked_cycle == 4


def test_recorder_limit_counts_dropped():
    recorder = PipelineRecorder(limit=2)
    bus, commit = _committed_bus(recorder)
    for seq in range(5):
        commit(seq, fetch=seq, dispatch=seq + 1, issue=seq + 2,
               done=seq + 3, commit_at=seq + 4)
    assert len(recorder.records) == 2
    assert recorder.dropped == 3


def test_recorder_squash_prunes_staged_state():
    recorder = PipelineRecorder()
    bus = ObserverBus([recorder])
    survivor = _Entry(4, op="LW", dispatch=1, issue=2, done=6)
    squashed = _Entry(9, op="ADD", dispatch=3)
    bus.emit_fetch(survivor.inst, 0)
    bus.emit_fetch(squashed.inst, 2)
    bus.emit_blocked(squashed, 3, "fd-false")
    bus.emit_squash(_Entry(8, op="LW"), _Entry(2, is_store=True,
                                               op="SW"),
                    cycle=7, squashed=5, resume=8)
    assert recorder.squashes[0]["load_seq"] == 8
    assert 9 not in recorder._fetch and 9 not in recorder._blocked
    assert 4 in recorder._fetch  # older than the squash point: kept
    bus.emit_replay(_Entry(5, op="LW"), 9, reexecuted=2)
    assert recorder.replays == 1


def test_chrome_trace_lanes_never_overlap():
    recorder = PipelineRecorder()
    bus, commit = _committed_bus(recorder)
    # Three instructions alive at once, then a detached fourth.
    commit(0, fetch=0, dispatch=1, issue=2, done=4, commit_at=5)
    commit(1, fetch=0, dispatch=1, issue=3, done=5, commit_at=6)
    commit(2, fetch=1, dispatch=2, issue=4, done=6, commit_at=7)
    commit(3, fetch=20, dispatch=21, issue=22, done=23, commit_at=24)
    bus.emit_squash(_Entry(7, op="LW"), _Entry(3, op="SW",
                                               is_store=True),
                    cycle=9, squashed=2, resume=10)
    doc = chrome_trace(recorder)
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 4
    lanes = {}
    for item in slices:
        lanes.setdefault(item["tid"], []).append(
            (item["ts"], item["ts"] + item["dur"])
        )
    for spans in lanes.values():
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end
    # The detached instruction reuses lane 0.
    assert slices[3]["tid"] == 0
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants[0]["args"]["squashed"] == 2
    json.dumps(doc)  # serialisable


def test_konata_log_shape():
    recorder = PipelineRecorder()
    bus, commit = _committed_bus(recorder)
    commit(0, fetch=0, dispatch=2, issue=4, done=6, commit_at=8)
    commit(1, fetch=1, dispatch=3, issue=5, done=7, commit_at=9)
    text = konata_log(recorder)
    lines = text.splitlines()
    assert lines[0] == "Kanata\t0004"
    assert lines[1].startswith("C=\t")
    assert sum(1 for ln in lines if ln.startswith("R\t")) == 2
    assert sum(1 for ln in lines if ln.startswith("I\t")) == 2
    # Cycle deltas only move forward.
    assert all(int(ln.split("\t")[1]) > 0 for ln in lines
               if ln.startswith("C\t"))


def _observed_result():
    config = dataclasses.replace(
        continuous_window_128(
            SchedulingModel.NAS, SpeculationPolicy.NAIVE
        ),
        observe=True,
    )
    trace = get_trace("126.gcc", 2_000, seed=0)
    info = compute_dependence_info(trace)
    plan = SamplingPlan(
        (Segment(0, 500, timing=False),
         Segment(500, 2_000, timing=True)),
        2_000,
    )
    return Processor(config, trace, info).run(plan)


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_summary_doc_validates_against_checked_in_schema(
    tmp_path, schema
):
    result = _observed_result()
    doc = write_summary(
        tmp_path / "summary.json", result,
        {"timing_instructions": 1_500},
    )
    assert validate_summary(doc, schema) == []
    with open(tmp_path / "summary.json", encoding="utf-8") as handle:
        assert validate_summary(json.load(handle), schema) == []


def test_summary_doc_requires_observed_result():
    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    trace = get_trace("126.gcc", 800, seed=0)
    info = compute_dependence_info(trace)
    plan = SamplingPlan((Segment(0, 800, timing=True),), 800)
    result = Processor(config, trace, info).run(plan)
    with pytest.raises(ValueError):
        summary_doc(result)


def test_validator_rejects_contract_breaks(schema):
    result = _observed_result()
    good = summary_doc(result)

    missing = dict(good)
    del missing["cycles"]
    assert any("cycles" in e for e in validate_summary(missing, schema))

    wrong_type = json.loads(json.dumps(good))
    wrong_type["ipc"] = "fast"
    assert validate_summary(wrong_type, schema)

    negative = json.loads(json.dumps(good))
    negative["observe"]["stalls"]["causes"]["memdep-wait"] = -1
    assert validate_summary(negative, schema)

    stray = json.loads(json.dumps(good))
    stray["observe"]["stalls"]["causes"]["made-up"] = 1
    assert validate_summary(stray, schema)

    wrong_schema = json.loads(json.dumps(good))
    wrong_schema["schema"] = 99
    assert any("enum" in e for e in validate_summary(
        wrong_schema, schema
    ))


def test_validator_subset_features():
    schema = {
        "type": "object",
        "required": ["a"],
        "additionalProperties": False,
        "properties": {
            "a": {"type": ["integer", "null"], "minimum": 0},
            "b": {"type": "array", "items": {"type": "string"}},
        },
    }
    assert validate_summary({"a": 1, "b": ["x"]}, schema) == []
    assert validate_summary({"a": None}, schema) == []
    # Booleans are not integers even though bool subclasses int.
    assert validate_summary({"a": True}, schema)
    assert validate_summary({"a": -1}, schema)
    assert validate_summary({"a": 1, "z": 0}, schema)
    assert validate_summary({"a": 1, "b": [2]}, schema)


def test_cli_observe_bundle_end_to_end(tmp_path, capsys, schema):
    out = tmp_path / "bundle"
    rc = cli.main([
        "observe", "126.gcc", "--policy", "NAV", "--window", "128",
        "--timing", "1000", "--warmup", "500", "--out", str(out),
    ])
    assert rc == 0
    with open(out / "trace.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["traceEvents"]
    with open(out / "pipeline.kanata", encoding="utf-8") as handle:
        assert handle.readline().rstrip("\n") == "Kanata\t0004"
    with open(out / "summary.json", encoding="utf-8") as handle:
        assert validate_summary(json.load(handle), schema) == []


def test_validator_tool_runs_from_any_directory(
    tmp_path, monkeypatch, capsys
):
    """The tool finds its default schema from its own location, not
    from the working directory."""
    path = tmp_path / "summary.json"
    write_summary(path, _observed_result(), {"timing_instructions": 1_500})
    spec = importlib.util.spec_from_file_location(
        "validate_observe_summary", VALIDATOR_PATH
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    assert tool.main([str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def export_cells():
    """Label -> (benchmark, config) of every cell whose exports are
    pinned; each reaches a different part of the recorder."""
    nas, as_ = SchedulingModel.NAS, SchedulingModel.AS
    nav = SpeculationPolicy.NAIVE
    return {
        # Violation squashes.
        "126.gcc NAS/NAV": ("126.gcc", continuous_window_128(nas, nav)),
        # Synchronisation waits: blocked records.
        "099.go NAS/SYNC": ("099.go", continuous_window_128(
            nas, SpeculationPolicy.SYNC
        )),
        # The address scheduler's waits: many blocked records.
        "130.li AS/NO+1": ("130.li", continuous_window_128(
            as_, SpeculationPolicy.NO, addr_scheduler_latency=1
        )),
        # Selective recovery: replays instead of squashes.
        "126.gcc NAS/NAV:selective": ("126.gcc", continuous_window_128(
            nas, nav, recovery="selective"
        )),
    }


def export_digests(benchmark, config):
    """Digests of the exports the ``observe`` bundle writes for one
    600/300 cell, plus the recorder counts the cell is chosen for."""
    config = dataclasses.replace(config, observe=True)
    settings = ExperimentSettings(600, 300)
    plan = _plan_for(benchmark, settings)
    trace = get_trace(benchmark, plan.length, settings.seed)
    info = _dependences_for_length(benchmark, plan.length, settings.seed)
    recorder = PipelineRecorder()
    bus = ObserverBus([StallAccountant(config), recorder])
    Processor(config, trace, info, observer=bus).run(plan)

    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {
        "chrome_trace": sha256(json.dumps(chrome_trace(recorder))),
        "konata_log": sha256(konata_log(recorder)),
        "records": len(recorder.records),
        "blocked": sum(
            1 for r in recorder.records if r.blocked_cause is not None
        ),
        "squashes": len(recorder.squashes),
        "replays": recorder.replays,
    }


@pytest.fixture(scope="module")
def pinned_digests():
    if not os.path.exists(DIGESTS):
        pytest.fail(
            f"missing export-digest fixture {DIGESTS}; regenerate with "
            "`PYTHONPATH=src python -m tests.test_observe_export --regen`"
        )
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("label", sorted(export_cells()))
def test_exports_are_pinned(pinned_digests, label):
    benchmark, config = export_cells()[label]
    assert export_digests(benchmark, config) == pinned_digests[label]


def regenerate():
    digests = {}
    for label, (benchmark, config) in sorted(export_cells().items()):
        digests[label] = export_digests(benchmark, config)
        print(f"  {label}: {digests[label]}")
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGESTS} ({len(digests)} cells)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
