"""Tests for the pipeline view: bus-recorded records and ``pipeview``."""

import pytest

from repro.config import (
    continuous_window_128,
    SchedulingModel,
    SpeculationPolicy,
)
from repro.core import Processor
from repro.observe import ObserverBus, PipelineRecorder, pipeview


def _record(trace, limit=32, policy=SpeculationPolicy.NO):
    recorder = PipelineRecorder(limit=limit)
    Processor(
        continuous_window_128(SchedulingModel.NAS, policy),
        trace,
        observer=ObserverBus([recorder]),
    ).run()
    return recorder


def test_records_stage_order(memcopy_trace):
    recorder = _record(memcopy_trace)
    assert len(recorder.records) == 32
    for r in recorder.records:
        assert r.dispatch <= r.commit
        if r.issue is not None:
            assert r.dispatch <= r.issue
        if r.done is not None:
            assert r.done <= r.commit


def test_limit_respected(memcopy_trace):
    recorder = _record(memcopy_trace, limit=5)
    assert len(recorder.records) == 5
    assert recorder.dropped > 0


def test_start_seq_filters(memcopy_trace):
    """Callers pick the rows by seq; the view draws exactly those."""
    recorder = _record(memcopy_trace, limit=20_000)
    rows = [r for r in recorder.records if r.seq >= 100][:8]
    drawn = [
        int(line.split()[0]) for line in pipeview(rows).splitlines()[1:]
    ]
    assert drawn == [r.seq for r in rows]
    assert len(drawn) == 8 and min(drawn) >= 100


def test_commit_is_in_order(memcopy_trace):
    recorder = _record(memcopy_trace)
    seqs = [r.seq for r in recorder.records]
    assert seqs == sorted(seqs)
    commits = [r.commit for r in recorder.records]
    assert commits == sorted(commits)


def test_render_contains_stage_marks(memcopy_trace):
    text = pipeview(_record(memcopy_trace, limit=16).records, max_width=60)
    assert "cycles" in text
    assert "D" in text and "R" in text
    assert "LOAD" in text and "STORE" in text
    # A store's C is its write; it draws no M.
    stores = [line for line in text.splitlines() if " STORE " in line]
    assert stores and not any("M" in line for line in stores)


def test_render_empty():
    assert "no instructions" in pipeview([])


def test_mean_latency_positive(recurrence_trace):
    records = _record(recurrence_trace).records
    residency = sum(r.commit - r.dispatch for r in records) / len(records)
    assert residency > 0


def test_loads_show_memory_stage(memcopy_trace):
    recorder = _record(memcopy_trace)
    loads = [r for r in recorder.records if r.op == "LOAD"]
    assert loads
    for r in loads:
        assert r.mem_issue is not None
        assert r.issue <= r.mem_issue <= r.done


def test_validation():
    with pytest.raises(ValueError):
        PipelineRecorder(limit=0)
