"""Tests for the experiment JSONL telemetry stream."""

import json

import pytest

from repro.experiments.telemetry import (
    TelemetryWriter,
    as_writer,
    read_telemetry,
    render_summary,
    summarize_telemetry,
)
from repro.stats import percentile


def test_writer_appends_jsonl(tmp_path):
    path = tmp_path / "run.jsonl"
    with TelemetryWriter(path) as writer:
        assert writer.enabled
        writer.emit("shard_start", benchmark="x", attempt=1)
        writer.emit("shard_finish", benchmark="x", wall=0.5)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["event"] == "shard_start"
    assert first["benchmark"] == "x"
    assert "ts" in first
    # Appending across writers preserves earlier events.
    with TelemetryWriter(path) as writer:
        writer.emit("matrix_finish")
    assert len(read_telemetry(path)) == 3


def test_disabled_writer_is_noop():
    writer = TelemetryWriter(None)
    assert not writer.enabled
    writer.emit("anything", value=1)  # must not raise
    writer.close()


def test_as_writer_coercion(tmp_path):
    writer, owned = as_writer(None)
    assert not owned and not writer.enabled
    existing = TelemetryWriter(None)
    writer, owned = as_writer(existing)
    assert writer is existing and not owned
    writer, owned = as_writer(tmp_path / "t.jsonl")
    assert owned and writer.enabled
    writer.close()


def test_reader_skips_malformed_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(
        '{"event": "shard_start", "ts": 1}\n'
        "this is not json\n"
        '{"no_event_key": true}\n'
        '{"event": "shard_finish", "ts": 2, "wall": 1.0}\n'
        '{"event": "torn'  # torn final line from a crash
    )
    events = read_telemetry(path)
    assert [e["event"] for e in events] == [
        "shard_start", "shard_finish",
    ]


def test_summarize_prefers_matrix_totals():
    events = [
        {"event": "shard_start", "benchmark": "a", "ts": 0},
        {
            "event": "shard_finish", "benchmark": "a", "ts": 1,
            "wall": 2.0, "memory_hits": 1, "store_hits": 0,
            "simulations": 3,
        },
        {"event": "shard_start", "benchmark": "b", "ts": 2},
        {
            "event": "matrix_finish", "ts": 5, "wall": 2.5,
            "memory_hits": 2, "store_hits": 4, "simulations": 6,
        },
    ]
    summary = summarize_telemetry(events)
    assert summary["shards_started"] == 2
    assert summary["shards_finished"] == 1
    assert summary["aborts"] == 0
    # matrix_finish totals win over shard sums.
    assert summary["simulations"] == 6
    assert summary["store_hits"] == 4
    assert summary["cache_hit_rate"] == pytest.approx(6 / 12)
    assert summary["wall_p50"] == pytest.approx(2.0)
    text = render_summary(summary)
    assert "6 simulated" in text
    assert "1 finished / 2 started" in text
    assert "0 aborts" in text


def test_summarize_falls_back_to_shard_sums():
    events = [
        {
            "event": "shard_finish", "ts": 1, "wall": 1.0,
            "memory_hits": 0, "store_hits": 2, "simulations": 0,
        },
        {
            "event": "shard_finish", "ts": 2, "wall": 3.0,
            "memory_hits": 0, "store_hits": 2, "simulations": 0,
        },
    ]
    summary = summarize_telemetry(events)
    assert summary["store_hits"] == 4
    assert summary["simulations"] == 0
    assert summary["cache_hit_rate"] == 1.0
    assert summary["wall_total"] == pytest.approx(4.0)


def test_summarize_counts_a_serial_run_from_its_artifacts():
    # A serial CLI run emits no matrix or shard events, only these.
    events = [
        {"event": "artifact_start", "artifact": "table1", "ts": 0},
        {
            "event": "artifact_finish", "artifact": "table1", "ts": 1,
            "wall": 0.5, "memory_hits": 0, "store_hits": 0,
            "simulations": 0,
        },
        {"event": "artifact_start", "artifact": "figure1", "ts": 1},
        {
            "event": "artifact_finish", "artifact": "figure1", "ts": 2,
            "wall": 1.0, "memory_hits": 3, "store_hits": 1,
            "simulations": 72,
        },
    ]
    summary = summarize_telemetry(events)
    assert summary["simulations"] == 72
    assert summary["memory_hits"] == 3
    assert summary["store_hits"] == 1
    assert "72 simulated" in render_summary(summary)


def test_summarize_empty_stream():
    summary = summarize_telemetry([])
    assert summary["events"] == 0
    assert summary["cache_hit_rate"] == 0.0
    assert summary["wall_p95"] == 0.0


def test_percentile():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)
    assert percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
