"""Tests for the regression-compare tool."""

import importlib.util
import json
import pathlib
import sys

_TOOL = pathlib.Path(__file__).parent.parent / "tools" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", _TOOL)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def _artifact(ipc):
    return {
        "experiment": "Figure X",
        "data": {"bench": {"ipc": ipc, "name": "x"}, "series": [1, 2]},
    }


def test_leaves_extracts_numbers():
    leaves = dict(compare_runs._leaves(_artifact(1.5)["data"]))
    assert leaves == {"bench.ipc": 1.5, "series[0]": 1.0,
                      "series[1]": 2.0}


def test_compare_artifact_thresholds():
    rows = list(compare_runs.compare_artifact(
        _artifact(1.0), _artifact(1.2), threshold=0.1
    ))
    assert len(rows) == 1
    path, old, new, delta = rows[0]
    assert path == "bench.ipc"
    assert abs(delta - 0.2) < 1e-9
    assert not list(compare_runs.compare_artifact(
        _artifact(1.0), _artifact(1.04), threshold=0.1
    ))


def test_main_end_to_end(tmp_path, capsys):
    before = tmp_path / "before"
    after = tmp_path / "after"
    before.mkdir()
    after.mkdir()
    (before / "fig.json").write_text(json.dumps(_artifact(1.0)))
    (after / "fig.json").write_text(json.dumps(_artifact(2.0)))
    rc = compare_runs.main([str(before), str(after)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bench.ipc" in out and "+100.0%" in out


def test_main_no_changes(tmp_path, capsys):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    (d1 / "fig.json").write_text(json.dumps(_artifact(1.0)))
    (d2 / "fig.json").write_text(json.dumps(_artifact(1.0)))
    rc = compare_runs.main([str(d1), str(d2)])
    assert rc == 0
    assert "no changes" in capsys.readouterr().out


def test_main_missing_files(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert compare_runs.main([str(d1), str(d2)]) == 1


def _telemetry_file(path, simulations, store_hits, wall):
    lines = [
        json.dumps({"event": "shard_start", "ts": 0}),
        "not json at all",
        json.dumps({
            "event": "matrix_finish", "ts": 1,
            "simulations": simulations, "store_hits": store_hits,
            "memory_hits": 0, "wall": wall,
        }),
    ]
    path.write_text("\n".join(lines) + "\n")


def test_telemetry_summary_reads_jsonl(tmp_path):
    tele = tmp_path / "run.jsonl"
    _telemetry_file(tele, simulations=8, store_hits=2, wall=4.5)
    summary = compare_runs.telemetry_summary(str(tele))
    assert summary["simulations"] == 8
    assert summary["store_hits"] == 2
    assert summary["wall"] == 4.5
    assert summary["events"] == 2  # malformed line skipped


def test_main_with_telemetry(tmp_path, capsys):
    before = tmp_path / "before"
    after = tmp_path / "after"
    before.mkdir()
    after.mkdir()
    (before / "fig.json").write_text(json.dumps(_artifact(1.0)))
    (after / "fig.json").write_text(json.dumps(_artifact(1.0)))
    t1 = tmp_path / "cold.jsonl"
    t2 = tmp_path / "warm.jsonl"
    _telemetry_file(t1, simulations=8, store_hits=0, wall=10.0)
    _telemetry_file(t2, simulations=0, store_hits=8, wall=0.5)
    rc = compare_runs.main([
        str(before), str(after), "--telemetry", str(t1), str(t2),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "== telemetry ==" in out
    assert "simulations: 8 -> 0" in out
    assert "store_hits: 0 -> 8" in out
