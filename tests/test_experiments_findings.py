"""The paper's findings as predicates over the artifacts' data.

``tests/fixtures/findings_quick.json`` holds the ``data`` of every
artifact a finding reads, from ``all --quick``. Regenerate it with::

    PYTHONPATH=src python -m repro.experiments.cli all --quick \\
        --parallel 2 --json DIR
    PYTHONPATH=src python -c "import json, sys; \\
        from repro.experiments.findings import read_artifacts; \\
        json.dump(read_artifacts(sys.argv[1]), sys.stdout, indent=1)" \\
        DIR > tests/fixtures/findings_quick.json
"""

import copy
import json
import os

import pytest

from repro.experiments import cli
from repro.experiments.findings import (
    FINDINGS, ArtifactError, artifacts, evaluate,
)

_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "findings_quick.json"
)


@pytest.fixture(scope="module")
def quick():
    with open(_FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def _failing(data):
    return [o for o in evaluate(data) if not o.holds]


def test_findings_are_named_once_and_tagged():
    names = [finding.name for finding in FINDINGS]
    assert len(names) == len(set(names))
    tags = {f"F{i}" for i in range(1, 8)} | {"T1", "T3"} | {
        f"A{i}" for i in range(1, 6)
    }
    assert {finding.tag for finding in FINDINGS} == tags
    assert "stalls" not in artifacts()
    assert "figure7-sweep" not in artifacts()


@pytest.mark.parametrize(
    "finding", FINDINGS, ids=[f"{f.tag}-{f.name}" for f in FINDINGS]
)
def test_finding_holds_at_quick(finding, quick):
    outcome = finding.evaluate(quick[finding.artifact])
    assert outcome.holds, outcome.render()


def _nav_as_no(data):
    for ipc in data["figure2"]["ipc"].values():
        ipc["NAV"] = ipc["NO"]


def _continuous_misses(data):
    for record in data["figure7"].values():
        record["cont_miss"] = record["split_miss"]


def _payoff_reversed(data):
    window = data["ablation-window"]
    sizes = list(window)
    for size, payoff in zip(sizes, [window[s] for s in reversed(sizes)]):
        window[size] = payoff


@pytest.mark.parametrize("plant,tag,names", [
    (_nav_as_no, "F2", {"nav_beats_no_mostly", "nav_fp_gain"}),
    (_continuous_misses, "F7", {"continuous_does_not_miss"}),
    (_payoff_reversed, "A3",
     {"payoff_grows_with_window", "window_steps_keep_payoff"}),
])
def test_planted_edit_fails_its_finding(plant, tag, names, quick):
    data = copy.deepcopy(quick)
    plant(data)
    failing = _failing(data)
    assert {o.finding.tag for o in failing} == {tag}
    assert {o.finding.name for o in failing} == names


def test_per_benchmark_finding_names_its_worst_benchmark(quick):
    data = copy.deepcopy(quick)
    relative = data["figure6"]["sync"]["relative"]
    relative["130.li"] = 0.89
    relative["102.swim"] = 0.88
    (outcome,) = _failing(data)
    assert outcome.finding.name == "sync_never_loses_badly"
    assert (outcome.where, outcome.value, outcome.bound) == (
        "102.swim", 0.88, 0.9
    )
    assert "FAILS  F6" in outcome.render()
    assert outcome.render().endswith("0.88 > 0.9  at 102.swim")


def test_numeric_keys_order_by_value_not_by_text(quick):
    # JSON keys the window sizes as strings, where "128" < "32".
    data = copy.deepcopy(quick)
    window = data["ablation-window"]
    data["ablation-window"] = {k: window[k] for k in sorted(window)}
    assert list(data["ablation-window"]) == ["128", "256", "32", "64"]
    assert not _failing(data)


def test_missing_artifact_is_named(quick):
    data = dict(quick)
    del data["figure5"]
    with pytest.raises(ArtifactError) as raised:
        evaluate(data)
    assert raised.value.artifact == "figure5"


def _write(directory, data):
    directory.mkdir()
    for name, payload in data.items():
        (directory / f"{name}.json").write_text(json.dumps({"data": payload}))
    return str(directory)


def test_cli_exit_codes(quick, tmp_path, capsys):
    holding = _write(tmp_path / "holding", quick)
    assert cli.main(["check", "findings", holding]) == 0
    out = capsys.readouterr().out
    assert f"findings: {len(FINDINGS)} of {len(FINDINGS)} hold" in out

    planted = copy.deepcopy(quick)
    _nav_as_no(planted)
    nav = _write(tmp_path / "nav", planted)
    assert cli.main(["check", "findings", nav]) == 1
    out = capsys.readouterr().out
    assert "FAILS  F2  figure2" in out
    assert out.rstrip().endswith("; failing: F2")

    missing = _write(tmp_path / "missing", quick)
    os.remove(os.path.join(missing, "figure7.json"))
    assert cli.main(["check", "findings", missing]) == 2
    err = capsys.readouterr().err
    assert os.path.join(missing, "figure7.json") in err

    with open(os.path.join(holding, "table3.json"), "w") as handle:
        handle.write("{not json")
    assert cli.main(["check", "findings", holding]) == 2
    assert os.path.join(holding, "table3.json") in capsys.readouterr().err
