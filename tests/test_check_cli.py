"""End-to-end tests for the ``check`` CLI subcommand.

Exit-code contract: 0 clean, 1 violations detected, 2 usage errors.
"""

import json

import pytest

from repro.experiments import cli
from repro.experiments.runner import clear_results
from repro.experiments.store import set_store


def setup_function(_):
    clear_results()
    set_store(None)


def teardown_function(_):
    set_store(None)
    clear_results()


_RUN = ["check", "run", "126.gcc", "--timing", "1500", "--warmup", "500"]


def test_check_run_clean_exits_zero(capsys):
    rc = cli.main(_RUN + ["--stalls"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check: OK (no violations)" in out
    assert "checked 126.gcc NAS/NAV@w128" in out


def test_check_run_injected_fault_exits_nonzero(capsys, tmp_path):
    out_file = tmp_path / "violations.json"
    rc = cli.main(
        _RUN + ["--inject", "commit-reorder",
                "--json-out", str(out_file)]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "injected fault: commit-reorder" in out
    assert "commit-order" in out
    doc = json.loads(out_file.read_text())
    assert not doc["ok"]
    assert doc["counts"]["commit-order"] >= 1
    assert doc["violations"][0]["source"]


def test_check_run_unknown_fault_is_a_usage_error(capsys):
    rc = cli.main(_RUN + ["--inject", "no-such-fault"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "registered faults" in err


def test_check_run_as_policy_with_reference(capsys):
    rc = cli.main([
        "check", "run", "129.compress", "--scheduling", "AS",
        "--policy", "ORACLE", "--latency", "1", "--window", "64",
        "--timing", "1500", "--warmup", "500", "--stride", "4",
    ])
    assert rc == 0
    assert "AS/ORACLE+1cy@w64" in capsys.readouterr().out


def test_check_run_label_names_the_scheduler_latency(capsys):
    """The label is the checked machine's own, as ``observe`` prints
    it: an address-scheduler latency shows as ``+Ncy``."""
    rc = cli.main([
        "check", "run", "126.gcc", "--scheduling", "AS", "--policy", "NAV",
        "--latency", "2", "--timing", "300", "--warmup", "100",
        "--no-reference",
    ])
    assert rc == 0
    assert "checked 126.gcc AS/NAV+2cy@w128:" in capsys.readouterr().out


def test_check_selftest_exits_zero(capsys, tmp_path):
    out_file = tmp_path / "selftest.json"
    rc = cli.main(["check", "selftest", "--json-out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selftest: OK" in out
    doc = json.loads(out_file.read_text())
    assert doc["ok"]
    assert len(doc["faults"]) >= 6


def test_check_fuzz_corpus_replay(capsys, tmp_path):
    from repro.check.fuzz import FuzzCell, save_corpus

    corpus = tmp_path / "corpus.json"
    save_corpus(str(corpus), [
        FuzzCell("130.li", 0, 64, "AS", 0, 1500, 500),
    ])
    rc = cli.main([
        "check", "fuzz", "--budget", "0", "--corpus", str(corpus),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "replaying 1 corpus cells" in out
    assert "0 relation failures" in out


def test_check_fuzz_rejects_bad_corpus(capsys, tmp_path):
    corpus = tmp_path / "bad.json"
    corpus.write_text('{"version": 99, "cells": []}')
    rc = cli.main(["check", "fuzz", "--corpus", str(corpus)])
    assert rc == 2
    assert "cannot load corpus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tolerance", ["nan", "inf", "1", "1.5", "-0.01"],
)
def test_check_fuzz_rejects_a_tolerance_outside_0_to_1(capsys, tolerance):
    """R3 (oracle dominance) flags a cell whose IPC times
    ``1 - tolerance`` beats ORACLE's: a tolerance of 1 or more, or NaN,
    can never flag one, and a negative one flags near-ties."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["check", "fuzz", "--budget", "0",
                  "--tolerance", tolerance])
    assert excinfo.value.code == 2
    assert "--tolerance must be a finite number in [0, 1)" in (
        capsys.readouterr().err
    )


def test_check_requires_a_mode():
    with pytest.raises(SystemExit):
        cli.main(["check"])
