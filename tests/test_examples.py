"""The example scripts print exactly what they printed when pinned.

Each example's ``main()`` runs in process with its default arguments,
and its stdout is compared byte for byte with a text fixture under
``tests/fixtures/``. The simulator is deterministic, so any difference
is a change in what the example shows.
"""

import os
import runpy
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


@pytest.mark.parametrize("name", ["pipeline_view", "utilization"])
def test_example_stdout_matches_fixture(monkeypatch, capsys, name):
    path = os.path.join(ROOT, "examples", f"{name}.py")
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="example")["main"]()
    with open(os.path.join(FIXTURES, f"example_{name}.txt"), "rb") as handle:
        expected = handle.read()
    assert capsys.readouterr().out.encode("utf-8") == expected
