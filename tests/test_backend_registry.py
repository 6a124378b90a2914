"""Backend registry: selection precedence, validation, round-trip.

The registry (:mod:`repro.core.backend`) is how every entry point —
``simulate``, ``run_benchmark``, the parallel runner, the CLI — picks
a simulator core. These tests pin its contract: unknown names fail
fast with the available choices listed, precedence is
``explicit > config.backend > $REPRO_BACKEND > default``, and the
``vector`` factory transparently delegates to ``reference`` whenever
a run is observed.
"""

import pytest

from repro.config.presets import continuous_window_128
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.core.backend import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    ELIDE_ENV,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    vector_limitation,
    _REGISTRY,
)


def _config(**kwargs):
    import dataclasses

    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    return dataclasses.replace(config, **kwargs) if kwargs else config


def test_builtin_backends_registered():
    assert available_backends() == ("reference", "vector")
    assert DEFAULT_BACKEND == "reference"


def test_unknown_backend_raises_with_choices():
    with pytest.raises(UnknownBackendError) as excinfo:
        get_backend("typo")
    assert "typo" in str(excinfo.value)
    for name in available_backends():
        assert name in str(excinfo.value)


def test_resolve_rejects_unknown_names_everywhere(monkeypatch):
    with pytest.raises(UnknownBackendError):
        resolve_backend("typo")
    with pytest.raises(UnknownBackendError):
        resolve_backend(None, _config(backend="typo"))
    monkeypatch.setenv(BACKEND_ENV, "typo")
    with pytest.raises(UnknownBackendError):
        resolve_backend()


def test_resolution_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend() == DEFAULT_BACKEND
    assert resolve_backend(None, _config()) == DEFAULT_BACKEND

    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert resolve_backend() == "vector"
    # config.backend beats the environment ...
    assert resolve_backend(None, _config(backend="reference")) == (
        "reference"
    )
    # ... and an explicit argument beats both.
    assert resolve_backend("reference", _config(backend="vector")) == (
        "reference"
    )


def test_empty_env_var_falls_through(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "")
    assert resolve_backend() == DEFAULT_BACKEND


def test_registry_round_trip():
    marker = object()

    def factory(config, trace, dep_info=None, observer=None, **kwargs):
        return marker

    register_backend("test-backend", factory)
    try:
        assert "test-backend" in available_backends()
        assert get_backend("test-backend") is factory
        assert resolve_backend("test-backend") == "test-backend"
    finally:
        del _REGISTRY["test-backend"]
    assert "test-backend" not in available_backends()


def test_vector_limitation_cases():
    plain = _config()
    assert vector_limitation(plain) is None
    assert vector_limitation(plain, observer=object()) is not None
    assert vector_limitation(_config(observe=True)) is not None


def test_elide_env_controls_vector_processor(monkeypatch):
    from repro.core.vector import VectorProcessor
    from repro.workloads.catalog import kernel_trace

    trace = kernel_trace("memcopy", words=64)
    monkeypatch.setenv(ELIDE_ENV, "0")
    assert not VectorProcessor(_config(), trace)._elide
    monkeypatch.delenv(ELIDE_ENV, raising=False)
    assert VectorProcessor(_config(), trace)._elide
    # An explicit argument always wins over the environment.
    monkeypatch.setenv(ELIDE_ENV, "0")
    assert VectorProcessor(_config(), trace, elide=True)._elide


def test_vector_factory_delegates_on_limitation():
    from repro.core.processor import Processor
    from repro.core.vector import VectorProcessor
    from repro.workloads.catalog import kernel_trace

    trace = kernel_trace("memcopy", words=64)
    vector = get_backend("vector")
    assert isinstance(vector(_config(), trace), VectorProcessor)
    # Observability needs per-instruction objects -> reference core.
    assert isinstance(
        vector(_config(observe=True), trace), Processor
    )


def test_run_benchmark_records_producing_backend(monkeypatch):
    from repro.experiments.runner import (
        ExperimentSettings, clear_results, run_benchmark,
    )

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    settings = ExperimentSettings(
        timing_instructions=600, warmup_instructions=400
    )
    clear_results()
    try:
        ref = run_benchmark("132.ijpeg", _config(), settings)
        assert ref.extra["backend"] == "reference"
        clear_results()
        vec = run_benchmark(
            "132.ijpeg", _config(), settings, backend="vector"
        )
        assert vec.extra["backend"] == "vector"
        assert vec.cycles == ref.cycles
        assert vec.committed == ref.committed
        # Cache keys ignore the backend: a cached result satisfies
        # either request without re-simulation.
        again = run_benchmark(
            "132.ijpeg", _config(), settings, backend="reference"
        )
        assert again is vec
    finally:
        clear_results()


_STDLIB_ONLY_CELL = """
import sys
import repro.core.vector
from repro.config.presets import continuous_window_128
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.experiments.runner import ExperimentSettings, run_benchmark

config = continuous_window_128(SchedulingModel.AS, SpeculationPolicy.NAIVE)
settings = ExperimentSettings(timing_instructions=600, warmup_instructions=400)
result = run_benchmark("132.ijpeg", config, settings, backend="vector")
assert result.extra["backend"] == "vector", result.extra
assert result.committed == 600, result.committed
assert "numpy" not in sys.modules, "the vector core imported numpy"
"""


def test_vector_core_runs_on_the_stdlib_alone():
    """A fresh interpreter runs one vector cell without loading numpy,
    even on hosts where it is installed."""
    import os
    import subprocess
    import sys

    import repro

    env = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY_CELL],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
