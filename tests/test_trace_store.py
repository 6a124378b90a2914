"""Tests for the persistent on-disk trace store.

Covers the store proper (hit/miss/version-bump keying, corruption
handling, prefix and kernel-budget serving, atomic writes) and its
integration with the workload catalog (a loaded trace is
indistinguishable from a freshly generated one; a generator-version
bump forces regeneration).
"""

import os

import pytest

from repro.trace.compiled import compile_trace
from repro.trace.dependences import compute_dependence_info
from repro.trace.tracestore import (
    TRACE_STORE_ENV_VAR,
    TraceStore,
    active_trace_store,
    set_trace_store,
)
from repro.workloads import catalog
from repro.workloads.catalog import (
    GENERATOR_VERSION,
    clear_cache,
    get_dependence_info,
    get_trace,
    kernel_trace,
)

TRACE_FIELDS = ("seq", "pc", "op", "dest", "srcs", "addr", "size",
                "value", "taken", "target")


def _assert_traces_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual.instructions, expected.instructions):
        for field in TRACE_FIELDS:
            assert getattr(a, field) == getattr(e, field)


@pytest.fixture
def store(tmp_path):
    """A fresh store installed process-wide, reset afterwards."""
    installed = set_trace_store(tmp_path / "traces")
    clear_cache()
    yield installed
    set_trace_store(None)
    clear_cache()


def _compiled(name="126.gcc", length=1_500):
    set_trace_store(None)
    clear_cache()
    trace = get_trace(name, length)
    info = compute_dependence_info(trace)
    return trace, compile_trace(trace, dep_info=info)


def test_save_then_load_round_trips(store):
    trace, compiled = _compiled()
    path = store.save(compiled, 0, GENERATOR_VERSION)
    assert path is not None and os.path.exists(path)
    loaded = store.load("126.gcc", 1_500, 0, GENERATOR_VERSION)
    assert loaded is not None
    assert store.hits == 1
    _assert_traces_equal(loaded, trace)
    assert loaded.dependence_info() == compiled.dependence_info()


def test_miss_on_absent_and_version_bump(store):
    _, compiled = _compiled()
    store.save(compiled, 0, GENERATOR_VERSION)
    assert store.load("102.swim", 1_500, 0, GENERATOR_VERSION) is None
    assert store.load("126.gcc", 1_500, 1, GENERATOR_VERSION) is None
    # A generator-version bump changes the digest: guaranteed miss.
    assert store.load("126.gcc", 1_500, 0, "999") is None
    assert store.misses == 3


def test_prefix_serving_is_exact(store):
    set_trace_store(None)
    clear_cache()
    long_trace = get_trace("126.gcc", 2_000)
    short_trace = get_trace("126.gcc", 800)
    compiled = compile_trace(
        long_trace, dep_info=compute_dependence_info(long_trace)
    )
    store.save(compiled, 0, GENERATOR_VERSION)
    served = store.load("126.gcc", 800, 0, GENERATOR_VERSION)
    assert served is not None and served.length == 800
    assert store.prefix_hits == 1
    _assert_traces_equal(served, short_trace)
    assert served.dependence_info() == (
        compute_dependence_info(short_trace)
    )
    # Longer than stored: miss (save() would then replace the entry).
    assert store.load("126.gcc", 3_000, 0, GENERATOR_VERSION) is None


def test_save_replaces_only_when_longer(store):
    _, short = _compiled(length=800)
    _, long_ = _compiled(length=1_500)
    assert store.save(long_, 0, GENERATOR_VERSION) is not None
    assert store.save(short, 0, GENERATOR_VERSION) is None  # kept long
    assert store.load(
        "126.gcc", 1_500, 0, GENERATOR_VERSION
    ).length == 1_500
    assert len(store) == 1


def test_kernel_budget_semantics(store):
    trace = kernel_trace("recurrence", n=128)
    natural = len(trace)
    compiled = compile_trace(trace, kind="kernel", budget=30_000)
    store.save(compiled, 0, GENERATOR_VERSION)
    # Any budget the natural run fits in is a hit...
    assert store.load(
        "recurrence", natural, 0, GENERATOR_VERSION
    ) is not None
    assert store.load(
        "recurrence", 50_000, 0, GENERATOR_VERSION
    ).length == natural
    # ...but a smaller budget misses: regeneration must raise
    # ExecutionLimitExceeded exactly as it would have uncached.
    assert store.load(
        "recurrence", natural - 1, 0, GENERATOR_VERSION
    ) is None


def test_truncated_file_is_dropped_and_regenerated(store):
    _, compiled = _compiled()
    path = store.save(compiled, 0, GENERATOR_VERSION)
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    assert store.load("126.gcc", 1_500, 0, GENERATOR_VERSION) is None
    assert store.corrupt_dropped == 1
    assert not os.path.exists(path)


def test_bit_flip_is_dropped(store):
    _, compiled = _compiled()
    path = store.save(compiled, 0, GENERATOR_VERSION)
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[len(blob) // 2] ^= 0x10
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    assert store.load("126.gcc", 1_500, 0, GENERATOR_VERSION) is None
    assert store.corrupt_dropped == 1
    assert not os.path.exists(path)


def test_empty_file_is_dropped(store):
    _, compiled = _compiled()
    path = store.save(compiled, 0, GENERATOR_VERSION)
    open(path, "wb").close()
    assert store.load("126.gcc", 1_500, 0, GENERATOR_VERSION) is None
    assert store.corrupt_dropped == 1


def test_writes_are_atomic_no_temp_debris(store):
    for length in (500, 900, 1_300):
        _, compiled = _compiled(length=length)
        store.save(compiled, 0, GENERATOR_VERSION)
    leftovers = [
        name
        for _dir, _sub, names in os.walk(store.root)
        for name in names
        if not name.endswith(".rptc")
    ]
    assert leftovers == []


def test_stats_and_clear(store):
    _, compiled = _compiled()
    store.save(compiled, 0, GENERATOR_VERSION)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["writes"] == 1
    assert stats["size_bytes"] > 0
    assert store.clear() == 1
    assert len(store) == 0


def test_clear_reaches_older_format_files(store, monkeypatch):
    import repro.trace.tracestore as tracestore

    _, compiled = _compiled()
    old = store.save(compiled, 0, GENERATOR_VERSION)
    monkeypatch.setattr(
        tracestore, "COMPILED_FORMAT_VERSION",
        tracestore.COMPILED_FORMAT_VERSION + 1,
    )
    assert list(store.entries()) == []
    assert list(store.stale_entries()) == [old]
    assert store.stats()["stale_entries"] == 1
    assert store.clear() == 1
    assert not os.path.exists(old)


def test_env_var_activates_store(tmp_path, monkeypatch):
    import repro.trace.tracestore as tracestore

    set_trace_store(None)
    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(tmp_path / "envstore"))
    # Explicit disable wins over the environment.
    assert active_trace_store() is None
    # With no explicit setting, the environment provides the store.
    monkeypatch.setattr(tracestore._selected, "disabled", False)
    found = active_trace_store()
    assert found is not None
    assert found.root == str(tmp_path / "envstore")
    set_trace_store(None)


# -- catalog integration -----------------------------------------------------


def test_loaded_trace_equals_fresh_generation(store):
    cold = get_trace("126.gcc", 1_500)
    assert store.writes == 1  # generation persisted the compiled form
    clear_cache()
    warm = get_trace("126.gcc", 1_500)
    assert store.hits >= 1
    assert warm is not cold  # genuinely reloaded, not memoized
    _assert_traces_equal(warm, cold)
    assert warm.provenance == cold.provenance
    # The persisted dependence map decodes instead of recomputing and
    # matches the reference analysis exactly.
    assert get_dependence_info(warm) == compute_dependence_info(cold)


def test_generator_version_bump_forces_regeneration(
    store, monkeypatch
):
    get_trace("126.gcc", 1_500)
    before = catalog.trace_stats().generated
    clear_cache()
    monkeypatch.setattr(catalog, "GENERATOR_VERSION", "test-bump")
    bumped = get_trace("126.gcc", 1_500)
    assert catalog.trace_stats().generated == before + 1  # regenerated
    assert bumped.provenance[3] == "test-bump"


def test_catalog_counts_sources(store):
    base = catalog.trace_stats()
    get_trace("102.swim", 1_200)
    assert catalog.trace_stats().delta(base).generated == 1
    get_trace("102.swim", 1_200)
    assert catalog.trace_stats().delta(base).memory_hits == 1
    clear_cache()
    get_trace("102.swim", 1_200)
    delta = catalog.trace_stats().delta(base)
    assert delta.store_hits == 1
    assert delta.trace_wall > 0.0


def test_unwritable_store_degrades_gracefully(tmp_path):
    # A regular file where the store root should be: every mkdir and
    # open under it raises NotADirectoryError (chmod tricks do not
    # work when the suite runs as root).
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    try:
        store = set_trace_store(blocker / "store")
        clear_cache()
        trace = get_trace("126.gcc", 1_000)  # must not raise
        assert len(trace) == 1_000
        assert store.writes == 0
    finally:
        set_trace_store(None)
        clear_cache()
