"""Job lifecycle, store probing, execution and queue persistence."""

from __future__ import annotations

import json

import pytest

from repro.experiments import store as store_mod
from repro.experiments.runner import clear_results, run_benchmark
from repro.experiments.store import set_store
from repro.service.jobs import (
    CallbackWriter,
    Job,
    JobRegistry,
    JobState,
    execute,
    probe,
)
from repro.service.protocol import JobSpec

QUICK = {"timing": 1500, "warmup": 500, "seed": 0}

CELL = {
    "kind": "cell",
    "benchmark": "132.ijpeg",
    "config": {"scheduling": "NAS", "policy": "NAV",
               "window": 64, "latency": 0},
    "settings": QUICK,
}


@pytest.fixture(autouse=True)
def _isolated_caches(monkeypatch):
    monkeypatch.delenv(store_mod.STORE_ENV_VAR, raising=False)
    clear_results()
    set_store(None)
    yield
    set_store(None)
    clear_results()


def test_callback_writer_forwards_events():
    seen = []
    writer = CallbackWriter(seen.append)
    writer.emit("ping", value=3)
    assert seen[0]["event"] == "ping"
    assert seen[0]["value"] == 3
    assert "ts" in seen[0]


class TestProbe:
    def test_cold_cache_returns_none(self):
        spec = JobSpec.from_wire(CELL)
        assert probe(spec, "job-x") is None

    def test_warm_memo_serves_full_payload(self):
        spec = JobSpec.from_wire(CELL)
        (label, config), = spec.labelled_configs().items()
        direct = run_benchmark("132.ijpeg", config, spec.settings())
        payload = probe(spec, "job-x")
        assert payload is not None
        record = payload["results"][label]["132.ijpeg"]
        assert record["cycles"] == direct.cycles
        assert record["extra"]["job_id"] == "job-x"
        # The stamp is wire-only: the cached result is untouched.
        assert "job_id" not in direct.extra

    def test_partial_cache_returns_none(self):
        sweep = JobSpec.from_wire({
            "kind": "sweep", "benchmarks": ["132.ijpeg", "107.mgrid"],
            "configs": [CELL["config"]], "settings": QUICK,
        })
        (_, config), = JobSpec.from_wire(CELL).labelled_configs().items()
        run_benchmark("132.ijpeg", config, sweep.settings())
        assert probe(sweep, "job-x") is None

    def test_store_populates_memo(self, tmp_path):
        set_store(tmp_path)
        spec = JobSpec.from_wire(CELL)
        (_, config), = spec.labelled_configs().items()
        run_benchmark("132.ijpeg", config, spec.settings())
        clear_results()  # drop the memo; the store still has it
        assert probe(spec, "job-y") is not None


class TestExecute:
    def test_cell_executes_and_streams(self):
        spec = JobSpec.from_wire(CELL)
        events = []
        payload = execute(spec, "job-z", events.append)
        (label,) = payload["results"]
        record = payload["results"][label]["132.ijpeg"]
        assert record["cycles"] > 0
        assert record["extra"]["job_id"] == "job-z"
        names = [e["event"] for e in events]
        assert names == ["cell_start", "cell_finish"]

    def test_sweep_executes_serially_with_shard_events(self):
        sweep = JobSpec.from_wire({
            "kind": "sweep", "benchmarks": ["132.ijpeg", "107.mgrid"],
            "configs": [CELL["config"]], "settings": QUICK,
            "workers": 1,
        })
        events = []
        payload = execute(sweep, "job-s", events.append, max_workers=1)
        (label,) = payload["results"]
        assert sorted(payload["results"][label]) == [
            "107.mgrid", "132.ijpeg",
        ]
        names = {e["event"] for e in events}
        assert "matrix_start" in names
        assert "matrix_finish" in names


class TestPersistence:
    def make_registry(self):
        registry = JobRegistry()
        queued = Job(spec=JobSpec.from_wire(CELL), id="job-q")
        done = Job(spec=JobSpec.from_wire(CELL), id="job-d")
        done.state = JobState.DONE
        follower = Job(spec=JobSpec.from_wire(CELL), id="job-f")
        follower.state = JobState.COALESCED
        running = Job(spec=JobSpec.from_wire(CELL), id="job-r")
        running.state = JobState.RUNNING
        for job in (queued, done, follower, running):
            registry.add(job)
        return registry

    def test_persists_queued_and_unfinished_followers(self, tmp_path):
        path = str(tmp_path / "queue.json")
        assert self.make_registry().persist_queue(path) == 2
        with open(path) as handle:
            doc = json.load(handle)
        assert {e["id"] for e in doc["queued"]} == {"job-q", "job-f"}

    def test_load_queue_consumes_file(self, tmp_path):
        path = str(tmp_path / "queue.json")
        self.make_registry().persist_queue(path)
        jobs = JobRegistry.load_queue(path)
        assert {j.id for j in jobs} == {"job-q", "job-f"}
        assert all(j.state == JobState.QUEUED for j in jobs)
        # Consumed: a crash loop cannot double-recover.
        assert JobRegistry.load_queue(path) == []

    def test_load_queue_skips_rotten_entries(self, tmp_path):
        path = str(tmp_path / "queue.json")
        doc = {
            "version": 1,
            "queued": [
                {"id": "job-bad", "spec": {"kind": "banquet"}},
                {"id": "job-ok",
                 "spec": JobSpec.from_wire(CELL).to_wire()},
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
        jobs = JobRegistry.load_queue(path)
        assert [j.id for j in jobs] == ["job-ok"]

    def test_load_queue_missing_file(self, tmp_path):
        assert JobRegistry.load_queue(str(tmp_path / "nope.json")) == []


def test_registry_counts():
    registry = JobRegistry()
    job = Job(spec=JobSpec.from_wire(CELL))
    registry.add(job)
    assert registry.counts()["queued"] == 1
    assert registry.get(job.id) is job
    assert registry.by_state(JobState.QUEUED) == [job]
