"""Persistent, content-addressed store for simulation results.

The evaluation is a ~250-point (benchmark x configuration) matrix and
every figure driver re-derives overlapping subsets of it. The
in-process memo in :mod:`repro.experiments.runner` only helps within
one interpreter; this store persists :class:`~repro.core.result.SimResult`
records on disk so CI runs, CLI invocations and figure scripts all
share one warm cache.

:class:`ResultStore` is a :class:`~repro.diskstore.DiskStore` (which
owns the layout, atomic writes, dropping bad entries, maintenance and
the process-wide selection) with a JSON codec:

* **Key.** An entry's address is the digest of ``(schema version,
  benchmark, settings, config key)``; any change to the experiment
  identity — including fields added to :class:`ExperimentSettings`
  later — lands on a new address.
* **Checksummed records.** Each record carries a SHA-256 over its
  payload. Truncated, bit-flipped or hand-edited records fail to parse
  or fail the check, and are treated as absent (and unlinked when they
  fail the check), so corruption can only ever cost a re-simulation,
  never wrong results.
* **Schema versioning.** ``SCHEMA_VERSION`` names the ``v<N>/``
  directory and is stored in the record; bumping it orphans every old
  entry.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional, Tuple

from repro.core.result import SimResult
from repro.diskstore import DiskStore, Selection, digest_of
from repro.experiments.export import result_from_record, result_to_record

#: Bump when the stored record layout or the meaning of any keyed
#: field changes; every existing entry is then silently invalidated.
#: v3: split-window sync-fabric knobs (link latency, bandwidth, memory
#: banks) joined the runner's config key — v2 entries stored every
#: fabric point of a split sweep under one colliding address.
#: v4: ``config.observe`` left the key; one record per cell, observed
#: when any request observed it, serves plain and observed requests.
#: v5: the fetch, branch-predictor, cache, memory, latency and
#: redirect-penalty settings joined the key. Under v4 a machine that
#: differed from a stored one only there was served the stored
#: machine's result, so a v4 entry may hold another machine's numbers.
SCHEMA_VERSION = 5

#: Environment variable naming the default store directory.
STORE_ENV_VAR = "REPRO_RESULT_STORE"


class ResultStore(DiskStore):
    """On-disk cache of :class:`SimResult` records under one root."""

    prefix, suffix, version_name = "v", ".json", "schema"

    @property
    def version(self) -> int:
        return SCHEMA_VERSION

    def digest(
        self, benchmark: str, settings, config_key: Tuple
    ) -> str:
        """Content address of one (benchmark, settings, config) point."""
        return digest_of([
            SCHEMA_VERSION,
            benchmark,
            dataclasses.asdict(settings),
            list(config_key),
        ])

    def load(
        self, benchmark: str, settings, config_key: Tuple
    ) -> Optional[SimResult]:
        """The stored result, or ``None`` (miss/corrupt/stale)."""
        path = self._path_for(
            self.digest(benchmark, settings, config_key)
        )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        result = self._validate(record, path)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _validate(self, record, path: str) -> Optional[SimResult]:
        """Checked deserialisation; drops bad entries from disk."""
        if not isinstance(record, dict):
            self._drop(path, corrupt=True)
            return None
        if record.get("schema") != SCHEMA_VERSION:
            self._drop(path, corrupt=False)
            return None
        payload = record.get("payload")
        if digest_of(payload) != record.get("checksum"):
            self._drop(path, corrupt=True)
            return None
        try:
            return result_from_record(payload)
        except (KeyError, TypeError):
            # Field set drifted without a schema bump; treat as stale.
            self._drop(path, corrupt=False)
            return None

    def save(
        self,
        benchmark: str,
        settings,
        config_key: Tuple,
        result: SimResult,
    ) -> Optional[str]:
        """Persist *result*; returns the entry path (None on failure)."""
        payload = result_to_record(result)
        record = {
            "schema": SCHEMA_VERSION,
            "benchmark": benchmark,
            "settings": dataclasses.asdict(settings),
            "config": list(config_key),
            "checksum": digest_of(payload),
            "payload": payload,
        }
        # Not json.dump: it always takes the pure-Python encoder, which
        # leaves cyclic garbage per call.
        return self._write(
            self._path_for(self.digest(benchmark, settings, config_key)),
            json.dumps(record).encode("utf-8"),
        )


_selected = Selection(ResultStore, STORE_ENV_VAR, "repro-results")

#: ``$REPRO_RESULT_STORE`` or ``~/.cache/repro-results``.
default_store_path = _selected.default_path
#: Install the process-wide store (path or instance) and return it;
#: ``set_store(None)`` disables persistence, ``$REPRO_RESULT_STORE``
#: included, until the next ``set_store``.
set_store = _selected.set
#: The installed store, else one from ``$REPRO_RESULT_STORE``.
active_store = _selected.get
