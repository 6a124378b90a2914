"""Persistent, content-addressed store for simulation results.

The evaluation is a ~250-point (benchmark x configuration) matrix and
every figure driver re-derives overlapping subsets of it. The
in-process memo in :mod:`repro.experiments.runner` only helps within
one interpreter; this store persists :class:`~repro.core.result.SimResult`
records on disk so CI runs, CLI invocations and figure scripts all
share one warm cache.

Design:

* **Content-addressed keys.** An entry's filename is the SHA-256 of a
  canonical JSON encoding of ``(schema version, benchmark, settings,
  config key)``; any change to the experiment identity — including
  fields added to :class:`ExperimentSettings` later — lands on a new
  address and old entries simply stop matching.
* **Checksummed records.** Each record carries a SHA-256 over its
  payload. Truncated, bit-flipped or hand-edited records fail the
  check and are treated as absent (and unlinked), so corruption can
  only ever cost a re-simulation, never wrong results.
* **Schema versioning.** ``SCHEMA_VERSION`` is part of both the
  address and the record; bumping it orphans every old entry. Records
  under another version's ``v<N>/`` directory are never served, but
  :meth:`ResultStore.clear` and ``repro cache prune`` still reach them
  (:meth:`ResultStore.stale_entries`).
* **Atomic writes.** Records are written to a temporary file in the
  same directory and ``os.replace``d into place, so a crashed or
  parallel writer never publishes a half-written record.

The store is deliberately quiet: every failure mode (missing entry,
corrupt record, stale schema, unreadable directory) falls through to
re-simulation. Counters on the instance expose what happened for the
telemetry stream and the ``repro-experiments cache`` subcommand.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Iterator, Optional, Tuple, Union

from repro.core.result import SimResult
from repro.experiments.export import result_from_record, result_to_record
from repro.trace.tracestore import version_records

#: Bump when the stored record layout or the meaning of any keyed
#: field changes; every existing entry is then silently invalidated.
#: v3: split-window sync-fabric knobs (link latency, bandwidth, memory
#: banks) joined the runner's config key — v2 entries stored every
#: fabric point of a split sweep under one colliding address.
#: v4: ``config.observe`` left the key; one record per cell, observed
#: when any request observed it, serves plain and observed requests.
SCHEMA_VERSION = 4

#: Environment variable naming the default store directory.
STORE_ENV_VAR = "REPRO_RESULT_STORE"


def default_store_path() -> str:
    """``$REPRO_RESULT_STORE`` or ``~/.cache/repro-results``."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-results"
    )


def _canonical(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=str
    )


class ResultStore:
    """On-disk cache of :class:`SimResult` records under one root."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_dropped = 0
        self.stale_dropped = 0

    # -- keying --------------------------------------------------------------

    def digest(
        self, benchmark: str, settings, config_key: Tuple
    ) -> str:
        """Content address of one (benchmark, settings, config) point."""
        identity = [
            SCHEMA_VERSION,
            benchmark,
            dataclasses.asdict(settings),
            list(config_key),
        ]
        return hashlib.sha256(
            _canonical(identity).encode("utf-8")
        ).hexdigest()

    def _path_for(self, digest: str) -> str:
        return os.path.join(
            self.root, f"v{SCHEMA_VERSION}", digest[:2],
            f"{digest}.json",
        )

    # -- read ----------------------------------------------------------------

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
        checksum = hashlib.sha256(
            _canonical(payload).encode("utf-8")
        ).hexdigest()
        if checksum != record.get("checksum"):
            self._drop(path, corrupt=True)
            return None
        try:
            return result_from_record(payload)
        except (KeyError, TypeError):
            # Field set drifted without a schema bump; treat as stale.
            self._drop(path, corrupt=False)
            return None

    def _drop(self, path: str, corrupt: bool) -> None:
        if corrupt:
            self.corrupt_dropped += 1
        else:
            self.stale_dropped += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- write ---------------------------------------------------------------

    def save(
        self,
        benchmark: str,
        settings,
        config_key: Tuple,
        result: SimResult,
    ) -> Optional[str]:
        """Persist *result*; returns the entry path (None on failure)."""
        digest = self.digest(benchmark, settings, config_key)
        payload = result_to_record(result)
        record = {
            "schema": SCHEMA_VERSION,
            "benchmark": benchmark,
            "settings": dataclasses.asdict(settings),
            "config": list(config_key),
            "checksum": hashlib.sha256(
                _canonical(payload).encode("utf-8")
            ).hexdigest(),
            "payload": payload,
        }
        path = self._path_for(digest)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # Not json.dump: it always takes the pure-Python
                    # encoder, which leaves cyclic garbage per call.
                    handle.write(json.dumps(record))
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            # Unwritable store (read-only CI cache, full disk): the
            # simulation result is still returned to the caller.
            return None
        self.writes += 1
        return path

    # -- maintenance / introspection -----------------------------------------

    def entries(self) -> Iterator[str]:
        """Paths of every record of the current schema version."""
        return version_records(self.root, "v", SCHEMA_VERSION, ".json")

    def stale_entries(self) -> Iterator[str]:
        """Paths of records under any other schema version: never
        served, so evicting them costs nothing."""
        return version_records(
            self.root, "v", SCHEMA_VERSION, ".json", current=False
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every entry, of any schema version; returns how many
        were removed."""
        removed = 0
        for path in [*self.entries(), *self.stale_entries()]:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        """Session counters plus on-disk totals."""
        return {
            "path": self.root,
            "schema": SCHEMA_VERSION,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_dropped": self.corrupt_dropped,
            "stale_dropped": self.stale_dropped,
            "entries": len(self),
            "stale_entries": sum(1 for _ in self.stale_entries()),
            "size_bytes": self.size_bytes(),
        }


# -- process-wide active store ----------------------------------------------

_active: Optional[ResultStore] = None
_explicitly_disabled = False


def set_store(
    store: Union[ResultStore, str, os.PathLike, None],
) -> Optional[ResultStore]:
    """Install the process-wide store (path or instance).

    ``set_store(None)`` disables persistence entirely, including the
    ``$REPRO_RESULT_STORE`` fallback, until the next ``set_store``.
    Returns the installed store (or ``None``).
    """
    global _active, _explicitly_disabled
    if store is None:
        _active = None
        _explicitly_disabled = True
    elif isinstance(store, ResultStore):
        _active = store
        _explicitly_disabled = False
    else:
        _active = ResultStore(store)
        _explicitly_disabled = False
    return _active


def active_store() -> Optional[ResultStore]:
    """The installed store, else one from ``$REPRO_RESULT_STORE``."""
    global _active
    if _active is None and not _explicitly_disabled:
        env = os.environ.get(STORE_ENV_VAR)
        if env:
            _active = ResultStore(env)
    return _active
