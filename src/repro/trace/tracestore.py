"""Persistent on-disk store for compiled traces.

Mirrors the conventions of :mod:`repro.experiments.store` (content
addressing, checksums, atomic writes, quiet failure → regenerate) but
for :class:`~repro.trace.compiled.CompiledTrace` binaries instead of
result records.

Keying exploits how traces are produced:

* A trace is a deterministic function of ``(name, length, seed,
  generator_version)``.
* The synthetic generator is **prefix-stable**: the first *n*
  instructions of a longer run are exactly the *n*-instruction run
  (same profile, same seed). So one file per *series* ``(name, seed,
  generator_version)`` — holding the longest trace generated so far —
  serves every shorter length by slicing columns, dependence map
  included (a load's producing store is always older, so restricting
  the map to loads below *n* is exact).
* A kernel runs on the VM to **natural completion** under an
  instruction *budget* (exceeding it raises). A stored kernel entry of
  natural length *L* serves any request whose budget is ≥ *L* — the
  regenerated trace would be identical — and misses for smaller
  budgets, where regeneration would raise exactly as it does uncached.

File layout: ``root/t{format}/xx/{digest}.rptc`` where *digest* is the
SHA-256 of the canonical series identity and *format* is
:data:`~repro.trace.compiled.COMPILED_FORMAT_VERSION`. Files under
another format's ``t<N>/`` are never served; :meth:`TraceStore.clear`
and ``repro cache prune`` still reach them. Payloads are
read through ``mmap`` and validated end-to-end (magic, version,
trailing SHA-256) by :meth:`CompiledTrace.from_bytes`; any structural
failure unlinks the file and falls through to regeneration, so
corruption can only ever cost a re-generation, never a wrong trace.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from typing import Iterator, Optional, Union

from repro.trace.compiled import (
    COMPILED_FORMAT_VERSION,
    CompiledTrace,
    TraceFormatError,
)

#: Environment variable naming the default trace-store directory.
TRACE_STORE_ENV_VAR = "REPRO_TRACE_STORE"


def default_trace_store_path() -> str:
    """``$REPRO_TRACE_STORE`` or ``~/.cache/repro-traces``."""
    env = os.environ.get(TRACE_STORE_ENV_VAR)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-traces"
    )


class TraceStore:
    """On-disk cache of compiled traces under one root directory."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        self.hits = 0
        self.prefix_hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_dropped = 0
        self.stale_dropped = 0

    # -- keying --------------------------------------------------------------

    def digest(self, name: str, seed: int, generator_version: str) -> str:
        """Content address of one trace *series*.

        Length is deliberately absent: one file per series holds the
        longest trace and serves shorter requests by column slicing.
        """
        identity = [COMPILED_FORMAT_VERSION, name, seed, generator_version]
        return hashlib.sha256(
            json.dumps(identity, sort_keys=True,
                       separators=(",", ":")).encode("utf-8")
        ).hexdigest()

    def _path_for(self, digest: str) -> str:
        return os.path.join(
            self.root, f"t{COMPILED_FORMAT_VERSION}", digest[:2],
            f"{digest}.rptc",
        )

    def path_for(self, name: str, seed: int, generator_version: str) -> str:
        """On-disk path a series would live at (whether or not present)."""
        return self._path_for(self.digest(name, seed, generator_version))

    # -- read ----------------------------------------------------------------

    def load(
        self, name: str, length: int, seed: int, generator_version: str
    ) -> Optional[CompiledTrace]:
        """The stored compiled trace for ``(name, length, seed)``.

        ``None`` on miss, corruption, version skew, or a stored entry
        too short to serve *length* under its kind's semantics.
        """
        path = self._path_for(self.digest(name, seed, generator_version))
        stored = self._read(path)
        if stored is None:
            self.misses += 1
            return None
        if stored.name != name:
            # A digest collision or a file moved by hand; either way
            # the content does not answer this query.
            self._drop(path, corrupt=True)
            self.misses += 1
            return None
        if stored.kind == "kernel":
            # Kernel entries hold a run to natural completion; they
            # serve any budget the run fits in. For smaller budgets
            # regeneration raises ExecutionLimitExceeded, exactly as
            # it would have uncached.
            if length >= stored.length:
                self.hits += 1
                return stored
            self.misses += 1
            return None
        if stored.length == length:
            self.hits += 1
            return stored
        if stored.length > length:
            self.prefix_hits += 1
            return stored.slice_prefix(length)
        # Too short for this request; keep it — it still serves
        # shorter lengths, and save() will replace it with the longer
        # trace the caller is about to generate.
        self.misses += 1
        return None

    def _read(self, path: str) -> Optional[CompiledTrace]:
        """Decode one file via mmap; unlink and None on any failure."""
        try:
            with open(path, "rb") as handle:
                try:
                    view = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except ValueError:  # empty file
                    self._drop(path, corrupt=True)
                    return None
        except FileNotFoundError:
            return None
        except OSError:
            return None
        result: Optional[CompiledTrace] = None
        try:
            result = CompiledTrace.from_bytes(view)
        except TraceFormatError:
            # Handled (not re-raised) so the traceback — which pins
            # memoryviews over the mmap — is discarded before close.
            pass
        try:
            view.close()
        except BufferError:
            # A stray exported view; the map is reclaimed when it dies.
            pass
        if result is None:
            self._drop(path, corrupt=True)
        return result

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
        compiled: CompiledTrace,
        seed: int,
        generator_version: str,
    ) -> Optional[str]:
        """Persist *compiled* as its series' entry.

        Replaces an existing entry only when *compiled* is longer (a
        longer synthetic trace serves strictly more requests; kernel
        lengths never differ within a generator version). Returns the
        entry path, or ``None`` when nothing was written.
        """
        digest = self.digest(compiled.name, seed, generator_version)
        path = self._path_for(digest)
        existing = self._read(path)
        if existing is not None and existing.length >= compiled.length:
            return None
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(compiled.to_bytes())
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            # Unwritable store (read-only CI cache, full disk): the
            # freshly generated trace is still returned to the caller.
            return None
        self.writes += 1
        return path

    # -- maintenance / introspection -----------------------------------------

    def entries(self) -> Iterator[str]:
        """Paths of every trace file of the current format."""
        return version_records(
            self.root, "t", COMPILED_FORMAT_VERSION, ".rptc"
        )

    def stale_entries(self) -> Iterator[str]:
        """Paths of trace files under any other format version: never
        served, so evicting them costs nothing."""
        return version_records(
            self.root, "t", COMPILED_FORMAT_VERSION, ".rptc", current=False
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
        """Delete every entry, of any format version; returns how many
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
            "format": COMPILED_FORMAT_VERSION,
            "hits": self.hits,
            "prefix_hits": self.prefix_hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_dropped": self.corrupt_dropped,
            "stale_dropped": self.stale_dropped,
            "entries": len(self),
            "stale_entries": sum(1 for _ in self.stale_entries()),
            "size_bytes": self.size_bytes(),
        }


def version_records(
    root: str, prefix: str, version: int, suffix: str, current: bool = True
) -> Iterator[str]:
    """Record paths under ``root/<prefix><version>/xx/``, or with
    ``current=False`` under every other ``<prefix><N>/`` directory."""
    if current:
        versions = [f"{prefix}{version}"]
    else:
        try:
            versions = sorted(
                name for name in os.listdir(root)
                if name.startswith(prefix) and name[len(prefix):].isdigit()
                and int(name[len(prefix):]) != version
            )
        except OSError:
            return
    for name in versions:
        base = os.path.join(root, name)
        if not os.path.isdir(base):
            continue
        for shard in sorted(os.listdir(base)):
            shard_dir = os.path.join(base, shard)
            if not os.path.isdir(shard_dir):
                continue
            for entry in sorted(os.listdir(shard_dir)):
                if entry.endswith(suffix):
                    yield os.path.join(shard_dir, entry)


# -- process-wide active store ----------------------------------------------

_active: Optional[TraceStore] = None
_explicitly_disabled = False


def set_trace_store(
    store: Union[TraceStore, str, os.PathLike, None],
) -> Optional[TraceStore]:
    """Install the process-wide trace store (path or instance).

    ``set_trace_store(None)`` disables persistence entirely, including
    the ``$REPRO_TRACE_STORE`` fallback, until the next call. Returns
    the installed store (or ``None``).
    """
    global _active, _explicitly_disabled
    if store is None:
        _active = None
        _explicitly_disabled = True
    elif isinstance(store, TraceStore):
        _active = store
        _explicitly_disabled = False
    else:
        _active = TraceStore(store)
        _explicitly_disabled = False
    return _active


def active_trace_store() -> Optional[TraceStore]:
    """The installed store, else one from ``$REPRO_TRACE_STORE``."""
    global _active
    if _active is None and not _explicitly_disabled:
        env = os.environ.get(TRACE_STORE_ENV_VAR)
        if env:
            _active = TraceStore(env)
    return _active
