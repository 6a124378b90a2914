"""Persistent on-disk store for compiled traces.

:class:`TraceStore` is a :class:`~repro.diskstore.DiskStore` (which
owns the layout, atomic writes, dropping bad entries, maintenance and
the process-wide selection) whose entries are
:class:`~repro.trace.compiled.CompiledTrace` binaries, decoded through
``mmap`` and validated end-to-end (magic, version, trailing SHA-256)
by :meth:`CompiledTrace.from_bytes`. A file that fails is dropped, so
corruption can only ever cost a re-generation, never a wrong trace.

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

:func:`serve` is that rule, for the store and the catalog's compiled
memo alike. Files live under ``t<format>/``, where *format* is
:data:`~repro.trace.compiled.COMPILED_FORMAT_VERSION`.
"""

from __future__ import annotations

import mmap
from typing import Optional

from repro.diskstore import DiskStore, Selection, digest_of
from repro.trace.compiled import (
    COMPILED_FORMAT_VERSION,
    CompiledTrace,
    TraceFormatError,
)

#: Environment variable naming the default trace-store directory.
TRACE_STORE_ENV_VAR = "REPRO_TRACE_STORE"


def serve(compiled: CompiledTrace, length: int) -> Optional[CompiledTrace]:
    """The part of *compiled* answering a request for *length*, if any.

    A kernel entry serves any budget its run fits in (under a smaller
    budget regeneration raises, exactly as uncached). A synthetic entry
    serves its own length, and a shorter one by column slicing.
    """
    if compiled.kind == "kernel":
        return compiled if length >= compiled.length else None
    if compiled.length == length:
        return compiled
    if compiled.length > length:
        return compiled.slice_prefix(length)
    return None


class TraceStore(DiskStore):
    """On-disk cache of compiled traces under one root directory."""

    prefix, suffix, version_name = "t", ".rptc", "format"
    counters = DiskStore.counters + ("prefix_hits",)

    @property
    def version(self) -> int:
        return COMPILED_FORMAT_VERSION

    def digest(self, name: str, seed: int, generator_version: str) -> str:
        """Content address of one trace *series*.

        Length is deliberately absent: one file per series holds the
        longest trace and serves shorter requests by column slicing.
        """
        return digest_of(
            [COMPILED_FORMAT_VERSION, name, seed, generator_version]
        )

    def load(
        self, name: str, length: int, seed: int, generator_version: str
    ) -> Optional[CompiledTrace]:
        """The stored compiled trace for ``(name, length, seed)``.

        ``None`` on miss, corruption, version skew, or a stored entry
        that does not :func:`serve` *length*. A synthetic entry too
        short for *length* stays: it still serves shorter requests, and
        :meth:`save` replaces it with the longer trace.
        """
        path = self._path_for(self.digest(name, seed, generator_version))
        stored = self._read(path)
        if stored is not None and stored.name != name:
            # A digest collision or a file moved by hand; either way
            # the content does not answer this query.
            self._drop(path, corrupt=True)
            stored = None
        served = serve(stored, length) if stored is not None else None
        if served is None:
            self.misses += 1
        elif served is stored:
            self.hits += 1
        else:
            self.prefix_hits += 1
        return served

    def _read(self, path: str) -> Optional[CompiledTrace]:
        """Decode one file via mmap; ``None`` on any failure, dropping
        a file that exists but does not decode."""
        try:
            with open(path, "rb") as handle:
                try:
                    view = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except ValueError:  # empty file
                    self._drop(path, corrupt=True)
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
        path = self._path_for(
            self.digest(compiled.name, seed, generator_version)
        )
        existing = self._read(path)
        if existing is not None and existing.length >= compiled.length:
            return None
        return self._write(path, compiled.to_bytes())


_selected = Selection(TraceStore, TRACE_STORE_ENV_VAR, "repro-traces")

#: ``$REPRO_TRACE_STORE`` or ``~/.cache/repro-traces``.
default_trace_store_path = _selected.default_path
#: Install the process-wide trace store (path or instance) and return
#: it; ``set_trace_store(None)`` disables persistence,
#: ``$REPRO_TRACE_STORE`` included, until the next call.
set_trace_store = _selected.set
#: The installed store, else one from ``$REPRO_TRACE_STORE``.
active_trace_store = _selected.get
