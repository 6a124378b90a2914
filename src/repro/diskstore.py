"""One file per entry, content-addressed, under a versioned directory.

The base of :class:`~repro.experiments.store.ResultStore` and
:class:`~repro.trace.tracestore.TraceStore`, which keep only their
codecs. An entry lives at ``root/<prefix><version>/xx/<digest><suffix>``:
*digest* is the SHA-256 of a canonical JSON identity (:func:`digest_of`),
``xx`` its first two hex digits. Entries under another version's
directory are never served, but :meth:`DiskStore.stale_entries`,
:meth:`DiskStore.clear` and ``repro cache prune`` still reach them.
Writes are atomic (a temporary file in the entry's directory, then
``os.replace``), so a crashed or concurrent writer never publishes half
an entry. Failure is quiet: a missing, corrupt or stale entry is a miss
(the codec drops and counts bad ones with :meth:`DiskStore._drop`) and
an unwritable store writes nothing, so a store can only cost time,
never correctness. :class:`Selection` holds the store of one kind that
a process uses.

One file per entry, rather than a database or segment files, because
forked ``--parallel`` workers write concurrently without locks, a trace
loads zero-copy through ``mmap``, and ``repro cache prune`` evicts by
each entry's mtime.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Iterator, Optional, Union


def digest_of(value) -> str:
    """SHA-256 (hex) of *value*'s canonical JSON: sorted keys, no
    whitespace."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DiskStore:
    """Entries under one root; a subclass sets :attr:`prefix`,
    :attr:`suffix` and :attr:`version_name`, may add :attr:`counters`,
    and defines :attr:`version`.
    """

    #: The version directory is ``<prefix><version>``.
    prefix = ""
    #: Every entry file ends in this suffix.
    suffix = ""
    #: The key naming :attr:`version` in :meth:`stats`.
    version_name = "version"
    #: Session counters: attributes starting at 0, reported by
    #: :meth:`stats`.
    counters = (
        "hits", "misses", "writes", "corrupt_dropped", "stale_dropped",
    )

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        for name in self.counters:
            setattr(self, name, 0)

    @property
    def version(self) -> int:
        """The current layout version: only its directory is served."""
        raise NotImplementedError

    def _path_for(self, digest: str) -> str:
        return os.path.join(
            self.root, f"{self.prefix}{self.version}", digest[:2],
            digest + self.suffix,
        )

    def _write(self, path: str, data: bytes) -> Optional[str]:
        """Publish *data* at *path* atomically; returns *path*, or
        ``None`` when the store is unwritable."""
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            # Unwritable store (read-only CI cache, full disk): the
            # caller still holds the value it meant to persist.
            return None
        self.writes += 1
        return path

    def _drop(self, path: str, corrupt: bool) -> None:
        """Count a bad entry as corrupt or stale, and unlink it."""
        if corrupt:
            self.corrupt_dropped += 1
        else:
            self.stale_dropped += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- maintenance / introspection -----------------------------------------

    def entries(self) -> Iterator[str]:
        """Paths of every entry of the current version."""
        return self._walk(current=True)

    def stale_entries(self) -> Iterator[str]:
        """Paths of entries under any other version: never served, so
        evicting them costs nothing."""
        return self._walk(current=False)

    def _walk(self, current: bool) -> Iterator[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        for name in names:
            number = name[len(self.prefix):]
            if not (name.startswith(self.prefix) and number.isdigit()
                    and (int(number) == self.version) == current):
                continue
            base = os.path.join(self.root, name)
            if not os.path.isdir(base):
                continue
            for shard in sorted(os.listdir(base)):
                shard_dir = os.path.join(base, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for entry in sorted(os.listdir(shard_dir)):
                    if entry.endswith(self.suffix):
                        yield os.path.join(shard_dir, entry)

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
        """Delete every entry, of any version; returns how many were
        removed."""
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
            self.version_name: self.version,
            **{name: getattr(self, name) for name in self.counters},
            "entries": len(self),
            "stale_entries": sum(1 for _ in self.stale_entries()),
            "size_bytes": self.size_bytes(),
        }


class Selection:
    """The process-wide store of one kind: the one installed with
    :meth:`set`, else one rooted at ``$<env_var>``, else none."""

    def __init__(self, kind: type, env_var: str, cache_name: str) -> None:
        self.kind = kind
        self.env_var = env_var
        self.cache_name = cache_name
        self.store: Optional[DiskStore] = None
        #: ``set(None)`` was the last call: ignore the environment.
        self.disabled = False

    def default_path(self) -> str:
        """``$<env_var>``, else ``~/.cache/<cache_name>``."""
        return os.environ.get(self.env_var) or os.path.join(
            os.path.expanduser("~"), ".cache", self.cache_name
        )

    def set(self, store) -> Optional[DiskStore]:
        """Install *store* (an instance or a root path) and return it.

        ``set(None)`` disables persistence entirely, including the
        environment fallback, until the next call.
        """
        if store is not None and not isinstance(store, self.kind):
            store = self.kind(store)
        self.store = store
        self.disabled = store is None
        return store

    def get(self) -> Optional[DiskStore]:
        """The installed store, else one from the environment."""
        if self.store is None and not self.disabled:
            root = os.environ.get(self.env_var)
            if root:
                self.store = self.kind(root)
        return self.store
