"""Age/size-based eviction for the persistent stores.

The stores keep every entry they write (only corrupt or stale ones
are dropped), so a store shared across runs, seeds and run lengths
only grows. ``repro cache prune`` applies two complementary policies
to the entry paths of a :class:`~repro.diskstore.DiskStore`, the base
of both stores:

* **age**: entries whose mtime is older than ``max_age_seconds`` go
  (a cold cell will be re-simulated on next request — eviction can
  only ever cost time, never correctness, exactly like corruption);
* **size**: if the survivors still exceed ``max_size_bytes``, the
  oldest-written go first until the store fits. A store hit does not
  touch its file, so an entry's mtime is when it was written, not when
  it was last read: this is FIFO, not LRU.

Dry-run by default: callers get the full eviction plan without any
unlink happening, and pass ``apply=True`` to execute it.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Optional, Tuple


def prune_paths(
    paths: Iterable[str],
    *,
    max_age_seconds: Optional[float] = None,
    max_size_bytes: Optional[int] = None,
    now: Optional[float] = None,
    apply: bool = False,
) -> dict:
    """Plan (and with ``apply`` execute) an eviction over *paths*.

    Returns a report dict: ``examined``, ``total_bytes``,
    ``selected`` (paths planned for eviction, oldest first),
    ``selected_bytes``, ``kept``, ``kept_bytes``, ``removed`` (0 on
    dry runs), ``errors`` (unlink failures), ``applied``.
    """
    now = time.time() if now is None else now
    entries: List[Tuple[float, int, str]] = []
    for path in paths:
        try:
            stat = os.stat(path)
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort()  # oldest first

    total_bytes = sum(size for _, size, _ in entries)
    selected: List[Tuple[float, int, str]] = []
    kept: List[Tuple[float, int, str]] = []
    for mtime, size, path in entries:
        if (
            max_age_seconds is not None
            and now - mtime > max_age_seconds
        ):
            selected.append((mtime, size, path))
        else:
            kept.append((mtime, size, path))

    if max_size_bytes is not None:
        kept_bytes = sum(size for _, size, _ in kept)
        index = 0
        while kept_bytes > max_size_bytes and index < len(kept):
            mtime, size, path = kept[index]
            selected.append((mtime, size, path))
            kept_bytes -= size
            index += 1
        kept = kept[index:]
    selected.sort()

    removed = 0
    errors = 0
    if apply:
        for _, _, path in selected:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                errors += 1

    return {
        "examined": len(entries),
        "total_bytes": total_bytes,
        "selected": [path for _, _, path in selected],
        "selected_bytes": sum(size for _, size, _ in selected),
        "kept": len(kept),
        "kept_bytes": sum(size for _, size, _ in kept),
        "removed": removed,
        "errors": errors,
        "applied": apply,
    }
