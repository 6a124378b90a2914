"""Host speed, measured by a fixed probe interleaved with the work.

The shared host this benchmark was written on runs its CPU at one of
two speeds about 1.6x apart, switching within seconds, and can stay
slow for minutes (``bench/README.md``, Noise). Raw wall time follows
those phases more than it follows the program. So every timed process
runs :func:`probe`, a fixed pure-Python loop that lives here and not
in ``src/``, at least every :data:`INTERVAL_NS` of work: the parent
right before launching a child and right after it exits, and the child
at its start and between simulations (:class:`Meter`).
:func:`normalized_s` then rescales each stretch between two probes by
how much slower than :data:`NOMINAL_NS` the faster of the two ran.
The result is the time the work would take at the host's full speed.
A change to the program changes the work between probes and so moves
this time; a slow phase of the host slows the probes too and cancels.

``python bench/speed.py`` prints probe durations, to re-derive
:data:`NOMINAL_NS` on another host.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

#: Iterations of the two loops of one probe: about 1 ms at full speed,
#: half of it in each loop.
PROBE_ITERATIONS = (4000, 30)

#: A probe's duration at the host's full speed (nproc=2 x86_64,
#: Python 3.11): the median of ``python bench/speed.py``'s probes in a
#: fast phase, when that median is within 15% of the fastest probe.
NOMINAL_NS = 940_000

#: A :class:`Meter` probes again once this much time has passed since
#: its last probe ended.
INTERVAL_NS = 25_000_000

Probe = Tuple[int, int]


def _step(n: int) -> int:
    # Integer arithmetic, dict stores and list growth, as a simulated
    # cycle does.
    total = 0
    table = {}
    items = []
    for i in range(n):
        total += (i * 7) % 13
        table[i & 255] = total
        items.append(total)
        if len(items) > 64:
            items.clear()
    return total


def _build(n: int) -> int:
    # Fresh lists and dicts, as building a processor does.
    size = 0
    for _ in range(n):
        rows = [[0] * 16 for _ in range(64)]
        table = {j: rows[j & 63] for j in range(128)}
        size += len(table)
    return size


def probe() -> Probe:
    """Run the probe once: ``(start_ns, end_ns)`` on ``time.monotonic_ns``,
    one clock for every process.

    The simulators slow by different amounts when the host slows. On
    the host above, over four minutes of probes alternating with
    simulations, the event-driven split-window core slowed about as
    much as this probe and the reference core about three quarters as
    much (slope of log time against log probe time: 1.00 and 0.74). The
    arithmetic loop alone gave 0.91 and 0.68; the allocation loop alone
    1.20 and 0.87, under-correcting the split-window core.
    """
    start = time.monotonic_ns()
    steps, builds = PROBE_ITERATIONS
    _step(steps)
    _build(builds)
    return start, time.monotonic_ns()


class Meter:
    """Probes of one process, at least :data:`INTERVAL_NS` apart."""

    def __init__(self) -> None:
        self.probes: List[Probe] = [probe()]

    def tick(self) -> None:
        """Probe if the last probe ended long enough ago."""
        if time.monotonic_ns() - self.probes[-1][1] >= INTERVAL_NS:
            self.probes.append(probe())


def normalized_s(probes: Sequence[Probe], start_ns: int, end_ns: int) -> float:
    """Seconds between *start_ns* and *end_ns* at full speed.

    Probe time is left out. Each stretch between consecutive probes
    counts its length times ``NOMINAL_NS`` over the shorter of the two
    probes' durations: an interrupted probe only reads slower, so the
    shorter one is the better reading of the speed. Parts of the
    interval before the first probe or after the last count nothing,
    so a caller brackets the interval with probes.
    """
    ordered = sorted(probes)
    total = 0.0
    for (s0, e0), (s1, e1) in zip(ordered, ordered[1:]):
        lo, hi = max(e0, start_ns), min(s1, end_ns)
        if hi > lo:
            total += (hi - lo) * NOMINAL_NS / min(e0 - s0, e1 - s1)
    return total / 1e9


if __name__ == "__main__":
    durations = sorted(e - s for s, e in (probe() for _ in range(3000)))
    print(f"probe of {PROBE_ITERATIONS} iterations: fastest "
          f"{durations[0]} ns, median {durations[len(durations) // 2]} ns, "
          f"NOMINAL_NS {NOMINAL_NS}")
