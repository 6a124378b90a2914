"""Simulator backend registry for the continuous-window core.

Two backends produce bit-identical :class:`~repro.core.result.SimResult`
numbers for the same (config, trace, plan):

``reference``
    The pure-Python object-per-instruction core
    (:class:`repro.core.processor.Processor`). Always available, always
    authoritative; the golden-parity fixture is regenerated from it.

``vector``
    The structure-of-arrays core (:class:`repro.core.vector.
    VectorProcessor`) that consumes packed ``CompiledTrace`` columns
    directly — no ``DynInst`` materialization on the fast path. It
    exists purely for throughput; any divergence from ``reference`` is
    a bug (CI's ``backend-parity`` job enforces this).

Split-window configs are not a backend choice: they always run on the
one split-window machine,
:class:`repro.splitwindow.processor.SplitWindowProcessor`, which
:func:`repro.core.processor.simulate` and
:func:`repro.experiments.runner.run_benchmark` select from
``config.split.enabled`` alone.

Selection precedence (first non-empty wins)::

    explicit argument > config.backend > $REPRO_BACKEND > "reference"

The ``vector`` backend transparently delegates to ``reference`` when a
run is observed (an attached :class:`~repro.observe.ObserverBus` or
``config.observe``), since every observer-bus sink reads
per-instruction objects — see :func:`vector_limitation`.

The vector core additionally runs with **event-horizon cycle elision**
by default: when a cycle provably cannot schedule, complete, fetch or
commit anything, the clock jumps straight to the next possible event
and the skipped cycles are charged to the same stall causes the
:class:`~repro.observe.stalls.StallAccountant` would report. Elision
never changes results (every golden cell is bit-identical either way;
``repro.check.elision`` verifies each elided cycle is
schedulable-empty on the reference core). ``REPRO_VECTOR_ELIDE=0``
forces the single-step walk for A/B debugging.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

#: Environment variable consulted when neither an explicit argument nor
#: ``config.backend`` selects a backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Environment knob for the vector core's event-horizon elision:
#: unset/``"1"`` elides provably-idle cycles, ``"0"`` forces the
#: single-step walk (CI runs the golden-parity suite under both).
ELIDE_ENV = "REPRO_VECTOR_ELIDE"

DEFAULT_BACKEND = "reference"

#: name -> factory(config, trace, dep_info=None, observer=None) -> runner
#: where the runner exposes ``.run(plan) -> SimResult``.
_REGISTRY: Dict[str, Callable] = {}


class UnknownBackendError(ValueError):
    """Requested backend name is not registered."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown simulator backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
        self.name = name


def register_backend(name: str, factory: Callable) -> None:
    """Register *factory* under *name* (last registration wins)."""
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Callable:
    """Factory for *name*, raising :class:`UnknownBackendError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name) from None


def resolve_backend(
    explicit: Optional[str] = None, config=None
) -> str:
    """Resolve the effective backend name.

    Precedence: *explicit* > ``config.backend`` > ``$REPRO_BACKEND`` >
    ``"reference"``. The resolved name is validated against the
    registry so typos fail fast at selection time, not deep inside a
    sweep.
    """
    name = explicit
    if not name and config is not None:
        name = getattr(config, "backend", None)
    if not name:
        name = os.environ.get(BACKEND_ENV) or None
    if not name:
        name = DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise UnknownBackendError(name)
    return name


def vector_limitation(config, observer=None) -> Optional[str]:
    """Why this run cannot use the vector fast path (None if it can).

    The vector core keeps no per-instruction objects, and the observer
    bus's sinks read them, so an observed run forces the reference
    backend.
    """
    if observer is not None or getattr(config, "observe", False):
        return "observability requires the reference backend"
    return None


# ----------------------------------------------------------------------
# built-in backends (lazy imports: processor.py imports this module)
# ----------------------------------------------------------------------

def _reference_factory(config, trace, dep_info=None, observer=None):
    from repro.core.processor import Processor

    return Processor(config, trace, dep_info, observer=observer)


def _vector_factory(config, trace, dep_info=None, observer=None):
    if vector_limitation(config, observer) is not None:
        return _reference_factory(config, trace, dep_info, observer)
    from repro.core.vector import VectorProcessor

    return VectorProcessor(config, trace, dep_info)


register_backend("reference", _reference_factory)
register_backend("vector", _vector_factory)
