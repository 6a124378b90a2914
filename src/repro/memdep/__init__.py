"""Memory dependence speculation machinery — the paper's contribution.

This package provides the predictors and bookkeeping the core consults
when deciding whether a load may access memory:

* :class:`TwoBitPredictorTable` — the 4K 2-way PC-indexed confidence
  table used by selective (NAS/SEL) and store-barrier (NAS/STORE)
  speculation;
* :class:`MDPT` — the memory dependence prediction table with synonym
  indirection used by speculation/synchronization (NAS/SYNC);
* :class:`AddressScheduler` — posted-address tracking for the AS models,
  with configurable extra latency;
* :class:`ViolationDetector` — the speculative-load table stores check
  when they write.
"""

from repro.memdep.tables import TwoBitPredictorTable
from repro.memdep.sync import MDPT, SynchronizationPrediction
from repro.memdep.addr_scheduler import AddressScheduler
from repro.memdep.violation import ViolationDetector

__all__ = [
    "TwoBitPredictorTable",
    "MDPT",
    "SynchronizationPrediction",
    "AddressScheduler",
    "ViolationDetector",
]
