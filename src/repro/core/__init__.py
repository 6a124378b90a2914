"""Cycle-level out-of-order core (centralized, continuous window)."""

from repro.core.result import SimResult
from repro.core.window import Entry, Window
from repro.core.processor import Processor, simulate

__all__ = [
    "SimResult",
    "Entry",
    "Window",
    "Processor",
    "simulate",
]
