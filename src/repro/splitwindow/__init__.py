"""Distributed, split-window processor model (Section 3.7)."""

from repro.splitwindow.fabric import BankedMemory, SyncFabric
from repro.splitwindow.processor import SplitWindowProcessor, simulate_split

__all__ = [
    "BankedMemory",
    "SplitWindowProcessor",
    "SyncFabric",
    "simulate_split",
]
