"""Memory hierarchy (Table 2): banked lockup-free caches, store buffer."""

from repro.memory.mshr import MSHRBank, MSHRFile
from repro.memory.cache import SetAssocCache
from repro.memory.main_memory import MainMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.store_buffer import StoreBuffer, StoreBufferEntry

__all__ = [
    "MSHRBank",
    "MSHRFile",
    "SetAssocCache",
    "MainMemory",
    "MemoryHierarchy",
    "StoreBuffer",
    "StoreBufferEntry",
]
