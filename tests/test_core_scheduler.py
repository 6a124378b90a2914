"""Unit tests for ready pools and functional-unit accounting."""

from repro.config.processor import WindowConfig
from repro.core.scheduler import FunctionalUnits, ReadyPool
from repro.core.window import Entry
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass


def _entry(seq, op=OpClass.IALU):
    return Entry(DynInst(seq=seq, pc=4 * seq, op=op), 0)


def test_ready_pool_pops_oldest_first():
    pool = ReadyPool()
    for seq in (5, 1, 9, 3):
        pool.push(_entry(seq))
    seqs = [pool.pop().seq for _ in range(4)]
    assert seqs == [1, 3, 5, 9]
    assert pool.pop() is None


def test_ready_pool_skips_squashed():
    pool = ReadyPool()
    alive, dead = _entry(1), _entry(2)
    pool.push(alive)
    pool.push(dead)
    dead.squashed = True
    assert pool.pop() is alive
    assert pool.pop() is None


def test_ready_pool_no_double_insert():
    pool = ReadyPool()
    entry = _entry(1)
    pool.push(entry)
    pool.push(entry)
    assert len(pool) == 1


def test_memory_ports():
    funits = FunctionalUnits(WindowConfig(memory_ports=2))
    funits.begin_cycle(0)
    assert funits.can_access_memory()
    funits.take_port()
    funits.take_port()
    assert not funits.can_access_memory()
    funits.begin_cycle(1)
    assert funits.can_access_memory()
