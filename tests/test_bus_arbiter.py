"""Tests for bus masters: priority encoding and per-master statistics."""

import pytest

from repro.bus.arbiter import CPU_DATA, DMA_ENGINE, Master
from repro.bus.plb import make_plb
from repro.bus.transaction import Op, Transaction
from repro.engine.clock import ClockDomain, mhz
from repro.errors import BusError
from repro.mem.controllers import DdrController
from repro.mem.memory import MemoryArray


@pytest.fixture
def plb():
    bus = make_plb(ClockDomain("bus", mhz(100)))
    memory = MemoryArray(1 << 16, "m")
    bus.attach(DdrController(memory, 0, "mem"), 0, 1 << 16, name="mem")
    return bus


def txn(address=0):
    return Transaction(Op.READ, address)


def test_master_priority_range_checked():
    with pytest.raises(BusError):
        Master("bad", priority=4)


def test_per_master_stats_recorded(plb):
    plb.request(0, txn(0), master=CPU_DATA)
    plb.request(0, txn(8), master=DMA_ENGINE)
    assert plb.stats.get("master[cpu-data].reads") == 1
    assert plb.stats.get("master[dma].reads") == 1
    assert plb.stats.get("master[cpu-data].busy_ps") > 0


def test_contention_time_attributed_to_loser(plb):
    plb.request(0, txn(8), master=CPU_DATA)
    plb.request(0, txn(0), master=DMA_ENGINE)  # same edge: queues behind the CPU
    assert plb.stats.get("master[dma].contention_ps") > 0
    assert plb.stats.get("master[cpu-data].contention_ps") == 0


def test_master_threads_through_split_bursts(plb):
    plb.request(
        0,
        Transaction(Op.READ, 0, size_bytes=8, beats=40),
        master=DMA_ENGINE,
    )
    assert plb.stats.get("master[dma].reads") >= 3  # 40 beats -> 3 sub-bursts
