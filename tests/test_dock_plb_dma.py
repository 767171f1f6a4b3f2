"""Tests for the PLB Dock: PIO, register map, DMA engine, FIFO, interrupts."""

import pytest

from repro.bus.plb import make_plb
from repro.bus.transaction import Op, Transaction
from repro.dock.dma import Descriptor, SgDmaEngine
from repro.dock.plb_dock import (
    CTRL_FIFO_TO_MEM,
    CTRL_MEM_TO_DOCK,
    REG_DMA_CTRL,
    REG_DMA_DST,
    REG_DMA_LEN,
    REG_DMA_SRC,
    REG_FIFO_COUNT,
    REG_STATUS,
    STATUS_DMA_BUSY,
    PlbDock,
)
from repro.engine.clock import ClockDomain, mhz
from repro.errors import TransferError
from repro.kernels.streams import CounterSourceKernel, LoopbackKernel, SinkKernel
from repro.mem.controllers import DdrController
from repro.mem.memory import MemoryArray
from repro.periph.intc import InterruptController

DOCK_BASE = 0x8000_0000
MEM_SIZE = 1 << 20


@pytest.fixture
def rig():
    plb = make_plb(ClockDomain("bus", mhz(100)))
    memory = MemoryArray(MEM_SIZE, "ddr")
    plb.attach(DdrController(memory, 0, "ddr"), 0, MEM_SIZE, name="ddr")
    dock = PlbDock(DOCK_BASE)
    plb.attach(dock, DOCK_BASE, 0x1_0000, name="dock", posted_writes=True)
    dock.connect_bus(plb)
    intc = InterruptController(0xA002_0000)
    intc.enabled = 1
    dock.connect_interrupts(intc, 0)
    return plb, memory, dock, intc


def test_pio_loopback(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(LoopbackKernel())
    plb.request(0, Transaction(Op.WRITE, DOCK_BASE, data=0x77))
    completion = plb.request(plb.busy_until, Transaction(Op.READ, DOCK_BASE))
    assert completion.value == 0x77


def test_kernel_outputs_go_to_fifo(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(LoopbackKernel())
    plb.request(0, Transaction(Op.WRITE, DOCK_BASE, data=5))
    assert len(dock.fifo) == 1


def test_fifo_count_register(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(LoopbackKernel())
    plb.request(0, Transaction(Op.WRITE, DOCK_BASE, data=5))
    completion = plb.request(
        plb.busy_until, Transaction(Op.READ, DOCK_BASE + REG_FIFO_COUNT)
    )
    assert completion.value == 1


def test_dma_write_block_moves_memory_to_kernel(rig):
    plb, memory, dock, intc = rig
    sink = SinkKernel()
    dock.attach_kernel(sink)
    memory.write_words(0x1000, [11, 22, 33], size_bytes=8)
    done = dock.dma_write_block(0, 0x1000, 3)
    assert done > 0
    assert sink.words == 3
    assert sink.last == 33


def test_dma_drain_fifo_moves_results_to_memory(rig):
    plb, memory, dock, intc = rig
    source = CounterSourceKernel(seed=100)
    dock.attach_kernel(source)
    source.generate(4, width_bits=64)
    dock.collect_outputs()
    done, drained = dock.dma_drain_fifo(0, 0x2000)
    assert drained == 4
    assert memory.read_words(0x2000, 4, size_bytes=8) == [100, 101, 102, 103]
    assert dock.fifo.empty


def test_dma_drain_empty_fifo_is_noop(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(SinkKernel())
    done, drained = dock.dma_drain_fifo(123, 0x2000)
    assert (done, drained) == (123, 0)


def test_dma_completion_raises_interrupt(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(SinkKernel())
    memory.write_words(0x1000, [1], size_bytes=8)
    done = dock.dma_write_block(0, 0x1000, 1)
    assert intc.raised_log and intc.raised_log[-1] == (0, done)


def test_register_programmed_dma(rig):
    plb, memory, dock, intc = rig
    sink = SinkKernel()
    dock.attach_kernel(sink)
    memory.write_words(0x3000, [7, 8], size_bytes=8)
    cursor = 0
    for reg, value in [
        (REG_DMA_SRC, 0x3000),
        (REG_DMA_LEN, 2),
        (REG_DMA_CTRL, CTRL_MEM_TO_DOCK),
    ]:
        completion = plb.request(cursor, Transaction(Op.WRITE, DOCK_BASE + reg, data=value))
        cursor = completion.done_ps
    assert sink.words == 2


def test_register_programmed_fifo_drain(rig):
    plb, memory, dock, intc = rig
    source = CounterSourceKernel(seed=5)
    dock.attach_kernel(source)
    source.generate(2, width_bits=64)
    dock.collect_outputs()
    cursor = 0
    for reg, value in [
        (REG_DMA_DST, 0x4000),
        (REG_DMA_LEN, 2),
        (REG_DMA_CTRL, CTRL_FIFO_TO_MEM),
    ]:
        completion = plb.request(cursor, Transaction(Op.WRITE, DOCK_BASE + reg, data=value))
        cursor = completion.done_ps
    assert memory.read_words(0x4000, 2, size_bytes=8) == [5, 6]


def test_status_register_reports_dma_busy(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(SinkKernel())
    memory.write_words(0x1000, list(range(64)), size_bytes=8)
    done = dock.dma_write_block(0, 0x1000, 64)
    _, status = dock.access(Transaction(Op.READ, DOCK_BASE + REG_STATUS), when_ps=done // 2)
    assert status & STATUS_DMA_BUSY
    _, status = dock.access(Transaction(Op.READ, DOCK_BASE + REG_STATUS), when_ps=done)
    assert not (status & STATUS_DMA_BUSY)


def test_dma_zero_length_rejected(rig):
    plb, memory, dock, intc = rig
    with pytest.raises(TransferError):
        dock.access(Transaction(Op.WRITE, DOCK_BASE + REG_DMA_CTRL, data=CTRL_MEM_TO_DOCK), 0)


def test_ctrl_without_direction_rejected(rig):
    plb, memory, dock, intc = rig
    dock.access(Transaction(Op.WRITE, DOCK_BASE + REG_DMA_LEN, data=4), 0)
    with pytest.raises(TransferError):
        dock.access(Transaction(Op.WRITE, DOCK_BASE + REG_DMA_CTRL, data=0), 0)


def test_dma_requires_connected_bus():
    dock = PlbDock(DOCK_BASE)
    with pytest.raises(TransferError):
        dock.dma_write_block(0, 0, 1)


def test_descriptor_validation():
    with pytest.raises(TransferError):
        Descriptor(src=None, dst=None, word_count=1)
    with pytest.raises(TransferError):
        Descriptor(src=0, dst=None, word_count=0)
    with pytest.raises(TransferError):
        Descriptor(src=4, dst=4, word_count=1)
    # Overlapping memory-to-memory ranges, forward and backward.
    for dst in (0x1008, 0x1040, 0x1000 + 799 * 8, 0x1000 - 8):
        with pytest.raises(TransferError, match="overlap"):
            Descriptor(src=0x1000, dst=dst, word_count=800)
    # Touching ranges do not overlap.
    Descriptor(src=0x1000, dst=0x1000 + 800 * 8, word_count=800)
    Descriptor(src=0x1000, dst=0x1000 - 800 * 8, word_count=800)


def test_memory_to_memory_copy(rig):
    plb, memory, dock, intc = rig
    memory.write_words(0x5000, [1, 2, 3, 4, 5], size_bytes=8)
    engine = dock.dma
    engine.run_chain(0, [Descriptor(src=0x5000, dst=0x6000, word_count=5)])
    assert memory.read_words(0x6000, 5, size_bytes=8) == [1, 2, 3, 4, 5]


def test_dma_burst_faster_than_pio(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(SinkKernel())
    memory.write_words(0x1000, list(range(128)), size_bytes=8)
    done = dock.dma_write_block(0, 0x1000, 128)
    per_word_dma = done / 128
    # Compare against a single 32-bit PIO write round trip.
    single = plb.request(done, Transaction(Op.WRITE, DOCK_BASE, data=1))
    pio_time = single.done_ps - done
    assert per_word_dma < pio_time


def test_64bit_values_preserved_through_dma(rig):
    plb, memory, dock, intc = rig
    dock.attach_kernel(LoopbackKernel())
    values = [0x1122334455667788, 0xFFFFFFFFFFFFFFFF]
    memory.write_words(0x1000, values, size_bytes=8)
    done = dock.dma_write_block(0, 0x1000, 2)
    done, drained = dock.dma_drain_fifo(done, 0x2000)
    assert memory.read_words(0x2000, 2, size_bytes=8) == values
