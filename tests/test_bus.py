"""Tests for the generic bus model (OPB/PLB parameterisations)."""

import pytest

from repro.bus.arbiter import DMA_ENGINE
from repro.bus.bus import Bus
from repro.bus.opb import make_opb
from repro.bus.plb import make_plb
from repro.bus.transaction import AddressRange, Completion, Op, Transaction
from repro.engine.clock import ClockDomain, mhz
from repro.engine.trace import TraceRecorder
from repro.errors import AddressDecodeError, BusError, BusWidthError
from repro.mem.controllers import SramController
from repro.mem.memory import MemoryArray


@pytest.fixture
def opb():
    bus = make_opb(ClockDomain("bus", mhz(50)))
    memory = MemoryArray(4096, "m")
    bus.attach(SramController(memory, 0, "sram"), 0, 4096, name="sram")
    return bus


@pytest.fixture
def plb():
    bus = make_plb(ClockDomain("bus", mhz(100)))
    memory = MemoryArray(8192, "m")
    bus.attach(SramController(memory, 0, "mem"), 0, 8192, name="mem")
    return bus


def test_address_range_contains():
    r = AddressRange(0x100, 0x10)
    assert r.contains(0x100)
    assert r.contains(0x10C, 4)
    assert not r.contains(0x10D, 4)
    assert not r.contains(0xFF)


def test_address_range_overlap():
    assert AddressRange(0, 16).overlaps(AddressRange(8, 16))
    assert not AddressRange(0, 16).overlaps(AddressRange(16, 16))


def test_transaction_validation():
    with pytest.raises(ValueError):
        Transaction(Op.READ, 0, size_bytes=3)
    with pytest.raises(ValueError):
        Transaction(Op.READ, 0, beats=0)


def test_attach_overlap_rejected(opb):
    with pytest.raises(BusError, match="overlaps"):
        opb.attach(object(), 0x800, 0x1000, name="late")


def test_decode_unknown_address(opb):
    with pytest.raises(AddressDecodeError):
        opb.request(0, Transaction(Op.READ, 0x9999_0000))


def test_width_enforced(opb):
    with pytest.raises(BusWidthError):
        opb.request(0, Transaction(Op.READ, 0, size_bytes=8))


def test_write_then_read_functional(opb):
    opb.request(0, Transaction(Op.WRITE, 0x40, data=0xCAFEBABE))
    completion = opb.request(opb.busy_until, Transaction(Op.READ, 0x40))
    assert completion.value == 0xCAFEBABE


def test_read_takes_longer_than_write(opb):
    w = opb.request(0, Transaction(Op.WRITE, 0, data=1))
    start = opb.busy_until
    r = opb.request(start, Transaction(Op.READ, 0))
    assert (r.done_ps - start) > w.done_ps  # read turnaround + wait states


def test_bus_serialises_requests(opb):
    first = opb.request(0, Transaction(Op.WRITE, 0, data=1))
    second = opb.request(0, Transaction(Op.WRITE, 4, data=2))
    assert second.done_ps > first.done_ps


def test_requests_align_to_clock_edge(opb):
    completion = opb.request(1, Transaction(Op.WRITE, 0, data=1))
    assert completion.done_ps % opb.clock.period_ps == 0


def test_burst_on_plb_is_pipelined(plb):
    single = plb.request(0, Transaction(Op.READ, 0, size_bytes=8))
    t0 = plb.busy_until
    burst = plb.request(t0, Transaction(Op.READ, 0, size_bytes=8, beats=8))
    burst_time = burst.done_ps - t0
    # 8 beats must cost far less than 8 separate transactions.
    assert burst_time < 8 * single.done_ps * 0.8


def test_burst_write_data_lands(plb):
    data = [10, 20, 30, 40]
    plb.request(0, Transaction(Op.WRITE, 0x100, size_bytes=8, beats=4, data=data))
    completion = plb.request(plb.busy_until, Transaction(Op.READ, 0x100, size_bytes=8, beats=4))
    assert completion.value == data


def test_long_burst_split_and_reassembled(plb):
    data = list(range(50))
    plb.request(0, Transaction(Op.WRITE, 0, size_bytes=8, beats=50, data=data))
    completion = plb.request(plb.busy_until, Transaction(Op.READ, 0, size_bytes=8, beats=50))
    assert completion.value == data


@pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
@pytest.mark.parametrize("master", [None, DMA_ENGINE])
def test_long_burst_matches_its_sub_bursts_issued_one_by_one(op, master):
    """An over-long request is exactly its max-sized sub-bursts in a row:
    same completion, value, statistics and trace events."""

    def run(split):
        bus = make_plb(ClockDomain("bus", mhz(100)))
        memory = MemoryArray(8192, "m")
        memory.load(0, bytes(range(256)) * 32)
        bus.attach(SramController(memory, 0, "mem"), 0, 8192, name="mem", posted_writes=True)
        bus.tracer = TraceRecorder()
        beats = 2 * bus.max_burst_beats + 5
        data = list(range(100, 100 + beats)) if op is Op.WRITE else None
        if not split:
            txn = Transaction(op, 0x40, size_bytes=8, beats=beats, data=data)
            completion = bus.request(1_000, txn, master=master)
        else:
            cursor, values, offset = 1_000, [], 0
            while offset < beats:
                sub = min(bus.max_burst_beats, beats - offset)
                part = data[offset : offset + sub] if data else None
                txn = Transaction(op, 0x40 + 8 * offset, size_bytes=8, beats=sub, data=part)
                completion = bus.request(cursor, txn, master=master)
                if completion.value is not None:
                    values.extend(completion.value)
                cursor, offset = completion.done_ps, offset + sub
            completion = Completion(cursor, values or None, completion.released_ps)
        events = [event.as_dict() for event in bus.tracer.events]
        return completion, bus.stats.snapshot(), events, memory.dump(0, 8192).tobytes()

    assert run(split=False) == run(split=True)


def test_posted_write_releases_early():
    bus = make_plb(ClockDomain("bus", mhz(100)))
    memory = MemoryArray(4096, "m")
    bus.attach(SramController(memory, 0, "mem"), 0, 4096, name="mem", posted_writes=True)
    completion = bus.request(0, Transaction(Op.WRITE, 0, data=5))
    assert completion.released_ps is not None
    assert completion.released_ps < completion.done_ps
    assert completion.master_free_ps == completion.released_ps


def test_non_posted_read_never_released_early(plb):
    completion = plb.request(0, Transaction(Op.READ, 0))
    assert completion.released_ps is None
    assert completion.master_free_ps == completion.done_ps


def test_stats_recorded(opb):
    opb.request(0, Transaction(Op.WRITE, 0, data=1))
    opb.request(0, Transaction(Op.READ, 0))
    assert opb.stats.get("writes") == 1
    assert opb.stats.get("reads") == 1
    assert opb.stats.get("beats") == 2


def test_opb_narrower_than_plb():
    assert make_opb(ClockDomain("b", mhz(50))).width_bits == 32
    assert make_plb(ClockDomain("b", mhz(50))).width_bits == 64
