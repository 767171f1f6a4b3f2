"""Model-based (stateful) property tests.

Hypothesis drives random operation sequences against a component and a
trivially correct reference model in lockstep; any divergence is a bug in
the component.  Covered: the output FIFO vs a deque, the 2- and 4-way
cache's tag state vs an explicit LRU dictionary, and the configuration
memory vs a dict of frames.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cpu.cache import Cache
from repro.dock.fifo import OutputFifo
from repro.errors import TransferError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.device import XC2VP4
from repro.fabric.frames import BlockType, FrameAddress


class FifoMachine(RuleBasedStateMachine):
    """OutputFifo vs collections.deque."""

    def __init__(self):
        super().__init__()
        self.fifo = OutputFifo(depth=8, width_bits=32)
        self.model = []

    @rule(value=st.integers(0, 2**32 - 1))
    def push(self, value):
        if len(self.model) >= 8:
            try:
                self.fifo.push(value)
                raise AssertionError("push should have overflowed")
            except TransferError:
                return
        self.fifo.push(value)
        self.model.append(value)

    @precondition(lambda self: self.model)
    @rule()
    def pop(self):
        assert self.fifo.pop() == self.model.pop(0)

    @rule()
    def clear(self):
        self.fifo.clear()
        self.model.clear()

    @invariant()
    def sizes_agree(self):
        assert len(self.fifo) == len(self.model)
        assert self.fifo.empty == (not self.model)
        assert self.fifo.full == (len(self.model) >= 8)


class CacheMachine(RuleBasedStateMachine):
    """Cache tags vs an explicit per-set LRU list."""

    SETS = 4
    WAYS = 2
    LINE = 32

    def __init__(self):
        super().__init__()
        self.cache = Cache(size_bytes=self.SETS * self.WAYS * self.LINE,
                           line_bytes=self.LINE, ways=self.WAYS)
        # Per-set list of (tag, dirty), most recent first.
        self.model = {s: [] for s in range(self.SETS)}

    def _locate(self, address):
        line = address // self.LINE
        return line % self.SETS, line // self.SETS

    def _reference(self, address, write):
        """One reference in the model: ``(hit, dirty eviction address)``."""
        index, tag = self._locate(address)
        lines = self.model[index]
        expected_hit = any(t == tag for t, _ in lines)
        expected_evict = None
        if expected_hit:
            pos = next(i for i, (t, _) in enumerate(lines) if t == tag)
            entry = lines.pop(pos)
            lines.insert(0, (tag, entry[1] or write))
        else:
            if len(lines) >= self.WAYS:
                victim_tag, victim_dirty = lines.pop()
                if victim_dirty:
                    victim_line = victim_tag * self.SETS + index
                    expected_evict = victim_line * self.LINE
            lines.insert(0, (tag, write))
        return expected_hit, expected_evict

    @rule(address=st.integers(0, 4095), write=st.booleans())
    def access(self, address, write):
        expected = self._reference(address, write)
        assert self.cache.access(address, write=write) == expected

    @rule(start=st.integers(0, 4095), nbytes=st.integers(0, 1024), write=st.booleans())
    def stream(self, start, nbytes, write):
        """A sweep misses on every line not resident among its first
        ``capacity`` lines, evicts dirty lines it displaces (plus its own
        beyond capacity when writing), and leaves its last ``capacity``
        lines referenced in order."""
        expected = (0, 0)
        if nbytes:
            capacity = self.SETS * self.WAYS
            lines = range(start // self.LINE, (start + nbytes - 1) // self.LINE + 1)
            window = min(len(lines), capacity)
            resident = sum(
                any(t == self._locate(line * self.LINE)[1] for t, _ in self.model[line % self.SETS])
                for line in lines[:window]
            )
            misses = len(lines) - resident
            dirty = sum(d for entries in self.model.values() for _, d in entries) if misses else 0
            evictions = min(dirty, misses) + (len(lines) - window if write else 0)
            for line in lines[len(lines) - window:]:
                self._reference(line * self.LINE, write)
            expected = (misses, evictions)
        assert self.cache.stream(start, nbytes, write=write) == expected

    @rule()
    def invalidate(self):
        self.cache.invalidate()
        self.model = {s: [] for s in range(self.SETS)}

    @invariant()
    def residency_agrees(self):
        for index, lines in self.model.items():
            for tag, _ in lines:
                line = tag * self.SETS + index
                assert self.cache.contains(line * self.LINE)

    @invariant()
    def dirty_counts_agree(self):
        expected = sum(1 for lines in self.model.values() for _, d in lines if d)
        assert self.cache.dirty_line_count() == expected

    @invariant()
    def lru_order_agrees(self):
        for index, lines in self.model.items():
            entries = list(zip(self.cache._tags[index].tolist(), self.cache._dirty[index].tolist()))
            assert entries == lines + [(-1, False)] * (self.WAYS - len(lines))


class FourWayCacheMachine(CacheMachine):
    """The same model on a 4-way cache, where a hit can sit mid-LRU."""

    WAYS = 4


class ConfigMemoryMachine(RuleBasedStateMachine):
    """ConfigMemory vs a plain dict of frames."""

    def __init__(self):
        super().__init__()
        self.memory = ConfigMemory(XC2VP4)
        self.words = self.memory.geometry.words_per_frame
        self.model = {}

    def _addr(self, major, minor):
        return FrameAddress(BlockType.CLB, major % 4, minor % 4)

    @rule(major=st.integers(0, 3), minor=st.integers(0, 3), fill=st.integers(0, 2**32 - 1))
    def write(self, major, minor, fill):
        address = self._addr(major, minor)
        data = np.full(self.words, fill, dtype=np.uint32)
        self.memory.write_frame(address, data)
        self.model[address] = data

    @rule(major=st.integers(0, 3), minor=st.integers(0, 3))
    def read(self, major, minor):
        address = self._addr(major, minor)
        expected = self.model.get(address, np.zeros(self.words, dtype=np.uint32))
        assert np.array_equal(self.memory.read_frame(address), expected)

    @rule()
    def snapshot_restore_roundtrip(self):
        snapshot = self.memory.snapshot()
        self.memory.write_frame(self._addr(0, 0), np.full(self.words, 0xAA, dtype=np.uint32))
        self.memory.restore(snapshot)
        for address, data in self.model.items():
            assert np.array_equal(self.memory.read_frame(address), data)


FifoMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
CacheMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=40, deadline=None)
FourWayCacheMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
ConfigMemoryMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)

TestFifoModel = FifoMachine.TestCase
TestCacheModel = CacheMachine.TestCase
TestFourWayCacheModel = FourWayCacheMachine.TestCase
TestConfigMemoryModel = ConfigMemoryMachine.TestCase
