"""PowerPC 405 timing model.

The CPU is the "main thread" of a simulated program: it owns a time cursor
(:attr:`now_ps`) that advances as it executes instruction mixes, performs
cached loads/stores, or issues uncached I/O to the docks and peripherals.

Key properties carried over from the real core (and load-bearing for the
paper's conclusions):

* **Load/store width is at most 32 bits.**  ``io_read``/``io_write`` refuse
  8-byte accesses — programmatic transfers cannot use the 64-bit PLB width;
  only cache-line fills and DMA do ("only transfers that go through the
  caches use 64-bit transfers").
* **Posted writes release the CPU early.**  A store to a posted slave
  frees the CPU after the address phase; back-pressure appears naturally
  because the next transaction waits for the bus tenure to finish.
* **Caches are write-back, 32-byte lines.**  Line fills burst over the
  PLB (64-bit beats); through the bridge they degrade to 32-bit OPB beats.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bus.arbiter import CPU_DATA
from ..bus.bus import Bus
from ..bus.transaction import AddressRange, Op, Transaction
from ..engine.clock import ClockDomain
from ..engine.stats import StatsGroup
from ..errors import BusWidthError, SimulationError
from ..mem.memory import MemoryArray
from .cache import Cache
from .isa import InstructionMix


class CacheableWindow:
    """A cacheable address range backed by a memory array."""

    def __init__(self, base: int, size: int, memory: MemoryArray, scratch_offset: Optional[int] = None) -> None:
        self.range = AddressRange(base, size)
        self.memory = memory
        #: Offset (within the memory) safe to use for timing calibration
        #: transactions; defaults to the last cache line of the window.
        self.scratch_offset = scratch_offset if scratch_offset is not None else size - 32


class Ppc405:
    """PPC405 core with I/D caches and a PLB master port."""

    #: Pipeline cost of issuing one uncached load/store (beyond bus time).
    IO_OVERHEAD_CYCLES = 2
    #: Interrupt entry/exit (vector fetch, context save/restore).
    INTERRUPT_ENTRY_CYCLES = 40
    INTERRUPT_EXIT_CYCLES = 40

    def __init__(self, clock: ClockDomain, plb: Bus, name: str = "ppc405") -> None:
        self.clock = clock
        self.plb = plb
        self.name = name
        self.now_ps = 0
        self.icache = Cache(name=f"{name}.icache")
        self.dcache = Cache(name=f"{name}.dcache")
        self.stats = StatsGroup(name)
        self._windows: List[CacheableWindow] = []
        self._line_fill_cost: Dict[Tuple[int, Op], int] = {}
        self.interrupts_taken = 0

    # -- configuration ------------------------------------------------------
    def add_cacheable(self, base: int, size: int, memory: MemoryArray) -> None:
        """Mark [base, base+size) as cacheable, backed by ``memory``."""
        self._windows.append(CacheableWindow(base, size, memory))

    def _window_for(self, address: int) -> Optional[CacheableWindow]:
        for window in self._windows:
            if window.range.contains(address):
                return window
        return None

    def reset(self) -> None:
        """Reset-block hook: cold caches, time keeps running."""
        self.icache.invalidate()
        self.dcache.invalidate()
        self.stats.count("resets")

    # -- time ----------------------------------------------------------------
    def elapse_cycles(self, cycles: float) -> None:
        self.now_ps += self.clock.cycles_to_ps(cycles)

    def elapse_ps(self, ps: int) -> None:
        if ps < 0:
            raise SimulationError("cannot elapse negative time")
        self.now_ps += ps

    def execute(self, mix: InstructionMix, iterations: float = 1.0) -> None:
        """Run ``iterations`` of an instruction mix (cache-hit timing)."""
        cycles = mix.cycles() * iterations
        self.elapse_cycles(cycles)
        self.stats.count("instructions", round(mix.instructions * iterations))

    def execute_cycles(self, cycles: float) -> None:
        """Charge raw pipeline cycles (for per-instruction footnotes)."""
        self.elapse_cycles(cycles)

    # -- uncached I/O ------------------------------------------------------------
    def _check_io_size(self, size: int) -> None:
        if size > 4:
            raise BusWidthError(
                f"{self.name}: load/store instructions handle items of size up to "
                f"32 bits; use the DMA engine for 64-bit transfers"
            )

    def io_write(self, address: int, value: int, size: int = 4) -> None:
        """Uncached store (a programmed-I/O transfer to a device)."""
        self._check_io_size(size)
        self.elapse_cycles(self.IO_OVERHEAD_CYCLES)
        completion = self.plb.request(
            self.now_ps,
            Transaction(op=Op.WRITE, address=address, size_bytes=size, data=value),
            master=CPU_DATA,
        )
        self.now_ps = max(self.now_ps, completion.master_free_ps)
        self.stats.count("io_writes")

    def io_read(self, address: int, size: int = 4) -> int:
        """Uncached load (stalls for the full round trip)."""
        self._check_io_size(size)
        self.elapse_cycles(self.IO_OVERHEAD_CYCLES)
        completion = self.plb.request(
            self.now_ps,
            Transaction(op=Op.READ, address=address, size_bytes=size),
            master=CPU_DATA,
        )
        self.now_ps = max(self.now_ps, completion.done_ps)
        self.stats.count("io_reads")
        return int(completion.value) if completion.value is not None else 0

    def io_read_batch(self, address: int, count: int, size: int = 4) -> None:
        """Timing-only batch of ``count`` uncached loads from one device.

        Issues a single real transaction to calibrate the steady-state cost
        and multiplies — valid because the bus timing is deterministic and
        the CPU is the only master during programmed I/O.  Use only for
        side-effect-free targets (memory); stateful device reads go through
        :meth:`io_read` per word, batched by :func:`~repro.engine.batch.run_steady`.
        """
        if count <= 0:
            return
        self.io_read(address, size)
        if count == 1:
            return
        # Use the second access as the steady-state sample (the first may
        # pay extra clock-domain synchronisation).
        start = self.now_ps
        self.io_read(address, size)
        cost = self.now_ps - start
        if count > 2:
            self.now_ps += cost * (count - 2)
            self.plb.stats.count("reads", count - 2)
            self.stats.count("io_reads", count - 2)

    def io_write_batch(self, address: int, count: int, size: int = 4, value: int = 0) -> None:
        """Timing-only batch of ``count`` uncached stores (see io_read_batch).

        Steady-state posted-write throughput is limited by the bus tenure,
        not the CPU release time, so the calibration uses two probe writes
        and takes their spacing.
        """
        if count <= 0:
            return
        self.io_write(address, value, size)
        if count == 1:
            return
        self.io_write(address, value, size)
        if count == 2:
            return
        # Third probe measures the steady state (the first may pay extra
        # clock-domain sync, the second still drains the pipeline).
        second_free = self.now_ps
        busy_second = self.plb.busy_until
        self.io_write(address, value, size)
        spacing = max(self.now_ps - second_free, self.plb.busy_until - busy_second)
        self.now_ps = max(self.now_ps, self.now_ps + spacing * (count - 3))
        if count > 3:
            self.plb.stats.count("writes", count - 3)
            self.stats.count("io_writes", count - 3)

    # -- cached loads/stores ----------------------------------------------------------
    def _line_fill(self, window: CacheableWindow, address: int, op: Op) -> None:
        """Charge a cache-line burst (fill or write-back) at ``address``."""
        line_base = self.dcache.line_base(address)
        beat = 8 if self.plb.width_bits >= 64 else 4
        beats = self.dcache.line_bytes // beat
        # Write-backs of evicted lines rewrite data that is already
        # functionally current (stores update memory immediately), so the
        # burst must carry the line's real contents, not zeros.
        data = None
        if op is Op.WRITE:
            offset = line_base - window.range.base
            line = window.memory.dump(offset, self.dcache.line_bytes)
            data = [int(v) for v in line.view("<u8" if beat == 8 else "<u4")]
        completion = self.plb.request(
            self.now_ps,
            Transaction(op=op, address=line_base, size_bytes=beat, beats=beats, data=data),
            master=CPU_DATA,
        )
        self.now_ps = max(self.now_ps, completion.done_ps)

    def load_word(self, address: int, size: int = 4) -> int:
        """Cached load (uncached addresses fall back to :meth:`io_read`)."""
        self._check_io_size(size)
        window = self._window_for(address)
        if window is None:
            return self.io_read(address, size)
        hit, evicted = self.dcache.access(address, write=False)
        self.elapse_cycles(1)
        if not hit:
            if evicted is not None:
                self._line_fill(window, evicted, Op.WRITE)
            self._line_fill(window, address, Op.READ)
        value = window.memory.read_word(address - window.range.base, size)
        self.stats.count("loads")
        return value

    def store_word(self, address: int, value: int, size: int = 4) -> None:
        """Cached store (write-back timing, immediate functional update)."""
        self._check_io_size(size)
        window = self._window_for(address)
        if window is None:
            self.io_write(address, value, size)
            return
        hit, evicted = self.dcache.access(address, write=True)
        self.elapse_cycles(1)
        if not hit:
            if evicted is not None:
                self._line_fill(window, evicted, Op.WRITE)
            self._line_fill(window, address, Op.READ)  # write-allocate
        window.memory.write_word(address - window.range.base, size, value)
        self.stats.count("stores")

    # -- batched streaming penalties --------------------------------------------------
    def _calibrated_line_cost(self, window: CacheableWindow, op: Op) -> int:
        """Measured bus time of one cache-line burst in this window."""
        key = (window.range.base, op)
        cached = self._line_fill_cost.get(key)
        if cached is not None:
            return cached
        beat = 8 if self.plb.width_bits >= 64 else 4
        beats = self.dcache.line_bytes // beat
        scratch = window.range.base + window.scratch_offset
        saved = window.memory.dump(window.scratch_offset, self.dcache.line_bytes)
        start = self.plb.clock.next_edge(max(self.now_ps, self.plb.busy_until))
        completion = self.plb.request(
            start,
            Transaction(
                op=op,
                address=scratch,
                size_bytes=beat,
                beats=beats,
                data=[0] * beats if op is Op.WRITE else None,
            ),
        )
        window.memory.load(window.scratch_offset, saved)
        cost = completion.done_ps - start
        self._line_fill_cost[key] = cost
        return cost

    def charge_stream_read(self, base: int, nbytes: int) -> None:
        """Account a long sequential read sweep of [base, base+nbytes).

        Uses the analytic cache model: cost = misses x line-fill +
        evictions x write-back.  Functional data is *not* moved — software
        task models compute results with NumPy and use this only for time.
        """
        window = self._window_for(base)
        if window is None:
            raise SimulationError(f"stream at {base:#x} is not in cacheable memory")
        misses, evictions = self.dcache.stream(base, nbytes, write=False)
        cost = misses * self._calibrated_line_cost(window, Op.READ)
        cost += evictions * self._calibrated_line_cost(window, Op.WRITE)
        self.now_ps += cost
        self.plb.stats.count("reads", misses)
        self.stats.count("stream_read_bytes", nbytes)

    def charge_stream_write(self, base: int, nbytes: int, allocate: bool = True) -> None:
        """Account a long sequential write sweep (write-allocate + write-back).

        ``allocate=False`` models a hand-tuned store loop that uses ``dcbz``
        (data-cache-block-zero) to claim whole lines without the
        write-allocate fill — the kind of adaptation work the paper notes
        the DMA transfer mode forces onto the programmer.
        """
        window = self._window_for(base)
        if window is None:
            raise SimulationError(f"stream at {base:#x} is not in cacheable memory")
        misses, evictions = self.dcache.stream(base, nbytes, write=True)
        cost = 0
        if allocate:
            cost += misses * self._calibrated_line_cost(window, Op.READ)
        cost += evictions * self._calibrated_line_cost(window, Op.WRITE)
        self.now_ps += cost
        self.plb.stats.count("writes", misses)
        self.stats.count("stream_write_bytes", nbytes)

    # -- interrupts --------------------------------------------------------------------
    def take_interrupt(self, when_ps: int) -> None:
        """Enter the interrupt handler raised at ``when_ps``."""
        self.now_ps = max(self.now_ps, when_ps)
        self.elapse_cycles(self.INTERRUPT_ENTRY_CYCLES)
        self.interrupts_taken += 1
        self.stats.count("interrupts")

    def return_from_interrupt(self) -> None:
        self.elapse_cycles(self.INTERRUPT_EXIT_CYCLES)
