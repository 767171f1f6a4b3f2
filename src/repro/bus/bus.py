"""Generic synchronous bus with CoreConnect-style phase timing.

One :class:`Bus` instance models either the OPB or the PLB (see
:mod:`repro.bus.opb` / :mod:`repro.bus.plb` for the concrete parameter
sets).  Timing per request::

    sync-to-clock + arbitration + address phase
        + beats * beat_cycles            (pipelined: overlapped with address)
        + slave wait states
        [+ read turnaround]

The bus serialises masters through a ``busy_until`` watermark: a request
arriving while the bus is occupied starts when it frees up.  Writes to
slaves that accept *posted* writes release the master after the address
phase while the bus itself stays busy — this is what makes dock writes
cheaper than dock reads in the paper's transfer tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..engine import fastpath
from ..engine.clock import ClockDomain
from ..engine.stats import StatsGroup
from ..errors import AddressDecodeError, BusError, BusWidthError
from .transaction import AddressRange, Completion, Op, Slave, Transaction


@dataclass
class Attachment:
    """One slave plugged into the bus."""

    slave: Slave
    range: AddressRange
    name: str
    #: Writes complete (from the master's view) after the address phase.
    posted_writes: bool = False


class Bus:
    """A synchronous, arbitrated, transaction-level bus."""

    def __init__(
        self,
        name: str,
        clock: ClockDomain,
        width_bits: int,
        arb_cycles: int = 1,
        addr_cycles: int = 1,
        beat_cycles: int = 1,
        read_turnaround_cycles: int = 1,
        pipelined_bursts: bool = False,
        max_burst_beats: int = 16,
    ) -> None:
        if width_bits not in (32, 64):
            raise BusError(f"bus width {width_bits} not supported")
        self.name = name
        self.clock = clock
        self.width_bits = width_bits
        self.arb_cycles = arb_cycles
        self.addr_cycles = addr_cycles
        self.beat_cycles = beat_cycles
        self.read_turnaround_cycles = read_turnaround_cycles
        self.pipelined_bursts = pipelined_bursts
        self.max_burst_beats = max_burst_beats
        self._attachments: List[Attachment] = []
        self._busy_until = 0
        self.stats = StatsGroup(name)
        #: Optional :class:`repro.engine.trace.TraceRecorder` hook.  It only
        #: observes: a traced bus takes the same paths as an untraced one.
        self.tracer = None

    # -- topology ---------------------------------------------------------
    def attach(self, slave: Slave, base: int, size: int, name: str = "", posted_writes: bool = False) -> Attachment:
        """Attach ``slave`` at address range [base, base+size)."""
        new_range = AddressRange(base, size)
        for existing in self._attachments:
            if existing.range.overlaps(new_range):
                raise BusError(
                    f"{self.name}: range {new_range} for {name or slave!r} overlaps "
                    f"{existing.name} at {existing.range}"
                )
        attachment = Attachment(
            slave=slave, range=new_range, name=name or type(slave).__name__, posted_writes=posted_writes
        )
        self._attachments.append(attachment)
        return attachment

    def decode(self, address: int, length: int = 1) -> Attachment:
        """Find the slave claiming ``address`` (raises if none)."""
        for attachment in self._attachments:
            if attachment.range.contains(address, length):
                return attachment
        raise AddressDecodeError(address)

    @property
    def attachments(self) -> Tuple[Attachment, ...]:
        return tuple(self._attachments)

    @property
    def busy_until(self) -> int:
        """Time the current bus tenure ends (for contention modelling)."""
        return self._busy_until

    # -- timing core ---------------------------------------------------------
    def _tenure_cycles(self, txn: Transaction, wait_cycles: int) -> int:
        """Bus-clock cycles the transaction occupies the bus."""
        beats = txn.beats
        if self.pipelined_bursts:
            data_cycles = beats * self.beat_cycles
            cycles = self.arb_cycles + max(self.addr_cycles, 0) + data_cycles
        else:
            cycles = self.arb_cycles + (self.addr_cycles + self.beat_cycles) * beats
        cycles += wait_cycles
        if txn.op is Op.READ:
            cycles += self.read_turnaround_cycles
        return cycles

    def request(self, when_ps: int, txn: Transaction, master=None) -> Completion:
        """Perform ``txn``, starting no earlier than ``when_ps``.

        Returns the completion; the bus's busy watermark advances.  Bursts
        longer than ``max_burst_beats`` are split into maximal sub-bursts
        (each re-arbitrated), like a real CoreConnect master would.
        ``master`` (a :class:`repro.bus.arbiter.Master`) attributes the
        tenure in the per-master statistics.
        """
        if txn.size_bytes * 8 > self.width_bits:
            raise BusWidthError(
                f"{self.name} is {self.width_bits}-bit; cannot carry "
                f"{txn.size_bytes * 8}-bit beats"
            )
        if txn.beats > self.max_burst_beats:
            return self._chunked_requests(
                when_ps, txn.op, txn.address, txn.size_bytes, txn.beats, txn.data, master, False
            )

        attachment = self.decode(txn.address, txn.total_bytes)
        start = self.clock.next_edge(max(when_ps, self._busy_until))
        wait_cycles, value = attachment.slave.access(txn, start)
        if wait_cycles < 0:
            raise BusError(f"slave {attachment.name} returned negative wait states")
        tenure = self._tenure_cycles(txn, wait_cycles)
        done = start + self.clock.cycles_to_ps(tenure)
        self._busy_until = done

        released: Optional[int] = None
        if txn.op is Op.WRITE and attachment.posted_writes:
            released = start + self.clock.cycles_to_ps(self.arb_cycles + self.addr_cycles)

        self.stats.count(f"{txn.op.value}s")
        self.stats.count("beats", txn.beats)
        self.stats.record("busy_ps", done - start)
        if master is not None:
            self.stats.count(f"master[{master.name}].{txn.op.value}s")
            self.stats.record(f"master[{master.name}].busy_ps", done - start)
            wait_for_bus = start - self.clock.next_edge(when_ps)
            if wait_for_bus > 0:
                self.stats.record(f"master[{master.name}].contention_ps", wait_for_bus)
        if self.tracer is not None:
            self.tracer.record(
                start,
                self.name,
                txn.op.value,
                address=txn.address,
                beats=txn.beats,
                size=txn.size_bytes,
                slave=attachment.name,
                duration_ps=done - start,
                posted=released is not None,
            )
        return Completion(done_ps=done, value=value, released_ps=released)

    def request_burst(
        self,
        when_ps: int,
        op: Op,
        address: int,
        size_bytes: int,
        beats: int,
        data: Any = None,
        master=None,
        fixed_address: bool = False,
    ) -> Completion:
        """Move ``beats`` homogeneous beats, in closed form when possible.

        Semantically identical to issuing the burst as max-burst-sized
        :meth:`request` calls (the reference path): same completion time,
        same aggregate statistics, same functional data movement.  When the
        fast path is enabled and the decoded slave implements
        ``access_burst``, arbitration + tenure timing for all sub-bursts is
        computed in one closed-form step and statistics are charged with
        pre-aggregated counts; otherwise it falls back to the per-request
        loop.  ``fixed_address`` keeps every sub-burst at ``address`` (dock
        data-window semantics) instead of walking the address upward.

        A trace hook sees the closed form as one event for the whole burst:
        ``beats`` and ``duration_ps`` are summed over the sub-bursts and
        ``requests`` counts them (a per-request event stands for one).
        """
        if size_bytes * 8 > self.width_bits:
            raise BusWidthError(
                f"{self.name} is {self.width_bits}-bit; cannot carry "
                f"{size_bytes * 8}-bit beats"
            )
        if beats <= 0:
            raise BusError("burst must have at least one beat")
        chunk = self.max_burst_beats
        if beats <= chunk:
            txn = Transaction(op=op, address=address, size_bytes=size_bytes, beats=beats, data=data)
            return self.request(when_ps, txn, master=master)
        decode_len = chunk * size_bytes if fixed_address else beats * size_bytes
        attachment = self.decode(address, decode_len)
        access_burst = getattr(attachment.slave, "access_burst", None)
        if not fastpath.enabled() or access_burst is None:
            return self._chunked_requests(
                when_ps, op, address, size_bytes, beats, data, master, fixed_address
            )

        full, rem = divmod(beats, chunk)
        start = self.clock.next_edge(max(when_ps, self._busy_until))
        result = access_burst(op, address, size_bytes, beats, chunk, data, start)
        if result is None:  # slave cannot serve this burst as a block
            return self._chunked_requests(
                when_ps, op, address, size_bytes, beats, data, master, fixed_address
            )
        wait_full, wait_rem, values = result
        if wait_full < 0 or wait_rem < 0:
            raise BusError(f"slave {attachment.name} returned negative wait states")

        def tenure_ps(sub_beats: int, wait_cycles: int) -> int:
            if self.pipelined_bursts:
                cycles = self.arb_cycles + max(self.addr_cycles, 0) + sub_beats * self.beat_cycles
            else:
                cycles = self.arb_cycles + (self.addr_cycles + self.beat_cycles) * sub_beats
            cycles += wait_cycles
            if op is Op.READ:
                cycles += self.read_turnaround_cycles
            return self.clock.cycles_to_ps(cycles)

        t_full = tenure_ps(chunk, wait_full)
        total = full * t_full
        n_requests = full
        t_last = t_full
        tenures_min, tenures_max = t_full, t_full
        if rem:
            t_rem = tenure_ps(rem, wait_rem)
            total += t_rem
            n_requests += 1
            t_last = t_rem
            tenures_min = min(tenures_min, t_rem)
            tenures_max = max(tenures_max, t_rem)
        done = start + total
        self._busy_until = done

        released: Optional[int] = None
        if op is Op.WRITE and attachment.posted_writes:
            released = (done - t_last) + self.clock.cycles_to_ps(self.arb_cycles + self.addr_cycles)

        self.stats.count_many({f"{op.value}s": n_requests, "beats": beats})
        self.stats.record_many("busy_ps", total, n_requests, tenures_min, tenures_max)
        if master is not None:
            self.stats.count(f"master[{master.name}].{op.value}s", n_requests)
            self.stats.record_many(
                f"master[{master.name}].busy_ps", total, n_requests, tenures_min, tenures_max
            )
            wait_for_bus = start - self.clock.next_edge(when_ps)
            if wait_for_bus > 0:
                self.stats.record(f"master[{master.name}].contention_ps", wait_for_bus)
        if self.tracer is not None:
            self.tracer.record(
                start,
                self.name,
                op.value,
                address=address,
                beats=beats,
                size=size_bytes,
                slave=attachment.name,
                duration_ps=total,
                posted=released is not None,
                requests=n_requests,
            )
        return Completion(done_ps=done, value=values, released_ps=released)

    def _chunked_requests(
        self,
        when_ps: int,
        op: Op,
        address: int,
        size_bytes: int,
        beats: int,
        data: Any,
        master,
        fixed_address: bool,
    ) -> Completion:
        """One :meth:`request` per max-sized sub-burst (the reference path of
        :meth:`request_burst`, and how :meth:`request` splits long bursts)."""
        remaining = beats
        cursor = when_ps
        addr = address
        offset = 0
        values: List[Any] = []
        released: Optional[int] = None
        while remaining > 0:
            sub_beats = min(remaining, self.max_burst_beats)
            sub_data = None
            if data is not None:
                sub_data = data[offset : offset + sub_beats]
            txn = Transaction(op=op, address=addr, size_bytes=size_bytes, beats=sub_beats, data=sub_data)
            completion = self.request(cursor, txn, master=master)
            if completion.value is not None:
                values.extend(
                    completion.value if isinstance(completion.value, (list, tuple)) else [completion.value]
                )
            cursor = completion.done_ps
            released = completion.released_ps
            if not fixed_address:
                addr += sub_beats * size_bytes
            offset += sub_beats
            remaining -= sub_beats
        return Completion(done_ps=cursor, value=values if values else None, released_ps=released)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.width_bits}-bit @ {self.clock.freq_mhz:g} MHz)"
