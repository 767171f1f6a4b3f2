"""PLB-to-OPB bridge.

A slave on the PLB that forwards transactions onto the OPB.

* **Reads** are store-and-forward round trips: the PLB master stalls for
  the conversion latency plus the full OPB transaction — this is why
  uncached loads from the 32-bit system's external SRAM are so expensive.
* **Writes** are *posted*: the bridge accepts the data into a small buffer
  and frees the PLB after the conversion latency while the OPB transaction
  proceeds on its own.  When the buffer is full, further writes stall
  until a slot drains — so sustained write streams run at the OPB's rate,
  but the CPU does not pay the full round trip per store.

In the paper's 32-bit system every access to external memory and to the
OPB Dock crosses this bridge; the 64-bit system removes it from the data
path, which is one of the three factors behind its 4-6x faster transfers
(the others being the doubled bus clock and the 1.5x CPU clock).
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from typing import Any, Deque, Tuple

from ..engine.stats import StatsGroup
from ..errors import BusWidthError
from .bus import Bus
from .transaction import Op, Transaction


class PlbOpbBridge:
    """CoreConnect PLB->OPB bridge (PLB slave, OPB master)."""

    #: Fixed request-conversion latency, in PLB cycles (decode + queue).
    FORWARD_CYCLES = 2
    #: Extra cycles to return read data through the bridge.
    RETURN_CYCLES = 1
    #: Posted-write buffer depth (transactions).
    WRITE_BUFFER_DEPTH = 4
    #: Pending completions the steady-state compiler
    #: (:mod:`repro.engine.batch`) carries across a phase: the posted
    #: writes still in flight on the OPB.
    PENDING = ("_inflight",)

    def __init__(self, plb: Bus, opb: Bus, name: str = "plb2opb") -> None:
        self.plb = plb
        self.opb = opb
        self.name = name
        self.stats = StatsGroup(name)
        #: Completion times of posted writes still in flight on the OPB.
        self._inflight: Deque[int] = deque()

    @property
    def plb(self) -> Bus:
        """The upstream bus this bridge is a slave on, held weakly: the PLB
        decodes this bridge, so a strong reference would close a cycle and
        keep a dead rig alive until the next cyclic collection."""
        return self._plb()

    @plb.setter
    def plb(self, plb: Bus) -> None:
        self._plb = weakref.ref(plb)

    def access(self, txn: Transaction, when_ps: int) -> Tuple[int, Any]:
        """Forward one PLB transaction to the OPB; returns PLB wait states.

        64-bit PLB beats are split into two 32-bit OPB beats, so wide
        transfers gain nothing once they cross the bridge — the width
        bottleneck the paper's first system lives with.
        """
        plb = self._plb()
        if txn.size_bytes * 8 > plb.width_bits:
            raise BusWidthError(f"bridge {self.name}: beat wider than PLB")

        beats32 = txn.beats * math.ceil(txn.size_bytes / 4)
        downstream = Transaction(
            op=txn.op,
            address=txn.address,
            size_bytes=min(txn.size_bytes, 4),
            beats=beats32,
            data=self._split_data(txn, beats32),
        )

        # Drain bookkeeping for writes whose OPB leg already finished.
        while self._inflight and self._inflight[0] <= when_ps:
            self._inflight.popleft()

        if txn.op is Op.WRITE:
            stall_ps = 0
            if len(self._inflight) >= self.WRITE_BUFFER_DEPTH:
                stall_ps = self._inflight[0] - when_ps
                self._inflight.popleft()
            start = when_ps + stall_ps + plb.clock.cycles_to_ps(self.FORWARD_CYCLES)
            completion = self.opb.request(start, downstream)
            self._inflight.append(completion.done_ps)
            # The buffer accepts the data during the PLB data beat, so the
            # conversion latency does not hold the PLB; only buffer-full
            # stalls do.
            wait_cycles = math.ceil(plb.clock.ps_to_cycles(stall_ps))
            self.stats.count("forwarded_writes")
            if stall_ps:
                self.stats.count("write_buffer_stalls")
                self.stats.record("stall_ps", stall_ps)
            return wait_cycles, None

        start = when_ps + plb.clock.cycles_to_ps(self.FORWARD_CYCLES)
        completion = self.opb.request(start, downstream)
        opb_time_ps = completion.done_ps - start
        wait_cycles = (
            self.FORWARD_CYCLES
            + self.RETURN_CYCLES
            + math.ceil(plb.clock.ps_to_cycles(opb_time_ps))
        )
        self.stats.count("forwarded_reads")
        self.stats.record("opb_time_ps", opb_time_ps)
        return wait_cycles, self._merge_data(txn, completion.value)

    # -- width conversion helpers -------------------------------------------
    @staticmethod
    def _split_data(txn: Transaction, beats32: int) -> Any:
        """Split 64-bit write payloads into 32-bit words (little-endian)."""
        if txn.op is not Op.WRITE or txn.data is None or beats32 == txn.beats:
            return txn.data
        words = []
        payload = txn.data if isinstance(txn.data, (list, tuple)) else [txn.data]
        for value in payload:
            value = int(value)
            words.append(value & 0xFFFFFFFF)
            words.append((value >> 32) & 0xFFFFFFFF)
        return words

    @staticmethod
    def _merge_data(txn: Transaction, value: Any) -> Any:
        """Merge 32-bit read results back into 64-bit beats if needed."""
        if txn.op is not Op.READ or value is None or txn.size_bytes <= 4:
            return value
        words = value if isinstance(value, (list, tuple)) else [value]
        merged = [
            (int(words[i]) & 0xFFFFFFFF) | ((int(words[i + 1]) & 0xFFFFFFFF) << 32)
            for i in range(0, len(words) - 1, 2)
        ]
        if txn.beats == 1:
            return merged[0] if merged else None
        return merged
