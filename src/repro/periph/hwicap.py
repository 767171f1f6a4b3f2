"""OPB HWICAP: the configuration memory controller.

Wraps the Internal Configuration Access Port.  Software (or our
reconfiguration manager) feeds bitstream words into the write FIFO; the
ICAP consumes them and updates the device's :class:`ConfigMemory`.

Timing: each word crosses the OPB (the controller is an OPB slave) and the
ICAP core then needs a few port cycles to commit it, so configuration speed
is dominated by ``words x per-word cost`` — which is why the *complete*
partial bitstreams BitLinker emits take measurably longer to load than
differential ones (the trade-off the paper points out).

Host-time note: the ingest FIFO is an amortised-growth uint32 array, so a
whole staged bitstream is pushed by :meth:`OpbHwIcap.load_words` in one
copy and committed with one decode and one block write per frame run.  The
readback FIFO is an array with a cursor, so draining it is O(words) total
instead of the O(words²) a ``list.pop(0)`` loop costs.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from ..bitstream.bitstream import check_run_sizes, decode_frames, device_idcode
from ..engine.stats import StatsGroup
from ..errors import BitstreamError, ReconfigurationError
from ..fabric.config_memory import ConfigMemory
from ..fabric.frames import FrameAddress
from ..fabric.resources import ResourceVector
from ..bus.transaction import Op, Transaction

#: Register offsets within the HWICAP address window.
REG_DATA = 0x0
REG_STATUS = 0x4
REG_CONTROL = 0x8
REG_FAR = 0xC
REG_RDATA = 0x10

#: Status bits.
STATUS_DONE = 0x1
STATUS_ERROR = 0x2

#: Control values.
CTRL_COMMIT = 0x1
CTRL_READBACK = 0x2

_EMPTY_WORDS = np.zeros(0, dtype=np.uint32)
_NO_ROWS = np.zeros(0, dtype=np.int64)


class OpbHwIcap:
    """OPB slave driving the ICAP."""

    #: OPB wait states per data-word write (FIFO push + ICAP commit).
    WRITE_WAIT = 2
    READ_WAIT = 1
    #: Fabric cost reported in the resource-usage tables.
    RESOURCES = ResourceVector(slices=151, bram_blocks=1)

    def __init__(self, config_memory: ConfigMemory, base: int, name: str = "opb_hwicap") -> None:
        self.config_memory = config_memory
        self.base = base
        self.name = name
        self.stats = StatsGroup(name)
        self._buf = np.zeros(1024, dtype=np.uint32)
        self._pending = 0
        self._status = STATUS_DONE
        self.crc_failures = 0
        self.frames_written = 0
        self.frames_read_back = 0
        self._far = 0
        self._rb = _EMPTY_WORDS
        self._rb_pos = 0
        #: Armed :class:`~repro.faults.plan.FaultPlan`, or None (no cost).
        self.fault_plan = None

    # -- bus interface ------------------------------------------------------
    def access(self, txn: Transaction, when_ps: int) -> Tuple[int, Any]:
        offset = txn.address - self.base
        if txn.op is Op.WRITE:
            if offset == REG_DATA:
                if isinstance(txn.data, np.ndarray):
                    payload = txn.data.ravel().tolist()
                elif isinstance(txn.data, (list, tuple)):
                    payload = txn.data
                else:
                    payload = [txn.data]
                for value in payload:
                    self._push_word(int(value) & 0xFFFFFFFF)
                self.stats.count("data_writes", len(payload))
                return self.WRITE_WAIT * txn.beats, None
            payload = txn.data if isinstance(txn.data, (list, tuple)) else [txn.data]
            if offset == REG_CONTROL:
                value = int(payload[-1])
                if value & CTRL_READBACK:
                    self._start_readback()
                else:
                    # Any other control write finalises the pending stream.
                    self._commit()
                return self.WRITE_WAIT, None
            if offset == REG_FAR:
                self._far = int(payload[-1]) & 0xFFFFFFFF
                return self.WRITE_WAIT, None
            raise ReconfigurationError(f"{self.name}: write to unknown register {offset:#x}")
        if offset == REG_STATUS:
            self.stats.count("status_reads")
            return self.READ_WAIT, self._status
        if offset == REG_RDATA:
            self.stats.count("readback_reads", txn.beats)
            values = [self._pop_readback() for _ in range(txn.beats)]
            return self.READ_WAIT * txn.beats, values[0] if txn.beats == 1 else values
        raise ReconfigurationError(f"{self.name}: read from unknown register {offset:#x}")

    # -- readback (RCFG/FDRO path) -----------------------------------------
    def _start_readback(self) -> None:
        """Latch the frame addressed by FAR into the readback FIFO."""
        address = FrameAddress.unpacked(self._far)
        try:
            self._rb = self.config_memory.read_frame(address)
        except BitstreamError as err:
            raise ReconfigurationError(f"{self.name}: readback: {err}") from err
        self._rb_pos = 0
        self.frames_read_back += 1

    def _pop_readback(self) -> int:
        if self._rb_pos >= len(self._rb):
            raise ReconfigurationError(f"{self.name}: readback FIFO empty")
        value = int(self._rb[self._rb_pos])
        self._rb_pos += 1
        return value

    def readback_pending(self) -> int:
        """Words left in the readback FIFO."""
        return len(self._rb) - self._rb_pos

    def drain_readback(self) -> np.ndarray:
        """Remove and return every word still in the readback FIFO.

        The bulk counterpart of reading REG_RDATA until empty; the
        reconfiguration manager calls it once per *probed* frame (the bus
        time for those reads is charged separately as a batch).
        """
        remainder = self._rb[self._rb_pos :].copy()
        self._rb = _EMPTY_WORDS
        self._rb_pos = 0
        return remainder

    def bulk_readback(self, fars: np.ndarray) -> np.ndarray:
        """Functional side of reading the frames at FAR words ``fars`` back
        frame by frame: their ``(n, words_per_frame)`` contents, leaving the
        FAR, ``frames_read_back`` and the memory's read counter where the
        FAR/CONTROL/RDATA sequences would.  No time, no statistics: a
        ``run_steady`` ``bulk`` callback."""
        memory = self.config_memory
        rows = memory.geometry.rows_of_fars(fars)
        self._far = int(fars[-1])
        self.frames_read_back += len(fars)
        memory.reads += len(fars)
        return memory.data_rows(rows)

    def readback_frame(self, address: FrameAddress):
        """Zero-time functional readback (testbench convenience)."""
        return self.config_memory.read_frame(address)

    # -- ICAP core -----------------------------------------------------------
    def _reserve(self, count: int) -> None:
        need = self._pending + count
        if need > len(self._buf):
            grown = np.zeros(max(len(self._buf) * 2, need), dtype=np.uint32)
            grown[: self._pending] = self._buf[: self._pending]
            self._buf = grown

    def _push_word(self, word: int) -> None:
        self._reserve(1)
        self._buf[self._pending] = word & 0xFFFFFFFF
        self._pending += 1
        self._status &= ~STATUS_DONE

    def _commit(self) -> None:
        """Parse everything received so far and update configuration memory."""
        if not self._pending:
            self._status |= STATUS_DONE
            return
        plan = self.fault_plan
        if plan is not None and plan.take_commit_fault(self.name):
            # Forced CRC/commit failure: same observable side effects as a
            # genuinely corrupt stream (counter, status, flushed FIFO).
            raise self._bad_stream("injected CRC/commit fault")
        try:
            device_name, runs = decode_frames(self._buf[: self._pending])
            check_run_sizes(device_name, runs)
        except Exception as err:
            raise self._bad_stream(err) from err
        memory = self.config_memory
        if device_idcode(device_name) != device_idcode(memory.device.name):
            self._status |= STATUS_ERROR
            self._pending = 0
            raise ReconfigurationError(
                f"{self.name}: bitstream targets {device_name}, "
                f"device is {memory.device.name}"
            )
        try:
            # A FAR the device lacks fails the stream before any frame lands.
            rows = [memory.geometry.rows_of_fars(fars) for fars, _ in runs]
        except BitstreamError as err:
            raise self._bad_stream(err) from err
        for run_rows, (_, block) in zip(rows, runs):
            memory.write_rows(run_rows, block)
            self.frames_written += len(run_rows)
        if plan is not None:
            plan.take_post_commit_upset(memory, np.concatenate(rows) if rows else _NO_ROWS)
        self._pending = 0
        self._status = STATUS_DONE

    def _bad_stream(self, reason: object) -> ReconfigurationError:
        """Fail the pending stream as a bad bitstream — nothing lands, the
        CRC-failure counter and the error status record it — and return
        the error to raise."""
        self.crc_failures += 1
        self._status |= STATUS_ERROR
        self._pending = 0
        return ReconfigurationError(f"{self.name}: bad bitstream: {reason}")

    # -- convenience used by the reconfiguration manager -----------------------
    def load_words(self, words) -> None:
        """Functional bulk path: push a whole word stream and commit.

        The reconfiguration manager charges the bus/CPU time for the
        word-by-word feed separately (calibrated batch), then delivers the
        words here in one FIFO copy so the frames actually land in
        configuration memory.  A non-empty stream clears ``STATUS_DONE``
        until its commit succeeds, as word-by-word pushes do.
        """
        block = np.asarray(words, dtype=np.uint32).ravel()
        if block.size:
            self._reserve(block.size)
            self._buf[self._pending : self._pending + block.size] = block
            self._pending += int(block.size)
            self._status &= ~STATUS_DONE
        self._commit()

    def words_pending(self) -> int:
        return self._pending

    def reset(self) -> None:
        """Discard pending ingest and readback state (testbench hook)."""
        self._pending = 0
        self._rb = _EMPTY_WORDS
        self._rb_pos = 0
        self._status = STATUS_DONE
