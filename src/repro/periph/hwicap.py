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
whole staged bitstream can be pushed in one :meth:`OpbHwIcap.push_words`
call and committed with one bulk decode + one bulk frame write when the
fast path is enabled.  The readback FIFO is an array with a cursor, so
draining it is O(words) total instead of the O(words²) a ``list.pop(0)``
loop costs.  Both fast paths are functionally identical to the scalar
reference: same frames, same counters, same errors, same simulated time.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import numpy as np

from ..bitstream.bitstream import Bitstream, decode_frames, device_idcode
from ..engine import fastpath
from ..engine.stats import StatsGroup
from ..errors import BitstreamError, ReconfigurationError
from ..fabric.config_memory import ConfigMemory
from ..fabric.device import get_device
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
        self._rb = self.config_memory.read_frame(address)
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

    def bulk_readback(self, addresses: Sequence[FrameAddress]) -> np.ndarray:
        """Functional side of reading ``addresses`` back frame by frame: their
        ``(n, words_per_frame)`` contents, leaving the FAR, ``frames_read_back``
        and the memory's read counter where the FAR/CONTROL/RDATA sequences
        would.  No time, no statistics: a ``run_steady`` ``bulk`` callback."""
        self._far = addresses[-1].packed()
        self.frames_read_back += len(addresses)
        return self.config_memory.rows_for(addresses)

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

    def push_words(self, words: np.ndarray) -> None:
        """Bulk FIFO push: append a whole uint32 block in one copy.

        Equivalent to calling :meth:`_push_word` per element.  Callers gate
        on :func:`repro.engine.fastpath.enabled`; with the fast path off the
        scalar loop is used so reference runs exercise the word-by-word
        ingest.
        """
        block = np.asarray(words, dtype=np.uint32).ravel()
        if not block.size:
            return
        self._reserve(block.size)
        self._buf[self._pending : self._pending + block.size] = block
        self._pending += int(block.size)
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
            self.crc_failures += 1
            self._status |= STATUS_ERROR
            self._pending = 0
            raise ReconfigurationError(
                f"{self.name}: bad bitstream: injected CRC/commit fault"
            )
        words = self._buf[: self._pending]
        fast_ok = fastpath.enabled()
        try:
            if fast_ok:
                # Bulk decode straight to (address, payload-view) pairs; the
                # frame-size validation Bitstream.__post_init__ would do is
                # replicated so malformed streams fail identically.
                device_name, frames = decode_frames(words)
                expected_words = get_device(device_name).words_per_frame
                for address, data in frames:
                    if data.shape != (expected_words,):
                        raise BitstreamError(
                            f"frame {address} has {data.shape} words, expected "
                            f"({expected_words},) for {device_name}"
                        )
            else:
                stream = Bitstream.from_words(np.array(words, dtype=np.uint32))
                device_name, frames = stream.device_name, stream.frames
        except Exception as err:
            self.crc_failures += 1
            self._status |= STATUS_ERROR
            self._pending = 0
            raise ReconfigurationError(f"{self.name}: bad bitstream: {err}") from err
        expected = device_idcode(self.config_memory.device.name)
        if device_idcode(device_name) != expected:
            self._status |= STATUS_ERROR
            self._pending = 0
            raise ReconfigurationError(
                f"{self.name}: bitstream targets {device_name}, "
                f"device is {self.config_memory.device.name}"
            )
        if fast_ok:
            self.config_memory.write_frames(frames)
            self.frames_written += len(frames)
        else:
            for address, data in frames:
                self.config_memory.write_frame(address, data)
                self.frames_written += 1
        if plan is not None:
            plan.take_post_commit_upset(
                self.config_memory, [address for address, _ in frames]
            )
        self._pending = 0
        self._status = STATUS_DONE

    # -- convenience used by the reconfiguration manager -----------------------
    def load_words(self, words) -> None:
        """Functional bulk path: push a whole word stream and commit.

        The reconfiguration manager charges the bus/CPU time for the
        word-by-word feed separately (calibrated batch), then delivers the
        words here so the frames actually land in configuration memory.
        """
        fast_ok = fastpath.enabled()
        if fast_ok and isinstance(words, np.ndarray):
            self.push_words(words)
        else:
            for word in words:
                self._push_word(int(word) & 0xFFFFFFFF)
        self._commit()

    def words_pending(self) -> int:
        return self._pending

    def reset(self) -> None:
        """Discard pending ingest and readback state (testbench hook)."""
        self._pending = 0
        self._rb = _EMPTY_WORDS
        self._rb_pos = 0
        self._status = STATUS_DONE
