"""The device's configuration memory.

Holds the current contents of every configuration frame.  The ICAP
controller writes frames here; :class:`ConfigMemory` also supports
snapshot/diff, which is how *differential* partial bitstreams are derived
and how tests verify that reconfiguring the dynamic area leaves static
frames untouched.

Storage is one contiguous ``(total_frames, words_per_frame)`` uint32 array
plus a written-mask, both indexed by the device's frame catalogue:
:class:`~repro.fabric.frames.FrameGeometry` maps a FAR-order address to
its row, and an address the device does not have is a
:class:`~repro.errors.BitstreamError`.  ``snapshot``/``restore`` are
single array copies and ``diff`` is one row comparison, which is
what makes repeated reconfiguration cycles cheap at XC2VP30 scale.  A
:class:`ConfigSnapshot` is a read-only mapping of ``FrameAddress -> frame``
whose members are the written frames.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError
from .device import DeviceSpec
from .frames import FrameAddress, FrameGeometry


class ConfigSnapshot(MappingABC):
    """Read-only array-backed copy of a :class:`ConfigMemory`.

    As a mapping its members are the *written* frames; bulk consumers
    (BitLinker, diff, restore) use the underlying arrays directly.
    """

    __slots__ = ("geometry", "_data", "_written")

    def __init__(self, geometry: FrameGeometry, data: np.ndarray, written: np.ndarray) -> None:
        self.geometry = geometry
        self._data = data
        self._written = written

    def __getitem__(self, address: FrameAddress) -> np.ndarray:
        try:
            row = self.geometry.frame_index(address)
        except BitstreamError:
            raise KeyError(address) from None
        if not self._written[row]:
            raise KeyError(address)
        return self._data[row].copy()

    def __iter__(self) -> Iterator[FrameAddress]:
        order = self.geometry.frame_order()
        for row in self.written_rows():
            yield order[row]

    def __len__(self) -> int:
        return int(self._written.sum())

    # -- bulk access (fast paths) ----------------------------------------
    def data_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stacked copy of the given dense rows (zeros when unwritten)."""
        return self._data[rows]

    def written_rows(self) -> np.ndarray:
        """Dense rows of the written frames, in FAR order (the mapping's
        iteration order)."""
        return np.flatnonzero(self._written)


class ConfigMemory:
    """Frame-addressed configuration store for one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.geometry = FrameGeometry(device)
        shape = (device.total_frames, self.geometry.words_per_frame)
        self._data = np.zeros(shape, dtype=np.uint32)
        self._written = np.zeros(device.total_frames, dtype=bool)
        #: number of frame-write operations performed (ICAP statistics)
        self.writes = 0
        self.reads = 0

    # -- frame access ----------------------------------------------------
    def read_frame(self, address: FrameAddress) -> np.ndarray:
        """Current contents of a frame (zeros if never written).

        A *copy* is returned; mutating it does not change the memory.
        """
        row = self.geometry.frame_index(address)
        self.reads += 1
        return self._data[row].copy()

    def write_frame(self, address: FrameAddress, data: np.ndarray) -> None:
        """Replace a frame's contents."""
        data = np.asarray(data, dtype=np.uint32)
        if data.shape != (self.geometry.words_per_frame,):
            raise BitstreamError(
                f"frame data for {address} has {data.shape} words; "
                f"expected ({self.geometry.words_per_frame},)"
            )
        row = self.geometry.frame_index(address)
        self.writes += 1
        self._data[row] = data
        self._written[row] = True

    def write_frames(self, frames: Sequence[Tuple[FrameAddress, np.ndarray]]) -> None:
        """Bulk frame write: one fancy-indexed assignment for the lot.

        Equivalent to calling :meth:`write_frame` per entry (last write to
        a repeated address wins, counters advance by ``len(frames)``), but
        O(frames) numpy work instead of O(frames) Python round-trips.
        Every size and address is checked before any frame lands.
        """
        if not frames:
            return
        expected = self.geometry.words_per_frame
        for address, data in frames:
            if len(data) != expected:
                raise BitstreamError(
                    f"frame data for {address} has ({len(data)},) words; "
                    f"expected ({expected},)"
                )
        rows = self.geometry.frame_rows([address for address, _ in frames])
        self.write_rows(rows, np.stack([np.asarray(data, dtype=np.uint32) for _, data in frames]))

    def write_rows(self, rows: np.ndarray, block: np.ndarray) -> None:
        """Write ``block[i]`` to dense row ``rows[i]`` in one assignment.

        The row-indexed core of :meth:`write_frames`: the caller has
        already mapped (and so validated) the addresses.
        """
        self._data[rows] = block
        self._written[rows] = True
        self.writes += len(rows)

    # -- bulk helpers ----------------------------------------------------
    def rows_for(self, addresses: Sequence[FrameAddress], count: bool = True) -> np.ndarray:
        """Stacked copy of ``addresses``' frames (zeros when unwritten).

        Counts one read per frame, mirroring a :meth:`read_frame` loop,
        unless ``count`` is False.
        """
        block = self._data[self.geometry.frame_rows(addresses)]
        if count:
            self.reads += len(addresses)
        return block

    def written_mask(self) -> np.ndarray:
        """Boolean per-row written flags (read-only view)."""
        view = self._written.view()
        view.flags.writeable = False
        return view

    def data_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stacked copy of the given rows, *without* touching the read
        counters — bulk consumers that mirror a reference loop's
        accounting (e.g. the static-preservation check) add the counts
        explicitly."""
        return self._data[rows]

    def flip_bit(self, row: int, word: int, bit: int) -> FrameAddress:
        """Flip one configuration bit by dense-row coordinates (fault
        injection only).

        Like :meth:`inject_upset` this models radiation, not a bus
        access: counters stay untouched, no timing is charged, and the
        frame's *written* flag is deliberately left alone — a strike on a
        never-configured frame must not promote it into the written set,
        or scrubbing would start "repairing" frames the design never
        owned.  Returns the struck frame's address.
        """
        total, words = self._data.shape
        if not 0 <= int(row) < total:
            raise BitstreamError(f"flip_bit: row {row} outside 0..{total - 1}")
        if not (0 <= int(word) < words and 0 <= int(bit) < 32):
            raise BitstreamError(
                f"flip_bit: word {word} bit {bit} outside frame geometry"
            )
        self._data[int(row), int(word)] ^= np.uint32(1 << int(bit))
        return self.geometry.frame_order()[int(row)]

    def inject_upset(
        self,
        rng: np.random.Generator,
        flips: int = 1,
        rows: np.ndarray = None,
        include_unwritten: bool = False,
    ) -> List[Tuple[FrameAddress, int, int]]:
        """Flip random bits in written frames (fault injection only).

        Models a radiation upset, not a bus access: the read/write
        counters do *not* advance and no timing is charged.  ``rows``
        restricts the strike to specific frames by dense row, drawn in the
        order given (e.g. the frames a commit just wrote); by default any
        written frame is fair game.
        ``include_unwritten=True`` widens the target set to the *whole*
        frame catalogue — the Monte-Carlo campaigns sample the full
        configuration space, where strikes on never-written frames are
        benign by construction.  Written flags are never changed.
        Returns ``(address, word_index, bit)`` per flip; empty when the
        memory holds nothing to corrupt.
        """
        order = self.geometry.frame_order()
        if rows is None:
            rows = np.arange(self._written.size, dtype=np.int64)
        rows = np.asarray(rows)
        if not include_unwritten:
            rows = rows[self._written[rows]]
        if rows.size == 0:
            return []
        flipped: List[Tuple[FrameAddress, int, int]] = []
        for _ in range(int(flips)):
            row = int(rows[int(rng.integers(rows.size))])
            word = int(rng.integers(self.geometry.words_per_frame))
            bit = int(rng.integers(32))
            self._data[row, word] ^= np.uint32(1 << bit)
            flipped.append((order[row], word, bit))
        return flipped

    def snapshot(self) -> ConfigSnapshot:
        """Read-only copy of the memory (single array copy)."""
        return ConfigSnapshot(self.geometry, self._data.copy(), self._written.copy())

    def _check_same_device(self, snapshot: ConfigSnapshot) -> None:
        if snapshot.geometry.device != self.device:
            raise BitstreamError(
                f"snapshot of {snapshot.geometry.device.name} does not fit "
                f"the {self.device.name} configuration memory"
            )

    def restore(self, snapshot: ConfigSnapshot) -> None:
        """Reset the memory to a previous :meth:`snapshot` of this device
        (copied into the memory's own arrays)."""
        self._check_same_device(snapshot)
        self._data[...] = snapshot._data
        self._written[...] = snapshot._written

    def diff(self, baseline: ConfigSnapshot) -> np.ndarray:
        """Rows whose frames differ from ``baseline``, in FAR order.

        Those frames are the content of a *differential* partial bitstream
        relative to the baseline configuration.
        """
        self._check_same_device(baseline)
        return np.flatnonzero((self._data != baseline._data).any(axis=1))

    def __len__(self) -> int:
        return int(self._written.sum())
