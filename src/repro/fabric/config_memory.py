"""The device's configuration memory.

Holds the current contents of every configuration frame.  The ICAP
controller writes frames here; :class:`ConfigMemory` also supports
snapshot/diff, which is how *differential* partial bitstreams are derived
and how tests verify that reconfiguring the dynamic area leaves static
frames untouched.

Storage is one contiguous ``(total_frames, words_per_frame)`` uint32 array
plus a written-mask, with :class:`~repro.fabric.frames.FrameGeometry`
providing the FAR-order address-to-row mapping.  ``snapshot``/``restore``
are single array copies and ``diff`` is a vectorized row comparison, which
is what makes repeated reconfiguration cycles cheap at XC2VP30 scale.  The
historical dict-facing API is preserved: :meth:`snapshot` returns a
:class:`ConfigSnapshot`, a read-only mapping of ``FrameAddress -> frame``
that only exposes written frames, exactly like the dict it replaces.
Addresses outside the device's frame catalogue (e.g. synthetic test
addresses) fall back to a small dict side-store.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError
from .device import DeviceSpec
from .frames import FrameAddress, FrameGeometry


class ConfigSnapshot(MappingABC):
    """Immutable-ish array-backed copy of a :class:`ConfigMemory`.

    Behaves like the ``{address: frame}`` dict older code expects (only
    *written* frames are members), while bulk consumers (BitLinker, diff,
    restore) use the underlying arrays directly.
    """

    __slots__ = ("geometry", "_data", "_written", "_extra")

    def __init__(
        self,
        geometry: FrameGeometry,
        data: np.ndarray,
        written: np.ndarray,
        extra: Dict[FrameAddress, np.ndarray],
    ) -> None:
        self.geometry = geometry
        self._data = data
        self._written = written
        self._extra = extra

    def __getitem__(self, address: FrameAddress) -> np.ndarray:
        row = self.geometry.frame_index(address)
        if row is None:
            if address in self._extra:
                return self._extra[address].copy()
            raise KeyError(address)
        if not self._written[row]:
            raise KeyError(address)
        return self._data[row].copy()

    def __iter__(self) -> Iterator[FrameAddress]:
        order = self.geometry.frame_order()
        for row in np.flatnonzero(self._written):
            yield order[row]
        yield from self._extra

    def __len__(self) -> int:
        return int(self._written.sum()) + len(self._extra)

    # -- bulk access (fast paths) ----------------------------------------
    def rows_for(self, addresses: Sequence[FrameAddress]) -> np.ndarray:
        """Stacked ``(len(addresses), words_per_frame)`` copy of frames.

        Unwritten frames come back as zeros, matching ``get(addr, empty)``
        over the mapping interface.
        """
        rows = self.geometry.frame_rows(addresses)
        return self._data[rows]


class ConfigMemory:
    """Frame-addressed configuration store for one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.geometry = FrameGeometry(device)
        shape = (device.total_frames, self.geometry.words_per_frame)
        self._data = np.zeros(shape, dtype=np.uint32)
        self._written = np.zeros(device.total_frames, dtype=bool)
        #: Frames addressed outside the device catalogue (rare; tests).
        self._extra: Dict[FrameAddress, np.ndarray] = {}
        #: number of frame-write operations performed (ICAP statistics)
        self.writes = 0
        self.reads = 0

    # -- frame access ----------------------------------------------------
    def read_frame(self, address: FrameAddress) -> np.ndarray:
        """Current contents of a frame (zeros if never written).

        A *copy* is returned; mutating it does not change the memory.
        """
        self.reads += 1
        row = self.geometry.frame_index(address)
        if row is None:
            frame = self._extra.get(address)
            if frame is None:
                return self.geometry.empty_frame()
            return frame.copy()
        return self._data[row].copy()

    def write_frame(self, address: FrameAddress, data: np.ndarray) -> None:
        """Replace a frame's contents."""
        data = np.asarray(data, dtype=np.uint32)
        if data.shape != (self.geometry.words_per_frame,):
            raise BitstreamError(
                f"frame data for {address} has {data.shape} words; "
                f"expected ({self.geometry.words_per_frame},)"
            )
        self.writes += 1
        row = self.geometry.frame_index(address)
        if row is None:
            self._extra[address] = data.copy()
        else:
            self._data[row] = data
            self._written[row] = True

    def write_frames(self, frames: Sequence[Tuple[FrameAddress, np.ndarray]]) -> None:
        """Bulk frame write: one fancy-indexed assignment for the lot.

        Equivalent to calling :meth:`write_frame` per entry (last write to
        a repeated address wins, counters advance by ``len(frames)``), but
        O(frames) numpy work instead of O(frames) Python round-trips.
        Falls back to the scalar path when any address is uncatalogued.
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
        try:
            rows = self.geometry.frame_rows([address for address, _ in frames])
        except BitstreamError:
            for address, data in frames:
                self.write_frame(address, data)
            return
        block = np.stack([np.asarray(data, dtype=np.uint32) for _, data in frames])
        self._data[rows] = block
        self._written[rows] = True
        self.writes += len(frames)

    def merge_frame(self, address: FrameAddress, data: np.ndarray, mask: np.ndarray) -> None:
        """Write only the bits selected by ``mask``, keeping the rest.

        This is the read-modify-write a height-limited dynamic region
        requires: ``mask`` selects the region's rows within the frame.
        """
        data = np.asarray(data, dtype=np.uint32)
        mask = np.asarray(mask, dtype=np.uint32)
        current = self.read_frame(address)
        merged = (current & ~mask) | (data & mask)
        self.write_frame(address, merged)

    # -- bulk helpers ----------------------------------------------------
    def rows_for(self, addresses: Sequence[FrameAddress], count: bool = True) -> np.ndarray:
        """Stacked copy of ``addresses``' frames (zeros when unwritten).

        Counts one read per frame, mirroring a :meth:`read_frame` loop (which
        out-of-catalogue addresses go through), unless ``count`` is False.
        """
        reads = self.reads
        try:
            block = self._data[self.geometry.frame_rows(addresses)]
        except BitstreamError:
            block = np.stack([self.read_frame(address) for address in addresses])
        self.reads = reads + (len(addresses) if count else 0)
        return block

    def has_extra_frames(self) -> bool:
        """True when any frame outside the device catalogue was written."""
        return bool(self._extra)

    def written_mask(self) -> np.ndarray:
        """Boolean per-row written flags (read-only view; catalogued rows)."""
        return self._written

    def data_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stacked copy of the given catalogued rows, *without* touching the
        read counters — bulk consumers that mirror a reference loop's
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
        addresses: Sequence[FrameAddress] = None,
        include_unwritten: bool = False,
    ) -> List[Tuple[FrameAddress, int, int]]:
        """Flip random bits in written frames (fault injection only).

        Models a radiation upset, not a bus access: the read/write
        counters do *not* advance and no timing is charged.  ``addresses``
        restricts the strike to specific frames (e.g. the frames a commit
        just wrote); by default any written catalogued frame is fair game.
        ``include_unwritten=True`` widens the target set to the *whole*
        frame catalogue — the Monte-Carlo campaigns sample the full
        configuration space, where strikes on never-written frames are
        benign by construction.  Written flags are never changed.
        Returns ``(address, word_index, bit)`` per flip; empty when the
        memory holds nothing to corrupt.
        """
        order = self.geometry.frame_order()
        if addresses is None:
            if include_unwritten:
                rows = np.arange(self._written.size, dtype=np.int64)
            else:
                rows = np.flatnonzero(self._written)
        else:
            rows = np.array(
                [
                    row
                    for row in (self.geometry.frame_index(a) for a in addresses)
                    if row is not None
                    and (include_unwritten or self._written[row])
                ],
                dtype=np.int64,
            )
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

    def frames_equal(self, address: FrameAddress, other: "ConfigMemory") -> bool:
        """True when both memories hold identical data for ``address``."""
        return bool(np.array_equal(self.read_frame(address), other.read_frame(address)))

    def snapshot(self) -> ConfigSnapshot:
        """Immutable-ish copy of all written frames (single array copy)."""
        return ConfigSnapshot(
            self.geometry,
            self._data.copy(),
            self._written.copy(),
            {addr: frame.copy() for addr, frame in self._extra.items()},
        )

    def restore(self, snapshot: Mapping[FrameAddress, np.ndarray]) -> None:
        """Reset the memory to a previous :meth:`snapshot`."""
        if isinstance(snapshot, ConfigSnapshot) and snapshot.geometry.device is self.device:
            self._data = snapshot._data.copy()
            self._written = snapshot._written.copy()
            self._extra = {addr: frame.copy() for addr, frame in snapshot._extra.items()}
            return
        self._data = np.zeros_like(self._data)
        self._written = np.zeros_like(self._written)
        self._extra = {}
        for address, data in snapshot.items():
            data = np.asarray(data, dtype=np.uint32)
            row = self.geometry.frame_index(address)
            if row is None:
                self._extra[address] = data.copy()
            else:
                self._data[row] = data
                self._written[row] = True

    def diff(
        self, baseline: Mapping[FrameAddress, np.ndarray]
    ) -> Iterator[Tuple[FrameAddress, np.ndarray]]:
        """Yield (address, data) for frames that differ from ``baseline``.

        This is the content of a *differential* partial bitstream relative
        to the baseline configuration.
        """
        if (
            isinstance(baseline, ConfigSnapshot)
            and baseline.geometry.device is self.device
            and not self._extra
            and not baseline._extra
        ):
            # Catalogued rows sit in FAR order, which is sorted order, so a
            # row-wise comparison yields addresses exactly as the dict-based
            # reference loop did.
            order = self.geometry.frame_order()
            changed = np.flatnonzero((self._data != baseline._data).any(axis=1))
            for row in changed:
                yield order[row], self._data[row].copy()
            return
        empty = self.geometry.empty_frame()
        mine_map = dict(self.items_view())
        addresses = set(mine_map) | set(baseline)
        for address in sorted(addresses):
            mine = mine_map.get(address, empty)
            theirs = baseline.get(address, empty)
            if not np.array_equal(mine, theirs):
                yield address, mine.copy()

    def items_view(self) -> Iterator[Tuple[FrameAddress, np.ndarray]]:
        """(address, live frame view) pairs for all written frames."""
        order = self.geometry.frame_order()
        for row in np.flatnonzero(self._written):
            yield order[row], self._data[row]
        yield from self._extra.items()

    def written_addresses(self) -> Iterable[FrameAddress]:
        """Addresses of frames that have been written at least once."""
        order = self.geometry.frame_order()
        catalogued: List[FrameAddress] = [order[row] for row in np.flatnonzero(self._written)]
        if not self._extra:
            return catalogued
        return sorted(catalogued + list(self._extra))

    def __len__(self) -> int:
        return int(self._written.sum()) + len(self._extra)
