"""Bitstream container and (de)serialisation.

A :class:`Bitstream` is an ordered set of frame writes for one device, plus
metadata: whether it is a *full* configuration, a *complete partial*
configuration (every frame of the target region included, as produced by
BitLinker), or a *differential partial* configuration (only frames that
changed relative to some baseline — smaller, but only safe when the
baseline state is guaranteed).

Serialisation uses the packet protocol from :mod:`repro.bitstream.packets`;
``Bitstream.from_words`` round-trips the result, CRC-checked.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError
from ..fabric.device import DeviceSpec, get_device
from ..fabric.frames import FAR_FIELDS_MASK, FrameAddress

#: IDCODEs of the catalogued devices (model values).
_IDCODES: Dict[str, int] = {
    "XC2VP4": 0x01248093,
    "XC2VP7": 0x0124A093,
    "XC2VP30": 0x0127E093,
}


def device_idcode(name: str) -> int:
    """The 32-bit IDCODE used in bitstream headers for ``name``."""
    key = name.upper()
    if key in _IDCODES:
        return _IDCODES[key]
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "little") | 0x093  # Xilinx-style suffix


class BitstreamKind(enum.Enum):
    """What a bitstream covers."""

    FULL = "full"
    PARTIAL_COMPLETE = "partial-complete"
    PARTIAL_DIFFERENTIAL = "partial-differential"


class Bitstream:
    """An ordered sequence of frame writes targeting one device.

    Storage is one read-only ``(frames, words_per_frame)`` uint32 block and
    the frames' packed FAR words, in write order.  A caller's ``frames``
    list of ``(address, data)`` pairs is stacked once;
    :meth:`from_block` takes a block over without a copy.
    """

    def __init__(
        self,
        device_name: str,
        kind: BitstreamKind,
        frames: Sequence[Tuple[FrameAddress, np.ndarray]] = (),
        description: str = "",
    ) -> None:
        frames = list(frames)
        check_frame_sizes(device_name, frames)
        fars = np.array([address.packed() for address, _ in frames], dtype=np.uint32)
        block = np.array([data for _, data in frames], dtype=np.uint32)
        words_per_frame = get_device(device_name).words_per_frame
        self._own(device_name, kind, fars, block.reshape(len(frames), words_per_frame), description)

    @classmethod
    def from_block(
        cls,
        device_name: str,
        kind: BitstreamKind,
        fars: np.ndarray,
        block: np.ndarray,
        description: str = "",
    ) -> "Bitstream":
        """A bitstream writing ``block[i]`` to FAR ``fars[i]``.

        Takes ownership of both arrays without a copy and makes them
        read-only; the caller must not keep writing to them.
        """
        expected = (len(fars), get_device(device_name).words_per_frame)
        if block.shape != expected:
            raise BitstreamError(
                f"frame block has shape {block.shape}, expected {expected} for {device_name}"
            )
        bitstream = cls.__new__(cls)
        bitstream._own(device_name, kind, fars, block, description)
        return bitstream

    def _own(self, device_name, kind, fars, block, description) -> None:
        fars.setflags(write=False)
        block.setflags(write=False)
        self.device_name = device_name
        self.kind = kind
        #: free-form origin note ("bitlinker: matcher+macros", "diff vs baseline")
        self.description = description
        self._fars = fars
        self._block = block

    # -- introspection ------------------------------------------------------
    @property
    def device(self) -> DeviceSpec:
        return get_device(self.device_name)

    @property
    def frame_count(self) -> int:
        return len(self._fars)

    @property
    def is_partial(self) -> bool:
        return self.kind is not BitstreamKind.FULL

    @property
    def is_differential(self) -> bool:
        return self.kind is BitstreamKind.PARTIAL_DIFFERENTIAL

    @property
    def fars(self) -> np.ndarray:
        """Read-only packed FAR word of each frame write, in write order."""
        return self._fars

    @property
    def block(self) -> np.ndarray:
        """Read-only ``(frame_count, words_per_frame)`` payload block."""
        return self._block

    @property
    def frames(self) -> List[Tuple[FrameAddress, np.ndarray]]:
        """``(address, payload)`` per frame write; payloads are read-only
        row views of :attr:`block`."""
        return list(zip(self.addresses(), self._block))

    def addresses(self) -> List[FrameAddress]:
        return [FrameAddress.unpacked(far) for far in self._fars.tolist()]

    def frame_data(self, address: FrameAddress) -> np.ndarray:
        """Payload for one frame address (first occurrence)."""
        hits = np.flatnonzero(self._fars == address.packed())
        if not hits.size:
            raise BitstreamError(f"bitstream does not write frame {address}")
        return self._block[hits[0]].copy()

    # -- sizes ---------------------------------------------------------------
    @property
    def payload_words(self) -> int:
        """Frame-data words only (no packet overhead)."""
        return int(self._block.size)

    @property
    def word_count(self) -> int:
        """Total serialised size in 32-bit words (with packet overhead)."""
        return len(self.to_words())

    @property
    def byte_size(self) -> int:
        return self.word_count * 4

    # -- serialisation ---------------------------------------------------------
    def to_words(self) -> np.ndarray:
        """Serialise to a CRC-protected configuration word stream."""
        from .packets import Command, PacketWriter, Register

        writer = PacketWriter()
        writer.write_command(Command.RCRC)
        writer.write_register(Register.IDCODE, [device_idcode(self.device_name)])
        writer.write_command(Command.WCFG)
        # One bulk call for all FAR/FDRI pairs: a single chunk, one CRC pass.
        writer.write_frames(self._fars, self._block)
        writer.write_command(Command.LFRM)
        writer.write_command(Command.START)
        return writer.finish()

    @classmethod
    def from_words(
        cls, words: np.ndarray, kind: BitstreamKind | None = None, description: str = ""
    ) -> "Bitstream":
        """Parse a word stream produced by :meth:`to_words`.

        The CRC is verified during parsing.  ``kind`` defaults to
        PARTIAL_COMPLETE since the wire format does not distinguish kinds.
        """
        device_name, runs = decode_frames(words)
        check_run_sizes(device_name, runs)
        if not runs:
            return cls(device_name, kind or BitstreamKind.PARTIAL_COMPLETE, (), description)
        return cls.from_block(
            device_name,
            kind or BitstreamKind.PARTIAL_COMPLETE,
            np.concatenate([fars for fars, _ in runs]) & FAR_FIELDS_MASK,
            np.concatenate([block for _, block in runs]),
            description,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Bitstream[{self.kind.value}] {self.device_name}: "
            f"{self.frame_count} frames, {self.byte_size} bytes"
        )


def _device_for_idcode(idcode: int | None) -> str:
    if idcode is None:
        raise BitstreamError("stream carries no IDCODE")
    for name, code in _IDCODES.items():
        if code == idcode:
            return name
    raise BitstreamError(f"unknown IDCODE {idcode:#010x}")


def check_frame_sizes(device_name: str, frames: Sequence[Tuple[FrameAddress, np.ndarray]]) -> None:
    """Raise :class:`BitstreamError` unless every payload is one frame of
    ``device_name`` long."""
    expected = (get_device(device_name).words_per_frame,)
    for address, data in frames:
        if np.shape(data) != expected:
            raise BitstreamError(
                f"frame {address} has {np.shape(data)} words, expected {expected} "
                f"for {device_name}"
            )


#: A run of decoded frame writes: FAR words and their ``(n, width)`` payloads.
FrameRun = Tuple[np.ndarray, np.ndarray]


def check_run_sizes(device_name: str, runs: Sequence[FrameRun]) -> None:
    """:func:`check_frame_sizes` over decoded runs (one width per run)."""
    expected = get_device(device_name).words_per_frame
    for fars, block in runs:
        if block.shape[1] != expected:
            check_frame_sizes(device_name, [(FrameAddress.unpacked(int(fars[0])), block[0])])


def decode_frames(words: np.ndarray) -> Tuple[str, List[FrameRun]]:
    """CRC-checked decode of a word stream into (device name, frame runs).

    The functional core of :meth:`Bitstream.from_words`, also used by the
    ICAP's bulk commit, which does not need a :class:`Bitstream` wrapper.
    Each bulk FAR/FDRI run comes back as one FAR vector and one payload
    view (see :meth:`PacketReader.scan`).
    """
    from .packets import PacketReader

    decoded = PacketReader(words).scan()
    return _device_for_idcode(decoded.idcode), decoded.runs
