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
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError
from ..fabric.device import DeviceSpec, get_device
from ..fabric.frames import FrameAddress

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


@dataclass
class Bitstream:
    """An ordered sequence of frame writes targeting one device."""

    device_name: str
    kind: BitstreamKind
    frames: List[Tuple[FrameAddress, np.ndarray]] = field(default_factory=list)
    #: free-form origin note ("bitlinker: matcher+macros", "diff vs baseline")
    description: str = ""

    def __post_init__(self) -> None:
        # Normalise frame payloads and validate sizes against the device.
        normalised = [(address, np.array(data, dtype=np.uint32)) for address, data in self.frames]
        check_frame_sizes(self.device_name, normalised)
        self.frames = normalised

    # -- introspection ------------------------------------------------------
    @property
    def device(self) -> DeviceSpec:
        return get_device(self.device_name)

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    @property
    def is_partial(self) -> bool:
        return self.kind is not BitstreamKind.FULL

    @property
    def is_differential(self) -> bool:
        return self.kind is BitstreamKind.PARTIAL_DIFFERENTIAL

    def addresses(self) -> List[FrameAddress]:
        return [address for address, _ in self.frames]

    def frame_data(self, address: FrameAddress) -> np.ndarray:
        """Payload for one frame address (first occurrence)."""
        for addr, data in self.frames:
            if addr == address:
                return data.copy()
        raise BitstreamError(f"bitstream does not write frame {address}")

    # -- sizes ---------------------------------------------------------------
    @property
    def payload_words(self) -> int:
        """Frame-data words only (no packet overhead)."""
        return sum(len(data) for _, data in self.frames)

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
        # One bulk call for all FAR/FDRI pairs: the writer's vectorized path
        # emits them as a single chunk with one CRC pass; the reference path
        # iterates register writes word by word.  Identical streams.
        writer.write_frames(self.frames)
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
        device_name, frames = decode_frames(words)
        return cls(
            device_name=device_name,
            kind=kind or BitstreamKind.PARTIAL_COMPLETE,
            frames=frames,
            description=description,
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
        if data.shape != expected:
            raise BitstreamError(
                f"frame {address} has {data.shape} words, expected {expected} "
                f"for {device_name}"
            )


def decode_frames(words: np.ndarray) -> Tuple[str, List[Tuple[FrameAddress, np.ndarray]]]:
    """CRC-checked decode of a word stream into (device name, frame writes).

    The functional core of :meth:`Bitstream.from_words`, also used by the
    ICAP's bulk commit, which does not need a :class:`Bitstream` wrapper.
    With the fast path enabled the stream is scanned by index arithmetic
    and frame payloads are sliced as array views; the reference path walks
    :meth:`PacketReader.packets` word by word.  Both verify the CRC and
    raise identical errors.
    """
    from ..engine import fastpath
    from .packets import PacketReader, Register

    reader = PacketReader(words)
    if fastpath.enabled():
        decoded = reader.scan(far_decode=FrameAddress.unpacked)
        return _device_for_idcode(decoded.idcode), decoded.frames
    idcode: int | None = None
    current_far: FrameAddress | None = None
    frames = []
    for packet in reader.packets():
        if not packet.is_write:
            continue
        if packet.register == Register.IDCODE and packet.payload:
            idcode = packet.payload[0]
        elif packet.register == Register.FAR and packet.payload:
            current_far = FrameAddress.unpacked(packet.payload[0])
        elif packet.register == Register.FDRI:
            if current_far is None:
                raise BitstreamError("FDRI write before any FAR write")
            frames.append((current_far, np.array(packet.payload, dtype=np.uint32)))
    return _device_for_idcode(idcode), frames


def concatenate(streams: Sequence[Bitstream]) -> Bitstream:
    """Concatenate partial bitstreams for the same device.

    Frames later in the sequence override earlier writes to the same
    address (last-write-wins, as on the configuration port).
    """
    if not streams:
        raise BitstreamError("cannot concatenate zero bitstreams")
    device_name = streams[0].device_name
    for stream in streams[1:]:
        if stream.device_name != device_name:
            raise BitstreamError(
                f"cannot concatenate bitstreams for {device_name} and {stream.device_name}"
            )
    merged: Dict[FrameAddress, np.ndarray] = {}
    order: List[FrameAddress] = []
    for stream in streams:
        for address, data in stream.frames:
            if address not in merged:
                order.append(address)
            merged[address] = data
    kind = (
        BitstreamKind.PARTIAL_COMPLETE
        if all(s.kind is not BitstreamKind.PARTIAL_DIFFERENTIAL for s in streams)
        else BitstreamKind.PARTIAL_DIFFERENTIAL
    )
    return Bitstream(
        device_name=device_name,
        kind=kind,
        frames=[(address, merged[address]) for address in order],
        description="concatenation of " + ", ".join(s.description or "?" for s in streams),
    )
