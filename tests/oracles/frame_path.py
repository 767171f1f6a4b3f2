"""Frame-at-a-time references for the configuration-data path.

``repro`` links, serialises, decodes, commits and checks configuration
frames as blocks: one array per BitLinker assembly, one chunk per FAR/FDRI
run, one row write per decoded run.  Each function here does the same step
one frame, one word or one packet at a time, written only against public
types — :func:`~repro.bitstream.generator.placement_frame_content`,
:meth:`~repro.bitstream.packets.PacketWriter.write_register`,
:meth:`~repro.fabric.config_memory.ConfigMemory.read_frame` /
:meth:`~repro.fabric.config_memory.ConfigMemory.write_frame` and
:class:`~repro.fabric.frames.FrameAddress` — plus the private state of the
object being replaced where the step must update it.  Nothing here calls
``placement_block``, ``PacketReader.scan`` or ``ConfigMemory.write_rows``.

:func:`per_frame_reference` installs every oracle at every binding site,
so a test runs a workload once as shipped and once under the oracles and
compares everything observable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.bitstream as bitstream_package
import repro.bitstream.bitstream as bitstream_module
import repro.bitstream.generator as generator
import repro.core.reconfig as reconfig
import repro.core.system as system_module
import repro.faults as faults_package
import repro.faults.plan as plan_module
import repro.faults.sampling as sampling
import repro.periph.hwicap as hwicap
from repro.bitstream.bitlinker import BitLinker, Placement
from repro.bitstream.bitstream import Bitstream, BitstreamKind, check_run_sizes, device_idcode
from repro.bitstream.generator import full_configuration_frames, placement_frame_content
from repro.bitstream.packets import DUMMY_WORD, SYNC_WORD, Command, PacketWriter, Register
from repro.errors import BitstreamError, CRCError, LinkError, ReconfigurationError
from repro.fabric.config_memory import ConfigMemory
from repro.fabric.frames import FrameAddress, FrameGeometry
from repro.fabric.region import Region
from repro.periph.hwicap import STATUS_DONE, STATUS_ERROR, OpbHwIcap

# Packet header fields, decoded here independently of repro.bitstream.packets.
TYPE1 = 0x1
TYPE2 = 0x2
OP_WRITE = 0x2

FrameRun = Tuple[np.ndarray, np.ndarray]


# -- packets -----------------------------------------------------------------
@dataclass(frozen=True)
class Packet:
    """One decoded configuration packet."""

    opcode: int
    register: Register
    payload: Tuple[int, ...]

    @property
    def is_write(self) -> bool:
        return self.opcode == OP_WRITE


def packets(words: np.ndarray) -> Iterator[Packet]:
    """Decode every packet word by word; raises :class:`CRCError` on a bad
    checksum and :class:`BitstreamError` on a malformed stream."""
    words = np.asarray(words, dtype=np.uint32)
    n = len(words)
    idx = 0
    # Skip dummies up to the sync word.
    while idx < n and int(words[idx]) != SYNC_WORD:
        if int(words[idx]) != DUMMY_WORD:
            raise BitstreamError(f"unexpected word {int(words[idx]):#010x} before sync")
        idx += 1
    if idx == n:
        raise BitstreamError("no sync word found")
    idx += 1
    crc = 0
    pending_register: Optional[Register] = None
    while idx < n:
        header = int(words[idx])
        idx += 1
        if header == DUMMY_WORD:
            continue
        ptype = header >> 29
        opcode = (header >> 27) & 0x3
        if ptype == TYPE1:
            register = Register((header >> 13) & 0x3FFF)
            count = header & 0x7FF
            kind = "Type-1"
            pending_register = register
        elif ptype == TYPE2:
            if pending_register is None:
                raise BitstreamError("Type-2 packet without preceding Type-1")
            register = pending_register
            count = header & ((1 << 27) - 1)
            kind = "Type-2"
        else:
            raise BitstreamError(f"unknown packet type {ptype} in header {header:#010x}")
        payload = tuple(int(w) for w in words[idx : idx + count])
        if len(payload) != count:
            raise BitstreamError(f"truncated {kind} packet")
        idx += count
        if opcode == OP_WRITE and register == Register.CRC:
            if payload and payload[0] != crc:
                raise CRCError(
                    f"CRC mismatch: stream says {payload[0]:#010x}, computed {crc:#010x}"
                )
        elif opcode == OP_WRITE:
            if register == Register.CMD and payload and payload[0] == Command.RCRC:
                crc = 0
            elif payload:
                # Zero-length Type-1 headers (register announcements ahead of
                # a Type-2 burst) carry no data and are not CRC'd.
                blob = int(register).to_bytes(2, "little") + b"".join(
                    w.to_bytes(4, "little") for w in payload
                )
                crc = zlib.crc32(blob, crc)
        yield Packet(opcode, register, payload)


def decode_frames(words: np.ndarray) -> Tuple[str, List[FrameRun]]:
    """(device name, one run per FDRI packet), walking :func:`packets`."""
    idcode: Optional[int] = None
    current_far: Optional[int] = None
    runs: List[FrameRun] = []
    for packet in packets(words):
        if not packet.is_write:
            continue
        if packet.register == Register.IDCODE and packet.payload:
            idcode = packet.payload[0]
        elif packet.register == Register.FAR and packet.payload:
            current_far = FrameAddress.unpacked(packet.payload[0]).packed()
        elif packet.register == Register.FDRI:
            if current_far is None:
                raise BitstreamError("FDRI write before any FAR write")
            runs.append(
                (
                    np.array([current_far], dtype=np.uint32),
                    np.array(packet.payload, dtype=np.uint32).reshape(1, -1),
                )
            )
    return bitstream_module._device_for_idcode(idcode), runs


def write_frames(writer: PacketWriter, fars: np.ndarray, block: np.ndarray) -> None:
    """One FAR write and one FDRI write per frame."""
    for far, data in zip(fars, block):
        writer.write_register(Register.FAR, [int(far)])
        writer.write_register(Register.FDRI, data)


def payload_word_indices(words: np.ndarray) -> np.ndarray:
    """FDRI payload positions by a header walk that never raises: a
    malformed stream yields the payloads found before the fault."""
    out: List[np.ndarray] = []
    n = int(words.size)
    idx = 0
    while idx < n and int(words[idx]) != SYNC_WORD:
        idx += 1
    idx += 1
    register = None
    while idx < n:
        header = int(words[idx])
        idx += 1
        if header == DUMMY_WORD:
            continue
        ptype = header >> 29
        if ptype == TYPE1:
            register = (header >> 13) & 0x3FFF
            count = header & 0x7FF
        elif ptype == TYPE2:
            count = header & ((1 << 27) - 1)
        else:
            break
        if register == int(Register.FDRI) and count:
            out.append(np.arange(idx, min(idx + count, n)))
        idx += count
    if not out:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(out)


# -- BitLinker ---------------------------------------------------------------
def cleared_frame(geometry: FrameGeometry, region: Region, baseline: np.ndarray) -> np.ndarray:
    """Baseline frame with the region's rows blanked."""
    return baseline & ~geometry.row_mask(region.rect.row, region.rect.row_end)


def assemble_frames(linker: BitLinker, placements: Sequence[Placement]) -> np.ndarray:
    """Each region frame cleared, then every placement merged in order."""
    frames = []
    empty = linker.geometry.empty_frame()
    for address in linker.region.frame_addresses:
        frame = cleared_frame(linker.geometry, linker.region, linker._baseline.get(address, empty))
        for placement in placements:
            frame = placement_frame_content(
                linker.geometry,
                linker.region,
                placement.component,
                placement.col_offset,
                placement.row_offset,
                address,
                frame,
            )
        frames.append(frame)
    return np.array(frames, dtype=np.uint32)


def link_differential(
    linker: BitLinker,
    placements: Sequence[Placement],
    current: ConfigMemory,
    description: str = "",
) -> Bitstream:
    """The complete link's frames whose ``read_frame`` differs."""
    complete = linker.link(placements, description)
    description = description or complete.description + " (differential)"
    frames = [
        (address, data)
        for address, data in complete.frames
        if not np.array_equal(current.read_frame(address), data)
    ]
    bitstream = Bitstream(
        linker.region.device.name, BitstreamKind.PARTIAL_DIFFERENTIAL, frames, description
    )
    if linker.last_report is not None:
        linker.last_report.frame_count = bitstream.frame_count
        linker.last_report.payload_words = bitstream.payload_words
    return bitstream


def clear_bitstream(linker: BitLinker, description: str = "clear dynamic region") -> Bitstream:
    """Every region frame cleared from its baseline, one at a time."""
    empty = linker.geometry.empty_frame()
    frames = [
        (address, cleared_frame(linker.geometry, linker.region, linker._baseline.get(address, empty)))
        for address in linker.region.frame_addresses
    ]
    return Bitstream(
        linker.region.device.name, BitstreamKind.PARTIAL_COMPLETE, frames, description
    )


# -- static image ------------------------------------------------------------
def initialize_static_configuration(
    memory: ConfigMemory, region: Optional[Region], seed: str
) -> None:
    """Generate and write every static frame; no memo is read or filled."""
    addresses = set() if region is None else set(region.frame_addresses)
    for address, data in full_configuration_frames(memory, seed).items():
        if address in addresses:
            data = cleared_frame(memory.geometry, region, data)
        memory.write_frame(address, data)


def verify_preserves_static(
    memory_before: ConfigMemory, memory_after: ConfigMemory, region: Region
) -> bool:
    """Read every frame either memory has written, once from each, and
    compare: whole frames outside the region, static rows inside it."""
    geometry = memory_before.geometry
    if geometry.device is not memory_after.geometry.device:
        raise LinkError("cannot compare configuration memories of different devices")
    order = geometry.frame_order()
    written = memory_before.written_mask() | memory_after.written_mask()
    in_region = set(region.frame_addresses)
    keep = ~geometry.row_mask(region.rect.row, region.rect.row_end)
    preserved = True
    for row in np.flatnonzero(written):
        address = order[row]
        before = memory_before.read_frame(address)
        after = memory_after.read_frame(address)
        if address in in_region:
            before, after = before & keep, after & keep
        preserved &= bool(np.array_equal(before, after))
    return preserved


# -- HWICAP ------------------------------------------------------------------
def load_words(icap: OpbHwIcap, words) -> None:
    """Push the stream one word at a time, then commit."""
    for word in words:
        icap._push_word(int(word) & 0xFFFFFFFF)
    icap._commit()


def commit(icap: OpbHwIcap) -> None:
    """Decode the pending stream and write its frames one at a time."""
    if not icap._pending:
        icap._status |= STATUS_DONE
        return
    plan = icap.fault_plan
    if plan is not None and plan.take_commit_fault(icap.name):
        raise icap._bad_stream("injected CRC/commit fault")
    try:
        device_name, runs = hwicap.decode_frames(icap._buf[: icap._pending])
        check_run_sizes(device_name, runs)
    except Exception as err:
        raise icap._bad_stream(err) from err
    memory = icap.config_memory
    if device_idcode(device_name) != device_idcode(memory.device.name):
        icap._status |= STATUS_ERROR
        icap._pending = 0
        raise ReconfigurationError(
            f"{icap.name}: bitstream targets {device_name}, device is {memory.device.name}"
        )
    frames = [
        (FrameAddress.unpacked(int(far)), data) for fars, block in runs for far, data in zip(fars, block)
    ]
    try:
        # A FAR the device lacks fails the stream before any frame lands.
        for address, _ in frames:
            memory.geometry.frame_index(address)
    except BitstreamError as err:
        raise icap._bad_stream(err) from err
    for address, data in frames:
        memory.write_frame(address, data)
        icap.frames_written += 1
    if plan is not None:
        plan.take_post_commit_upset(
            memory, memory.geometry.frame_rows([address for address, _ in frames])
        )
    icap._pending = 0
    icap._status = STATUS_DONE


# -- installation ------------------------------------------------------------
def per_frame_reference(monkeypatch) -> None:
    """Install every oracle above at every site that binds the shipped
    implementation (``monkeypatch`` undoes it)."""
    monkeypatch.setattr(BitLinker, "_assemble_frames", assemble_frames)
    monkeypatch.setattr(BitLinker, "link_differential", link_differential)
    monkeypatch.setattr(BitLinker, "clear_bitstream", clear_bitstream)
    monkeypatch.setattr(PacketWriter, "write_frames", write_frames)
    monkeypatch.setattr(OpbHwIcap, "load_words", load_words)
    monkeypatch.setattr(OpbHwIcap, "_commit", commit)
    for module in (bitstream_module, hwicap):
        monkeypatch.setattr(module, "decode_frames", decode_frames)
    for module in (generator, bitstream_package, reconfig):
        monkeypatch.setattr(module, "verify_preserves_static", verify_preserves_static)
    for module in (generator, bitstream_package, system_module):
        monkeypatch.setattr(
            module, "initialize_static_configuration", initialize_static_configuration
        )
    for module in (plan_module, faults_package, sampling):
        monkeypatch.setattr(module, "payload_word_indices", payload_word_indices)
