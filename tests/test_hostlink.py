"""Tests for the UART host link (external communication unit)."""

import pytest

from repro.core import memmap
from repro.core.hostlink import (
    Command,
    HostLink,
    decode_frame,
    encode_frame,
)
from repro.errors import TransferError


def test_frame_roundtrip():
    frame = encode_frame(Command.PING, b"abc")
    command, payload = decode_frame(frame)
    assert command is Command.PING
    assert payload == b"abc"


def test_frame_checksum_detects_corruption():
    frame = bytearray(encode_frame(Command.PING, b"abc"))
    frame[3] ^= 0xFF
    with pytest.raises(TransferError, match="checksum"):
        decode_frame(bytes(frame))


def test_frame_rejects_garbage():
    with pytest.raises(TransferError):
        decode_frame(b"\x00\x01")


def test_frame_payload_cap():
    with pytest.raises(TransferError):
        encode_frame(Command.PING, b"x" * 300)


def test_ping_echoes(system32):
    link = HostLink(system32)
    assert link.ping(b"token") == b"token"
    assert link.stats.frames == 1


def test_debug_read_write(system32):
    link = HostLink(system32)
    link.write_word(memmap.STAGE_INPUT, 0xCAFE)
    assert link.read_word(memmap.STAGE_INPUT) == 0xCAFE
    assert system32.ext_mem.read_word(memmap.STAGE_INPUT, 4) == 0xCAFE


def test_status_reports_active_kernel(system32, manager32):
    link = HostLink(system32)
    assert link.active_kernel() == ""
    manager32.load("brightness")
    assert link.active_kernel() == "brightness"


def test_wire_time_dominates(system32):
    """A ping costs hundreds of microseconds at 115200 baud."""
    link = HostLink(system32)
    before = system32.cpu.now_ps
    link.ping()
    elapsed = system32.cpu.now_ps - before
    wire = system32.uart.byte_time_ps * link.stats.bytes_wire
    assert elapsed >= wire
    assert elapsed > 500_000_000  # > 0.5 ms for ~20 bytes


def test_upload_is_hopeless_for_bulk_data(system32):
    """The paper's implicit point: serial is for control, docks for data."""
    from repro.core.transfer import TransferBench

    link = HostLink(system32)
    link_time = link.upload(memmap.STAGE_AUX, b"\xAA" * 64)
    dock_time = TransferBench(system32).pio_write_sequence(16).total_ps
    assert link_time > 100 * dock_time


def test_upload_data_lands(system32):
    link = HostLink(system32)
    link.upload(memmap.STAGE_AUX, b"ABCDEFGH")
    assert bytes(system32.ext_mem.dump(memmap.STAGE_AUX, 8)) == b"ABCDEFGH"


def test_upload_round_trip_pads_the_last_word(system32):
    """Every 4-byte word is one WRITE_WORD frame; a short tail is zero-padded."""
    link = HostLink(system32)
    data = bytes(range(256)) + b"tail!"
    link.upload(memmap.STAGE_AUX, data)
    landed = bytes(system32.ext_mem.dump(memmap.STAGE_AUX, len(data) + 3))
    assert landed == data + b"\0\0\0"
    assert link.stats.frames == 66
