"""Cross-validation of the software cost models against executable loops.

Each reference inner loop is written in MiniPPC assembly, executed against
the simulated memory system, checked for functional correctness, and its
measured cycles-per-iteration compared with the ``InstructionMix`` the
task models charge.  This pins the abstraction the whole evaluation rests
on.
"""

import numpy as np
import pytest

from repro.core import memmap
from .oracles.minippc import MiniPpc, Program
from repro.kernels.jenkins_hash import GOLDEN_RATIO
from repro.sw.jenkins_hash import BLOCK_MIX
from repro.sw.pattern_match import ROW_MIX

# The lookup2 mix() inner block: 3 word loads + the 27-op mixer + pointer
# bookkeeping, looping over the key.  Registers: r1=key ptr, r2=blocks,
# r10..r12 = a,b,c.
LOOKUP2_ASM = f"""
    li r10, {GOLDEN_RATIO}
    li r11, {GOLDEN_RATIO}
    li r12, 0
block:
    lwz r4, 0(r1)
    lwz r5, 4(r1)
    lwz r6, 8(r1)
    add r10, r10, r4
    add r11, r11, r5
    add r12, r12, r6
    # mix(a,b,c): 3 rounds of sub/sub/xor/shift x3 (27 ops modelled as 9x3)
    sub r10, r10, r11
    sub r10, r10, r12
    srwi r7, r12, 13
    xor r10, r10, r7
    sub r11, r11, r12
    sub r11, r11, r10
    slwi r7, r10, 8
    xor r11, r11, r7
    sub r12, r12, r10
    sub r12, r12, r11
    srwi r7, r11, 13
    xor r12, r12, r7
    sub r10, r10, r11
    sub r10, r10, r12
    srwi r7, r12, 12
    xor r10, r10, r7
    sub r11, r11, r12
    sub r11, r11, r10
    slwi r7, r10, 16
    xor r11, r11, r7
    sub r12, r12, r10
    sub r12, r12, r11
    srwi r7, r11, 5
    xor r12, r12, r7
    sub r10, r10, r11
    sub r10, r10, r12
    srwi r7, r12, 3
    xor r10, r10, r7
    sub r11, r11, r12
    sub r11, r11, r10
    slwi r7, r10, 10
    xor r11, r11, r7
    sub r12, r12, r10
    sub r12, r12, r11
    srwi r7, r11, 15
    xor r12, r12, r7
    addi r1, r1, 12
    addi r2, r2, -1
    cmpwi r2, 0
    bne block
    halt
"""


def test_lookup2_block_functional(system64):
    """The assembly mixer computes the real lookup2 state transitions."""
    from .oracles.kernels import _mix

    key = bytes(range(36))  # three 12-byte blocks
    base = memmap.STAGE_INPUT
    system64.ext_mem.load(base, key)
    machine = MiniPpc(system64.cpu)
    machine.run(Program.assemble(LOOKUP2_ASM), registers={1: base, 2: 3})

    a = b = GOLDEN_RATIO
    c = 0
    for pos in range(0, 36, 12):
        a = (a + int.from_bytes(key[pos : pos + 4], "little")) & 0xFFFFFFFF
        b = (b + int.from_bytes(key[pos + 4 : pos + 8], "little")) & 0xFFFFFFFF
        c = (c + int.from_bytes(key[pos + 8 : pos + 12], "little")) & 0xFFFFFFFF
        a, b, c = _mix(a, b, c)
    assert machine.registers[10] == a
    assert machine.registers[11] == b
    assert machine.registers[12] == c


def test_lookup2_block_mix_validated(system64):
    """Cycles per block of the executable loop ~= BLOCK_MIX + 3 loads."""
    blocks = 64
    key = bytes((i * 13) & 0xFF for i in range(12 * blocks))
    base = memmap.STAGE_INPUT
    system64.ext_mem.load(base, key)
    system64.cpu.charge_stream_read(base, len(key))  # warm cache: hit timing

    machine = MiniPpc(system64.cpu)
    stats = machine.run(Program.assemble(LOOKUP2_ASM), registers={1: base, 2: blocks})
    cycles_per_block = stats.cycles / blocks
    predicted = BLOCK_MIX.cycles() + 3  # mix + the three loads' hit slots
    assert cycles_per_block == pytest.approx(predicted, rel=0.3)


# One pattern-row step: extract the window byte straddling two words,
# xor with the pattern byte, invert, table popcount, accumulate.
# r1 = image word ptr, r3 = pattern byte, r8 = popcount table base,
# r9 = accumulator, r20 = bit offset within the word.
PATTERN_ROW_ASM = """
row:
    lwz  r4, 0(r1)      # current word
    lwz  r5, 4(r1)      # next word (straddle)
    srwi r4, r4, 3      # align window (fixed shift stands in for r20)
    slwi r5, r5, 29
    or   r4, r4, r5
    li   r6, 255
    and  r4, r4, r6
    xor  r4, r4, r3     # compare with pattern byte
    xor  r4, r4, r6     # invert -> matching bits
    add  r7, r8, r4
    lbz  r7, 0(r7)      # popcount table lookup
    add  r9, r9, r7
    addi r1, r1, 4
    addi r2, r2, -1
    cmpwi r2, 0
    bne  row
    halt
"""


def test_pattern_row_functional(system64):
    """The row step produces correct popcounts of matching pixels."""
    base = memmap.STAGE_INPUT
    table = memmap.STAGE_AUX
    popcount = bytes(bin(i).count("1") for i in range(256))
    system64.ext_mem.load(table, popcount)
    words = np.array([0x0000_07F8, 0x0, 0xFFFF_FFFF, 0xFFFF_FFFF], dtype="<u4")
    system64.ext_mem.load(base, words.view(np.uint8))

    machine = MiniPpc(system64.cpu)
    machine.run(
        Program.assemble(PATTERN_ROW_ASM),
        registers={1: base, 2: 2, 3: 0xFF, 8: table, 9: 0},
    )
    # Row 1: window byte = (0x7F8 >> 3) & 0xFF = 0xFF -> all 8 pixels match
    # the 0xFF pattern byte.  Row 2: window = ((0x0 >> 3) | (0xFFFFFFFF <<
    # 29)) & 0xFF = 0x00 -> zero matches.  Total: 8.
    assert machine.registers[9] == 8


def test_pattern_row_mix_validated(system64):
    """Cycles per row ~= ROW_MIX + the two external loads' hit slots."""
    rows = 64
    base = memmap.STAGE_INPUT
    table = memmap.STAGE_AUX
    system64.ext_mem.load(table, bytes(bin(i).count("1") for i in range(256)))
    system64.ext_mem.load(base, bytes(4 * (rows + 1)))
    system64.cpu.charge_stream_read(base, 4 * (rows + 1))
    system64.cpu.charge_stream_read(table, 256)

    machine = MiniPpc(system64.cpu)
    stats = machine.run(
        Program.assemble(PATTERN_ROW_ASM),
        registers={1: base, 2: rows, 3: 0x5A, 8: table, 9: 0},
    )
    cycles_per_row = stats.cycles / rows
    # ROW_MIX charges the compute + the (cached) table load; the two
    # external word loads are charged separately by the task model.
    predicted = ROW_MIX.cycles() + 2  # + the two loads' pipeline slots
    assert cycles_per_row == pytest.approx(predicted, rel=0.35)
