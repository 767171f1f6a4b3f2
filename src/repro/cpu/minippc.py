"""MiniPPC: a small PowerPC-flavoured interpreter over the timing model.

The software tasks charge time through counted instruction mixes; this
module provides the ground truth those counts abstract: a register-machine
interpreter for a PowerPC-like subset that executes *real* loops against
the simulated memory system, charging the same per-class cycle costs and
issuing real (cached or uncached) loads and stores through the
:class:`~repro.cpu.ppc405.Ppc405` core.

Tests assemble the reference inner loops (saturating pixel adds, word
sums), run them on a system, and check both the functional result in
memory and that the measured cycles agree with the corresponding
``InstructionMix`` — closing the loop between the abstract cost model and
executable code.

Supported syntax (one instruction per line, ``#`` comments, ``label:``)::

    li    rD, imm          addi  rD, rA, imm       add   rD, rA, rB
    sub   rD, rA, rB       mullw rD, rA, rB        and/or/xor rD, rA, rB
    slwi/srwi rD, rA, n    mr    rD, rA
    lwz   rD, off(rA)      stw   rS, off(rA)       lbz/stb likewise
    cmpwi rA, imm          blt/bgt/beq/bne/bge/ble label     b label
    halt
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from .isa import CPI_ALU, CPI_BRANCH_NOT_TAKEN, CPI_BRANCH_TAKEN, CPI_MUL
from .ppc405 import Ppc405

_MASK = 0xFFFFFFFF

_REGISTER = re.compile(r"^r([0-9]|[12][0-9]|3[01])$")
_MEMREF = re.compile(r"^(-?\d+)\((r\d+)\)$")


class AssemblyError(SimulationError):
    """Raised for malformed MiniPPC source."""


@dataclass(frozen=True)
class Instruction:
    op: str
    args: Tuple[str, ...]
    line: int


@dataclass
class Program:
    """Parsed program: instructions + label table."""

    instructions: List[Instruction]
    labels: Dict[str, int]

    @classmethod
    def assemble(cls, source: str) -> "Program":
        instructions: List[Instruction] = []
        labels: Dict[str, int] = {}
        for line_no, raw in enumerate(source.splitlines(), start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            while ":" in text:
                label, text = text.split(":", 1)
                label = label.strip()
                if not label.isidentifier():
                    raise AssemblyError(f"line {line_no}: bad label {label!r}")
                if label in labels:
                    raise AssemblyError(f"line {line_no}: duplicate label {label!r}")
                labels[label] = len(instructions)
                text = text.strip()
            if not text:
                continue
            parts = text.replace(",", " ").split()
            instructions.append(Instruction(op=parts[0].lower(), args=tuple(parts[1:]), line=line_no))
        return cls(instructions=instructions, labels=labels)


def _signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 32) if value & 0x8000_0000 else value


@dataclass
class RunStats:
    """What one execution did."""

    instructions: int = 0
    cycles: float = 0.0
    loads: int = 0
    stores: int = 0
    branches_taken: int = 0
    branches_not_taken: int = 0
    by_op: Dict[str, int] = field(default_factory=dict)


class MiniPpc:
    """Interpreter bound to a :class:`Ppc405` core (and its memory map)."""

    def __init__(self, cpu: Ppc405, max_steps: int = 1_000_000) -> None:
        self.cpu = cpu
        self.max_steps = max_steps
        self.registers = [0] * 32
        self.cr_lt = self.cr_gt = self.cr_eq = False

    # -- operand helpers -----------------------------------------------------
    def _reg(self, token: str) -> int:
        match = _REGISTER.match(token)
        if not match:
            raise AssemblyError(f"expected register, got {token!r}")
        return int(match.group(1))

    def _imm(self, token: str) -> int:
        try:
            return int(token, 0)
        except ValueError as err:
            raise AssemblyError(f"expected immediate, got {token!r}") from err

    def _memref(self, token: str) -> Tuple[int, int]:
        match = _MEMREF.match(token)
        if not match:
            raise AssemblyError(f"expected off(rA), got {token!r}")
        return int(match.group(1)), self._reg(match.group(2))

    # -- execution ----------------------------------------------------------------
    def run(self, program: Program, registers: Optional[Dict[int, int]] = None) -> RunStats:
        """Execute until ``halt`` (or falling off the end); returns stats."""
        if registers:
            for index, value in registers.items():
                self.registers[index] = value & _MASK
        stats = RunStats()
        cycles_start = self.cpu.now_ps
        pc = 0
        steps = 0
        regs = self.registers
        while pc < len(program.instructions):
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(f"MiniPPC exceeded {self.max_steps} steps (runaway loop?)")
            instr = program.instructions[pc]
            op, args = instr.op, instr.args
            stats.instructions += 1
            stats.by_op[op] = stats.by_op.get(op, 0) + 1
            pc += 1

            if op == "halt":
                break
            if op == "li":
                regs[self._reg(args[0])] = self._imm(args[1]) & _MASK
                self.cpu.elapse_cycles(CPI_ALU)
            elif op == "addi":
                regs[self._reg(args[0])] = (regs[self._reg(args[1])] + self._imm(args[2])) & _MASK
                self.cpu.elapse_cycles(CPI_ALU)
            elif op in ("add", "sub", "and", "or", "xor"):
                a = regs[self._reg(args[1])]
                b = regs[self._reg(args[2])]
                if op == "add":
                    value = a + b
                elif op == "sub":
                    value = a - b
                elif op == "and":
                    value = a & b
                elif op == "or":
                    value = a | b
                else:
                    value = a ^ b
                regs[self._reg(args[0])] = value & _MASK
                self.cpu.elapse_cycles(CPI_ALU)
            elif op == "mullw":
                value = _signed(regs[self._reg(args[1])]) * _signed(regs[self._reg(args[2])])
                regs[self._reg(args[0])] = value & _MASK
                self.cpu.elapse_cycles(CPI_MUL)
            elif op == "slwi":
                regs[self._reg(args[0])] = (regs[self._reg(args[1])] << self._imm(args[2])) & _MASK
                self.cpu.elapse_cycles(CPI_ALU)
            elif op == "srwi":
                regs[self._reg(args[0])] = (regs[self._reg(args[1])] & _MASK) >> self._imm(args[2])
                self.cpu.elapse_cycles(CPI_ALU)
            elif op == "mr":
                regs[self._reg(args[0])] = regs[self._reg(args[1])]
                self.cpu.elapse_cycles(CPI_ALU)
            elif op in ("lwz", "lbz"):
                offset, base = self._memref(args[1])
                address = (regs[base] + offset) & _MASK
                size = 4 if op == "lwz" else 1
                regs[self._reg(args[0])] = self.cpu.load_word(address, size=size) & _MASK
                stats.loads += 1
            elif op in ("stw", "stb"):
                offset, base = self._memref(args[1])
                address = (regs[base] + offset) & _MASK
                size = 4 if op == "stw" else 1
                self.cpu.store_word(address, regs[self._reg(args[0])], size=size)
                stats.stores += 1
            elif op == "cmpwi":
                value = _signed(regs[self._reg(args[0])])
                imm = self._imm(args[1])
                self.cr_lt, self.cr_gt, self.cr_eq = value < imm, value > imm, value == imm
                self.cpu.elapse_cycles(CPI_ALU)
            elif op in ("b", "blt", "bgt", "beq", "bne", "bge", "ble"):
                target = args[0]
                if target not in program.labels:
                    raise AssemblyError(f"line {instr.line}: unknown label {target!r}")
                taken = (
                    op == "b"
                    or (op == "blt" and self.cr_lt)
                    or (op == "bgt" and self.cr_gt)
                    or (op == "beq" and self.cr_eq)
                    or (op == "bne" and not self.cr_eq)
                    or (op == "bge" and not self.cr_lt)
                    or (op == "ble" and not self.cr_gt)
                )
                if taken:
                    pc = program.labels[target]
                    stats.branches_taken += 1
                    self.cpu.elapse_cycles(CPI_BRANCH_TAKEN)
                else:
                    stats.branches_not_taken += 1
                    self.cpu.elapse_cycles(CPI_BRANCH_NOT_TAKEN)
            else:
                raise AssemblyError(f"line {instr.line}: unknown instruction {op!r}")

        stats.cycles = self.cpu.clock.ps_to_cycles(self.cpu.now_ps - cycles_start)
        return stats
