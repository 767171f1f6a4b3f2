"""Software SHA-1 on the PPC405 (the RFC 3174 reference code).

Each 512-bit block costs the 80-round compression plus the message-schedule
expansion; every call additionally pays context init, input copying into
the block buffer and padding — "a large overhead for smaller data sets"
whose relative importance decreases as the input grows (Table 11).
"""

from __future__ import annotations

from ..cpu.isa import CALL_OVERHEAD, InstructionMix
from ..kernels.sha1_core import padded_blocks, sha1
from .costmodel import RunResult, SystemFacade, charge_repeated_word_reads

#: Per 64-byte block: 80 rounds x ~11 ops + the W[t] expansion with its
#: loads/stores to the (cached) schedule array on the stack.
BLOCK_MIX = InstructionMix(
    alu=960, load=176, store=96, branches=84, taken_fraction=0.95, label="sha1-block"
)
#: Per call: SHA1Reset/SHA1Input bookkeeping, buffer copies, SHA1Result
#: byte-order fixups — the RFC code copies every input byte once more.
CALL_MIX = CALL_OVERHEAD + InstructionMix(
    alu=420, load=140, store=160, branches=60, taken_fraction=0.7, label="sha1-call"
)
#: The RFC code's per-input-byte copy into the internal block buffer.
COPY_BYTE_MIX = InstructionMix(alu=3, load=1, store=1, branches=1, label="sha1-copy")


class SwSha1:
    """Software SHA-1 task (compute + PPC405 cost model)."""

    name = "sha1/sw"

    def run(self, system: SystemFacade, message: bytes, base: int = 0x0030_0000) -> RunResult:
        """Digest ``message`` on ``system``; returns digest and time."""
        digest = sha1(message)
        blocks = padded_blocks(len(message))

        cpu = system.cpu
        start = cpu.now_ps
        cpu.execute(CALL_MIX)
        cpu.execute(COPY_BYTE_MIX, len(message))
        cpu.execute(BLOCK_MIX, blocks)
        charge_repeated_word_reads(
            system, base, total_loads=(len(message) + 3) // 4, unique_bytes=max(4, len(message))
        )
        return RunResult(result=digest, elapsed_ps=cpu.now_ps - start, label=self.name)
