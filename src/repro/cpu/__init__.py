"""PowerPC 405 model: instruction costs, caches, core timing."""

from .cache import Cache
from .isa import (
    CALL_OVERHEAD,
    CPI_ALU,
    CPI_BRANCH_NOT_TAKEN,
    CPI_BRANCH_TAKEN,
    CPI_LOAD_HIT,
    CPI_MUL,
    CPI_STORE_HIT,
    LOOP_OVERHEAD,
    InstructionMix,
)
from .ppc405 import CacheableWindow, Ppc405

__all__ = [
    "CALL_OVERHEAD",
    "CPI_ALU",
    "CPI_BRANCH_NOT_TAKEN",
    "CPI_BRANCH_TAKEN",
    "CPI_LOAD_HIT",
    "CPI_MUL",
    "CPI_STORE_HIT",
    "Cache",
    "CacheableWindow",
    "InstructionMix",
    "LOOP_OVERHEAD",
    "Ppc405",
]
