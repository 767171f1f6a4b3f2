"""CoreConnect-style on-chip bus models: OPB, PLB, PLB-OPB bridge."""

from .arbiter import CPU_DATA, CPU_INSTR, DMA_ENGINE, Master
from .bridge import PlbOpbBridge
from .bus import Attachment, Bus
from .opb import OPB_MAX_BURST_BEATS, OPB_WIDTH_BITS, make_opb
from .plb import PLB_MAX_BURST_BEATS, PLB_WIDTH_BITS, make_plb
from .transaction import AddressRange, Completion, Op, Slave, Transaction

__all__ = [
    "AddressRange",
    "Attachment",
    "Bus",
    "CPU_DATA",
    "CPU_INSTR",
    "Completion",
    "DMA_ENGINE",
    "Master",
    "OPB_MAX_BURST_BEATS",
    "OPB_WIDTH_BITS",
    "Op",
    "PLB_MAX_BURST_BEATS",
    "PLB_WIDTH_BITS",
    "PlbOpbBridge",
    "Slave",
    "Transaction",
    "make_opb",
    "make_plb",
]
