"""The paper's contribution: the two dynamically reconfigurable systems.

``build_system32`` / ``build_system64`` assemble the complete platforms;
:class:`ReconfigManager` swaps hardware kernels into the dynamic region at
run time; :class:`TransferBench` and the ``Hw*`` application drivers
reproduce the paper's measurements.
"""

from . import memmap
from .apps import (
    HwBlendDma,
    HwBlendPio,
    HwBrightnessDma,
    HwBrightnessPio,
    HwFadeDma,
    HwFadePio,
    HwJenkinsHash,
    HwPatternMatch,
    HwSha1,
)
from .floorplan import render_bus_macro, render_generic_architecture, render_system_floorplan
from .multiregion import RegionSlot, build_system64_dual
from .reconfig import ReconfigManager, ReconfigResult
from .system import ModuleEntry, System
from .system32 import build_system32
from .system64 import build_system64
from .transfer import OverlapResult, TransferBench, TransferResult

__all__ = [
    "HwBlendDma",
    "HwBlendPio",
    "HwBrightnessDma",
    "HwBrightnessPio",
    "HwFadeDma",
    "HwFadePio",
    "HwJenkinsHash",
    "HwPatternMatch",
    "HwSha1",
    "ModuleEntry",
    "OverlapResult",
    "ReconfigManager",
    "ReconfigResult",
    "RegionSlot",
    "System",
    "TransferBench",
    "TransferResult",
    "build_system32",
    "build_system64",
    "build_system64_dual",
    "memmap",
    "render_bus_macro",
    "render_generic_architecture",
    "render_system_floorplan",
]
