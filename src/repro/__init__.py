"""repro — a transaction-level reproduction of Silva & Ferreira (IPPS 2006),
"Exploiting dynamic reconfiguration of platform FPGAs: implementation issues".

Quick start::

    from repro import build_system32, ReconfigManager
    from repro.kernels import BrightnessKernel
    from repro.core.apps import HwBrightnessPio
    from repro.workloads import grayscale_image

    system = build_system32()
    manager = ReconfigManager(system)
    manager.register(BrightnessKernel(constant=32))
    manager.load("brightness")
    result = HwBrightnessPio().run(system, grayscale_image(64, 64))
    print(result.elapsed_us, "us")

The package layers, bottom-up: :mod:`repro.engine` (time and clocks),
:mod:`repro.fabric` (device/frames), :mod:`repro.bitstream` (BitLinker
toolchain), :mod:`repro.bus`/:mod:`repro.cpu`/:mod:`repro.mem`/
:mod:`repro.periph`/:mod:`repro.dock` (the platform), :mod:`repro.kernels`
and :mod:`repro.sw` (the workloads), and :mod:`repro.core` (the two
systems and the run-time reconfiguration machinery).
"""

from .core import (
    OverlapResult,
    ReconfigManager,
    ReconfigResult,
    RegionSlot,
    System,
    TransferBench,
    TransferResult,
    build_system32,
    build_system64,
    build_system64_dual,
)
from .errors import ReproError
from .sw.costmodel import RunResult

__version__ = "1.4.0"

__all__ = [
    "OverlapResult",
    "ReconfigManager",
    "ReconfigResult",
    "RegionSlot",
    "ReproError",
    "RunResult",
    "System",
    "TransferBench",
    "TransferResult",
    "build_system32",
    "build_system64",
    "build_system64_dual",
    "__version__",
]
