"""Calibrated kernel×size cost tables for the serve scheduler.

The scheduler never runs drivers inside its hot loop.  Instead,
:func:`calibrate` measures every (kernel, size-class) pair **once** on a
live rig — partial reconfiguration through the HWICAP, the hardware
driver, and the software reference, all charged through the same CPU/bus
cost model as the paper benches — and freezes the simulated costs into
dense integer arrays.  Admission decisions are then pure break-even math
over these tables (:mod:`repro.serve.decisions`), evaluated in batch.
A table is memoized per process by value (:mod:`repro.engine.memo`), so
each distinct calibration is simulated once per process however many
scenarios ask for it; its arrays are read-only.

Size classes are square-image edge lengths (``32 + 16*c`` pixels); the
hash kernel hashes one key of ``edge*edge`` bytes so all kernels share
one size axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ..core.apps import (
    HwBlendPio,
    HwBrightnessPio,
    HwFadePio,
    HwJenkinsHash,
    HwPatternMatch,
)
from ..engine import fastpath
from ..engine.memo import memoized
from ..errors import KernelError
from ..sw import SwBlend, SwBrightness, SwFade, SwJenkinsHash, SwPatternMatch
from ..workloads import binary_image, binary_pattern, grayscale_image, random_key
from ..workloads.traces import derive_trace_seed

#: Default kernel set (order defines the trace's kernel ids).
DEFAULT_KERNELS = ("brightness", "fade", "patmatch", "lookup2")

#: Image-task constants mirroring :mod:`repro.scenarios.rigs` (the cost
#: model is insensitive to the values; they exist so the calibration runs
#: the exact same code paths as the table scenarios).
BRIGHTNESS_CONSTANT = 48
FADE_FACTOR = 0.5

#: Workload seed of the paper rigs (their publication year).
PATTERN_SEED = 2006


def size_edge(size_class: int) -> int:
    """Square-image edge length of one size class."""
    return 32 + 16 * int(size_class)


@dataclass(frozen=True)
class CostTable:
    """Frozen per-kernel costs: everything the scheduler needs to decide.

    ``hw_run_ps``/``sw_run_ps`` are ``(kernels, sizes)`` int64 arrays;
    ``reconfig_ps`` and ``widths`` (CLB columns) are ``(kernels,)``.
    All four are read-only, so a memoized table cannot be changed by a
    caller.
    """

    kernels: Tuple[str, ...]
    reconfig_ps: np.ndarray
    hw_run_ps: np.ndarray
    sw_run_ps: np.ndarray
    widths: np.ndarray
    region_cols: int
    size_edges: Tuple[int, ...]

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def size_classes(self) -> int:
        return len(self.size_edges)

    def mean_gap_for_utilization(self, target_util: float) -> int:
        """Mean inter-arrival (ps) that would load one server to
        ``target_util`` if every request ran in hardware."""
        if not 0.0 < target_util <= 4.0:
            raise KernelError(f"target utilization {target_util} out of range")
        mean_hw = float(self.hw_run_ps.mean())
        return max(1, int(round(mean_hw / target_util)))


def _measure_pair(system, name: str, edge: int, seed: int, pattern) -> Tuple[int, int]:
    """(hw_ps, sw_ps) for one kernel at one size on a loaded rig."""
    if name == "brightness":
        image = grayscale_image(edge, edge, seed=seed)
        hw = HwBrightnessPio().run(system, image)
        sw = SwBrightness(BRIGHTNESS_CONSTANT).run(system, image)
    elif name == "fade":
        image_a = grayscale_image(edge, edge, seed=seed)
        image_b = grayscale_image(edge, edge, seed=seed + 1)
        hw = HwFadePio().run(system, image_a, image_b)
        sw = SwFade(FADE_FACTOR).run(system, image_a, image_b)
    elif name == "blend":
        image_a = grayscale_image(edge, edge, seed=seed)
        image_b = grayscale_image(edge, edge, seed=seed + 1)
        hw = HwBlendPio().run(system, image_a, image_b)
        sw = SwBlend().run(system, image_a, image_b)
    elif name == "patmatch":
        image = binary_image(edge, edge, seed=seed)
        hw = HwPatternMatch().run(system, image)
        sw = SwPatternMatch(pattern).run(system, image)
    elif name == "lookup2":
        key = random_key(edge * edge, seed=seed)
        hw = HwJenkinsHash().run(system, key)
        sw = SwJenkinsHash().run(system, key)
    else:
        raise KernelError(f"no calibration recipe for kernel {name!r}")
    return hw.elapsed_ps, sw.elapsed_ps


def calibrate(
    build_rig: Callable[..., Tuple[object, object]],
    kernels: Tuple[str, ...] = DEFAULT_KERNELS,
    size_classes: int = 3,
    seed: int = PATTERN_SEED,
) -> CostTable:
    """Measure a :class:`CostTable` on a freshly built rig.

    ``build_rig`` is a rig factory like
    :func:`repro.scenarios.rigs.build_rig64` — it must return
    ``(system, ReconfigManager)`` with the requested kernels registered,
    and be a pure function of its arguments: the table is memoized per
    process on ``(build_rig, kernels, size_classes, seed)`` and the
    fast-path state (:func:`repro.engine.memo.memoized`).  All workload
    seeds are derived from ``seed``.
    """
    kernels = tuple(kernels)
    key = ("serve.calibrate", build_rig, kernels, size_classes, seed, fastpath.enabled())
    return memoized(key, lambda: _calibrate(build_rig, kernels, size_classes, seed))


def _calibrate(
    build_rig: Callable[..., Tuple[object, object]],
    kernels: Tuple[str, ...],
    size_classes: int,
    seed: int,
) -> CostTable:
    if size_classes < 1:
        raise KernelError("need at least one size class")
    system, manager = build_rig(pattern_seed=seed)
    pattern = binary_pattern(seed=seed)
    count = len(kernels)
    reconfig = np.zeros(count, dtype=np.int64)
    hw_table = np.zeros((count, size_classes), dtype=np.int64)
    sw_table = np.zeros((count, size_classes), dtype=np.int64)
    widths = np.zeros(count, dtype=np.int64)
    for k, name in enumerate(kernels):
        widths[k] = manager.component(name).width
        reconfig[k] = manager.load(name).elapsed_ps
        for c in range(size_classes):
            edge = size_edge(c)
            pair_seed = derive_trace_seed(seed, f"cal:{name}:{edge}")
            hw_table[k, c], sw_table[k, c] = _measure_pair(
                system, name, edge, pair_seed, pattern
            )
    return CostTable(
        kernels=kernels,
        reconfig_ps=reconfig,
        hw_run_ps=hw_table,
        sw_run_ps=sw_table,
        widths=widths,
        region_cols=int(system.region.rect.width),
        size_edges=tuple(size_edge(c) for c in range(size_classes)),
    )
