"""Perf scenarios: the reconfiguration datapath and the batch-compiled engine.

Registered like every other scenario (pure, deterministic, cacheable):
``perf_reconfig`` reports the *simulated* cost and traffic of repeated
load/swap/clear cycles on the 64-bit system, and ``perf_engine_e2e`` runs
the per-word PIO driver loops the steady-state compiler
(:mod:`repro.engine.batch`) compresses on both systems.  Host time is
measured by ``perfbench/``; fast == reference is enforced by the
equivalence suites.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.apps import HwBrightnessPio, HwFadePio, HwJenkinsHash, HwPatternMatch
from ..workloads import binary_image, grayscale_image, random_key
from .registry import scenario
from .result import ScenarioResult, system_stats
from .rigs import build_rig32, build_rig64


def run_reconfig_cycles(manager, cycles: int, kernel: str, alternate: str):
    """Drive ``cycles`` x (complete load, differential swap, clear).

    Returns the per-phase :class:`~repro.core.reconfig.ReconfigResult`
    lists ``(loads, differentials, clears)``.  Shared by the scenario below
    and by the reconfiguration fast-path equivalence suite so both drive
    the same datapath.
    """
    loads, differentials, clears = [], [], []
    for _ in range(cycles):
        loads.append(manager.load(kernel))
        differentials.append(manager.load(alternate, differential=True))
        clears.append(manager.clear())
    return loads, differentials, clears


@scenario(
    "perf_reconfig",
    title="Reconfiguration datapath: repeated load/swap/clear cycles",
    tags=("perf", "reconfig", "bitstream", "system64"),
    params={"cycles": 3, "kernel": "brightness", "alternate": "lookup2"},
    smoke_params={"cycles": 1},
)
def perf_reconfig(cycles: int, kernel: str, alternate: str) -> ScenarioResult:
    system, manager = build_rig64()
    loads, differentials, clears = run_reconfig_cycles(manager, cycles, kernel, alternate)
    rows: List[List[object]] = []
    for index, (load, diff, clear) in enumerate(zip(loads, differentials, clears)):
        rows.append(
            [
                index,
                load.word_count,
                load.elapsed_ps / 1e9,
                diff.word_count,
                diff.elapsed_ps / 1e9,
                clear.word_count,
                clear.elapsed_ps / 1e9,
            ]
        )
    total_ps = sum(r.elapsed_ps for r in loads + differentials + clears)
    return ScenarioResult(
        name="perf_reconfig",
        title=f"Reconfiguration datapath: {cycles} load/swap/clear cycles (64-bit system)",
        headers=[
            "cycle",
            "complete words",
            "complete (ms)",
            "differential words",
            "differential (ms)",
            "clear words",
            "clear (ms)",
        ],
        rows=rows,
        headline={
            "complete_words": loads[-1].word_count,
            "differential_words": differentials[-1].word_count,
            "clear_words": clears[-1].word_count,
            "complete_ps": loads[-1].elapsed_ps,
            "differential_ps": differentials[-1].elapsed_ps,
            "clear_ps": clears[-1].elapsed_ps,
            "total_ps": total_ps,
            "frames_written": system.hwicap.frames_written,
            "crc_failures": system.hwicap.crc_failures,
            "memory_writes": system.config_memory.writes,
            "memory_reads": system.config_memory.reads,
        },
        stats=system_stats(system),
    )


def _checksum(result) -> int:
    """Order-sensitive digest of a task result (arrays or ints)."""
    if isinstance(result, np.ndarray):
        flat = result.astype(np.uint64).ravel()
        weights = (np.arange(flat.size, dtype=np.uint64) * np.uint64(0x100000001B3)) + np.uint64(1)
        return int((flat * weights).sum(dtype=np.uint64))
    return int(result) & 0xFFFFFFFFFFFFFFFF


@scenario(
    "perf_engine_e2e",
    title="Batch-compiled engine: PIO-heavy workload on both systems",
    tags=("perf", "engine", "apps", "system32", "system64"),
    params={"height": 96, "width": 96},
    smoke_params={"height": 32, "width": 32},
)
def perf_engine_e2e(height: int, width: int) -> ScenarioResult:
    a = grayscale_image(height, width, seed=1)
    b = grayscale_image(height, width, seed=2)
    image = binary_image(height, width, seed=height * width)
    key = random_key(4 * height * width, seed=width)
    system32, manager32 = build_rig32()
    system64, manager64 = build_rig64()
    rows: List[List[object]] = []
    headline = {}
    total_ps = 0
    for label, (system, manager) in (("32-bit", (system32, manager32)),
                                     ("64-bit", (system64, manager64))):
        runs = []
        manager.load("brightness")
        runs.append(("brightness", HwBrightnessPio().run(system, a)))
        manager.load("fade")
        runs.append(("fade", HwFadePio().run(system, a, b)))
        manager.load("patmatch")
        runs.append(("patmatch", HwPatternMatch().run(system, image)))
        manager.load("lookup2")
        runs.append(("lookup2", HwJenkinsHash().run(system, key)))
        manager.clear()
        for task, run in runs:
            digest = _checksum(run.result)
            rows.append([label, task, run.elapsed_ps / 1e6, digest])
            headline[f"{label.replace('-', '')}_{task}_ps"] = run.elapsed_ps
            headline[f"{label.replace('-', '')}_{task}_checksum"] = digest
            total_ps += run.elapsed_ps
    headline["total_ps"] = total_ps
    return ScenarioResult(
        name="perf_engine_e2e",
        title=f"Batch-compiled engine: PIO-heavy workload on both systems ({height}x{width})",
        headers=["system", "task", "hardware (us)", "checksum"],
        rows=rows,
        headline=headline,
        stats=system_stats(system64),
    )
