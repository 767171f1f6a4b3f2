"""Table scenarios — the paper's twelve numbered tables as pure functions.

Each function builds its own rig, runs the simulation, cross-checks
hardware results against the software reference (raising
:class:`~repro.errors.CheckError` on any divergence) and returns a
:class:`ScenarioResult` whose rows are the rendered table — the sweep
cache and a serial ``run_scenario`` call therefore produce byte-identical
simulated numbers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import TransferBench
from ..core.apps import (
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
from ..core.reconfig import ReconfigManager
from ..errors import ResourceError
from ..kernels import Sha1Kernel
from ..sw import (
    SwBlend,
    SwBrightness,
    SwFade,
    SwJenkinsHash,
    SwPatternMatch,
    SwSha1,
)
from ..workloads import binary_image, binary_pattern, grayscale_image, random_key
from .registry import scenario
from .result import ScenarioResult, require, system_stats
from .rigs import (
    BRIGHTNESS_CONSTANT,
    FADE_FACTOR,
    PATTERN_SEED,
    build_rig32,
    build_rig64,
)


def _resource_rows(system, region_note: str, device_note: str):
    rows = []
    for entry in system.modules:
        rows.append(
            [entry.name, entry.resources.slices, entry.resources.bram_blocks, entry.bus, entry.note]
        )
    static = system.static_resources()
    region = system.region.resources
    rows.append(["-- static total --", static.slices, static.bram_blocks, "", ""])
    rows.append(["-- dynamic area --", region.slices, region.bram_blocks, "", region_note])
    cap = system.device.capacity
    rows.append([f"-- device ({system.device.name}) --", cap.slices, cap.bram_blocks, "", device_note])
    return rows


@scenario(
    "table01_resources32",
    title="Table 1: Resource usage (32-bit system)",
    tags=("table", "resources", "system32"),
)
def table01_resources32() -> ScenarioResult:
    system, _ = build_rig32()
    rows = _resource_rows(system, "28x11 CLBs, 25.0%", "speed grade -6")
    static = system.static_resources()
    return ScenarioResult(
        name="table01_resources32",
        title="Table 1: Resource usage (32-bit system)",
        headers=["module", "slices", "BRAM", "bus", "note"],
        rows=rows,
        headline={
            "static_slices": static.slices,
            "region_slices": system.region.resources.slices,
            "region_bram": system.region.resources.bram_blocks,
            "device_slices": system.device.capacity.slices,
        },
    )


@scenario(
    "table02_transfers32",
    title="Table 2: Transfer times, 32-bit system",
    tags=("table", "transfers", "system32"),
    params={"lengths": (1024, 4096, 16384)},
    smoke_params={"lengths": (512,)},
)
def table02_transfers32(lengths: Sequence[int]) -> ScenarioResult:
    system, _ = build_rig32()
    bench = TransferBench(system)
    rows = []
    for n in lengths:
        w = bench.pio_write_sequence(n)
        r = bench.pio_read_sequence(n)
        wr = bench.pio_interleaved_sequence(n)
        rows.append([n, w.per_transfer_ns, r.per_transfer_ns, wr.per_transfer_ns])
    return ScenarioResult(
        name="table02_transfers32",
        title="Table 2: Transfer times, 32-bit system (CPU-controlled, ns per 32-bit transfer)",
        headers=["sequence length", "write", "read", "write/read pair"],
        rows=rows,
        stats=system_stats(system),
    )


def _patmatch_rows(system, manager, pattern, image_sizes, sw_first: bool):
    """Shared Table 3/9 body; column order differs between the tables."""
    manager.load("patmatch")
    rows = []
    for height, width in image_sizes:
        image = binary_image(height, width, seed=height * width)
        hw = HwPatternMatch().run(system, image)
        sw = SwPatternMatch(pattern).run(system, image)
        require(
            bool(np.array_equal(hw.result, sw.result)),
            f"pattern-match hw/sw divergence at {height}x{width}",
        )
        label = f"{height}x{width}"
        speedup = sw.elapsed_ps / hw.elapsed_ps
        if sw_first:
            rows.append([label, sw.elapsed_ps / 1e6, hw.elapsed_ps / 1e6, speedup])
        else:
            rows.append([label, hw.result.size, sw.elapsed_ps / 1e6,
                         hw.elapsed_ps / 1e6, speedup])
    return rows


@scenario(
    "table03_patmatch32",
    title="Table 3: Pattern matching in binary images (32-bit system)",
    tags=("table", "apps", "system32"),
    params={
        "image_sizes": ((16, 64), (24, 96), (32, 128)),
        "pattern_seed": PATTERN_SEED,
    },
    smoke_params={"image_sizes": ((16, 64),)},
)
def table03_patmatch32(image_sizes, pattern_seed: int) -> ScenarioResult:
    system, manager = build_rig32(pattern_seed)
    pattern = binary_pattern(seed=pattern_seed)
    rows = _patmatch_rows(system, manager, pattern, image_sizes, sw_first=False)
    return ScenarioResult(
        name="table03_patmatch32",
        title="Table 3: Pattern matching in binary images (32-bit system)",
        headers=["image", "positions", "software (us)", "hardware (us)", "speedup"],
        rows=rows,
        stats=system_stats(system),
    )


def _hash_rows(system, manager, key_lengths):
    manager.load("lookup2")
    rows = []
    for length in key_lengths:
        key = random_key(length, seed=length)
        hw = HwJenkinsHash().run(system, key)
        sw = SwJenkinsHash().run(system, key)
        require(hw.result == sw.result, f"lookup2 hw/sw divergence at {length} bytes")
        rows.append(
            [length, sw.elapsed_ps / 1e6, hw.elapsed_ps / 1e6, sw.elapsed_ps / hw.elapsed_ps]
        )
    return rows


@scenario(
    "table04_hash32",
    title="Table 4: Results for hash function lookup2 (32-bit system)",
    tags=("table", "apps", "system32"),
    params={"key_lengths": (256, 1024, 4096, 16384)},
    smoke_params={"key_lengths": (256, 1024)},
)
def table04_hash32(key_lengths: Sequence[int]) -> ScenarioResult:
    system, manager = build_rig32()
    rows = _hash_rows(system, manager, key_lengths)
    return ScenarioResult(
        name="table04_hash32",
        title="Table 4: Results for hash function lookup2 (32-bit system)",
        headers=["key bytes", "software (us)", "hardware (us)", "speedup"],
        rows=rows,
        stats=system_stats(system),
    )


def _image_task_rows(system, manager, drivers, height: int, width: int, with_prep: bool):
    a = grayscale_image(height, width, seed=1)
    b = grayscale_image(height, width, seed=2)
    hw_brightness, hw_blend, hw_fade = drivers
    rows = []

    manager.load("brightness")
    hw = hw_brightness().run(system, a)
    sw = SwBrightness(BRIGHTNESS_CONSTANT).run(system, a)
    require(bool(np.array_equal(hw.result, sw.result)), "brightness hw/sw divergence")
    row = ["brightness", sw.elapsed_ps / 1e6, hw.elapsed_ps / 1e6]
    if with_prep:
        row.append(0.0)
    rows.append(row + [sw.elapsed_ps / hw.elapsed_ps])

    manager.load("blend")
    hw = hw_blend().run(system, a, b)
    sw = SwBlend().run(system, a, b)
    require(bool(np.array_equal(hw.result, sw.result)), "blend hw/sw divergence")
    row = ["additive blending", sw.elapsed_ps / 1e6, hw.elapsed_ps / 1e6]
    if with_prep:
        row.append(hw.breakdown.get("data_preparation_ps", 0) / 1e6)
    rows.append(row + [sw.elapsed_ps / hw.elapsed_ps])

    manager.load("fade")
    hw = hw_fade().run(system, a, b)
    sw = SwFade(FADE_FACTOR).run(system, a, b)
    require(bool(np.array_equal(hw.result, sw.result)), "fade hw/sw divergence")
    row = ["fade effect", sw.elapsed_ps / 1e6, hw.elapsed_ps / 1e6]
    if with_prep:
        row.append(hw.breakdown.get("data_preparation_ps", 0) / 1e6)
    rows.append(row + [sw.elapsed_ps / hw.elapsed_ps])
    return rows


@scenario(
    "table05_image32",
    title="Table 5: Speedups for simple image processing tasks (32-bit)",
    tags=("table", "apps", "system32"),
    params={"height": 96, "width": 96},
    smoke_params={"height": 32, "width": 32},
)
def table05_image32(height: int, width: int) -> ScenarioResult:
    system, manager = build_rig32()
    rows = _image_task_rows(
        system, manager, (HwBrightnessPio, HwBlendPio, HwFadePio), height, width, False
    )
    return ScenarioResult(
        name="table05_image32",
        title=f"Table 5: Speedups for simple image processing tasks (32-bit, {height}x{width})",
        headers=["task", "software (us)", "hardware (us)", "speedup"],
        rows=rows,
        stats=system_stats(system),
    )


@scenario(
    "table06_resources64",
    title="Table 6: Resource usage (64-bit system)",
    tags=("table", "resources", "system64"),
)
def table06_resources64() -> ScenarioResult:
    system, _ = build_rig64()
    rows = _resource_rows(system, "32x24 CLBs, 22.4%", "speed grade -7")
    static = system.static_resources()
    return ScenarioResult(
        name="table06_resources64",
        title="Table 6: Resource usage (64-bit system)",
        headers=["module", "slices", "BRAM", "bus", "note"],
        rows=rows,
        headline={
            "static_slices": static.slices,
            "region_slices": system.region.resources.slices,
            "region_bram": system.region.resources.bram_blocks,
        },
    )


@scenario(
    "table07_transfers64_pio",
    title="Table 7: 32-bit CPU-controlled transfers on the 64-bit system",
    tags=("table", "transfers", "system64"),
    params={"length": 4096},
    smoke_params={"length": 512},
)
def table07_transfers64_pio(length: int) -> ScenarioResult:
    system32, _ = build_rig32()
    system64, _ = build_rig64()
    bench32 = TransferBench(system32)
    bench64 = TransferBench(system64)
    rows = []
    for label, method in (
        ("write", "pio_write_sequence"),
        ("read", "pio_read_sequence"),
        ("write/read pair", "pio_interleaved_sequence"),
    ):
        t32 = getattr(bench32, method)(length).per_transfer_ns
        t64 = getattr(bench64, method)(length).per_transfer_ns
        rows.append([label, t64, t32, t32 / t64])
    return ScenarioResult(
        name="table07_transfers64_pio",
        title="Table 7: 32-bit CPU-controlled transfers on the 64-bit system "
        "(ns per transfer, vs Table 2)",
        headers=["transfer type", "64-bit system", "32-bit system", "improvement"],
        rows=rows,
        stats=system_stats(system64),
    )


@scenario(
    "table08_transfers64_dma",
    title="Table 8: DMA-controlled transfers, 64-bit system",
    tags=("table", "transfers", "system64"),
    params={"lengths": (2047, 8192, 32768), "pio_reference_length": 4096},
    smoke_params={"lengths": (2047,), "pio_reference_length": 512},
)
def table08_transfers64_dma(lengths: Sequence[int], pio_reference_length: int) -> ScenarioResult:
    system, _ = build_rig64()
    bench = TransferBench(system)
    rows = []
    for n in lengths:
        w = bench.dma_write_sequence(n)
        r = bench.dma_read_sequence(n)
        wr = bench.dma_interleaved_sequence(n)
        rows.append([n, w.per_transfer_ns, r.per_transfer_ns, wr.per_transfer_ns])
    pio = TransferBench(system).pio_write_sequence(pio_reference_length).per_transfer_ns
    return ScenarioResult(
        name="table08_transfers64_dma",
        title="Table 8: DMA-controlled transfers, 64-bit system (ns per 64-bit transfer)",
        headers=["sequence length", "write", "read", "write/read (block-interleaved)"],
        rows=rows,
        headline={"pio_write_ns": pio},
        stats=system_stats(system),
    )


@scenario(
    "table09_patmatch64",
    title="Table 9: Pattern matching in binary images (64-bit system)",
    tags=("table", "apps", "system64"),
    params={
        "image_sizes": ((16, 64), (24, 96), (32, 128)),
        "pattern_seed": PATTERN_SEED,
    },
    smoke_params={"image_sizes": ((16, 64),)},
)
def table09_patmatch64(image_sizes, pattern_seed: int) -> ScenarioResult:
    pattern = binary_pattern(seed=pattern_seed)
    system64, manager64 = build_rig64(pattern_seed)
    system32, manager32 = build_rig32(pattern_seed)
    rows64 = _patmatch_rows(system64, manager64, pattern, image_sizes, sw_first=True)
    rows32 = _patmatch_rows(system32, manager32, pattern, image_sizes, sw_first=True)
    merged = [row + [row32[-1]] for row, row32 in zip(rows64, rows32)]
    return ScenarioResult(
        name="table09_patmatch64",
        title="Table 9: Pattern matching in binary images (64-bit system)",
        headers=["image", "software (us)", "hardware (us)", "speedup", "(32-bit speedup)"],
        rows=merged,
        stats=system_stats(system64),
    )


@scenario(
    "table10_hash64",
    title="Table 10: Results for hash function lookup2 (64-bit system)",
    tags=("table", "apps", "system64"),
    params={"key_lengths": (256, 1024, 4096, 16384)},
    smoke_params={"key_lengths": (256, 1024)},
)
def table10_hash64(key_lengths: Sequence[int]) -> ScenarioResult:
    system64, manager64 = build_rig64()
    system32, manager32 = build_rig32()
    rows64 = _hash_rows(system64, manager64, key_lengths)
    rows32 = _hash_rows(system32, manager32, key_lengths)
    merged = [r64 + [r32[-1]] for r64, r32 in zip(rows64, rows32)]
    return ScenarioResult(
        name="table10_hash64",
        title="Table 10: Results for hash function lookup2 (64-bit system)",
        headers=["key bytes", "software (us)", "hardware (us)", "speedup", "(32-bit speedup)"],
        rows=merged,
        stats=system_stats(system64),
    )


@scenario(
    "table11_sha1",
    title="Table 11: SHA-1 (64-bit system)",
    tags=("table", "apps", "system64"),
    params={"message_sizes": (64, 512, 4096, 32768)},
    smoke_params={"message_sizes": (64, 512)},
)
def table11_sha1(message_sizes: Sequence[int]) -> ScenarioResult:
    # "Our implementation does not fit into the dynamic area of the 32-bit
    #  system, so no comparison can be done."
    system32, _ = build_rig32()
    rejected = False
    try:
        ReconfigManager(system32).register(Sha1Kernel())
    except ResourceError:
        rejected = True
    require(rejected, "Sha1Kernel unexpectedly fits the 32-bit dynamic area")

    system64, manager64 = build_rig64()
    manager64.load("sha1")
    rows = []
    for size in message_sizes:
        message = random_key(size, seed=size)
        hw = HwSha1().run(system64, message)
        sw = SwSha1().run(system64, message)
        require(hw.result == sw.result, f"sha1 hw/sw divergence at {size} bytes")
        rows.append(
            [size, sw.elapsed_ps / 1e6, hw.elapsed_ps / 1e6, sw.elapsed_ps / hw.elapsed_ps]
        )
    return ScenarioResult(
        name="table11_sha1",
        title="Table 11: SHA-1 (64-bit system; kernel does not fit the 32-bit system)",
        headers=["message bytes", "software (us)", "hardware (us)", "speedup"],
        rows=rows,
        headline={"sha1_rejected_on_32bit": rejected},
        stats=system_stats(system64),
    )


@scenario(
    "table12_image64",
    title="Table 12: Image tasks, 64-bit system with DMA",
    tags=("table", "apps", "system64"),
    params={"height": 96, "width": 96},
    smoke_params={"height": 32, "width": 32},
)
def table12_image64(height: int, width: int) -> ScenarioResult:
    system64, manager64 = build_rig64()
    system32, manager32 = build_rig32()
    rows64 = _image_task_rows(
        system64, manager64, (HwBrightnessDma, HwBlendDma, HwFadeDma), height, width, True
    )
    rows32 = _image_task_rows(
        system32, manager32, (HwBrightnessPio, HwBlendPio, HwFadePio), height, width, False
    )
    merged = [r64 + [r32[-1]] for r64, r32 in zip(rows64, rows32)]
    return ScenarioResult(
        name="table12_image64",
        title=f"Table 12: Image tasks, 64-bit system with DMA ({height}x{width})",
        headers=["task", "software (us)", "hardware (us)", "data preparation (us)",
                 "speedup", "(32-bit speedup)"],
        rows=merged,
        stats=system_stats(system64),
    )
