"""Ablation scenarios — the reproduction's design-space probes as pure
functions.

Same contract as the table scenarios: build everything locally,
deterministic parameters, equivalence failures raise
:class:`~repro.errors.CheckError`, and every quantity the paper-shape
tests assert on is exposed through ``rows`` or ``headline``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis import break_even_runs, measure_episode
from ..bitstream.busmacro import BusMacro, MacroKind
from ..bus.bridge import PlbOpbBridge
from ..bus.opb import make_opb
from ..bus.plb import make_plb
from ..bus.transaction import Op, Transaction
from ..core.apps import HwBrightnessPio, HwJenkinsHash, HwPatternMatch
from ..core.boot import compare_reconfiguration
from ..core.transfer import TransferBench
from ..dock.dma import Descriptor
from ..dock.plb_dock import PlbDock
from ..engine.clock import ClockDomain, mhz
from ..kernels.streams import LoopbackKernel, SinkKernel
from ..mem.controllers import DdrController, SramController
from ..mem.memory import MemoryArray
from ..sw import SwBrightness, SwJenkinsHash, SwPatternMatch
from ..workloads import (
    binary_image,
    binary_pattern,
    grayscale_image,
    key_batch,
    random_key,
    zipf_key_batch,
)
from .registry import scenario
from .result import ScenarioResult, require, system_stats
from .rigs import PATTERN_SEED, build_rig32, build_rig64

DOCK_BASE = 0x8000_0000


@scenario(
    "ablation_amortization",
    title="Ablation: runs needed to amortise one reconfiguration",
    tags=("ablation", "reconfig", "system32"),
    params={"workload_seed": 6, "key_length": 4096, "pattern_seed": PATTERN_SEED},
    smoke_params={"key_length": 1024},
)
def ablation_amortization(workload_seed: int, key_length: int, pattern_seed: int) -> ScenarioResult:
    system, manager = build_rig32(pattern_seed)
    pattern = binary_pattern(seed=pattern_seed)
    image = binary_image(16, 64, seed=workload_seed)
    gray = grayscale_image(64, 64, seed=workload_seed)
    key = random_key(key_length, seed=workload_seed)
    rows = []
    for kernel, sw_task, hw_driver, args in (
        ("patmatch", SwPatternMatch(pattern), HwPatternMatch(), (image,)),
        ("brightness", SwBrightness(48), HwBrightnessPio(), (gray,)),
        ("lookup2", SwJenkinsHash(), HwJenkinsHash(), (key,)),
    ):
        costs = measure_episode(system, manager, kernel, sw_task, hw_driver, *args)
        runs = break_even_runs(costs["reconfig_ps"], costs["sw_run_ps"], costs["hw_run_ps"])
        rows.append(
            [
                kernel,
                costs["reconfig_ps"] / 1e9,
                costs["sw_run_ps"] / 1e6,
                costs["hw_run_ps"] / 1e6,
                "never" if runs == float("inf") else f"{runs:.1f}",
            ]
        )
    return ScenarioResult(
        name="ablation_amortization",
        title="Ablation: runs needed to amortise one reconfiguration (32-bit system)",
        headers=["task", "reconfig (ms)", "sw/run (us)", "hw/run (us)", "break-even runs"],
        rows=rows,
        stats=system_stats(system),
    )


@scenario(
    "ablation_bitlinker",
    title="Ablation: complete vs differential partial bitstreams",
    tags=("ablation", "bitstream", "system32"),
)
def ablation_bitlinker() -> ScenarioResult:
    _, manager = build_rig32()
    rows = []
    first = manager.load("brightness")
    rows.append(["brightness (complete, cold)", first.frame_count, first.word_count,
                 first.elapsed_ps / 1e9])
    complete = manager.load("lookup2")
    rows.append(["lookup2 (complete)", complete.frame_count, complete.word_count,
                 complete.elapsed_ps / 1e9])
    manager.load("brightness")  # reset state
    differential = manager.load("lookup2", differential=True)
    rows.append(["lookup2 (differential)", differential.frame_count,
                 differential.word_count, differential.elapsed_ps / 1e9])
    return ScenarioResult(
        name="ablation_bitlinker",
        title="Ablation: complete vs differential partial bitstreams (32-bit system)",
        headers=["load", "frames", "words", "time (ms)"],
        rows=rows,
        headline={
            "complete_words": complete.word_count,
            "differential_words": differential.word_count,
            "complete_ps": complete.elapsed_ps,
            "differential_ps": differential.elapsed_ps,
            "complete_kind": complete.kind,
            "differential_kind": differential.kind,
        },
    )


@scenario(
    "ablation_boot",
    title="Ablation: full reload vs partial reconfiguration",
    tags=("ablation", "reconfig", "system32"),
    params={"kernel": "brightness"},
)
def ablation_boot(kernel: str) -> ScenarioResult:
    system, manager = build_rig32()
    comparison = compare_reconfiguration(system, manager, kernel)
    rows = [
        [
            "full reload (SelectMAP)",
            comparison.boot.byte_size / 1024,
            comparison.boot.load_ms,
            "destroyed",
        ],
        [
            "partial (OPB HWICAP)",
            comparison.partial_byte_size / 1024,
            comparison.partial_load_ps / 1e9,
            "keeps running",
        ],
    ]
    return ScenarioResult(
        name="ablation_boot",
        title="Ablation: full boot-time reload vs run-time partial reconfiguration "
        "(32-bit system)",
        headers=["path", "KiB", "load (ms)", "system state"],
        rows=rows,
        headline={
            "bandwidth_ratio": comparison.bandwidth_ratio,
            "boot_bytes": comparison.boot.byte_size,
            "partial_bytes": comparison.partial_byte_size,
            "partial_keeps_system_alive": comparison.partial_keeps_system_alive,
            "boot_destroys_system_state": comparison.boot.destroys_system_state,
        },
        appendix=comparison.summary(),
    )


@scenario(
    "ablation_bridge",
    title="Ablation: PLB-OPB bridge cost",
    tags=("ablation", "bus"),
    params={"bus_mhz": 50},
)
def ablation_bridge(bus_mhz: int) -> ScenarioResult:
    clock = ClockDomain("bus", mhz(bus_mhz))
    plb = make_plb(clock)
    opb = make_opb(clock)
    memory = MemoryArray(65536)
    opb.attach(SramController(memory, 0, "sram"), 0, 65536, name="sram")
    bridge = PlbOpbBridge(plb, opb)
    plb.attach(bridge, 0, 65536, name="bridge", posted_writes=True)

    def latency(bus, op):
        start = bus.clock.next_edge(max(0, bus.busy_until))
        completion = bus.request(start, Transaction(op, 0x100, data=1 if op is Op.WRITE else None))
        return (completion.master_free_ps - start) / 1000.0

    results = {
        "direct OPB read": latency(opb, Op.READ),
        "bridged read": latency(plb, Op.READ),
        "direct OPB write": latency(opb, Op.WRITE),
        "bridged write (posted)": latency(plb, Op.WRITE),
    }
    return ScenarioResult(
        name="ablation_bridge",
        title=f"Ablation: PLB-OPB bridge cost ({bus_mhz} MHz buses, ns per access)",
        headers=["path", "latency (ns)"],
        rows=[[k, v] for k, v in results.items()],
        headline=dict(results),
    )


def _burst_ns_per_word(max_beats: int, words: int) -> float:
    plb = make_plb(ClockDomain("bus", mhz(100)))
    plb.max_burst_beats = max_beats
    memory = MemoryArray(1 << 20)
    plb.attach(DdrController(memory, 0, "ddr"), 0, 1 << 20, name="ddr")
    dock = PlbDock(DOCK_BASE)
    plb.attach(dock, DOCK_BASE, 0x1_0000, name="dock", posted_writes=True)
    dock.connect_bus(plb)
    dock.attach_kernel(SinkKernel())
    done = dock.dma.run_chain(0, [Descriptor(src=0, dst=None, word_count=words)])
    return done / words / 1000.0  # ns per 64-bit word


@scenario(
    "ablation_burst",
    title="Ablation: PLB max burst length vs DMA cost",
    tags=("ablation", "bus", "dma"),
    params={"bursts": (1, 2, 4, 8, 16), "words": 4096},
    smoke_params={"bursts": (1, 16), "words": 1024},
)
def ablation_burst(bursts: Sequence[int], words: int) -> ScenarioResult:
    rows = [[b, _burst_ns_per_word(b, words)] for b in bursts]
    return ScenarioResult(
        name="ablation_burst",
        title=f"Ablation: PLB max burst length vs DMA cost ({words} x 64-bit words)",
        headers=["max burst (beats)", "ns per word"],
        rows=rows,
    )


@scenario(
    "ablation_busmacro",
    title="Ablation: bus-macro area per side",
    tags=("ablation", "bitstream"),
    params={"widths": (4, 8, 16, 32, 64)},
)
def ablation_busmacro(widths: Sequence[int]) -> ScenarioResult:
    rows = []
    for width in widths:
        lut = BusMacro(f"lut{width}", MacroKind.LUT, width=width)
        tri = BusMacro(f"tri{width}", MacroKind.TRISTATE, width=width)
        lut_cost = lut.resource_cost()
        tri_cost = tri.resource_cost()
        rows.append([width, lut_cost.slices, tri_cost.slices, tri_cost.tbufs,
                     tri_cost.slices / lut_cost.slices])
    return ScenarioResult(
        name="ablation_busmacro",
        title="Ablation: bus-macro area per side (LUT vs tristate)",
        headers=["signals", "LUT slices", "tristate slices", "TBUFs", "area ratio"],
        rows=rows,
    )


@scenario(
    "ablation_cache",
    title="Ablation: cacheable DDR vs uncached access",
    tags=("ablation", "memory", "system64"),
    params={"workload_seed": 9, "image_side": 48, "key_length": 4096},
    smoke_params={"image_side": 24, "key_length": 1024},
)
def ablation_cache(workload_seed: int, image_side: int, key_length: int) -> ScenarioResult:
    from dataclasses import dataclass

    system, _ = build_rig64()
    image = grayscale_image(image_side, image_side, seed=workload_seed)
    key = random_key(key_length, seed=workload_seed)

    @dataclass
    class UncachedFacade:
        """System facade forcing the uncached access path."""

        cpu: object
        ext_mem: MemoryArray
        ext_mem_base: int
        ext_mem_cacheable: bool = False

    cached_b = SwBrightness(30).run(system, image).elapsed_ps
    cached_h = SwJenkinsHash().run(system, key).elapsed_ps
    uncached = UncachedFacade(
        cpu=system.cpu, ext_mem=system.ext_mem, ext_mem_base=system.ext_mem_base
    )
    uncached_b = SwBrightness(30).run(uncached, image).elapsed_ps
    uncached_h = SwJenkinsHash().run(uncached, key).elapsed_ps

    rows = [
        [f"brightness {image_side}x{image_side}", cached_b / 1e6, uncached_b / 1e6,
         uncached_b / cached_b],
        [f"lookup2 {key_length} B", cached_h / 1e6, uncached_h / 1e6,
         uncached_h / cached_h],
    ]
    return ScenarioResult(
        name="ablation_cache",
        title="Ablation: cacheable DDR vs uncached access (64-bit system, software tasks)",
        headers=["task", "cached (us)", "uncached (us)", "slowdown"],
        rows=rows,
    )


def _fifo_ns_per_word(depth: int, words: int) -> float:
    plb = make_plb(ClockDomain("bus", mhz(100)))
    memory = MemoryArray(1 << 20)
    plb.attach(DdrController(memory, 0, "ddr"), 0, 1 << 20, name="ddr")
    dock = PlbDock(DOCK_BASE, fifo_depth=depth)
    plb.attach(dock, DOCK_BASE, 0x1_0000, name="dock", posted_writes=True)
    dock.connect_bus(plb)
    dock.attach_kernel(LoopbackKernel())
    cursor = 0
    remaining = words
    src, dst = 0x0, 0x8_0000
    while remaining:
        chunk = min(remaining, depth)
        cursor = dock.dma_write_block(cursor, src, chunk)
        cursor, drained = dock.dma_drain_fifo(cursor, dst)
        src += chunk * 8
        dst += drained * 8
        remaining -= chunk
    return cursor / words / 1000.0  # ns per 64-bit word round trip


@scenario(
    "ablation_fifo",
    title="Ablation: output-FIFO depth vs block-interleaved DMA time",
    tags=("ablation", "dma", "fifo"),
    params={"depths": (16, 64, 256, 1024, 2047, 4096), "words": 8192},
    smoke_params={"depths": (16, 2047), "words": 2048},
)
def ablation_fifo(depths: Sequence[int], words: int) -> ScenarioResult:
    rows = [[d, _fifo_ns_per_word(d, words)] for d in depths]
    return ScenarioResult(
        name="ablation_fifo",
        title="Ablation: output-FIFO depth vs block-interleaved DMA time "
        f"({words} x 64-bit words)",
        headers=["FIFO depth", "ns per word (out + back)"],
        rows=rows,
    )


@scenario(
    "ablation_irq_vs_poll",
    title="Ablation: DMA completion handling",
    tags=("ablation", "dma", "system64"),
    params={"words": 4096, "compute_cycles": 25_000},
    smoke_params={"words": 1024, "compute_cycles": 6_000},
)
def ablation_irq_vs_poll(words: int, compute_cycles: int) -> ScenarioResult:
    system, _ = build_rig64()
    bench = TransferBench(system)
    irq = bench.dma_write_overlapped(words, compute_cycles=compute_cycles)
    polled = bench.dma_write_polled(words)
    rows = [
        ["interrupt + overlapped compute", irq.total_ps / 1e6, irq.compute_ps / 1e6,
         f"{irq.overlap_efficiency:.2f}", irq.polls],
        ["polled status register", polled.total_ps / 1e6, polled.compute_ps / 1e6,
         "-", polled.polls],
    ]
    return ScenarioResult(
        name="ablation_irq_vs_poll",
        title=f"Ablation: DMA completion handling ({words} x 64-bit words)",
        headers=["mode", "total (us)", "useful CPU work (us)", "overlap efficiency", "polls"],
        rows=rows,
        headline={
            "overlap_efficiency": irq.overlap_efficiency,
            "irq_compute_ps": irq.compute_ps,
            "polled_compute_ps": polled.compute_ps,
            "irq_dma_ps": irq.dma_ps,
            "polled_dma_ps": polled.dma_ps,
        },
        stats=system_stats(system),
    )


@scenario(
    "ablation_keydist",
    title="Ablation: key-length distribution vs lookup2 offload",
    tags=("ablation", "apps", "system32"),
    params={
        "zipf_keys": 64,
        "zipf_max_length": 256,
        "short_keys": 64,
        "short_length": 64,
        "long_keys": 16,
        "long_length": 4096,
        "workload_seed": 12,
    },
    smoke_params={"zipf_keys": 16, "short_keys": 16, "long_keys": 4},
)
def ablation_keydist(
    zipf_keys: int,
    zipf_max_length: int,
    short_keys: int,
    short_length: int,
    long_keys: int,
    long_length: int,
    workload_seed: int,
) -> ScenarioResult:
    system, manager = build_rig32()
    manager.load("lookup2")
    hw_driver = HwJenkinsHash()
    sw_task = SwJenkinsHash()
    rows = []
    for label, keys in (
        ("zipf (hash-table mix)",
         zipf_key_batch(zipf_keys, max_length=zipf_max_length, seed=workload_seed)),
        (f"fixed {short_length} B", key_batch(short_keys, short_length, seed=workload_seed)),
        (f"fixed {long_length} B", key_batch(long_keys, long_length, seed=workload_seed)),
    ):
        hw_ps = sw_ps = 0
        for key in keys:
            hw = hw_driver.run(system, key)
            sw = sw_task.run(system, key)
            require(hw.result == sw.result, f"lookup2 hw/sw divergence in {label!r} mix")
            hw_ps += hw.elapsed_ps
            sw_ps += sw.elapsed_ps
        mean_len = float(np.mean([len(k) for k in keys]))
        rows.append([label, len(keys), mean_len, sw_ps / 1e6, hw_ps / 1e6, sw_ps / hw_ps])
    return ScenarioResult(
        name="ablation_keydist",
        title="Ablation: key-length distribution vs lookup2 offload (32-bit system)",
        headers=["key mix", "keys", "mean bytes", "software (us)", "hardware (us)", "speedup"],
        rows=rows,
        stats=system_stats(system),
    )


def _posted_ns_per_write(posted: bool, n: int) -> float:
    plb = make_plb(ClockDomain("bus", mhz(100)))
    dock = PlbDock(DOCK_BASE)
    plb.attach(dock, DOCK_BASE, 0x1_0000, name="dock", posted_writes=posted)
    dock.attach_kernel(SinkKernel())
    cursor = 0
    for i in range(n):
        completion = plb.request(cursor, Transaction(Op.WRITE, DOCK_BASE, data=i))
        cursor = completion.master_free_ps
    return cursor / n / 1000.0  # ns per write, as seen by the master


@scenario(
    "ablation_posted",
    title="Ablation: posted vs non-posted dock writes",
    tags=("ablation", "bus", "dock"),
    params={"writes": 2048},
    smoke_params={"writes": 512},
)
def ablation_posted(writes: int) -> ScenarioResult:
    results = {
        "posted": _posted_ns_per_write(True, writes),
        "non-posted": _posted_ns_per_write(False, writes),
    }
    return ScenarioResult(
        name="ablation_posted",
        title="Ablation: posted vs non-posted dock writes (64-bit PLB dock)",
        headers=["mode", "ns per write (master-visible)"],
        rows=[[k, v] for k, v in results.items()],
        headline=dict(results),
    )
