"""Design-space exploration scenarios: one platform candidate per run.

The explorer (:mod:`repro.dse`) treats the platform itself — bus clock,
bridge latency, dock FIFO depth, DMA burst length, dynamic-region
geometry, scrub period, verify sampling — as the variable, and these
three scenarios as the measurement instruments.  Each is an ordinary
registry scenario (pure, deterministic, cacheable), so every candidate
evaluation is a cached parallel sweep run and repeat generations of a
search are nearly free.

Importantly this module must stay importable without :mod:`repro.dse`
or :mod:`repro.sweep`: the scenarios are leaves of the dependency
fingerprint, the orchestration layers sit above them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..bus.bridge import PlbOpbBridge
from ..bus.opb import make_opb
from ..bus.plb import make_plb
from ..core import memmap
from ..core.reconfig import ReconfigManager
from ..core.system import System
from ..core.system32 import BRIDGE_RESOURCES, OPB_INFRA, PLB_INFRA
from ..core.transfer import TransferBench
from ..dock.plb_dock import PlbDock
from ..engine.clock import ClockDomain, mhz
from ..fabric.config_memory import ConfigMemory
from ..fabric.device import XC2VP30
from ..fabric.region import find_region
from ..fabric.resources import ResourceVector
from ..kernels import BrightnessKernel, JenkinsHashKernel
from ..mem.controllers import BramController, DdrController
from ..mem.memory import MemoryArray
from ..periph.hwicap import OpbHwIcap
from ..periph.intc import InterruptController
from ..periph.jtagppc import JtagPpc
from ..periph.reset import ResetBlock
from ..periph.uart import Uart
from .registry import derive_seed, scenario
from .result import ScenarioResult, require, system_stats

#: Paper baseline values for every platform axis (the 64-bit system).
BASELINE = {
    "bus_mhz": 100,
    "bridge_cycles": 2,
    "fifo_depth": 2047,
    "burst_beats": 16,
    "region_cols": 32,
    "region_rows": 24,
}

#: Image-task constant shared with the table scenarios.
BRIGHTNESS_CONSTANT = 48

#: Interrupt line the PLB Dock drives (as in the paper system).
DOCK_IRQ_SOURCE = 0


def build_dse_rig(
    bus_mhz: int = BASELINE["bus_mhz"],
    bridge_cycles: int = BASELINE["bridge_cycles"],
    fifo_depth: int = BASELINE["fifo_depth"],
    burst_beats: int = BASELINE["burst_beats"],
    region_cols: int = BASELINE["region_cols"],
    region_rows: int = BASELINE["region_rows"],
) -> Tuple[System, ReconfigManager]:
    """A parameterized variant of the paper's 64-bit system.

    Same topology as :func:`repro.core.build_system64` — DDR and the PLB
    Dock on the 64-bit PLB, peripherals behind the bridge on the OPB —
    but with the platform knobs exposed.  Registers the two kernels that
    fit every legal region geometry (brightness and lookup2), so all
    candidates run the identical workload.
    """
    require(bus_mhz > 0, f"bus_mhz must be positive, got {bus_mhz}")
    require(bridge_cycles >= 1, f"bridge_cycles must be >= 1, got {bridge_cycles}")
    require(fifo_depth >= 1, f"fifo_depth must be >= 1, got {fifo_depth}")
    require(burst_beats >= 1, f"burst_beats must be >= 1, got {burst_beats}")

    device = XC2VP30
    region = find_region(device, region_cols, region_rows, name="dynamic_dse")

    cpu_clock = ClockDomain("cpu", mhz(300))
    bus_clock = ClockDomain("bus", mhz(bus_mhz))
    plb = make_plb(bus_clock, name="plb_dse")
    plb.max_burst_beats = burst_beats
    opb = make_opb(bus_clock, name="opb_dse")

    ddr = MemoryArray(memmap.DDR_SIZE, name="ext_ddr")
    bram = MemoryArray(memmap.BRAM_SIZE, name="ocm_bram")
    ddr_ctrl = DdrController(ddr, memmap.EXT_MEM_BASE, name="plb_ddr")
    bram_ctrl = BramController(bram, memmap.BRAM_BASE, name="plb_bram")

    config_memory = ConfigMemory(device)  # replaced by System.__init__
    hwicap = OpbHwIcap(config_memory, memmap.HWICAP_BASE)
    uart = Uart(memmap.UART_BASE)
    intc = InterruptController(memmap.INTC_BASE)
    dock = PlbDock(memmap.DOCK_BASE, fifo_depth=fifo_depth)
    jtag = JtagPpc()
    reset_block = ResetBlock()

    opb.attach(hwicap, memmap.HWICAP_BASE, memmap.HWICAP_SIZE, name="opb_hwicap")
    opb.attach(uart, memmap.UART_BASE, memmap.UART_SIZE, name="opb_uart")
    opb.attach(intc, memmap.INTC_BASE, memmap.INTC_SIZE, name="opb_intc")

    bridge = PlbOpbBridge(plb, opb)
    # Instance-level override of the class-attribute latency (the model
    # reads them through ``self``), keeping the forward:return ratio.
    bridge.FORWARD_CYCLES = bridge_cycles
    bridge.RETURN_CYCLES = max(1, bridge_cycles // 2)
    plb.attach(ddr_ctrl, memmap.EXT_MEM_BASE, memmap.DDR_SIZE, name="plb_ddr", posted_writes=True)
    plb.attach(bram_ctrl, memmap.BRAM_BASE, memmap.BRAM_SIZE, name="plb_bram")
    plb.attach(dock, memmap.DOCK_BASE, memmap.DOCK_SIZE, name="plb_dock", posted_writes=True)
    plb.attach(
        bridge,
        memmap.BRIDGE64_IO_BASE,
        memmap.BRIDGE64_IO_SIZE,
        name="bridge[io]",
        posted_writes=True,
    )
    dock.connect_bus(plb)
    dock.connect_interrupts(intc, DOCK_IRQ_SOURCE)

    system = System(
        name="system_dse",
        device=device,
        region=region,
        cpu_clock=cpu_clock,
        plb=plb,
        opb=opb,
        bridge=bridge,
        ext_mem=ddr,
        ext_mem_base=memmap.EXT_MEM_BASE,
        ext_mem_cacheable=True,
        bram_mem=bram,
        dock=dock,
        hwicap=hwicap,
        uart=uart,
        jtag=jtag,
        reset_block=reset_block,
        bus_width=64,
    )
    system.cpu.add_cacheable(memmap.EXT_MEM_BASE, memmap.DDR_SIZE, ddr)
    system.cpu.add_cacheable(memmap.BRAM_BASE, memmap.BRAM_SIZE, bram)
    system.extras["intc"] = intc
    intc.enabled = 1 << DOCK_IRQ_SOURCE

    system.add_module("PPC405 core (1 of 2)", ResourceVector(), "hard", "second core unused")
    system.add_module("JTAGPPC", jtag.RESOURCES, "hard", "debug/data channel")
    system.add_module("PLB infrastructure", PLB_INFRA, "plb", "64-bit bus + arbiter")
    system.add_module("PLB DDR controller", DdrController.RESOURCES, "plb", "external DDR")
    system.add_module("PLB BRAM controller", BramController.RESOURCES, "plb", "on-chip memory")
    system.add_module("PLB Dock", PlbDock.RESOURCES, "plb", "DMA + FIFO + interrupts")
    system.add_module("PLB-OPB bridge", BRIDGE_RESOURCES, "plb", "peripheral access")
    system.add_module("OPB infrastructure", OPB_INFRA, "opb", "32-bit bus + arbiter")
    system.add_module("OPB UART", Uart.RESOURCES, "opb", "external communication")
    system.add_module("OPB INTC", InterruptController.RESOURCES, "opb", "DMA completion IRQs")
    system.add_module("OPB HWICAP", OpbHwIcap.RESOURCES, "opb", "configuration control")
    system.add_module("Reset block", ResetBlock.RESOURCES, "-", "CPU/peripheral reset")
    system.validate()

    manager = ReconfigManager(system)
    manager.register(BrightnessKernel(BRIGHTNESS_CONSTANT))
    manager.register(JenkinsHashKernel())
    return system, manager


@scenario(
    "dse_throughput",
    title="DSE probe: DMA streaming throughput of one platform candidate",
    tags=("dse", "perf", "system64"),
    params={
        "bus_mhz": BASELINE["bus_mhz"],
        "fifo_depth": BASELINE["fifo_depth"],
        "burst_beats": BASELINE["burst_beats"],
        "words": 16384,
    },
    smoke_params={"words": 4096},
)
def dse_throughput(
    bus_mhz: int, fifo_depth: int, burst_beats: int, words: int
) -> ScenarioResult:
    # Region geometry and bridge latency are deliberately NOT parameters
    # here: the DMA datapath never touches either, so projecting them out
    # lets candidates that differ only in those axes share a cache entry.
    system, _ = build_dse_rig(
        bus_mhz=bus_mhz, fifo_depth=fifo_depth, burst_beats=burst_beats
    )
    bench = TransferBench(system)
    write = bench.dma_write_sequence(words)
    read = bench.dma_read_sequence(words)
    interleaved = bench.dma_interleaved_sequence(words)
    require(interleaved.total_ps > 0, "interleaved transfer took no simulated time")
    throughput_mwps = words * 1e6 / interleaved.total_ps
    rows: List[List[object]] = [
        [r.label, r.transfers, r.word_bits, r.total_ps / 1e6,
         r.transfers * 1e6 / r.total_ps]
        for r in (write, read, interleaved)
    ]
    return ScenarioResult(
        name="dse_throughput",
        title=(
            f"DSE throughput probe: {words} x 64-bit words, bus {bus_mhz} MHz, "
            f"FIFO {fifo_depth}, bursts of {burst_beats}"
        ),
        headers=["sequence", "words", "width", "time (us)", "Mwords/s"],
        rows=rows,
        headline={
            "throughput_mwps": throughput_mwps,
            "write_ps": write.total_ps,
            "read_ps": read.total_ps,
            "interleaved_ps": interleaved.total_ps,
            "words": words,
        },
        stats=system_stats(system),
    )


@scenario(
    "dse_reconfig",
    title="DSE probe: reconfiguration overhead of one platform candidate",
    tags=("dse", "reconfig", "system64"),
    params={
        "bus_mhz": BASELINE["bus_mhz"],
        "bridge_cycles": BASELINE["bridge_cycles"],
        "region_cols": BASELINE["region_cols"],
        "region_rows": BASELINE["region_rows"],
        "verify_samples": 8,
    },
)
def dse_reconfig(
    bus_mhz: int,
    bridge_cycles: int,
    region_cols: int,
    region_rows: int,
    verify_samples: int,
) -> ScenarioResult:
    # FIFO depth and burst length never touch the ICAP path (single-word
    # writes through the bridge), so they are projected out; see above.
    _, manager = build_dse_rig(
        bus_mhz=bus_mhz,
        bridge_cycles=bridge_cycles,
        region_cols=region_cols,
        region_rows=region_rows,
    )
    load = manager.load("brightness", verify=True, verify_samples=verify_samples)
    swap = manager.load("lookup2", differential=True)
    clear = manager.clear()
    overhead_ps = load.elapsed_ps + swap.elapsed_ps + clear.elapsed_ps
    rows = [
        ["complete load (verified)", load.frame_count, load.word_count,
         load.elapsed_ps / 1e9, load.frames_verified],
        ["differential swap", swap.frame_count, swap.word_count,
         swap.elapsed_ps / 1e9, swap.frames_verified],
        ["clear", clear.frame_count, clear.word_count,
         clear.elapsed_ps / 1e9, clear.frames_verified],
    ]
    return ScenarioResult(
        name="dse_reconfig",
        title=(
            f"DSE reconfiguration probe: {region_cols}x{region_rows} region, "
            f"bus {bus_mhz} MHz, bridge {bridge_cycles} cyc, "
            f"{verify_samples} verify sample(s)"
        ),
        headers=["phase", "frames", "words", "time (ms)", "frames verified"],
        rows=rows,
        headline={
            "overhead_ps": overhead_ps,
            "complete_ps": load.elapsed_ps,
            "differential_ps": swap.elapsed_ps,
            "clear_ps": clear.elapsed_ps,
            "verify_ps": load.verify_ps,
            "frame_count": load.frame_count,
            "frames_verified": load.frames_verified,
        },
    )


def _verify_indices(count: int, samples: int) -> List[int]:
    """The loader's evenly spaced verify sample, mirrored locally.

    Must match :meth:`ReconfigManager._sample_indices` — the recovery
    model below asks "would a verified reload have touched the struck
    frame?", and that is exactly the loader's sampling pattern.
    """
    if samples >= count:
        return list(range(count))
    return [int(i) for i in np.linspace(0, count - 1, num=int(samples))]


@scenario(
    "dse_recovery",
    title="DSE probe: upset recovery rate of one platform candidate",
    tags=("dse", "faults", "system64"),
    params={
        "region_cols": BASELINE["region_cols"],
        "region_rows": BASELINE["region_rows"],
        "scrub_period_us": 200,
        "verify_samples": 8,
        "trials": 24,
        "use_window_us": 400,
        "seed": 2006,
    },
    smoke_params={"trials": 6},
)
def dse_recovery(
    region_cols: int,
    region_rows: int,
    scrub_period_us: int,
    verify_samples: int,
    trials: int,
    use_window_us: int,
    seed: int,
) -> ScenarioResult:
    """Race a periodic scrubber against kernel use after a random upset.

    Each trial strikes one written frame of the loaded kernel, then asks
    which fires first: the next scrub boundary (uniform phase within the
    scrub period) or the next use of the kernel (uniform within the use
    window).  Scrub first -> repaired before the corruption matters.
    Use first -> the fault is caught only if a verified reload's sample
    pattern covers the struck frame.  Either way the frame is then
    scrub-repaired against the golden snapshot so trials stay i.i.d.

    The rate therefore responds to the scrub period, the verify sampling
    density and the region geometry (more frames dilute the sample) —
    the three reliability axes of the design space.
    """
    require(trials >= 1, f"trials must be >= 1, got {trials}")
    require(scrub_period_us >= 1, f"scrub_period_us must be >= 1, got {scrub_period_us}")
    require(use_window_us >= 1, f"use_window_us must be >= 1, got {use_window_us}")
    system, manager = build_dse_rig(region_cols=region_cols, region_rows=region_rows)
    manager.load("brightness")
    manager.mark_golden()
    golden = system.config_memory.snapshot()
    addresses = list(golden)
    written = golden.written_rows()
    require(bool(addresses), "loaded kernel wrote no frames")
    sampled = set(_verify_indices(len(addresses), verify_samples))

    rows: List[List[object]] = []
    outcomes = {"scrub": 0, "verify": 0, "undetected": 0}
    repair_ps_total = 0
    exposure_us_total = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, f"dse_recovery:{trial}"))
        index = int(rng.integers(len(addresses)))
        address = addresses[index]
        flips = system.config_memory.inject_upset(rng, flips=1, rows=written[index : index + 1])
        require(len(flips) == 1, "expected exactly one injected upset")
        scrub_in_us = float(rng.uniform(0.0, float(scrub_period_us)))
        use_in_us = float(rng.uniform(0.0, float(use_window_us)))
        if scrub_in_us <= use_in_us:
            detection = "scrub"
            exposure_us = scrub_in_us
        elif index in sampled:
            detection = "verify"
            exposure_us = use_in_us
        else:
            detection = "undetected"
            exposure_us = float(use_window_us)
        outcomes[detection] += 1
        exposure_us_total += exposure_us
        # Repair the struck frame (targeted scrub against the golden copy)
        # regardless of detection, so the next trial starts clean; only
        # detected trials count the repair as a recovery.
        report = manager.scrub(reference={address: golden[address]})
        require(
            report.frames_repaired == 1,
            f"targeted scrub repaired {report.frames_repaired} frame(s), expected 1",
        )
        repair_ps_total += report.elapsed_ps
        rows.append(
            [
                trial,
                index,
                round(scrub_in_us, 3),
                round(use_in_us, 3),
                detection,
                "yes" if detection != "undetected" else "no",
                report.elapsed_ps / 1e6,
            ]
        )
    recovered = outcomes["scrub"] + outcomes["verify"]
    return ScenarioResult(
        name="dse_recovery",
        title=(
            f"DSE recovery probe: {trials} upset trial(s), scrub every "
            f"{scrub_period_us} us, {verify_samples} verify sample(s), "
            f"{region_cols}x{region_rows} region"
        ),
        headers=[
            "trial",
            "frame",
            "scrub in (us)",
            "use in (us)",
            "detection",
            "recovered",
            "repair (us)",
        ],
        rows=rows,
        headline={
            "recovery_rate": recovered / trials,
            "scrub_detected": outcomes["scrub"],
            "verify_detected": outcomes["verify"],
            "undetected": outcomes["undetected"],
            "trials": trials,
            "frames": len(addresses),
            "mean_exposure_us": exposure_us_total / trials,
            "mean_repair_ps": repair_ps_total // trials,
        },
    )
