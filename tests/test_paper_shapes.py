"""End-to-end checks of the paper's qualitative results (tables, ablations, figures).

These tests assert the *shape* of the evaluation — who wins, by roughly
what factor, where the crossovers are.  The first group drives the
drivers directly on reduced workload sizes; the table-driven group at the
end runs every table, ablation and figure scenario at its paper
parameters and applies that scenario's shape check.  ``repro sweep run
--tables DIR`` renders the same scenarios as text tables.
"""

import numpy as np
import pytest

from repro.core import TransferBench
from repro.core.apps import (
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
from repro.dock.opb_dock import OpbDock
from repro.dock.plb_dock import PlbDock
from repro.errors import ResourceError
from repro.kernels import Sha1Kernel
from repro.scenarios import run_scenario
from repro.sw import (
    SwBlend,
    SwBrightness,
    SwFade,
    SwJenkinsHash,
    SwPatternMatch,
    SwSha1,
)
from repro.workloads import binary_image, grayscale_image, random_key

IMG = (16, 40)
GRAY = (32, 32)
KEY_LEN = 1536


@pytest.fixture
def loaded32(system32, manager32):
    return system32, manager32


@pytest.fixture
def loaded64(system64, manager64):
    return system64, manager64


# -- Tables 2 / 7: CPU-controlled transfer times -------------------------------------

def test_table2_vs_table7_4_to_6x(system32, system64):
    bench32, bench64 = TransferBench(system32), TransferBench(system64)
    for method in ("pio_write_sequence", "pio_read_sequence", "pio_interleaved_sequence"):
        t32 = getattr(bench32, method)(1024).per_transfer_ns
        t64 = getattr(bench64, method)(1024).per_transfer_ns
        assert 4.0 <= t32 / t64 <= 6.0, method


# -- Table 8: DMA transfers -----------------------------------------------------------

def test_table8_dma_beats_pio_despite_double_width(system64):
    bench = TransferBench(system64)
    pio = bench.pio_write_sequence(1024).per_transfer_ns  # 32-bit words
    dma = bench.dma_write_sequence(1024).per_transfer_ns  # 64-bit words
    assert dma < pio / 2


def test_table8_interleaved_uses_block_interleaving(system64):
    bench = TransferBench(system64)
    result = bench.dma_interleaved_sequence(4096)  # > FIFO depth of 2047
    assert result.per_transfer_ns < bench.pio_interleaved_sequence(1024).per_transfer_ns


# -- Tables 3 / 9: pattern matching ----------------------------------------------------

def test_table3_speedup_over_26(loaded32, pattern):
    system, manager = loaded32
    manager.load("patmatch")
    image = binary_image(*IMG, seed=50)
    hw = HwPatternMatch().run(system, image)
    sw = SwPatternMatch(pattern).run(system, image)
    assert np.array_equal(hw.result, sw.result)
    assert sw.elapsed_ps / hw.elapsed_ps > 26


def test_table9_speedup_decreases_but_stays_large(loaded32, loaded64, pattern):
    image = binary_image(*IMG, seed=51)
    system32, manager32 = loaded32
    system64, manager64 = loaded64
    manager32.load("patmatch")
    manager64.load("patmatch")
    s32 = (
        SwPatternMatch(pattern).run(system32, image).elapsed_ps
        / HwPatternMatch().run(system32, image).elapsed_ps
    )
    s64 = (
        SwPatternMatch(pattern).run(system64, image).elapsed_ps
        / HwPatternMatch().run(system64, image).elapsed_ps
    )
    # "a decrease in the hardware vs. software speedup is obtained ...
    #  The hardware implementations still maintain a considerable
    #  performance advantage."
    assert s64 < s32
    assert s64 > 8


def test_table9_software_benefits_more_from_memory(loaded32, loaded64, pattern):
    image = binary_image(*IMG, seed=52)
    sw32 = SwPatternMatch(pattern).run(loaded32[0], image).elapsed_ps
    sw64 = SwPatternMatch(pattern).run(loaded64[0], image).elapsed_ps
    assert sw32 / sw64 > 2.5  # more than the 1.5x clock alone


# -- Tables 4 / 10: lookup2 hash ---------------------------------------------------------

def test_table4_speedup_much_more_modest(loaded32):
    system, manager = loaded32
    manager.load("lookup2")
    key = random_key(KEY_LEN, seed=53)
    hw = HwJenkinsHash().run(system, key)
    sw = SwJenkinsHash().run(system, key)
    assert hw.result == sw.result
    speedup = sw.elapsed_ps / hw.elapsed_ps
    assert 0.8 < speedup < 1.8  # "much more modest" than 26x


def test_table10_slightly_better_speedup(loaded32, loaded64):
    key = random_key(KEY_LEN, seed=54)
    s = {}
    for label, (system, manager) in (("32", loaded32), ("64", loaded64)):
        manager.load("lookup2")
        hw = HwJenkinsHash().run(system, key)
        sw = SwJenkinsHash().run(system, key)
        s[label] = sw.elapsed_ps / hw.elapsed_ps
    assert s["64"] > s["32"]
    assert s["64"] < 2.5  # still transfer-limited, not a blowout


# -- Table 11: SHA-1 -------------------------------------------------------------------

def test_table11_sha1_does_not_fit_32bit(manager32):
    with pytest.raises(ResourceError):
        manager32.register(Sha1Kernel())


def test_table11_sha1_considerable_gain_on_64bit(loaded64):
    system, manager = loaded64
    manager.load("sha1")
    message = random_key(2048, seed=55)
    hw = HwSha1().run(system, message)
    sw = SwSha1().run(system, message)
    assert hw.result == sw.result
    assert sw.elapsed_ps / hw.elapsed_ps > 2


def test_table11_sw_overhead_shrinks_with_size(system64):
    per_byte = []
    for n in (64, 512, 8192):
        result = SwSha1().run(system64, random_key(n, seed=56))
        per_byte.append(result.elapsed_ps / n)
    assert per_byte[0] > per_byte[1] > per_byte[2]


# -- Tables 5 / 12: image processing ------------------------------------------------------

def _image_speedups(system, manager, drivers):
    a = grayscale_image(*GRAY, seed=57)
    b = grayscale_image(*GRAY, seed=58)
    out = {}
    manager.load("brightness")
    hw = drivers[0]().run(system, a)
    sw = SwBrightness(32).run(system, a)
    assert np.array_equal(hw.result, sw.result)
    out["brightness"] = sw.elapsed_ps / hw.elapsed_ps
    manager.load("blend")
    hw = drivers[1]().run(system, a, b)
    sw = SwBlend().run(system, a, b)
    assert np.array_equal(hw.result, sw.result)
    out["blend"] = sw.elapsed_ps / hw.elapsed_ps
    out["blend_prep"] = hw.breakdown["data_preparation_ps"]
    manager.load("fade")
    hw = drivers[2]().run(system, a, b)
    sw = SwFade(0.5).run(system, a, b)
    assert np.array_equal(hw.result, sw.result)
    out["fade"] = sw.elapsed_ps / hw.elapsed_ps
    return out


def test_table5_image_speedups(loaded32):
    system, manager = loaded32
    s = _image_speedups(system, manager, (HwBrightnessPio, HwBlendPio, HwFadePio))
    # All hardware versions win; the two-source tasks win less, with blend
    # (the simpler operation) benefiting least.
    assert s["brightness"] > 1.5
    assert 1.0 < s["blend"] < s["fade"] <= s["brightness"] * 1.05
    assert s["blend_prep"] > 0


def test_table12_image_speedups(loaded32, loaded64):
    s32 = _image_speedups(
        loaded32[0], loaded32[1], (HwBrightnessPio, HwBlendPio, HwFadePio)
    )
    s64 = _image_speedups(
        loaded64[0], loaded64[1], (HwBrightnessDma, HwBlendDma, HwFadeDma)
    )
    # "For the first task, there is a clear increase of the speedup"
    assert s64["brightness"] > 2 * s32["brightness"]
    # "The other tasks show a significantly smaller speedup increase"
    assert s64["blend"] >= s32["blend"] * 0.95
    assert s64["fade"] >= s32["fade"]
    blend_gain = s64["blend"] / s32["blend"]
    bright_gain = s64["brightness"] / s32["brightness"]
    assert blend_gain < bright_gain / 1.5
    # Data preparation is charged on the DMA path.
    assert s64["blend_prep"] > 0


# -- Tables 1 / 6: resource usage ------------------------------------------------------------

def test_table1_table6_resource_inventories(system32, system64):
    static32 = system32.static_resources()
    static64 = system64.static_resources()
    # The second design's permanent circuits are larger and more complex.
    assert static64.slices > static32.slices
    # Both leave the dynamic region free.
    for system, static in ((system32, static32), (system64, static64)):
        assert static.fits_within(system.device.capacity - system.region.resources)


# -- Every table, ablation and figure scenario at its paper parameters -----------------

#: Scenario name -> check applied to its :class:`ScenarioResult`.
SHAPES = {}


def _shape(name):
    def register(check):
        SHAPES[name] = check
        return check

    return register


@_shape("table01_resources32")
def _table01(result):
    h = result.headline
    assert h["static_slices"] + h["region_slices"] <= h["device_slices"]
    assert h["region_slices"] == 1232
    assert h["region_bram"] == 6


@_shape("table02_transfers32")
def _table02(result):
    # All sub-microsecond-ish, pair ~ write + read, stable over n.
    rows = result.rows
    for n, w, r, wr in rows:
        assert 100 < w < 2_000
        assert 100 < r < 2_000
        assert 0.7 * (w + r) < wr < 1.3 * (w + r)
    assert abs(rows[0][1] - rows[-1][1]) / rows[-1][1] < 0.1


@_shape("table03_patmatch32")
def _table03(result):
    for row in result.rows:
        assert row[-1] > 26  # "speedup factors of more than 26"


@_shape("table04_hash32")
def _table04(result):
    for row in result.rows[1:]:  # small keys dominated by per-call overheads
        assert 0.8 < row[-1] < 1.8  # much more modest than 26x


@_shape("table05_image32")
def _table05(result):
    speedups = {row[0]: row[-1] for row in result.rows}
    assert all(s > 1 for s in speedups.values())
    # Blend (the simpler two-source op) benefits least.
    assert speedups["additive blending"] < speedups["fade effect"]
    assert speedups["additive blending"] < speedups["brightness"]


@_shape("table06_resources64")
def _table06(result):
    assert PlbDock.RESOURCES.slices > OpbDock.RESOURCES.slices
    h = result.headline
    assert h["static_slices"] > 0
    assert h["region_slices"] == 3072
    assert h["region_bram"] == 22


@_shape("table07_transfers64_pio")
def _table07(result):
    # "A decrease in transfer time between 4 and 6 times, depending on the
    #  transfer type, can be observed."
    for label, t64, t32, ratio in result.rows:
        assert 4.0 <= ratio <= 6.0, label


@_shape("table08_transfers64_dma")
def _table08(result):
    rows = result.rows
    pio = result.headline["pio_write_ns"]
    for n, w, r, wr in rows:
        # Each DMA transfer moves 64 bits yet is far cheaper than a 32-bit
        # PIO transfer — the whole reason the PLB Dock grew a DMA engine.
        assert w < pio / 2
        assert wr < 2.5 * (w + r)
    # Longer sequences amortise setup: per-transfer time must not grow.
    assert rows[-1][1] <= rows[0][1] * 1.05


@_shape("table09_patmatch64")
def _table09(result):
    for row in result.rows:  # [..., speedup64, speedup32]
        assert row[-2] < row[-1]  # decreased speedup
        assert row[-2] > 8  # "still ... a considerable performance advantage"


@_shape("table10_hash64")
def _table10(result):
    for row in result.rows[1:]:  # [..., speedup64, speedup32]
        assert row[-2] > row[-1]  # slightly better speedup
        assert row[-2] < 2.5  # ... but still transfer-limited


@_shape("table11_sha1")
def _table11(result):
    # "Our implementation does not fit into the dynamic area of the 32-bit
    #  system, so no comparison can be done."
    assert result.headline["sha1_rejected_on_32bit"] is True
    rows = result.rows
    for row in rows:
        assert row[-1] > 2  # "a considerable performance gain"
    # Software per-byte cost falls as the per-call overhead amortises.
    per_byte = [row[1] / row[0] for row in rows]
    assert per_byte[0] > per_byte[-1]


@_shape("table12_image64")
def _table12(result):
    # rows: [task, sw, hw, prep, speedup64, speedup32]
    s64 = {row[0]: row[-2] for row in result.rows}
    s32 = {row[0]: row[-1] for row in result.rows}
    # "a clear increase of the speedup" for brightness...
    assert s64["brightness"] > 2 * s32["brightness"]
    # ...and a significantly smaller increase for the two-source tasks.
    for task in ("additive blending", "fade effect"):
        assert s64[task] >= s32[task] * 0.95
        assert s64[task] / s32[task] < (s64["brightness"] / s32["brightness"]) / 1.5
    # Data preparation appears only for the two-source tasks.
    prep = {row[0]: row[3] for row in result.rows}
    assert prep["brightness"] == 0.0
    assert prep["additive blending"] > 0
    assert prep["fade effect"] > 0


@_shape("ablation_amortization")
def _amortization(result):
    values = {row[0]: row[4] for row in result.rows}
    # Pattern matching amortises in very few runs; the hash, with its ~1x
    # speedup, effectively never does.
    assert float(values["patmatch"]) < 15
    assert values["lookup2"] == "never" or float(values["lookup2"]) > 500


@_shape("ablation_bitlinker")
def _bitlinker(result):
    # Complete streams are state-independent but bigger and slower to load.
    h = result.headline
    assert h["differential_words"] < h["complete_words"]
    assert h["differential_ps"] < h["complete_ps"]
    assert h["complete_kind"] == "partial-complete"
    assert h["differential_kind"] == "partial-differential"


@_shape("ablation_boot")
def _boot(result):
    h = result.headline
    # The external port is much faster per byte...
    assert h["bandwidth_ratio"] > 3
    # ...and the full image is bigger than the partial one...
    assert h["boot_bytes"] > h["partial_bytes"]
    # ...but only the partial path leaves the system running.
    assert h["partial_keeps_system_alive"]
    assert h["boot_destroys_system_state"]


@_shape("ablation_bridge")
def _bridge(result):
    results = result.headline
    # Reads pay the full store-and-forward round trip ...
    assert results["bridged read"] > results["direct OPB read"] * 1.5
    # ... while the bridge's write buffer hides the crossing from the master
    # (sustained streams are still OPB-rate-limited; see the bridge tests).
    assert results["bridged write (posted)"] <= results["direct OPB write"]


@_shape("ablation_burst")
def _burst(result):
    times = {burst: ns for burst, ns in result.rows}
    # Monotone improvement with burst length, and >2x from 1 to 16.
    ordered = [times[b] for b in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
    assert times[1] > 2 * times[16]


@_shape("ablation_busmacro")
def _busmacro(result):
    for width, lut_slices, tri_slices, tbufs, ratio in result.rows:
        assert lut_slices < tri_slices  # the paper's reason for LUT macros
        assert tbufs == 2 * width


@_shape("ablation_cache")
def _cache(result):
    for row in result.rows:
        assert row[-1] > 1.5  # uncached software pays dearly


@_shape("ablation_fifo")
def _fifo(result):
    times = {depth: ns for depth, ns in result.rows}
    assert times[16] > times[2047]  # tiny FIFOs pay per-block overhead
    # The paper's 2047 sits on the plateau: quadrupling it gains <2%.
    assert abs(times[4096] - times[2047]) / times[2047] < 0.02


@_shape("ablation_irq_vs_poll")
def _irq_vs_poll(result):
    h = result.headline
    # Interrupt mode hides the CPU work almost entirely behind the DMA.
    assert h["overlap_efficiency"] > 0.9
    assert h["irq_compute_ps"] > 0
    # Polling gets no useful work done during the transfer.
    assert h["polled_compute_ps"] == 0
    # Both finish in about the DMA time (the transfer itself is unchanged).
    assert abs(h["polled_dma_ps"] - h["irq_dma_ps"]) / h["irq_dma_ps"] < 0.1


@_shape("ablation_keydist")
def _keydist(result):
    speedups = {row[0]: row[-1] for row in result.rows}
    # Per-key overhead sinks the short-key mixes below the long-key case.
    assert speedups["zipf (hash-table mix)"] < speedups["fixed 4096 B"]
    assert speedups["fixed 64 B"] < speedups["fixed 4096 B"]


@_shape("ablation_posted")
def _posted(result):
    assert result.headline["posted"] < result.headline["non-posted"]


@_shape("fig1_generic_architecture")
def _fig1(result):
    for unit in ("CPU", "memory interface", "configuration", "external comm", "dynamic"):
        assert unit in result.text


@_shape("fig2_bus_macros")
def _fig2(result):
    art = result.text
    # The figure's signals: In(0)/In(1) leave A, Out(0)/Out(1) enter B.
    assert "In(0)" in art and "In(1)" in art
    assert "Out(0)" in art and "Out(1)" in art
    assert "designed separately" in art


@_shape("fig3_system32_floorplan")
def _fig3(result):
    art = result.text
    assert "XC2VP7" in art
    assert "CPU 200 MHz" in art
    assert "OpbDock" in art
    assert "DYNAMIC AREA 28x11" in art


@_shape("fig4_system64_floorplan")
def _fig4(result):
    art = result.text
    assert "XC2VP30" in art
    assert "CPU 300 MHz" in art
    assert "PlbDock" in art
    assert "DYNAMIC AREA 32x24" in art


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_scenario_matches_paper_shape(name):
    SHAPES[name](run_scenario(name))
