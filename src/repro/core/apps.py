"""Hardware-accelerated application drivers.

Each driver owns the software-visible protocol for one dynamic-area kernel:
staging data, programmed-I/O or DMA transfers, result collection — and
charges the CPU/bus models for every step, so the returned
:class:`RunResult` times are directly comparable with the software tasks'.

The drivers assume the kernel has already been configured into the region
(use :class:`repro.core.reconfig.ReconfigManager`); reconfiguration time is
reported separately, as in the paper.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..engine.batch import run_steady
from ..errors import KernelError, ReconfigurationError
from ..kernels.image_ops import FLUSH_OFFSET
from ..kernels.jenkins_hash import LENGTH_OFFSET as HASH_LENGTH_OFFSET
from ..kernels.jenkins_hash import key_to_words
from ..kernels.pattern_match import FLUSH_OFFSET as PM_FLUSH_OFFSET
from ..kernels.pattern_match import PatternMatchKernel
from ..kernels.sha1_core import FINALIZE_OFFSET as SHA_FINALIZE_OFFSET
from ..kernels.sha1_core import LENGTH_OFFSET as SHA_LENGTH_OFFSET
from ..kernels.sha1_core import REG_H
from ..sw.costmodel import RunResult, charge_word_reads, charge_word_writes
from . import memmap
from .system import System

#: Loop bookkeeping per PIO transfer in the driver loops.
LOOP_CYCLES = 4

#: Batchable-phase names the drivers declare to the steady-state compiler
#: (`repro.engine.batch.run_steady`).  Rigs opt systems in via
#: `repro.engine.batch.declare_phases`; on undeclared systems every loop
#: below runs the per-word reference path.  Phases nest: the
#: pattern-match strip loop (`pio-strip`) compiles as one phase whose
#: probed strips run the `pio-write` and `pio-read` phases inside, and
#: the data-cache sweeps each strip charges are watched state, so the
#: strip loop compiles once those sweeps hit a settled cache.
PHASE_PIO_WRITE = "pio-write"
PHASE_PIO_READ = "pio-read"
PHASE_PIO_STREAM = "pio-stream"
PHASE_PIO_PAIRED = "pio-paired"
PHASE_PIO_STRIP = "pio-strip"
PIO_PHASES = (
    PHASE_PIO_WRITE,
    PHASE_PIO_READ,
    PHASE_PIO_STREAM,
    PHASE_PIO_PAIRED,
    PHASE_PIO_STRIP,
)

#: Bulk feed/drain chunk: keeps a bounded output FIFO from seeing more
#: than its depth in flight at once while staying wide enough to amortize
#: the NumPy calls.
_BULK_CHUNK = 1024
#: CPU cost of interleaving one output-pixel's worth of two source images —
#: the paper's "data preparation".  The PIO path does it on the fly inside
#: the transfer loop (masks/shifts around each store); the DMA path runs a
#: dedicated rlwimi-based word loop over the staging buffer, which is
#: tighter per pixel.
PREP_PIO_CYCLES_PER_PIXEL = 12
PREP_DMA_CYCLES_PER_PIXEL = 2


def _require_kernel(system: System, expected: str) -> None:
    kernel = system.dock.kernel
    if kernel is None or kernel.name != expected:
        raise ReconfigurationError(
            f"{system.name}: expected kernel {expected!r} in the dynamic area, "
            f"found {getattr(kernel, 'name', None)!r} — reconfigure first"
        )


def _write_words(system: System, words: List[int], offset: int = 0) -> None:
    """Programmed-I/O write loop (per-word timing, batch-compilable)."""
    base = system.dock.base + offset
    cpu = system.cpu
    dock = system.dock

    def step(i: int) -> None:
        cpu.io_write(base, words[i])
        cpu.execute_cycles(LOOP_CYCLES)

    def bulk(start: int, n: int) -> None:
        dock.feed_words(words[start : start + n], 32, offset)

    run_steady(system, len(words), step, bulk, phase=PHASE_PIO_WRITE)


def _read_words(system: System, count: int, offset: int = 0) -> List[int]:
    """Programmed-I/O read loop (per-word timing, batch-compilable)."""
    base = system.dock.base + offset
    cpu = system.cpu
    dock = system.dock
    out: List[int] = []

    def step(i: int) -> None:
        out.append(cpu.io_read(base))
        cpu.execute_cycles(LOOP_CYCLES)

    def bulk(start: int, n: int) -> None:
        out.extend(dock.drain_words(n, 32, offset))

    run_steady(system, count, step, bulk, phase=PHASE_PIO_READ)
    return out


class HwPatternMatch:
    """Pattern matching in the dynamic area (CPU-controlled transfers).

    The image is staged column-packed (one byte per strip column), so the
    CPU's inner loop is: load a word (4 or 8 columns), write it to the
    dock, and read back one packed-counts word per word written.
    """

    name = "pattern-match/hw"

    def run(self, system: System, image: np.ndarray) -> RunResult:
        _require_kernel(system, "patmatch")
        kernel: PatternMatchKernel = system.dock.kernel
        img = np.asarray(image).astype(bool)
        if img.shape[0] < 8 or img.shape[1] < 8:
            raise KernelError(f"image {img.shape} smaller than the pattern")
        strips = img.shape[0] - 7
        width = img.shape[1]
        positions = width - 7
        expect_words = (positions + 3) // 4
        columns = [
            key_to_words(bytes(PatternMatchKernel.strip_columns(img, strip)))
            for strip in range(strips)
        ]
        cpu = system.cpu
        dock = system.dock
        flush = dock.base + PM_FLUSH_OFFSET
        start = cpu.now_ps
        result_words: List[List[int]] = []

        def step(strip: int) -> None:
            kernel.reset()
            words = columns[strip]
            # The column words are loaded from external memory...
            charge_word_reads(system, memmap.STAGE_INPUT, len(words))
            # ...pushed through the dock...
            _write_words(system, words)
            cpu.io_write(flush, 0)
            # ...and the packed match counts read back and stored.
            result_words.append(_read_words(system, expect_words))
            charge_word_writes(system, memmap.STAGE_OUTPUT, expect_words)

        def bulk(first: int, n: int) -> None:
            for strip in range(first, first + n):
                kernel.reset()
                dock.feed_words(columns[strip], 32)
                dock.feed_words([0], 32, PM_FLUSH_OFFSET)
                result_words.append(dock.drain_words(expect_words, 32))

        run_steady(system, strips, step, bulk, phase=PHASE_PIO_STRIP)
        counts = np.array(result_words, dtype="<u4").view(np.uint8)
        result = counts[:, :positions].astype(np.int32)
        return RunResult(result=result, elapsed_ps=cpu.now_ps - start, label=self.name)


class HwJenkinsHash:
    """lookup2 in the dynamic area (CPU-controlled transfers)."""

    name = "lookup2/hw"

    def run(self, system: System, key: bytes) -> RunResult:
        _require_kernel(system, "lookup2")
        cpu = system.cpu
        start = cpu.now_ps
        cpu.io_write(system.dock.base + HASH_LENGTH_OFFSET, len(key))
        words = key_to_words(key)
        charge_word_reads(system, memmap.STAGE_INPUT, len(words))
        _write_words(system, words)
        digest = cpu.io_read(system.dock.base)
        return RunResult(result=digest, elapsed_ps=cpu.now_ps - start, label=self.name)


class HwSha1:
    """SHA-1 in the dynamic area (32-bit CPU-controlled transfers).

    Only available where the kernel fits — i.e. the 64-bit system; the
    32-bit system's region rejects the component at registration time.
    """

    name = "sha1/hw"

    def run(self, system: System, message: bytes) -> RunResult:
        _require_kernel(system, "sha1")
        cpu = system.cpu
        start = cpu.now_ps
        cpu.io_write(system.dock.base + SHA_LENGTH_OFFSET, len(message))
        words = key_to_words(message)
        charge_word_reads(system, memmap.STAGE_INPUT, len(words))
        _write_words(system, words)
        cpu.io_write(system.dock.base + SHA_FINALIZE_OFFSET, 1)
        h = [cpu.io_read(system.dock.base + reg) for reg in REG_H]
        digest = b"".join(int(x).to_bytes(4, "big") for x in h)
        return RunResult(result=digest, elapsed_ps=cpu.now_ps - start, label=self.name)


class _HwImageBase:
    """Shared plumbing for the image tasks."""

    kernel_name = ""
    name = "image/hw"

    @staticmethod
    def _pack(pixels: np.ndarray, word_bytes: int) -> List[int]:
        """Pack a uint8 array into little-endian words."""
        flat = np.asarray(pixels, dtype=np.uint8).ravel()
        pad = (-len(flat)) % word_bytes
        if pad:
            flat = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
        dtype = "<u4" if word_bytes == 4 else "<u8"
        return [int(v) for v in flat.view(dtype)]

    @staticmethod
    def _unpack(words: List[int], word_bytes: int, count: int) -> np.ndarray:
        dtype = "<u4" if word_bytes == 4 else "<u8"
        arr = np.array(words, dtype=np.uint64).astype(dtype).view(np.uint8)
        return arr[:count].copy()


class HwBrightnessPio(_HwImageBase):
    """Brightness via CPU-controlled transfers (the 32-bit method)."""

    kernel_name = "brightness"
    name = "brightness/hw-pio"

    def run(self, system: System, image: np.ndarray) -> RunResult:
        _require_kernel(system, self.kernel_name)
        cpu = system.cpu
        start = cpu.now_ps
        pixels = np.asarray(image, dtype=np.uint8).ravel()
        words = self._pack(pixels, 4)
        charge_word_reads(system, memmap.STAGE_INPUT, len(words))
        out_words: List[int] = []
        dock = system.dock
        base = dock.base

        def step(i: int) -> None:
            cpu.io_write(base, words[i])
            out_words.append(cpu.io_read(base))
            cpu.execute_cycles(LOOP_CYCLES)

        def bulk(start: int, n: int) -> None:
            # Chunked so a bounded output FIFO never holds more than its
            # depth between the feed and the matching drain.
            for j in range(start, start + n, _BULK_CHUNK):
                chunk = min(_BULK_CHUNK, start + n - j)
                dock.feed_words(words[j : j + chunk], 32, 0)
                out_words.extend(dock.drain_words(chunk, 32, 0))

        run_steady(system, len(words), step, bulk, phase=PHASE_PIO_STREAM)
        cpu.io_write(system.dock.base + FLUSH_OFFSET, 0)
        tail = system.dock.pending_outputs if hasattr(system.dock, "pending_outputs") else len(system.dock.fifo)
        out_words.extend(_read_words(system, tail))
        charge_word_writes(system, memmap.STAGE_OUTPUT, len(out_words))
        result = self._unpack(out_words, 4, pixels.size).reshape(np.asarray(image).shape)
        return RunResult(result=result, elapsed_ps=cpu.now_ps - start, label=self.name)


class _HwTwoSourcePio(_HwImageBase):
    """Blend/fade via CPU-controlled transfers: the CPU interleaves lanes."""

    def run(self, system: System, a: np.ndarray, b: np.ndarray) -> RunResult:
        _require_kernel(system, self.kernel_name)
        if a.shape != b.shape:
            raise KernelError("images must have the same shape")
        cpu = system.cpu
        start = cpu.now_ps
        a_flat = np.asarray(a, dtype=np.uint8).ravel()
        b_flat = np.asarray(b, dtype=np.uint8).ravel()
        lanes = np.empty(a_flat.size * 2, dtype=np.uint8)
        lanes[0::2] = a_flat
        lanes[1::2] = b_flat
        words = self._pack(lanes, 4)
        # Two source words loaded per output word plus the combining work.
        prep_start = cpu.now_ps
        charge_word_reads(system, memmap.STAGE_INPUT, (len(words) + 1) // 2)
        charge_word_reads(system, memmap.STAGE_AUX, (len(words) + 1) // 2)
        cpu.execute_cycles(PREP_PIO_CYCLES_PER_PIXEL * a_flat.size)
        prep_ps = cpu.now_ps - prep_start
        out_words: List[int] = []
        dock = system.dock
        base = dock.base
        pairs = len(words) // 2

        def step(i: int) -> None:
            # Every two input words complete 4 output px: write, write, read.
            cpu.io_write(base, words[2 * i])
            cpu.execute_cycles(LOOP_CYCLES)
            cpu.io_write(base, words[2 * i + 1])
            cpu.execute_cycles(LOOP_CYCLES)
            out_words.append(cpu.io_read(base))

        def bulk(start: int, n: int) -> None:
            for j in range(start, start + n, _BULK_CHUNK):
                chunk = min(_BULK_CHUNK, start + n - j)
                dock.feed_words(words[2 * j : 2 * (j + chunk)], 32, 0)
                out_words.extend(dock.drain_words(chunk, 32, 0))

        run_steady(system, pairs, step, bulk, phase=PHASE_PIO_PAIRED)
        if len(words) % 2:  # odd trailing word: written, nothing to read yet
            cpu.io_write(base, words[-1])
            cpu.execute_cycles(LOOP_CYCLES)
        cpu.io_write(system.dock.base + FLUSH_OFFSET, 0)
        tail = system.dock.pending_outputs if hasattr(system.dock, "pending_outputs") else len(system.dock.fifo)
        out_words.extend(_read_words(system, tail))
        charge_word_writes(system, memmap.STAGE_OUTPUT, len(out_words))
        result = self._unpack(out_words, 4, a_flat.size).reshape(np.asarray(a).shape)
        return RunResult(
            result=result,
            elapsed_ps=cpu.now_ps - start,
            label=self.name,
            breakdown={"data_preparation_ps": prep_ps},
        )


class HwBlendPio(_HwTwoSourcePio):
    kernel_name = "blend"
    name = "blend/hw-pio"


class HwFadePio(_HwTwoSourcePio):
    kernel_name = "fade"
    name = "fade/hw-pio"


class HwBrightnessDma(_HwImageBase):
    """Brightness via 64-bit DMA with the output FIFO (the 64-bit method).

    Only one image is involved, so "the 64-bit data transfers could be
    employed without additional work": stage -> DMA in -> FIFO -> DMA out.
    """

    kernel_name = "brightness"
    name = "brightness/hw-dma"

    def run(self, system: System, image: np.ndarray) -> RunResult:
        _require_kernel(system, self.kernel_name)
        dock = system.dock
        if not hasattr(dock, "dma_write_block"):
            raise KernelError(f"{system.name}: DMA image transfers need the PLB Dock")
        cpu = system.cpu
        start = cpu.now_ps
        pixels = np.asarray(image, dtype=np.uint8).ravel()
        pad = (-pixels.size) % 8
        staged = np.concatenate([pixels, np.zeros(pad, dtype=np.uint8)]) if pad else pixels
        system.ext_mem.load(memmap.STAGE_INPUT, staged)
        n_words = staged.size // 8
        cursor = cpu.now_ps
        remaining = n_words
        src = memmap.STAGE_INPUT
        dst = memmap.STAGE_OUTPUT
        cpu.execute_cycles(80)  # descriptor chain setup
        while remaining:
            chunk = min(remaining, dock.fifo.depth)
            cursor = dock.dma_write_block(cursor, src, chunk)
            cursor, drained = dock.dma_drain_fifo(cursor, dst)
            src += chunk * 8
            dst += drained * 8
            remaining -= chunk
        cpu.take_interrupt(cursor)
        cpu.return_from_interrupt()
        out = system.ext_mem.dump(memmap.STAGE_OUTPUT, staged.size)
        result = out[: pixels.size].reshape(np.asarray(image).shape)
        return RunResult(result=result, elapsed_ps=cpu.now_ps - start, label=self.name)


class _HwTwoSourceDma(_HwImageBase):
    """Blend/fade via DMA: CPU byte-interleaves into a staging buffer first.

    The interleaving is the "data preparation" row of Table 12 — a direct
    consequence of the DMA transfer mode's block-data-layout restriction.
    """

    def run(self, system: System, a: np.ndarray, b: np.ndarray) -> RunResult:
        _require_kernel(system, self.kernel_name)
        dock = system.dock
        if not hasattr(dock, "dma_write_block"):
            raise KernelError(f"{system.name}: DMA image transfers need the PLB Dock")
        if a.shape != b.shape:
            raise KernelError("images must have the same shape")
        cpu = system.cpu
        start = cpu.now_ps

        a_flat = np.asarray(a, dtype=np.uint8).ravel()
        b_flat = np.asarray(b, dtype=np.uint8).ravel()
        lanes = np.empty(a_flat.size * 2, dtype=np.uint8)
        lanes[0::2] = a_flat
        lanes[1::2] = b_flat
        pad = (-lanes.size) % 8
        staged = np.concatenate([lanes, np.zeros(pad, dtype=np.uint8)]) if pad else lanes

        # Data preparation: read both sources, interleave with a tight
        # rlwimi word loop, stream the staging buffer out with dcbz stores.
        prep_start = cpu.now_ps
        charge_word_reads(system, memmap.STAGE_INPUT, (a_flat.size + 3) // 4)
        charge_word_reads(system, memmap.STAGE_AUX, (b_flat.size + 3) // 4)
        cpu.execute_cycles(PREP_DMA_CYCLES_PER_PIXEL * a_flat.size)
        charge_word_writes(system, memmap.STAGE_BITSTREAM, (staged.size + 3) // 4, allocate=False)
        system.ext_mem.load(memmap.STAGE_BITSTREAM, staged)
        prep_ps = cpu.now_ps - prep_start

        n_words = staged.size // 8
        cursor = cpu.now_ps
        remaining = n_words
        src = memmap.STAGE_BITSTREAM
        dst = memmap.STAGE_OUTPUT
        cpu.execute_cycles(80)
        while remaining:
            chunk = min(remaining, dock.fifo.depth)
            cursor = dock.dma_write_block(cursor, src, chunk)
            cursor, drained = dock.dma_drain_fifo(cursor, dst)
            src += chunk * 8
            dst += drained * 8
            remaining -= chunk
        cpu.take_interrupt(cursor)
        cpu.return_from_interrupt()
        out = system.ext_mem.dump(memmap.STAGE_OUTPUT, a_flat.size + (-a_flat.size) % 8)
        result = out[: a_flat.size].reshape(np.asarray(a).shape)
        return RunResult(
            result=result,
            elapsed_ps=cpu.now_ps - start,
            label=self.name,
            breakdown={"data_preparation_ps": prep_ps},
        )


class HwBlendDma(_HwTwoSourceDma):
    kernel_name = "blend"
    name = "blend/hw-dma"


class HwFadeDma(_HwTwoSourceDma):
    kernel_name = "fade"
    name = "fade/hw-dma"


class HwFadeSequence:
    """Fade-in/fade-out: one configuration, many factor values.

    "The fade-in-fade-out effect is obtained by processing the source
    images successively for different values of f."  The kernel's factor
    lives in a control register, so stepping ``f`` costs one dock write —
    no reconfiguration — which is exactly the kind of reuse that makes the
    one-time configuration cost worth paying.
    """

    name = "fade-sequence/hw"

    def __init__(self, pio: bool = True) -> None:
        self._driver = HwFadePio() if pio else HwFadeDma()
        self.pio = pio

    def run(self, system: System, a: np.ndarray, b: np.ndarray, factors) -> RunResult:
        from ..kernels.image_ops import PARAM_OFFSET

        _require_kernel(system, "fade")
        cpu = system.cpu
        start = cpu.now_ps
        frames = []
        breakdown = {}
        for factor in factors:
            if not 0.0 <= factor <= 1.0:
                raise KernelError(f"fade factor {factor} outside [0, 1]")
            cpu.io_write(system.dock.base + PARAM_OFFSET, round(factor * 256))
            result = self._driver.run(system, a, b)
            frames.append(result.result)
            for key, value in result.breakdown.items():
                breakdown[key] = breakdown.get(key, 0) + value
        return RunResult(
            result=frames,
            elapsed_ps=cpu.now_ps - start,
            label=self.name,
            breakdown=breakdown,
        )
