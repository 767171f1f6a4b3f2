"""Run-time reconfiguration manager.

Orchestrates the full swap of a dynamic-area module:

1. look the kernel up in the component library (synthesised for this
   system's bus width and region height);
2. run **BitLinker** against the system's static baseline to produce a
   complete partial bitstream (or a differential one, for the ablation);
3. stage the bitstream in external memory and feed it word by word through
   the **OPB HWICAP** — the part that costs simulated time;
4. update the device's configuration memory, verify the static rows were
   not disturbed, and attach the kernel model to the dock.

The returned :class:`ReconfigResult` carries the bitstream size and load
time, which is how the complete-vs-differential trade-off ("the side
effect of increasing the configuration time") is quantified.

**Robust loading.**  :meth:`ReconfigManager.load` is the optimistic flow a
benchmark uses; :meth:`ReconfigManager.load_robust` is what a production
loader facing faulty staging memory or upsets would run: bounded
verify-and-retry, readback scrubbing that repairs only the frames whose
readback mismatches, rollback to the pre-load snapshot when an attempt
cannot be salvaged, and graceful degradation to a registered software
implementation when every attempt fails.  Everything is charged through
the same CPU/bus cost model as the plain loader, so recovery overhead is
measurable in simulated picoseconds.  Faults themselves come from an
armed :class:`~repro.faults.plan.FaultPlan` (see :mod:`repro.faults`);
when none is armed the hooks are single ``is None`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bitstream.bitlinker import Placement
from ..bitstream.bitstream import Bitstream, BitstreamKind
from ..bitstream.generator import verify_preserves_static
from ..dock.interface import StreamingKernel
from ..engine.batch import run_steady
from ..errors import BitstreamError, FabricError, KernelError, ReconfigurationError, ResourceError
from ..fabric.config_memory import ConfigMemory, ConfigSnapshot
from ..fabric.frames import FrameAddress
from ..kernels.base import BaseKernel
from ..sw.costmodel import charge_word_reads
from . import memmap
from .system import System


@dataclass
class ReconfigResult:
    """Outcome of one dynamic reconfiguration."""

    kernel_name: str
    kind: str
    frame_count: int
    word_count: int
    elapsed_ps: int
    #: Time spent verifying by ICAP readback (0 when verify was off).
    verify_ps: int = 0
    frames_verified: int = 0
    #: Load attempts consumed (1 for the plain loader; up to
    #: ``max_attempts`` for :meth:`ReconfigManager.load_robust`).
    attempts: int = 1
    #: Frames repaired by readback scrubbing during this load.
    scrubbed_frames: int = 0
    #: True when the hardware load was abandoned and the registered
    #: software implementation stands in for the kernel.
    fallback: bool = False
    #: True when the pre-load configuration was restored (at least once).
    rolled_back: bool = False

    @property
    def byte_size(self) -> int:
        return self.word_count * 4

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ps / 1e9


@dataclass
class ScrubReport:
    """Outcome of a standalone readback-scrub pass."""

    frames_checked: int
    frames_repaired: int
    repaired: List[FrameAddress] = field(default_factory=list)
    elapsed_ps: int = 0


def sample_indices(count: int, samples: Optional[int]) -> Sequence[int]:
    """The frames a verified load reads back: evenly spaced indices,
    clamped to ``min(samples, count)`` (``None`` = every frame).

    Spacing ``(count-1)/(num-1) >= 1`` guarantees the floored indices
    are distinct, so exactly ``num`` frames are checked.
    """
    if samples is None or samples >= count:
        return range(count)
    return [int(i) for i in np.linspace(0, count - 1, num=int(samples))]


class ReconfigManager:
    """Kernel library + loader for one dynamic region.

    By default it manages the system's primary region/dock; pass an
    explicit ``slot`` (see :mod:`repro.core.multiregion`) to manage an
    additional dynamic area on the same device.
    """

    def __init__(self, system: System, slot=None) -> None:
        self.system = system
        self.region = slot.region if slot is not None else system.region
        self.dock = slot.dock if slot is not None else system.dock
        self.bitlinker = slot.bitlinker if slot is not None else system.bitlinker
        self._library: Dict[str, Tuple[BaseKernel, object]] = {}
        self._software: Dict[str, object] = {}
        self.active: Optional[str] = None
        self.history: list[ReconfigResult] = []
        #: Last known-good full-memory snapshot (set by successful
        #: ``load_robust`` calls or :meth:`mark_golden`); the reference
        #: :meth:`scrub` repairs towards.
        self._golden = None

    # -- library ------------------------------------------------------------
    def register(self, kernel: BaseKernel, software=None) -> None:
        """Synthesise the kernel's component for this system and fit-check it.

        Raises :class:`ResourceError` when the component cannot fit the
        dynamic region — the SHA-1-on-the-32-bit-system case.  An optional
        ``software`` implementation (any object/callable the caller wants
        back) is remembered for graceful degradation in
        :meth:`load_robust`.
        """
        component = kernel.make_component(self.system.bus_width, self.region.rect.height)
        if component.width > self.region.rect.width:
            raise ResourceError(
                f"{kernel.name}: component is {component.width} CLB columns wide; region "
                f"{self.region.name!r} has only {self.region.rect.width}"
            )
        component.total_resources.require_fit(
            self.region.resources, what=f"component {component.name!r}"
        )
        self._library[kernel.name] = (kernel, component)
        if software is not None:
            self._software[kernel.name] = software

    def register_software(self, name: str, implementation) -> None:
        """Register (or replace) the software fallback for a kernel."""
        self._software[name] = implementation

    def software(self, name: str):
        """The registered software implementation for ``name`` (or None)."""
        return self._software.get(name)

    def fits(self, kernel: BaseKernel) -> bool:
        """Non-throwing fit check."""
        try:
            component = kernel.make_component(
                self.system.bus_width, self.region.rect.height
            )
        except (KernelError, FabricError):
            # Expected synthesis/resource failures ("does not fit") only;
            # anything else is a programming error and must surface.
            return False
        return (
            component.width <= self.region.rect.width
            and component.total_resources.fits_within(self.region.resources)
        )

    def kernel(self, name: str) -> StreamingKernel:
        return self._library[name][0]

    def component(self, name: str):
        """The synthesised component registered for ``name``.

        Public accessor for area queries (e.g. the serve region allocator
        reads CLB-column widths); raises the same error as :meth:`load`
        for unregistered kernels.
        """
        return self._entry(name)[1]

    def _entry(self, name: str) -> Tuple[BaseKernel, object]:
        """The registered ``(kernel, component)`` pair for ``name``."""
        if name not in self._library:
            raise ReconfigurationError(
                f"kernel {name!r} not registered with {self.system.name}"
            )
        return self._library[name]

    def _link(self, component, differential: bool) -> Bitstream:
        """BitLinker's complete (or differential) partial bitstream for ``component``."""
        placements = [Placement(component, col_offset=0, row_offset=0)]
        if differential:
            return self.bitlinker.link_differential(placements, current=self.system.config_memory)
        return self.bitlinker.link(placements)

    # -- fault hooks ---------------------------------------------------------
    def _plan(self):
        """The armed :class:`~repro.faults.plan.FaultPlan`, or None."""
        return getattr(self.system, "fault_plan", None)

    def _pre_load_state(self) -> ConfigMemory:
        """Strike any armed load upset, then copy the configuration a load
        must leave intact outside its region (and may roll back to) — so
        the preservation check also holds when other dynamic regions
        already carry kernels."""
        plan = self._plan()
        if plan is not None:
            plan.take_load_upset(self.system.config_memory)
        before = ConfigMemory(self.system.device)
        before.restore(self.system.config_memory.snapshot())
        return before

    # -- loading --------------------------------------------------------------
    def load(
        self, name: str, differential: bool = False, verify: bool = False,
        verify_samples: int = 8,
    ) -> ReconfigResult:
        """Reconfigure the dynamic area with kernel ``name``.

        ``verify=True`` reads back a sample of the written frames through
        the ICAP (RCFG/FDRO path) and compares them with the bitstream —
        the belt-and-braces flow a production loader would use; the extra
        time is reported separately in the result.  ``verify_samples``
        caps how many frames are checked (at least 1; never more than the
        bitstream holds).
        """
        kernel, component = self._entry(name)
        if verify and verify_samples < 1:
            raise ValueError(f"verify_samples must be >= 1, got {verify_samples}")
        before = self._pre_load_state()
        bitstream = self._link(component, differential)
        elapsed, word_count = self._feed_through_icap(bitstream)
        verify_ps = 0
        frames_verified = 0
        if verify:
            verify_ps, frames_verified = self._verify_by_readback(bitstream, verify_samples)
            elapsed += verify_ps

        # Verify the partial configuration did not disturb anything outside
        # this region (static logic or other dynamic areas).
        if not verify_preserves_static(before, self.system.config_memory, self.region):
            raise ReconfigurationError(
                f"loading {name!r} disturbed configuration outside the region"
            )

        self.dock.attach_kernel(kernel)
        self.active = name
        result = ReconfigResult(
            kernel_name=name,
            kind=bitstream.kind.value,
            frame_count=bitstream.frame_count,
            word_count=word_count,
            elapsed_ps=elapsed,
            verify_ps=verify_ps,
            frames_verified=frames_verified,
        )
        self.history.append(result)
        return result

    def load_robust(
        self,
        name: str,
        differential: bool = False,
        max_attempts: int = 3,
        verify_samples: Optional[int] = None,
        allow_fallback: bool = True,
    ) -> ReconfigResult:
        """Fault-tolerant reconfiguration: verify, scrub, retry, roll back.

        Each attempt rebuilds and feeds the bitstream, then reads back the
        written frames (all of them by default; ``verify_samples`` caps
        the scan) and *scrubs* any mismatching frames by rewriting just
        those frames through the ICAP.  An attempt that cannot be
        salvaged — CRC/commit failure, scrub that does not converge, or a
        disturbed static region — rolls the configuration back to the
        pre-load snapshot and retries, up to ``max_attempts`` times.  When
        every attempt fails the region is left rolled back and, if
        ``allow_fallback`` and a software implementation is registered,
        the result records graceful degradation (``fallback=True``,
        ``kind='software-fallback'``); otherwise the last error is raised.

        All recovery work is charged through the CPU/bus cost model; the
        result's ``elapsed_ps`` covers everything, ``attempts``/
        ``scrubbed_frames``/``rolled_back`` report what recovery cost.
        """
        kernel, component = self._entry(name)
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if verify_samples is not None and verify_samples < 1:
            raise ValueError(f"verify_samples must be >= 1, got {verify_samples}")
        before = self._pre_load_state()

        cpu = self.system.cpu
        start = cpu.now_ps
        attempts = 0
        scrubbed_total = 0
        frames_verified = 0
        verify_ps_total = 0
        rolled_back = False
        last_error: Optional[ReconfigurationError] = None

        while attempts < max_attempts:
            attempts += 1
            bitstream = self._link(component, differential)
            try:
                _, word_count = self._feed_through_icap(bitstream)
            except ReconfigurationError as err:
                # CRC/commit failure: the ICAP flushed its FIFO and wrote
                # nothing, so the configuration is untouched — just retry.
                last_error = err
                continue

            verify_start = cpu.now_ps
            bad, checked = self._scan_frames(bitstream, verify_samples)
            frames_verified += checked
            if bad:
                try:
                    self._feed_frames(
                        bitstream.fars[bad], bitstream.block[bad], f"scrub of {len(bad)} frame(s)"
                    )
                except ReconfigurationError as err:
                    verify_ps_total += cpu.now_ps - verify_start
                    last_error = err
                    rolled_back |= self._rollback(before)
                    continue
                still_bad, rechecked = self._scan_frames(bitstream, None, only=bad)
                frames_verified += rechecked
                scrubbed_total += len(bad)
                if still_bad:
                    verify_ps_total += cpu.now_ps - verify_start
                    last_error = ReconfigurationError(
                        f"{name}: readback still wrong after scrubbing "
                        f"{len(bad)} frame(s)"
                    )
                    rolled_back |= self._rollback(before)
                    continue
            verify_ps_total += cpu.now_ps - verify_start

            if not verify_preserves_static(before, self.system.config_memory, self.region):
                last_error = ReconfigurationError(
                    f"loading {name!r} disturbed configuration outside the region"
                )
                rolled_back |= self._rollback(before)
                continue

            # A kept error's traceback holds this frame: drop it so the
            # manager does not outlive its last reference.
            last_error = None
            self.dock.attach_kernel(kernel)
            self.active = name
            self._golden = self.system.config_memory.snapshot()
            result = ReconfigResult(
                kernel_name=name,
                kind=bitstream.kind.value,
                frame_count=bitstream.frame_count,
                word_count=word_count,
                elapsed_ps=cpu.now_ps - start,
                verify_ps=verify_ps_total,
                frames_verified=frames_verified,
                attempts=attempts,
                scrubbed_frames=scrubbed_total,
                rolled_back=rolled_back,
            )
            self.history.append(result)
            return result

        # Every attempt failed: leave the region as it was before the load.
        rolled_back |= self._rollback(before)
        if allow_fallback and name in self._software:
            last_error = None
            self.dock.detach_kernel()
            self.active = None
            result = ReconfigResult(
                kernel_name=name,
                kind="software-fallback",
                frame_count=0,
                word_count=0,
                elapsed_ps=cpu.now_ps - start,
                verify_ps=verify_ps_total,
                frames_verified=frames_verified,
                attempts=attempts,
                scrubbed_frames=scrubbed_total,
                fallback=True,
                rolled_back=True,
            )
            self.history.append(result)
            return result
        raise ReconfigurationError(
            f"{name}: robust load failed after {attempts} attempt(s)"
        ) from last_error

    def mark_golden(self) -> None:
        """Snapshot the current configuration as the scrub reference."""
        self._golden = self.system.config_memory.snapshot()

    def scrub(self, reference=None) -> ScrubReport:
        """Readback-scrub the whole configuration against a known-good state.

        Reads back every written frame of ``reference`` (default: the
        golden snapshot captured by the last successful ``load_robust`` /
        :meth:`mark_golden`) through the ICAP, and rewrites only the
        frames whose readback mismatches — the periodic scrubbing pass a
        radiation-tolerant deployment would schedule.  A snapshot of
        another device, or a reference that names a frame the device lacks,
        raises before any time is charged.
        """
        ref = reference if reference is not None else self._golden
        if ref is None:
            raise ReconfigurationError(
                "no golden snapshot to scrub against; call load_robust()/"
                "mark_golden() first or pass an explicit reference"
            )
        geometry = self.system.config_memory.geometry
        if isinstance(ref, ConfigSnapshot):
            if ref.geometry.device != geometry.device:
                raise ReconfigurationError(
                    f"scrub reference: snapshot of {ref.geometry.device.name} does not "
                    f"fit the {geometry.device.name} configuration memory"
                )
            rows = ref.written_rows()
            expected = ref.data_rows(rows)
        else:
            addresses = list(ref)
            try:
                rows = geometry.frame_rows(addresses)
            except BitstreamError as err:
                raise ReconfigurationError(f"scrub reference: {err}") from err
            expected = np.array([ref[address] for address in addresses], dtype=np.uint32)
        fars = geometry.frame_fars()[rows]
        cpu = self.system.cpu
        start = cpu.now_ps
        repair = self._mismatched(fars, expected)
        if repair.size:
            self._feed_frames(
                fars[repair], expected[repair], f"scrub repair of {repair.size} frame(s)"
            )
        order = geometry.frame_order()
        return ScrubReport(
            frames_checked=len(rows),
            frames_repaired=int(repair.size),
            repaired=[order[row] for row in rows[repair]],
            elapsed_ps=cpu.now_ps - start,
        )

    # -- readback helpers ------------------------------------------------------
    def _readback_frame(self, address: FrameAddress) -> np.ndarray:
        """Read one frame back through the ICAP, charging the bus time.

        The reference step of :meth:`_readback_frames`, run once per
        probed frame.  The first two RDATA words are real uncached loads
        (the second is the steady-state calibration sample, matching the
        batch idiom of :meth:`~repro.cpu.ppc405.Ppc405.io_read_batch`); the
        remainder is drained in bulk with its time and counters
        extrapolated — and attributed to the HWICAP *readback* counter,
        exactly as the word-by-word loop would record it.
        """
        from ..periph.hwicap import CTRL_READBACK, REG_CONTROL, REG_FAR, REG_RDATA

        cpu = self.system.cpu
        icap = self.system.hwicap
        base = icap.base
        cpu.io_write(base + REG_FAR, address.packed())
        cpu.io_write(base + REG_CONTROL, CTRL_READBACK)
        first = cpu.io_read(base + REG_RDATA)
        if not icap.readback_pending():
            return np.array([first], dtype=np.uint32)
        probe_start = cpu.now_ps
        second = cpu.io_read(base + REG_RDATA)
        per_read = cpu.now_ps - probe_start
        rest = icap.drain_readback()
        extra = int(rest.size)
        if extra:
            cpu.now_ps += per_read * extra
            cpu.stats.count("io_reads", extra)
            cpu.plb.stats.count("reads", extra)
            icap.stats.count("readback_reads", extra)
        head = np.array([first, second], dtype=np.uint32)
        return np.concatenate([head, rest]) if extra else head

    def _readback_frames(self, fars: np.ndarray) -> np.ndarray:
        """Read the frames at FAR words ``fars`` back through the ICAP: an
        ``(n, words_per_frame)`` array.

        Every frame costs the same bridged transactions whatever its
        address, so the frame loop is a steady phase of
        :func:`~repro.engine.batch.run_steady`: probed frames run
        :meth:`_readback_frame`, the rest are read functionally.
        """
        icap = self.system.hwicap
        out = np.empty((len(fars), self.system.device.words_per_frame), dtype=np.uint32)

        def step(i: int) -> None:
            out[i] = self._readback_frame(FrameAddress.unpacked(int(fars[i])))

        def bulk(start: int, n: int) -> None:
            out[start:] = icap.bulk_readback(fars[start : start + n])

        run_steady(self.system, len(fars), step, bulk)
        return out

    def _mismatched(self, fars: np.ndarray, expected: np.ndarray) -> np.ndarray:
        """Positions in FAR words ``fars`` whose readback differs from the
        ``(n, words_per_frame)`` ``expected`` block."""
        if not len(fars):
            return np.zeros(0, dtype=np.intp)
        data = self._readback_frames(fars)
        return np.flatnonzero((data != expected).any(axis=1))

    def _verify_by_readback(self, bitstream: Bitstream, samples: int) -> Tuple[int, int]:
        """Read back evenly spaced frames via the ICAP; raise on the first mismatch.

        As in a frame-by-frame loop, only the frames up to the first
        mismatch are read back (and charged); readback returns memory as it
        stands, so an uncounted peek finds that prefix before time is spent.
        """
        cpu = self.system.cpu
        start = cpu.now_ps
        if not bitstream.frame_count:
            return 0, 0
        sampled = sample_indices(bitstream.frame_count, samples)
        fars = bitstream.fars[sampled]
        expected = bitstream.block[sampled]
        memory = self.system.config_memory
        peek = memory.data_rows(memory.geometry.rows_of_fars(fars))
        bad = np.flatnonzero((peek != expected).any(axis=1))
        stop = int(bad[0]) + 1 if bad.size else len(fars)
        data = self._readback_frames(fars[:stop])
        if bad.size:
            address = FrameAddress.unpacked(int(fars[stop - 1]))
            got, want = int(data[-1, 0]), int(expected[stop - 1, 0])
            if got != want:
                raise ReconfigurationError(
                    f"readback mismatch at {address}: {got:#010x} != {want:#010x}"
                )
            raise ReconfigurationError(f"readback mismatch within {address}")
        return cpu.now_ps - start, len(fars)

    def _scan_frames(
        self,
        bitstream: Bitstream,
        samples: Optional[int],
        only: Optional[Sequence[int]] = None,
    ) -> Tuple[List[int], int]:
        """Non-raising readback scan of ``bitstream``'s frames; returns
        (mismatched indices, checked).

        ``only`` restricts the scan to specific frame indices (the
        post-scrub recheck); otherwise ``samples`` caps an evenly spaced
        sample (None = every frame).
        """
        if not bitstream.frame_count:
            return [], 0
        if only is not None:
            indices: Sequence[int] = only
        else:
            indices = sample_indices(bitstream.frame_count, samples)
        bad = self._mismatched(bitstream.fars[indices], bitstream.block[indices])
        return [indices[position] for position in bad], len(indices)

    def _feed_frames(self, fars: np.ndarray, block: np.ndarray, description: str) -> None:
        """Rewrite only the frames at ``fars`` through the ICAP (a complete
        partial bitstream)."""
        kind = BitstreamKind.PARTIAL_COMPLETE
        self._feed_through_icap(
            Bitstream.from_block(self.system.device.name, kind, fars, block, description)
        )

    def _rollback(self, before: ConfigMemory) -> bool:
        """Restore the pre-load configuration, charging the repair feed.

        Frames that differ from the snapshot are rewritten through the
        ICAP (so the recovery time is accounted), then the memory is
        restored functionally — which also clears written-marks the ICAP
        cannot undo.  Returns True when anything had to be repaired.
        """
        memory = self.system.config_memory
        baseline = before.snapshot()
        rows = memory.diff(baseline)
        if rows.size:
            try:
                self._feed_through_icap(
                    Bitstream.from_block(
                        self.system.device.name,
                        BitstreamKind.PARTIAL_COMPLETE,
                        memory.geometry.frame_fars()[rows],
                        baseline.data_rows(rows),
                        f"rollback of {rows.size} frame(s)",
                    )
                )
            except ReconfigurationError:
                # Even a faulted rollback feed ends in the functional
                # restore below; the attempt's bus time stays charged.
                pass
        memory.restore(baseline)
        return bool(rows.size)

    def clear(self) -> ReconfigResult:
        """Blank the dynamic region (complete partial bitstream of zeros)."""
        before = self._pre_load_state()
        bitstream = self.bitlinker.clear_bitstream()
        elapsed, word_count = self._feed_through_icap(bitstream)
        # A buggy clear stream must not silently disturb static logic or
        # other regions any more than a load may.
        if not verify_preserves_static(before, self.system.config_memory, self.region):
            raise ReconfigurationError(
                "clearing the region disturbed configuration outside it"
            )
        self.dock.detach_kernel()
        self.active = None
        result = ReconfigResult(
            kernel_name="<clear>",
            kind=bitstream.kind.value,
            frame_count=bitstream.frame_count,
            word_count=word_count,
            elapsed_ps=elapsed,
        )
        self.history.append(result)
        return result

    # -- timing ---------------------------------------------------------------
    def _feed_through_icap(self, bitstream: Bitstream) -> Tuple[int, int]:
        """Charge the word-by-word HWICAP feed; deliver the words functionally.

        Returns ``(elapsed_ps, word_count)`` — the stream is serialised
        exactly once here, so callers must not re-derive the size through
        ``bitstream.word_count`` (which would serialise again).
        """
        words = bitstream.to_words()
        plan = self._plan()
        if plan is not None:
            # SEUs in the staged copy strike before the feed: the ICAP sees
            # (and CRC-checks) the corrupted stream.
            words = plan.corrupt_staged(words)
        cpu = self.system.cpu
        start = cpu.now_ps
        if len(words):
            # The controlling software reads the staged bitstream from
            # external memory and stores each word to the HWICAP FIFO.
            charge_word_reads(self.system, memmap.STAGE_BITSTREAM, len(words))
            # Calibrate one ICAP data write (a commit of an empty buffer has
            # the same wait states as a data-word push), then scale.
            probe_start = cpu.now_ps
            cpu.io_write(self.system.hwicap.base + 0x8, 0)  # REG_CONTROL, empty commit
            per_word = cpu.now_ps - probe_start
            cpu.now_ps += per_word * (len(words) - 1)
            # Per-word loop overhead (pointer, compare, branch).
            cpu.execute_cycles(4 * len(words))
        self.system.hwicap.load_words(words)
        return cpu.now_ps - start, len(words)
