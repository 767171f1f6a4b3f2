"""Steady-state timeline compiler — whole phases at array speed.

The table scenarios spend most of their simulated activity in *steady
phases*: a PIO loop feeding the dock one word per iteration, a drain loop
reading results back, a polling interval.  Each iteration performs the
same operation sequence; only the data differs — and in this model, data
never influences timing (bus wait states, tenures and clock alignment are
all value-independent).  Interpreting such a phase event by event costs
thousands of Python-level bus transactions that all advance the timeline
by the same delta.

:func:`run_steady` replaces that interpretation with
*probe-and-extrapolate*:

1. run a few iterations through the untouched reference path, capturing a
   **timeline signature** at every iteration boundary — cursor deltas
   (CPU time, per-bus busy watermarks, the bridge's posted-write buffer
   relative to *now*), bus clock-phase offsets, and exact per-group
   statistics deltas (counters plus accumulator total/count with
   unchanged min/max); the CPU caches' tags and dirty bits must also be
   identical at consecutive boundaries, since a cache that still fills
   or evicts makes the next iteration cost something else;
2. once two consecutive signatures are identical, the phase is provably
   periodic: every further iteration is a time-shifted copy, so the
   remaining iterations are applied **closed-form** — one clock jump
   (``dt x remaining``), one :meth:`StatsGroup.count_many` /
   :meth:`StatsGroup.record_many` charge per group, shifted bridge
   buffer — plus one vectorized ``bulk`` callback for the functional
   effects (data movement only, never time or statistics);
3. anything irregular — the fast path disabled via
   ``REPRO_NO_FAST_PATH``, an undeclared phase, or signatures that never
   converge — falls back to per-iteration reference execution, which is
   always correct.

A trace hook does not change which path runs.  When a compiled phase
extrapolates, each watched bus with a tracer gets one ``steady`` event at
the boundary whose ``reads``, ``writes``, ``beats`` and ``duration_ps``
are ``remaining`` times what that bus traced during the last probe
iteration, so the trace's totals equal the stepped run's.

Equivalence is exact, not approximate: the extrapolated samples repeat
the probe iteration's integer-valued figures, so the closed-form charges
reproduce the reference path's statistics bit for bit (sums of integers
below 2**53 are exact in doubles), and the cursor jumps reproduce its
timestamps exactly.  ``tests/test_batch_compile_equivalence.py`` holds
the contract under hypothesis.

**Division of labour** — the compiler owns simulated time and every
watched statistics group (CPU, CPU data and instruction caches, buses,
bridge, dock, DMA engine, HWICAP);
``bulk`` callbacks own data movement and functional counters (FIFO
statistics via ``push_many``/``pop_array``, ICAP readback counts via
``bulk_readback``), matching the per-word reference exactly.  A ``bulk``
callback must therefore never touch engine state — LINT008 flags
violations (see ``docs/CHECKS.md``).

Phases are **declared, not guessed**: scenarios/rigs opt loops in with
:func:`declare_phases`, and :func:`run_steady` compiles only phases whose
name was declared on the target system.  Undeclared loops simply run the
reference path.

Phases **nest**: a ``step`` may itself call :func:`run_steady` (the
pattern-match strip loop runs a PIO write phase and a PIO read phase per
strip).  Each call watches the whole system, so the outer phase sees
what its inner phases charged, compiled or not, and once the outer phase
extrapolates, its ``bulk`` stands in for the inner phases as well (and
an inner phase's ``steady`` event is one more event of the outer probe).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from . import fastpath

__all__ = [
    "declare_phases",
    "declared_phases",
    "phase_declared",
    "run_steady",
    "telemetry",
    "reset_telemetry",
    "BatchTelemetry",
    "MIN_PROBES",
    "MAX_PROBES",
    "EXTRAS_KEY",
]

#: Key under ``system.extras`` holding the declared batchable phase names.
EXTRAS_KEY = "batchable_phases"

#: Iterations that must run through the reference path before the
#: compiler may extrapolate: the first warms pipelines (bridge buffer,
#: packing remainders), then two consecutive identical signatures are
#: required — so a compiled phase always executes at least this many real
#: iterations.
MIN_PROBES = 3

#: Probe budget: if signatures have not converged after this many
#: iterations the phase is treated as irregular and the remainder runs
#: through the reference path.
MAX_PROBES = 8


class BatchTelemetry:
    """Counts of what the compiler did (observability, tests, benches)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.compiled_phases = 0
        self.probe_iterations = 0
        self.extrapolated_iterations = 0
        self.reference_iterations = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "compiled_phases": self.compiled_phases,
            "probe_iterations": self.probe_iterations,
            "extrapolated_iterations": self.extrapolated_iterations,
            "reference_iterations": self.reference_iterations,
        }


_TELEMETRY = BatchTelemetry()


def telemetry() -> BatchTelemetry:
    """The process-wide compiler telemetry."""
    return _TELEMETRY


def reset_telemetry() -> None:
    _TELEMETRY.reset()


# -- phase declarations ----------------------------------------------------

def declare_phases(system, *names: str) -> None:
    """Mark phase ``names`` as batchable on ``system``.

    Declarations live in ``system.extras`` so they travel with the system
    object and never leak across rigs.  Declaring is a statement of
    intent, not a switch: the phase still only compiles when it proves
    steady under probing with the fast path enabled.
    """
    system.extras.setdefault(EXTRAS_KEY, set()).update(names)


def declared_phases(system) -> frozenset:
    """The batchable phase names declared on ``system``."""
    extras = getattr(system, "extras", None)
    if not extras:
        return frozenset()
    return frozenset(extras.get(EXTRAS_KEY, ()))


def phase_declared(system, name: str) -> bool:
    return name in declared_phases(system)


# -- the compiler ----------------------------------------------------------

class _Watch:
    """Snapshot/extrapolate view over everything timing-relevant.

    Watches the CPU cursor, each bus's busy watermark and clock phase, the
    bridge's posted-write buffer, the PLB dock's DMA watermark, the CPU
    caches' tag and dirty state, and the statistics groups of every timed
    component, the two caches included.  The cache state is not
    extrapolated: an iteration that leaves it changed has no signature,
    so only phases whose cache footprint is already settled compile.
    The dock FIFO's group is deliberately *not* watched: its statistics
    are functional (charged by ``push_many``/``pop_array`` inside the
    reference path and the ``bulk`` callbacks alike).
    """

    def __init__(self, system) -> None:
        self.cpu = system.cpu
        self.caches = [self.cpu.dcache, self.cpu.icache]
        self.buses = [
            bus
            for bus in (getattr(system, "plb", None), getattr(system, "opb", None))
            if bus is not None
        ]
        self.bridge = getattr(system, "bridge", None)
        dock = getattr(system, "dock", None)
        self.cursors: List[Tuple[object, str]] = [(bus, "_busy_until") for bus in self.buses]
        if dock is not None and hasattr(dock, "dma_busy_until_ps"):
            self.cursors.append((dock, "dma_busy_until_ps"))
        groups = [self.cpu.stats] + [cache.stats for cache in self.caches]
        groups += [bus.stats for bus in self.buses]
        if self.bridge is not None:
            groups.append(self.bridge.stats)
        if dock is not None:
            groups.append(dock.stats)
            dma = getattr(dock, "dma", None)
            if dma is not None:
                groups.append(dma.stats)
        hwicap = getattr(system, "hwicap", None)
        if hwicap is not None and hasattr(hwicap, "stats"):
            groups.append(hwicap.stats)
        self.groups = groups
        self.tracers = [(bus.name, bus.tracer) for bus in self.buses if bus.tracer is not None]

    def snapshot(self):
        """Absolute state at an iteration boundary (cheap, no copies of data),
        with each tracer's event count last."""
        now = self.cpu.now_ps
        cursor_vals = tuple(getattr(obj, attr) for obj, attr in self.cursors)
        inflight = tuple(self.bridge._inflight) if self.bridge is not None else ()
        caches = tuple(
            (cache._tags.tobytes(), cache._dirty.tobytes()) for cache in self.caches
        )
        stats = []
        for group in self.groups:
            counters = {name: c.value for name, c in group._counters.items()}
            accs = {
                name: (a.total, a.count, a.minimum, a.maximum)
                for name, a in group._accumulators.items()
            }
            stats.append((counters, accs))
        marks = tuple(len(tracer) for _, tracer in self.tracers)
        return (now, cursor_vals, inflight, caches, stats, marks)

    def signature(self, prev, cur):
        """The iteration's timeline signature, or ``None`` if irregular.

        Two consecutive equal signatures prove periodicity: all relative
        cursor state is reproduced at the boundary, clock phases repeat,
        and the statistics deltas are constant with untouched accumulator
        extremes — so by induction every further iteration is the same
        iteration shifted by ``dt``.  Cache state is compared absolutely:
        an iteration that moved it has no signature.
        """
        pnow, pcursors, pinflight, pcaches, pstats, _ = prev
        cnow, ccursors, cinflight, ccaches, cstats, _ = cur
        dt = cnow - pnow
        if dt <= 0 or pcaches != ccaches:
            return None

        cursor_kinds = []
        for (pval, cval) in zip(pcursors, ccursors):
            if cval - pval == dt:
                kind = "track"
            elif cval == pval and pval <= pnow and cval <= cnow:
                kind = "idle"
            else:
                return None
            cursor_kinds.append(kind)

        # Posted writes still pending at the boundary must form the same
        # pattern relative to *now*; drained entries are semantically gone.
        rel_prev = tuple(t - pnow for t in pinflight if t > pnow)
        rel_cur = tuple(t - cnow for t in cinflight if t > cnow)
        if rel_prev != rel_cur:
            return None

        phases = tuple(bus.clock.next_edge(cnow) - cnow for bus in self.buses)
        prev_phases = tuple(bus.clock.next_edge(pnow) - pnow for bus in self.buses)
        if phases != prev_phases:
            return None

        stat_sigs = []
        for (pcounters, paccs), (ccounters, caccs) in zip(pstats, cstats):
            counter_delta = tuple(
                sorted(
                    (name, ccounters[name] - pcounters.get(name, 0))
                    for name in ccounters
                )
            )
            acc_delta = []
            for name, (total, count, minimum, maximum) in sorted(caccs.items()):
                ptotal, pcount, _, _ = paccs.get(name, (0.0, 0, 0.0, 0.0))
                acc_delta.append((name, total - ptotal, count - pcount, minimum, maximum))
            stat_sigs.append((counter_delta, tuple(acc_delta)))

        return (dt, tuple(cursor_kinds), rel_cur, phases, tuple(stat_sigs))

    def extrapolate(self, sig, remaining: int, since) -> None:
        """Apply ``remaining`` iterations closed-form (time + statistics),
        and trace them as ``remaining`` copies of the probe iteration that
        started at snapshot ``since``."""
        dt, cursor_kinds, _, _, stat_sigs = sig
        shift = dt * remaining
        boundary_now = self.cpu.now_ps
        self.cpu.now_ps = boundary_now + shift
        for (obj, attr), kind in zip(self.cursors, cursor_kinds):
            if kind == "track":
                setattr(obj, attr, getattr(obj, attr) + shift)
        if self.bridge is not None:
            self.bridge._inflight = deque(
                t + shift for t in self.bridge._inflight if t > boundary_now
            )
        for group, (counter_delta, acc_delta) in zip(self.groups, stat_sigs):
            increments = {name: d * remaining for name, d in counter_delta if d}
            if increments:
                group.count_many(increments)
            for name, d_total, d_count, minimum, maximum in acc_delta:
                if d_count:
                    group.record_many(
                        name, d_total * remaining, d_count * remaining, minimum, maximum
                    )
        for (name, tracer), mark in zip(self.tracers, since[-1]):
            probe = tracer.totals(mark).get(name)
            if probe is not None:
                tracer.record(
                    boundary_now,
                    name,
                    "steady",
                    reads=probe["reads"] * remaining,
                    writes=probe["writes"] * remaining,
                    beats=probe["beats"] * remaining,
                    duration_ps=probe["busy_ps"] * remaining,
                )


def run_steady(
    system,
    count: int,
    step: Callable[[int], None],
    bulk: Optional[Callable[[int, int], None]] = None,
    *,
    phase: Optional[str] = None,
) -> None:
    """Run ``count`` iterations of a declared steady-state phase.

    ``step(i)`` executes iteration ``i`` through the reference path —
    timing, statistics and data.  ``bulk(start, n)`` applies the *purely
    functional* effects of iterations ``start .. start+n-1`` (data
    movement only; the compiler has already charged time and statistics).

    The phase compiles only when every gate passes: ``bulk`` provided,
    ``phase`` declared on ``system`` via :func:`declare_phases`, the
    fast path enabled, and signatures that converge within
    :data:`MAX_PROBES`.  Otherwise every iteration runs ``step`` — the
    result is identical either way; only host time and the number of
    trace events differ.
    """
    count = int(count)
    if count <= 0:
        return

    compilable = (
        bulk is not None
        and count > MIN_PROBES
        and phase is not None
        and phase_declared(system, phase)
        and fastpath.enabled()
    )
    if not compilable:
        for i in range(count):
            step(i)
        _TELEMETRY.reference_iterations += count
        return

    watch = _Watch(system)
    prev_snap = watch.snapshot()
    prev_sig = None
    i = 0
    while i < count and i < MAX_PROBES:
        step(i)
        i += 1
        snap = watch.snapshot()
        sig = watch.signature(prev_snap, snap)
        if sig is not None and sig == prev_sig and i >= MIN_PROBES:
            remaining = count - i
            if remaining:
                bulk(i, remaining)
                watch.extrapolate(sig, remaining, prev_snap)
            _TELEMETRY.compiled_phases += 1
            _TELEMETRY.probe_iterations += i
            _TELEMETRY.extrapolated_iterations += remaining
            return
        prev_snap = snap
        prev_sig = sig

    # Irregular phase: finish through the reference path.
    _TELEMETRY.reference_iterations += count
    while i < count:
        step(i)
        i += 1
