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
   (CPU time, every declared watermark, pending completions such as the
   bridge's posted-write buffer relative to *now*), bus clock-phase
   offsets, and exact per-group statistics deltas (counters plus
   accumulator total/count with unchanged min/max); settled state such
   as the CPU caches' tags and dirty bits must also be identical at
   consecutive boundaries, since a cache that still fills or evicts
   makes the next iteration cost something else;
2. once two consecutive signatures are identical, the phase is provably
   periodic: every further iteration is a time-shifted copy, so the
   remaining iterations are applied **closed-form** — one clock jump
   (``dt x remaining``), one :meth:`StatsGroup.count_many` /
   :meth:`StatsGroup.record_many` charge per group, shifted pending
   completions — plus one vectorized ``bulk`` callback for the functional
   effects (data movement only, never time or statistics);
3. anything irregular — the fast path disabled via
   ``REPRO_NO_FAST_PATH``, no ``bulk`` callback, a loop too short to
   probe, or signatures that never converge — falls back to
   per-iteration reference execution, which is always correct.

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

**What is watched** is declared, not listed here: the
:class:`~repro.core.system.System` registers each of its components
once, and each component class declares its own timing state (see
:class:`_Watch`).  A component added to the platform is watched once it
is registered; ``tests/test_engine_batch.py`` walks each system's object
graph to hold that.

**Division of labour** — the compiler owns simulated time and every
watched statistics group (all registered components but those that
declare their statistics functional); ``bulk`` callbacks own data
movement and functional counters (FIFO statistics via
``push_many``/``pop_array``, ICAP readback counts via
``bulk_readback``), matching the per-word reference exactly.  A ``bulk``
callback must therefore never touch engine state — LINT008 flags
violations (see ``docs/CHECKS.md``).

Whether a loop compiles is **measured, not declared**: any loop that
supplies a ``bulk`` callback compiles once its signatures converge, on
every system, and a loop whose iterations differ in cost never converges
and so runs the reference path.

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
    "run_steady",
    "telemetry",
    "reset_telemetry",
    "BatchTelemetry",
    "MIN_PROBES",
    "MAX_PROBES",
]

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


# -- the compiler ----------------------------------------------------------

class _Watch:
    """Snapshot/extrapolate view over everything timing-relevant.

    Reads the system's component inventory (``system.components``) and
    the timing state each component class declares in its own module:

    * ``WATERMARKS`` — integer timestamps (bus busy watermarks, the PLB
      Dock's DMA watermark, the UART transmitter), each of which must
      either track *now* or sit idle behind it;
    * ``PENDING`` — queues of completion timestamps (the bridge's posted
      writes), whose entries still pending must repeat relative to *now*;
    * ``SETTLED`` — arrays that must be identical at consecutive
      boundaries (the CPU caches' tags and dirty bits): they are never
      extrapolated, so only phases whose cache footprint is already
      settled compile;
    * ``PHASE_CLOCKS`` — clocks whose phase at a boundary must repeat (the
      buses' clocks);
    * ``FUNCTIONAL_STATS`` — the component's statistics group belongs to
      the functional layer (the dock FIFO's, charged by
      ``push_many``/``pop_array`` inside the reference path and the
      ``bulk`` callbacks alike) and is not watched.

    Every other component's statistics group is watched, and the CPU's
    time cursor is the phase's *now*.  A component is covered by being
    registered on the :class:`~repro.core.system.System`, not by being
    named here.
    """

    def __init__(self, system) -> None:
        self.cpu = system.cpu
        components = system.components

        def declared(kind: str) -> List[Tuple[object, str]]:
            return [(c, attr) for c in components for attr in getattr(c, kind, ())]

        self.cursors = declared("WATERMARKS")
        self.pending = declared("PENDING")
        self.settled = declared("SETTLED")
        self.clocks = [getattr(c, attr) for c, attr in declared("PHASE_CLOCKS")]
        self.groups = [
            c.stats for c in components if not getattr(c, "FUNCTIONAL_STATS", False)
        ]
        self.tracers = [
            (c.name, c.tracer) for c in components if getattr(c, "tracer", None) is not None
        ]

    def snapshot(self):
        """Absolute state at an iteration boundary (cheap, no copies of data),
        with each tracer's event count last."""
        now = self.cpu.now_ps
        cursor_vals = tuple(getattr(obj, attr) for obj, attr in self.cursors)
        pending = tuple(tuple(getattr(obj, attr)) for obj, attr in self.pending)
        settled = tuple(getattr(obj, attr).tobytes() for obj, attr in self.settled)
        stats = [group.state() for group in self.groups]
        marks = tuple(len(tracer) for _, tracer in self.tracers)
        return (now, cursor_vals, pending, settled, stats, marks)

    def signature(self, prev, cur):
        """The iteration's timeline signature, or ``None`` if irregular.

        Two consecutive equal signatures prove periodicity: all relative
        cursor state is reproduced at the boundary, clock phases repeat,
        and the statistics deltas are constant with untouched accumulator
        extremes — so by induction every further iteration is the same
        iteration shifted by ``dt``.  Settled state is compared absolutely:
        an iteration that moved it has no signature.
        """
        pnow, pcursors, ppending, psettled, pstats, _ = prev
        cnow, ccursors, cpending, csettled, cstats, _ = cur
        dt = cnow - pnow
        if dt <= 0 or psettled != csettled:
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

        # Completions still pending at the boundary must form the same
        # pattern relative to *now*; drained entries are semantically gone.
        rel_cur = []
        for pqueue, cqueue in zip(ppending, cpending):
            rel = tuple(t - cnow for t in cqueue if t > cnow)
            if tuple(t - pnow for t in pqueue if t > pnow) != rel:
                return None
            rel_cur.append(rel)

        phases = tuple(clock.next_edge(cnow) - cnow for clock in self.clocks)
        prev_phases = tuple(clock.next_edge(pnow) - pnow for clock in self.clocks)
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

        return (dt, tuple(cursor_kinds), tuple(rel_cur), phases, tuple(stat_sigs))

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
        for obj, attr in self.pending:
            setattr(
                obj, attr, deque(t + shift for t in getattr(obj, attr) if t > boundary_now)
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
) -> None:
    """Run ``count`` iterations of a steady-state phase.

    ``step(i)`` executes iteration ``i`` through the reference path —
    timing, statistics and data.  ``bulk(start, n)`` applies the *purely
    functional* effects of iterations ``start .. start+n-1`` (data
    movement only; the compiler has already charged time and statistics).

    The phase compiles only when every gate passes: the fast path
    enabled, ``bulk`` provided, more than :data:`MIN_PROBES` iterations,
    and signatures that converge within :data:`MAX_PROBES`.  Otherwise
    every iteration runs ``step`` — the result is identical either way;
    only host time and the number of trace events differ.
    """
    count = int(count)
    if count <= 0:
        return

    if bulk is None or count <= MIN_PROBES or not fastpath.enabled():
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
