"""Per-process, by-value memo for the simulation calibrations.

:func:`repro.serve.costtable.calibrate` and
:func:`repro.faults.montecarlo.calibrate_rig` measure a rig by running
it, and what they measure is a pure function of their arguments.  Each
distinct calibration is therefore simulated once per process:
:func:`memoized` stores the (immutable) result of a miss together with
the engine-telemetry and rig-memo counter movement the miss made, and a
hit adds that recorded delta back.  Every observable -- the result, the
:func:`~repro.engine.batch.telemetry` counters and the
:func:`~repro.bitstream.generator.rig_memo_telemetry` counters -- moves
the same on a hit as on a miss.

Keys are compared by value.  A rig builder inside a key is compared by
identity, so a builder must be a pure function of its arguments (as
:func:`repro.scenarios.rigs.build_rig64` is); a fresh lambda is simply a
new key and misses.  A ``compute`` that raises propagates and stores
nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, List, Tuple, TypeVar

from ..bitstream.generator import rig_memo_telemetry
from . import batch

T = TypeVar("T")

#: Distinct calibrations kept per process; the least recently used is
#: evicted beyond this (the same bound as ``placement_block``).
MEMO_SIZE = 32

#: key -> (result, counter deltas in :func:`_counters` order).
_MEMO: "OrderedDict[Hashable, Tuple[object, Tuple[int, ...]]]" = OrderedDict()


def _counters() -> List[Tuple[object, str]]:
    """(owner, attribute) of every counter a calibration moves."""
    engine = batch.telemetry()
    rig = rig_memo_telemetry()
    return [(engine, name) for name in engine.as_dict()] + [(rig, "hits"), (rig, "misses")]


def memoized(key: Hashable, compute: Callable[[], T]) -> T:
    """``compute()`` once per ``key`` per process; a hit replays the
    counter movement of the miss and returns the stored result."""
    counters = _counters()
    entry = _MEMO.get(key)
    if entry is not None:
        _MEMO.move_to_end(key)
        value, delta = entry
        for (owner, name), step in zip(counters, delta):
            setattr(owner, name, getattr(owner, name) + step)
        return value  # type: ignore[return-value]
    before = [getattr(owner, name) for owner, name in counters]
    value = compute()
    after = [getattr(owner, name) for owner, name in counters]
    _MEMO[key] = (value, tuple(a - b for a, b in zip(after, before)))
    if len(_MEMO) > MEMO_SIZE:
        _MEMO.popitem(last=False)
    return value


def reset_calibration_memo() -> None:
    """Drop every memoized calibration (tests)."""
    _MEMO.clear()
