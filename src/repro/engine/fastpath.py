"""Global switch for the vectorized burst fast path.

The bus transfer stack keeps two implementations of two hot loops: the
per-request reference path (ground truth) and a closed-form vectorized
path that produces *identical* simulated timestamps, data and aggregate
statistics while doing O(1) Python work per burst instead of O(beats).
The switch reaches two sites: ``Bus.request_burst`` (and through it the
DMA engine) and ``run_steady`` compilation.  The configuration-data path
(BitLinker, packet codec, HWICAP) and the serve scheduler have one
implementation and no switch.  A trace hook selects nothing: both paths
trace, the closed forms as aggregated events with equal totals.
This module is the single gate the forked sites consult:

* the ``REPRO_NO_FAST_PATH`` environment variable (any value other than
  ``""``/``"0"``/``"false"``) forces the reference path — used by the
  equivalence test-suite and available for debugging;
* :func:`force` overrides the environment from code (tests, benchmarks).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

#: Environment variable that disables the fast path when set truthy.
ENV_VAR = "REPRO_NO_FAST_PATH"

_FALSEY = ("", "0", "false", "False", "no")

_forced: Optional[bool] = None


def enabled() -> bool:
    """Whether the vectorized fast path may be used right now."""
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_VAR, "") in _FALSEY


def force(value: Optional[bool]) -> None:
    """Override the environment: ``True``/``False`` pin the fast path on or
    off; ``None`` restores environment control."""
    global _forced
    _forced = value


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager running its body with the fast path off."""
    previous = _forced
    force(False)
    try:
        yield
    finally:
        force(previous)


@contextmanager
def forced_on() -> Iterator[None]:
    """Context manager running its body with the fast path pinned on."""
    previous = _forced
    force(True)
    try:
        yield
    finally:
        force(previous)
