"""Reconfiguration amortisation: when is a swap worth it?

The paper's intent is "to time-share the available hardware to support
multiple (and mutually exclusive) tasks".  Each swap costs a full partial
reconfiguration (tens of ms through the OPB HWICAP), so the decision per
work episode is: reconfigure and run in hardware, or stay in software?

:func:`break_even_runs` answers the unit question,
:func:`break_even_table` answers it over kernel × size cost tables, and
:func:`measure_episode` calibrates the three timings on a live system.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..errors import TransferError


def break_even_runs(reconfig_ps: int, sw_run_ps: int, hw_run_ps: int) -> float:
    """Runs of a task needed before reconfigure+hardware beats software.

    Edge-case contract (shared with :func:`break_even_table`):

    * ``reconfig_ps == 0`` and hardware faster → ``0.0`` (always swap);
    * hardware not faster per run (``sw_run_ps <= hw_run_ps``) → ``inf``
      (software-always kernel — never divides by the non-positive gain);
    * negative reconfiguration time or non-positive run times raise
      :class:`~repro.errors.TransferError`.
    """
    if reconfig_ps < 0 or sw_run_ps <= 0 or hw_run_ps <= 0:
        raise TransferError("times must be positive")
    gain = sw_run_ps - hw_run_ps
    if gain <= 0:
        return math.inf
    return reconfig_ps / gain


def break_even_table(reconfig_ps, sw_run_ps, hw_run_ps) -> np.ndarray:
    """Vectorized :func:`break_even_runs` over kernel×size cost tables.

    Broadcasts the three inputs and returns a float array of break-even
    run counts with the same edge-case contract as the scalar form:
    ``inf`` marks software-always entries, ``0.0`` marks free swaps, and
    the division is masked so no divide-by-zero ever executes (the
    historical bug this helper centralises away from callers).
    """
    reconfig = np.asarray(reconfig_ps, dtype=np.int64)
    sw = np.asarray(sw_run_ps, dtype=np.int64)
    hw = np.asarray(hw_run_ps, dtype=np.int64)
    if np.any(reconfig < 0) or np.any(sw <= 0) or np.any(hw <= 0):
        raise TransferError("times must be positive")
    reconfig, sw, hw = np.broadcast_arrays(reconfig, sw, hw)
    gain = sw - hw
    out = np.full(gain.shape, np.inf, dtype=np.float64)
    profitable = gain > 0
    np.divide(reconfig, gain, out=out, where=profitable)
    return out


def measure_episode(system, manager, kernel_name: str, sw_task, hw_driver, *args) -> Dict[str, int]:
    """Calibrate one episode's per-run costs on a live system.

    Loads the kernel (measuring reconfiguration), runs the hardware driver
    and the software task once each, and returns the three timings.
    """
    reconfig = manager.load(kernel_name)
    hw = hw_driver.run(system, *args)
    sw = sw_task.run(system, *args)
    return {
        "reconfig_ps": reconfig.elapsed_ps,
        "hw_run_ps": hw.elapsed_ps,
        "sw_run_ps": sw.elapsed_ps,
    }
