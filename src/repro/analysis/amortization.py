"""Reconfiguration amortisation: when is a swap worth it?

The paper's intent is "to time-share the available hardware to support
multiple (and mutually exclusive) tasks".  Each swap costs a full partial
reconfiguration (tens of ms through the OPB HWICAP), so the decision per
work episode is: reconfigure and run in hardware, or stay in software?

:func:`break_even_runs` answers that question, and
:func:`measure_episode` calibrates the three timings on a live system.
The serve scheduler applies the same rule to its cost tables in
:func:`repro.serve.decisions.decide_segment`.
"""

from __future__ import annotations

import math
from typing import Dict

from ..errors import TransferError


def break_even_runs(reconfig_ps: int, sw_run_ps: int, hw_run_ps: int) -> float:
    """Runs of a task needed before reconfigure+hardware beats software.

    Edge-case contract:

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
