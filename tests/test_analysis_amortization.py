"""Tests for reconfiguration amortisation: break-even run counts."""

import math

import pytest

from repro.analysis import break_even_runs, measure_episode
from repro.core.apps import HwBrightnessPio
from repro.errors import TransferError
from repro.sw import SwBrightness
from repro.workloads import grayscale_image


def test_break_even_basic():
    # Save 10 us per run, pay 100 us to reconfigure -> 10 runs.
    assert break_even_runs(100_000_000, 20_000_000, 10_000_000) == pytest.approx(10.0)
    # A free swap pays off at once.
    assert break_even_runs(0, 300, 100) == 0.0


def test_break_even_infinite_when_hw_slower():
    assert break_even_runs(1, 10, 20) == math.inf
    assert break_even_runs(10_000, 200, 200) == math.inf


def test_break_even_validates():
    with pytest.raises(TransferError):
        break_even_runs(-1, 10, 5)
    with pytest.raises(TransferError):
        break_even_runs(1, 0, 5)


def test_measure_episode_on_live_system(system32, manager32):
    image = grayscale_image(16, 16, seed=95)
    costs = measure_episode(
        system32, manager32, "brightness", SwBrightness(32), HwBrightnessPio(), image
    )
    assert costs["reconfig_ps"] > 0
    assert costs["sw_run_ps"] > costs["hw_run_ps"] > 0
    runs = break_even_runs(costs["reconfig_ps"], costs["sw_run_ps"], costs["hw_run_ps"])
    assert 1 < runs < 10_000
