"""Shared fixtures.

Systems are rebuilt per test (they carry mutable simulated state); the
static baseline computation is the expensive part, so a session-scoped
cache of prebuilt *pristine* systems is kept and deep state is never
shared — each test gets a fresh build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_system32, build_system64
from repro.core.reconfig import ReconfigManager
from repro.engine.memo import reset_calibration_memo
from repro.kernels import (
    BlendKernel,
    BrightnessKernel,
    FadeKernel,
    JenkinsHashKernel,
    PatternMatchKernel,
)
from repro.workloads import binary_image, binary_pattern, grayscale_image


@pytest.fixture(autouse=True)
def _cold_calibrations():
    """Every test starts with no memoized calibration, so a monkeypatched
    model is never served a table or outcome model measured without it."""
    reset_calibration_memo()


@pytest.fixture
def system32():
    return build_system32()


@pytest.fixture
def system64():
    return build_system64()


@pytest.fixture
def pattern():
    return binary_pattern(seed=11)


@pytest.fixture
def small_image():
    return binary_image(16, 24, seed=12)


@pytest.fixture
def gray_pair():
    return grayscale_image(16, 16, seed=13), grayscale_image(16, 16, seed=14)


@pytest.fixture
def manager32(system32, pattern):
    manager = ReconfigManager(system32)
    manager.register(PatternMatchKernel(pattern))
    manager.register(JenkinsHashKernel())
    manager.register(BrightnessKernel(32))
    manager.register(BlendKernel())
    manager.register(FadeKernel(0.5))
    return manager


@pytest.fixture
def manager64(system64, pattern):
    from repro.kernels import Sha1Kernel

    manager = ReconfigManager(system64)
    manager.register(PatternMatchKernel(pattern))
    manager.register(JenkinsHashKernel())
    manager.register(BrightnessKernel(32))
    manager.register(BlendKernel())
    manager.register(FadeKernel(0.5))
    manager.register(Sha1Kernel())
    return manager


def pack_bytes_to_words(values, word_bytes=4):
    """Helper shared by dock/kernel tests."""
    words = []
    for i in range(0, len(values), word_bytes):
        chunk = values[i : i + word_bytes]
        words.append(sum(int(v) << (8 * j) for j, v in enumerate(chunk)))
    return words


@pytest.fixture
def pack_words():
    return pack_bytes_to_words


@pytest.fixture(scope="session")
def shipped_lint():
    """The self-lint report of the shipped ``repro`` package, built once:
    linting the whole tree takes over a second, and the tree does not
    change during a session."""
    from repro.checks import lint_package

    return lint_package()


@pytest.fixture
def cached_self_lint(shipped_lint, monkeypatch):
    """Make the checks CLI reuse :func:`shipped_lint` instead of re-linting."""
    def lint_package(report=None):
        from repro.checks import CheckReport

        report = report if report is not None else CheckReport()
        report.diagnostics.extend(shipped_lint.diagnostics)
        return report

    monkeypatch.setattr("repro.checks.cli.lint_package", lint_package)
