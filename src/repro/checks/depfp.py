"""The package digest: the source-tree component of the result-cache key.

One SHA-256 over the sorted ``(relative path, file sha256)`` pairs of every
``*.py`` under the imported ``repro`` package, computed once per process.
``repro.sweep.cache`` keys on it, so any source edit — a helper, a scenario
body, the orchestration layer — invalidates every entry.  That is coarser
than tracking what each scenario reaches, and sound by construction: no
dependency can be missed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

from .lint import package_root

_DIGEST: Optional[str] = None


def source_digest(root: Path) -> str:
    """SHA-256 over the sorted ``(relative path, file sha256)`` pairs of
    every ``*.py`` file under ``root``; renaming a file changes it too."""
    files = sorted((path.relative_to(root).as_posix(), path) for path in root.rglob("*.py"))
    digest = hashlib.sha256()
    for relative, path in files:
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{relative}\0{content}\n".encode("utf-8"))
    return digest.hexdigest()


def package_graph() -> str:
    """The package digest of the imported ``repro`` package, memoized for
    the life of the process.  (The old name is kept: ``perfbench`` times
    it as the ``checks.graph`` span.)"""
    global _DIGEST
    if _DIGEST is None:
        _DIGEST = source_digest(package_root())
    return _DIGEST


def scenario_fingerprint(scenario) -> str:
    """The package digest combined with the scenario body's own hash, so
    scenarios defined outside the package (tests) are covered too."""
    material = f"{package_graph()}\n{scenario.source_fingerprint()}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def rig_fingerprint() -> str:
    """The package digest.  No cache keys on it any more; like
    :func:`package_graph`, the name is kept because ``perfbench`` times it
    (as the ``checks.fingerprint`` span)."""
    return package_graph()
