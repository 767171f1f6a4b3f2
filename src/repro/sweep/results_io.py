"""Result-file plumbing for the sweep and DSE command lines.

Centralises "where do rendered tables and reports go" so nothing else
assumes the results directory exists: every writer creates it on demand,
which keeps a fresh clone working.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

PathLike = Union[str, Path]

#: Conventional results root, relative to the invoking directory.
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"

#: Conventional cache root under the results directory.
CACHE_SUBDIR = "cache"

#: Conventional sweep-report filename.
REPORT_FILENAME = "BENCH_sweep.json"


def ensure_dir(path: PathLike) -> Path:
    """Create ``path`` (and parents) if missing; return it as a Path."""
    resolved = Path(path)
    resolved.mkdir(parents=True, exist_ok=True)
    return resolved


def default_results_dir() -> Path:
    """``benchmarks/results`` under the current working directory."""
    return DEFAULT_RESULTS_DIR


def default_cache_dir(results_dir: PathLike = None) -> Path:
    """The result cache root (``<results>/cache``)."""
    root = Path(results_dir) if results_dir is not None else default_results_dir()
    return root / CACHE_SUBDIR


def write_text_result(results_dir: PathLike, name: str, text: str) -> Path:
    """Write one rendered table/figure as ``<results_dir>/<name>.txt``."""
    root = ensure_dir(results_dir)
    path = root / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def write_json(path: PathLike, payload: str) -> Path:
    """Write a rendered JSON document, creating parent directories."""
    target = Path(path)
    if target.parent != Path("."):
        ensure_dir(target.parent)
    target.write_text(payload, encoding="utf-8")
    return target
