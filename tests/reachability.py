#!/usr/bin/env python3
"""Which ``src/repro`` functions does no shipped entry point reach?

Runs every entry point in-process under a ``sys.setprofile`` hook and
lists, per file, the ``def``\\ s whose code object was never entered:

* cold, warm, ``--explain``, ``--tables`` and ``--smoke --no-cache`` sweeps;
* every CLI subcommand on each system;
* ``serve`` with each arrival model;
* ``faults --executor both --heatmap`` and ``dse --mode both --smoke``;
* ``python -m repro.checks`` and every script under ``examples/``.

A def nested in an unreached def is counted with its parent, so each
line is counted once.  Line counts are ``ast`` spans, decorators
included.  The result is an upper bound: option values not listed here
could reach a few more defs.  Code reached only with
``REPRO_NO_FAST_PATH=1`` shows up as unreached.

Stdlib only; CLI output goes to a temporary directory.  Run from the
repository root::

    PYTHONPATH=src python tests/reachability.py [--max-lines N]

``--max-lines N`` exits 1 when the unreached total exceeds ``N``.  Exit
status 2 means an entry point failed, so the trace is incomplete.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SYSTEMS = ("32", "64", "dual")


def cli_runs(tmp: Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` for every ``repro.cli.main`` call in the trace."""
    cache = ["--cache-dir", str(tmp / "cache")]
    out = ["--out", str(tmp / "BENCH_sweep.json")]
    runs: List[Tuple[str, List[str]]] = [
        ("sweep cold", ["sweep", "run", *cache, *out]),
        ("sweep warm", ["sweep", "run", *cache, *out]),
        ("sweep --explain", ["sweep", "run", "--explain", "--refresh", *cache, *out]),
        ("sweep --tables", ["sweep", "run", "--json", "--tables", str(tmp / "tables"),
                            *cache, *out]),
        ("sweep --smoke --no-cache", ["sweep", "--smoke", "--no-cache", *out]),
        ("sweep list", ["sweep", "list"]),
        ("sweep --list", ["sweep", "--list", "--tag", "serve"]),
        ("devices", ["devices"]),
        ("floorplan generic", ["floorplan", "--system", "generic"]),
        ("check", ["check"]),
        ("check --json", ["check", "--json"]),
        ("check --list-rules", ["check", "--list-rules"]),
        ("faults", ["faults", "--trials", "400", "--executor", "both", "--heatmap"]),
        ("faults --json", ["faults", "--trials", "200", "--json"]),
        ("dse", ["dse", "--mode", "both", "--smoke", *cache,
                 "--out", str(tmp / "BENCH_dse.json")]),
        ("dse --json", ["dse", "--mode", "both", "--smoke", "--json", *cache,
                        "--out", str(tmp / "BENCH_dse.json")]),
    ]
    for system in SYSTEMS:
        flag = ["--system", system]
        runs += [
            (f"info {system}", ["info", *flag]),
            (f"floorplan {system}", ["floorplan", *flag]),
            (f"transfers {system}", ["transfers", *flag, "--words", "512"]),
            (f"demo {system}", ["demo", *flag]),
            (f"demo --verify {system}", ["demo", *flag, "--verify", "--no-drc"]),
            (f"assess {system}", ["assess", *flag, "--words-in", "1024",
                                  "--words-out", "1024", "--software-us", "500"]),
            (f"trace {system}", ["trace", *flag, "--words", "64", "--csv"]),
        ]
    from repro.workloads.traces import ARRIVAL_MODELS

    for arrival in ARRIVAL_MODELS:
        runs.append((f"serve {arrival}",
                     ["serve", "--arrival", arrival, "--requests", "3000"]))
    runs.append(("serve --json", ["serve", "--requests", "3000", "--json"]))
    return runs


def trace_entry_points(tmp: Path) -> Tuple[Set[object], List[str]]:
    """Run every entry point; return the code objects entered and failures.

    The hook is on from the first ``repro`` import, so import-time calls
    (decorators, registries) count as reached.
    """
    seen: Set[object] = set()
    add = seen.add

    def hook(frame, event, arg):
        add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        from repro import cli
        from repro.checks import cli as checks_cli

        runs = [(label, partial(cli.main, argv)) for label, argv in cli_runs(tmp)]
        runs.append(("python -m repro.checks", partial(checks_cli.main, [])))
        runs += [(f"examples/{path.name}", partial(runpy.run_path, str(path), run_name="__main__"))
                 for path in sorted((REPO / "examples").glob("*.py"))]
        failures = [failure for label, call in runs if (failure := _run_one(label, call))]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen, failures


def _run_one(label: str, call) -> str:
    """Run one entry point with its output discarded; ``""`` if it passed."""
    start = time.perf_counter()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = call()
        status = result if isinstance(result, int) else 0  # run_path returns a dict
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # noqa: BLE001 - reported, then the trace goes on
        status = f"{type(exc).__name__}: {exc}"
    print(f"  {time.perf_counter() - start:6.1f} s  {label}", file=sys.stderr)
    return "" if status in (0, None) else f"{label}: exit {status}"


def defs_of(path: Path) -> List[Tuple[int, int, str, Tuple[int, ...]]]:
    """``(first, last, qualname, parent_def_firsts)`` for every def in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: List[Tuple[int, int, str, Tuple[int, ...]]] = []

    def visit(node, prefix: str, parents: Tuple[int, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found.append((first, child.end_lineno, name, parents))
                visit(child, f"{name}.", parents + (first,))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parents)
            else:
                visit(child, prefix, parents)

    visit(tree, "", ())
    return found


def unreached(package: Path, seen: Set[object]) -> Dict[str, List[Tuple[int, int, str]]]:
    """Per relative file: the outermost defs no traced call entered."""
    entered: Set[Tuple[str, int]] = {
        (os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen
    }
    report: Dict[str, List[Tuple[int, int, str]]] = {}
    for path in sorted(package.rglob("*.py")):
        real = os.path.realpath(path)
        defs = defs_of(path)
        missed = {first for first, _last, _name, _parents in defs
                  if (real, first) not in entered}
        rows = [(first, last, name) for first, last, name, parents in defs
                if first in missed and not missed.intersection(parents)]
        if rows:
            report[str(path.relative_to(package.parent))] = rows
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-lines", type=int, default=None, metavar="N",
                        help="exit 1 if more than N lines are unreached")
    args = parser.parse_args(argv)

    spec = importlib.util.find_spec("repro")
    if spec is None or spec.origin is None:
        parser.error("repro is not importable; run with PYTHONPATH=src")
    package = Path(spec.origin).resolve().parent
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        os.chdir(tmp)
        try:
            seen, failures = trace_entry_points(Path(tmp))
        finally:
            os.chdir(cwd)

    report = unreached(package, seen)
    total_lines = total_defs = 0
    for rel, rows in report.items():
        lines = sum(last - first + 1 for first, last, _name in rows)
        total_lines += lines
        total_defs += len(rows)
        print(f"{rel}: {lines} lines in {len(rows)} defs")
        for first, last, name in rows:
            print(f"  {first:5d}  {last - first + 1:4d}  {name}")
    print(f"unreached: {total_lines} lines in {total_defs} defs "
          f"across {len(report)} files")
    if failures:
        print("entry points that failed (the trace is incomplete):")
        for line in failures:
            print(f"  {line}")
        return 2
    if args.max_lines is not None and total_lines > args.max_lines:
        print(f"unreached lines {total_lines} exceed --max-lines {args.max_lines}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
