"""Command-line front end for :mod:`repro.checks`.

Reached two ways with identical flags::

    python -m repro.checks [...]        # standalone
    python -m repro check [...]         # subcommand of the main CLI

Default behaviour runs **both layers**: the simulator-discipline
self-lint over the installed ``repro`` package and the system/bitstream
DRC over the example systems (32, 64, dual).  Exit status is non-zero iff
any error-severity diagnostic was produced, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .diagnostics import CheckReport, all_rules
from .drc_system import check_system
from .lint import lint_package, lint_paths, package_root

#: Example systems the DRC sweep covers.
_SYSTEMS = ("32", "64", "dual")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared flag set on ``parser``."""
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )
    parser.add_argument(
        "--lint-only", action="store_true", help="run only the codebase self-lint"
    )
    parser.add_argument(
        "--drc-only", action="store_true", help="run only the system/bitstream DRC"
    )
    parser.add_argument(
        "--system",
        default="all",
        choices=["all", *_SYSTEMS],
        help="which example system(s) the DRC sweep builds (default: all)",
    )
    parser.add_argument(
        "--path",
        action="append",
        default=None,
        metavar="FILE_OR_DIR",
        help="lint these paths instead of the installed repro package "
        "(repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every registered rule and exit"
    )


def _build_example(which: str):
    from ..core import build_system32, build_system64, build_system64_dual

    if which == "32":
        return build_system32()
    if which == "64":
        return build_system64()
    system, _slot = build_system64_dual()
    return system


def run(args: argparse.Namespace) -> int:
    """Execute the checks described by parsed ``args``; returns exit status."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity.value}]  {rule.title}")
            print(f"         {rule.rationale}")
        return 0

    report = CheckReport()
    ran: List[str] = []

    if not args.drc_only:
        if args.path:
            root = package_root().parent
            lint_paths([Path(p) for p in args.path], display_root=root, report=report)
            ran.append(f"lint({', '.join(args.path)})")
        else:
            lint_package(report=report)
            ran.append("self-lint(repro)")

    if not args.lint_only:
        systems = _SYSTEMS if args.system == "all" else (args.system,)
        for which in systems:
            check_system(_build_example(which), report=report)
            ran.append(f"drc(system{which})")

    if args.json:
        print(report.to_json())
    else:
        print(f"checks run: {', '.join(ran)}")
        print(report.format_text())
    return 1 if report.has_errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.checks",
        description="Static analysis for the repro library: system/bitstream "
        "DRC + simulator-discipline lint.",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
