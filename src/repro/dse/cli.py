"""``repro dse`` — explore the platform design space.

Examples::

    repro dse --smoke                       # quick factorial + short search
    repro dse --mode factorial --jobs 4     # OFAT star design, process pool
    repro dse --mode evolve --generations 6 --population 16 --seed 7
    repro dse --smoke --json                # machine-readable report to stdout

Every candidate evaluation runs through the cached sweep runner, so a
re-run (or a later generation revisiting known platforms) costs cache
lookups instead of simulation.  The run writes ``BENCH_dse.json``
(schema ``repro-dse/1``); with a fixed ``--seed`` the report is
byte-identical across runs and across ``--jobs`` settings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..sweep.cache import ResultCache
from ..sweep.results_io import default_cache_dir
from .evaluate import Evaluator
from .evolve import evolve
from .factorial import star_design
from .report import DSE_REPORT_FILENAME, build_report, render_text, write_report
from .space import default_space


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", default="both",
                        choices=["factorial", "evolve", "both"],
                        help="exploration strategy (default both: star design "
                        "then an evolutionary search warm-started from it)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for candidate evaluation")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced probe workloads + a short search")
    parser.add_argument("--seed", type=int, default=2006, metavar="N",
                        help="search seed (default 2006)")
    parser.add_argument("--generations", type=int, default=None, metavar="N",
                        help="evolutionary generations (default 4; 2 with --smoke)")
    parser.add_argument("--population", type=int, default=None, metavar="N",
                        help="population size (default 12; 8 with --smoke)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute even on cache hits (results are re-stored)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default benchmarks/results/cache)")
    parser.add_argument("--out", default=DSE_REPORT_FILENAME, metavar="FILE",
                        help=f"report path (default {DSE_REPORT_FILENAME})")


def run(args: argparse.Namespace) -> int:
    space = default_space()
    generations = args.generations if args.generations is not None else (2 if args.smoke else 4)
    population = args.population if args.population is not None else (8 if args.smoke else 12)

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or str(default_cache_dir()))

    def progress(outcome) -> None:
        if args.json:
            return  # keep stdout pure JSON
        mark = "ok " if outcome.status == "ok" else "FAIL"
        print(
            f"  {mark} {outcome.label:28s} cache={outcome.cache:7s} "
            f"{outcome.host_seconds:8.3f}s"
        )

    evaluator = Evaluator(
        space,
        jobs=max(1, args.jobs),
        cache=cache,
        refresh=args.refresh,
        smoke=args.smoke,
        progress=progress,
    )

    search = None
    rejected = []
    seed_points = None
    if args.mode in ("factorial", "both"):
        design = star_design(space)
        rejected = design.rejected
        evaluator.evaluate(design.points)
        seed_points = design.points
    if args.mode in ("evolve", "both"):
        search = evolve(
            space,
            evaluator,
            generations=generations,
            population=population,
            seed=args.seed,
            seed_points=seed_points,
        )

    report = build_report(
        space,
        evaluator,
        mode=args.mode,
        smoke=args.smoke,
        search=search,
        rejected=rejected,
    )
    payload = write_report(report, args.out)
    if args.json:
        print(payload)
    else:
        print(render_text(report))
        print(f"report: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro dse",
        description="Design-space exploration with Pareto fronts over the "
        "cached sweep runner.",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
