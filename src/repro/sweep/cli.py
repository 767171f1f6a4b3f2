"""``repro sweep`` — list and orchestrate the scenario registry.

Examples::

    repro sweep list                       # every scenario with tags
    repro sweep list --tag table           # filter by tag
    repro sweep run --jobs 4               # full sweep, process pool
    repro sweep --smoke --jobs 2 --json    # quick pass ("run" is implied)
    repro sweep run table04_hash32 --refresh
    repro sweep run --tag ablation --no-cache

The run writes one merged machine-readable report (``BENCH_sweep.json``,
schema ``repro-sweep/1``) plus, with ``--tables DIR``, the rendered
paper-style tables.  Exit status is non-zero iff any scenario failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..scenarios import all_scenarios, get_scenario
from .cache import ResultCache
from .report import render_report, write_report
from .results_io import (
    REPORT_FILENAME,
    default_cache_dir,
    write_text_result,
)
from .runner import apply_seed_base, run_sweep


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action_or_names",
        nargs="*",
        metavar="NAME",
        help="'list', 'run', or scenario names to run (default: run all)",
    )
    parser.add_argument("--tag", action="append", default=None, metavar="TAG",
                        help="only scenarios carrying TAG (repeatable)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = serial)")
    parser.add_argument("--smoke", action="store_true",
                        help="apply each scenario's reduced smoke parameters")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute even on cache hits (results are re-stored)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default benchmarks/results/cache)")
    parser.add_argument("--out", default=REPORT_FILENAME, metavar="FILE",
                        help=f"report path (default {REPORT_FILENAME})")
    parser.add_argument("--tables", default=None, metavar="DIR",
                        help="also write each rendered table under DIR")
    parser.add_argument("--seed-base", type=int, default=None, metavar="N",
                        help="derive per-scenario workload seeds from N "
                        "(default: the paper's seeds)")
    parser.add_argument("--set", dest="overrides", action="append", default=None,
                        metavar="NAME:KEY=VALUE",
                        help="override one scenario parameter (repeatable); "
                        "VALUE is parsed as JSON, falling back to a string "
                        "(e.g. --set mc_campaign:trials=5000)")
    parser.add_argument("--explain", action="store_true",
                        help="attribute every cache miss to the key "
                        "component(s) that changed vs the stored entries")
    parser.add_argument("--list", dest="list_only", action="store_true",
                        help="list matching scenarios instead of running")


def parse_overrides(entries: Optional[List[str]]) -> Optional[dict]:
    """``NAME:KEY=VALUE`` strings -> ``{name: {key: value}}``.

    Values parse as JSON first (``5000`` -> int, ``true`` -> bool,
    ``"seu,commit"`` needs no quoting — the fallback keeps it a string).
    Repeating the same ``NAME:KEY`` with the *same* value is harmless;
    repeating it with a conflicting value aborts — silently keeping the
    last entry would make long command lines lie about what ran.
    """
    if not entries:
        return None
    import json

    overrides: dict = {}
    for raw in entries:
        head, sep, value = raw.partition("=")
        name, colon, key = head.partition(":")
        if not sep or not colon or not name or not key:
            raise SystemExit(
                f"--set expects NAME:KEY=VALUE, got {raw!r}"
            )
        try:
            parsed = json.loads(value)
        except ValueError:
            parsed = value
        per_scenario = overrides.setdefault(name, {})
        if key in per_scenario and per_scenario[key] != parsed:
            raise SystemExit(
                f"--set expects one value per NAME:KEY, but {name}:{key} "
                f"was given both {per_scenario[key]!r} and {parsed!r}"
            )
        per_scenario[key] = parsed
    return overrides


def _select(args: argparse.Namespace):
    """Resolve the action and scenario set from positionals + flags."""
    names = list(args.action_or_names)
    action = "run"
    if names and names[0] in ("list", "run"):
        action = names.pop(0)
    if args.list_only:
        action = "list"
    if names:
        selected = [get_scenario(name) for name in names]
        if args.tag:
            wanted = set(args.tag)
            selected = [s for s in selected if wanted & set(s.tags)]
    else:
        selected = all_scenarios(tags=args.tag)
    return action, selected


def run(args: argparse.Namespace) -> int:
    action, selected = _select(args)
    overrides = parse_overrides(getattr(args, "overrides", None))

    if action == "list":
        if args.json:
            import json

            print(json.dumps(
                [
                    {
                        "name": s.name,
                        "title": s.title,
                        "tags": list(s.tags),
                        "params": dict(s.params),
                        "smoke_params": dict(s.smoke_params),
                    }
                    for s in selected
                ],
                indent=2,
            ))
        else:
            for s in selected:
                tags = ",".join(s.tags) or "-"
                print(f"{s.name:28s} [{tags}] {s.title}")
            print(f"{len(selected)} scenario(s)")
        return 0

    if not selected:
        print("no scenarios match the selection", file=sys.stderr)
        return 2

    cache = None
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(default_cache_dir())
        cache = ResultCache(cache_dir)

    # --explain snapshots must be taken *before* the run stores fresh
    # entries (afterwards every key would trivially match its own entry).
    explanations = {}
    if args.explain and cache is not None:
        for entry in selected:
            per_scenario = overrides.get(entry.name) if overrides else None
            params = apply_seed_base(
                entry.name,
                entry.resolve_params(per_scenario, smoke=args.smoke),
                args.seed_base,
            )
            explanations[entry.name] = cache.explain(entry, params)

    def progress(outcome) -> None:
        if args.json:
            return  # keep stdout pure JSON
        mark = "ok " if outcome.status == "ok" else "FAIL"
        retry = " (serial retry)" if outcome.retried_serially else ""
        print(
            f"  {mark} {outcome.name:28s} cache={outcome.cache:7s} "
            f"{outcome.host_seconds:8.3f}s{retry}"
        )

    outcome = run_sweep(
        selected,
        jobs=max(1, args.jobs),
        cache=cache,
        refresh=args.refresh,
        smoke=args.smoke,
        seed_base=args.seed_base,
        progress=progress,
        overrides=overrides,
    )

    if args.tables:
        for entry in outcome.outcomes:
            if entry.result is not None:
                write_text_result(args.tables, entry.name, entry.result.table_text())

    if explanations and not args.json:
        missed = [o for o in outcome.outcomes if o.cache in ("miss", "refresh")]
        if missed:
            print("cache-miss attribution:")
            for entry in missed:
                for line in explanations.get(entry.name, []):
                    print(f"  {entry.name}: {line}")
        else:
            print("cache-miss attribution: every scenario hit the cache")

    payload = write_report(outcome, args.out, cache_dir=cache_dir)
    if args.json:
        print(payload)
    else:
        stats = outcome.cache_stats
        hits = stats.get("hits", 0)
        misses = stats.get("misses", 0)
        print(
            f"{len(outcome.outcomes)} scenario(s), jobs={outcome.jobs}: "
            f"{hits} cache hit(s), {misses} miss(es), "
            f"{outcome.host_seconds:.3f}s wall-clock "
            f"(serial compute {sum(e.compute_seconds for e in outcome.outcomes):.3f}s)"
        )
        for failure in outcome.failures:
            print(f"FAILED {failure.name}: {failure.error}", file=sys.stderr)
        print(f"report: {args.out}")
    return 0 if outcome.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Parallel scenario-sweep orchestrator with result caching.",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
