"""``repro serve`` — run the multi-tenant reconfiguration scheduler.

Examples::

    repro serve                                    # 100k Poisson, fifo/lru
    repro serve --requests 1000000 --queue edf     # 1M requests, EDF queue
    repro serve --arrival bursty --residency oracle
    repro serve --region-cols 17 --no-defrag       # narrow region, no compaction
    repro serve --json --out report.json

The command calibrates a cost table against the 64-bit rig, generates a
seeded arrival trace, simulates it through the vectorized engine, and
prints a service-level report (percentile latency, utilization, decision
mix, allocator health, amortization curve).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..reporting import format_table
from ..scenarios.registry import derive_seed
from ..scenarios.rigs import build_rig64
from ..workloads.traces import ARRIVAL_MODELS, make_trace
from .costtable import calibrate
from .engine import QUEUE_POLICIES, RESIDENCY_POLICIES, ServeConfig, simulate
from .report import ServeReport

_MS = 1_000_000_000


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arrival", default="poisson", choices=list(ARRIVAL_MODELS),
                        help="arrival model (default poisson)")
    parser.add_argument("--requests", type=int, default=100_000, metavar="N",
                        help="trace length (default 100000)")
    parser.add_argument("--queue", default="fifo", choices=list(QUEUE_POLICIES),
                        help="queue policy (default fifo)")
    parser.add_argument("--residency", default="lru", choices=list(RESIDENCY_POLICIES),
                        help="residency policy (default lru)")
    parser.add_argument("--seed", type=int, default=2006, metavar="N",
                        help="base seed for calibration and the trace")
    parser.add_argument("--epoch-ms", type=int, default=20, metavar="MS",
                        help="batching epoch in milliseconds (default 20)")
    parser.add_argument("--target-util", type=float, default=0.7, metavar="F",
                        help="arrival rate as a fraction of mean hardware "
                        "service rate (default 0.7)")
    parser.add_argument("--region-cols", type=int, default=None, metavar="N",
                        help="override the dynamic region width (CLB columns)")
    parser.add_argument("--no-defrag", action="store_true",
                        help="disable region compaction (evict instead)")
    parser.add_argument("--oracle-lookahead", type=int, default=64, metavar="N",
                        help="oracle residency horizon in segments (default 64)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")


def run(args: argparse.Namespace) -> int:
    table = calibrate(build_rig64, seed=args.seed)
    gap = table.mean_gap_for_utilization(args.target_util)
    trace = make_trace(
        args.arrival,
        args.requests,
        gap,
        derive_seed(args.seed, f"serve-trace:{args.arrival}"),
    )
    config = ServeConfig(
        queue=args.queue,
        residency=args.residency,
        epoch_ps=args.epoch_ms * _MS,
        region_cols=args.region_cols,
        defrag=not args.no_defrag,
        oracle_lookahead=args.oracle_lookahead,
    )
    outcome = simulate(trace, table, config)
    report = ServeReport.from_outcome(outcome)
    payload = {
        "schema": "repro-serve/1",
        "arrival": args.arrival,
        "seed": args.seed,
        "target_util": args.target_util,
        "mean_gap_ps": gap,
        "epoch_ps": config.epoch_ps,
        "report": report.to_dict(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
        return 0

    rows = [
        ["requests", report.requests],
        ["queue / residency", f"{report.queue} / {report.residency}"],
        ["p50 latency (ms)", f"{report.p50_ps / _MS:.2f}"],
        ["p99 latency (ms)", f"{report.p99_ps / _MS:.2f}"],
        ["p99.9 latency (ms)", f"{report.p999_ps / _MS:.2f}"],
        ["utilization", f"{report.utilization:.3f}"],
        ["throughput (req/s)", f"{report.throughput_rps:.0f}"],
        ["deadline miss rate", f"{report.deadline_miss_rate:.4f}"],
        ["software share", f"{report.software_share:.3f}"],
        ["reconfigurations", report.reconfigs],
        ["evictions", report.evictions],
        ["defrag events", report.defrag_events],
        ["fragmentation (mean/max)",
         f"{report.frag_mean:.3f} / {report.frag_max:.3f}"],
    ]
    print(
        format_table(
            f"Serve report ({args.arrival} arrivals, target util "
            f"{args.target_util})",
            ["metric", "value"],
            rows,
        )
    )
    if report.amortization_curve:
        print()
        print(
            format_table(
                "Reconfiguration amortization by run length",
                ["run-length bin", "segments", "requests", "us/request"],
                [
                    [row["run_length_bin"], row["segments"], row["requests"],
                     f"{row['amortized_ps_per_request'] / 1e6:.1f}"]
                    for row in report.amortization_curve
                ],
            )
        )
    if args.out:
        print(f"\nreport: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Multi-tenant reconfiguration scheduler simulation.",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
