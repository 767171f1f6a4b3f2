"""The machine-readable DSE report (``BENCH_dse.json``).

One document per exploration: the space (axes, baselines), every
evaluated candidate with its objective vector, the Pareto-front indices,
per-axis regression slopes for each objective, cache telemetry, and an
ASCII rendering of the throughput-vs-overhead projection of the front.
Schema identifier: ``repro-dse/1`` — consumers should key on it.

The report is rendered with sorted keys from deterministically ordered
inputs, so a fixed seed yields a byte-identical document across runs and
across ``--jobs`` settings (CI asserts exactly this).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .. import __version__
from ..analysis.pareto import (
    pareto_front,
    regression_slopes,
    render_front,
)
from ..sweep.results_io import write_json
from .evaluate import OBJECTIVES, Evaluator
from .evolve import SearchResult
from .factorial import format_point
from .space import PlatformSpace

#: Stable schema identifier for the report document.
DSE_SCHEMA = "repro-dse/1"

#: Default report filename.
DSE_REPORT_FILENAME = "BENCH_dse.json"


def build_report(
    space: PlatformSpace,
    evaluator: Evaluator,
    *,
    mode: str,
    smoke: bool = False,
    search: Optional[SearchResult] = None,
    rejected: Optional[List] = None,
) -> Dict[str, object]:
    """Assemble the report dict for one exploration."""
    evaluations = evaluator.evaluations
    rows = [evaluation.vector() for evaluation in evaluations]
    front = pareto_front(rows, OBJECTIVES)
    points = [
        {name: float(value) for name, value in evaluation.point.items()}
        for evaluation in evaluations
    ]
    slopes = {
        objective.name: {
            axis: round(slope, 6)
            for axis, slope in regression_slopes(
                points, [row[index] for row in rows]
            ).items()
        }
        for index, objective in enumerate(OBJECTIVES)
    }
    report: Dict[str, object] = {
        "schema": DSE_SCHEMA,
        "repro_version": __version__,
        "mode": mode,
        "smoke": smoke,
        "axes": space.describe(),
        "objectives": [
            {"name": o.name, "sense": o.sense, "unit": o.unit} for o in OBJECTIVES
        ],
        "evaluations": [evaluation.to_dict() for evaluation in evaluations],
        "front": list(front),
        "front_points": [evaluations[index].to_dict() for index in front],
        "slopes": slopes,
        "jobs_run": evaluator.jobs_run,
        "jobs_deduped": evaluator.jobs_deduped,
        "cache": {
            "enabled": evaluator.cache is not None,
            **evaluator.cache_stats,
        },
        "host_seconds": round(evaluator.host_seconds, 6),
        "serial_compute_seconds": round(evaluator.compute_seconds, 6),
        "ascii_front": render_front(rows, OBJECTIVES),
    }
    if search is not None:
        report["search"] = search.to_dict()
    if rejected:
        report["rejected"] = [
            {"point": dict(point), "reason": reason} for point, reason in rejected
        ]
    return report


def render_report(report: Dict[str, object]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def write_report(report: Dict[str, object], path: str) -> str:
    """Render and write the report; returns the JSON text."""
    payload = render_report(report)
    write_json(path, payload + "\n")
    return payload


def render_text(report: Dict[str, object]) -> str:
    """Human-readable summary: front members, slopes, cache telemetry."""
    lines: List[str] = []
    evaluations = report["evaluations"]
    front = report["front"]
    lines.append(
        f"design-space exploration ({report['mode']}): "
        f"{len(evaluations)} candidate(s) evaluated, {len(front)} on the front"
    )
    lines.append("")
    lines.append(str(report["ascii_front"]))
    lines.append("")
    lines.append("Pareto-front candidates:")
    for index in front:
        entry = evaluations[index]
        objectives = ", ".join(
            f"{name}={value:.4g}" for name, value in sorted(entry["objectives"].items())
        )
        lines.append(f"  [{index:3d}] {format_point(entry['point'])}")
        lines.append(f"        {objectives}")
    lines.append("")
    lines.append("normalized regression slopes (axis swept lo->hi, rest averaged):")
    slopes: Dict[str, Dict[str, float]] = report["slopes"]  # type: ignore[assignment]
    for objective_name in sorted(slopes):
        lines.append(f"  {objective_name}:")
        by_magnitude = sorted(
            slopes[objective_name].items(), key=lambda kv: (-abs(kv[1]), kv[0])
        )
        for axis, slope in by_magnitude:
            lines.append(f"    {axis:18s} {slope:+.6g}")
    cache = report["cache"]
    lines.append("")
    lines.append(
        f"jobs: {report['jobs_run']} run, {report['jobs_deduped']} deduplicated; "
        f"cache: {cache.get('hits', 0)} hit(s), {cache.get('misses', 0)} miss(es)"
    )
    return "\n".join(lines)
