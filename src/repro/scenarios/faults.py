"""Fault-injection scenarios: recovery rate and the price of robustness.

Four scenarios, all pure and cacheable like everything in the registry:

* ``fault_campaign`` — the seeded per-trial campaign of
  :mod:`repro.faults.campaign` (SEU in the staged stream, forced commit
  failure, post-commit and between-load memory upsets, DMA abort,
  forced software fallback), reporting per-trial recovery and the
  overhead of recovering versus a clean load.
* ``mc_campaign`` — the vectorized Monte-Carlo campaign of
  :mod:`repro.faults.montecarlo`: 10⁴–10⁵ strikes sampled over the
  whole frame/bit space, classified closed-form against the calibrated
  outcome model, with Wilson 95% intervals per (kind, region) stratum
  and an in-scenario batched-vs-reference equivalence gate.
* ``mc_vulnerability`` — the upset-only vulnerability study: estimated
  per-region vulnerability factors against the analytic essential-bit
  ground truth, plus the ASCII heatmap as the figure artifact.
* ``robust_overhead`` — what the belt-and-braces loader costs when nothing
  goes wrong: plain ``load`` vs fully-verified ``load_robust`` on a clean
  system, the "configuration time vs trustworthiness" trade-off.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.stats import wilson_interval
from ..faults.campaign import DEFAULT_KINDS, run_campaign
from ..faults.heatmap import empirical_vulnerability, render_heatmap
from ..faults.montecarlo import calibrate_rig, run_mc_campaign
from ..faults.sampling import DEFAULT_MC_KINDS, REGION_LABELS
from .registry import scenario
from .result import ScenarioResult, require
from .rigs import build_rig64


def _parse_kinds(kinds: str) -> Tuple[str, ...]:
    parsed = tuple(kind.strip() for kind in kinds.split(",") if kind.strip())
    require(bool(parsed), f"no fault kinds in {kinds!r}")
    return parsed


@scenario(
    "fault_campaign",
    title="Fault-injection campaign: recovery rate of the robust loader",
    tags=("faults", "reconfig", "system64"),
    params={
        "trials": 3,
        "seed": 2006,
        "kernel": "brightness",
        "max_attempts": 3,
        "kinds": ",".join(DEFAULT_KINDS),
    },
    smoke_params={"trials": 1},
)
def fault_campaign(
    trials: int, seed: int, kernel: str, max_attempts: int, kinds: str
) -> ScenarioResult:
    kind_tuple = _parse_kinds(kinds)
    report = run_campaign(
        build_rig64, kinds=kind_tuple, trials=trials, seed=seed,
        kernel=kernel, max_attempts=max_attempts,
    )
    rows: List[List[object]] = []
    for t in report.trials:
        rows.append(
            [
                t.kind,
                t.trial,
                "yes" if t.recovered else "no",
                "yes" if t.fallback else "no",
                t.attempts,
                t.scrubbed_frames,
                t.faults_delivered,
                t.elapsed_ps / 1e9,
                round(report.overhead_ratio(t), 3),
            ]
        )
    by_kind = {
        kind: [t for t in report.trials if t.kind == kind] for kind in kind_tuple
    }
    return ScenarioResult(
        name="fault_campaign",
        title=(
            f"Fault campaign: {trials} trial(s) x {len(kind_tuple)} fault kinds, "
            f"seed {seed} (64-bit system)"
        ),
        headers=[
            "kind",
            "trial",
            "recovered",
            "fallback",
            "attempts",
            "scrubbed frames",
            "faults",
            "recovery (ms)",
            "overhead vs clean",
        ],
        rows=rows,
        headline={
            "trials": len(report.trials),
            "recovery_rate": report.recovery_rate,
            "handled_rate": report.handled_rate,
            "fallback_rate": report.fallback_rate,
            "mean_attempts": report.mean_attempts,
            "total_faults": report.total_faults,
            "clean_load_ps": report.clean_load_ps,
            "kinds": len(kind_tuple),
            "seu_recovery_rate": (
                sum(1 for t in by_kind.get("seu", []) if t.recovered)
                / max(1, len(by_kind.get("seu", [])))
            ),
            "fallback_kind_rate": (
                sum(1 for t in by_kind.get("fallback", []) if t.fallback)
                / max(1, len(by_kind.get("fallback", [])))
            ),
        },
    )


@scenario(
    "mc_campaign",
    title="Monte-Carlo fault campaign: batched trials with Wilson intervals",
    tags=("faults", "montecarlo", "system64"),
    params={
        "trials": 25000,
        "seed": 2006,
        "kernel": "brightness",
        "max_attempts": 3,
        "kinds": ",".join(DEFAULT_MC_KINDS),
        "batch_size": 8192,
        "check_equivalence": True,
    },
    smoke_params={"trials": 200, "batch_size": 128},
)
def mc_campaign(
    trials: int,
    seed: int,
    kernel: str,
    max_attempts: int,
    kinds: str,
    batch_size: int,
    check_equivalence: bool,
) -> ScenarioResult:
    kind_tuple = _parse_kinds(kinds)
    rig = calibrate_rig(build_rig64, kernel=kernel, max_attempts=max_attempts)
    report = run_mc_campaign(
        rig=rig, kinds=kind_tuple, trials=trials, seed=seed,
        batch_size=batch_size, executor="batch",
    )
    if check_equivalence:
        # The fast-path contract, enforced where the numbers are made:
        # the per-trial reference executor must decide every trial of the
        # same fault load identically, column by column, and produce the
        # same report.
        reference = run_mc_campaign(
            rig=rig, kinds=kind_tuple, trials=trials, seed=seed,
            batch_size=batch_size, executor="reference",
        )
        require(
            report.same_trials(reference),
            "batched executor diverged from the per-trial reference trials",
        )
        require(
            report.to_dict() == reference.to_dict(),
            "batched report diverged from the per-trial reference report",
        )
    rows: List[List[object]] = []
    for stratum in report.strata():
        estimate = stratum.get("vulnerability", stratum.get("recovery_rate"))
        lo, hi = stratum.get(
            "vulnerability_ci95", stratum.get("recovery_ci95", [0.0, 1.0])
        )
        rows.append(
            [
                stratum["kind"],
                stratum["region"],
                stratum["trials"],
                stratum.get("critical", 0),
                stratum.get("latent", 0),
                stratum.get("benign", 0),
                round(estimate, 4),
                f"[{lo:.4f}, {hi:.4f}]",
                (
                    round(stratum["analytic_vulnerability"], 4)
                    if "analytic_vulnerability" in stratum
                    else ""
                ),
            ]
        )
    summary = {entry["kind"]: entry for entry in report.kind_summary()}
    overall = [s for s in report.strata() if s["kind"] == "upset" and s["region"] == "all"]
    headline = {
        "trials_total": report.total_trials,
        "kinds": len(kind_tuple),
        "batch_size": batch_size,
        "clean_load_ps": report.model.clean_ps,
        "equivalence_checked": bool(check_equivalence),
        "analytic_vulnerability": report.space.analytic_vulnerability(),
    }
    if overall:
        headline["vulnerability"] = overall[0]["vulnerability"]
        headline["vulnerability_ci95"] = overall[0]["vulnerability_ci95"]
    for kind in kind_tuple:
        entry = summary[kind]
        headline[f"{kind}_recovery_rate"] = entry["recovery_rate"]
        headline[f"{kind}_recovery_ci95"] = entry["recovery_ci95"]
    return ScenarioResult(
        name="mc_campaign",
        title=(
            f"Monte-Carlo campaign: {trials} trial(s) x {len(kind_tuple)} kinds, "
            f"seed {seed}, Wilson 95% CIs (64-bit system)"
        ),
        headers=[
            "kind",
            "region",
            "trials",
            "critical",
            "latent",
            "benign",
            "estimate",
            "wilson 95% CI",
            "analytic",
        ],
        rows=rows,
        headline=headline,
    )


#: Two-sided z of the per-run check that the whole-space estimate agrees
#: with the analytic essential-bit fraction: alpha = 1e-6, so a correct
#: model fails it on about one seed in a million.  The table's 95%
#: intervals miss on about one seed in twenty by construction, so their
#: coverage is reported per row, not required.  The value is
#: ``statistics.NormalDist().inv_cdf(1 - 1e-6 / 2)``, written out so that
#: importing the scenarios does not load ``statistics``.
Z_AGREEMENT = 4.891638475714779


def overall_stratum(report) -> Dict[str, object]:
    """The whole-space ``upset`` stratum of an MC campaign report."""
    return next(s for s in report.strata() if s["region"] == REGION_LABELS[3])


def require_analytic_agreement(stratum: Dict[str, object]) -> None:
    """Fail unless ``stratum``'s critical count agrees with its analytic
    vulnerability: a Wilson score test at :data:`Z_AGREEMENT`."""
    analytic = stratum["analytic_vulnerability"]
    lo, hi = wilson_interval(stratum.get("critical", 0), stratum["trials"], z=Z_AGREEMENT)
    require(
        lo <= analytic <= hi,
        f"estimated vulnerability interval [{lo:.4f}, {hi:.4f}] at z={Z_AGREEMENT:.2f} "
        f"excludes the analytic essential-bit fraction {analytic:.4f}",
    )


@scenario(
    "mc_vulnerability",
    title="Configuration-memory vulnerability factors with heatmap",
    tags=("faults", "montecarlo", "figures", "system64"),
    params={
        "trials": 20000,
        "seed": 2006,
        "kernel": "brightness",
        "max_attempts": 3,
        "batch_size": 8192,
    },
    smoke_params={"trials": 400, "batch_size": 128},
)
def mc_vulnerability(
    trials: int, seed: int, kernel: str, max_attempts: int, batch_size: int
) -> ScenarioResult:
    rig = calibrate_rig(build_rig64, kernel=kernel, max_attempts=max_attempts)
    report = run_mc_campaign(
        rig=rig, kinds=("upset",), trials=trials, seed=seed,
        batch_size=batch_size, executor="batch",
    )
    strikes, criticals = report.frame_tallies()
    analytic_map = render_heatmap(rig.space)
    empirical_map = render_heatmap(
        rig.space,
        empirical_vulnerability(rig.space, strikes, criticals),
        title=f"empirical, {report.total_trials} upset trial(s), seed {seed}",
    )
    rows: List[List[object]] = []
    for stratum in report.strata():
        lo, hi = stratum["vulnerability_ci95"]
        analytic = stratum["analytic_vulnerability"]
        estimate = stratum["vulnerability"]
        rows.append(
            [
                stratum["region"],
                stratum["trials"],
                stratum.get("critical", 0),
                round(estimate, 4),
                f"[{lo:.4f}, {hi:.4f}]",
                round(analytic, 4),
                "yes" if lo <= analytic <= hi else "no",
            ]
        )
    overall = overall_stratum(report)
    require_analytic_agreement(overall)
    analytic_overall = rig.space.analytic_vulnerability()
    return ScenarioResult(
        name="mc_vulnerability",
        title=(
            f"Vulnerability factors: {report.total_trials} upset trial(s) over "
            f"{rig.space.total_frames} frames, seed {seed}"
        ),
        headers=[
            "region",
            "trials",
            "critical",
            "vulnerability",
            "wilson 95% CI",
            "analytic",
            "CI covers analytic",
        ],
        rows=rows,
        headline={
            "trials": report.total_trials,
            "vulnerability": overall["vulnerability"],
            "vulnerability_ci95": overall["vulnerability_ci95"],
            "analytic_vulnerability": analytic_overall,
            "essential_bits": int(rig.space.essential_counts().sum()),
            "total_bits": rig.space.total_bits,
            "frames": rig.space.total_frames,
        },
        text=empirical_map,
        appendix=analytic_map,
    )


@scenario(
    "robust_overhead",
    title="Robust-loading overhead on a fault-free system",
    tags=("faults", "reconfig", "system64"),
    params={"kernel": "brightness", "verify_samples": 8},
)
def robust_overhead(kernel: str, verify_samples: int) -> ScenarioResult:
    _, manager_plain = build_rig64()
    plain = manager_plain.load(kernel)
    _, manager_sampled = build_rig64()
    sampled = manager_sampled.load(kernel, verify=True, verify_samples=verify_samples)
    _, manager_robust = build_rig64()
    robust = manager_robust.load_robust(kernel)
    rows = [
        ["plain load", plain.elapsed_ps / 1e9, plain.frames_verified, 1.0],
        [
            f"verified load ({verify_samples} samples)",
            sampled.elapsed_ps / 1e9,
            sampled.frames_verified,
            round(sampled.elapsed_ps / plain.elapsed_ps, 3),
        ],
        [
            "robust load (full scan)",
            robust.elapsed_ps / 1e9,
            robust.frames_verified,
            round(robust.elapsed_ps / plain.elapsed_ps, 3),
        ],
    ]
    return ScenarioResult(
        name="robust_overhead",
        title="Robust-loading overhead: plain vs verified vs full-scan robust load",
        headers=["flow", "load (ms)", "frames verified", "x plain"],
        rows=rows,
        headline={
            "plain_ps": plain.elapsed_ps,
            "sampled_ps": sampled.elapsed_ps,
            "robust_ps": robust.elapsed_ps,
            "robust_overhead": round(robust.elapsed_ps / plain.elapsed_ps, 3),
            "sampled_overhead": round(sampled.elapsed_ps / plain.elapsed_ps, 3),
            "frames_verified_robust": robust.frames_verified,
        },
    )
