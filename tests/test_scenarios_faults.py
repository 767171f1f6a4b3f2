"""Tests for the fault-campaign scenarios (repro.scenarios.faults)."""

from statistics import NormalDist

import numpy as np
import pytest

from repro.errors import CheckError
from repro.faults import montecarlo
from repro.faults.campaign import DEFAULT_KINDS, run_campaign
from repro.scenarios.faults import Z_AGREEMENT, overall_stratum, require_analytic_agreement
from repro.scenarios.registry import derive_seed, get_scenario, run_scenario
from repro.scenarios.rigs import build_rig64


def test_fault_campaign_smoke_rows_and_invariants():
    result = run_scenario("fault_campaign", smoke=True)
    assert result.name == "fault_campaign"
    # Smoke runs one trial of every fault kind.
    assert len(result.rows) == len(DEFAULT_KINDS)
    headline = result.headline
    assert headline["trials"] == len(DEFAULT_KINDS)
    # Every injected fault is at least handled (recovered or degraded)...
    assert headline["handled_rate"] == 1.0
    # ...SEUs in the staged stream are always recoverable by retrying...
    assert headline["seu_recovery_rate"] == 1.0
    # ...and the forced-fallback kind always degrades to software.
    assert headline["fallback_kind_rate"] == 1.0
    assert headline["recovery_rate"] >= 1.0 - headline["fallback_rate"]
    assert headline["clean_load_ps"] > 0
    assert headline["total_faults"] >= len(DEFAULT_KINDS)


def test_fault_campaign_is_deterministic():
    one = run_scenario("fault_campaign", smoke=True)
    two = run_scenario("fault_campaign", smoke=True)
    assert one.to_dict() == two.to_dict()


def test_campaign_report_reproduces_from_seed():
    first = run_campaign(build_rig64, kinds=("seu", "commit"), trials=1, seed=5)
    second = run_campaign(build_rig64, kinds=("seu", "commit"), trials=1, seed=5)
    assert first.trials == second.trials
    assert first.clean_load_ps == second.clean_load_ps
    third = run_campaign(build_rig64, kinds=("seu", "commit"), trials=1, seed=6)
    assert [t.detail for t in third.trials] != [t.detail for t in first.trials]


def test_robust_overhead_scenario():
    result = run_scenario("robust_overhead")
    headline = result.headline
    assert headline["plain_ps"] > 0
    # Verification is extra work: overhead strictly above the plain load,
    # and the full-scan robust load costs at least the sampled verify.
    assert headline["sampled_overhead"] > 1.0
    assert headline["robust_overhead"] >= headline["sampled_overhead"]
    assert headline["frames_verified_robust"] > 0


def test_fault_scenarios_are_registered_with_tags():
    for name in ("fault_campaign", "robust_overhead"):
        entry = get_scenario(name)
        assert "faults" in entry.tags
        assert "reconfig" in entry.tags


# -- Monte-Carlo scenarios ----------------------------------------------------

def test_mc_campaign_smoke_headline_and_gate():
    result = run_scenario("mc_campaign", smoke=True)
    assert result.name == "mc_campaign"
    headline = result.headline
    # Smoke: 200 trials per kind, all four kinds, equivalence enforced
    # in-scenario (a divergence would have raised, failing the run).
    assert headline["trials_total"] == 200 * headline["kinds"]
    assert headline["equivalence_checked"] is True
    lo, hi = headline["vulnerability_ci95"]
    assert lo <= headline["vulnerability"] <= hi
    assert 0.0 < headline["analytic_vulnerability"] < 1.0
    for kind in ("upset", "post-commit", "seu", "commit"):
        assert 0.0 <= headline[f"{kind}_recovery_rate"] <= 1.0
    assert headline["upset_recovery_rate"] == 1.0


def test_mc_campaign_gate_catches_one_diverging_trial(monkeypatch):
    # Swap the outcomes of a critical and a latent upset in the same
    # region: every count, rate and interval of the report is unchanged,
    # so only the per-trial column compare can see the divergence.
    real = montecarlo.classify_reference
    corrupted = []

    def classify_reference(space, model, load, start, count):
        batch = real(space, model, load, start, count)
        if load.kind == "upset" and not corrupted:
            for region in np.unique(batch.region):
                in_region = batch.region == region
                critical = np.flatnonzero(
                    in_region & (batch.outcome == montecarlo.OUTCOME_CRITICAL)
                )
                latent = np.flatnonzero(
                    in_region & (batch.outcome == montecarlo.OUTCOME_LATENT)
                )
                if critical.size and latent.size:
                    i, j = critical[0], latent[0]
                    batch.outcome[[i, j]] = batch.outcome[[j, i]]
                    corrupted.append((start + i, start + j))
                    break
        return batch

    monkeypatch.setattr(montecarlo, "classify_reference", classify_reference)
    with pytest.raises(CheckError, match="per-trial reference trials"):
        run_scenario("mc_campaign", smoke=True)
    assert corrupted


def test_mc_campaign_is_deterministic():
    one = run_scenario("mc_campaign", smoke=True)
    two = run_scenario("mc_campaign", smoke=True)
    assert one.to_dict() == two.to_dict()


def test_mc_campaign_kinds_param_restricts_the_run():
    result = run_scenario(
        "mc_campaign", {"kinds": "commit", "trials": 64}, smoke=True
    )
    assert result.headline["kinds"] == 1
    assert result.headline["trials_total"] == 64
    assert "vulnerability" not in result.headline  # no upset stratum ran
    assert {row[0] for row in result.rows} == {"commit"}


def test_mc_vulnerability_smoke_covers_analytic_truth():
    result = run_scenario("mc_vulnerability", smoke=True)
    headline = result.headline
    lo, hi = headline["vulnerability_ci95"]
    # A 95% interval, so this holds at the smoke seed, not at every seed.
    assert lo <= headline["analytic_vulnerability"] <= hi
    assert headline["essential_bits"] < headline["total_bits"]
    # Empirical heatmap rides as the figure text, analytic as appendix.
    assert "empirical" in result.text
    assert "analytic" in result.appendix
    assert "dynamic region columns" in result.appendix


def test_mc_vulnerability_check_holds_on_every_seed_base():
    """The per-run agreement check passes at seed-base 0-99, while the 95%
    intervals' misses stay consistent with Binomial(100, 0.05): more than
    13 misses has probability below 5e-4 for intervals that cover."""
    assert Z_AGREEMENT == NormalDist().inv_cdf(1 - 1e-6 / 2)
    params = get_scenario("mc_vulnerability").resolve_params()
    rig = montecarlo.calibrate_rig(
        build_rig64, kernel=params["kernel"], max_attempts=params["max_attempts"]
    )
    misses = 0
    for base in range(100):
        report = montecarlo.run_mc_campaign(
            rig=rig,
            kinds=("upset",),
            trials=params["trials"],
            seed=derive_seed(base, "mc_vulnerability:seed"),
            batch_size=params["batch_size"],
            executor="batch",
        )
        overall = overall_stratum(report)
        require_analytic_agreement(overall)
        lo, hi = overall["vulnerability_ci95"]
        misses += not lo <= overall["analytic_vulnerability"] <= hi
    assert misses <= 13
