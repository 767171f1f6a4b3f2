"""Design-space exploration: legality gate, designs, determinism, caching.

The expensive determinism properties run on a deliberately tiny 2-axis
space (4 points, 2 distinct rigs) in smoke mode, so the whole module
stays in CI's budget while still driving the real evaluator, the real
sweep batch runner and the real probe scenarios.
"""

import json

import pytest

from repro.core import TransferBench, build_system64
from repro.dse import (
    Axis,
    Evaluator,
    PlatformSpace,
    build_report,
    default_space,
    evolve,
    full_factorial,
    star_design,
)
from repro.dse.space import RIG_AXES
from repro.errors import InvariantError
from repro.scenarios.dse import build_dse_rig
from repro.sweep import ResultCache


def small_space():
    """4-point space over one rig axis + one policy axis (2 rigs total)."""
    return PlatformSpace(
        [
            Axis("bus_mhz", (66, 100), 100, "MHz"),
            Axis("scrub_period_us", (50, 200), 200, "us"),
        ]
    )


def drc_space():
    """Space whose rig axes include a geometry the DRC gate must reject:
    a 16-row region cannot host the 64-bit dock interface (17 rows)."""
    return PlatformSpace(
        [
            Axis("region_rows", (16, 24), 24, "CLBs"),
            Axis("scrub_period_us", (50, 200), 200, "us"),
        ]
    )


def explore(tmp_path, *, jobs, seed=7):
    """One full factorial+evolve exploration against a private cache."""
    cache = ResultCache(tmp_path / "cache")
    space = small_space()
    evaluator = Evaluator(space, jobs=jobs, cache=cache, smoke=True)
    design = star_design(space)
    evaluator.evaluate(design.points)
    search = evolve(
        space, evaluator, generations=2, population=4, seed=seed,
        seed_points=design.points,
    )
    return build_report(
        space, evaluator, mode="both", smoke=True, search=search,
        rejected=design.rejected,
    )


def deterministic_sections(report):
    """The byte-stable slice of a report: everything except host-side
    telemetry (cache hit/miss counts and host_seconds legitimately vary
    between a cold and a warm run of the *same* exploration)."""
    keys = ("evaluations", "front", "front_points", "slopes", "search")
    return json.dumps({key: report[key] for key in keys}, sort_keys=True)


# -- one 64-bit builder ---------------------------------------------------------

def _transfer_timings(system):
    bench = TransferBench(system)
    results = (
        bench.dma_write_sequence(512),
        bench.dma_read_sequence(512),
        bench.dma_interleaved_sequence(3000),
        bench.pio_write_sequence(256),
        bench.pio_read_sequence(256),
    )
    return [result.total_ps for result in results]


def test_baseline_dse_rig_is_the_paper_system_renamed():
    """At the paper's axis values the DSE rig times every transfer method
    like ``build_system64`` and costs the same static fabric; only the
    name tag (and the unconstrained region placement) tells them apart."""
    paper = build_system64()
    rig, _ = build_dse_rig()
    assert _transfer_timings(rig) == _transfer_timings(paper)
    assert rig.static_resources() == paper.static_resources()
    assert rig.modules == paper.modules

    def names(system):
        return [system.name, system.plb.name, system.opb.name, system.region.name]

    assert names(paper) == ["system64", "plb64", "opb64", "dynamic64"]
    assert names(rig) == [name.replace("64", "_dse") for name in names(paper)]


# -- axes and space validation -------------------------------------------------

def test_axis_rejects_degenerate_levels():
    with pytest.raises(InvariantError, match=">= 2 levels"):
        Axis("bus_mhz", (100,), 100)
    with pytest.raises(InvariantError, match="strictly increasing"):
        Axis("bus_mhz", (100, 66), 100)
    with pytest.raises(InvariantError, match="baseline"):
        Axis("bus_mhz", (66, 100), 133)


def test_space_rejects_duplicate_axes():
    axis = Axis("bus_mhz", (66, 100), 100)
    with pytest.raises(InvariantError, match="duplicate"):
        PlatformSpace([axis, axis])


def test_malformed_points_are_rejected():
    space = small_space()
    with pytest.raises(InvariantError, match="missing axes"):
        space.canonical({"bus_mhz": 100})
    with pytest.raises(InvariantError, match="unknown axes"):
        space.canonical({"bus_mhz": 100, "scrub_period_us": 200, "turbo": 1})
    with pytest.raises(InvariantError, match="not one of the levels"):
        space.violation({"bus_mhz": 101, "scrub_period_us": 200})


def test_default_space_covers_the_required_axes():
    space = default_space()
    assert len(space.axes) >= 6
    assert set(RIG_AXES) <= set(space.names)
    assert space.is_legal(space.baseline())


# -- legality gate -------------------------------------------------------------

def test_static_rule_rejects_undrainable_burst():
    space = default_space()
    point = {**space.baseline(), "fifo_depth": 8, "burst_beats": 16}
    reason = space.violation(point)
    assert reason is not None and "never drain" in reason


def test_drc_gate_rejects_unbuildable_geometry():
    space = drc_space()
    bad = {"region_rows": 16, "scrub_period_us": 200}
    reason = space.violation(bad)
    assert reason is not None
    assert "rig construction failed" in reason
    # The verdict is memoized per rig projection: the scrub axis does not
    # influence buildability, so the sibling point shares the verdict.
    assert space.violation({"region_rows": 16, "scrub_period_us": 50}) == reason
    assert space.is_legal({"region_rows": 24, "scrub_period_us": 200})


def test_evaluator_refuses_illegal_points_without_simulating(tmp_path):
    space = drc_space()
    evaluator = Evaluator(space, cache=None, smoke=True)
    with pytest.raises(InvariantError, match="refusing to evaluate illegal point"):
        evaluator.evaluate([{"region_rows": 16, "scrub_period_us": 200}])
    # Rejection happened before any simulation was spent.
    assert evaluator.evaluations == []
    assert evaluator.jobs_run == 0
    assert evaluator.compute_seconds == 0.0


# -- factorial designs ---------------------------------------------------------

def test_star_design_is_baseline_plus_ofat():
    space = small_space()
    design = star_design(space)
    expected = 1 + sum(len(axis.levels) - 1 for axis in space.axes)
    assert len(design.points) == expected
    assert design.points[0] == space.baseline()
    assert design.rejected == []


def test_star_design_reports_rejected_points():
    design = star_design(drc_space())
    assert [point["region_rows"] for point, _ in design.rejected] == [16]
    assert all("rig construction failed" in reason for _, reason in design.rejected)


def test_full_factorial_covers_the_product():
    space = small_space()
    design = full_factorial(space)
    assert len(design.points) == space.size() == 4


def test_full_factorial_refuses_oversized_products():
    with pytest.raises(InvariantError, match="max_points"):
        full_factorial(default_space(), max_points=16)


# -- evaluation and caching ----------------------------------------------------

def test_projection_shares_jobs_between_candidates(tmp_path):
    space = small_space()
    evaluator = Evaluator(space, cache=ResultCache(tmp_path / "cache"), smoke=True)
    design = full_factorial(space)
    evaluations = evaluator.evaluate(design.points)
    assert len(evaluations) == 4
    # Throughput and reconfig only see bus_mhz (2 levels), recovery only
    # sees scrub_period_us (2 levels): 6 unique jobs for 4x3 requests.
    assert evaluator.jobs_run == 6
    assert evaluator.jobs_deduped == 6
    # Re-evaluating known points is pure memo: no new jobs.
    again = evaluator.evaluate(design.points)
    assert evaluator.jobs_run == 6
    assert [e.to_dict() for e in again] == [e.to_dict() for e in evaluations]


def test_second_exploration_runs_entirely_from_warm_cache(tmp_path):
    space = small_space()
    design = full_factorial(space)

    def run():
        evaluator = Evaluator(space, cache=ResultCache(tmp_path / "cache"), smoke=True)
        evaluator.evaluate(design.points)
        return evaluator

    cold = run()
    assert cold.cache_stats["misses"] == 6
    warm = run()
    assert warm.cache_stats["hits"] == 6
    assert warm.cache_stats["misses"] == 0
    assert [e.to_dict() for e in warm.evaluations] == [
        e.to_dict() for e in cold.evaluations
    ]


# -- end-to-end determinism ----------------------------------------------------

def test_fixed_seed_yields_byte_identical_front_across_runs_and_jobs(tmp_path):
    first = explore(tmp_path / "a", jobs=1)
    second = explore(tmp_path / "b", jobs=1)
    parallel = explore(tmp_path / "c", jobs=2)
    assert deterministic_sections(first) == deterministic_sections(second)
    assert deterministic_sections(first) == deterministic_sections(parallel)
    # The front is non-trivial and indices point at real evaluations.
    assert first["schema"] == "repro-dse/1"
    assert first["front"], "expected a non-empty Pareto front"
    assert all(0 <= i < len(first["evaluations"]) for i in first["front"])
    # A different seed explores differently (the search is really seeded).
    other = explore(tmp_path / "d", jobs=1, seed=8)
    assert json.loads(deterministic_sections(other))["search"]["seed"] == 8


def test_report_is_json_clean_and_renders(tmp_path):
    report = explore(tmp_path, jobs=1)
    text = json.dumps(report, sort_keys=True)
    assert json.loads(text) == json.loads(text)

    from repro.dse import render_text

    rendered = render_text(report)
    assert "Pareto-front candidates" in rendered
    assert "regression slopes" in rendered
