"""Seeded multi-objective evolutionary search (NSGA-II-lite).

A small, fully deterministic genetic loop over the discrete platform
space: tournament selection on (Pareto rank, crowding distance), uniform
per-axis crossover, per-axis mutation to a random *other* level, and
elitist survival of the combined parent+offspring pool.  Every RNG draw
comes from a generator seeded via :func:`repro.scenarios.derive_seed`
from the search seed and the generation index, so the same seed replays
the same search bit-for-bit — across runs *and* across ``--jobs``
settings, because candidate evaluation is pure simulation.

Offspring that fail the space's legality gate (static rule or DRC) are
repaired by falling back to the fitter parent — illegal platforms are
never evaluated, they do not even enter the population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..analysis.pareto import pareto_front, pareto_rank
from ..errors import InvariantError
from ..scenarios import derive_seed
from .evaluate import OBJECTIVES, Evaluator
from .space import PlatformSpace

#: Per-axis probability that a child's gene mutates to another level.
MUTATION_RATE = 0.25
#: How many random draws to try before giving up on a fresh legal point.
LEGALITY_RETRIES = 32


@dataclass
class SearchResult:
    """Outcome of one evolutionary run (indices into the evaluator)."""

    generations: List[List[int]] = field(default_factory=list)
    #: Indices of the non-dominated set over *everything* evaluated.
    front: List[int] = field(default_factory=list)
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "generations": [list(g) for g in self.generations],
            "front": list(self.front),
        }


def _random_point(space: PlatformSpace, rng: np.random.Generator) -> Dict[str, int]:
    return {
        axis.name: int(axis.levels[int(rng.integers(len(axis.levels)))])
        for axis in space.axes
    }


def _random_legal_point(
    space: PlatformSpace, rng: np.random.Generator
) -> Optional[Dict[str, int]]:
    for _ in range(LEGALITY_RETRIES):
        point = _random_point(space, rng)
        if space.violation(point) is None:
            return point
    return None


def _mutate(
    space: PlatformSpace, point: Dict[str, int], rng: np.random.Generator
) -> Dict[str, int]:
    child = dict(point)
    for axis in space.axes:
        if float(rng.random()) >= MUTATION_RATE:
            continue
        others = [level for level in axis.levels if level != child[axis.name]]
        child[axis.name] = int(others[int(rng.integers(len(others)))])
    return child


def _crossover(
    space: PlatformSpace,
    a: Dict[str, int],
    b: Dict[str, int],
    rng: np.random.Generator,
) -> Dict[str, int]:
    return {
        axis.name: (a if float(rng.random()) < 0.5 else b)[axis.name]
        for axis in space.axes
    }


def _tournament(
    candidates: List[int],
    ranks: Dict[int, int],
    crowd: Dict[int, float],
    rng: np.random.Generator,
) -> int:
    """Pick the fitter of two random population members (lower rank wins,
    ties prefer the less crowded; final tie breaks on index for
    determinism)."""
    i = candidates[int(rng.integers(len(candidates)))]
    j = candidates[int(rng.integers(len(candidates)))]
    key_i = (ranks[i], -crowd[i], i)
    key_j = (ranks[j], -crowd[j], j)
    return i if key_i <= key_j else j


def evolve(
    space: PlatformSpace,
    evaluator: Evaluator,
    *,
    generations: int = 4,
    population: int = 12,
    seed: int = 2006,
    seed_points: Optional[List[Dict[str, int]]] = None,
) -> SearchResult:
    """Run the search; returns per-generation populations and the front.

    ``seed_points`` (e.g. a factorial design's survivors) join the random
    initial population, so a combined factorial+evolve exploration warm
    starts from already-cached evaluations.
    """
    if generations < 1:
        raise InvariantError(f"generations must be >= 1, got {generations}")
    if population < 4:
        raise InvariantError(f"population must be >= 4, got {population}")

    result = SearchResult(seed=seed)

    # -- generation 0: baseline + seeds + random legal points ---------------
    rng = np.random.default_rng(derive_seed(seed, "dse-evolve:init"))
    initial: List[Dict[str, int]] = [space.baseline()]
    for point in seed_points or []:
        initial.append(dict(point))
    while len(initial) < population:
        point = _random_legal_point(space, rng)
        if point is None:
            break  # space too constrained for more random members
        initial.append(point)
    initial = initial[:population]
    evaluator.evaluate(initial)
    current = sorted({evaluator.index_of(p) for p in initial})
    result.generations.append(list(current))

    for generation in range(1, generations):
        rng = np.random.default_rng(derive_seed(seed, f"dse-evolve:gen{generation}"))
        rows = [evaluator.evaluations[i].vector() for i in current]
        local_rank, local_crowd = pareto_rank(rows, OBJECTIVES)
        ranks = {i: local_rank[k] for k, i in enumerate(current)}
        crowd = {i: local_crowd[k] for k, i in enumerate(current)}

        offspring: List[Dict[str, int]] = []
        while len(offspring) < population:
            pa = evaluator.evaluations[_tournament(current, ranks, crowd, rng)].point
            pb = evaluator.evaluations[_tournament(current, ranks, crowd, rng)].point
            child = _mutate(space, _crossover(space, pa, pb, rng), rng)
            if space.violation(child) is not None:
                child = dict(pa)  # repair: fall back to the fitter parent
            offspring.append(child)
        evaluator.evaluate(offspring)

        # Elitist survival over the combined pool.
        pool = sorted(set(current) | {evaluator.index_of(p) for p in offspring})
        pool_rows = [evaluator.evaluations[i].vector() for i in pool]
        pool_rank, pool_crowd = pareto_rank(pool_rows, OBJECTIVES)
        order = sorted(
            range(len(pool)), key=lambda k: (pool_rank[k], -pool_crowd[k], pool[k])
        )
        current = sorted(pool[k] for k in order[:population])
        result.generations.append(list(current))

    all_rows = [evaluation.vector() for evaluation in evaluator.evaluations]
    result.front = pareto_front(all_rows, OBJECTIVES)
    return result
