"""Planning strategies and ratio evaluation against the exact optimum.

Four strategies produce a route and its loss breakdown:

* ``alg1`` — the approximation pipeline: spanning tree, a zero-weight
  dummy (the padded last row and column of the cost matrix) attached at
  the best final region, exact matching of odd-degree vertices, Euler
  circuit, shortcut with dummy removal. Travel cost within 3/2 of the optimal
  Hamiltonian path. Every stage is polynomial except the odd-set matching,
  an O(2^k * k) bitmask program over the k odd-degree vertices (k is about
  T/2), so the pipeline as a whole is exponential in T; replacing that
  matching with a polynomial one is ROADMAP item 2.
* ``exact`` — subset dynamic programming, exact but limited to T <= 16.
* ``forgetting`` — the travel-oblivious continual-learning baseline that
  minimizes only the forgetting term.
* ``random`` — a seeded uniformly random route, for calibration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import shp
from .instance import ProblemInstance, Route
from .loss import LossBreakdown, Objective, best_final_region, loss_upper


class Strategy(str, Enum):
    ALGORITHM1 = "alg1"
    EXACT = "exact"
    FORGETTING = "forgetting"
    RANDOM = "random"


@dataclass(frozen=True)
class PlanResult:
    route: Route
    breakdown: LossBreakdown
    strategy: Strategy
    elapsed: float


def _finish(inst: ProblemInstance, route: Route, strategy: Strategy, t0: float) -> PlanResult:
    breakdown = loss_upper(inst, route)
    return PlanResult(route, breakdown, strategy, time.perf_counter() - t0)


def plan_algorithm1(inst: ProblemInstance) -> PlanResult:
    """Run the full approximation pipeline; the route always ends at the
    minimum-row-sum region.

    The odd-set matching is an exact O(2^k * k) bitmask program over the k
    odd-degree vertices of the tree plus dummy, so this takes time
    exponential in T (k is about T/2); see ROADMAP item 2.
    """
    t0 = time.perf_counter()
    v_prime = best_final_region(inst)
    dummy = inst.t_regions
    mst_edges, _ = shp.minimum_spanning_tree(inst.costs)
    tree = mst_edges + ((v_prime, dummy),)
    odd = shp.odd_degree_vertices(tree)
    pairs, _ = shp.min_weight_perfect_matching(np.pad(inst.costs, (0, 1)), odd)
    circuit = shp.eulerian_circuit(tree + pairs, dummy)
    route = shp.shortcut_to_hamiltonian(circuit, v_prime)
    return _finish(inst, route, Strategy.ALGORITHM1, t0)


def plan_exact(inst: ProblemInstance) -> PlanResult:
    """Exact optimum of the instance's objective via the subset DP oracle."""
    t0 = time.perf_counter()
    route, _ = shp.held_karp_min_path(inst, Objective.of(inst))
    return _finish(inst, route, Strategy.EXACT, t0)


def plan_forgetting_baseline(
    inst: ProblemInstance,
    interior: str = "ascending",
    seed: int | None = None,
) -> PlanResult:
    """Travel-oblivious baseline minimizing only the forgetting term.

    Underparameterized: only the final region matters, so any order ending
    at the minimum-row-sum region is forgetting-optimal; the interior is
    either ascending region index (default) or a seeded shuffle.

    Overparameterized: regions sorted by descending dissimilarity row sum
    (stable, index-ascending within ties), so the most dissimilar region
    is visited first and the least dissimilar last.
    """
    t0 = time.perf_counter()
    t = inst.t_regions
    if inst.regime().is_under:
        last = best_final_region(inst)
        rest = [i for i in range(t) if i != last]
        if interior == "random":
            rng = np.random.default_rng(seed)
            rest = [rest[i] for i in rng.permutation(len(rest))]
        elif interior != "ascending":
            raise ValueError(f"unknown interior rule {interior!r}")
        route = Route(tuple(rest) + (last,))
    else:
        row_sums = inst.delta.sum(axis=1)
        order = sorted(range(t), key=lambda i: (-row_sums[i], i))
        route = Route(tuple(order))
    return _finish(inst, route, Strategy.FORGETTING, t0)


def plan_random(inst: ProblemInstance, seed: int) -> PlanResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    route = Route(tuple(int(i) for i in rng.permutation(inst.t_regions)))
    return _finish(inst, route, Strategy.RANDOM, t0)


def plan(
    inst: ProblemInstance,
    strategy: Strategy,
    seed: int | None = None,
    interior: str = "ascending",
) -> PlanResult:
    if strategy is Strategy.ALGORITHM1:
        return plan_algorithm1(inst)
    if strategy is Strategy.EXACT:
        return plan_exact(inst)
    if strategy is Strategy.FORGETTING:
        return plan_forgetting_baseline(inst, interior=interior, seed=seed)
    if strategy is Strategy.RANDOM:
        return plan_random(inst, seed if seed is not None else 0)
    raise ValueError(f"unknown strategy {strategy!r}")


def ratio(
    inst: ProblemInstance,
    strategy: Strategy,
    seed: int | None = None,
    include_constant: bool = True,
) -> float:
    """Strategy total divided by the exact-optimum total (>= 1).

    By default the route-independent constant is included, mirroring the
    definition on the full expected overall loss; exclude it to probe
    sensitivity of the ratio to the noise floor.
    """
    num = plan(inst, strategy, seed=seed).breakdown.effective_total(include_constant)
    den = plan_exact(inst).breakdown.effective_total(include_constant)
    return num / den
