"""Planning strategies: an approximation, the exact optimum, two baselines.

Four strategies produce a route and its loss breakdown:

* ``alg1`` — the approximation pipeline, :func:`clroute.shp.fixed_end_path`
  ending at the best final region: travel cost within 3/2 of the optimal
  Hamiltonian path. Its exact odd-set matching takes time exponential in
  T; replacing it with a polynomial one is ROADMAP item 1.
* ``exact`` — subset dynamic programming, exact but limited to T <= 20.
* ``forgetting`` — the travel-oblivious continual-learning baseline that
  minimizes only the forgetting term, by rearrangement: descending row
  sums on the nondecreasing position weights.
* ``random`` — a seeded uniformly random route, for calibration.

The ratio R of a strategy's total to the exact optimum's is computed once,
in ``clroute.cli.run_experiment``, which shares the optimum across strategies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import shp
from .instance import ProblemInstance, Route
from .loss import LossBreakdown, best_final_region, loss_upper


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

    Exponential in T through the exact odd-set matching; see ROADMAP item 1.
    """
    t0 = time.perf_counter()
    route, _, _ = shp.fixed_end_path(inst.costs, best_final_region(inst))
    return _finish(inst, route, Strategy.ALGORITHM1, t0)


def plan_exact(inst: ProblemInstance) -> PlanResult:
    """Exact optimum of the instance's objective via the subset DP oracle."""
    t0 = time.perf_counter()
    route, _ = shp.held_karp_min_path(inst, inst.objective)
    return _finish(inst, route, Strategy.EXACT, t0)


def plan_forgetting_baseline(inst: ProblemInstance) -> PlanResult:
    """Travel-oblivious baseline minimizing only the forgetting term.

    By the rearrangement inequality, the regions in descending row sum take
    the ascending position weights; among equal row sums the lower index
    goes later. The route lists the regions by (assigned weight, index), so
    it ends at :func:`clroute.loss.best_final_region`, and regions sharing
    a weight (the underparameterized interior) are in ascending index.
    """
    t0 = time.perf_counter()
    objective = inst.objective
    rows = objective.row_sums
    ranked = sorted(range(inst.t_regions), key=lambda i: (rows[i], i), reverse=True)
    weight = dict(zip(ranked, objective.position_weights))
    route = Route(tuple(sorted(ranked, key=lambda i: (weight[i], i))))
    return _finish(inst, route, Strategy.FORGETTING, t0)


def plan_random(inst: ProblemInstance, seed: int) -> PlanResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    route = Route(tuple(int(i) for i in rng.permutation(inst.t_regions)))
    return _finish(inst, route, Strategy.RANDOM, t0)


def plan(inst: ProblemInstance, strategy: Strategy, seed: int | None = None) -> PlanResult:
    if strategy is Strategy.ALGORITHM1:
        return plan_algorithm1(inst)
    if strategy is Strategy.EXACT:
        return plan_exact(inst)
    if strategy is Strategy.FORGETTING:
        return plan_forgetting_baseline(inst)
    if strategy is Strategy.RANDOM:
        return plan_random(inst, seed if seed is not None else 0)
    raise ValueError(f"unknown strategy {strategy!r}")

