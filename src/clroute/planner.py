"""Planning strategies: an approximation, the exact optimum, two baselines.

Four strategies produce a route and its loss breakdown:

* ``alg1`` — the approximation pipeline, :func:`clroute.shp.fixed_end_path`
  ending at the best final region: travel cost within 3/2 of the optimal
  Hamiltonian path, in polynomial time. Its exact odd-set matching is
  Edmonds' blossom algorithm, O(k^3) in the odd-set size k.
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
from .instance import ParameterError, ProblemInstance, Route
from .loss import LossBreakdown, best_final_region, loss_upper


class Strategy(str, Enum):
    ALGORITHM1 = "alg1"
    EXACT = "exact"
    FORGETTING = "forgetting"
    RANDOM = "random"


@dataclass(frozen=True, eq=False)
class PlanResult:
    """One strategy's route, loss and wall time; compares and hashes by identity."""

    route: Route
    breakdown: LossBreakdown
    strategy: Strategy
    elapsed: float
    stages: shp.PathStages | None = None  # alg1's stages; None for every other strategy


def _finish(
    inst: ProblemInstance,
    route: Route,
    strategy: Strategy,
    t0: float,
    stages: shp.PathStages | None = None,
) -> PlanResult:
    return PlanResult(route, loss_upper(inst, route), strategy, time.perf_counter() - t0, stages)


def plan_algorithm1(inst: ProblemInstance) -> PlanResult:
    """Run the full approximation pipeline; the route always ends at the
    minimum-row-sum region.

    Polynomial: the exact odd-set matching, the costliest stage, is O(k^3)
    in the odd-set size k.
    """
    t0 = time.perf_counter()
    stages = shp.fixed_end_path(inst.costs, best_final_region(inst))
    return _finish(inst, stages.route, Strategy.ALGORITHM1, t0, stages)


def plan_exact(inst: ProblemInstance) -> PlanResult:
    """Exact optimum of the instance's objective via the subset DP oracle."""
    t0 = time.perf_counter()
    route, _ = shp.held_karp_min_path(inst)
    return _finish(inst, route, Strategy.EXACT, t0)


def plan_forgetting_baseline(inst: ProblemInstance) -> PlanResult:
    """Travel-oblivious baseline minimizing only the forgetting term.

    By the rearrangement inequality, the regions in descending row sum take
    the ascending position weights; among equal row sums the lower index
    goes later, as the reverse of a stable sort (equal sums by index) gives.
    The route is a stable sort of the assigned weights, so it ends at
    :func:`clroute.loss.best_final_region`, and regions sharing a weight
    (the underparameterized interior) are in ascending index.
    """
    t0 = time.perf_counter()
    objective = inst.objective
    weight = np.empty(inst.t_regions)
    weight[np.argsort(objective.row_sums, kind="stable")[::-1]] = objective.position_weights
    route = Route(tuple(np.argsort(weight, kind="stable").tolist()))
    return _finish(inst, route, Strategy.FORGETTING, t0)


def plan_random(inst: ProblemInstance, seed: int) -> PlanResult:
    t0 = time.perf_counter()
    route = Route(tuple(np.random.default_rng(seed).permutation(inst.t_regions).tolist()))
    return _finish(inst, route, Strategy.RANDOM, t0)


def plan(inst: ProblemInstance, strategy: Strategy | str, seed: int | None = None) -> PlanResult:
    """Run one strategy, named by its member or its value ("alg1", ...)."""
    # an if chain, not a table built at import: each planner is looked up by
    # its module-level name at call time, so a wrapper bound to that name runs
    try:
        strategy = Strategy(strategy)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
    if strategy is Strategy.ALGORITHM1:
        return plan_algorithm1(inst)
    if strategy is Strategy.EXACT:
        return plan_exact(inst)
    if strategy is Strategy.FORGETTING:
        return plan_forgetting_baseline(inst)
    return plan_random(inst, seed if seed is not None else 0)

