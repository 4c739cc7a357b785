from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings

from clroute import (
    Route,
    ValidationError,
    best_final_region,
    generate_instance,
    held_karp_min_path,
    loss_upper,
    route_travel_cost,
)
from clroute.planner import (
    PlanResult,
    Strategy,
    plan,
    plan_algorithm1,
    plan_exact,
    plan_forgetting_baseline,
    plan_random,
)
from helpers import (
    edge_corpus_instances,
    manual_instance,
    scale_costs,
    scan_all_routes,
    tie_heavy_instances,
    travel_only,
    worked_under,
)


def test_algorithm1_worked_instance_is_optimal():
    inst = worked_under()
    result = plan_algorithm1(inst)
    assert result.route.order == (2, 1, 0)
    assert result.breakdown.total == pytest.approx(8 / 3 + 0.8, rel=1e-12)
    exact = plan_exact(inst)
    assert result.breakdown.total == exact.breakdown.total


def alg1_digest(cases):
    """sha256 of the JSON list of (route order, repr of the total) of alg1
    on ``generate_instance(t, seed, m, n=100)`` for each (t, seed, m)."""
    out = []
    for t, seed, m in cases:
        result = plan_algorithm1(generate_instance(t, seed=seed, m=m, n=100))
        out.append((result.route.order, repr(result.breakdown.total)))
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


M_CYCLE = (60, 120, 80, 180)
ALG1_GOLDEN_SHA256 = "8bd5d2e560b455740762c937409a1bdaee9d8ad024d2a1d5f120980ba18ff721"
GOLDEN_CASES = 300
# past the golden cases' T <= 20: T=24 gives the blossom odd sets of
# k = 10-20, the sizes the plan_t24 benchmark matches, and T=60 of k = 30-40
ALG1_PAST_T20_SHA256 = "4ef50bad0ba36ea4c9c1c853954e5f4a758637449591fde29f96af9c21dcc0fb"
PAST_T20_CASES = [(24, 1000 + i, M_CYCLE[i % 4]) for i in range(60)] + [
    (60, 2000 + i, M_CYCLE[i % 4]) for i in range(10)
]


def test_algorithm1_routes_and_totals_are_pinned():
    # T runs 2..20 and m cycles over both regimes; any change to a route or
    # to the last bit of a total changes the digest
    cases = [(2 + i % 19, i, M_CYCLE[i % 4]) for i in range(GOLDEN_CASES)]
    assert alg1_digest(cases) == ALG1_GOLDEN_SHA256


def test_algorithm1_routes_and_totals_past_t20_are_pinned():
    assert alg1_digest(PAST_T20_CASES) == ALG1_PAST_T20_SHA256


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(inst=edge_corpus_instances())
def test_verdict_and_routes_do_not_depend_on_the_unit_of_cost(inst):
    # scaling every cost by 2^k is exact, so it moves no triangle inequality
    # and no optimal route: the verdict on a valid instance and on a broken
    # copy, alg1's route and the travel-only exact route stay the same
    broken = inst.costs.copy()
    broken[0, 1] = broken[1, 0] = 2.0 * (broken[0, 2] + broken[2, 1]) + max(broken.max(), 1.0)
    route = plan_algorithm1(inst).route
    exact, _ = held_karp_min_path(travel_only(inst))
    for k in (0, -60, -40, 40, 60):
        with pytest.raises(ValidationError):
            manual_instance(
                inst.delta, inst.delta0, np.ldexp(broken, k), inst.m_features, inst.n_samples
            )
        scaled = scale_costs(inst, k)
        assert plan_algorithm1(scaled).route == route
        assert held_karp_min_path(travel_only(scaled))[0] == exact


def test_algorithm1_route_ends_at_best_final_region():
    rng = np.random.default_rng(3)
    for m in (80, 120):
        for _ in range(20):
            t = int(rng.integers(2, 12))
            inst = generate_instance(t, seed=int(rng.integers(1 << 30)), m=m, n=100)
            result = plan_algorithm1(inst)
            assert result.route.final_region == best_final_region(inst)
            assert sorted(result.route.order) == list(range(t))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(inst=tie_heavy_instances(max_t=10))
def test_every_route_is_a_permutation_and_alg1_and_forgetting_end_best(inst):
    # ties in costs and row sums are where tie rules could disagree
    for strategy in Strategy:
        order = plan(inst, strategy, seed=1).route.order
        assert sorted(order) == list(range(inst.t_regions))
        if strategy in (Strategy.ALGORITHM1, Strategy.FORGETTING):
            assert order[-1] == best_final_region(inst)


def test_algorithm1_is_deterministic():
    inst = generate_instance(9, seed=77)
    a = plan_algorithm1(inst)
    b = plan_algorithm1(inst)
    assert a.route.order == b.route.order


def test_algorithm1_two_regions_matches_exact_route():
    rng = np.random.default_rng(5)
    for m in (80, 120):
        for _ in range(25):
            inst = generate_instance(2, seed=int(rng.integers(1 << 30)), m=m, n=100)
            approx = plan_algorithm1(inst)
            exact = plan_exact(inst)
            assert approx.route.order == exact.route.order
            assert approx.breakdown.total == exact.breakdown.total


def test_algorithm1_ratio_bound_small_ensemble():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = int(rng.integers(4, 10))
        inst = generate_instance(t, seed=int(rng.integers(1 << 30)), m=80, n=100)
        approx = plan_algorithm1(inst)
        exact = plan_exact(inst)
        assert approx.breakdown.total <= 1.5 * exact.breakdown.total


def test_plan_exact_minimizes_travel_when_delta_zero():
    base = generate_instance(6, seed=21)
    inst = manual_instance(
        np.zeros((6, 6)), np.zeros(6), base.costs, base.m_features, base.n_samples
    )
    exact = plan_exact(inst)
    best_travel, _ = scan_all_routes(inst, "travel")
    assert route_travel_cost(inst, exact.route) == pytest.approx(best_travel, rel=1e-9)


def test_forgetting_baseline_under_interior_orders():
    inst = worked_under()
    result = plan_forgetting_baseline(inst)
    assert result.route.order == (1, 2, 0)  # ascending interior, ends at region 1 (0-based 0)


def test_forgetting_baseline_over_descending_row_sums():
    inst = manual_instance(
        [[0, 6, 4], [6, 0, 2], [4, 2, 0]],  # row sums 10, 8, 6
        [1, 1, 1],
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        120,
        100,
    )
    result = plan_forgetting_baseline(inst)
    assert result.route.order == (0, 1, 2)


def _tied(t, m, value=3.0):
    delta = np.full((t, t), value)
    np.fill_diagonal(delta, 0.0)
    return manual_instance(delta, np.ones(t), np.zeros((t, t)), m, 100)


def test_forgetting_baseline_over_tie_puts_lower_index_later():
    # among equal row sums the lower index takes the larger weight
    result = plan_forgetting_baseline(_tied(4, 120))
    assert result.route.order == (3, 2, 1, 0)


def _integer_delta(t, m, seed):
    """Small integer dissimilarities, so some row sums tie and some do not."""
    upper = np.triu(np.random.default_rng(seed).integers(0, 3, (t, t)), 1)
    return manual_instance(upper + upper.T, np.ones(t), np.zeros((t, t)), m, 100)


@pytest.mark.parametrize("m", [80, 120], ids=["under", "over"])
def test_forgetting_baseline_is_forgetting_optimal(m):
    # rearrangement: the baseline's forgetting is the minimum over all T!
    # orders, and it ends where alg1 does, ties included
    cases = [generate_instance(t, seed=40 + t, m=m, n=100) for t in range(2, 8)]
    cases += [_tied(t, m) for t in (3, 7)] + [_tied(5, m, value=0.0)]
    cases += [_integer_delta(t, m, seed=t) for t in (5, 6)]
    for inst in cases:
        result = plan_forgetting_baseline(inst)
        best = min(
            loss_upper(inst, Route(order)).forgetting_part
            for order in itertools.permutations(range(inst.t_regions))
        )
        assert result.breakdown.forgetting_part == pytest.approx(best, rel=1e-12)
        assert result.route.final_region == best_final_region(inst)


def test_random_strategy_seeded():
    inst = generate_instance(8, seed=1)
    a = plan_random(inst, seed=5)
    b = plan_random(inst, seed=5)
    c = plan_random(inst, seed=6)
    assert a.route.order == b.route.order
    assert sorted(a.route.order) == list(range(8))
    assert a.route.order != c.route.order


def test_plan_dispatch_covers_all_strategies():
    inst = generate_instance(5, seed=3)
    for strategy in Strategy:
        result = plan(inst, strategy, seed=1)
        assert isinstance(result, PlanResult)
        assert result.strategy is strategy
        assert result.breakdown.total == loss_upper(inst, result.route).total
        assert result.elapsed >= 0.0


def test_plan_accepts_each_strategy_by_its_value():
    inst = generate_instance(6, seed=4)
    for strategy in Strategy:
        by_member, by_value = plan(inst, strategy, seed=2), plan(inst, strategy.value, seed=2)
        assert by_value.strategy is strategy
        assert by_value.route == by_member.route and by_value.breakdown == by_member.breakdown


def ratio(inst, strategy, seed=None, include_constant=True):
    """Strategy total over the exact optimum's total, from the two plans' breakdowns."""
    num = plan(inst, strategy, seed=seed).breakdown.effective_total(include_constant)
    return num / plan_exact(inst).breakdown.effective_total(include_constant)


def test_ratio_worked_instance_and_t2():
    inst = worked_under()
    assert ratio(inst, Strategy.ALGORITHM1) == 1.0

    rng = np.random.default_rng(11)
    for m in (80, 120):
        inst2 = generate_instance(2, seed=int(rng.integers(1 << 30)), m=m, n=100)
        assert ratio(inst2, Strategy.ALGORITHM1) == 1.0


def test_ratio_at_least_one_for_every_strategy():
    rng = np.random.default_rng(13)
    for m in (80, 120):
        for _ in range(10):
            t = int(rng.integers(3, 9))
            inst = generate_instance(t, seed=int(rng.integers(1 << 30)), m=m, n=100)
            for strategy in Strategy:
                r = ratio(inst, strategy, seed=2)
                assert r >= 1.0


def test_ratio_over_regime_bound_small_ensemble():
    rng = np.random.default_rng(17)
    r_param = 1 - 100 / 120
    for _ in range(50):
        t = int(rng.integers(4, 10))
        inst = generate_instance(t, seed=int(rng.integers(1 << 30)), m=120, n=100)
        bound = 1.5 + r_param ** (1 - t)
        assert ratio(inst, Strategy.ALGORITHM1) <= bound


def test_ratio_exclude_constant_flag():
    inst = worked_under()
    with_c = ratio(inst, Strategy.FORGETTING, include_constant=True)
    without_c = ratio(inst, Strategy.FORGETTING, include_constant=False)
    assert with_c >= 1.0 and without_c >= 1.0
    # dropping the shared constant can only move the ratio away from 1
    assert without_c >= with_c


def test_over_degenerate_limit_meets_under_style_bound():
    # with the recency-weighted term removed (delta = 0), only travel varies
    # by route, so the 3/2 travel guarantee bounds the full ratio
    rng = np.random.default_rng(19)
    for _ in range(30):
        t = int(rng.integers(4, 10))
        base = generate_instance(t, seed=int(rng.integers(1 << 30)), m=120, n=100)
        inst = manual_instance(np.zeros((t, t)), base.delta0, base.costs, 120, 100)
        assert ratio(inst, Strategy.ALGORITHM1) <= 1.5
