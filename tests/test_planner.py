from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest

from clroute import (
    Route,
    SizeLimitError,
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
from helpers import manual_instance, travel_objective, worked_under


def test_algorithm1_worked_instance_is_optimal():
    inst = worked_under()
    result = plan_algorithm1(inst)
    assert result.route.order == (2, 1, 0)
    assert result.breakdown.total == pytest.approx(8 / 3 + 0.8, rel=1e-12)
    exact = plan_exact(inst)
    assert result.breakdown.total == exact.breakdown.total


# sha256 of the JSON list of (route order, repr of the total) over GOLDEN_CASES
ALG1_GOLDEN_SHA256 = "571c8540371b324c45d661e814bdf21772f43d9f43e720fcdbe09950fa4c0df7"
GOLDEN_CASES = 300


def test_algorithm1_routes_and_totals_are_pinned():
    # T runs 2..20 and m cycles over both regimes; any change to a route or
    # to the last bit of a total changes the digest
    out = []
    for i in range(GOLDEN_CASES):
        inst = generate_instance(2 + i % 19, seed=i, m=(60, 120, 80, 180)[i % 4], n=100)
        result = plan_algorithm1(inst)
        out.append((result.route.order, repr(result.breakdown.total)))
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == ALG1_GOLDEN_SHA256


def test_algorithm1_route_ends_at_best_final_region():
    rng = np.random.default_rng(3)
    for m in (80, 120):
        for _ in range(20):
            t = int(rng.integers(2, 12))
            inst = generate_instance(t, seed=int(rng.integers(1 << 30)), m=m, n=100)
            result = plan_algorithm1(inst)
            assert result.route.final_region == best_final_region(inst)
            assert sorted(result.route.order) == list(range(t))


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
    _, best_travel = held_karp_min_path(inst, travel_objective(6))
    assert route_travel_cost(inst, exact.route) == pytest.approx(best_travel, rel=1e-9)


def test_plan_exact_size_limited():
    inst = generate_instance(17, seed=2)
    with pytest.raises(SizeLimitError):
        plan_exact(inst)


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
