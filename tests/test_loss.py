from __future__ import annotations

import inspect
import itertools

import numpy as np
import pytest

import clroute
from clroute import (
    Route,
    TaskGroundTruth,
    best_final_region,
    generate_instance,
    loss_upper,
    route_travel_cost,
    verify_closed_form,
)
from clroute.loss import r_powers
from helpers import (
    correlated_ground_truth,
    manual_instance,
    over_t2,
    planner_closed_form,
    travel_only,
    worked_under,
)


def test_best_final_region_by_row_sums():
    # row sums 6, 8, 10 -> region 1 (0-based 0)
    assert best_final_region(worked_under()) == 0


def test_best_final_region_tie_goes_low():
    inst = manual_instance([[0, 5], [5, 0]], [0, 0], [[0, 1], [1, 0]], 4, 10)
    assert best_final_region(inst) == 0


def test_best_final_region_zero_row_wins():
    delta = np.array(
        [[0.0, 3.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )  # region 3 is identical to everything
    inst = manual_instance(delta, [1, 1, 1], np.zeros((3, 3)), 4, 10)
    assert best_final_region(inst) == 2


def test_loss_upper_under_worked_routes():
    inst = worked_under()
    b = loss_upper(inst, Route((2, 1, 0)))
    assert b.forgetting_part == pytest.approx(2.0, rel=1e-12)
    assert b.travel_part == pytest.approx(2 / 3, rel=1e-12)
    assert b.constant_part == pytest.approx(0.8, rel=1e-12)
    assert b.total == pytest.approx(8 / 3 + 0.8, rel=1e-12)

    worse = loss_upper(inst, Route((0, 1, 2)))
    assert worse.forgetting_part == pytest.approx(10 / 3, rel=1e-12)
    assert worse.total == pytest.approx(4.8, rel=1e-12)


def test_loss_upper_under_two_regions():
    inst = manual_instance([[0, 5], [5, 0]], [0, 0], [[0, 3], [3, 0]], 4, 10)
    b = loss_upper(inst, Route((0, 1)))
    assert b.forgetting_part == pytest.approx(2.5)
    assert b.travel_part == pytest.approx(1.5)


def test_loss_upper_over_worked_example():
    b = loss_upper(over_t2(), Route((0, 1)))
    assert b.forgetting_part == pytest.approx(1.6, rel=1e-12)
    assert b.travel_part == pytest.approx(1.0, rel=1e-12)
    assert b.constant_part == 0.0
    assert b.total == pytest.approx(2.6, rel=1e-12)


def test_loss_upper_over_zero_dissimilarity():
    inst = manual_instance(np.zeros((3, 3)), np.zeros(3), [[0, 1, 2], [1, 0, 1], [2, 1, 0]], 12, 4, 0.0)
    for order in itertools.permutations(range(3)):
        assert loss_upper(inst, Route(order)).forgetting_part == 0.0


def test_loss_upper_over_constant_formula():
    t = 5
    inst = manual_instance(np.zeros((t, t)), np.zeros(t), np.zeros((t, t)), 120, 100, 1.0)
    b = loss_upper(inst, Route(tuple(range(t))))
    assert b.constant_part == pytest.approx((1 - (1 / 6) ** t) * 120 / 19, rel=1e-12)


def test_travel_only_total_is_the_raw_travel_over_t_bit_for_bit():
    # the copy whose exact optimum is the travel-only optimum: no forgetting,
    # no constant, and travel / T to the last bit, in either regime
    rng = np.random.default_rng(14)
    for m in (80, 120):
        for _ in range(25):
            t = int(rng.integers(2, 10))
            inst = generate_instance(t, seed=int(rng.integers(1 << 30)), m=m, n=100)
            route = Route(tuple(int(v) for v in rng.permutation(t)))
            total = loss_upper(travel_only(inst), route).total
            assert repr(total) == repr(route_travel_cost(inst, route) / t)


def test_loss_upper_dispatch():
    # the instance's own (m, n) selects one weight per position:
    # underparameterized puts all forgetting weight on the last position,
    # divided by T; overparameterized weighs position p by (1-r)*r^(T-p)/T
    # with r = 0.6, divided by 1
    under = worked_under().objective
    assert under.position_weights == (0.0, 0.0, 1.0)
    assert under.forgetting_divisor == 3
    assert under.forgetting((1, 2, 0)) == 6 / 3  # row sum 6 / T to the last bit
    over = over_t2().objective
    assert over.position_weights == pytest.approx((0.4 * 0.6 / 2, 0.4 / 2), rel=1e-12)
    assert over.forgetting_divisor == 1


def test_under_forgetting_ignores_interior_order():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = generate_instance(6, seed=int(rng.integers(1 << 30)))
        orders = [(0, 1, 2, 3, 4, 5), (4, 2, 0, 3, 1, 5), (3, 0, 4, 1, 2, 5)]
        parts = {loss_upper(inst, Route(o)).forgetting_part for o in orders}
        assert len(parts) == 1


def test_over_reversal_asymmetry_needs_unequal_row_sums():
    # T=2: symmetric delta forces equal row sums, so reversal never matters.
    b_fwd = loss_upper(over_t2(), Route((0, 1)))
    b_rev = loss_upper(over_t2(), Route((1, 0)))
    assert b_fwd.forgetting_part == b_rev.forgetting_part

    # T=3 with distinct row sums: reversal changes the loss.
    inst = manual_instance(
        [[0, 6, 4], [6, 0, 2], [4, 2, 0]], [0, 0, 0], np.zeros((3, 3)), 12, 4, 0.0
    )
    fwd = loss_upper(inst, Route((0, 1, 2))).forgetting_part
    rev = loss_upper(inst, Route((2, 1, 0))).forgetting_part
    assert fwd != rev


@pytest.mark.parametrize("m,n", [(4, 10), (12, 4)])
def test_closed_form_equals_loss_upper_on_exact_distances(m, n):
    # correlated ground truths (shared mean, mixed coordinates), w0 != 0 and
    # random routes: the closed form verify checks is, to the last bit, the
    # forgetting plus constant part of the planners' objective on the
    # instance whose delta and delta0 are the exact distances
    rng = np.random.default_rng(31)
    for _ in range(20):
        truth = correlated_ground_truth(rng, int(rng.integers(2, 9)), m)
        route = Route(tuple(int(v) for v in rng.permutation(truth.t_regions)))
        report = verify_closed_form(truth, route, n, 100, rng)
        assert report.closed_form == planner_closed_form(truth, route, n)


def test_constant_part_is_route_independent():
    rng = np.random.default_rng(17)
    for m in (80, 120):
        inst = generate_instance(4, seed=int(rng.integers(1 << 30)), m=m, n=100)
        constants = {
            loss_upper(inst, Route(o)).constant_part for o in itertools.permutations(range(4))
        }
        assert len(constants) == 1


def test_r_powers_matches_pow():
    powers = r_powers(0.6, 5)
    np.testing.assert_allclose(powers, [0.6**k for k in range(6)], rtol=1e-15)


def _closed_form(w_star, w0, sigma2: float, n: int) -> float:
    """verify's closed form for ground truths trained in index order."""
    truth = TaskGroundTruth(w_star, w0, sigma2)
    route = Route(tuple(range(truth.t_regions)))
    return verify_closed_form(truth, route, n, 100, np.random.default_rng(0)).closed_form


def test_closed_form_under_identical_params():
    val = _closed_form(np.ones((5, 4)), np.zeros(4), 2.0, 10)  # w0 plays no part
    assert val == pytest.approx(2 * 0.8, rel=1e-12)


def test_closed_form_under_single_pair():
    w = np.array([[0.0, 0.0], [2.0, 0.0]])  # squared distance 4
    assert _closed_form(w, np.zeros(2), 0.0, 10) == pytest.approx(2.0, rel=1e-12)


def test_closed_form_under_regime_check():
    # n = m + 2 is the first underparameterized n
    assert _closed_form(np.zeros((2, 10)), np.zeros(10), 1.0, 12) == pytest.approx(10.0)


def test_closed_form_over_everything_coincides():
    assert _closed_form(np.ones((4, 12)), np.ones(12), 0.0, 4) == 0.0


def test_closed_form_over_only_initial_distance():
    w0 = np.zeros(10)
    w0[0] = 1.0  # squared distance 1, r = 0.6
    assert _closed_form(np.zeros((1, 10)), w0, 0.0, 4) == pytest.approx(0.6, rel=1e-12)


def test_closed_form_over_regime_check():
    # n = m - 2 is the last overparameterized n: (1 - 0.2^2) * 10/(10-8-1) = 9.6
    assert _closed_form(np.zeros((2, 10)), np.zeros(10), 1.0, 8) == pytest.approx(9.6)


def _python_routine(obj) -> bool:
    return inspect.isfunction(obj) or inspect.ismethod(obj)


def test_no_public_name_takes_or_names_a_regime():
    # the regime is read from (m, n): no public function or method takes it
    # as a parameter, and no public name is split into _under / _over variants
    for name in clroute.__all__:
        assert not name.endswith(("_under", "_over")), name
        obj = getattr(clroute, name)
        routines = [(name, obj)] if _python_routine(obj) else []
        if inspect.isclass(obj):
            routines = inspect.getmembers(obj, _python_routine)
        for attr, routine in routines:
            if not attr.startswith("_"):
                assert "regime" not in inspect.signature(routine).parameters, (name, attr)
