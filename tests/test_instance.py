from __future__ import annotations

import json

import numpy as np
import pytest

from clroute import (
    FormatError,
    Objective,
    ParameterError,
    ProblemInstance,
    RegimeError,
    RegimeKind,
    Route,
    ValidationError,
    classify_regime,
    generate_instance,
    metric_closure,
    read_instance,
    validate_instance,
    write_instance,
)
from helpers import manual_instance


def test_classify_regime_boundaries():
    assert classify_regime(80, 100) is RegimeKind.UNDER
    assert classify_regime(80, 82) is RegimeKind.UNDER
    assert classify_regime(120, 100) is RegimeKind.OVER
    assert classify_regime(82, 80) is RegimeKind.OVER
    for m in (99, 100, 101):
        with pytest.raises(RegimeError):
            classify_regime(m, 100)
    with pytest.raises(RegimeError):
        classify_regime(0, 10)


def test_regime_r_value():
    # the surviving-error fraction r = 1 - n/m sets the overparameterized
    # position weights (1 - r) r^(T-p) / T; the underparameterized ones have no r
    r = 1.0 - 100 / 120
    assert 0.0 < r < 1.0
    over = Objective.build(np.zeros(3), 0.0, 120, 100, 1.0)
    assert over.position_weights == pytest.approx([(1 - r) * r ** (3 - p) / 3 for p in (1, 2, 3)])
    assert Objective.build(np.zeros(3), 0.0, 80, 100, 1.0).position_weights == (0.0, 0.0, 1.0)


def test_route_must_be_permutation():
    Route((2, 0, 1))
    with pytest.raises(ValueError):
        Route((0, 0, 1))
    with pytest.raises(ValueError):
        Route((1, 2, 3))


def test_route_accessors():
    route = Route((2, 0, 1))
    assert len(route) == 3
    assert route.final_region == 1
    assert route.one_based() == (3, 1, 2)


def test_validate_accepts_metric_under_instance():
    inst = manual_instance(
        delta=[[0, 2], [2, 0]], delta0=[1, 1], costs=[[0, 3], [3, 0]], m=80, n=100
    )
    assert validate_instance(inst) is None
    assert classify_regime(inst.m_features, inst.n_samples) is RegimeKind.UNDER


def test_validate_reports_triangle_violation_verbatim():
    with pytest.raises(ValidationError) as exc:
        manual_instance(
            delta=[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            delta0=[1, 1, 1],
            costs=[[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            m=80,
            n=100,
        )
    assert str(exc.value) == "triangle inequality: c_{1,3}=5 > c_{1,2}+c_{2,3}=2"


def test_validate_flags_undefined_regime():
    with pytest.raises(ValidationError, match="regime undefined"):
        manual_instance(
            delta=[[0, 1], [1, 0]], delta0=[1, 1], costs=[[0, 1], [1, 0]], m=100, n=100
        )


def test_validate_reports_asymmetry_and_negative_entries():
    delta = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError) as exc:
        ProblemInstance(2, delta, np.array([1.0, -1.0]), np.zeros((2, 2)), 80, 100, -0.5)
    joined = str(exc.value)
    assert "delta not symmetric" in joined
    assert "delta0 must be >= 0" in joined
    assert "sigma2 must be >= 0" in joined


@pytest.mark.parametrize(
    "costs,m",
    [
        ([[0, 1, 50], [1, 0, 1], [50, 1, 0]], 80),  # c_{1,3} > c_{1,2} + c_{2,3}
        ([[0, 1, 2], [3, 0, 1], [2, 1, 0]], 80),  # c_{2,1} != c_{1,2}
        ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 100),  # m == n: no regime
    ],
    ids=["triangle", "asymmetric", "m-equals-n"],
)
def test_no_invalid_instance_can_be_built(costs, m):
    # the check runs at construction, so no planner ever sees such an instance
    with pytest.raises(ValidationError):
        manual_instance(
            delta=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], delta0=[1, 1, 1], costs=costs, m=m, n=100
        )


def test_validate_reports_each_non_finite_field_once():
    # NaN and -inf would otherwise also read as asymmetry and as a broken
    # triangle inequality; only the finiteness violation is reported
    nan, inf = float("nan"), float("inf")
    delta = np.array([[0.0, nan, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    costs = np.array([[0.0, 1.0, -inf], [1.0, 0.0, 1.0], [-inf, 1.0, 0.0]])
    with pytest.raises(ValidationError) as exc:
        ProblemInstance(3, delta, np.array([1.0, inf, 1.0]), costs, 80, 100, nan)
    assert str(exc.value) == (
        "delta must be finite: delta_{1,2}=nan; "
        "delta0 must be finite: delta0_{2}=inf; "
        "c must be finite: c_{1,3}=-inf; "
        "sigma2 must be finite, got nan"
    )


def test_problem_instance_shape_checks():
    with pytest.raises(ValueError):
        ProblemInstance(3, np.zeros((2, 2)), np.zeros(3), np.zeros((3, 3)), 4, 10, 1.0)
    with pytest.raises(ValueError):
        ProblemInstance(2, np.zeros((2, 2)), np.zeros(3), np.zeros((2, 2)), 4, 10, 1.0)


def test_problem_instance_arrays_read_only():
    inst = generate_instance(4, seed=1)
    with pytest.raises(ValueError):
        inst.delta[0, 1] = 99.0
    with pytest.raises(ValueError):
        inst.costs[0, 1] = 99.0


def test_metric_closure_shortest_paths_by_hand():
    closed = metric_closure(np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], float))
    assert np.array_equal(closed, np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float))


def test_metric_closure_fixed_points():
    metric = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float)
    assert np.array_equal(metric_closure(metric), metric)
    two = np.array([[0, 3], [3, 0]], float)
    assert np.array_equal(metric_closure(two), two)


def test_metric_closure_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        t = int(rng.integers(2, 9))
        raw = np.zeros((t, t))
        iu = np.triu_indices(t, k=1)
        raw[iu] = rng.uniform(1.0, 10.0, len(iu[0]))
        raw = raw + raw.T
        closed = metric_closure(raw)
        assert np.all(closed <= raw + 1e-12)
        assert np.array_equal(closed, closed.T)
        assert np.all(np.diagonal(closed) == 0.0)
        # idempotence
        assert np.array_equal(metric_closure(closed), closed)


def test_generate_smallest_instance():
    inst = generate_instance(2, seed=3)
    assert inst.t_regions == 2
    assert inst.delta[0, 1] == inst.delta[1, 0] > 0
    assert inst.costs[0, 1] == inst.costs[1, 0] > 0
    assert validate_instance(inst) is None


def test_generate_costs_satisfy_all_triangle_inequalities():
    inst = generate_instance(8, seed=7, range_lo=1.0, range_hi=10.0, m=80, n=100, sigma2=1.0)
    c = inst.costs
    checked = 0
    for i in range(8):
        for j in range(8):
            for k in range(8):
                if len({i, j, k}) == 3:
                    assert c[i, j] <= c[i, k] + c[k, j] + 1e-9
                    checked += 1
    assert checked == 336


def test_generate_is_deterministic():
    a = generate_instance(8, seed=7)
    b = generate_instance(8, seed=7)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.delta0, b.delta0)
    assert np.array_equal(a.costs, b.costs)
    c = generate_instance(8, seed=8)
    assert not np.array_equal(a.delta, c.delta)


def test_generate_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        generate_instance(1, seed=0)
    with pytest.raises(ParameterError):
        generate_instance(4, seed=0, range_lo=5.0, range_hi=2.0)
    with pytest.raises(ParameterError):
        generate_instance(4, seed=0, range_lo=0.0, range_hi=2.0)


def test_generated_instances_always_validate():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = int(rng.integers(2, 11))
        seed = int(rng.integers(0, 2**31))
        inst = generate_instance(t, seed=seed)
        assert validate_instance(inst) is None


def test_write_read_round_trip(tmp_path):
    inst = generate_instance(5, seed=9, m=120, n=100, sigma2=0.5)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.t_regions == inst.t_regions
    assert back.m_features == 120 and back.n_samples == 100
    assert back.sigma2 == 0.5
    assert np.array_equal(back.delta, inst.delta)
    assert np.array_equal(back.delta0, inst.delta0)
    assert np.array_equal(back.costs, inst.costs)


def test_read_missing_field_names_it(tmp_path):
    inst = generate_instance(3, seed=1)
    path = tmp_path / "broken.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    del doc["delta0"]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="delta0"):
        read_instance(path)


def test_read_rejects_invalid_json_with_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"t": 2,\n  "m": }')
    with pytest.raises(FormatError, match="line 2"):
        read_instance(path)


def test_read_rejects_negative_delta(tmp_path):
    inst = generate_instance(3, seed=2)
    path = tmp_path / "neg.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["delta"][0][1] = -1.0
    doc["delta"][1][0] = -1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="delta must be >= 0"):
        read_instance(path)


def test_read_rejects_wrong_type(tmp_path):
    inst = generate_instance(3, seed=2)
    path = tmp_path / "typed.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    doc["t"] = "three"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match='"t"'):
        read_instance(path)


def test_serialized_floats_round_trip_exactly(tmp_path):
    inst = generate_instance(6, seed=123)
    path = tmp_path / "rt.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.delta.tobytes() == inst.delta.tobytes()
    assert back.costs.tobytes() == inst.costs.tobytes()
