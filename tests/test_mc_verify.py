from __future__ import annotations

import math

import numpy as np
import pytest

from clroute import (
    ParameterError,
    RegimeError,
    Route,
    closed_form_forgetting,
)
from clroute.mc_verify import (
    McReport,
    TaskGroundTruth,
    _over_losses,
    _under_losses,
    delta0_vector,
    delta_matrix,
    simplex_ground_truth,
    verify_closed_form,
)


def test_ground_truth_validation():
    with pytest.raises(ValueError):
        TaskGroundTruth(np.zeros(4), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        TaskGroundTruth(np.zeros((2, 4)), np.zeros(3), 1.0)
    for sigma2 in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            TaskGroundTruth(np.zeros((2, 4)), np.zeros(4), sigma2)
    truth = TaskGroundTruth(np.zeros((2, 4)), np.zeros(4), 1.0)
    assert truth.t_regions == 2 and truth.m_features == 4
    with pytest.raises(ValueError):
        truth.w_star[0, 0] = 1.0


def test_simplex_ground_truth_distances_are_exact():
    scales = np.array([1.0, 2.0, 0.5])
    truth = simplex_ground_truth(3, 6, scales=scales, sigma2=0.25)
    d = delta_matrix(truth)
    for i in range(3):
        assert d[i, i] == 0.0
        for j in range(3):
            if i != j:
                assert d[i, j] == pytest.approx(scales[i] ** 2 + scales[j] ** 2, rel=1e-15)
    np.testing.assert_allclose(delta0_vector(truth), scales**2, rtol=1e-15)


def test_simplex_ground_truth_needs_enough_features():
    with pytest.raises(ParameterError):
        simplex_ground_truth(5, 4)
    with pytest.raises(ParameterError):
        simplex_ground_truth(3, 6, scales=np.ones(2))


def test_mc_report_z_edge_cases():
    assert McReport(1.0, 1.0, 0.0, 100).z == 0.0
    assert McReport(1.0, 2.0, 0.0, 100).z == math.inf
    assert McReport(1.5, 1.0, 0.25, 100).z == pytest.approx(2.0)
    doc = McReport(1.5, 1.0, 0.25, 100).to_json()
    assert set(doc) == {"empirical", "closed_form", "std_error", "trials", "z"}
    assert doc["trials"] == 100


def test_simulate_task_under_noiseless_recovers_truth():
    # without noise the fit recovers the final region exactly, so every
    # trial's loss is that region's mean squared distance to all regions
    rng = np.random.default_rng(1)
    truth = TaskGroundTruth(rng.normal(size=(3, 4)), np.zeros(4), 0.0)
    losses = _under_losses(truth, Route((2, 0, 1)), 10, 600, rng)
    np.testing.assert_allclose(losses, delta_matrix(truth)[1].mean(), rtol=1e-8)


@pytest.mark.parametrize("m, seed, closed", [(1, 2, 0.125), (4, 3, 0.8)])
def test_simulate_task_under_noise_floor(m, seed, closed):
    # T=1 at n=10: closed form = m sigma2/(n-m-1)
    truth = TaskGroundTruth(np.zeros((1, m)), np.zeros(m), 1.0)
    report = verify_closed_form(truth, Route((0,)), 10, 100_000, np.random.default_rng(seed))
    assert report.closed_form == pytest.approx(closed, rel=1e-12)
    assert report.z <= 3.0


def test_simulate_sequence_over_interpolates_each_task():
    # replay the generator stream of one batch to recover each task's data,
    # check the residual is zero after its update, and compare the final
    # predictors' forgetting losses with the kernel's
    truth = simplex_ground_truth(3, 12, scales=np.array([1.0, 2.0, 3.0]), sigma2=0.5)
    route = Route((2, 0, 1))
    n, trials = 4, 5
    losses = _over_losses(truth, route, n, trials, np.random.default_rng(7))

    replay = np.random.default_rng(7)
    w = np.tile(truth.w0, (trials, 1))
    for region in route.order:
        x = replay.standard_normal((trials, n, truth.m_features))
        z = math.sqrt(truth.sigma2) * replay.standard_normal((trials, n))
        y = x @ truth.w_star[region] + z
        for k in range(trials):
            w[k] += x[k].T @ np.linalg.solve(x[k] @ x[k].T, y[k] - x[k] @ w[k])
            resid = np.linalg.norm(x[k] @ w[k] - y[k])
            assert resid <= 1e-8 * max(np.linalg.norm(y[k]), 1.0)
    expected = [np.mean(np.sum((truth.w_star - wk) ** 2, axis=1)) for wk in w]
    np.testing.assert_allclose(losses, expected, rtol=1e-10)


def test_simulate_sequence_over_noise_floor():
    # T=1, w0 = w*: closed form reduces to (1-r) m sigma2/(m-n-1) = 0.8
    truth = TaskGroundTruth(np.zeros((1, 10)), np.zeros(10), 1.0)
    rng = np.random.default_rng(5)
    report = verify_closed_form(truth, Route((0,)), 4, 100_000, rng)
    assert report.closed_form == pytest.approx(0.8, rel=1e-12)
    assert report.z <= 3.0


def test_verify_under_statistical_agreement():
    rng = np.random.default_rng(11)
    truth = simplex_ground_truth(3, 4, scales=rng.uniform(1.0, 2.0, 3), sigma2=0.5)
    report = verify_closed_form(truth, Route((1, 2, 0)), 10, 20_000, rng)
    expected = closed_form_forgetting(truth.w_star[[1, 2, 0]], truth.w0, 0.5, 4, 10)
    assert report.closed_form == pytest.approx(expected, rel=1e-12)
    assert report.trials == 20_000
    assert report.std_error > 0
    assert report.z <= 3.0


def test_verify_over_statistical_agreement():
    rng = np.random.default_rng(13)
    truth = simplex_ground_truth(3, 12, scales=rng.uniform(1.0, 2.0, 3), sigma2=0.5)
    report = verify_closed_form(truth, Route((0, 2, 1)), 4, 20_000, rng)
    expected = closed_form_forgetting(truth.w_star[[0, 2, 1]], truth.w0, 0.5, 12, 4)
    assert report.closed_form == pytest.approx(expected, rel=1e-12)
    assert report.z <= 3.0


def test_verify_exact_zero_case():
    truth = TaskGroundTruth(np.tile(np.ones(12), (3, 1)), np.ones(12), 0.0)
    rng = np.random.default_rng(17)
    report = verify_closed_form(truth, Route((0, 1, 2)), 4, 500, rng)
    assert report.empirical_mean == 0.0
    assert report.closed_form == 0.0
    assert report.z == 0.0


def test_verify_parameter_guards():
    truth = simplex_ground_truth(2, 4)
    rng = np.random.default_rng(1)
    with pytest.raises(ParameterError):
        verify_closed_form(truth, Route((0, 1)), 10, 99, rng)
    for n in (3, 4, 5):  # the undefined band m in {n-1, n, n+1}
        with pytest.raises(RegimeError):
            verify_closed_form(truth, Route((0, 1)), n, 500, rng)
    with pytest.raises(ValueError):
        verify_closed_form(simplex_ground_truth(3, 4), Route((0, 1)), 10, 500, rng)


def test_simulate_task_under_regime_guard():
    # the under process starts at n = m + 2; n = m + 1 is the undefined band
    truth = simplex_ground_truth(2, 4)
    rng = np.random.default_rng(1)
    with pytest.raises(RegimeError):
        verify_closed_form(truth, Route((0, 1)), 5, 500, rng)
    report = verify_closed_form(truth, Route((0, 1)), 6, 500, rng)
    assert report.closed_form == closed_form_forgetting(truth.w_star, truth.w0, 1.0, 4, 6)


def test_simulate_sequence_over_regime_guard():
    # the over process ends at n = m - 2; n = m - 1 is the undefined band
    truth = simplex_ground_truth(2, 4)
    rng = np.random.default_rng(1)
    with pytest.raises(RegimeError):
        verify_closed_form(truth, Route((0, 1)), 3, 500, rng)
    report = verify_closed_form(truth, Route((0, 1)), 2, 500, rng)
    assert report.closed_form == closed_form_forgetting(truth.w_star, truth.w0, 1.0, 4, 2)


def test_under_mean_invariant_to_interior_order():
    scales = np.array([1.0, 2.5, 0.5, 1.5])
    truth = simplex_ground_truth(4, 4, scales=scales, sigma2=0.5)
    r1 = verify_closed_form(truth, Route((0, 1, 2, 3)), 10, 10_000, np.random.default_rng(1))
    r2 = verify_closed_form(truth, Route((2, 0, 1, 3)), 10, 10_000, np.random.default_rng(2))
    combined = math.hypot(r1.std_error, r2.std_error)
    assert r1.closed_form == r2.closed_form
    assert abs(r1.empirical_mean - r2.empirical_mean) <= 3 * combined


def test_over_mean_depends_on_order():
    # strongly asymmetric row sums: visiting the far region last hurts
    scales = np.array([3.0, 0.1, 0.1])
    truth = simplex_ground_truth(3, 12, scales=scales, sigma2=0.25)
    fwd = verify_closed_form(truth, Route((0, 1, 2)), 4, 20_000, np.random.default_rng(3))
    rev = verify_closed_form(truth, Route((2, 1, 0)), 4, 20_000, np.random.default_rng(4))
    combined = math.hypot(fwd.std_error, rev.std_error)
    assert abs(fwd.empirical_mean - rev.empirical_mean) > 5 * combined
    assert fwd.closed_form != rev.closed_form


def test_noise_constant_scales_linearly_in_sigma2():
    m, n, t = 12, 4, 3
    k1 = (1 - (1 - n / m) ** t) * m / (m - n - 1)  # constant at sigma2 = 1
    for seed, sigma2 in ((21, 0.25), (22, 0.5), (23, 1.0)):
        truth = TaskGroundTruth(np.zeros((t, m)), np.zeros(m), sigma2)
        report = verify_closed_form(
            truth, Route((0, 1, 2)), n, 20_000, np.random.default_rng(seed)
        )
        assert report.closed_form == pytest.approx(k1 * sigma2, rel=1e-12)
        assert abs(report.empirical_mean - k1 * sigma2) <= 3 * report.std_error


def test_same_seed_gives_same_report():
    truth = simplex_ground_truth(2, 12, sigma2=0.5)
    a = verify_closed_form(truth, Route((0, 1)), 4, 4_000, np.random.default_rng(9))
    b = verify_closed_form(truth, Route((0, 1)), 4, 4_000, np.random.default_rng(9))
    assert a == b
