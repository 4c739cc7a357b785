from __future__ import annotations

import ctypes
import logging
import math
import os
import sys
import threading

import numpy as np
import pytest

from clroute import Route, mc_verify
from clroute.mc_verify import (
    McReport,
    TaskGroundTruth,
    _chunk_losses,
    _over_losses,
    _under_losses,
    delta0_vector,
    delta_matrix,
    simplex_ground_truth,
    verify_closed_form,
)
from helpers import assert_compared_by_identity, planner_closed_form


def test_ground_truth_validation():
    truth = TaskGroundTruth(np.zeros((2, 4)), np.zeros(4), 1.0)
    assert truth.t_regions == 2 and truth.m_features == 4
    with pytest.raises(ValueError):
        truth.w_star[0, 0] = 1.0


def test_ground_truths_built_alike_compare_by_identity():
    assert_compared_by_identity(simplex_ground_truth(3, 4), simplex_ground_truth(3, 4))


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


def test_mc_report_z_edge_cases():
    assert McReport(1.0, 1.0, 0.0, 100).z == 0.0
    assert McReport(1.0, 2.0, 0.0, 100).z == math.inf
    assert McReport(1.5, 1.0, 0.25, 100).z == pytest.approx(2.0)
    doc = McReport(1.5, 1.0, 0.25, 100).to_json()
    assert set(doc) == {"empirical", "closed_form", "std_error", "trials", "z", "z_signed"}
    assert doc["trials"] == 100


@pytest.mark.parametrize(
    "empirical, closed, std_error, z_signed",
    [
        (1.0, 1.0, 0.0, 0.0),
        (1.0, 1.0 + 1e-13, 0.0, 0.0),
        (1.0, 2.0, 0.0, -math.inf),
        (2.0, 1.0, 0.0, math.inf),
        (1.5, 1.0, 0.25, 2.0),
        (0.5, 1.0, 0.25, -2.0),
    ],
)
def test_mc_report_z_signed_keeps_the_sign_of_the_difference(
    empirical, closed, std_error, z_signed
):
    report = McReport(empirical, closed, std_error, 100)
    assert report.z_signed == z_signed
    assert report.z == abs(z_signed)
    assert report.to_json()["z_signed"] == z_signed


def test_mc_report_z_is_zero_only_for_rounding_level_differences():
    # a noiseless fit leaves a std error of rounding size; the first pair is
    # the under slot of `verify --sigma2 0 --t 2 --seed 1`, once read as z = 4.5
    assert McReport(6.255255869141123, 6.2552558691411235, 1.97e-16, 200).z == 0.0
    assert McReport(5.87e-31, 0.0, 8.9e-32, 200).z == 0.0
    # a closed form off by 1e-9 relative is a real disagreement at that spread
    closed = 6.2552558691411235
    assert McReport(closed * (1 + 1e-9), closed, 1e-16, 200).z > 3.0
    assert McReport(1e-9, 0.0, 1e-16, 200).z > 3.0


@pytest.mark.parametrize("closed", [6.2552558691411235, 0.3])
def test_mc_report_z_is_zero_up_to_1e12_of_the_larger_of_1_and_the_closed_form(closed):
    # the rounding edge: half of it reads as agreement, twice it as a
    # difference; below 1 the edge is 1e-12 itself
    edge = 1e-12 * max(1.0, closed)
    for sign in (1.0, -1.0):
        assert McReport(closed + sign * 0.5 * edge, closed, 1e-13, 200).z_signed == 0.0
        assert McReport(closed + sign * 2.0 * edge, closed, 1e-13, 200).z_signed * sign > 10.0


@pytest.mark.parametrize("m, n, route", [(4, 10, (2, 0, 1)), (12, 4, (1, 2, 0))])
def test_std_error_is_the_sample_deviation_over_root_trials(m, n, route):
    # the report's losses replayed from the same seed; the sample deviation
    # divides by trials - 1
    truth = simplex_ground_truth(3, m, scales=np.array([1.0, 2.0, 3.0]), sigma2=0.5)
    report = verify_closed_form(truth, Route(route), n, 300, np.random.default_rng(5))
    regions = route if m > n else route[-1:]
    losses = mc_verify._losses(truth, regions, n, 300, np.random.default_rng(5))
    assert report.empirical_mean == losses.mean()
    assert report.std_error == np.std(losses, ddof=1) / math.sqrt(300)
    assert report.std_error != np.std(losses) / math.sqrt(300)


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

    # the trials fit in one chunk, which draws from the first chunk seed's stream
    replay = np.random.default_rng(np.random.default_rng(7).integers(2**63, size=1)[0])
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


@pytest.mark.parametrize("simulate, m, n", [(_under_losses, 4, 10), (_over_losses, 12, 4)])
def test_losses_do_not_depend_on_the_worker_count(simulate, m, n):
    # 1000 trials are chunks of 256, 256, 256 and 232, one pool task each;
    # whichever workers run them, the losses equal one plain loop over the
    # same per-chunk streams. A short switch interval interleaves the
    # workers as finely as it can.
    truth = simplex_ground_truth(3, m, scales=np.array([1.0, 2.0, 3.0]), sigma2=0.5)
    route = Route((2, 0, 1))
    regions = route.order[-1:] if simulate is _under_losses else route.order
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        losses = simulate(truth, route, n, 1000, np.random.default_rng(31))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads

    seeds = np.random.default_rng(31).integers(2**63, size=4)
    sizes = (256, 256, 256, 232)
    chunks = [np.random.default_rng(s) for s in seeds]
    expected = np.concatenate(
        [_chunk_losses(truth, regions, n, b, rng) for rng, b in zip(chunks, sizes)]
    )
    assert losses.shape == (1000,)
    assert losses.tobytes() == expected.tobytes()


@pytest.mark.parametrize("simulate, m, n", [(_under_losses, 4, 10), (_over_losses, 12, 4)])
def test_losses_are_the_same_on_one_worker_and_on_three(simulate, m, n, monkeypatch):
    # the worker count follows the usable CPUs; one worker runs the four chunks
    # one after another, and three cannot share them evenly
    truth = simplex_ground_truth(3, m, scales=np.array([1.0, 2.0, 3.0]), sigma2=0.5)
    route = Route((2, 0, 1))
    regions = route.order[-1:] if simulate is _under_losses else route.order
    seeds = np.random.default_rng(31).integers(2**63, size=4)
    expected = np.concatenate(
        [
            _chunk_losses(truth, regions, n, b, np.random.default_rng(s))
            for s, b in zip(seeds, (256, 256, 256, 232))
        ]
    )
    workers = set()

    def chunk_losses(*args):
        workers.add(threading.get_ident())
        return _chunk_losses(*args)

    monkeypatch.setattr(mc_verify, "_chunk_losses", chunk_losses)
    threads = threading.active_count()
    for cpus in (1, 3):
        workers.clear()
        affinity = set(range(cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        losses = simulate(truth, route, n, 1000, np.random.default_rng(31))
        assert losses.tobytes() == expected.tobytes()
        assert 1 <= len(workers) <= cpus
        assert threading.active_count() == threads


@pytest.fixture
def blas_threads():
    """Get and set numpy's bundled OpenBLAS thread count; the count before
    the test comes back after it. Skips where numpy links another BLAS."""
    blas = mc_verify._openblas()
    if blas is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    get = blas.scipy_openblas_get_num_threads64_
    set_threads = blas.scipy_openblas_set_num_threads64_
    before = get()
    yield get, set_threads
    set_threads(before)


def test_losses_run_on_one_blas_thread_and_restore_the_count(blas_threads, monkeypatch):
    # the chunks run on one BLAS thread; the caller's count comes back after
    # a return and after a chunk raises
    get, set_threads = blas_threads
    truth, route = simplex_ground_truth(3, 12, sigma2=0.5), Route((2, 0, 1))
    counts = []

    def chunk_losses(*args):
        counts.append(get())
        if len(counts) > 2:
            raise RuntimeError("chunk failed")
        return _chunk_losses(*args)

    monkeypatch.setattr(mc_verify, "_chunk_losses", chunk_losses)
    set_threads(3)
    assert _over_losses(truth, route, 4, 512, np.random.default_rng(5)).shape == (512,)
    assert get() == 3
    with pytest.raises(RuntimeError, match="chunk failed"):
        _over_losses(truth, route, 4, 256, np.random.default_rng(5))
    assert get() == 3
    assert counts == [1, 1, 1]


def test_many_overlapping_losses_calls_restore_the_blas_count(blas_threads, monkeypatch):
    # more callers than cores, switching threads often: every chunk runs on
    # one BLAS thread, and the caller's count comes back once all have ended.
    # Without the lock one call would restore the count while another runs
    get, set_threads = blas_threads
    truth, regions = simplex_ground_truth(3, 12, sigma2=0.5), (2, 0, 1)
    expected = mc_verify._losses(truth, regions, 4, 100, np.random.default_rng(5)).tobytes()
    same, counts = [], []

    def chunk_losses(*args):
        counts.append(get())
        return _chunk_losses(*args)

    monkeypatch.setattr(mc_verify, "_chunk_losses", chunk_losses)

    def run():
        for _ in range(20):
            losses = mc_verify._losses(truth, regions, 4, 100, np.random.default_rng(5))
            same.append(losses.tobytes() == expected)

    callers = [threading.Thread(target=run) for _ in range(2 * (os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    set_threads(3)
    sys.setswitchinterval(1e-6)
    try:
        for th in callers:
            th.start()
        for th in callers:
            th.join(60)
        assert not any(th.is_alive() for th in callers)
        assert get() == 3
    finally:
        sys.setswitchinterval(interval)
    assert same == [True] * 20 * len(callers)
    assert counts == [1] * 20 * len(callers)


@pytest.mark.parametrize(
    "regions, m, n", [((2,), 4, 10), ((2, 0, 1), 12, 4)], ids=["under", "over"]
)
def test_a_singular_gram_matrix_redraws_the_batch_once(regions, m, n, monkeypatch, caplog):
    # the first solve fails as on a singular Gram matrix; the batch is drawn
    # again, with one warning, and every trial still gets a finite loss.
    # 200 trials are one chunk, so one worker calls solve
    truth = simplex_ground_truth(3, m, sigma2=0.5)
    solve = np.linalg.solve
    failures = [np.linalg.LinAlgError("Singular matrix")]

    def solve_failing_once(*args):
        if failures:
            raise failures.pop()
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", solve_failing_once)
    with caplog.at_level(logging.WARNING, logger="clroute.mc_verify"):
        losses = mc_verify._losses(truth, regions, n, 200, np.random.default_rng(5))
    records = [r for r in caplog.records if r.name == "clroute.mc_verify"]
    assert [r.levelno for r in records] == [logging.WARNING]
    assert not failures
    assert losses.shape == (200,) and np.isfinite(losses).all()


@pytest.mark.parametrize(
    "regions, m, n", [((2,), 4, 10), ((2, 0, 1), 12, 4)], ids=["under", "over"]
)
def test_losses_are_the_same_bytes_where_the_blas_thread_calls_are_missing(
    regions, m, n, monkeypatch
):
    # where numpy links another BLAS, nothing sets its thread count; at
    # m <= 12 no product or solve is large enough to thread, so the losses
    # are the bytes the one-thread control gives
    truth = simplex_ground_truth(3, m, sigma2=0.5)
    controlled = mc_verify._losses(truth, regions, n, 600, np.random.default_rng(5))

    def no_library(*args, **kwargs):
        raise OSError("cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert mc_verify._openblas() is None
    losses = mc_verify._losses(truth, regions, n, 600, np.random.default_rng(5))
    assert losses.tobytes() == controlled.tobytes()


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
    route = Route((1, 2, 0))
    report = verify_closed_form(truth, route, 10, 20_000, rng)
    assert report.closed_form == planner_closed_form(truth, route, 10)
    assert report.trials == 20_000
    assert report.std_error > 0
    assert report.z <= 3.0


def test_verify_over_statistical_agreement():
    rng = np.random.default_rng(13)
    truth = simplex_ground_truth(3, 12, scales=rng.uniform(1.0, 2.0, 3), sigma2=0.5)
    route = Route((0, 2, 1))
    report = verify_closed_form(truth, route, 4, 20_000, rng)
    assert report.closed_form == planner_closed_form(truth, route, 4)
    assert report.z <= 3.0


def test_verify_exact_zero_case():
    truth = TaskGroundTruth(np.tile(np.ones(12), (3, 1)), np.ones(12), 0.0)
    rng = np.random.default_rng(17)
    report = verify_closed_form(truth, Route((0, 1, 2)), 4, 500, rng)
    assert report.empirical_mean == 0.0
    assert report.closed_form == 0.0
    assert report.z == 0.0


def test_simulate_task_under_regime_guard():
    # the under process starts at n = m + 2
    truth = simplex_ground_truth(2, 4)
    rng = np.random.default_rng(1)
    report = verify_closed_form(truth, Route((0, 1)), 6, 500, rng)
    assert report.closed_form == planner_closed_form(truth, Route((0, 1)), 6)


def test_simulate_sequence_over_regime_guard():
    # the over process ends at n = m - 2
    truth = simplex_ground_truth(2, 4)
    rng = np.random.default_rng(1)
    report = verify_closed_form(truth, Route((0, 1)), 2, 500, rng)
    assert report.closed_form == planner_closed_form(truth, Route((0, 1)), 2)


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
