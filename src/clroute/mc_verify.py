"""Monte Carlo cross-checks of the closed-form expected forgetting loss.

The planners' objective, :class:`clroute.loss.Objective`, is the closed
form: its forgetting part plus its noise constant is the expected loss of
the learning process. Per region, sample features X and noisy labels y
and take the least-norm correction w ← w + X⁺(y − Xw), the least-squares
fit when n > m and the minimum-distance interpolation when m > n. This
module runs that process many times and compares the mean forgetting
loss of the final predictor with the closed form as a z-score.

The process has one batched implementation and two entry points, picked
by the regime of (m, n): ``_under_losses`` simulates only the final
region, as a least-squares fit does not depend on where it starts, and
``_over_losses`` the whole route. ``perfbench/tracing.py`` times each
regime per 1k trials through the two names, reading ``trials`` at args[3].
Trials run in chunks of 256, each drawing from its own stream seeded from
the caller's generator and each one task on a thread pool that is joined
before the call returns, with numpy's bundled OpenBLAS on one thread
meanwhile. The losses are then a function of the ground truth, the route,
n, the trial count, the generator's state and the numpy build alone, the
same at any core count; where numpy links another BLAS, its thread count
is an input too.

Ground truths are constructed, never estimated: region parameters and the
initial predictor are given as vectors, so ``delta_matrix`` and
``delta0_vector`` give the exact squared distances the closed form takes.
``simplex_ground_truth`` places region parameters on scaled coordinate
axes, where those distances also have a simple form.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .instance import ParameterError, RegimeKind, Route, classify_regime
from .loss import Objective, _finite

_log = logging.getLogger(__name__)

_CHUNK = 256


@dataclass(frozen=True, eq=False)
class TaskGroundTruth:
    """Actual region parameter vectors, initial predictor, and noise level.

    ``w_star`` has one row per region; ``w0`` is where the overparameterized
    learner starts. Arrays are read-only; the record compares by identity.
    """

    w_star: np.ndarray
    w0: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        w_star = np.array(self.w_star, dtype=float)
        w0 = np.array(self.w0, dtype=float)
        if w_star.ndim != 2:
            raise ParameterError(
                f"w_star must be 2-D (regions x features), got shape {w_star.shape}"
            )
        if w0.shape != (w_star.shape[1],):
            raise ParameterError(f"w0 must have length {w_star.shape[1]}, got shape {w0.shape}")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ParameterError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if w_star.shape[0] == 0:
            raise ParameterError(f"w_star needs at least one region, got shape {w_star.shape}")
        for name, arr in (("w_star", w_star), ("w0", w0)):
            if not np.isfinite(arr).all():
                raise ParameterError(f"{name} must be finite, got {arr[~np.isfinite(arr)][0]}")
        for arr in (w_star, w0):
            arr.flags.writeable = False
        object.__setattr__(self, "w_star", w_star)
        object.__setattr__(self, "w0", w0)

    @property
    def t_regions(self) -> int:
        return self.w_star.shape[0]

    @property
    def m_features(self) -> int:
        return self.w_star.shape[1]


@dataclass(frozen=True)
class McReport:
    """Empirical-vs-closed-form comparison over a trial ensemble."""

    empirical_mean: float
    closed_form: float
    std_error: float
    trials: int

    @property
    def z_signed(self) -> float:
        """(empirical − closed form) in std-error units; 0 for agreement to rounding.

        Agreement to rounding is a difference of at most 1e-12·max(1, |closed
        form|), relative but never below 1e-12, where a closed form near zero
        would shrink a relative bound to nothing: a noiseless least-squares fit
        recovers w* exactly, so its std error falls to rounding level too and
        would make a rounding-level difference look large. Any other
        difference at zero spread is ±inf, with the difference's sign.
        """
        diff = self.empirical_mean - self.closed_form
        if abs(diff) <= 1e-12 * max(1.0, abs(self.closed_form)):
            return 0.0
        if self.std_error == 0.0:
            return math.copysign(math.inf, diff)
        return diff / self.std_error

    @property
    def z(self) -> float:
        """|z_signed|, the value a pass/fail threshold is held against."""
        return abs(self.z_signed)

    def to_json(self) -> dict:
        return {
            "empirical": self.empirical_mean,
            "closed_form": self.closed_form,
            "std_error": self.std_error,
            "trials": self.trials,
            "z": self.z,
            "z_signed": self.z_signed,
        }


def simplex_ground_truth(
    t: int, m: int, scales: np.ndarray | None = None, sigma2: float = 1.0
) -> TaskGroundTruth:
    """Place region i's parameters at scales[i] times the i-th coordinate axis.

    With the initial predictor at the origin this makes every closed-form
    input exact: the pairwise squared distance between regions i != j is
    scales[i]^2 + scales[j]^2 and the initial squared distance to region i
    is scales[i]^2. Requires m >= t (one axis per region); scales default
    to all ones.
    """
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    if m < t:
        raise ParameterError(f"need m >= t to place {t} regions on separate axes, got m={m}")
    if scales is None:
        scales = np.ones(t)
    scales = np.asarray(scales, dtype=float)
    if scales.shape != (t,):
        raise ParameterError(f"scales must have length {t}, got shape {scales.shape}")
    w_star = np.zeros((t, m))
    w_star[np.arange(t), np.arange(t)] = scales
    return TaskGroundTruth(w_star, np.zeros(m), sigma2)


def delta_matrix(truth: TaskGroundTruth) -> np.ndarray:
    """Exact pairwise squared distances between region parameters."""
    d = truth.w_star[:, None, :] - truth.w_star[None, :, :]
    return np.sum(d * d, axis=2)


def delta0_vector(truth: TaskGroundTruth) -> np.ndarray:
    """Exact squared distances from the initial predictor to each region."""
    d = truth.w_star - truth.w0[None, :]
    return np.sum(d * d, axis=1)


def _chunk_losses(
    truth: TaskGroundTruth, regions: tuple[int, ...], n: int, b: int, rng: np.random.Generator
) -> np.ndarray:
    """Forgetting losses of ``b`` trials after training on ``regions`` in order.

    Each task draws X, then the noise z, both from ``rng`` alone, and applies
    w += X⁺(X(w* − w) + z), with X⁺ taken through the Gram matrix of X's
    smaller side, XᵀX when n > m and XXᵀ when m > n. A batch whose Gram
    matrix is singular is redrawn.
    """
    m = truth.m_features
    sig = math.sqrt(truth.sigma2)
    w = np.tile(truth.w0, (b, 1))
    for region in regions:
        while True:
            x = rng.standard_normal((b, n, m))
            z = sig * rng.standard_normal((b, n))
            xt = x.transpose(0, 2, 1)
            # y - X w written as X (w* - w) + z, so it is exactly z when w matches the region
            resid = np.einsum("bnm,bm->bn", x, truth.w_star[region] - w) + z
            try:
                if n > m:
                    step = np.linalg.solve(xt @ x, xt @ resid[..., None])[..., 0]
                else:
                    sol = np.linalg.solve(x @ xt, resid[..., None])[..., 0]
                    step = np.einsum("bnm,bn->bm", x, sol)
                break
            except np.linalg.LinAlgError:
                _log.warning("singular Gram matrix in a batch; redrawing the batch")
        w += step
    diff = w[:, None, :] - truth.w_star[None, :, :]
    return np.mean(np.sum(diff * diff, axis=2), axis=1)


def _openblas():
    """numpy's bundled OpenBLAS, with its thread-count calls typed; None where
    numpy links another BLAS, which lacks them."""
    # imported here so that commands which never simulate do not pay for them
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        # numpy's linear algebra links the library, so its handle finds the calls
        blas = ctypes.CDLL(_umath_linalg.__file__)
        blas.scipy_openblas_get_num_threads64_.argtypes = []
        blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        blas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        blas.scipy_openblas_set_num_threads64_.restype = None
    except (OSError, AttributeError):
        return None
    return blas


# held by a _losses call from saving the BLAS thread count until restoring it
_blas_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, process-wide.

    The body runs under one lock, held from saving the count and setting it
    to 1 until the count is restored, after a return or a raise; so calls
    from several threads run one after another. Where numpy links another
    BLAS, nothing is set and nothing is locked.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    with _blas_lock:
        threads = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(1)
        try:
            yield
        finally:
            blas.scipy_openblas_set_num_threads64_(threads)


def _losses(
    truth: TaskGroundTruth, regions: tuple[int, ...], n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial forgetting losses after training on ``regions`` in order.

    The trials run in chunks of ``_CHUNK``. Chunk c draws from its own
    stream, ``default_rng(seeds[c])``, where ``seeds`` is one draw of
    ``rng.integers(2**63, size=chunks)``; Ziggurat sampling takes a varying
    number of raw draws, so one stream cannot be split by jumping ahead.
    Each chunk is one task on a thread pool of min(chunks, usable CPUs)
    workers, and the results are joined in chunk order; numpy's generator
    fills and linear algebra release the GIL, so the tasks run in parallel.
    A task's exception reaches the caller, the pool is joined before the
    call returns, and the losses are the same at any worker count.

    OpenBLAS threads a product or solve when more than one CPU is usable,
    and its threaded kernels round differently: at m=120 the per-trial
    losses on one core and on two differ in their last bits. So while the
    pool runs, numpy's bundled OpenBLAS is set to one thread, process-wide,
    and its count is restored after a return or a raise; with the chunks
    already parallel, this is also 2-3x faster at m=120. Where numpy links
    another BLAS, nothing is set and its thread count is an input of the
    losses too.

    Calls from several threads run one after another, each holding the
    count at one for its whole run, so each call's losses are those it
    gives alone; each call already has a worker per usable CPU. Other BLAS
    work in the process runs on one thread meanwhile, and a count it sets
    then is overwritten when the call ends.
    """
    # imported here so that commands which never simulate do not pay for it
    from concurrent.futures import ThreadPoolExecutor

    seeds = rng.integers(2**63, size=-(-trials // _CHUNK))
    # the CPUs this process may run on (taskset, cpusets); where that call is missing, all of them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    def chunk(c: int) -> np.ndarray:
        b = min(_CHUNK, trials - c * _CHUNK)
        with np.errstate(over="ignore"):  # per thread; the caller reports an overflow
            return _chunk_losses(truth, regions, n, b, np.random.default_rng(seeds[c]))

    with _one_blas_thread():
        with ThreadPoolExecutor(min(len(seeds), cpus or 1)) as pool:
            return np.concatenate(list(pool.map(chunk, range(len(seeds)))))


def _under_losses(
    truth: TaskGroundTruth, route: Route, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial forgetting losses, underparameterized; only the final region's task runs."""
    return _losses(truth, route.order[-1:], n, trials, rng)


def _over_losses(
    truth: TaskGroundTruth, route: Route, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial forgetting losses, overparameterized; the whole route per trial."""
    return _losses(truth, route.order, n, trials, rng)


def verify_closed_form(
    truth: TaskGroundTruth,
    route: Route,
    n_samples: int,
    trials: int,
    rng: np.random.Generator,
) -> McReport:
    """Empirical mean forgetting loss versus the closed form of (m, n)'s regime.

    The regime is ``classify_regime(truth.m_features, n_samples)``, which
    raises RegimeError in the undefined band; it selects the learning
    process, simulated ``trials`` times along ``route``. Evaluates the
    forgetting loss of each final predictor and reports the sample mean,
    the closed form and the standard error (sample stdev / sqrt(trials)).
    The closed form is ``Objective.build`` on the truth's exact distances,
    forgetting part plus noise constant: to the last bit what ``loss_upper``
    reports for an instance holding those distances, and defined at T = 1,
    where no instance exists. The trials run in chunks of 256 on a thread
    pool, each chunk on its own stream seeded from ``rng``; per-trial
    losses are collected into one array in trial order and reduced with
    numpy's pairwise summation. The report is a pure function of the truth,
    the route, ``n_samples``, ``trials`` and the state of ``rng`` for one numpy
    build (its generators and its BLAS), the same at any core count: the
    chunks run with numpy's bundled OpenBLAS on one thread. Where numpy links
    another BLAS, its thread count is an input too. Calls from several
    threads run their simulations one after another, each with the report
    it gives alone; meanwhile the process's other BLAS work runs on one
    thread too (``_losses``). Raises ValidationError when the closed form
    (built first), the mean or its standard error does not fit a float.

    The z-score needs a finite per-trial variance, which by the
    inverse-Wishart second moments holds only for |n − m| >= 4. At the
    regime edge, |n − m| in {2, 3}, the mean is finite but the standard
    error and z mean nothing; ``cl-route verify`` rejects such dimensions.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    kind = classify_regime(truth.m_features, n_samples)
    if len(route) != truth.t_regions:
        raise ParameterError(f"route length {len(route)} != regions {truth.t_regions}")

    rows, delta0_sum = delta_matrix(truth).sum(axis=1), float(delta0_vector(truth).sum())
    objective = Objective.build(rows, delta0_sum, truth.m_features, n_samples, truth.sigma2)
    closed = objective.forgetting(route.order) + objective.noise
    simulate = _under_losses if kind is RegimeKind.UNDER else _over_losses
    losses = simulate(truth, route, n_samples, trials, rng)
    with np.errstate(over="ignore"):  # _finite reports an overflow
        mean = _finite("mean simulated loss", float(losses.mean()))
        std_error = float(losses.std(ddof=1) / math.sqrt(trials))
    return McReport(mean, closed, _finite("standard error of the mean", std_error), trials)
