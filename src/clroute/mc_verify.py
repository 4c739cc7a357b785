"""Monte Carlo cross-checks of the closed-form expected forgetting losses.

The closed forms in :mod:`clroute.loss` promise expectations over the
learning process: per region, sample features X and noisy labels y and
take the least-norm correction w ← w + X⁺(y − Xw), which is the
least-squares fit when n > m and the minimum-distance interpolation when
m > n. This module runs that process many times and compares the mean
forgetting loss of the final predictor with the closed form as a z-score.

The process has one batched implementation and two entry points, picked
by the regime of (m, n): ``_under_losses`` simulates only the final
region, as a least-squares fit does not depend on where it starts, and
``_over_losses`` the whole route. ``perfbench/tracing.py`` times each
regime per 1k trials through the two names, reading ``trials`` at args[3].

Ground truths are constructed, never estimated: region parameters and the
initial predictor are given as vectors, so ``delta_matrix`` and
``delta0_vector`` give the exact squared distances the closed forms take.
``simplex_ground_truth`` places region parameters on scaled coordinate
axes, where those distances also have a simple form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .instance import ParameterError, RegimeKind, Route, classify_regime
from .loss import closed_form_forgetting

_log = logging.getLogger(__name__)

_CHUNK = 512


@dataclass(frozen=True)
class TaskGroundTruth:
    """Actual region parameter vectors, initial predictor, and noise level.

    ``w_star`` has one row per region; ``w0`` is where the overparameterized
    learner starts. Arrays become read-only on construction.
    """

    w_star: np.ndarray
    w0: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        w_star = np.array(self.w_star, dtype=float)
        w0 = np.array(self.w0, dtype=float)
        if w_star.ndim != 2:
            raise ValueError(f"w_star must be 2-D (regions x features), got shape {w_star.shape}")
        if w0.shape != (w_star.shape[1],):
            raise ValueError(f"w0 must have length {w_star.shape[1]}, got shape {w0.shape}")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ParameterError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
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
    def z(self) -> float:
        """|difference| in std-error units; 0 for exact agreement even at zero spread."""
        diff = abs(self.empirical_mean - self.closed_form)
        if diff == 0.0:
            return 0.0
        if self.std_error == 0.0:
            return math.inf
        return diff / self.std_error

    def to_json(self) -> dict:
        return {
            "empirical": self.empirical_mean,
            "closed_form": self.closed_form,
            "std_error": self.std_error,
            "trials": self.trials,
            "z": self.z,
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


def _losses(
    truth: TaskGroundTruth, regions: tuple[int, ...], n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial forgetting losses after training on ``regions`` in order.

    Each task draws X, then the noise z, and applies w += X⁺(X(w* − w) + z),
    with X⁺ taken through the Gram matrix of X's smaller side, XᵀX when
    n > m and XXᵀ when m > n. A batch whose Gram matrix is singular is redrawn.
    """
    m = truth.m_features
    sig = math.sqrt(truth.sigma2)
    out = np.empty(trials)
    for lo in range(0, trials, _CHUNK):
        b = min(_CHUNK, trials - lo)
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
        out[lo : lo + b] = np.mean(np.sum(diff * diff, axis=2), axis=1)
    return out


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
    the closed form on the exact ground-truth distances, and the standard
    error (sample stdev / sqrt(trials)). Per-trial losses are collected into
    one array and reduced with numpy's pairwise summation, so the report is
    a pure function of the RNG state and the trial count.

    The z-score needs a finite per-trial variance, which by the
    inverse-Wishart second moments holds only for |n − m| >= 4. At the
    regime edge, |n − m| in {2, 3}, the mean is finite but the standard
    error and z mean nothing; ``cl-route verify`` rejects such dimensions.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    kind = classify_regime(truth.m_features, n_samples)
    if len(route) != truth.t_regions:
        raise ValueError(f"route length {len(route)} != regions {truth.t_regions}")

    simulate = _under_losses if kind is RegimeKind.UNDER else _over_losses
    losses = simulate(truth, route, n_samples, trials, rng)
    closed = closed_form_forgetting(
        truth.w_star[list(route.order)], truth.w0, truth.sigma2, truth.m_features, n_samples
    )
    mean = float(losses.mean())
    std_error = float(losses.std(ddof=1) / math.sqrt(trials))
    return McReport(mean, closed, std_error, trials)
