"""The route objective, its per-route loss breakdown, and the closed forms.

Both regimes minimize one objective; they differ only in its weights:

    sum_p a_p * rowsum_delta(tau_p)  +  e(tau_T)
    + sum_t c[tau_t, tau_{t+1}]/T  +  offset  +  noise.

* Underparameterized (n >= m+2): each region's training fully determines
  the predictor from that region's data alone, so only the final region
  matters: a_p = 0, e(v) = rowsum_delta(v)/T, offset = 0 and
  noise = m*sigma2/(n-m-1).

* Overparameterized (m >= n+2): the minimum-distance interpolating update
  keeps a fraction r = 1 - n/m of the previous error, so earlier regions
  are discounted geometrically: a_p = (1-r)*r^(T-p)/T, e = 0,
  offset = r^T/T * sum_i delta0[i] and noise = (1-r^T)*m*sigma2/(m-n-1).

:class:`Objective` derives these weights, and nothing else does. The
planners and the exact oracle read them from the instance through
:meth:`Objective.of`; ``closed_form_forgetting_under/over`` build the same
objective from actual ground-truth parameter vectors and evaluate it on
the training order, so the Monte Carlo checks test the objective the
planners minimize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import ProblemInstance, RegimeError, Route, classify_regime
from .shp import route_travel_cost


@dataclass(frozen=True)
class LossBreakdown:
    """Additive decomposition of an expected overall loss."""

    forgetting_part: float
    travel_part: float
    constant_part: float

    @property
    def total(self) -> float:
        return self.forgetting_part + self.travel_part + self.constant_part

    def effective_total(self, include_constant: bool) -> float:
        """The total, or only its route-dependent part when the constant is left out."""
        return self.total if include_constant else self.forgetting_part + self.travel_part


def r_powers(r: float, t: int) -> np.ndarray:
    """[r^0, r^1, ..., r^t] by iterated multiplication (no pow), low to high."""
    out = np.empty(t + 1)
    p = 1.0
    for k in range(t + 1):
        out[k] = p
        p *= r
    return out


@dataclass(frozen=True)
class Objective:
    """One regime's route objective over T regions.

    The region visited p-th (1-based) contributes
    ``position_weights[p-1] * row_sums[region]`` and the final region adds
    ``end_weights[region]``. The raw travel cost is divided by
    ``travel_divisor``: the travel weight is its reciprocal, 1/T in both
    regimes and 1 for pure travel cost, and dividing keeps the travel part
    equal to raw/T to the last bit. ``offset``, the route-independent share
    of forgetting, and ``noise`` are added as they are.
    """

    row_sums: tuple[float, ...]
    position_weights: tuple[float, ...]
    end_weights: tuple[float, ...]
    travel_divisor: float
    offset: float
    noise: float

    @classmethod
    def build(
        cls, row_sums: np.ndarray, delta0_sum: float, m: int, n: int, sigma2: float
    ) -> "Objective":
        """Weights of the regime of (m, n) for dissimilarity row sums and sum(delta0).

        Raises RegimeError when (m, n) has no defined regime.
        """
        regime = classify_regime(m, n)
        rows = tuple(float(x) for x in row_sums)
        t = len(rows)
        zeros = (0.0,) * t
        if regime.is_under:
            return cls(
                row_sums=rows,
                position_weights=zeros,
                end_weights=tuple(rs / t for rs in rows),
                travel_divisor=t,
                offset=0.0,
                noise=m * sigma2 / (n - m - 1),
            )
        r = regime.r
        powers = r_powers(r, t)
        r_t = float(powers[t])
        return cls(
            row_sums=rows,
            position_weights=tuple((1.0 - r) * float(powers[t - p]) / t for p in range(1, t + 1)),
            end_weights=zeros,
            travel_divisor=t,
            offset=r_t / t * delta0_sum,
            noise=(1.0 - r_t) * m * sigma2 / (m - n - 1),
        )

    @classmethod
    def of(cls, inst: ProblemInstance) -> "Objective":
        """The objective of the instance's own regime."""
        return cls.build(
            inst.delta.sum(axis=1),
            float(inst.delta0.sum()),
            inst.m_features,
            inst.n_samples,
            inst.sigma2,
        )

    def forgetting(self, order: tuple[int, ...]) -> float:
        """Forgetting part of a visiting order; terms accumulate in position order."""
        total = 0.0
        for weight, region in zip(self.position_weights, order):
            total += weight * self.row_sums[region]
        return total + self.end_weights[order[-1]] + self.offset


def best_final_region(inst: ProblemInstance) -> int:
    """Region minimizing the dissimilarity row sum; ties go to the lowest index.

    Ending the route there minimizes the forgetting term in the
    underparameterized objective. The descending-row-sum order of the
    overparameterized forgetting baseline also ends at a minimal row sum,
    but on ties at the highest tied index (its sort keeps index order
    within ties), not at the region returned here.
    """
    return int(np.argmin(inst.delta.sum(axis=1)))


def loss_upper(inst: ProblemInstance, route: Route) -> LossBreakdown:
    """Upper bound on the expected overall loss of a route, in the instance's regime."""
    t = len(route.order)
    if t != inst.t_regions:
        raise ValueError(f"route length {t} != t_regions {inst.t_regions}")
    objective = Objective.of(inst)
    return LossBreakdown(
        objective.forgetting(route.order),
        route_travel_cost(inst, route) / objective.travel_divisor,
        objective.noise,
    )


def _closed_form(w: np.ndarray, delta0_sum: float, sigma2: float, m: int, n: int) -> float:
    """Forgetting plus noise of the objective built from the vectors' distances, in their order."""
    sq = np.sum((w[:, None, :] - w[None, :, :]) ** 2, axis=2)
    objective = Objective.build(sq.sum(axis=1), delta0_sum, m, n, sigma2)
    return objective.forgetting(tuple(range(w.shape[0]))) + objective.noise


def closed_form_forgetting_under(
    true_params: list[np.ndarray] | np.ndarray,
    sigma2: float,
    m: int,
    n: int,
) -> float:
    """Expected forgetting loss given the actual ground truths, in route order.

    The final entry of ``true_params`` is the last-trained region. Only the
    distances to it matter; the estimation noise contributes
    m*sigma2/(n-m-1) regardless of the route.
    """
    if not classify_regime(m, n).is_under:
        raise RegimeError(
            "closed_form_forgetting_under requires the underparameterized regime (n >= m+2)"
        )
    return _closed_form(np.asarray(true_params, dtype=float), 0.0, sigma2, m, n)


def closed_form_forgetting_over(
    true_params: list[np.ndarray] | np.ndarray,
    w0: np.ndarray,
    sigma2: float,
    m: int,
    n: int,
) -> float:
    """Expected forgetting loss of the sequential interpolating learner.

    ``true_params`` in route order; w0 is the starting predictor. Pairwise
    distances are discounted by recency, the distance to w0 by r^T, and
    the noise floor saturates at (1-r^T)*m*sigma2/(m-n-1).
    """
    if not classify_regime(m, n).is_over:
        raise RegimeError(
            "closed_form_forgetting_over requires the overparameterized regime (m >= n+2)"
        )
    w = np.asarray(true_params, dtype=float)
    delta0_sum = float(np.sum((w - np.asarray(w0, dtype=float)) ** 2))
    return _closed_form(w, delta0_sum, sigma2, m, n)
