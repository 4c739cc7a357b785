"""The route objective, its per-route loss breakdown, and the closed forms.

Both regimes minimize one objective; they differ only in its weights, one
per visiting position:

    sum_p a_p * rowsum_delta(tau_p) / d
    + sum_t c[tau_t, tau_{t+1}]/T  +  offset  +  noise.

* Underparameterized (n >= m+2): each region's training fully determines
  the predictor from that region's data alone, so only the final region
  matters: a = (0, ..., 0, 1), d = T, offset = 0 and
  noise = m*sigma2/(n-m-1).

* Overparameterized (m >= n+2): the minimum-distance interpolating update
  keeps a fraction r = 1 - n/m of the previous error, so earlier regions
  are discounted geometrically: a_p = (1-r)*r^(T-p)/T, d = 1,
  offset = r^T/T * sum_i delta0[i] and noise = (1-r^T)*m*sigma2/(m-n-1).

The weights are nondecreasing in p, so by the rearrangement inequality
descending row sums minimize the forgetting part. :class:`Objective`
derives these weights, and nothing else does; it raises ValidationError
when one of them, or a bound on a route's total, does not fit a float.
The planners and the exact oracle read them from the instance through
:meth:`Objective.of`; ``closed_form_forgetting`` builds the same objective
from actual ground-truth parameter vectors, in the regime of their (m, n),
and evaluates it on the training order, so the Monte Carlo checks test
the objective the planners minimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import ProblemInstance, RegimeKind, Route, ValidationError, classify_regime
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


def _finite(name: str, value: float) -> float:
    """``value``, or ValidationError when that part of the loss overflows a float."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} does not fit a float: {value}")
    return value


@dataclass(frozen=True)
class Objective:
    """One regime's route objective over T regions.

    The region visited p-th (1-based) contributes
    ``position_weights[p-1] * row_sums[region] / forgetting_divisor``, the
    weights nondecreasing in p; the raw travel cost is divided by
    ``travel_divisor``. The divisors are T or 1: the weight 1/T of the
    underparameterized last position and of travel is held as a divisor,
    since x/T is exact to the last bit where x times a stored 1/T is not.
    ``offset``, the route-independent share of forgetting, and ``noise``
    are added as they are.
    """

    row_sums: tuple[float, ...]
    position_weights: tuple[float, ...]
    forgetting_divisor: float
    travel_divisor: float
    offset: float
    noise: float

    @classmethod
    def build(
        cls, row_sums: np.ndarray, delta0_sum: float, m: int, n: int, sigma2: float
    ) -> "Objective":
        """Weights of the regime of (m, n) for dissimilarity row sums and sum(delta0).

        Raises RegimeError when (m, n) has no defined regime, and
        ValidationError when a row sum, the offset or the noise constant
        is not finite or cannot be converted to a float.
        """
        kind = classify_regime(m, n)
        rows = tuple(
            _finite(f"row sum of region {i + 1}", float(x)) for i, x in enumerate(row_sums)
        )
        t = len(rows)
        try:
            if kind is RegimeKind.UNDER:
                position, divisor = (0.0,) * (t - 1) + (1.0,), t
                offset, noise = 0.0, m * sigma2 / (n - m - 1)
            else:
                r = 1.0 - n / m
                powers = r_powers(r, t)
                r_t = float(powers[t])
                position = tuple((1.0 - r) * float(powers[t - p]) / t for p in range(1, t + 1))
                divisor = 1
                offset, noise = r_t / t * delta0_sum, (1.0 - r_t) * m * sigma2 / (m - n - 1)
        except OverflowError as exc:
            raise ValidationError(f"noise constant does not fit a float: {exc}") from exc
        return cls(
            row_sums=rows,
            position_weights=position,
            forgetting_divisor=divisor,
            travel_divisor=t,
            offset=_finite("forgetting offset", offset),
            noise=_finite("noise constant", noise),
        )

    @classmethod
    def of(cls, inst: ProblemInstance) -> "Objective":
        """The objective of the instance's own regime.

        Also raises ValidationError when (T−1)·max c, or a bound on every
        route total and Held–Karp state, max row sum · Σa/d + offset +
        (T−1)·max c/T + noise, does not fit a float.
        """
        t, top = inst.t_regions, float(inst.costs.max(initial=0.0))
        if not math.isfinite((t - 1) * top):
            raise ValidationError(
                f"c too large: (T-1)*max c = {t - 1}*{top:g} does not fit a float"
            )
        with np.errstate(over="ignore"):  # build reports a sum that overflows
            obj = cls.build(
                inst.delta.sum(axis=1),
                float(inst.delta0.sum()),
                inst.m_features,
                inst.n_samples,
                inst.sigma2,
            )
        top_row = max(obj.row_sums, default=0.0)
        bound = top_row * sum(obj.position_weights) / obj.forgetting_divisor + obj.offset
        _finite("bound on the route total", bound + (t - 1) * top / obj.travel_divisor + obj.noise)
        return obj

    def forgetting(self, order: tuple[int, ...]) -> float:
        """Forgetting part of a visiting order; terms accumulate in position order."""
        total = 0.0
        for weight, region in zip(self.position_weights, order):
            total += weight * self.row_sums[region] / self.forgetting_divisor
        return total + self.offset


def best_final_region(inst: ProblemInstance) -> int:
    """Region minimizing the dissimilarity row sum; ties go to the lowest index.

    The last position carries the largest forgetting weight, so a
    forgetting-optimal route ends at a minimal row sum; the forgetting
    baseline ends here in both regimes. Raises what :meth:`Objective.of`
    raises, whose row sums it reads.
    """
    return int(np.argmin(Objective.of(inst).row_sums))


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


def closed_form_forgetting(
    true_params: list[np.ndarray] | np.ndarray,
    w0: np.ndarray,
    sigma2: float,
    m: int,
    n: int,
) -> float:
    """Expected forgetting loss, noise included, of (m, n)'s learning process.

    ``true_params`` are the actual ground truths in route order; w0 is the
    starting predictor, which only the overparameterized objective reads.
    Raises RegimeError in the undefined band, via :meth:`Objective.build`.
    """
    w = np.asarray(true_params, dtype=float)
    sq = np.sum((w[:, None, :] - w[None, :, :]) ** 2, axis=2)
    delta0_sum = float(np.sum((w - np.asarray(w0, dtype=float)) ** 2))
    objective = Objective.build(sq.sum(axis=1), delta0_sum, m, n, sigma2)
    return objective.forgetting(tuple(range(w.shape[0]))) + objective.noise
