"""Problem instances: regions, dissimilarity bounds, metric travel costs.

An instance describes T regions an agent must visit once each. Between
regions i and j there is a symmetric travel cost ``c[i][j]`` satisfying the
triangle inequality, and a known upper bound ``delta[i][j]`` on the squared
distance between the regions' ground-truth model parameters. ``delta0[i]``
bounds the squared distance between region i's ground truth and the agent's
initial predictor. The regression dimensions (m features, n samples, noise
variance sigma2) select the learning regime.

Region indices are 1-based in files, CLI output and error messages;
internally everything is 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np


class ParameterError(ValueError):
    """Bad generation or CLI parameters."""


class ValidationError(ValueError):
    """An instance violates one of its declared invariants."""


class FormatError(ValueError):
    """An instance file does not match the expected JSON schema."""


class RegimeError(ValueError):
    """Operation applied under the wrong (or an undefined) learning regime."""


class RegimeKind(str, Enum):
    UNDER = "under"
    OVER = "over"


def classify_regime(m: int, n: int) -> RegimeKind:
    """Classify (m, n) as under- or overparameterized.

    Raises RegimeError for the undefined band m in {n-1, n, n+1}, where the
    inverse Gram matrix of the sampled features has no finite expectation.
    """
    if m < 1 or n < 1:
        raise RegimeError(f"m and n must be >= 1, got m={m}, n={n}")
    if n >= m + 2:
        return RegimeKind.UNDER
    if m >= n + 2:
        return RegimeKind.OVER
    raise RegimeError(f"regime undefined for m ∈ {{n−1,n,n+1}} (m={m}, n={n})")


@dataclass(frozen=True)
class Route:
    """A visiting order over all T regions; the last entry is where training ends."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        t = len(self.order)
        if sorted(self.order) != list(range(t)):
            raise ValueError(f"route must be a permutation of 0..{t - 1}, got {self.order}")

    def __len__(self) -> int:
        return len(self.order)

    @property
    def final_region(self) -> int:
        return self.order[-1]

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.order)


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable, valid problem data; matrices are read-only numpy arrays.

    Construction raises ValueError for a matrix of the wrong shape and then
    runs :func:`validate_instance`, so every instance that exists is
    finite, symmetric, metric and of a defined regime.
    """

    t_regions: int
    delta: np.ndarray
    delta0: np.ndarray
    costs: np.ndarray
    m_features: int
    n_samples: int
    sigma2: float

    def __post_init__(self) -> None:
        t = self.t_regions
        delta = np.array(self.delta, dtype=float)
        delta0 = np.array(self.delta0, dtype=float)
        costs = np.array(self.costs, dtype=float)
        if delta.shape != (t, t):
            raise ValueError(f"delta must be {t}x{t}, got {delta.shape}")
        if delta0.shape != (t,):
            raise ValueError(f"delta0 must have length {t}, got {delta0.shape}")
        if costs.shape != (t, t):
            raise ValueError(f"costs must be {t}x{t}, got {costs.shape}")
        for arr in (delta, delta0, costs):
            arr.flags.writeable = False
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "delta0", delta0)
        object.__setattr__(self, "costs", costs)
        validate_instance(self)


def _finite(name: str, arr: np.ndarray, out: list[str]) -> bool:
    """Report the first non-finite entry of ``arr``; True when there is none."""
    bad = ~np.isfinite(arr)
    if not bad.any():
        return True
    idx = tuple(int(i) + 1 for i in np.argwhere(bad)[0])
    out.append(f"{name} must be finite: {name}_{{{','.join(map(str, idx))}}}={arr[bad][0]:g}")
    return False


def _check_square_metric_free(name: str, mat: np.ndarray, out: list[str]) -> bool:
    """Shared finiteness / symmetry / diagonal / nonnegativity checks for delta
    and costs. A non-finite entry skips the rest, as NaN is unequal to itself;
    returns whether every entry is finite."""
    if not _finite(name, mat, out):
        return False
    if not np.array_equal(mat, mat.T):
        bad = np.argwhere(mat != mat.T)
        i, j = bad[0]
        out.append(
            f"{name} not symmetric: {name}_{{{i + 1},{j + 1}}}={mat[i, j]:g} "
            f"!= {name}_{{{j + 1},{i + 1}}}={mat[j, i]:g}"
        )
    diag = np.diagonal(mat)
    if np.any(diag != 0.0):
        i = int(np.argmax(diag != 0.0))
        out.append(f"{name} diagonal must be zero: {name}_{{{i + 1},{i + 1}}}={diag[i]:g}")
    if np.any(mat < 0.0):
        i, j = np.argwhere(mat < 0.0)[0]
        out.append(f"{name} must be >= 0: {name}_{{{i + 1},{j + 1}}}={mat[i, j]:g}")
    return True


def _check_triangle(c: np.ndarray, out: list[str]) -> None:
    """Report the first violated ordered triple of distinct regions."""
    t = c.shape[0]
    for i in range(t):
        for j in range(t):
            if i == j:
                continue
            for k in range(t):
                if k == i or k == j:
                    continue
                if c[i, j] > c[i, k] + c[k, j] + 1e-12 * max(1.0, c[i, j]):
                    out.append(
                        f"triangle inequality: c_{{{i + 1},{j + 1}}}={c[i, j]:g} > "
                        f"c_{{{i + 1},{k + 1}}}+c_{{{k + 1},{j + 1}}}={c[i, k] + c[k, j]:g}"
                    )
                    return


def validate_instance(inst: ProblemInstance) -> None:
    """Check every instance invariant; run by ProblemInstance construction.

    Raises ValidationError listing every violation, joined by "; ". The
    triangle-inequality check is exhaustive over ordered triples of
    distinct regions; the first violated triple is reported verbatim. Costs
    whose sums overflow are valid here; :meth:`clroute.loss.Objective.of`
    rejects an instance whose loss does not fit a float.
    """
    violations: list[str] = []
    t = inst.t_regions

    if t < 2:
        violations.append(f"t must be >= 2, got {t}")

    _check_square_metric_free("delta", inst.delta, violations)
    if _finite("delta0", inst.delta0, violations) and np.any(inst.delta0 < 0.0):
        i = int(np.argmax(inst.delta0 < 0.0))
        violations.append(f"delta0 must be >= 0: delta0_{{{i + 1}}}={inst.delta0[i]:g}")
    if _check_square_metric_free("c", inst.costs, violations):
        with np.errstate(over="ignore"):  # an infinite sum bounds any cost
            _check_triangle(inst.costs, violations)

    if not np.isfinite(inst.sigma2):
        violations.append(f"sigma2 must be finite, got {inst.sigma2:g}")
    elif inst.sigma2 < 0.0:
        violations.append(f"sigma2 must be >= 0, got {inst.sigma2:g}")

    try:
        classify_regime(inst.m_features, inst.n_samples)
    except RegimeError as exc:
        violations.append(str(exc))

    if violations:
        raise ValidationError("; ".join(violations))


def metric_closure(costs: np.ndarray) -> np.ndarray:
    """Replace each pairwise cost by the shortest-path distance under it.

    Floyd-Warshall over the complete graph, repeated to a fixed point so
    the result is exactly idempotent even when different relaxation
    orders round path sums differently. The result satisfies the
    triangle inequality, never exceeds the input entrywise, and keeps
    symmetry and the zero diagonal.
    """
    d = np.array(costs, dtype=float)
    t = d.shape[0]
    while True:
        before = d.copy()
        for k in range(t):
            np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
        if np.array_equal(d, before):
            return d


def generate_instance(
    t: int,
    seed: int,
    range_lo: float = 1.0,
    range_hi: float = 10.0,
    m: int = 80,
    n: int = 100,
    sigma2: float = 1.0,
) -> ProblemInstance:
    """Draw a random instance; pure function of (seed, parameters).

    delta entries (upper triangle, row-major), delta0, then raw costs are
    drawn i.i.d. uniform on [range_lo, range_hi] from a PCG64 stream, in
    that fixed order; the raw costs are then replaced by their metric
    closure so the triangle inequality holds while every off-diagonal cost
    stays inside [range_lo, range_hi].
    """
    if t < 2:
        raise ParameterError(f"t must be >= 2, got {t}")
    if not (0.0 < range_lo <= range_hi):
        raise ParameterError(f"need 0 < range_lo <= range_hi, got [{range_lo}, {range_hi}]")

    rng = np.random.default_rng(seed)
    n_pairs = t * (t - 1) // 2
    iu = np.triu_indices(t, k=1)

    delta = np.zeros((t, t))
    delta[iu] = rng.uniform(range_lo, range_hi, n_pairs)
    delta = delta + delta.T

    delta0 = rng.uniform(range_lo, range_hi, t)

    raw = np.zeros((t, t))
    raw[iu] = rng.uniform(range_lo, range_hi, n_pairs)
    costs = metric_closure(raw + raw.T)

    try:
        return ProblemInstance(t, delta, delta0, costs, m, n, sigma2)
    except ValidationError as exc:
        raise ParameterError(f"generated instance invalid: {exc}") from exc


_SCHEMA = {
    "t": int,
    "m": int,
    "n": int,
    "sigma2": (int, float),
    "delta": list,
    "delta0": list,
    "costs": list,
}


def write_instance(inst: ProblemInstance, path: str | Path) -> None:
    """Serialize to JSON. Floats use Python repr, which round-trips exactly."""
    payload = {
        "t": inst.t_regions,
        "m": inst.m_features,
        "n": inst.n_samples,
        "sigma2": inst.sigma2,
        "delta": inst.delta.tolist(),
        "delta0": inst.delta0.tolist(),
        "costs": inst.costs.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_instance(path: str | Path) -> ProblemInstance:
    """Parse and validate an instance file.

    Raises FormatError for undecodable bytes, JSON syntax problems or
    missing, mistyped or ragged fields (naming the field), a matrix entry
    that is not a JSON number included, and ValidationError when a number
    does not fit a float or the parsed instance violates an invariant,
    non-finite numbers too.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc

    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    for name, typ in _SCHEMA.items():
        if name not in doc:
            raise FormatError(f"{path}: missing field \"{name}\"")
        if not isinstance(doc[name], typ) or isinstance(doc[name], bool):
            raise FormatError(f"{path}: field \"{name}\" has wrong type")

    numbers = {}
    for name in ("delta", "delta0", "costs", "sigma2"):
        # an object array keeps each entry's JSON type: a list entry means
        # ragged nesting, and bool and str would otherwise cast to float
        value = np.array(doc[name], dtype=object)
        if not all(type(x) in (int, float) for x in value.ravel()):
            raise FormatError(f"{path}: field \"{name}\" is not a rectangular array of numbers")
        try:
            numbers[name] = value.astype(float)
        except OverflowError as exc:
            raise ValidationError(f"{path}: field \"{name}\" does not fit a float: {exc}") from exc

    try:
        return ProblemInstance(
            t_regions=doc["t"],
            delta=numbers["delta"],
            delta0=numbers["delta0"],
            costs=numbers["costs"],
            m_features=doc["m"],
            n_samples=doc["n"],
            sigma2=float(numbers["sigma2"]),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
