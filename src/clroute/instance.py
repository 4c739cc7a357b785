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

import functools
import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .loss import Objective


# float64 candidates per block, 512 KiB: (k, i, j) triples in the triangle
# check, (member, subset, next region) in Held–Karp (shp.py)
_BLOCK = 1 << 16


@functools.lru_cache(maxsize=1)
def upper_pairs(t: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(t, 1)``, the (i, j) pairs with i < j in row-major
    order, kept for the last ``t`` asked for: ``generate_instance`` and the
    spanning tree ask for the same ``t`` in turn. Read-only."""
    pairs = np.triu_indices(t, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


class ParameterError(ValueError):
    """Bad arguments to a library call, a generator or the CLI."""


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
            raise ParameterError(f"route must be a permutation of 0..{t - 1}, got {self.order}")

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

    Construction raises ParameterError for a matrix of the wrong shape, then
    runs :func:`validate_instance` and builds ``objective``, the route
    objective of the instance's regime, once. So every instance that
    exists is finite, symmetric, metric, of a defined regime and has a
    loss that fits a float; :meth:`clroute.loss.Objective.of` raises
    ValidationError for one that does not.
    """

    t_regions: int
    delta: np.ndarray
    delta0: np.ndarray
    costs: np.ndarray
    m_features: int
    n_samples: int
    sigma2: float
    objective: Objective = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.t_regions
        delta = np.array(self.delta, dtype=float)
        delta0 = np.array(self.delta0, dtype=float)
        costs = np.array(self.costs, dtype=float)
        if delta.shape != (t, t):
            raise ParameterError(f"delta must be {t}x{t}, got {delta.shape}")
        if delta0.shape != (t,):
            raise ParameterError(f"delta0 must have length {t}, got {delta0.shape}")
        if costs.shape != (t, t):
            raise ParameterError(f"costs must be {t}x{t}, got {costs.shape}")
        for arr in (delta, delta0, costs):
            arr.flags.writeable = False
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "delta0", delta0)
        object.__setattr__(self, "costs", costs)
        validate_instance(self)
        from .loss import Objective  # imported here: loss imports this module

        object.__setattr__(self, "objective", Objective.of(self))


def _at(name: str, arr: np.ndarray, index: tuple[int, ...]) -> str:
    """``name_{i,j}=value``: the entry of ``arr`` at ``index``, 1-based."""
    return f"{name}_{{{','.join(str(i + 1) for i in index)}}}={arr[index]:g}"


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first True entry of ``bad`` in row-major order; None if none."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))


def _entry_faults(name: str, arr: np.ndarray) -> list[str]:
    """The first non-finite entry of a matrix or vector alone, as NaN is
    unequal to itself; else its first asymmetric pair, first nonzero
    diagonal entry (a matrix's) and first negative entry, in that order."""
    if (i := _first(~np.isfinite(arr))) is not None:
        return [f"{name} must be finite: {_at(name, arr, i)}"]
    faults = []
    if (i := _first(arr != arr.T)) is not None:
        faults.append(f"{name} not symmetric: {_at(name, arr, i)} != {_at(name, arr, i[::-1])}")
    if arr.ndim == 2 and (i := _first(np.diagonal(arr) != 0.0)) is not None:
        faults.append(f"{name} diagonal must be zero: {_at(name, arr, i + i)}")  # (k, k)
    if (i := _first(arr < 0.0)) is not None:
        faults.append(f"{name} must be >= 0: {_at(name, arr, i)}")
    return faults


def _check_triangle(c: np.ndarray) -> str | None:
    """The first violated ordered triple of distinct regions; None if none.

    Run only on costs with no entry fault: finite, symmetric, nonnegative,
    with a ±0.0 diagonal. Triple (i, j, k) is violated when
    ``c[i, j] > (c[i, k] + c[k, j]) + 1e-12 * c[i, j]``, a tolerance relative
    to the direct cost alone, so costs of every scale are checked; the first
    in (i, j, k) order is reported. As x -> fl(x + a) is monotone, a pair
    (i, j) has a violated triple exactly when its least detour, the least
    c[i, k] + c[k, j], does, so only the first such pair's k are scanned one
    by one. k = i or j sums to the direct cost and j = i has a direct cost
    of 0, neither ever flagged, so none is masked. Rows go in blocks of at
    most 2^16 sums, one row where a row alone is more, laid out as
    (k, row, j) so the least detour is a reduction over contiguous (row, j)
    slabs. A block takes the columns after its first row only: the sums
    are symmetric bit for bit, so (i, j) with j < i is flagged only after
    (j, i). Sums may overflow to inf; the caller silences that warning.
    """
    t = c.shape[0]
    if t < 3:
        return None  # no triple of distinct regions
    step = max(1, _BLOCK // (t * t))
    # reused for every block: fresh temporaries double the time at T >= 400
    buf = np.empty(step * t * t)
    for lo in range(0, t, step):
        rows = np.arange(lo, min(lo + step, t))
        j0 = lo + 1
        detour = buf[: t * rows.size * (t - j0)].reshape(t, rows.size, t - j0)
        # c[i, k] + c[k, j] at [k, b, j - j0]
        np.add(c[rows].T[:, :, None], c[:, None, j0:], out=detour)
        direct = c[rows, j0:]
        least = np.minimum.reduce(detour, axis=0)
        if (first := _first(direct > least + 1e-12 * direct)) is not None:
            b, j = first
            i, j = int(rows[b]), j + j0
            k = int(np.argmax(c[i, j] > c[i] + c[:, j] + 1e-12 * c[i, j]))
            return (
                f"triangle inequality: {_at('c', c, (i, j))} > "
                f"c_{{{i + 1},{k + 1}}}+c_{{{k + 1},{j + 1}}}={c[i, k] + c[k, j]:g}"
            )
    return None


def validate_instance(inst: ProblemInstance) -> None:
    """Check every instance invariant; run by ProblemInstance construction.

    Raises ValidationError listing every violation, joined by "; ". A bad
    entry is named as ``name_{i,j}=value`` (``delta0_{i}=value``), its
    indices 1-based and its value in ``:g`` format. Each of delta, delta0
    and c reports its first non-finite entry alone, or else its first
    asymmetric pair, nonzero diagonal entry and negative entry, each first
    in row-major order. Costs with none of these faults, and only those,
    are checked for the triangle inequality over every ordered triple of
    distinct regions; the first violated triple is reported verbatim.
    """
    t = inst.t_regions
    violations = [f"t must be >= 2, got {t}"] if t < 2 else []
    violations += _entry_faults("delta", inst.delta) + _entry_faults("delta0", inst.delta0)
    violations += (cost_faults := _entry_faults("c", inst.costs))
    if not cost_faults:
        with np.errstate(over="ignore"):  # an infinite sum bounds any cost
            if (fault := _check_triangle(inst.costs)) is not None:
                violations.append(fault)

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
    symmetry and the zero diagonal. Raises ParameterError for a matrix
    that is not square, or holds a NaN or a negative entry; -0.0 and +inf
    are costs like any other.

    A pass changes no value exactly when no d[i, j] exceeds
    fl(d[i, k] + d[k, j]). Right after step k of a pass every d[i, j] is
    at most that sum, and entries only fall afterwards, so at the end of
    a pass a triple can break only through a d[i, k] or d[k, j] the pass
    changed. So a pass that changed nothing ends the loop; after any
    other pass but the first, the closure checks just the triples through
    the entries it changed, at zero tolerance and in blocks of T entries,
    and runs another pass only if one breaks. The first pass changes most
    entries, so the second runs outright. A generated instance takes two
    passes and a check as a rule: the first closes, the second absorbs
    rounding (it moves about 80 of 6400 entries at T=80 and 300 of 160000
    at T=400, each by a few ulps) and the check confirms. Over
    generate_instance seeds 0-199 at T=24, 191 took that, 7 two passes
    and no check (no rounding showed) and 2 three passes and a check.
    """
    d = np.array(costs, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ParameterError(f"costs must be a square matrix, got shape {d.shape}")
    for bad, what in ((np.isnan(d), "must not be NaN"), (d < 0.0, "must be >= 0")):
        if (i := _first(bad)) is not None:
            raise ParameterError(f"costs {what}: {_at('c', d, i)}")
    t = d.shape[0]
    via = np.empty_like(d)  # reused for every k: a fresh T x T sum per k slows T >= 400
    first = True
    with np.errstate(over="ignore"):  # an infinite path sum never wins the minimum
        while True:
            before = d.copy()
            for k in range(t):
                np.add(d[:, k, None], d[None, k, :], out=via)
                np.minimum(d, via, out=d)
            a, b = np.nonzero(d != before)
            if not a.size or (not first and _closed_through(d, a, b, via)):
                return d
            first = False


def _closed_through(d: np.ndarray, a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> bool:
    """Whether no d[i, j] exceeds fl(d[i, k] + d[k, j]) on a triple whose
    (i, k) or (k, j) is one of the entries (a, b); in blocks of T entries,
    each block's sums in the T x T ``buf``."""
    t = d.shape[0]
    for lo in range(0, a.size, t):
        ra, rb = a[lo : lo + t], b[lo : lo + t]
        sums = buf[: ra.size]
        np.add(d[ra, rb, None], d[rb], out=sums)  # (a, b) as (i, k): d[a, b] + d[b, j] at [m, j]
        if (d[ra] > sums).any():
            return False
        np.add(d[:, ra].T, d[ra, rb, None], out=sums)  # as (k, j): d[i, a] + d[a, b] at [m, i]
        if (d[:, rb].T > sums).any():
            return False
    return True


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
    if not (0.0 < range_lo <= range_hi < np.inf):
        raise ParameterError(f"need 0 < range_lo <= range_hi < inf, got [{range_lo}, {range_hi}]")

    rng = np.random.default_rng(seed)
    n_pairs = t * (t - 1) // 2
    iu = upper_pairs(t)

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


def _float_strings(values: np.ndarray) -> list[str]:
    """``repr`` of each float, from one call of the C JSON encoder."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def _matrix_text(mat: np.ndarray) -> str:
    """A square matrix laid out as ``json.dumps(indent=2)`` lays out a
    nested list that is a field of a top-level object; a mirror pair whose
    bits agree, which is every pair of a symmetric matrix but ±0.0, is
    formatted once.

    Row i starts as i blanks, the diagonal and the row's part of the
    upper triangle; the blanks then take column i's first i cells, the
    upper triangle's (j, i) for j < i."""
    t = mat.shape[0]
    diagonal = _float_strings(np.diagonal(mat))
    upper = _float_strings(mat[upper_pairs(t)])
    cells, lo = [], 0
    for i in range(t):
        cells.append([""] * i + [diagonal[i], *upper[lo : lo + t - 1 - i]])
        lo += t - 1 - i
    for i, column in enumerate(list(zip(*cells))):
        cells[i][:i] = column[:i]
    bits = mat.view(np.uint64)
    for i, j in zip(*np.nonzero(bits != bits.T)):
        cells[i][j] = repr(float(mat[i, j]))
    rows = "\n    ],\n    [\n      ".join([",\n      ".join(row) for row in cells])
    return f"[\n    [\n      {rows}\n    ]\n  ]"


def write_instance(inst: ProblemInstance, path: str | Path) -> None:
    """Serialize to JSON. Floats use Python repr, which round-trips exactly.

    The file holds the bytes of ``json.dumps(payload, indent=2) + "\\n"``
    for the payload {t, m, n, sigma2, delta, delta0, costs}, which a test
    pins. The scalar head goes through ``json.dumps``; each matrix's upper
    triangle and its diagonal are formatted by one C-encoder call each and
    each string is placed at (i, j) and (j, i), a mirror whose bits differ
    formatted on its own; the indented layout is joined from fixed
    separators.
    """
    head = json.dumps(
        {"t": inst.t_regions, "m": inst.m_features, "n": inst.n_samples, "sigma2": inst.sigma2},
        indent=2,
    )
    delta0 = ",\n    ".join(_float_strings(inst.delta0))
    Path(path).write_text(  # head[:-2] drops the head's closing "\n}"
        f'{head[:-2]},\n  "delta": {_matrix_text(inst.delta)},\n'
        f'  "delta0": [\n    {delta0}\n  ],\n  "costs": {_matrix_text(inst.costs)}\n}}\n'
    )


def read_instance(path: str | Path) -> ProblemInstance:
    """Parse and validate an instance file.

    Raises FormatError for undecodable bytes, JSON syntax problems, nesting
    deeper than the parser's recursion limit or missing, mistyped or
    ragged fields (naming the field), a matrix entry that is not a JSON
    number included, and ValidationError when a number
    does not fit a float or the parsed instance violates an invariant,
    non-finite numbers too.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply to parse") from exc

    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    for name, typ in _SCHEMA.items():
        if name not in doc:
            raise FormatError(f"{path}: missing field \"{name}\"")
        if not isinstance(doc[name], typ) or isinstance(doc[name], bool):
            raise FormatError(f"{path}: field \"{name}\" has wrong type")

    numbers = {}
    for name in ("delta", "delta0", "costs", "sigma2"):
        # the JSON types level by level: lists down to a level of numbers
        # alone, as bool, str and null would otherwise cast to float; the
        # conversion then rejects ragged nesting
        level = [doc[name]]
        while (kinds := set(map(type, level))) == {list}:
            level = list(itertools.chain.from_iterable(level))
        try:
            if not kinds <= {int, float}:
                raise ValueError(f"entries of type {kinds}")
            numbers[name] = np.array(doc[name], dtype=float)
        except ValueError as exc:
            raise FormatError(
                f"{path}: field \"{name}\" is not a rectangular array of numbers"
            ) from exc
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
