"""Shared instance builders and independent oracles.

The oracles are deliberately naive — full permutation scans and plain
scalar loops over every state, with the objective formulas written out on
their own — so they cannot share a bug with the package's optimized
implementations.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from clroute import (
    HELD_KARP_MAX_T,
    ProblemInstance,
    Route,
    Strategy,
    TaskGroundTruth,
    delta0_vector,
    delta_matrix,
    generate_instance,
    loss_upper,
    metric_closure,
    write_instance,
)
from clroute.cli import main


def manual_instance(delta, delta0, costs, m, n, sigma2=1.0) -> ProblemInstance:
    delta = np.array(delta, dtype=float)
    return ProblemInstance(
        t_regions=delta.shape[0],
        delta=delta,
        delta0=np.array(delta0, dtype=float),
        costs=np.array(costs, dtype=float),
        m_features=m,
        n_samples=n,
        sigma2=sigma2,
    )


def worked_under() -> ProblemInstance:
    """T=3 underparameterized instance whose optimal route is (3,2,1) 1-based."""
    return manual_instance(
        delta=[[0, 2, 4], [2, 0, 6], [4, 6, 0]],
        delta0=[1, 1, 1],
        costs=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        m=4,
        n=10,
        sigma2=1.0,
    )


def over_t2() -> ProblemInstance:
    """T=2 overparameterized instance (r=0.6) with hand-computable loss 2.6."""
    return manual_instance(
        delta=[[0, 5], [5, 0]],
        delta0=[0, 0],
        costs=[[0, 2], [2, 0]],
        m=10,
        n=4,
        sigma2=0.0,
    )


@st.composite
def tie_heavy_instances(draw, max_t=12):
    """Costs in {1, 2} and dissimilarities in {0, 1, 2}, or all equal, so
    many routes, row sums and Held–Karp states tie; T from 2 to max_t,
    either regime."""
    t = draw(st.integers(2, max_t))
    upper = np.triu_indices(t, 1)
    pairs = len(upper[0])

    def symmetric(values):
        mat = np.zeros((t, t))
        mat[upper] = draw(st.lists(st.sampled_from(values), min_size=pairs, max_size=pairs))
        return mat + mat.T

    costs = metric_closure(symmetric([1.0, 2.0]))
    delta = symmetric(draw(st.sampled_from([[1.0], [0.0, 1.0, 2.0]])))
    m = draw(st.sampled_from([60, 80, 120, 180]))
    return manual_instance(delta, np.ones(t), costs, m, 100)


def tie_heavy_instance(t: int, m: int, seed: int) -> ProblemInstance:
    """One fixed member of the ``tie_heavy_instances`` family, drawn from
    ``seed``: costs in {1, 2} before the closure, dissimilarities in
    {0, 1, 2}."""
    rng = np.random.default_rng(seed)
    upper = np.triu_indices(t, 1)

    def symmetric(values):
        mat = np.zeros((t, t))
        mat[upper] = rng.choice(values, len(upper[0]))
        return mat + mat.T

    costs = metric_closure(symmetric([1.0, 2.0]))
    return manual_instance(symmetric([0.0, 1.0, 2.0]), np.ones(t), costs, m, 100)


@st.composite
def special_float_instances(draw, max_t=10):
    """Valid instances whose entries are special floats or drawn from
    [0, 10]; costs are a metric closure and either regime is drawn.

    Every zero of delta and of costs, the diagonals included, is stored as
    0.0 or -0.0 independently of its mirror, so ±0.0 pairs, which the
    symmetry check accepts, and -0.0 diagonals occur.
    """
    t = draw(st.integers(2, max_t))
    upper = np.triu_indices(t, 1)
    pairs = len(upper[0])
    # zeros of both signs, the smallest subnormal and a larger one, integral
    # floats whose repr has no exponent and one whose repr has, and an entry
    # near the top of what every sum the objective takes still fits
    special = [0.0, -0.0, 5e-324, 1e-310, 1.0, 3.0, 1e16, 1e300]
    entry = st.one_of(st.sampled_from(special), st.floats(0.0, 10.0))

    def symmetric():
        mat = np.zeros((t, t))
        mat[upper] = draw(st.lists(entry, min_size=pairs, max_size=pairs))
        return mat + mat.T

    def signed_zeros(mat):
        for i, j in zip(*np.nonzero(mat == 0.0)):
            mat[i, j] = draw(st.sampled_from([0.0, -0.0]))
        return mat

    delta = signed_zeros(symmetric())
    costs = signed_zeros(metric_closure(symmetric()))
    delta0 = draw(st.lists(entry, min_size=t, max_size=t))
    m = draw(st.sampled_from([60, 80, 120, 180]))
    return manual_instance(delta, delta0, costs, m, 100, sigma2=draw(entry))


EDGE_KINDS = ("scaled", "clusters", "duplicates", "collinear")


def scale_costs(inst: ProblemInstance, k: int) -> ProblemInstance:
    """A copy of ``inst`` with every cost times 2^k; exact while the costs
    stay clear of overflow and of the subnormal range."""
    return manual_instance(
        inst.delta,
        inst.delta0,
        np.ldexp(inst.costs, k),
        inst.m_features,
        inst.n_samples,
        inst.sigma2,
    )


@st.composite
def edge_corpus_instances(draw, kinds=EDGE_KINDS, max_t=12):
    """Valid instances at the edges of cost scale and geometry, T from 3 to
    max_t, either regime. The costs are of one of four kinds:

    * ``scaled``: a generated instance's, or the metric closure of costs
      in {1, 2, 3}, times 2^k for k in -60..60;
    * ``clusters``: Euclidean distances of 2-D points in [0, 10]^2, split
      into two clusters 1e16 apart;
    * ``duplicates``: a generated instance's, with some regions repeated
      at zero cost from their copy;
    * ``collinear``: distances of points on a line, at integer or at
      uniform positions.

    The dissimilarities are uniform on [1, 10].
    """
    kind = draw(st.sampled_from(kinds))
    t = draw(st.integers(3, max_t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "scaled":
        if draw(st.booleans()):
            costs = generate_instance(t, int(rng.integers(2**31))).costs
        else:
            raw = np.triu(rng.integers(1, 4, (t, t)), 1).astype(float)
            costs = metric_closure(raw + raw.T)
        costs = np.ldexp(costs, draw(st.integers(-60, 60)))
    elif kind == "duplicates":
        base = draw(st.integers(2, t - 1))
        copies = rng.permutation(np.concatenate([np.arange(base), rng.integers(0, base, t - base)]))
        costs = generate_instance(base, int(rng.integers(2**31))).costs[np.ix_(copies, copies)]
    else:
        points = rng.uniform(0.0, 10.0, (t, 2))
        if kind == "clusters":
            points[rng.permutation(t) < draw(st.integers(1, t - 1)), 0] += 1e16
        else:
            points[:, 1] = 0.0
            if draw(st.booleans()):
                points[:, 0] = rng.integers(0, t, t)
        costs = np.hypot(*(points[:, None] - points[None]).transpose(2, 0, 1))
    upper = np.triu(rng.uniform(1.0, 10.0, (t, t)), 1)
    m = draw(st.sampled_from([60, 80, 120, 180]))
    return manual_instance(upper + upper.T, rng.uniform(1.0, 10.0, t), costs, m, 100)


def instance_json_oracle(inst: ProblemInstance) -> str:
    """The text of an instance file, built the plain way: the payload dict
    through ``json.dumps(indent=2)``, CPython's pure-Python encoder, which
    writes every float as its ``repr``.

    The reference for ``write_instance``, which must write these bytes.
    """
    payload = {
        "t": inst.t_regions,
        "m": inst.m_features,
        "n": inst.n_samples,
        "sigma2": inst.sigma2,
        "delta": inst.delta.tolist(),
        "delta0": inst.delta0.tolist(),
        "costs": inst.costs.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def correlated_ground_truth(rng: np.random.Generator, t: int, m: int) -> TaskGroundTruth:
    """Region parameters around a shared random mean, mixed across coordinates.

    The initial predictor is random too (w0 != 0) and sigma2 is drawn from
    [0.1, 2), so no distance in the closed forms is zero or axis-aligned.
    """
    mix = rng.normal(size=(m, m))
    w_star = rng.normal(size=m) + rng.normal(size=(t, m)) @ mix
    return TaskGroundTruth(w_star, rng.normal(size=m), float(rng.uniform(0.1, 2.0)))


def planner_closed_form(truth: TaskGroundTruth, route: Route, n: int) -> float:
    """Forgetting plus constant part of ``loss_upper`` on the instance whose
    delta and delta0 are the truth's exact distances (``delta_matrix``,
    ``delta0_vector``) and whose travel costs are zero; needs T >= 2."""
    t = truth.t_regions
    inst = manual_instance(
        delta_matrix(truth),
        delta0_vector(truth),
        np.zeros((t, t)),
        truth.m_features,
        n,
        truth.sigma2,
    )
    b = loss_upper(inst, route)
    return b.forgetting_part + b.constant_part


def travel_only(inst: ProblemInstance) -> ProblemInstance:
    """A copy of ``inst`` with zero dissimilarities (delta and delta0) and
    zero noise: its objective is the raw travel cost divided by T alone."""
    t = inst.t_regions
    return manual_instance(
        np.zeros((t, t)), np.zeros(t), inst.costs, inst.m_features, inst.n_samples, sigma2=0.0
    )


def fsum_travel(inst: ProblemInstance, route: Route) -> float:
    """A route's raw travel, summed exactly by ``math.fsum``."""
    return math.fsum(inst.costs[a, b] for a, b in zip(route.order, route.order[1:]))


def sorted_kruskal(costs: np.ndarray) -> tuple[tuple[tuple[int, int], ...], float]:
    """Kruskal over ``sorted()`` of (weight, i, j) tuples, summing the tree
    weight in the order the edges are taken.

    The reference for ``shp.minimum_spanning_tree``, which takes one stable
    numpy sort by weight instead: the same edges in the same order, the same
    bits.
    """
    t = costs.shape[0]
    parent = list(range(t))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    chosen: list[tuple[int, int]] = []
    weight = 0.0
    for w, i, j in sorted((float(costs[i, j]), i, j) for i in range(t) for j in range(i + 1, t)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
            weight += w
    return tuple(chosen), weight


def closure_by_full_passes(costs) -> tuple[np.ndarray, int]:
    """Floyd–Warshall passes over every pivot until a pass changes no
    value, and the number of passes run, the last one included.

    The reference for ``metric_closure``, which must return these bits:
    the same additions and minima in the same order, its fixed point
    learned by running the pass that confirms it.
    """
    d = np.array(costs, dtype=float)
    via = np.empty_like(d)
    passes = 0
    with np.errstate(over="ignore"):
        while True:
            before = d.copy()
            passes += 1
            for k in range(d.shape[0]):
                np.add(d[:, k, None], d[None, k, :], out=via)
                np.minimum(d, via, out=d)
            if np.array_equal(d, before):
                return d, passes


def generated_raw_costs(t: int, seed: int) -> np.ndarray:
    """The raw costs ``generate_instance(t, seed)`` closes, drawn as it
    draws them: delta's upper triangle, delta0, then the costs' upper
    triangle, each uniform on [1, 10]."""
    rng = np.random.default_rng(seed)
    pairs = t * (t - 1) // 2
    rng.uniform(1.0, 10.0, pairs)
    rng.uniform(1.0, 10.0, t)
    raw = np.zeros((t, t))
    raw[np.triu_indices(t, 1)] = rng.uniform(1.0, 10.0, pairs)
    return raw + raw.T


def scalar_triangle_violation(c: np.ndarray) -> str | None:
    """The first violated ordered triple of distinct regions, as a scalar
    loop over i, then j, then k in Python floats; None when there is none.

    The reference for ``instance._check_triangle``: the same test with the
    same additions in the same order, and the message it reports. A Python
    float sum overflows to inf without a warning.
    """
    t = c.shape[0]
    c = c.tolist()
    for i in range(t):
        for j in range(t):
            if i == j:
                continue
            for k in range(t):
                if k == i or k == j:
                    continue
                if c[i][j] > c[i][k] + c[k][j] + 1e-12 * c[i][j]:
                    return (
                        f"triangle inequality: c_{{{i + 1},{j + 1}}}={c[i][j]:g} > "
                        f"c_{{{i + 1},{k + 1}}}+c_{{{k + 1},{j + 1}}}={c[i][k] + c[k][j]:g}"
                    )
    return None


def scan_all_routes(inst: ProblemInstance, objective: str) -> tuple[float, tuple[int, ...]]:
    """Minimum objective over all T! routes, formulas written out directly."""
    t = inst.t_regions
    perms = np.array(list(itertools.permutations(range(t))))
    c = inst.costs
    travel_raw = c[perms[:, :-1], perms[:, 1:]].sum(axis=1)
    if objective == "travel":
        vals = travel_raw
    else:
        m, n, s2 = inst.m_features, inst.n_samples, inst.sigma2
        if objective == "under":
            forg = inst.delta[perms[:, :-1], perms[:, -1:]].sum(axis=1) / t
            vals = forg + travel_raw / t + m * s2 / (n - m - 1)
        else:
            r = 1.0 - n / m
            weights = np.array([(1 - r) * r ** (t - p) / t for p in range(1, t + 1)])
            rows = inst.delta.sum(axis=1)
            forg = (rows[perms] * weights).sum(axis=1) + (r**t) / t * inst.delta0.sum()
            vals = forg + travel_raw / t + (1 - r**t) * m * s2 / (m - n - 1)
    i = int(np.argmin(vals))
    return float(vals[i]), tuple(int(v) for v in perms[i])


def scalar_held_karp(inst: ProblemInstance) -> tuple[Route, float]:
    """Held–Karp as a scalar triple loop over (subset, last, previous).

    The reference for ``held_karp_min_path``: the same states, the same
    order of float operations and the same tie rule (the cheapest
    predecessor, lowest index on ties, chosen before the gain is added),
    one state at a time, with a table of those predecessors to read the
    route from.
    """
    t = inst.t_regions
    objective = inst.objective
    scale = 1.0 / t
    c = [[x * scale for x in row] for row in inst.costs.tolist()]
    d = objective.forgetting_divisor
    # gains[k][v]: what region v adds when it enters as visit k+1
    gains = [[a * rs / d for rs in objective.row_sums] for a in objective.position_weights]

    full = (1 << t) - 1
    inf = float("inf")
    dp = [[inf] * t for _ in range(full + 1)]
    parent = [[-1] * t for _ in range(full + 1)]
    for mask in range(1, full + 1):
        regions = [v for v in range(t) if (mask >> v) & 1]
        g = gains[len(regions) - 1]
        start = 0.0 if len(regions) == 1 else inf  # a first visit has no predecessor
        row, par = dp[mask], parent[mask]
        for v in regions:
            rest = dp[mask ^ (1 << v)]
            best, arg = start, -1
            for u in regions:
                if u != v:
                    cand = rest[u] + c[u][v]
                    if cand < best:
                        best, arg = cand, u
            row[v] = best + g[v]
            par[v] = arg

    best_last = min(range(t), key=dp[full].__getitem__)

    order: list[int] = []
    mask, v = full, best_last
    while v != -1:
        order.append(v)
        prev = parent[mask][v]
        mask ^= 1 << v
        v = prev
    order.reverse()
    return Route(tuple(order)), dp[full][best_last] + objective.offset + objective.noise


def bitmask_matching(
    w: np.ndarray, odd: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Minimum-weight perfect matching as a bitmask table over all 2^k subsets.

    The weight oracle for ``min_weight_perfect_matching``, which takes the
    blossom algorithm instead: filled bottom-up for every even subset, a
    subset's first vertex in the order given taking the first cheapest
    later partner. On ties its pairs may differ from the blossom's; the
    weight may not.
    """
    if len(odd) % 2 != 0:
        raise ValueError("cannot perfectly match an odd number of vertices")

    k = len(odd)
    sub = w[np.ix_(odd, odd)].tolist()

    full = (1 << k) - 1
    inf = float("inf")
    dp = [inf] * (full + 1)
    dp[0] = 0.0
    choice = [(-1, -1)] * (full + 1)
    for mask in range(1, full + 1):
        if mask.bit_count() % 2 != 0:
            continue
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        j_bits = rest
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            cand = dp[rest ^ (1 << j)] + sub[i][j]
            if cand < dp[mask]:
                dp[mask] = cand
                choice[mask] = (i, j)

    pairs: list[tuple[int, int]] = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((odd[i], odd[j]))
        mask ^= (1 << i) | (1 << j)
    return tuple(pairs), dp[full]


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def graph_edge_multiset(edges: tuple[tuple[int, int], ...]) -> Counter:
    return Counter(edge_key(u, v) for u, v in edges)


def circuit_edge_multiset(circuit: tuple[int, ...]) -> Counter:
    return Counter(edge_key(a, b) for a, b in zip(circuit[:-1], circuit[1:]))


# Rejected CLI inputs. tests/test_cli.py holds the tables of file faults and
# of negative or non-finite flags, tests/test_boundary.py the rest; their rows
# are built by row and file_row, and every row goes through assert_cli_rejects.

# argv placeholders for an instance file, mapped to its number of regions;
# the row's fault, if any, then rewrites or deletes the file
REGIONS = {"<file>": 4, "<oversized-file>": HELD_KARP_MAX_T + 1}
VERIFY = "verify --trials 200"
SWEEP = "experiment --sweep t --instances 1"
LEAKS = ("Traceback", "Warning", "nan != nan", "inhomogeneous")  # never in stderr


class Raw(str):
    """JSON text spliced into the file as is, for nesting json.dumps cannot write."""


def edit(*changes):
    """A fault that sets, for each (*key path, value), that entry of the file's JSON document."""

    def fault(path):
        doc = json.loads(path.read_text())
        for *head, last, value in changes:
            target = doc
            for key in head:
                target = target[key]
            target[last] = value
        text = json.dumps(doc)  # writes NaN / Infinity, as Python's json accepts
        for *_, value in changes:
            if isinstance(value, Raw):
                text = text.replace(json.dumps(value), value)
        path.write_text(text)

    return fault


def write_file(path, regions, fault=None):
    """Write the generated instance the table's files start from, then apply the fault."""
    write_instance(generate_instance(regions, seed=3), path)
    if fault is not None:
        fault(path)


def row(case_id, argv, code, message, fault=None):
    """One rejected input: argv as one string of words, then what main must do with it."""
    return pytest.param(argv.split(), fault, code, message, id=case_id)


def file_row(case_id, code, message, *changes, fault=None):
    """A fault of the file; plan runs every strategy in both formats on it."""
    return row(case_id, "plan <file>", code, message, fault or edit(*changes))


def assert_cli_rejects(tmp_path, monkeypatch, capsys, argv, fault, code, message):
    """Hold one row of a CLI table to the whole contract of a rejected input."""
    monkeypatch.chdir(tmp_path)  # where --out would write
    path = tmp_path / "inst.json"
    for arg in argv:
        if arg in REGIONS:
            write_file(path, REGIONS[arg], fault)
    argv = [str(path) if arg in REGIONS else arg for arg in argv]
    before = sorted(tmp_path.iterdir())
    variants = [argv]
    if argv[0] == "plan" and "--strategy" not in argv:
        variants = [
            [*argv, "--strategy", s.value, "--format", f]
            for s in Strategy
            for f in ("text", "json")
        ]
    results = set()
    for variant in variants:
        exit_code = main(variant)
        out, err = capsys.readouterr()
        results.add((exit_code, out, err))
        assert exit_code == code and out == ""
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert err.count("error:") == 1 and line.startswith("error: ") and message in line
        assert not any(leak in err for leak in LEAKS)
        if fault is not None:  # every fault of the file, its loss included, names the file
            assert err.startswith(f"error: {path}: ")
    assert len(results) == 1  # every strategy and format fails alike
    assert sorted(tmp_path.iterdir()) == before  # nothing written by --out
