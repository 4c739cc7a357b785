"""Shared instance builders and independent oracles.

The oracles are deliberately naive — full permutation scans and recursive
matching enumeration, with the objective formulas written out on their own
— so they cannot share a bug with the package's optimized implementations.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from clroute import Objective, ProblemInstance, Route, TaskGroundTruth, metric_closure


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


def correlated_ground_truth(rng: np.random.Generator, t: int, m: int) -> TaskGroundTruth:
    """Region parameters around a shared random mean, mixed across coordinates.

    The initial predictor is random too (w0 != 0) and sigma2 is drawn from
    [0.1, 2), so no distance in the closed forms is zero or axis-aligned.
    """
    mix = rng.normal(size=(m, m))
    w_star = rng.normal(size=m) + rng.normal(size=(t, m)) @ mix
    return TaskGroundTruth(w_star, rng.normal(size=m), float(rng.uniform(0.1, 2.0)))


def travel_objective(t: int) -> Objective:
    """Raw travel cost alone: zero forgetting weights, travel weight 1, no constants."""
    zeros = (0.0,) * t
    return Objective(zeros, zeros, 1, 1, 0.0, 0.0)


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


def scalar_held_karp(inst: ProblemInstance, objective: Objective) -> tuple[Route, float]:
    """Held–Karp as a scalar triple loop over (subset, last, previous).

    The reference for ``held_karp_min_path``: the same states, the same
    order of float operations and the same tie rule (the cheapest
    predecessor, lowest index on ties, chosen before the gain is added),
    one state at a time.
    """
    t = inst.t_regions
    scale = 1.0 / objective.travel_divisor
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

    The reference for ``min_weight_perfect_matching``: the same vertex
    order (dummy first), the same additions and the same tie rule (a
    subset's lowest vertex takes the first cheapest partner in ascending
    order), filled bottom-up for every even subset.
    """
    if len(odd) % 2 != 0:
        raise ValueError("cannot perfectly match an odd number of vertices")

    dummy = w.shape[0] - 1
    verts = sorted(odd, key=lambda v: (v != dummy, v))
    k = len(verts)
    sub = w[np.ix_(verts, verts)].tolist()

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
        pairs.append((verts[i], verts[j]))
        mask ^= (1 << i) | (1 << j)
    return tuple(pairs), dp[full]


def all_perfect_matchings(verts: tuple[int, ...]):
    """Every perfect matching of an even-sized vertex tuple."""
    if not verts:
        yield ()
        return
    a = verts[0]
    for i in range(1, len(verts)):
        b = verts[i]
        rest = verts[1:i] + verts[i + 1 :]
        for sub in all_perfect_matchings(rest):
            yield ((a, b),) + sub


def brute_min_matching_weight(w: np.ndarray, odd: tuple[int, ...]) -> float:
    return min(
        sum(float(w[a, b]) for a, b in pairing) for pairing in all_perfect_matchings(odd)
    )


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def graph_edge_multiset(edges: tuple[tuple[int, int], ...]) -> Counter:
    return Counter(edge_key(u, v) for u, v in edges)


def circuit_edge_multiset(circuit: tuple[int, ...]) -> Counter:
    return Counter(edge_key(a, b) for a, b in zip(circuit[:-1], circuit[1:]))
