"""Shared instance builders and independent oracles.

The oracles are deliberately naive — full permutation scans and recursive
matching enumeration, with the objective formulas written out on their own
— so they cannot share a bug with the package's optimized implementations.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from clroute import Objective, ProblemInstance, TaskGroundTruth


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
