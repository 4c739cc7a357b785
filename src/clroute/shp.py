"""Graph machinery for shortest-Hamiltonian-path planning.

The route builder works on an augmented complete graph: the T regions with
their metric travel costs, plus one dummy vertex connected to every region
at weight zero. Anchoring the dummy next to a chosen final region turns the
classic tree + matching + Euler-circuit cycle construction into a path
construction with a fixed endpoint.

Internally regions are 0..T-1 and the dummy vertex is index T. Every
operation is deterministic: ties are broken lexicographically and the
Euler walk consumes neighbors in ascending vertex order.

``held_karp_min_path`` is the exact oracle: a subset dynamic program over
(visited set, last vertex) that minimizes a :class:`clroute.loss.Objective`.
The objective is position-additive, so the stage index of the program (the
subset size) fixes each region's recency weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .instance import ProblemInstance, Route

if TYPE_CHECKING:
    from .loss import Objective

HELD_KARP_MAX_T = 16


class SizeLimitError(ValueError):
    """Instance too large for the exact solver."""


class InvariantViolation(RuntimeError):
    """A structural guarantee of the construction failed; indicates a bug."""


@dataclass(frozen=True)
class WorkGraph:
    """Multigraph over regions 0..n_real-1 plus the dummy vertex n_real.

    ``edges`` is the multi-edge list (parallel edges allowed); ``costs``
    supplies real-edge weights, and any edge touching the dummy weighs zero.
    """

    n_real: int
    edges: tuple[tuple[int, int], ...]
    costs: np.ndarray

    @property
    def dummy(self) -> int:
        return self.n_real

    def weight(self, u: int, v: int) -> float:
        if u == self.dummy or v == self.dummy:
            return 0.0
        return float(self.costs[u, v])

    def total_weight(self) -> float:
        return sum(self.weight(u, v) for u, v in self.edges)

    def with_edges(self, extra: tuple[tuple[int, int], ...]) -> "WorkGraph":
        return WorkGraph(self.n_real, self.edges + extra, self.costs)


@dataclass(frozen=True)
class MatchingResult:
    """Disjoint vertex pairs covering a vertex set, with total weight."""

    pairs: tuple[tuple[int, int], ...]
    weight: float


@dataclass(frozen=True)
class EulerTrace:
    """Closed walk as a vertex sequence; consecutive entries are the edges."""

    circuit: tuple[int, ...]

    def edge_count(self) -> int:
        return len(self.circuit) - 1


def minimum_spanning_tree(costs: np.ndarray) -> tuple[tuple[tuple[int, int], ...], float]:
    """Kruskal on the complete graph; ties broken by (weight, i, j) edge order."""
    t = costs.shape[0]
    edges = sorted(
        ((float(costs[i, j]), i, j) for i in range(t) for j in range(i + 1, t)),
    )
    parent = list(range(t))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    chosen: list[tuple[int, int]] = []
    weight = 0.0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
            weight += w
            if len(chosen) == t - 1:
                break
    return tuple(chosen), weight


def tree_with_dummy(
    mst_edges: tuple[tuple[int, int], ...], v_prime: int, costs: np.ndarray
) -> WorkGraph:
    """Attach the zero-weight dummy vertex to the chosen final region."""
    n = costs.shape[0]
    return WorkGraph(n, mst_edges + ((v_prime, n),), costs)


def odd_degree_vertices(g: WorkGraph) -> tuple[int, ...]:
    """Vertices of odd degree in the multigraph, ascending (dummy last)."""
    degree = [0] * (g.n_real + 1)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    odd = tuple(v for v in range(g.n_real + 1) if degree[v] % 2 == 1)
    if len(odd) % 2 != 0:
        raise InvariantViolation("odd-degree vertex count must be even")
    return odd


def min_weight_perfect_matching(g: WorkGraph, odd: tuple[int, ...]) -> MatchingResult:
    """Exact minimum-weight perfect matching on the vertices in ``odd``.

    Bitmask dynamic program, O(2^k * k) for k odd vertices: each state pairs
    its lowest-order unmatched vertex with every alternative. The dummy is
    placed first in the bit order so that, among equally cheap optima, it
    pairs with the lowest region index.
    """
    if len(odd) % 2 != 0:
        raise InvariantViolation("cannot perfectly match an odd number of vertices")
    if not odd:
        return MatchingResult((), 0.0)

    verts = sorted(odd, key=lambda v: (v != g.dummy, v))
    k = len(verts)
    w = [[g.weight(a, b) for b in verts] for a in verts]

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
            cand = dp[rest ^ (1 << j)] + w[i][j]
            if cand < dp[mask]:
                dp[mask] = cand
                choice[mask] = (i, j)

    pairs: list[tuple[int, int]] = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((verts[i], verts[j]))
        mask ^= (1 << i) | (1 << j)
    return MatchingResult(tuple(pairs), dp[full])


def eulerian_circuit(h: WorkGraph) -> EulerTrace:
    """Hierholzer walk over every multigraph edge, starting at the dummy.

    Neighbors are consumed in ascending vertex order (parallel edges in
    insertion order), so the circuit is reproducible.
    """
    n = h.n_real + 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(h.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for v in range(n):
        if adj[v] and len(adj[v]) % 2 != 0:
            raise InvariantViolation(f"vertex {v} has odd degree {len(adj[v])}")
        adj[v].sort()

    start = h.dummy
    if not adj[start]:
        raise InvariantViolation("dummy vertex has no incident edges")

    used = [False] * len(h.edges)
    ptr = [0] * n
    stack = [start]
    walked: list[int] = []
    while stack:
        v = stack[-1]
        moved = False
        while ptr[v] < len(adj[v]):
            nxt, eid = adj[v][ptr[v]]
            if used[eid]:
                ptr[v] += 1
                continue
            used[eid] = True
            ptr[v] += 1
            stack.append(nxt)
            moved = True
            break
        if not moved:
            walked.append(stack.pop())

    if not all(used):
        raise InvariantViolation("multigraph is not connected; no Eulerian circuit")
    walked.reverse()
    return EulerTrace(tuple(walked))


def shortcut_to_hamiltonian(trace: EulerTrace, v_prime: int) -> tuple[int, ...]:
    """Skip repeat visits in the circuit, keeping the final region next to the dummy.

    The walk direction is re-anchored (reversed) if needed so that v_prime
    is the first vertex after the dummy; its kept occurrence is therefore
    always the one adjacent to the dummy. Under metric costs the shortcut
    never increases total weight.
    """
    seq = list(trace.circuit)
    if len(seq) < 3 or seq[0] != seq[-1]:
        raise InvariantViolation("trace is not a closed circuit")
    if seq[1] != v_prime:
        if seq[-2] == v_prime:
            seq.reverse()
        else:
            raise InvariantViolation("circuit does not keep the dummy next to the final region")

    dummy = seq[0]
    cycle = [dummy]
    seen = {dummy}
    for v in seq[1:-1]:
        if v not in seen:
            cycle.append(v)
            seen.add(v)
    cycle.append(dummy)
    return tuple(cycle)


def remove_dummy(cycle: tuple[int, ...], v_prime: int) -> Route:
    """Drop the dummy and its two zero-weight edges; orient to end at v_prime."""
    if len(cycle) < 3 or cycle[0] != cycle[-1]:
        raise InvariantViolation("not a closed cycle")
    dummy = cycle[0]
    path = list(cycle[1:-1])
    if dummy in path:
        raise InvariantViolation("dummy vertex appears inside the cycle")
    if path[0] == v_prime:
        path.reverse()
    elif path[-1] != v_prime:
        raise InvariantViolation("dummy vertex is not adjacent to the final region")
    return Route(tuple(path))


def route_travel_cost(inst: ProblemInstance, route: Route) -> float:
    """Raw (unaveraged) travel cost along a route."""
    return sum(float(inst.costs[a, b]) for a, b in zip(route.order[:-1], route.order[1:]))


def held_karp_min_path(inst: ProblemInstance, objective: Objective) -> tuple[Route, float]:
    """Exact minimum of a route objective by subset dynamic programming.

    States are (visited subset, last region); a region entering as the p-th
    visit gains the objective's position weight for p times its row sum.
    Returns the optimal route and its objective value, route-independent
    terms included. The travel-only optimum is the objective with zero
    forgetting weights and travel divisor 1.

    Cost is O(2^T * T^2); refuses T > 16 — use the approximation pipeline
    in ``planner`` beyond that.
    """
    t = inst.t_regions
    if t > HELD_KARP_MAX_T:
        raise SizeLimitError(
            f"T={t} exceeds the exact-solver limit ({HELD_KARP_MAX_T}); "
            "use the approximation algorithm instead"
        )
    if len(objective.row_sums) != t:
        raise ValueError(f"objective covers {len(objective.row_sums)} regions, instance has {t}")

    scale = 1.0 / objective.travel_divisor
    c = [[x * scale for x in row] for row in inst.costs.tolist()]
    # gains[k][v]: what region v adds when it enters as visit k+1
    gains = [[a * rs for rs in objective.row_sums] for a in objective.position_weights]

    full = (1 << t) - 1
    inf = float("inf")
    dp = [[inf] * t for _ in range(full + 1)]
    parent = [[-1] * t for _ in range(full + 1)]
    for v in range(t):
        dp[1 << v][v] = gains[0][v]

    for mask in range(1, full):
        row = dp[mask]
        g = gains[mask.bit_count()]
        for last in range(t):
            base = row[last]
            if base == inf or not (mask >> last) & 1:
                continue
            c_last = c[last]
            for v in range(t):
                if (mask >> v) & 1:
                    continue
                cand = base + c_last[v] + g[v]
                new_mask = mask | (1 << v)
                if cand < dp[new_mask][v]:
                    dp[new_mask][v] = cand
                    parent[new_mask][v] = last

    best_val = inf
    best_last = -1
    for last in range(t):
        cand = dp[full][last] + objective.end_weights[last]
        if cand < best_val:
            best_val = cand
            best_last = last

    order: list[int] = []
    mask, v = full, best_last
    while v != -1:
        order.append(v)
        prev = parent[mask][v]
        mask ^= 1 << v
        v = prev
    order.reverse()
    return Route(tuple(order)), best_val + objective.offset + objective.noise
