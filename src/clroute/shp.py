"""Graph machinery for shortest-Hamiltonian-path planning.

The route builder works on an augmented complete graph: the T regions with
their metric travel costs, plus one dummy vertex connected to every region
at weight zero. The graph is data, not a class: its weights are the cost
matrix padded with one zero row and column, ``np.pad(costs, (0, 1))``, and
a multigraph is a tuple of (u, v) edges. Anchoring the dummy next to a
chosen final region turns the classic tree + matching + Euler-circuit cycle
construction into a path construction with a fixed endpoint.

Regions are 0..T-1 and the dummy is the padded last vertex, T. Every
operation is deterministic: ties are broken lexicographically and the
Euler walk consumes neighbors in ascending vertex order.

``held_karp_min_path`` is the exact oracle: a subset dynamic program over
(visited set, last vertex) that minimizes a :class:`clroute.loss.Objective`.
The objective has one forgetting weight per position, so the stage index
of the program (the subset size) fixes each region's weight, the final
region's included. Numpy fills it one subset size at a time, every
(subset, last region) pair of that size at once, up to T = 20.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from .instance import ProblemInstance, Route

if TYPE_CHECKING:
    from .loss import Objective

HELD_KARP_MAX_T = 20


class SizeLimitError(ValueError):
    """Instance too large for the exact solver."""


class InvariantViolation(RuntimeError):
    """A structural guarantee of the construction failed; indicates a bug."""


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


def odd_degree_vertices(edges: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Vertices of odd degree in the multigraph given by its edge list, ascending."""
    degree = Counter(v for edge in edges for v in edge)
    return tuple(sorted(v for v, d in degree.items() if d % 2 == 1))


def min_weight_perfect_matching(
    w: np.ndarray, odd: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Exact minimum-weight perfect matching on the vertices in ``odd``.

    ``w`` is the padded weight matrix, whose last vertex is the dummy.
    Returns the pairs and their total weight. Bitmask dynamic program,
    O(2^k * k) for k odd vertices: each state pairs its lowest-order
    unmatched vertex with every alternative. The dummy is placed first in
    the bit order so that, among equally cheap optima, it pairs with the
    lowest region index.
    """
    if len(odd) % 2 != 0:
        raise InvariantViolation("cannot perfectly match an odd number of vertices")

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


def eulerian_circuit(edges: tuple[tuple[int, int], ...], start: int) -> tuple[int, ...]:
    """Hierholzer walk over every multigraph edge, from ``start`` back to it.

    Tie rule: neighbor lists are sorted high to low, and the walk leaves
    each vertex by its lowest remaining neighbor, deleting one copy of the
    reverse entry; parallel edges are interchangeable, so the circuit is
    reproducible.
    """
    n = 1 + max([start, *map(max, edges)])
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v, nbrs in enumerate(adj):
        if len(nbrs) % 2 != 0:
            raise InvariantViolation(f"vertex {v} has odd degree {len(nbrs)}")
        nbrs.sort(reverse=True)
    if not adj[start]:
        raise InvariantViolation(f"start vertex {start} has no incident edges")

    stack = [start]
    walked: list[int] = []
    while stack:
        v = stack[-1]
        if adj[v]:
            nxt = adj[v].pop()
            adj[nxt].remove(v)
            stack.append(nxt)
        else:
            walked.append(stack.pop())

    if len(walked) != len(edges) + 1:
        raise InvariantViolation("multigraph is not connected; no Eulerian circuit")
    walked.reverse()
    return tuple(walked)


def shortcut_to_hamiltonian(circuit: tuple[int, ...], v_prime: int) -> Route:
    """Skip repeat visits in a circuit through the dummy; the route ends at v_prime.

    The circuit starts and ends at the dummy, which must not appear in
    between. Its direction is re-anchored (reversed) if needed so that
    v_prime is the first vertex after the dummy; the kept occurrence of
    v_prime is therefore the one adjacent to the dummy. Dropping the dummy
    and its two zero-weight edges leaves a path, returned oriented to end
    at v_prime. Under metric costs the shortcut never increases weight.
    """
    seq = list(circuit)
    if len(seq) < 3 or seq[0] != seq[-1]:
        raise InvariantViolation("not a closed circuit")
    if seq[1] != v_prime:
        if seq[-2] == v_prime:
            seq.reverse()
        else:
            raise InvariantViolation("circuit does not keep the dummy next to the final region")
    inner = seq[1:-1]
    if seq[0] in inner:
        raise InvariantViolation("dummy vertex appears inside the circuit")
    first_visits = dict.fromkeys(inner)  # each vertex once, in walk order
    return Route(tuple(reversed(first_visits)))


def route_travel_cost(inst: ProblemInstance, route: Route) -> float:
    """Raw (unaveraged) travel cost along a route."""
    return sum(float(inst.costs[a, b]) for a, b in zip(route.order[:-1], route.order[1:]))


def held_karp_min_path(inst: ProblemInstance, objective: Objective) -> tuple[Route, float]:
    """Exact minimum of a route objective by subset dynamic programming.

    States are (visited subset, last region); a region entering as the p-th
    visit gains the objective's weight for position p times its row sum;
    the cheapest predecessor (lowest index on ties) is chosen before the
    gain is added. Returns the optimal route and its objective value,
    route-independent terms included. The travel-only optimum is the
    objective with zero forgetting weights and travel divisor 1.

    Cost is O(2^T * T^2), memory 2^T * T float64 values plus int8 parents
    (190 MB at T=20); refuses T > 20 — use the approximation pipeline in
    ``planner`` beyond that.
    """
    t = inst.t_regions
    if t > HELD_KARP_MAX_T:
        raise SizeLimitError(
            f"T={t} exceeds the exact-solver limit ({HELD_KARP_MAX_T}); "
            "use the approximation algorithm instead"
        )
    if len(objective.row_sums) != t:
        raise ValueError(f"objective covers {len(objective.row_sums)} regions, instance has {t}")

    c = inst.costs * (1.0 / objective.travel_divisor)
    # gain[k, v]: what region v adds when it enters as visit k+1
    gain = np.outer(objective.position_weights, objective.row_sums) / objective.forgetting_divisor

    full = (1 << t) - 1
    size = np.zeros(full + 1, dtype=np.uint8)  # popcount of each subset
    for v in range(t):
        size[1 << v : 2 << v] = size[: 1 << v] + 1
    dp = np.full((full + 1, t), np.inf)
    parent = np.full((full + 1, t), -1, dtype=np.int8)
    dp[1 << np.arange(t), np.arange(t)] = 0.0 + gain[0]  # a first visit has no predecessor
    for s in range(2, t + 1):
        layer = np.flatnonzero(size == s)
        for v in range(t):
            sel = layer[(layer >> v) & 1 == 1]
            # regions outside sel ^ (1 << v), v included, are inf there and never win
            cand = dp[sel ^ (1 << v)] + c[:, v]
            arg = cand.argmin(axis=1)  # the first minimum: lowest index on ties
            dp[sel, v] = cand[np.arange(len(sel)), arg] + gain[s - 1, v]
            parent[sel, v] = arg

    v = int(np.argmin(dp[full]))
    value = float(dp[full, v]) + objective.offset + objective.noise
    order, mask = [], full
    while v != -1:
        order.append(v)
        mask, v = mask ^ (1 << v), int(parent[mask, v])
    return Route(tuple(reversed(order))), value
