"""Graph machinery for shortest-Hamiltonian-path planning.

``fixed_end_path`` is the approximation, and the only code that builds the
dummy: one vertex, T, joined to every region at weight zero (the cost
matrix padded with a zero row and column) and attached to the tree at the
chosen final region, so the tree + matching + Euler-circuit cycle
construction yields a path with that end. It is polynomial: the exact
odd-set matching, Edmonds' blossom algorithm, is O(k^3) in the odd-set size
k, and the other stages are at most O(T^2 log T). The stages are plain
functions over one weight matrix and tuples of (u, v) edges. Every
operation is deterministic. The tree breaks ties lexicographically and the
Euler walk consumes neighbors in ascending vertex order; among equally
cheap matchings the blossom returns some optimum of that weight, so on
ties the dummy may pair with any odd region. What each stage built, the
route included, comes back in one ``PathStages`` record.

``held_karp_min_path`` is the exact oracle: a subset dynamic program over
(visited set, last vertex) that minimizes the instance's own objective,
``inst.objective``. The objective has one forgetting weight per position,
so the stage index of the program (the subset size) fixes each region's
weight, the final region's included. Its table holds reachable states
only, T * 2^(T-1) values: per subset size, one row per member (the last
region) and one column per subset of that size. numpy fills it one size
at a time, pushing each subset's values along rows of the cost matrix in
512 KiB blocks of (member, subset, next region) candidates, up to T = 20.
The index tables that drive those steps depend on T alone; they are
built on the first call for a T and kept for the life of the process.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .instance import _BLOCK, ProblemInstance, Route, upper_pairs

HELD_KARP_MAX_T = 20


class SizeLimitError(ValueError):
    """Instance too large for the exact solver."""


def check_exact_size(t: int) -> None:
    """Raise ``SizeLimitError`` when the exact oracle cannot solve ``t`` regions."""
    if t > HELD_KARP_MAX_T:
        raise SizeLimitError(
            f"T={t} exceeds the exact-solver limit ({HELD_KARP_MAX_T}); "
            "use the approximation algorithm instead"
        )


class InvariantViolation(RuntimeError):
    """A structural guarantee of the construction failed; indicates a bug."""


def minimum_spanning_tree(costs: np.ndarray) -> tuple[tuple[tuple[int, int], ...], float]:
    """Kruskal on the complete graph; ties broken by (weight, i, j) edge order:
    ``upper_pairs`` (``np.triu_indices``) lists edges by (i, j), which a
    stable sort by weight keeps. The sorted edges become Python numbers T
    at a time, and the scan stops at T - 1 tree edges, a few T of the
    T(T - 1)/2 as a rule."""
    t = costs.shape[0]
    rows, cols = upper_pairs(t)
    weights = costs[rows, cols]
    order = np.argsort(weights, kind="stable")
    parent = list(range(t))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    chosen: list[tuple[int, int]] = []
    weight = 0.0
    for lo in range(0, len(order), max(t, 1)):
        part = order[lo : lo + t]
        for w, i, j in zip(weights[part].tolist(), rows[part].tolist(), cols[part].tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                chosen.append((i, j))
                weight += w
                if len(chosen) == t - 1:
                    return tuple(chosen), weight
    return tuple(chosen), weight


def odd_degree_vertices(edges: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Vertices of odd degree in the multigraph given by its edge list, ascending."""
    degree = Counter(v for edge in edges for v in edge)
    return tuple(sorted(v for v, d in degree.items() if d % 2 == 1))


def min_weight_perfect_matching(
    w: np.ndarray, odd: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Minimum-weight perfect matching on the vertices in ``odd``.

    Returns the pairs and their total weight. The matching is the
    maximum-weight perfect matching of the weights -w, found by Edmonds'
    blossom algorithm (:func:`clroute.blossom.max_weight_mates`) in O(k^3)
    time for k vertices. Negation is exact in floating point, so no low
    bits are lost at any cost scale, and weights scaled by a power of two
    give the same pairs. It is optimal to about 2e-16 relative: the
    blossom's float duals may settle a near-tie that rounding split by an
    ulp the other way. Each pair is listed from its vertex that comes
    first in ``odd``, the pairs in the order of those vertices. Among
    equally cheap optima it returns one of them, the same one for the same
    input.
    """
    if len(odd) % 2 != 0:
        raise InvariantViolation("cannot perfectly match an odd number of vertices")
    if not odd:
        return (), 0.0
    from .blossom import max_weight_mates  # compiled on first use, not at import

    idx = np.array(odd)
    sub = w[idx[:, None], idx]
    mate = max_weight_mates(-sub)
    pairs = [(i, j) for i, j in enumerate(mate) if i < j]
    return tuple((odd[i], odd[j]) for i, j in pairs), float(sum(sub[i, j] for i, j in pairs))


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


@dataclass(frozen=True)
class PathStages:
    """What ``fixed_end_path`` built, stage by stage; vertex T is the dummy."""

    route: Route
    tree: tuple[tuple[int, int], ...]  # the spanning tree's edges, then (end, T)
    tree_weight: float
    odd: tuple[int, ...]  # the tree's odd-degree vertices, ascending
    pairs: tuple[tuple[int, int], ...]  # their matching
    matching_weight: float
    circuit: tuple[int, ...]  # the Euler circuit of tree + pairs, from T back to T


def fixed_end_path(costs: np.ndarray, end: int) -> PathStages:
    """Algorithm 1's route over every region, ending at region ``end``.

    Spanning tree, the dummy attached at ``end``, exact matching of the
    odd-degree vertices, Euler circuit from the dummy, shortcut. Under
    metric costs the route's travel is at most the tree weight plus the
    matching weight, within 3/2 of the shortest Hamiltonian path's.
    Polynomial: the matching is O(k^3) in the odd-set size k. Among equally
    cheap matchings any optimum may come back, so on ties the dummy pairs
    with some odd region, not a chosen one; the route still ends at
    ``end``. Returns the route with every stage that led to it.
    """
    dummy = costs.shape[0]
    mst_edges, tree_weight = minimum_spanning_tree(costs)
    tree = mst_edges + ((end, dummy),)
    odd = odd_degree_vertices(tree)
    w = np.zeros((dummy + 1, dummy + 1), dtype=costs.dtype)
    w[:dummy, :dummy] = costs
    pairs, matching_weight = min_weight_perfect_matching(w, odd)
    circuit = eulerian_circuit(tree + pairs, dummy)
    route = shortcut_to_hamiltonian(circuit, end)
    return PathStages(route, tree, tree_weight, odd, pairs, matching_weight, circuit)


@functools.cache
def _held_karp_tables(t: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The state layout of Held–Karp's table at ``t`` regions: (members, into).

    The subsets of each size k are listed by ascending mask, and pos(S) is
    S's place among those of its size. ``members[k]``, uint8 of shape
    (k, C(t, k)), holds in column i the regions of the i-th size-k subset,
    ascending; ``into[k]``, int32 of the same shape, holds for that subset
    S and its j-th member v the flat index pos(S minus v) * t + v, where
    state (S, v) sits in the (C(t, k - 1), t) table pushed from the
    subsets of size k - 1, so ``into[k][j, i] // t`` is the column of S
    minus v. Both are empty for k = 0. Every call at ``t`` shares these
    arrays, so they are read-only.
    """
    size = np.zeros(1 << t, dtype=np.uint8)  # popcount of each subset
    for v in range(t):
        size[1 << v : 2 << v] = size[: 1 << v] + 1
    by_size = np.argsort(size, kind="stable")  # the masks by size, then ascending
    counts = np.bincount(size, minlength=t + 1)  # C(t, k)
    starts = np.cumsum(counts) - counts
    pos = np.empty(1 << t, dtype=np.int32)
    pos[by_size] = np.arange(1 << t) - np.repeat(starts, counts)
    members, into = [], []
    for k in range(t + 1):
        masks = by_size[starts[k] : starts[k] + counts[k]]
        mem = np.empty((k, masks.size), dtype=np.uint8)
        idx = np.empty((k, masks.size), dtype=np.int32)
        rest = masks.copy()
        for j in range(k):
            low = rest & -rest  # 2^v for the j-th member v
            rest ^= low
            mem[j] = np.frexp(low)[1] - 1
            idx[j] = pos[masks ^ low] * t + mem[j]
        members.append(mem)
        into.append(idx)
    for table in (*members, *into):
        table.flags.writeable = False
    return tuple(members), tuple(into)


def held_karp_min_path(inst: ProblemInstance) -> tuple[Route, float]:
    """Exact minimum of the instance's objective by subset dynamic programming.

    States are (visited subset, last region) and hold values only; a region
    entering as the p-th visit gains ``inst.objective``'s weight for
    position p times its row sum, the cheapest predecessor (lowest index on
    ties) chosen before the gain is added, and travel is divided by T. The
    route is recovered by walking back from the best final state, taking
    that same first minimum again at each step; the column of each subset
    less its last region is read from the gather index. Returns the optimal
    route and its objective value, route-independent terms included. The
    travel-only optimum is that of a copy of the instance with zero
    dissimilarities and zero noise (``tests/helpers.py::travel_only``).
    Raises ``InvariantViolation`` if the optimum is not finite, which the
    instance's own bound on every state rules out.

    Only reachable states are stored: for each subset size k, values[k][j, i]
    is the cheapest start over the i-th size-k subset S (ascending mask)
    that ends at its j-th member u (ascending), t * 2^(t-1) values in all.
    Each step pushes every size-k subset's values along rows of the cost
    matrix, in 512 KiB blocks of (member, subset, next region) candidates
    through one buffer: pushed[S, v] = min_j (c[u_j, v] + values[k][j, S])
    + gain[k, v]. One flat take through ``into[k + 1]`` then gathers the
    values of size k + 1 from the entries with v outside S. The tables
    behind those steps depend on T alone, so the first call at a T builds
    them and later calls reuse them (``_held_karp_tables``).

    Cost is O(2^T * T^2). Memory per call is t * 2^(t-1) float64 values
    (80 MiB at T=20) and a push table of t * C(t, t/2) (28 MiB at T=20).
    The tables kept per T take 5 * t * 2^(t-1) bytes: 50 MiB at T=20,
    11 MiB at T=18, under 1 MiB at T <= 14. Each T that a process has
    solved keeps its own, so a sweep over T = 17, ..., 20 in ascending
    order holds 90 MiB of them while T=20 runs. Refuses T > 20
    — use the approximation pipeline in ``planner`` beyond that.
    """
    t = inst.t_regions
    check_exact_size(t)
    objective = inst.objective

    c = inst.costs * (1.0 / t)
    # gain[k, v]: what region v adds when it enters as visit k+1
    gain = np.outer(objective.position_weights, objective.row_sums) / objective.forgetting_divisor

    members, into = _held_karp_tables(t)
    values = [None, (0.0 + gain[0])[None, :]]  # a first visit has no predecessor
    buf = np.empty(_BLOCK)
    push = np.empty(t * max(mem.shape[1] for mem in members))
    for k in range(1, t):
        mem, val = members[k], values[k]
        n = mem.shape[1]
        step = max(1, _BLOCK // (k * t))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            # cand[j, i, v] = c[u_j, v] + values[k][j, i] for subset i's j-th
            # member u_j; v among the subset's own members gives entries that
            # no index in into[k + 1] reads
            cand = buf[: k * (hi - lo) * t].reshape(k, -1, t)
            np.take(c, mem[:, lo:hi], axis=0, out=cand, mode="clip")
            cand += val[:, lo:hi, None]
            pushed = push[lo * t : hi * t].reshape(-1, t)
            np.minimum.reduce(cand, axis=0, out=pushed)
            pushed += gain[k]
        values.append(np.take(push, into[k + 1]))

    last = values[t][:, 0]  # the full set's states, its members 0, ..., t-1
    v = int(np.argmin(last))
    value = float(last[v]) + objective.offset + objective.noise
    if not math.isfinite(value):
        raise InvariantViolation(f"Held–Karp's optimum is {value}, not finite")
    order, i, j = [v], 0, v  # v is the j-th member of the i-th size-t subset
    for k in range(t - 1, 0, -1):
        i = into[k + 1][j, i] // t  # the column of that subset minus v
        u = members[k][:, i]
        # the same sums, the same first minimum over the members ascending
        j = int(np.argmin(values[k][:, i] + c[u, v]))
        v = int(u[j])
        order.append(v)
    return Route(tuple(reversed(order))), value
