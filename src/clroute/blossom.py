"""Edmonds' blossom algorithm: maximum-weight perfect matching, O(k^3).

``shp.min_weight_perfect_matching`` imports this module on its first
call, so that importing clroute does not load it: only Algorithm 1
matches, and most commands never do.
"""

from __future__ import annotations

import numpy as np

from .shp import InvariantViolation


def max_weight_mates(p: np.ndarray) -> list[int]:
    """Each vertex's mate in a maximum-weight perfect matching of the
    complete graph on ``len(p)`` vertices, an even number, with the
    symmetric edge weights ``p`` (the diagonal is ignored). The weights
    may have any sign, so a minimum-weight matching of w is the maximum of
    ``-w``, with no offset to round away low bits.

    Edmonds' primal-dual algorithm (Edmonds 1965; Galil 1986, "Efficient
    algorithms for finding maximum matching in graphs"). Duals y on the
    vertices and z on the blossoms (odd cycles shrunk to one vertex) keep
    every slack y_u + y_v + z(blossoms holding both) - p_uv at or above
    zero, and matched edges at zero.

    The start sets aside the hub h, the vertex that is most often another's
    heaviest neighbour; under -w, alg1's zero-cost dummy is every region's.
    Each other vertex takes y_v = max p_uv / 2 over u outside {v, h}, and h
    takes y_h = max_v (p_hv - y_v). Each half then covers an edge between
    two others and y_h covers h's edges, so every slack is at or above zero
    whatever the signs, and every mutually heaviest pair outside h starts
    matched. The plain start, y_v = max_u p_uv / 2, would put the dual of
    every region in an alg1 odd set at 0 and match only the dummy's pair.
    Two vertices return their one matching first. An alternating tree is
    rooted at each unmatched vertex: S blossoms at even depth, T at odd.
    Each step moves the duals of the trees by the least amount that makes
    one of these happen:

    * an S vertex reaches an unlabelled vertex: that vertex's blossom turns
      T and its mate's blossom S (grow);
    * two S blossoms of one tree meet: the cycle shrinks into one S blossom;
    * two trees meet: the path between their roots is augmented and both
      trees are unlabelled;
    * a T blossom's z reaches zero: it is expanded into its children.

    Vertices are 0..k-1 and blossoms k..2k-1, and per-vertex state sits in
    numpy arrays indexed by vertex. A vertex outside every blossom is its
    own top-level blossom, with the int v as its leaf set, so relabelling
    it reads and writes numpy scalars and an S-S meeting there takes v as
    its end; a blossom's leaf set is an index array, built by concatenating
    its children's when it shrinks.

    The dual move is one running offset d: S duals are stored as y + d and
    T duals as y - d, so a step costs O(k) for k vertices. The least slacks
    from S vertices sit in dense arrays: per vertex (``sk``) and, per S
    blossom, a row over all vertices (``rows``) and the least slack to
    another S blossom (``best``). Between two augmentations a vertex turns
    S at most once, at O(k) cost, and there are O(k) steps, so each of the
    k/2 augmentations costs O(k^2) and the whole O(k^3). A slack that should
    be zero may come out a rounding error off: the step of least move is
    taken as the event, and a negative move as none. The result depends
    only on ``p``; among equally heavy matchings it is one of them.
    """
    n = len(p)
    if n == 2:
        return [1, 0]  # the one perfect matching
    inf = np.inf
    size = 2 * n  # vertices are 0..n-1, blossoms n..2n-1
    ar = np.arange(n)
    p = p.copy()
    p[ar, ar] = -inf  # no vertex pairs with itself
    near = p.argmax(axis=1)
    h = np.bincount(near).argmax()  # the hub h takes its dual last
    q = p.copy()
    q[:, h] = -inf
    near = q.argmax(axis=1)
    yb = q[ar, near] / 2.0
    near[h] = (p[h] - yb).argmax()
    yb[h] = p[h, near[h]] - yb[near[h]]
    free = near[near] != ar  # mutually heaviest pairs are tight at these duals
    mate = np.where(free, -1, near).tolist()
    parent = [-1] * size  # the enclosing blossom; -1 at the top level
    kids: list = [None] * size  # a blossom's children in cycle order, from its base's
    links: list = [None] * size  # links[b][i] = (x, y): x in kids[b][i], y in the next child
    base = list(range(n)) + [-1] * n
    leaves: list = list(range(n)) + [None] * n  # an int for a vertex, an array for a blossom
    spare = list(range(size - 1, n - 1, -1))
    top = ar.copy()  # the top-level blossom of each vertex
    # labels of top-level blossoms: 0 none, 1 S, 2 T; every unmatched
    # vertex is the S root of its own tree
    label = free.astype(int).tolist() + [0] * n
    edge_in: list = [None] * size  # the edge that labelled it: (vertex outside, vertex inside)
    tree = np.where(free, ar, -1)  # the root of the vertex's tree
    vsign = free.astype(float)  # sign[label] of the vertex's top-level blossom
    # d is the dual change so far; stored duals are yb = y + d*s and
    # z - 2d*s, with s = sign[label]
    d = 0.0
    sign = (0.0, 1.0, -1.0)
    z = [0.0] * size
    ys = np.where(free, yb, inf)  # yb at S vertices, inf elsewhere
    yf = np.where(free, inf, yb)  # yb at unlabelled vertices, inf elsewhere
    rows = np.empty((size, n))  # per S blossom: least yb_u - p_uv over its vertices u
    rows[:n] = yb[:, None] - p
    sk = None  # least yb_u - p_uv over all S vertices u, set each round
    best = np.full(size, inf)  # per S blossom: least stored slack to another S blossom
    outer = set(ar[free].tolist())  # the S blossoms
    inner: dict = {}  # the T blossoms (not vertices) and their stored z

    def relabel(c, lab, edge=None, root=-1, row=None):
        """Give top-level blossom c the label ``lab``, by ``edge`` in the tree
        of ``root``; an S blossom gets its row of slacks (``row`` if given)
        and its least slack to the other S blossoms, and they theirs to it."""
        lv, old = leaves[c], label[c]
        shift = d * (sign[lab] - sign[old])
        yb[lv] += shift
        if c >= n:
            z[c] -= 2.0 * shift
            if lab == 2:
                inner[c] = z[c]
            else:
                inner.pop(c, None)
        label[c], edge_in[c] = lab, edge
        tree[lv], vsign[lv] = root, sign[lab]
        if old == 1:
            ys[lv] = inf
            best[c] = inf
            outer.discard(c)
        elif old == 0:
            yf[lv] = inf
        if lab == 0:
            yf[lv] = yb[lv]
        elif lab == 1:
            ys[lv] = yb[lv]
            if row is None:
                row = ys[c] - p[c] if c < n else (ys[lv, None] - p[lv]).min(axis=0)
            np.minimum(sk, row, out=sk)
            rows[c] = row
            cand = row + ys
            cand[lv] = inf
            best[c] = cand[cand.argmin()]
            np.minimum.at(best, top, cand)
            outer.add(c)

    def common_ancestor(u, v):
        """The S blossom where the tree paths up from u and v meet; -1 if none."""
        seen = set()
        a, b = int(top[u]), int(top[v])
        while a >= 0 or b >= 0:
            if a >= 0:
                if a in seen:
                    return a
                seen.add(a)
                e = edge_in[a]
                a = -1 if e is None else int(top[edge_in[int(top[e[0]])][0]])
            a, b = b, a
        return -1

    def shrink(u, v, lca):
        """Make the cycle through the S-S edge (u, v) and blossom lca one S blossom."""
        b = spare.pop()
        up, down = [], []
        for path, x in ((up, u), (down, v)):
            c = int(top[x])
            while c != lca:
                path.append(c)
                c = int(top[edge_in[c][0]])
        up.reverse()
        ks = kids[b] = [lca, *up, *down]
        links[b] = [edge_in[c] for c in up] + [(u, v)] + [edge_in[c][::-1] for c in down]
        for c in ks:
            if label[c] == 2:
                relabel(c, 1)
        row = rows[ks].min(axis=0)
        for c in ks:
            if c >= n:
                z[c] += 2.0 * d  # the actual dual, frozen while inside b
            outer.discard(c)
            best[c], label[c], parent[c] = inf, 0, b
        leaves[b] = np.concatenate([np.atleast_1d(leaves[c]) for c in ks])
        top[leaves[b]] = b
        base[b], label[b], z[b] = base[lca], 1, -2.0 * d
        relabel(b, 1, edge_in[lca], int(tree[u]), row)

    def expand(b):
        """Dissolve T blossom b, its dual at zero, into its children."""
        ks, ls = kids[b], links[b]
        m = len(ks)
        x = edge_in[b][1]
        while parent[x] != b:
            x = parent[x]
        j = ks.index(x)
        for c in ks:
            parent[c], label[c] = -1, 2
            top[leaves[c]] = c
            if c >= n:
                z[c] += 2.0 * d  # stored as T
        # the even-length way round the cycle from the entry child to the base child
        if j % 2:
            path = [ks[i % m] for i in range(j, m + 1)]
            steps = ls[j:]
        else:
            path = ks[j::-1]
            steps = [e[::-1] for e in ls[j - 1 :: -1]] if j else []
        e = edge_in[b]
        root = int(tree[e[1]])
        for i, c in enumerate(path):
            relabel(c, 2 - i % 2, e, root)
            e = steps[i] if i < len(steps) else None
        for c in ks:
            if c not in path:
                relabel(c, 0)
        del inner[b]
        kids[b] = links[b] = leaves[b] = edge_in[b] = None
        label[b] = 0
        spare.append(b)

    def rebase(b, v):
        """Rematch inside blossom b so that its vertex v becomes the base."""
        c = v
        while parent[c] != b:
            c = parent[c]
        if c >= n:
            rebase(c, v)
        ks, ls = kids[b], links[b]
        m = len(ks)
        i = ks.index(c)
        for q in range(i + 1, m, 2) if i % 2 else range(i - 2, -1, -2):
            a, a2 = ls[q]
            if ks[q] >= n:
                rebase(ks[q], a)
            if ks[(q + 1) % m] >= n:
                rebase(ks[(q + 1) % m], a2)
            mate[a], mate[a2] = a2, a
        kids[b], links[b], base[b] = ks[i:] + ks[:i], ls[i:] + ls[:i], v

    def augment(u, v):
        """Flip the alternating path from u's root through (u, v) to v's root."""
        for s, j in ((u, v), (v, u)):
            while True:
                bs = int(top[s])
                if bs >= n:
                    rebase(bs, s)
                mate[s] = j
                e = edge_in[bs]
                if e is None:
                    break
                bt = int(top[e[0]])
                s, j = edge_in[bt]
                if bt >= n:
                    rebase(bt, j)
                mate[j] = s

    slack = np.empty(n)
    while outer:
        # the S blossoms' least slacks, kept up to date until an augmentation
        ids = list(outer)
        cand = rows[ids]
        sk = cand.min(axis=0)
        cand += ys
        for i, c in enumerate(ids):
            if c >= n:
                cand[i, leaves[c]] = inf
        best[ids] = cand.min(axis=1)
        while True:
            np.add(sk, yf, out=slack)
            v2 = int(slack.argmin())
            b3 = int(best.argmin())
            b4 = min(inner, key=inner.__getitem__, default=-1)
            d2 = float(slack[v2]) - d
            d3 = float(best[b3]) / 2.0 - d
            d4 = inner[b4] / 2.0 - d if inner else inf
            step = min(d2, d3, d4)
            if step == inf:
                raise InvariantViolation("no augmenting path in a complete graph")
            d += max(step, 0.0)
            if d3 == step:  # two S blossoms meet
                lb = leaves[b3]
                cand = rows[b3] + ys
                cand[lb] = inf
                v = int(cand.argmin())
                u = b3 if b3 < n else int(lb[(yb[lb] - p[lb, v]).argmin()])
                lca = common_ancestor(u, v)
                if lca >= 0:
                    shrink(u, v, lca)
                    continue
                ta, tb = tree[u], tree[v]
                augment(u, v)
                # unlabel both trees, their duals back to actual values
                lv = ((tree == ta) | (tree == tb)).nonzero()[0]
                yb[lv] -= d * vsign[lv]
                yf[lv], ys[lv], tree[lv], vsign[lv] = yb[lv], inf, -1, 0.0
                for c in set(top[lv].tolist()):
                    if c >= n:
                        z[c] += 2.0 * d * sign[label[c]]
                        inner.pop(c, None)
                    outer.discard(c)
                    label[c], edge_in[c], best[c] = 0, None, inf
                break
            if d2 == step:  # an S vertex reaches an unlabelled one: grow
                u, v = int((ys - p[v2]).argmin()), v2
                c, root = int(top[v]), int(tree[u])
                relabel(c, 2, (u, v), root)
                t = base[c]
                relabel(int(top[mate[t]]), 1, (t, mate[t]), root)
            else:
                expand(b4)
    return mate
