"""The four cl-route workloads: inputs from the seed, one argv per op, output checks.

Every op is one ``cl-route`` command. ``Workload.op(i)`` is a pure function
of the seed and the op index, so the traced run can repeat a cycle of ops
exactly. ``check`` raises ``OpFailed`` on any wrong output and otherwise
returns what the op observed (ratios, travel over MST, exit-5 verdicts).

All regimes use n=100 samples per region; ``M_CYCLE`` alternates
underparameterized (m=60, 80) and overparameterized (m=120, 180) draws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

M_CYCLE = (60, 120, 80, 180)
N_SAMPLES = 100
CSV_HEADER = "sweep_var,value,strategy,mean_R,min_R,max_R,instances"
# A printed ratio of an optimal route can round to just under 1.
RATIO_TOL = 1e-9
REL_TOL = 1e-9
PLAN_KEYS = ("route", "strategy", "forgetting", "travel", "constant", "total", "elapsed")


class OpFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    path: str | None = None


@dataclass
class InstanceFacts:
    """What the checks need from an instance file, computed by the benchmark itself."""

    t: int
    m: int
    costs: np.ndarray
    row_sums: np.ndarray
    mst: float

    @property
    def best_final(self) -> int:
        return int(np.argmin(self.row_sums))

    @property
    def under(self) -> bool:
        return N_SAMPLES >= self.m + 2


def prim_mst_weight(costs: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum spanning tree weight and vertex degrees (Prim, independent of clroute)."""
    t = costs.shape[0]
    in_tree = np.zeros(t, dtype=bool)
    in_tree[0] = True
    best = costs[0].copy()
    parent = np.zeros(t, dtype=int)
    degree = np.zeros(t, dtype=int)
    weight = 0.0
    for _ in range(t - 1):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        weight += float(best[v])
        in_tree[v] = True
        degree[v] += 1
        degree[parent[v]] += 1
        closer = ~in_tree & (costs[v] < best)
        best[closer] = costs[v][closer]
        parent[closer] = v
    return weight, degree


def odd_set_size(costs: np.ndarray, row_sums: np.ndarray) -> int:
    """Odd-degree vertices of the MST plus the dummy edge at the best final region."""
    _, degree = prim_mst_weight(costs)
    degree[int(np.argmin(row_sums))] += 1
    return int((degree % 2).sum()) + 1


def load_instance(path: str | Path) -> InstanceFacts:
    """Parse an instance file and check its invariants with numpy."""
    doc = json.loads(Path(path).read_text())
    t = doc["t"]
    delta = np.array(doc["delta"], dtype=float)
    delta0 = np.array(doc["delta0"], dtype=float)
    costs = np.array(doc["costs"], dtype=float)
    if delta.shape != (t, t) or costs.shape != (t, t) or delta0.shape != (t,):
        raise OpFailed(f"{path}: matrix shapes do not match t={t}")
    for name, mat in (("delta", delta), ("costs", costs)):
        if not np.all(np.isfinite(mat)) or np.any(mat < 0):
            raise OpFailed(f"{path}: {name} has a negative or non-finite entry")
        if not np.array_equal(mat, mat.T) or np.any(np.diagonal(mat) != 0):
            raise OpFailed(f"{path}: {name} is not symmetric with a zero diagonal")
    if not np.all(np.isfinite(delta0)) or np.any(delta0 < 0):
        raise OpFailed(f"{path}: delta0 has a negative or non-finite entry")
    via = costs[:, :, None] + costs[None, :, :]  # via[i, k, j] = c[i,k] + c[k,j]
    slack = costs - via.min(axis=1) - 1e-12 * np.maximum(1.0, costs)
    if np.any(slack > 0):
        raise OpFailed(f"{path}: costs break the triangle inequality")
    mst, _ = prim_mst_weight(costs)
    return InstanceFacts(t, doc["m"], costs, delta.sum(axis=1), mst)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_plan(out: str, facts: InstanceFacts, strategy: str) -> tuple[np.ndarray, float]:
    """Route is a permutation of 1..T, numbers finite and consistent.

    Returns the 0-based route and its raw travel over the MST weight.
    """
    doc = json.loads(out)
    if sorted(doc) != sorted(PLAN_KEYS):
        raise OpFailed(f"plan JSON keys {sorted(doc)}")
    route = doc["route"]
    if sorted(route) != list(range(1, facts.t + 1)):
        raise OpFailed("route is not a permutation of 1..T")
    if doc["strategy"] != strategy:
        raise OpFailed(f"strategy {doc['strategy']!r} != {strategy!r}")
    nums = [doc[k] for k in PLAN_KEYS[2:]]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in nums):
        raise OpFailed("plan output has a non-finite number")
    if not _close(doc["total"], doc["forgetting"] + doc["travel"] + doc["constant"]):
        raise OpFailed("total != forgetting + travel + constant")
    order = np.array(route) - 1
    travel = float(facts.costs[order[:-1], order[1:]].sum())
    if not _close(doc["travel"] * facts.t, travel):
        raise OpFailed(f"travel {doc['travel']} does not match the route's cost {travel}")
    if strategy == "alg1":
        if order[-1] != facts.best_final:
            raise OpFailed("alg1 route does not end at the minimum-row-sum region")
        # tree <= OPT and matching <= OPT/2 <= tree, so the path is at most twice the tree
        if travel > 2.0 * facts.mst * (1 + REL_TOL):
            raise OpFailed(f"alg1 travel {travel} exceeds twice the MST {facts.mst}")
    return order, travel / facts.mst


def check_sweep_csv(out: str, values: tuple[int, ...], strategies: tuple[str, ...], instances: int):
    """Fixed header, one row per (value, strategy), every ratio finite and >= 1."""
    lines = out.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise OpFailed(f"CSV header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    want = [(str(v), s) for v in values for s in strategies]
    if [(r[1], r[2]) for r in rows] != want:
        raise OpFailed(f"CSV rows {[(r[1], r[2]) for r in rows]} != {want}")
    ratios: dict[str, list[float]] = {s: [] for s in strategies}
    for r in rows:
        mean_r, min_r, max_r = (float(x) for x in r[3:6])
        if r[0] != "m" or int(r[6]) != instances:
            raise OpFailed(f"CSV row {r}")
        if not all(math.isfinite(x) and x >= 1 - RATIO_TOL for x in (mean_r, min_r, max_r)):
            raise OpFailed(f"CSV ratio below 1 or not finite: {r}")
        if not min_r <= mean_r <= max_r:
            raise OpFailed(f"CSV row not ordered min <= mean <= max: {r}")
        ratios[r[2]].append(mean_r)
    return ratios


@dataclass
class Workload:
    name: str
    why: str
    cycle: int
    seed: int = 0
    workdir: Path = Path(".")
    files: dict[str, InstanceFacts] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def setup(self, run, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.files = {}
        self.notes = {}

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, rc, out: str) -> dict:
        raise NotImplementedError

    def base_seed(self, i: int) -> int:
        return self.seed * 100_000 + i


class Sweep(Workload):
    T_CYCLE = (10, 12, 14)
    STRATEGIES = ("alg1", "forgetting", "random")

    def op(self, i: int) -> Op:
        t, m = self.T_CYCLE[i % 3], M_CYCLE[i % 4]
        argv = ("experiment", "--sweep", "m", "--values", str(m), "--t", str(t),
                "--instances", "1", "--seed", str(self.base_seed(i)),
                "--strategies", ",".join(self.STRATEGIES))
        return Op(argv)

    def check(self, op: Op, rc, out: str) -> dict:
        if rc != 0:
            raise OpFailed(f"exit code {rc}")
        m = int(op.argv[op.argv.index("--values") + 1])
        ratios = check_sweep_csv(out, (m,), self.STRATEGIES, 1)
        return {"alg1_ratio": ratios["alg1"][0]}


class PlanT24(Workload):
    """alg1 on T=24 files, drawn to a fixed mix of odd-set sizes.

    ``QUOTA`` is the share of each odd-set size k among 1000 drawn T=24
    instances (k<=12: 14.3%, 14: 30.1%, 16: 35.1%, 18: 16.8%, 20: 3.7%),
    scaled to a pool of 30 by largest remainder. Matching cost depends on k
    alone, so every seed gets the same cost mix and different instances.
    The pool is filled in draw order. Set-up always draws ``CANDIDATES``
    instances, so it does the same work on every seed, and draws on only if
    a quota is still short then (about 1 seed in 100, for k=20).
    """

    T = 24
    QUOTA = {12: 4, 14: 9, 16: 11, 18: 5, 20: 1}
    CANDIDATES = 120
    # No k=20 in this many draws has odds of about 1e-16.
    MAX_CANDIDATES = 1000

    @staticmethod
    def bucket(k: int) -> int | None:
        if k > 20:
            return None
        return max(k, 12)

    def setup(self, run, seed: int, workdir: Path) -> None:
        super().setup(run, seed, workdir)
        need = dict(self.QUOTA)
        chosen: list[str] = []
        sizes: dict[str, int] = {}
        c = 0
        while c < self.CANDIDATES or any(need.values()):
            if c == self.MAX_CANDIDATES:
                raise OpFailed(f"odd-set quotas {need} still short after {c} draws")
            path = str(workdir / f"t24_{c:03d}.json")
            run(("gen", "--t", str(self.T), "--seed", str(self.base_seed(c)),
                 "--m", str(M_CYCLE[c % 4]), "--n", str(N_SAMPLES), "--out", path),
                expect_file=path)
            facts = load_instance(path)
            k = odd_set_size(facts.costs, facts.row_sums)
            b = self.bucket(k)
            sizes[path] = k
            if b is not None and need[b] > 0:
                need[b] -= 1
                chosen.append(path)
                self.files[path] = facts
            c += 1
        self.pool = chosen
        self.notes = {"pool_odd_set_sizes": [sizes[p] for p in chosen], "candidates_drawn": c}

    def op(self, i: int) -> Op:
        path = self.pool[i % len(self.pool)]
        return Op(("plan", path, "--strategy", "alg1", "--format", "json"), path)

    def check(self, op: Op, rc, out: str) -> dict:
        if rc != 0:
            raise OpFailed(f"exit code {rc}")
        _, per_mst = check_plan(out, self.files[op.path], "alg1")
        return {"travel_per_mst": per_mst}


class IngestT80(Workload):
    T = 80

    def op(self, i: int) -> Op:
        j = i // 2
        path = str(self.workdir / f"t80_{j % 2}.json")
        if i % 2 == 0:
            argv = ("gen", "--t", str(self.T), "--seed", str(self.base_seed(j)),
                    "--m", str(M_CYCLE[j % 4]), "--n", str(N_SAMPLES), "--out", path)
            return Op(argv, path)
        return Op(("plan", path, "--strategy", "forgetting", "--format", "json"), path)

    def check(self, op: Op, rc, out: str) -> dict:
        if rc != 0:
            raise OpFailed(f"exit code {rc}")
        if op.argv[0] == "gen":
            if not out.startswith(f"wrote {op.path}: T={self.T},"):
                raise OpFailed(f"gen output {out[:80]!r}")
            self.files[op.path] = facts = load_instance(op.path)
            if facts.t != self.T or facts.m != int(op.argv[op.argv.index("--m") + 1]):
                raise OpFailed("gen wrote the wrong t or m")
            return {}
        facts = self.files[op.path]
        route, _ = check_plan(out, facts, "forgetting")
        if facts.under:
            if route[-1] != facts.best_final:
                raise OpFailed("forgetting route does not end at the minimum-row-sum region")
        elif np.any(np.diff(facts.row_sums[route]) > 0):
            raise OpFailed("forgetting route is not in descending row-sum order")
        return {}


class Verify(Workload):
    TRIALS = 2000
    THRESHOLD = 3.0
    ARGS = ("--t", "8", "--under-m", "16", "--under-n", "40", "--over-m", "40", "--over-n", "10")

    def op(self, i: int) -> Op:
        argv = ("verify",) + self.ARGS + (
            "--trials", str(self.TRIALS), "--seed", str(self.base_seed(i)))
        return Op(argv)

    def check(self, op: Op, rc, out: str) -> dict:
        if rc not in (0, 5):
            raise OpFailed(f"exit code {rc}")
        doc = json.loads(out)
        zs = []
        for regime in ("under", "over"):
            rep = doc[regime]
            vals = [rep[k] for k in ("empirical", "closed_form", "std_error", "z")]
            if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in vals):
                raise OpFailed(f"{regime} report has a non-finite number")
            if rep["trials"] != self.TRIALS or rep["closed_form"] <= 0 or rep["std_error"] <= 0:
                raise OpFailed(f"{regime} report {rep}")
            zs.append(rep["z"])
        ok = all(z <= self.THRESHOLD for z in zs)
        if doc["threshold"] != self.THRESHOLD or doc["ok"] is not ok or (rc == 0) is not ok:
            raise OpFailed(f"verdict ok={doc['ok']} does not match z={zs} and exit {rc}")
        return {"z_over_threshold": rc == 5}


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep", "Held-Karp exact oracle at T=10,12,14 dominates; matching idle", 12),
        PlanT24("plan_t24", "bitmask odd-set matching at T=24 dominates; exact oracle idle", 30),
        IngestT80("ingest_t80", "validate_instance triangle loop at T=80 on gen and plan", 8),
        Verify("verify", "Monte Carlo checker only; no planner code runs", 1),
    )
}


def quality_probe(run, seed: int, workdir: Path) -> dict:
    """alg1 quality on a fixed seed-derived probe, the same in every workload.

    ``alg1_mean_ratio``: mean alg1/exact ratio over 24 instances at T=10
    (6 per m in ``M_CYCLE``), read from the experiment CSV.
    ``alg1_travel_per_mst``: mean raw alg1 path travel over MST weight on
    30 instances at T=20, where the matching stays cheap.
    """
    base = seed * 100_000 + 90_000
    out = run(("experiment", "--sweep", "m", "--values", ",".join(map(str, M_CYCLE)),
               "--t", "10", "--instances", "6", "--seed", str(base), "--strategies", "alg1"))
    ratios = check_sweep_csv(out, M_CYCLE, ("alg1",), 6)["alg1"]
    per_mst = []
    path = str(workdir / "probe_t20.json")
    for j in range(30):
        run(("gen", "--t", "20", "--seed", str(base + 100 + j), "--m", str(M_CYCLE[j % 4]),
             "--n", str(N_SAMPLES), "--out", path), expect_file=path)
        out = run(("plan", path, "--strategy", "alg1", "--format", "json"))
        per_mst.append(check_plan(out, load_instance(path), "alg1")[1])
    return {
        "alg1_mean_ratio": sum(ratios) / len(ratios),
        "alg1_travel_per_mst": sum(per_mst) / len(per_mst),
    }
