"""Hand-seeded mutants of ``src/`` and a runner that checks Tier-1 kills each.

Each entry is (id, file, old text, new text): one fault, made by swapping
one piece of text in one file. pytest does not collect this module. Run it
from anywhere, with the ids of the mutants to run, or none to run them all:

    python tests/mutants.py
    python tests/mutants.py closure-one-pass mst-maximum

For each mutant the runner copies ``src/``, ``tests/``, ``perfbench/`` (which
``tests/test_tracing.py`` loads) and ``pyproject.toml`` into a temporary
directory, less ``tests/test_mutants.py``, which would fail on any applied
mutant as its old text is gone. It applies the swap there, runs
``python -m pytest -x -q -p no:cacheprovider`` with ``PYTHONPATH=src`` and
prints ``<id>: killed by <first failing test id>`` or ``<id>: SURVIVED``.
It refuses to run, before any mutant runs, unless the old text of every
mutant asked for occurs exactly once in its file. The exit status is 1 when
a mutant survived, else 0.

The one known survivor is ``triangle-tolerance-from-detour``: with faults
at the tolerance's edge it differs from the real rule by about an ulp.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", "out", "test_mutants.py")
TIMEOUT = 900  # seconds; a mutant that hangs Tier-1 this long counts as killed

BLOSSOM = "src/clroute/blossom.py"
CLI = "src/clroute/cli.py"
INSTANCE = "src/clroute/instance.py"
LOSS = "src/clroute/loss.py"
MC = "src/clroute/mc_verify.py"
PLANNER = "src/clroute/planner.py"
SHP = "src/clroute/shp.py"

KRUSKAL_SORT = 'order = np.argsort(weights, kind="stable")'
CLOSURE_END = "if not a.size or (not first and _closed_through(d, a, b, via)):"
HK_TABLES = "@functools.cache\ndef _held_karp_tables(t: int)"
VERIFY_END = (
    '        mean = _finite("mean simulated loss", float(losses.mean()))\n'
    "        std_error = float(losses.std(ddof=1) / math.sqrt(trials))\n"
    '    return McReport(mean, closed, _finite("standard error of the mean", std_error), trials)'
)

MUTANTS = [
    # tie rules
    ("kruskal-ties-last", SHP, KRUSKAL_SORT,
     'order = weights.size - 1 - np.argsort(weights[::-1], kind="stable")'),
    ("kruskal-ties-by-j", SHP, KRUSKAL_SORT, "order = np.lexsort((rows, cols, weights))"),
    ("euler-highest-neighbor-first", SHP, "nbrs.sort(reverse=True)", "nbrs.sort()"),
    ("held-karp-read-back-last-minimum", SHP,
     "j = int(np.argmin(values[k][:, i] + c[u, v]))",
     "j = len(u) - 1 - int(np.argmin((values[k][:, i] + c[u, v])[::-1]))"),
    ("best-final-region-last-minimum", LOSS,
     "return int(np.argmin(inst.objective.row_sums))",
     "return len(inst.objective.row_sums) - 1 - int(np.argmin(inst.objective.row_sums[::-1]))"),
    ("baseline-ties-lower-index-earlier", PLANNER,
     'weight[np.argsort(objective.row_sums, kind="stable")[::-1]]',
     'weight[np.argsort(np.negative(objective.row_sums), kind="stable")]'),
    # the approximation
    ("mst-maximum", SHP, KRUSKAL_SORT, 'order = np.argsort(-weights, kind="stable")'),
    ("shortcut-keeps-last-visit", SHP, "first_visits = dict.fromkeys(inner)",
     "first_visits = list(dict.fromkeys(inner[::-1]))[::-1]"),
    ("matching-offset-transform", SHP, "mate = max_weight_mates(-sub)",
     "mate = max_weight_mates(sub.max() + 1.0 - sub)"),
    ("alg1-ends-at-region-0", PLANNER, "fixed_end_path(inst.costs, best_final_region(inst))",
     "fixed_end_path(inst.costs, 0)"),
    # acceptance 03 cannot see it: at T=2 both orders have bit-identical totals
    ("alg1-t2-reversed", PLANNER, "_finish(inst, stages.route, Strategy.ALGORITHM1",
     "_finish(inst, Route(stages.route.order[:: 1 - 2 * (inst.t_regions == 2)]), "
     "Strategy.ALGORITHM1"),
    ("hub-partner-its-own-best", BLOSSOM, "near[h] = (p[h] - yb).argmax()",
     "near[h] = p[h].argmax()"),
    ("hub-random", BLOSSOM, "h = np.bincount(near).argmax()", "h = np.random.randint(n)"),
    ("augment-no-rebase", BLOSSOM, "rebase(bt, j)", "pass"),
    ("expand-no-dual-restore", BLOSSOM, "z[c] += 2.0 * d  # stored as T", "pass"),
    # the exact oracle
    ("held-karp-no-first-visit-gain", SHP, "(0.0 + gain[0])[None, :]", "(0.0 * gain[0])[None, :]"),
    ("held-karp-gain-one-visit-late", SHP, "pushed += gain[k]", "pushed += gain[k - 1]"),
    ("held-karp-no-finite-check", SHP, "if not math.isfinite(value):", "if False:"),
    ("held-karp-tables-kept-across-t", SHP, HK_TABLES,
     "def _held_karp_tables(t: int, _kept=[]):\n"
     "    if not _kept:\n"
     "        _kept.append(_held_karp_tables_at(t))\n"
     "    return _kept[0]\n\n\n"
     "def _held_karp_tables_at(t: int)"),
    # the objective
    ("under-noise-constant", LOSS, "m * sigma2 / (n - m - 1)", "m * sigma2 / (n - m)"),
    ("over-offset-not-over-t", LOSS, "r_t / t * delta0_sum", "r_t * delta0_sum"),
    ("breakdown-total-drops-constant", LOSS,
     "return self.forgetting_part + self.travel_part + self.constant_part",
     "return self.forgetting_part + self.travel_part"),
    ("travel-part-negated", LOSS, "route_travel_cost(inst, route) / t",
     "-route_travel_cost(inst, route) / t"),
    ("r-powers-start-at-r", LOSS, "powers[0] = 1.0", "powers[0] = r"),
    # instances: the triangle check, the closure, the generator
    ("triangle-tolerance-x10", INSTANCE, "least + 1e-12 * direct", "least + 1e-11 * direct"),
    ("triangle-tolerance-div10", INSTANCE, "least + 1e-12 * direct", "least + 1e-13 * direct"),
    ("triangle-tolerance-from-detour", INSTANCE, "least + 1e-12 * direct", "least + 1e-12 * least"),
    ("triangle-half-scan-start", INSTANCE, "j0 = lo + 1", "j0 = lo + 2"),
    ("triangle-on-faulty-costs", INSTANCE, "if not cost_faults:", "if True:"),
    ("closure-one-pass", INSTANCE, CLOSURE_END, "if True:"),
    ("closure-returns-after-pass-2", INSTANCE, CLOSURE_END, "if not a.size or not first:"),
    ("closure-check-skips-i-k", INSTANCE, "if (d[ra] > sums).any():", "if False:"),
    ("closure-check-skips-k-j", INSTANCE, "if (d[:, rb].T > sums).any():", "if False:"),
    ("closure-first-pivot-halved", INSTANCE, "np.minimum(d, via, out=d)",
     "np.minimum(d, via * (0.5 if first and k == 0 else 1.0), out=d)"),
    ("generate-skips-closure", INSTANCE, "costs = metric_closure(raw + raw.T)",
     "costs = raw + raw.T"),
    ("generate-unseeded", INSTANCE, "rng = np.random.default_rng(seed)",
     "rng = np.random.default_rng()"),
    ("validate-returns-false", INSTANCE,
     '        raise ValidationError("; ".join(violations))\n',
     '        raise ValidationError("; ".join(violations))\n    return False\n'),
    # Monte Carlo
    ("chunk-255", MC, "_CHUNK = 256", "_CHUNK = 255"),
    ("sigma-x1.001", MC, "sig = math.sqrt(truth.sigma2)", "sig = math.sqrt(truth.sigma2) * 1.001"),
    ("std-error-ddof-0", MC, "losses.std(ddof=1)", "losses.std(ddof=0)"),
    ("verify-no-loss-overflow-check", MC, VERIFY_END,
     "        mean = float(losses.mean())\n"
     "        std_error = float(losses.std(ddof=1) / math.sqrt(trials))\n"
     "    return McReport(mean, closed, std_error, trials)"),
    ("z-edge-1e-10", MC, "abs(diff) <= 1e-12 * max(", "abs(diff) <= 1e-10 * max("),
    ("z-edge-without-max", MC, "1e-12 * max(1.0, abs(self.closed_form))",
     "1e-12 * abs(self.closed_form)"),
    ("blas-no-set", MC, "blas.scipy_openblas_set_num_threads64_(1)", "pass"),
    ("blas-no-restore", MC, "blas.scipy_openblas_set_num_threads64_(threads)", "pass"),
    ("blas-no-lock", MC, "with _blas_lock:", "with contextlib.nullcontext():"),
    # the CLI
    ("sweep-seed-formula", CLI, "seed = cfg.seed + idx * cfg.instances + i",
     "seed = cfg.seed + idx + i"),
    ("exit-4-as-2", CLI, "return 4", "return 2"),
    # messages of raise sites the input-contract tables cover
    ("msg-classify-m-n", INSTANCE, "m and n must be >= 1", "m and n should be >= 1"),
    ("msg-regime-undefined", INSTANCE, "regime undefined for m", "regime not defined for m"),
    ("msg-route-permutation", INSTANCE, "route must be a permutation", "route must be an ordering"),
    ("msg-delta-shape", INSTANCE, 'f"delta must be {t}x{t}', 'f"delta has to be {t}x{t}'),
    ("msg-delta0-length", INSTANCE, "delta0 must have length", "delta0 needs length"),
    ("msg-costs-shape", INSTANCE, 'f"costs must be {t}x{t}', 'f"costs has to be {t}x{t}'),
    ("msg-not-finite", INSTANCE, "{name} must be finite: ", "{name} must be finite, "),
    ("msg-not-symmetric", INSTANCE, "{name} not symmetric:", "{name} asymmetric:"),
    ("msg-negative-entry", INSTANCE, 'f"{name} must be >= 0: ', 'f"{name} must be > 0: '),
    ("msg-diagonal-zero", INSTANCE, "diagonal must be zero", "diagonal must be 0"),
    ("msg-triangle", INSTANCE, 'f"triangle inequality: {_at(', 'f"triangle: {_at('),
    ("msg-sigma2-finite", INSTANCE, 'f"sigma2 must be finite, got {inst',
     'f"sigma2 not finite, got {inst'),
    ("msg-sigma2-negative", INSTANCE, 'f"sigma2 must be >= 0, got {inst',
     'f"sigma2 must be > 0, got {inst'),
    ("msg-closure-square", INSTANCE, "costs must be a square matrix", "costs must be square"),
    ("msg-generate-range", INSTANCE, "need 0 < range_lo <= range_hi < inf",
     "need 0 < range_lo < range_hi < inf"),
    ("msg-missing-field", INSTANCE, ': missing field \\"{name}\\"', ': no field \\"{name}\\"'),
    ("msg-wrong-type", INSTANCE, "has wrong type", "has the wrong type"),
    ("msg-not-rectangular", INSTANCE, "is not a rectangular array of numbers",
     "is not a rectangular array"),
    ("msg-costs-too-large", LOSS, "c too large: (T-1)*max c", "c too large: (T-1)*max(c)"),
    ("msg-route-length", LOSS, 'f"route length {t} != t_regions', 'f"route length {t} != T'),
    ("msg-noise-overflow", LOSS, "noise constant does not fit a float: {exc}",
     "noise constant overflows: {exc}"),
    ("msg-trials", MC, "trials must be >= 100", "trials must be at least 100"),
    ("msg-truth-no-regions", MC, "w_star needs at least one region", "w_star needs a region"),
    ("msg-simplex-axes", MC, "need m >= t to place", "need m >= t for"),
    ("msg-size-limit", SHP, "exceeds the exact-solver limit", "exceeds the exact limit"),
    ("msg-odd-matching", SHP, '"cannot perfectly match an odd number of vertices"',
     '"cannot match an odd number of vertices"'),
    ("msg-negative-seed", CLI, "--seed must be >= 0", "--seed must be nonnegative"),
]


def stale(mutants) -> list[str]:
    """What is wrong with the list: a repeated id, or an old text that does
    not occur exactly once in its file under the repository root."""
    problems, seen = [], set()
    for mid, file, old, _ in mutants:
        if mid in seen:
            problems.append(f"{mid}: repeated id")
        seen.add(mid)
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            problems.append(f"{mid}: old text occurs {count} times in {file}")
    return problems


def run(mutant) -> str:
    """Tier-1 on a copy of the tree with the mutant applied: who kills it."""
    _, file, old, new = mutant
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name, ignore=IGNORED)
            else:
                shutil.copy2(ROOT / name, root / name)
        path = root / file
        path.write_text(path.read_text().replace(old, new))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=root, env={**os.environ, "PYTHONPATH": "src"},
                capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "killed by a timeout"
    if proc.returncode == 0:
        return "SURVIVED"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return f"killed by {line.split()[1]}"
    return f"killed by pytest exit {proc.returncode}"


def main(ids: list[str]) -> int:
    known = {m[0]: m for m in MUTANTS}
    unknown = [mid for mid in ids if mid not in known]
    if unknown:
        print(f"unknown mutant ids: {' '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[mid] for mid in ids] if ids else MUTANTS
    problems = stale(chosen)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        verdict = run(mutant)
        survived += verdict == "SURVIVED"
        print(f"{mutant[0]}: {verdict}", flush=True)
    print(f"{len(chosen)} mutants, {len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
