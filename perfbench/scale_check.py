"""Check that scaling op times to reference speed keeps the size of a program change.

Run from the repository root:

    python3 perfbench/scale_check.py

In one process, every op of a workload runs twice, once on the program as
it is (A) and once on a deliberately slowed program (B), alternating which
goes first, timed and scaled as ``run.py`` does it: seed 1, 40 seconds per
workload and slowdown. Two slowdowns are tried:

* ``double`` runs the workload's hot function twice per call;
* ``blas`` adds eight 500x500 matrix products, which OpenBLAS spreads over
  its worker threads, after every cl-route call, so that B ops leave BLAS
  threads and freed memory behind just before the next tick.

If what an op leaves behind slowed the tick that follows it, the tick after
a B op would read slower than the tick after the A op next to it, and the
scaled B/A ratio would fall below the raw one. Each line gives the raw and
the scaled B/A ratio of total op time and the median, over ops, of the tick
after B over the tick after A.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time

import numpy as np

import run
import tracing
import workloads

# The function whose self time dominates each workload.
HOT = {
    "sweep": ("shp", "held_karp_min_path"),
    "plan_t24": ("shp", "min_weight_perfect_matching"),
    "ingest_t80": ("instance", "validate_instance"),
    "verify": ("mc_verify", "_over_losses"),
}
SEED = 1
SECONDS = 40.0


def rebind(package, old, new) -> None:
    for mod in [getattr(package, m) for m in tracing.MODULES]:
        for attr, obj in list(vars(mod).items()):
            if obj is old:
                setattr(mod, attr, new)


def slowdowns(package, workload: str) -> dict:
    """Each slowdown as (function, slowed replacement)."""
    mod, name = HOT[workload]
    hot = getattr(getattr(package, mod), name)

    def double(*args, **kwargs):
        hot(*args, **kwargs)
        return hot(*args, **kwargs)

    main = package.cli.main
    big = np.random.default_rng(0).random((500, 500))

    def blas_main(argv):
        rc = main(argv)
        for _ in range(8):
            big @ big
        return rc

    return {"double": (hot, double), "blas": (main, blas_main)}


def ab(caller: run.Caller, workload, seconds: float, old, new) -> dict:
    raw, scaled, after = ({"A": [], "B": []} for _ in range(3))
    scale = run.SpeedScale()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = workload.op(i)
        for arm in ("A", "B") if i % 2 == 0 else ("B", "A"):
            if arm == "B":
                rebind(caller.package, old, new)
            try:
                dt, _, _ = caller.op(workload, op)
            finally:
                rebind(caller.package, new, old)
            raw[arm].append(dt)
            scaled[arm].append(scale(dt))
            after[arm].append(scale.last)
        i += 1
    return {
        "raw_ratio": sum(raw["B"]) / sum(raw["A"]),
        "scaled_ratio": sum(scaled["B"]) / sum(scaled["A"]),
        "tick_after": statistics.median(b / a for a, b in zip(after["A"], after["B"])),
    }


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))

    print(f"{'workload':<11} {'slowdown':<8} {'raw B/A':>8} {'scaled B/A':>10} "
          f"{'tick after B/A':>14}")
    ok = True
    for name, workload in workloads.WORKLOADS.items():
        workdir = run.OUT / f"scale_check_{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            caller = run.Caller(run.fresh_import())
            workload.setup(caller.command, SEED, workdir)
            for kind, (old, new) in slowdowns(caller.package, name).items():
                r = ab(caller, workload, SECONDS, old, new)
                print(f"{name:<11} {kind:<8} {r['raw_ratio']:8.4f} {r['scaled_ratio']:10.4f} "
                      f"{r['tick_after']:14.4f}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for line in caller.failures:
            print(f"failed: {line}", file=sys.stderr)
        ok &= caller.failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
