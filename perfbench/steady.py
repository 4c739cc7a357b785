"""Steadiness self-check: run each workload several times in two sets and compare.

Run from the repository root:

    python3 perfbench/steady.py --runs 10

Runs every BENCHMARK.json workload ``--runs`` times in each of two sets, at
the BENCHMARK.json run length; every run has its own seed (set s, run i:
seed 1000*s + i). For each workload and end-to-end metric the table gives
each set's spread, the distance between the first and third quartile
(``statistics.quantiles(n=4)``) over the median, and the change of set 2's
median against set 1's in the metric's worse direction. A metric agrees
when both spreads and the change are within its bound. Each workload also
gets a ``speed_factor`` line, not gated: the spread over a set's runs of
each run's median factor from raw to reference-speed time, so that drift of
the machine shows. Exits 0 when every metric of every workload agrees and
every run was correct. All runs are written to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"BENCH_{workload}_s{seed}_t0.json").read_text())
    result["speed_factor"] = record["speed_factor"]["median"]
    return result


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(before: float, after: float, better: str) -> float:
    """Relative change of the median in the metric's worse direction."""
    change = (after - before) / before
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    args = parser.parse_args(argv)

    runs: dict[str, list[list[dict]]] = {w: [[], []] for w in names}
    for s in range(2):
        for i in range(1, args.runs + 1):
            for w in names:
                res = one_run(w, 1000 * (s + 1) + i, spec["run_seconds"])
                runs[w][s].append(res)
                status = "ok" if res.get("correct") else f"NOT CORRECT {res.get('error', '')}"
                print(f"set {s + 1} run {i} {w}: {status}", file=sys.stderr, flush=True)

    all_ok = True
    report = {}
    print(f"{'workload':<11} {'metric':<20} {'median1':>11} {'spread1':>8} "
          f"{'spread2':>8} {'worse_by':>8} {'bound':>6}  verdict")
    for w in names:
        sets = runs[w]
        correct = all(r.get("correct") for rs in sets for r in rs)
        all_ok &= correct
        report[w] = {"correct": correct, "runs": sets, "metrics": {}}
        if not correct:
            print(f"{w:<11} some runs were not correct")
            continue
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in rs] for rs in sets]
            spreads = [spread(v) for v in vals]
            medians = [statistics.median(v) for v in vals]
            shift = worse_by(medians[0], medians[1], m["better"])
            ok = all(sp <= m["bound"] for sp in spreads) and shift <= m["bound"]
            all_ok &= ok
            report[w]["metrics"][m["name"]] = {
                "values": vals, "medians": medians, "spreads": spreads, "worse_by": shift,
                "bound": m["bound"], "agrees": ok,
            }
            print(f"{w:<11} {m['name']:<20} {medians[0]:11.5g} {spreads[0]:8.4f} "
                  f"{spreads[1]:8.4f} {shift:8.4f} {m['bound']:6.3f}  "
                  f"{'agrees' if ok else 'DISAGREES'}")
        factors = [[r["speed_factor"] for r in rs] for rs in sets]
        report[w]["speed_factor"] = factors
        f_meds = [statistics.median(f) for f in factors]
        print(f"{w:<11} {'speed_factor':<20} {f_meds[0]:11.5g} {spread(factors[0]):8.4f} "
              f"{spread(factors[1]):8.4f} {f_meds[1] / f_meds[0] - 1:8.4f} {'-':>6}  not gated")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if all_ok else "NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
