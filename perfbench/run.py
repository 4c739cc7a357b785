"""cl-route benchmark: one closed-loop caller running in-process cl-route commands.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Each op is one ``clroute.cli.main(argv)`` call with stdout captured; the
next op starts when the previous one has returned and its output has been
checked. The package is imported from ``src/`` of the same checkout.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a traced run. End-to-end times are at reference
machine speed: a fixed pure-Python loop (``tick``) is timed before and
after every op and every set-up, each time after a short idle gap, and the
measured wall time is scaled by ``REFERENCE_TICK_S`` over the mean of the
two ticks. Raw wall times and the scale factors are kept in the record.
The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. The full
record (versions, calibration, latency detail, self-time table) goes to
``perfbench/out/BENCH_<workload>_s<seed>_t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import OpFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
TICK_ITERS = 80_000
# Idle time before every tick, so that it times the machine and not what an op left running.
IDLE_GAP_S = 0.002
# tick() in the fast phase of the 2-core tuning machine; only sets the unit.
REFERENCE_TICK_S = 6.0e-3
MAX_FAILURES_KEPT = 20
# Exceptions a check can raise on malformed output.
CHECK_ERRORS = (OpFailed, ValueError, KeyError, TypeError, IndexError, OSError)

# ROADMAP open item 1 re-anchor figures, keyed by the per-layer metric that
# reproduces them and the workload that exercises it.
ROADMAP_FIGURES = (
    ("sweep", "shp.held_karp_ms.T12", 45.0, "Held-Karp T=12: 0.045 s"),
    ("sweep", "shp.held_karp_ms.T14", 210.0, "Held-Karp T=14: 0.21 s"),
    ("plan_t24", "planner.alg1_ms", None, "alg1: T=20 3 ms, T=30 1.1 s; no T=24 figure"),
    ("ingest_t80", "instance.validate_ms", 90.0 * (80 / 50) ** 3,
     "validate T=50: 0.09 s, scaled by (80/50)^3 to T=80"),
)


class Caller:
    """Runs cl-route commands in-process and keeps the failure accounting."""

    def __init__(self, package) -> None:
        self.package = package
        self.attempted = 0
        self.failed = 0
        self.commands = 0
        self.failures: list[str] = []

    def call(self, argv) -> tuple[int | None, str, str, float]:
        """One cl-route invocation: exit code (None if it raised), stdout, stderr, seconds."""
        out, err = io.StringIO(), io.StringIO()
        self.commands += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.package.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # noqa: BLE001 - a raising op is a failed op, not a crash
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    def command(self, argv, expect_file: str | None = None) -> str:
        """Set-up or probe command that must succeed; returns stdout."""
        rc, out, err, _ = self.call(argv)
        if rc != 0:
            raise OpFailed(f"{' '.join(argv)}: exit {rc}: {err.strip()[-300:]}")
        if expect_file is not None and not os.path.isfile(expect_file):
            raise OpFailed(f"{' '.join(argv)}: wrote no {expect_file}")
        return out

    def record_failure(self, argv, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(f"{' '.join(argv)}: {message}")

    def op(self, workload: workloads.Workload, op: workloads.Op):
        """Run and check one op; returns (seconds, observations or None, exit code)."""
        rc, out, err, dt = self.call(op.argv)
        self.attempted += 1
        try:
            if rc is None:
                raise OpFailed("raised " + err.strip().splitlines()[-1])
            obs = workload.check(op, rc, out)
        except CHECK_ERRORS as exc:
            self.record_failure(op.argv, f"{type(exc).__name__}: {exc}")
            obs = None
        return dt, obs, rc


class GramRedraws(logging.Handler):
    """Counts the Monte Carlo module's singular-Gram retry warnings."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "singular Gram matrix" in record.getMessage():
            self.count += 1


def fresh_import():
    """Import clroute from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "clroute" or n.startswith("clroute.")]:
        del sys.modules[name]
    package = importlib.import_module("clroute")
    importlib.import_module("clroute.cli")
    where = Path(package.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"clroute was imported from {where}, not from {ROOT / 'src'}")
    return package


def tick() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(TICK_ITERS):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


class SpeedScale:
    """Scales a wall time just measured to reference speed, from the ticks around it.

    Other tenants of the tuning machine slowed it by up to 1.6x in phases
    lasting seconds to minutes. Across ten seeds, raw 25 s runs spread by
    0.15-0.35 (quartile distance over median), scaled ones by 0.02-0.09.
    Each tick follows an idle gap of ``IDLE_GAP_S`` rather than the op and
    its check directly. The factors used are kept in ``factors``.
    """

    def __init__(self) -> None:
        self.last = self._tick()
        self.factors: list[float] = []

    @staticmethod
    def _tick() -> float:
        time.sleep(IDLE_GAP_S)
        return tick()

    def __call__(self, seconds: float) -> float:
        now = self._tick()
        factor = REFERENCE_TICK_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return seconds * factor


def factor_summary(factors: list[float]) -> dict:
    """Median, range and quartile spread of the scale factors of a loop."""
    q1, med, q3 = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    return {"median": med, "spread": (q3 - q1) / med, "min": min(factors), "max": max(factors)}


def timed_setup(workload, seed: int, workdir: Path):
    """Import plus input generation, repeated; returns the last caller and the scaled times."""
    raw, scaled = [], []
    scale = SpeedScale()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        caller = Caller(fresh_import())
        workload.setup(caller.command, seed, workdir)
        raw.append(time.perf_counter() - t0)
        scaled.append(scale(raw[-1]))
    return caller, scaled, raw


def calibrate(reps: int = 15) -> float:
    """Median tick; timed before and after the workload so that drift shows in the record."""
    return statistics.median(tick() for _ in range(reps))


def closed_loop(caller: Caller, workload, seconds: float):
    """Ops back to back until the deadline, ending on a whole cycle of ops.

    Returns raw and reference-speed latencies, each op's observations and the scale factors.
    """
    raw, scaled, obs = [], [], []
    scale = SpeedScale()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        dt, ob, _ = caller.op(workload, workload.op(i))
        raw.append(dt)
        scaled.append(scale(dt))
        obs.append(ob)
        i += 1
        if i % workload.cycle == 0 and time.perf_counter() >= deadline:
            return raw, scaled, obs, scale.factors


def traced_loop(caller: Caller, workload, seconds: float, tracer: tracing.Tracer,
                redraws: GramRedraws):
    """Each cycle of ops runs twice, once traced and once not, alternating which goes first.

    Returns the reference-speed latencies of the traced and untraced runs and
    the exit codes of the traced ops; ``redraws`` counts in traced ops only.
    """
    traced, plain, codes = [], [], []
    scale = SpeedScale()
    mc_log = logging.getLogger("clroute.mc_verify")
    deadline = time.perf_counter() + seconds
    c = 0
    while True:
        ops = [workload.op(i) for i in range(c * workload.cycle, (c + 1) * workload.cycle)]
        for with_trace in ((False, True) if c % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(caller.package)
                mc_log.addHandler(redraws)
            try:
                for i, op in enumerate(ops, start=c * workload.cycle):
                    tracer.op = i
                    dt, _, rc = caller.op(workload, op)
                    if with_trace:
                        traced.append(scale(dt))
                        codes.append(rc)
                    else:
                        plain.append(scale(dt))
            finally:
                mc_log.removeHandler(redraws)
                tracer.uninstall()
        c += 1
        if time.perf_counter() >= deadline:
            return traced, plain, codes


def latency_summary(lat: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(lat)
    n = len(ordered)
    tail_rank = max(n - TAIL_BEYOND - 1, 0)
    return {
        "ops": n,
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": ordered[tail_rank] * 1e3,
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "samples_beyond_tail": n - tail_rank - 1,
        "op_mean_ms": sum(lat) / n * 1e3,
        "op_max_ms": ordered[-1] * 1e3,
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "clroute").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in thread_vars},
        "blas_threads_note": "unset means OpenBLAS starts one thread per core",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "clients": 1,
        "loop": "closed",
    }


def spec_metrics(kind: str, values: dict[str, float]) -> dict:
    """Every metric BENCHMARK.json lists under ``kind``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def run_untraced(caller: Caller, workload, args, workdir: Path, record: dict) -> dict:
    raw, lat, obs, factors = closed_loop(caller, workload, args.seconds)
    # before the quality probe, whose largest matching would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = latency_summary(lat)
    record["latency"] = summary
    record["latency_raw"] = latency_summary(raw)
    record["speed_factor"] = factor_summary(factors)
    sf = record["speed_factor"]
    print(f"speed factor: median {sf['median']:.4f}, spread {sf['spread']:.4f}, "
          f"range {sf['min']:.4f}-{sf['max']:.4f}", file=sys.stderr)
    loop_obs = [o for o in obs if o]
    for key in ("alg1_ratio", "travel_per_mst"):
        vals = [o[key] for o in loop_obs if key in o]
        if vals:
            record[f"loop_mean_{key}"] = sum(vals) / len(vals)
    record["loop_z_over_threshold"] = sum(1 for o in loop_obs if o.get("z_over_threshold"))

    before = caller.commands
    try:
        quality = workloads.quality_probe(caller.command, args.seed, workdir)
    except CHECK_ERRORS as exc:
        caller.record_failure(("quality probe",), f"{type(exc).__name__}: {exc}")
        quality = {"alg1_mean_ratio": 0.0, "alg1_travel_per_mst": 0.0}
    caller.attempted += caller.commands - before
    values = {k: summary[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
    values.update(quality, peak_rss_mb=peak_rss_mb)
    return values


def run_traced(caller: Caller, workload, args, record: dict) -> dict:
    tracer = tracing.Tracer()
    redraws = GramRedraws()
    traced, plain, codes = traced_loop(caller, workload, args.seconds, tracer, redraws)
    values, detail = tracing.layer_metrics(tracer.spans, len(traced))
    values["trace_overhead_frac"] = (sum(traced) - sum(plain)) / sum(plain)
    values["mc_verify.gram_redraws"] = float(redraws.count)
    values["mc_verify.z_over_threshold"] = float(sum(1 for rc in codes if rc == 5))
    detail["wrapped"] = tracer.wrapped
    detail["absent"] = [n for n in tracing.METRIC_SOURCES if n not in tracer.wrapped]
    detail["traced_latency"] = latency_summary(traced)
    detail["untraced_latency"] = latency_summary(plain)
    detail["roadmap_crosscheck"] = [
        {"metric": metric, "measured_ms": values[metric], "roadmap_ms": want, "note": note}
        for wl, metric, want, note in ROADMAP_FIGURES
        if wl == args.workload
    ]
    record["trace"] = detail
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clroute" / "cli.py").is_file():
        print(f"error: no src/clroute under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work_{args.workload}_{args.seed}_{os.getpid()}"
    record = run_record(args)
    try:
        caller, setup_times, setup_raw = timed_setup(workload, args.seed, workdir)
        record["setup_s_each"] = setup_times
        record["setup_s_each_raw"] = setup_raw
        record["setup_notes"] = workload.notes
        record["calibration_s_before"] = calibrate()
        caller.op(workload, workload.op(0))  # warm-up; checked and counted, not timed
        if args.trace:
            values = run_traced(caller, workload, args, record)
        else:
            values = run_untraced(caller, workload, args, workdir, record)
            values["setup_s"] = statistics.median(setup_times)
            values["ok_frac"] = (caller.attempted - caller.failed) / caller.attempted
        record["calibration_s_after"] = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = spec_metrics("per_layer" if args.trace else "end_to_end", values)
    record.update(
        attempted=caller.attempted, failed=caller.failed, failures=caller.failures, metrics=metrics
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in caller.failures:
        print(f"failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": caller.failed == 0,
                "attempted": caller.attempted,
                "failed": caller.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
