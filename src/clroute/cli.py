"""Command-line front end.

Four subcommands:

* ``gen`` — draw a random instance and write it to a JSON file.
* ``plan`` — run one planning strategy on an instance file and print the
  route with its loss breakdown.
* ``experiment`` — sweep m or T, generate instances per sweep point,
  compute loss ratios R = strategy total / exact total, and emit a CSV
  of mean/min/max R per (point, strategy).
* ``verify`` — Monte Carlo check of both closed-form forgetting losses;
  each slot's (m, n) must classify as that slot's regime, with
  |n − m| >= 4. Exits 5 when any z-score exceeds the threshold.

Exit codes: 0 success, 2 usage (bad parameters such as a negative
``--seed``, a repeated sweep value or strategy or ``--instances 0``,
undefined regime, an invalid instance, one whose loss does not fit a
float included, a simulated loss that does not fit one, and a ``--t``
too large to allocate), 3 I/O or file-format failure (undecodable bytes
included), 4 exact-solver size limit, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .instance import (
    FormatError,
    ParameterError,
    RegimeError,
    RegimeKind,
    ValidationError,
    Route,
    classify_regime,
    generate_instance,
    overwrite,
    read_instance,
    write_instance,
)
from .mc_verify import simplex_ground_truth, verify_closed_form
from .planner import Strategy, plan, plan_exact
from .shp import SizeLimitError, check_exact_size

CSV_HEADER = "sweep_var,value,strategy,mean_R,min_R,max_R,instances"


@dataclass(frozen=True)
class ExperimentConfig:
    """A ratio-experiment sweep: vary m or T, hold everything else fixed."""

    sweep_var: str
    values: tuple[int, ...]
    t: int
    m: int
    n: int
    sigma2: float
    instances: int
    seed: int
    strategies: tuple[Strategy, ...]
    include_constant: bool = True

    def __post_init__(self) -> None:
        if self.sweep_var not in ("m", "t"):
            raise ParameterError(f"sweep_var must be 'm' or 't', got {self.sweep_var!r}")
        if not self.values:
            raise ParameterError("sweep needs at least one value")
        if self.instances < 1:
            raise ParameterError(f"instances must be >= 1, got {self.instances}")
        if not self.strategies:
            raise ParameterError("need at least one strategy")
        # the CSV holds one row per (point, strategy)
        for kind, names in (
            ("sweep value", [str(v) for v in self.values]),
            ("strategy", [s.value for s in self.strategies]),
        ):
            repeats = [x for i, x in enumerate(names) if x in names[:i]]
            if repeats:
                raise ParameterError(f"repeated {kind} {repeats[0]}")


Row = tuple[str, int, str, float, float, float, int]


def run_experiment(cfg: ExperimentConfig) -> tuple[list[Row], list[str]]:
    """Compute ratio statistics for every sweep point and strategy.

    Sweep values whose (m, n) pair has no defined regime are skipped and
    reported in the returned warning list. Instance seeds are
    ``cfg.seed + point_index * cfg.instances + instance_index``, so every
    strategy at a sweep point sees the same instances (paired comparison)
    and reruns are byte-reproducible. The exact optimum is solved once per
    instance and shared across strategies; a point too large for it raises
    ``SizeLimitError`` before any instance is generated.
    """
    rows: list[Row] = []
    warnings: list[str] = []
    points = []
    for idx, value in enumerate(cfg.values):
        m = value if cfg.sweep_var == "m" else cfg.m
        t = value if cfg.sweep_var == "t" else cfg.t
        try:
            classify_regime(m, cfg.n)
        except RegimeError as exc:
            warnings.append(f"skipping {cfg.sweep_var}={value}: {exc}")
            continue
        points.append((idx, value, m, t))
    for *_, t in points:
        check_exact_size(t)
    for idx, value, m, t in points:
        ratios: dict[Strategy, list[float]] = {s: [] for s in cfg.strategies}
        for i in range(cfg.instances):
            seed = cfg.seed + idx * cfg.instances + i
            inst = generate_instance(t, seed, m=m, n=cfg.n, sigma2=cfg.sigma2)
            exact = plan_exact(inst)
            exact_total = exact.breakdown.effective_total(cfg.include_constant)
            for strategy in cfg.strategies:
                result = exact if strategy is Strategy.EXACT else plan(inst, strategy, seed=seed)
                ratios[strategy].append(
                    result.breakdown.effective_total(cfg.include_constant) / exact_total
                )
        for strategy in cfg.strategies:
            vals = np.array(ratios[strategy])
            rows.append(
                (
                    cfg.sweep_var,
                    value,
                    strategy.value,
                    float(vals.mean()),
                    float(vals.min()),
                    float(vals.max()),
                    cfg.instances,
                )
            )
    return rows, warnings


def rows_to_csv(rows: list[Row]) -> str:
    """Fixed-schema CSV; floats printed with 12 significant digits."""
    lines = [CSV_HEADER]
    for sweep_var, value, strategy, mean_r, min_r, max_r, count in rows:
        lines.append(
            f"{sweep_var},{value},{strategy},{mean_r:.12g},{min_r:.12g},{max_r:.12g},{count}"
        )
    return "\n".join(lines) + "\n"


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        overwrite(out, text)


def cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_instance(
        args.t,
        args.seed,
        range_lo=args.range_lo,
        range_hi=args.range_hi,
        m=args.m,
        n=args.n,
        sigma2=args.sigma2,
    )
    write_instance(inst, args.out)
    kind = classify_regime(inst.m_features, inst.n_samples)
    print(
        f"wrote {args.out}: T={inst.t_regions}, m={inst.m_features}, "
        f"n={inst.n_samples}, sigma2={inst.sigma2:g}, regime={kind.value}, valid"
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    inst = read_instance(args.instance)
    strategy = Strategy(args.strategy)
    result = plan(inst, strategy, seed=args.seed)
    b = result.breakdown
    parts = {
        "forgetting": b.forgetting_part,
        "travel": b.travel_part,
        "constant": b.constant_part,
        "total": b.total,
    }
    if args.format == "json":
        doc = {
            "route": list(result.route.one_based()),
            "strategy": strategy.value,
            **parts,
            "elapsed": result.elapsed,
        }
        print(json.dumps(doc, indent=2))
    else:
        print("route:", *result.route.one_based())
        print(f"strategy: {strategy.value}")
        for name, value in parts.items():
            print(f"{name}: {value:.6g}")
        print(f"elapsed: {result.elapsed:.6f}s")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        values = tuple(int(v) for v in args.values.split(","))
        strategies = tuple(Strategy(s) for s in args.strategies.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad sweep configuration: {exc}") from exc
    cfg = ExperimentConfig(
        sweep_var=args.sweep,
        values=values,
        t=args.t,
        m=args.m,
        n=args.n,
        sigma2=args.sigma2,
        instances=args.instances,
        seed=args.seed,
        strategies=strategies,
        include_constant=not args.exclude_constant,
    )
    rows, warnings = run_experiment(cfg)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not rows:
        raise ParameterError("no valid sweep points remain")
    _write_text(rows_to_csv(rows), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not math.isfinite(args.threshold):
        raise ParameterError(f"threshold must be finite, got {args.threshold}")
    if args.threshold < 0.0:  # no |z| could meet it
        raise ParameterError(f"threshold must be >= 0, got {args.threshold}")
    if args.t < 1:
        raise ParameterError(f"t must be >= 1, got {args.t}")
    slots = (("under", args.under_m, args.under_n), ("over", args.over_m, args.over_n))
    for name, m, n in slots:
        kind = classify_regime(m, n)
        if kind is not RegimeKind(name):
            raise ParameterError(
                f"--{name}-m={m}, --{name}-n={n} is {kind.value}parameterized, "
                f"not {name}parameterized"
            )
        if abs(n - m) <= 3:
            raise ParameterError(
                f"--{name}-m={m}, --{name}-n={n}: the per-trial loss has no finite "
                "variance unless |n − m| >= 4, so its z-score means nothing"
            )

    rng = np.random.default_rng(args.seed)
    route = Route(tuple(range(args.t)))
    reports = {}
    for name, m, n in slots:
        truth = simplex_ground_truth(
            args.t, m, scales=rng.uniform(1.0, 3.0, args.t), sigma2=args.sigma2
        )
        reports[name] = verify_closed_form(truth, route, n, args.trials, rng)

    ok = all(report.z <= args.threshold for report in reports.values())
    doc = {
        name: {**reports[name].to_json(), "m": m, "n": n, "route": list(route.one_based())}
        for name, m, n in slots
    }
    doc.update(threshold=args.threshold, ok=ok, seed=args.seed, t=args.t, sigma2=args.sigma2)
    _write_text(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if ok else 5


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cl-route",
        description="Route planning for continual learning across regions: "
        "approximation algorithm, exact oracle, baselines, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--t", type=int, required=True, help="number of regions (>= 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=80, help="feature dimension")
    p.add_argument("--n", type=int, default=100, help="samples per region")
    p.add_argument("--sigma2", type=float, default=1.0, help="label noise variance")
    p.add_argument("--range-lo", type=float, default=1.0)
    p.add_argument("--range-hi", type=float, default=10.0)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plan", help="plan a route on an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument(
        "--strategy", choices=[s.value for s in Strategy], default=Strategy.ALGORITHM1.value
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized strategies")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("experiment", help="ratio sweep over m or T, CSV output")
    p.add_argument("--sweep", choices=["m", "t"], required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--t", type=int, default=8, help="regions (fixed when sweeping m)")
    p.add_argument("--m", type=int, default=80, help="features (fixed when sweeping t)")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--instances", type=int, default=30, help="instances per sweep point")
    p.add_argument("--seed", type=int, default=1, help="base instance seed")
    p.add_argument(
        "--strategies", default="alg1", help="comma-separated: alg1,exact,forgetting,random"
    )
    p.add_argument(
        "--exclude-constant",
        action="store_true",
        help="compute R without the route-independent constant",
    )
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="Monte Carlo check of the closed-form losses")
    p.add_argument("--t", type=int, default=3, help="regions in the simulated sequence")
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--threshold", type=float, default=3.0, help="max acceptable |z|")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--under-m", type=int, default=4)
    p.add_argument("--under-n", type=int, default=10)
    p.add_argument("--over-m", type=int, default=12)
    p.add_argument("--over-n", type=int, default=4)
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # every subcommand has --seed
            raise ParameterError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ParameterError, RegimeError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        reason = f": {exc}" if str(exc) else ""  # a bare MemoryError() has no text
        print(f"error: out of memory{reason}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # name the file first, as every FormatError does
        message = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
