"""Shared ensembles and reporting for the test suite.

The heavyweight ensembles are built by plain functions so the determinism
test can run a builder twice and compare artifacts byte-for-byte; the
session-scoped fixtures cache one build for every other consumer. The
acceptance tests append one summary line each to ``ACCEPTANCE_LINES``,
which ``pytest_terminal_summary`` prints at the end of the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from clroute import (
    ProblemInstance,
    Strategy,
    best_final_region,
    generate_instance,
    held_karp_min_path,
    plan_algorithm1,
    plan_exact,
    route_travel_cost,
)
from clroute.cli import ExperimentConfig, Row, rows_to_csv, run_experiment
from clroute.planner import PlanResult
from clroute.shp import fixed_end_path
from helpers import travel_objective

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@dataclass(frozen=True)
class PipelineRecord:
    """One instance solved by every oracle the acceptance criteria compare."""

    seed: int
    inst: ProblemInstance
    approx: PlanResult
    exact: PlanResult
    opt_travel: float
    mst_weight: float
    matching_weight: float
    route_travel: float

    @property
    def ratio(self) -> float:
        return self.approx.breakdown.total / self.exact.breakdown.total


def ensemble_t(seed: int) -> int:
    """Deterministic region count in {4..10}, cycling with the seed."""
    return 4 + (seed - 1) % 7


def build_pipeline_ensemble(m: int) -> tuple[list[PipelineRecord], float]:
    """Solve 500 generated instances (seeds 1..500) at feature count m.

    Each record carries the approximation route, the exact optimum, the
    travel-only optimum, and the approximation pipeline's intermediate
    weights (spanning tree, odd-set matching, final path travel). Returns
    the records and the wall-clock seconds spent.
    """
    t0 = time.perf_counter()
    records = []
    for seed in range(1, 501):
        inst = generate_instance(ensemble_t(seed), seed, m=m, n=100)
        approx = plan_algorithm1(inst)
        exact = plan_exact(inst)
        _, opt_travel = held_karp_min_path(inst, travel_objective(inst.t_regions))
        _, mst_weight, matching_weight = fixed_end_path(inst.costs, best_final_region(inst))
        records.append(
            PipelineRecord(
                seed,
                inst,
                approx,
                exact,
                opt_travel,
                mst_weight,
                matching_weight,
                route_travel_cost(inst, approx.route),
            )
        )
    return records, time.perf_counter() - t0


def pipeline_csv(records: list[PipelineRecord]) -> str:
    """Canonical CSV of an ensemble's per-instance results."""
    lines = ["seed,t,approx_total,exact_total,opt_travel"]
    for rec in records:
        lines.append(
            f"{rec.seed},{len(rec.approx.route)},{rec.approx.breakdown.total:.12g},"
            f"{rec.exact.breakdown.total:.12g},{rec.opt_travel:.12g}"
        )
    return "\n".join(lines) + "\n"


def build_two_region_ensemble() -> tuple[list[tuple[float, float]], float]:
    """1000 two-region instances, alternating regimes; returns
    (approximation total, exact total) pairs and elapsed seconds."""
    t0 = time.perf_counter()
    pairs = []
    for seed in range(1, 1001):
        m = 80 if seed % 2 else 120
        inst = generate_instance(2, seed, m=m, n=100)
        approx = plan_algorithm1(inst)
        exact = plan_exact(inst)
        pairs.append((approx.breakdown.total, exact.breakdown.total))
    return pairs, time.perf_counter() - t0


def two_region_csv(pairs: list[tuple[float, float]]) -> str:
    lines = ["index,approx_total,exact_total"]
    for i, (a, b) in enumerate(pairs, start=1):
        lines.append(f"{i},{a:.12g},{b:.12g}")
    return "\n".join(lines) + "\n"


FEATURE_SWEEP_CFG = ExperimentConfig(
    sweep_var="m",
    values=(20, 40, 60, 80, 120, 140, 160, 180),
    t=8,
    m=80,
    n=100,
    sigma2=1.0,
    instances=30,
    seed=1,
    strategies=(Strategy.ALGORITHM1,),
)


def regions_sweep_cfg(m: int) -> ExperimentConfig:
    return ExperimentConfig(
        sweep_var="t",
        values=(4, 5, 6, 7, 8, 9),
        t=8,
        m=m,
        n=100,
        sigma2=1.0,
        instances=30,
        seed=1,
        strategies=(Strategy.ALGORITHM1, Strategy.FORGETTING),
    )


@pytest.fixture(scope="session")
def under_ensemble() -> tuple[list[PipelineRecord], float]:
    return build_pipeline_ensemble(80)


@pytest.fixture(scope="session")
def over_ensemble() -> tuple[list[PipelineRecord], float]:
    return build_pipeline_ensemble(120)


@pytest.fixture(scope="session")
def two_region_ensemble() -> tuple[list[tuple[float, float]], float]:
    return build_two_region_ensemble()


@pytest.fixture(scope="session")
def feature_sweep_rows() -> list[Row]:
    rows, warnings = run_experiment(FEATURE_SWEEP_CFG)
    assert not warnings
    return rows


@pytest.fixture(scope="session")
def regions_sweep_rows() -> dict[int, list[Row]]:
    out = {}
    for m in (80, 120):
        rows, warnings = run_experiment(regions_sweep_cfg(m))
        assert not warnings
        out[m] = rows
    return out


def experiment_csvs() -> dict[str, str]:
    """Render every acceptance experiment to CSV text, fresh each call."""
    out = {"feature_sweep": rows_to_csv(run_experiment(FEATURE_SWEEP_CFG)[0])}
    for m in (80, 120):
        out[f"regions_sweep_m{m}"] = rows_to_csv(run_experiment(regions_sweep_cfg(m))[0])
    return out
