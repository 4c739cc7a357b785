"""Input-boundary branches: a bad file or flag exits 2 or 3 (4 past the
exact solver's size limit) with one error line, and a bad library
argument raises exactly its own error class with its whole message before
any work is done."""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from clroute import (
    HELD_KARP_MAX_T,
    FormatError,
    InvariantViolation,
    ParameterError,
    ProblemInstance,
    RegimeError,
    Route,
    SizeLimitError,
    Strategy,
    TaskGroundTruth,
    ValidationError,
    classify_regime,
    generate_instance,
    held_karp_min_path,
    loss_upper,
    metric_closure,
    plan,
    plan_exact,
    read_instance,
    simplex_ground_truth,
    verify_closed_form,
)
from clroute.cli import ExperimentConfig, run_experiment
from clroute.shp import eulerian_circuit, min_weight_perfect_matching, shortcut_to_hamiltonian
from helpers import (
    REGIONS,
    SWEEP,
    VERIFY,
    assert_cli_rejects,
    edit,
    file_row,
    manual_instance,
    row,
    worked_under,
    write_file,
)

NAN, INF = float("nan"), float("inf")
SIZE_LIMIT = (
    f"T={HELD_KARP_MAX_T + 1} exceeds the exact-solver limit ({HELD_KARP_MAX_T}); "
    "use the approximation algorithm instead"
)
# every cost below 1e-12, so only a tolerance relative to c_{1,2} sees its triangle break
TINY_T3 = (np.array([[0, 1, 1e-3], [1, 0, 1e-3], [1e-3, 1e-3, 0]]) * 1e-13).tolist()
TINY_TRIANGLE = "triangle inequality: c_{1,2}=1e-13 > c_{1,3}+c_{3,2}=2e-16"


CLI_ROWS = [  # test_cli_rejects_bad_input, below
    # the file's contents
    file_row("costs-shape", 3, "costs must be 4x4, got (2, 2)", ("costs", [[0.0, 1.0]] * 2)),
    file_row(
        "costs-tiny-triangle", 2, TINY_TRIANGLE,
        ("t", 3), ("delta", TINY_T3), ("delta0", [1, 1, 1]), ("costs", TINY_T3),
    ),
    file_row(
        "t-one", 2, "t must be >= 2, got 1",
        ("t", 1), ("delta", [[0.0]]), ("delta0", [1.0]), ("costs", [[0.0]]),
    ),
    file_row(
        "top-level-array", 3, "top-level value must be an object",
        fault=lambda path: path.write_text(f"[{path.read_text()}]"),
    ),
    file_row(
        "utf16-bom", 3, "not UTF-8 text",
        fault=lambda path: path.write_bytes(b"\xff\xfe" + path.read_text().encode("utf-16-le")),
    ),
    file_row(
        "latin1-byte", 3, "not UTF-8 text",
        fault=lambda path: path.write_bytes(b'{"r\xe9gion": 1, ' + path.read_text()[1:].encode()),
    ),
    file_row("plan-missing-file", 3, "No such file or directory", fault=Path.unlink),
    # flags and paths
    row("gen-t-one", "gen --t 1 --out x.json", 2, "t must be >= 2, got 1"),
    row("plan-exact-size-limit", "plan <oversized-file> --strategy exact", 4, SIZE_LIMIT),
    row(
        "experiment-size-limit", f"experiment --sweep t --values 3,{HELD_KARP_MAX_T + 1} "
        "--instances 1", 4, SIZE_LIMIT,
    ),
    row(
        "experiment-no-instances", "experiment --sweep t --values 5 --instances 0", 2,
        "instances must be >= 1, got 0",
    ),
    # the CSV holds one row per (point, strategy); a repeat would print two
    row("experiment-repeated-values", f"{SWEEP} --values 5,5", 2, "repeated sweep value 5"),
    row(
        "experiment-repeated-strategies", f"{SWEEP} --values 5 --strategies alg1,alg1,exact", 2,
        "repeated strategy alg1",
    ),
    row(
        "experiment-bad-strategy", "experiment --sweep m --values 80 --strategies alg1,bogus", 2,
        "bad sweep configuration: 'bogus' is not a valid Strategy",
    ),
    row(
        "experiment-bad-values", "experiment --sweep t --values 4,x", 2,
        "bad sweep configuration: invalid literal for int() with base 10: 'x'",
    ),
    row(
        "experiment-no-points-remain", "experiment --sweep m --values 99,100,101 --instances 1", 2,
        "no valid sweep points remain",
    ),
    row("verify-tiny-trials", "verify --trials 50", 2, "trials must be >= 100, got 50"),
    row(
        "verify-under-slot", f"{VERIFY} --under-m 12 --under-n 4", 2,
        "--under-m=12, --under-n=4 is overparameterized",
    ),
    row(
        "verify-over-slot", f"{VERIFY} --over-m 4 --over-n 10", 2,
        "--over-m=4, --over-n=10 is underparameterized",
    ),
    # at |n - m| in {2, 3} the per-trial loss has a finite mean but no finite variance
    *(
        row(
            f"verify-{slot}-{m}-{n}", f"{VERIFY} --{slot}-m {m} --{slot}-n {n}", 2,
            f"--{slot}-m={m}, --{slot}-n={n}: the per-trial loss has no finite variance "
            "unless |n − m| >= 4",
        )
        for slot, m, n in (("under", 4, 6), ("under", 4, 7), ("over", 6, 4), ("over", 7, 4))
    ),
]


@pytest.mark.parametrize("argv,fault,code,message", CLI_ROWS)
def test_cli_rejects_bad_input(tmp_path, monkeypatch, capsys, argv, fault, code, message):
    assert_cli_rejects(tmp_path, monkeypatch, capsys, argv, fault, code, message)


def _config(**changes) -> ExperimentConfig:
    fields = dict(
        sweep_var="t", values=(5,), t=5, m=80, n=100, sigma2=1.0, instances=1, seed=1,
        strategies=(Strategy.ALGORITHM1,),
    )
    return ExperimentConfig(**{**fields, **changes})


def unit_t3(costs, m=80):
    """A T=3 instance with every dissimilarity 1, built from the row's costs and m."""
    return lambda: manual_instance([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [1, 1, 1], costs, m, 100)


def read_row(error, message, fault):
    """read_instance on the table's T=4 file, in the test's own directory, after the fault."""

    def call():
        write_file(Path("inst.json"), REGIONS["<file>"], fault)
        read_instance("inst.json")

    return call, error, f"inst.json: {message}"


def before_any_instance(call):
    """call() with clroute.cli unable to generate an instance: any draw raises AssertionError."""

    def run():
        drawn = AssertionError("an instance was generated")
        with mock.patch("clroute.cli.generate_instance", side_effect=drawn):
            call()

    return run


def verify_row(truth, n, trials=500):
    """verify_closed_form on a fresh truth(), visiting region 0 and then region 1."""
    return lambda: verify_closed_form(truth(), Route((0, 1)), n, trials, np.random.default_rng(1))


UNDEFINED = "regime undefined for m ∈ {{n−1,n,n+1}} (m={}, n={})"
METRIC_T3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

LIBRARY_ROWS = {  # id: (call, exception, message)
    **{
        f"classify-m-{m}": (
            lambda m=m: classify_regime(m, 100), RegimeError, UNDEFINED.format(m, 100))
        for m in (99, 100, 101)
    },
    "classify-m-0": (
        lambda: classify_regime(0, 10), RegimeError, "m and n must be >= 1, got m=0, n=10"),
    **{
        f"route-{name}": (
            lambda order=order: Route(order), ParameterError,
            f"route must be a permutation of 0..2, got {order}")
        for name, order in (("repeat", (0, 0, 1)), ("out-of-range", (1, 2, 3)))
    },
    "instance-triangle": (
        unit_t3([[0, 1, 5], [1, 0, 1], [5, 1, 0]]), ValidationError,
        "triangle inequality: c_{1,3}=5 > c_{1,2}+c_{2,3}=2"),
    # the checks, the loss fitting a float included, run at construction,
    # so no planner ever sees such an instance
    "build-triangle": (
        unit_t3([[0, 1, 50], [1, 0, 1], [50, 1, 0]]), ValidationError,
        "triangle inequality: c_{1,3}=50 > c_{1,2}+c_{2,3}=2"),
    "build-tiny-triangle": (unit_t3(TINY_T3), ValidationError, TINY_TRIANGLE),
    "build-asymmetric": (
        unit_t3([[0, 1, 2], [3, 0, 1], [2, 1, 0]]), ValidationError,
        "c not symmetric: c_{1,2}=1 != c_{2,1}=3"),
    "build-nonzero-diagonal": (
        unit_t3([[0, 1, 2], [1, 0.5, 1], [2, 1, 0]]), ValidationError,
        "c diagonal must be zero: c_{2,2}=0.5"),
    "build-m-equals-n": (unit_t3(METRIC_T3, 100), ValidationError, UNDEFINED.format(100, 100)),
    "build-m-overflow": (
        unit_t3(METRIC_T3, 10**400), ValidationError,
        "noise constant does not fit a float: int too large to convert to float"),
    "build-costs-overflow": (
        unit_t3([[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]), ValidationError,
        "c too large: (T-1)*max c = 2*1e+308 does not fit a float"),
    "instance-t2-m-equals-n": (
        lambda: manual_instance([[0, 1], [1, 0]], [1, 1], [[0, 1], [1, 0]], 100, 100),
        ValidationError, UNDEFINED.format(100, 100)),
    "instance-asymmetric-and-negative": (
        lambda: manual_instance([[0, 1], [2, 0]], [1, -1], np.zeros((2, 2)), 80, 100, -0.5),
        ValidationError,
        "delta not symmetric: delta_{1,2}=1 != delta_{2,1}=2; "
        "delta0 must be >= 0: delta0_{2}=-1; sigma2 must be >= 0, got -0.5"),
    # NaN and -inf would also read as asymmetry and as a broken triangle
    # inequality; only the finiteness violation is reported
    "instance-non-finite": (
        lambda: manual_instance(
            [[0, NAN, 1], [2, 0, 1], [1, 1, 0]], [1, INF, 1],
            [[0, 1, -INF], [1, 0, 1], [-INF, 1, 0]], 80, 100, NAN),
        ValidationError,
        "delta must be finite: delta_{1,2}=nan; delta0 must be finite: delta0_{2}=inf; "
        "c must be finite: c_{1,3}=-inf; sigma2 must be finite, got nan"),
    "instance-delta-shape": (
        lambda: ProblemInstance(3, np.zeros((2, 2)), np.zeros(3), np.zeros((3, 3)), 4, 10, 1.0),
        ParameterError, "delta must be 3x3, got (2, 2)"),
    "instance-delta0-length": (
        lambda: ProblemInstance(2, np.zeros((2, 2)), np.zeros(3), np.zeros((2, 2)), 4, 10, 1.0),
        ParameterError, "delta0 must have length 2, got (3,)"),
    "instance-costs-shape": (
        lambda: ProblemInstance(2, np.zeros((2, 2)), np.zeros(2), np.zeros((3, 2)), 4, 10, 1.0),
        ParameterError, "costs must be 2x2, got (3, 2)"),
    "closure-not-square": (
        lambda: metric_closure(np.zeros((2, 3))), ParameterError,
        "costs must be a square matrix, got shape (2, 3)"),
    # a NaN entry never compares equal, so no pass would end the closure
    "closure-nan": (
        lambda: metric_closure([[0, 1, NAN], [1, 0, 1], [NAN, 1, 0]]), ParameterError,
        "costs must not be NaN: c_{1,3}=nan"),
    # a negative entry would drive every distance to -inf
    "closure-negative": (
        lambda: metric_closure([[0, 1, 2], [1, 0, -1], [2, -1, 0]]), ParameterError,
        "costs must be >= 0: c_{2,3}=-1"),
    "generate-t-one": (
        lambda: generate_instance(1, seed=0), ParameterError, "t must be >= 2, got 1"),
    **{
        f"generate-range-{name}": (
            lambda lo=lo, hi=hi: generate_instance(4, seed=0, range_lo=lo, range_hi=hi),
            ParameterError, f"need 0 < range_lo <= range_hi < inf, got [{lo}, {hi}]")
        for name, lo, hi in (("reversed", 5.0, 2.0), ("lo-zero", 0.0, 2.0), ("hi-inf", 1.0, INF))
    },
    "read-missing-field": read_row(
        FormatError, 'missing field "delta0"',
        lambda path: path.write_text(path.read_text().replace('"delta0"', '"delta_0"'))),
    "read-invalid-json": read_row(
        FormatError, "invalid JSON at line 2: Expecting value",
        lambda path: path.write_text('{"t": 2,\n  "m": }')),
    "read-negative-delta": read_row(
        ValidationError, "delta must be >= 0: delta_{1,2}=-1",
        edit(("delta", 0, 1, -1.0), ("delta", 1, 0, -1.0))),
    "read-wrong-type": read_row(FormatError, 'field "t" has wrong type', edit(("t", "three"))),
    "loss_upper-route-length": (
        lambda: loss_upper(worked_under(), Route((1, 0))), ParameterError,
        "route length 2 != t_regions 3"),
    "plan-not-a-strategy": (
        lambda: plan(worked_under(), "greedy"), ParameterError,
        "'greedy' is not a valid Strategy"),
    "plan-exact-size-limit": (
        lambda: plan_exact(generate_instance(HELD_KARP_MAX_T + 1, seed=2)),
        SizeLimitError, SIZE_LIMIT),
    "held-karp-size-limit": (
        lambda: held_karp_min_path(generate_instance(HELD_KARP_MAX_T + 1, seed=1)),
        SizeLimitError, SIZE_LIMIT),
    # the first point is small; the sweep fails before it draws that point's instance
    **{
        f"experiment-size-limit-sweep-{var}": (
            before_any_instance(lambda config=config: run_experiment(config)),
            SizeLimitError, SIZE_LIMIT)
        for var, config in (
            ("t", _config(values=(3, HELD_KARP_MAX_T + 1))),
            ("m", _config(sweep_var="m", values=(60, 80), t=HELD_KARP_MAX_T + 1)))
    },
    "matching-odd-count": (
        lambda: min_weight_perfect_matching(np.zeros((4, 4)), (0, 1, 2)), InvariantViolation,
        "cannot perfectly match an odd number of vertices"),
    "euler-odd-degree": (
        lambda: eulerian_circuit(((0, 1), (1, 2), (0, 2), (0, 1)), 2), InvariantViolation,
        "vertex 0 has odd degree 3"),
    "euler-disconnected": (
        lambda: eulerian_circuit(((4, 0), (4, 0), (1, 2), (2, 3), (1, 3)), 4), InvariantViolation,
        "multigraph is not connected; no Eulerian circuit"),
    "euler-start-without-edges": (
        lambda: eulerian_circuit(((0, 1), (0, 1)), 2), InvariantViolation,
        "start vertex 2 has no incident edges"),
    "shortcut-open-walk": (
        lambda: shortcut_to_hamiltonian((3, 0, 1, 2), 2), InvariantViolation,
        "not a closed circuit"),
    "shortcut-broken-anchor": (
        lambda: shortcut_to_hamiltonian((3, 1, 0, 2, 3), 0), InvariantViolation,
        "circuit does not keep the dummy next to the final region"),
    "shortcut-interior-dummy": (
        lambda: shortcut_to_hamiltonian((3, 0, 3, 1, 3), 0), InvariantViolation,
        "dummy vertex appears inside the circuit"),
    "truth-w-star-1d": (
        lambda: TaskGroundTruth(np.zeros(4), np.zeros(4), 1.0), ParameterError,
        "w_star must be 2-D (regions x features), got shape (4,)"),
    "truth-w0-length": (
        lambda: TaskGroundTruth(np.zeros((2, 4)), np.zeros(3), 1.0), ParameterError,
        "w0 must have length 4, got shape (3,)"),
    **{
        f"truth-sigma2-{name}": (
            lambda sigma2=sigma2: TaskGroundTruth(np.zeros((2, 4)), np.zeros(4), sigma2),
            ParameterError, f"sigma2 must be finite and >= 0, got {sigma2}")
        for name, sigma2 in (("negative", -1.0), ("nan", NAN), ("inf", INF))
    },
    "truth-no-regions": (
        lambda: TaskGroundTruth(np.zeros((0, 4)), np.zeros(4), 1.0), ParameterError,
        "w_star needs at least one region, got shape (0, 4)"),
    "truth-w-star-nan": (
        lambda: TaskGroundTruth([[NAN, 0.0], [0.0, 1.0]], np.zeros(2), 1.0), ParameterError,
        "w_star must be finite, got nan"),
    "truth-w0-inf": (
        lambda: TaskGroundTruth(np.eye(2, 4), [INF, 0.0, 0.0, 0.0], 1.0), ParameterError,
        "w0 must be finite, got inf"),
    "simplex-no-regions": (
        lambda: simplex_ground_truth(0, 4), ParameterError, "t must be >= 1, got 0"),
    "simplex-too-few-features": (
        lambda: simplex_ground_truth(5, 4), ParameterError,
        "need m >= t to place 5 regions on separate axes, got m=4"),
    "simplex-scales-length": (
        lambda: simplex_ground_truth(3, 6, scales=np.ones(2)), ParameterError,
        "scales must have length 3, got shape (2,)"),
    "verify-tiny-trials": (
        verify_row(lambda: simplex_ground_truth(2, 4), 10, trials=99), ParameterError,
        "trials must be >= 100, got 99"),
    "verify-route-length": (
        verify_row(lambda: simplex_ground_truth(3, 4), 10), ParameterError,
        "route length 2 != regions 3"),
    # n = m + 1 is the undefined band below the first under process (n = m + 2),
    # n = m - 1 the one above the last over process (n = m - 2)
    **{
        f"verify-{m}-{n}": (verify_row(truth, n), RegimeError, UNDEFINED.format(m, n))
        for m, truth in (
            (4, lambda: simplex_ground_truth(2, 4)),
            (10, lambda: TaskGroundTruth(np.zeros((2, 10)), np.zeros(10), 1.0)))
        for n in (m - 1, m, m + 1)
    },
    "config-sweep-var": (
        lambda: _config(sweep_var="n"), ParameterError, "sweep_var must be 'm' or 't', got 'n'"),
    "config-no-values": (
        lambda: _config(values=()), ParameterError, "sweep needs at least one value"),
    "config-no-strategies": (
        lambda: _config(strategies=()), ParameterError, "need at least one strategy"),
    "config-no-instances": (
        lambda: _config(instances=0), ParameterError, "instances must be >= 1, got 0"),
}


@pytest.mark.parametrize("case_id", LIBRARY_ROWS)
def test_library_rejects_bad_arguments(tmp_path, monkeypatch, case_id):
    monkeypatch.chdir(tmp_path)  # where the read rows write their file
    call, error, message = LIBRARY_ROWS[case_id]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
