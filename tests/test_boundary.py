"""Input-boundary branches: a bad file or flag exits 2 or 3 (4 past the
exact solver's size limit) with one error line, and a bad library
argument raises before any work is done."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from clroute import ParameterError, Route, Strategy, loss_upper, plan
from clroute.cli import ExperimentConfig, main
from clroute.instance import generate_instance, write_instance
from clroute.mc_verify import TaskGroundTruth, simplex_ground_truth
from clroute.shp import HELD_KARP_MAX_T, InvariantViolation, shortcut_to_hamiltonian
from helpers import worked_under

NAN, INF = float("nan"), float("inf")
# argv placeholders for an instance file, mapped to its number of regions;
# the row's fault, if any, rewrites the file's text
REGIONS = {"<file>": 4, "<oversized-file>": HELD_KARP_MAX_T + 1}
VERIFY = "verify --trials 200"
SWEEP = "experiment --sweep t --instances 1"
LEAKS = ("Traceback", "Warning", "nan != nan", "inhomogeneous")  # never in stderr


class _Raw(str):
    """JSON text spliced into the file as is, for nesting json.dumps cannot write."""


def edit(*changes):
    """A fault that sets, for each (*key path, value), that entry of the file's JSON document."""

    def fault(text):
        doc = json.loads(text)
        for *head, last, value in changes:
            target = doc
            for key in head:
                target = target[key]
            target[last] = value
        text = json.dumps(doc)  # writes NaN / Infinity, as Python's json accepts
        for *_, value in changes:
            if isinstance(value, _Raw):
                text = text.replace(json.dumps(value), value)
        return text.encode()

    return fault


def row(case_id, argv, code, message, fault=None):
    """One rejected input: argv as one string of words, then what main must do with it."""
    return pytest.param(argv.split(), fault, code, message, id=case_id)


def file_row(case_id, code, message, *changes, fault=None):
    """A fault in the file's contents; plan runs every strategy in both formats on it."""
    return row(case_id, "plan <file>", code, message, fault or edit(*changes))


# The one table of rejected CLI inputs, in three slices by the test that runs
# each; every row goes through assert_cli_rejects. tests/test_cli.py runs the
# first two slices, under the test names those cases have always had.
PLAN_FILE_ROWS = [  # test_cli.py::test_plan_rejects_non_finite_and_ragged_files
    file_row("sigma2-nan", 2, "sigma2 must be finite, got nan", ("sigma2", NAN)),
    file_row("sigma2-inf", 2, "sigma2 must be finite, got inf", ("sigma2", INF)),
    file_row("delta0-nan", 2, "delta0 must be finite: delta0_{1}=nan", ("delta0", 0, NAN)),
    file_row(
        "delta-inf", 2, "delta must be finite: delta_{1,2}=inf",
        ("delta", 0, 1, INF), ("delta", 1, 0, INF),
    ),
    file_row("delta-nan", 2, "delta must be finite: delta_{1,2}=nan", ("delta", 0, 1, NAN)),
    file_row(
        "costs-inf", 2, "c must be finite: c_{2,3}=inf", ("costs", 1, 2, INF), ("costs", 2, 1, INF),
    ),
    file_row(
        "delta-ragged", 3, 'field "delta" is not a rectangular array', ("delta", 1, [0.0, 1.0])
    ),
    file_row(
        "costs-ragged", 3, 'field "costs" is not a rectangular array',
        ("costs", 2, [1.0, [2.0], 0.0, 3.0]),
    ),
    # finite inputs whose loss does not fit a float
    file_row(
        "delta-overflow", 2, "row sum of region 1 does not fit a float: inf",
        *(("delta", i, j, 1e308) for i in range(4) for j in range(4) if i != j),
    ),
    file_row("sigma2-overflow", 2, "noise constant does not fit a float: inf", ("sigma2", 1e308)),
    file_row(
        "costs-overflow", 2, "c too large: (T-1)*max c = 3*1e+308 does not fit a float",
        *(("costs", i, j, 1e308) for i in range(4) for j in range(4) if i != j),
    ),
    file_row("m-overflow", 2, "noise constant does not fit a float", ("m", 10**400)),
    # every part fits a float, their sum does not
    file_row(
        "total-overflow", 2, "bound on the route total does not fit a float: inf",
        ("t", 2), ("sigma2", 2e306), ("delta0", [1.0, 1.0]),
        ("delta", [[0.0, 1.79e308], [1.79e308, 0.0]]),
        ("costs", [[0.0, 1.79e308], [1.79e308, 0.0]]),
    ),
    # integer literals too large for a float, where 1e400 would read as inf
    file_row("sigma2-huge-int", 2, 'field "sigma2" does not fit a float', ("sigma2", 10**400)),
    file_row("delta-huge-int", 2, 'field "delta" does not fit a float', ("delta", 0, 1, 10**400)),
    file_row("delta0-huge-int", 2, 'field "delta0" does not fit a float', ("delta0", 2, 10**400)),
    file_row("costs-huge-int", 2, 'field "costs" does not fit a float', ("costs", 3, 1, 10**400)),
    # JSON values that numpy would cast to a float, each valid if it did
    file_row(
        "delta-string", 3, 'field "delta" is not a rectangular array of numbers',
        ("delta", 0, 1, "2.5"), ("delta", 1, 0, "2.5"),
    ),
    file_row(
        "delta0-bool", 3, 'field "delta0" is not a rectangular array of numbers',
        ("delta0", 1, True),
    ),
    file_row(
        "costs-bool", 3, 'field "costs" is not a rectangular array of numbers',
        ("costs", 2, 2, False),
    ),
    file_row(  # nested deeper than numpy's 64 dimensions
        "delta0-deep", 3, 'field "delta0" is not a rectangular array of numbers',
        ("delta0", json.loads("[" * 100 + "1.0" + "]" * 100)),
    ),
    file_row(  # nested deeper than the JSON parser's recursion limit
        "delta0-too-deep", 3, "JSON nested too deeply to parse",
        ("delta0", _Raw("[" * 100_000 + "1.0" + "]" * 100_000)),
    ),
    row("seed-negative", "plan <file> --seed -3", 2, "--seed must be >= 0, got -3"),
]

FLAG_ROWS = [  # test_cli.py::test_verify_rejects_negative_and_non_finite_inputs
    row("gen-seed-negative", "gen --t 3 --seed -1 --out x.json", 2, "--seed must be >= 0, got -1"),
    row(
        "gen-sigma2-overflow", "gen --t 3 --sigma2 1e308 --out x.json", 2,
        "noise constant does not fit a float: inf",
    ),
    row(
        "gen-range-hi-inf", "gen --t 4 --range-hi inf --out x.json", 2,
        "need 0 < range_lo <= range_hi < inf, got [1.0, inf]",
    ),
    row(  # path sums in the metric closure overflow: no numpy warning either
        "gen-range-sum-overflow", "gen --t 4 --range-lo 1e308 --range-hi 1.7e308 --out x.json", 2,
        "c too large",
    ),
    row(
        "experiment-seed-negative", f"{SWEEP} --values 3 --seed -7", 2,
        "--seed must be >= 0, got -7",
    ),
    row(
        "experiment-sigma2-overflow", f"{SWEEP} --values 3 --sigma2 1e308", 2,
        "noise constant does not fit a float: inf",
    ),
    *(
        row(
            f"sigma2-{name}", f"{VERIFY} --sigma2 {flag}", 2,
            f"sigma2 must be finite and >= 0, got {float(flag)}",
        )
        for name, flag in (("negative", "-1"), ("nan", "nan"), ("inf", "inf"))
    ),
    row("threshold-nan", f"{VERIFY} --threshold nan", 2, "threshold must be finite, got nan"),
    row("t-negative", f"{VERIFY} --t -1", 2, "t must be >= 1, got -1"),
    row("seed-negative", f"{VERIFY} --seed -2", 2, "--seed must be >= 0, got -2"),
]

CLI_ROWS = [  # test_cli_rejects_bad_input, below
    # the file's contents
    file_row("costs-shape", 3, "costs must be 4x4, got (2, 2)", ("costs", [[0.0, 1.0]] * 2)),
    file_row(
        "t-one", 2, "t must be >= 2, got 1",
        ("t", 1), ("delta", [[0.0]]), ("delta0", [1.0]), ("costs", [[0.0]]),
    ),
    file_row(
        "top-level-array", 3, "top-level value must be an object",
        fault=lambda text: f"[{text}]".encode(),
    ),
    file_row(
        "utf16-bom", 3, "not UTF-8 text", fault=lambda text: b"\xff\xfe" + text.encode("utf-16-le")
    ),
    file_row(
        "latin1-byte", 3, "not UTF-8 text",
        fault=lambda text: b'{"r\xe9gion": 1, ' + text[1:].encode(),
    ),
    # flags and paths
    row("gen-t-one", "gen --t 1 --out x.json", 2, "t must be >= 2, got 1"),
    row("plan-missing-file", "plan nope.json", 3, "No such file or directory: 'nope.json'"),
    row(
        "plan-exact-size-limit", "plan <oversized-file> --strategy exact", 4,
        f"T={HELD_KARP_MAX_T + 1} exceeds the exact-solver limit ({HELD_KARP_MAX_T}); "
        "use the approximation algorithm instead",
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


def assert_cli_rejects(tmp_path, monkeypatch, capsys, argv, fault, code, message):
    """Hold one row of the table to the whole contract of a rejected input."""
    monkeypatch.chdir(tmp_path)  # where --out would write
    path = tmp_path / "inst.json"
    for arg in argv:
        if arg in REGIONS:
            write_instance(generate_instance(REGIONS[arg], seed=3), path)
            if fault is not None:
                path.write_bytes(fault(path.read_text()))
    argv = [str(path) if arg in REGIONS else arg for arg in argv]
    before = sorted(tmp_path.iterdir())
    variants = [argv]
    if argv[0] == "plan" and "--strategy" not in argv:
        variants = [
            [*argv, "--strategy", s.value, "--format", f]
            for s in Strategy
            for f in ("text", "json")
        ]
    results = set()
    for variant in variants:
        exit_code = main(variant)
        out, err = capsys.readouterr()
        results.add((exit_code, out, err))
        assert exit_code == code and out == ""
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert err.count("error:") == 1 and line.startswith("error: ") and message in line
        assert not any(leak in err for leak in LEAKS)
        if fault is not None:  # every fault of the file, its loss included, names the file
            assert err.startswith(f"error: {path}: ")
    assert len(results) == 1  # every strategy and format fails alike
    assert sorted(tmp_path.iterdir()) == before  # nothing written by --out


@pytest.mark.parametrize("argv,fault,code,message", CLI_ROWS)
def test_cli_rejects_bad_input(tmp_path, monkeypatch, capsys, argv, fault, code, message):
    assert_cli_rejects(tmp_path, monkeypatch, capsys, argv, fault, code, message)


def _config(**changes) -> ExperimentConfig:
    fields = dict(
        sweep_var="t", values=(5,), t=5, m=80, n=100, sigma2=1.0, instances=1, seed=1,
        strategies=(Strategy.ALGORITHM1,),
    )
    return ExperimentConfig(**{**fields, **changes})


LIBRARY_ROWS = {  # id: (call, exception, message)
    "loss_upper-route-length": (
        lambda: loss_upper(worked_under(), Route((1, 0))), ValueError,
        "route length 2 != t_regions 3",
    ),
    "plan-not-a-strategy": (
        lambda: plan(worked_under(), "greedy"), ValueError, "'greedy' is not a valid Strategy"
    ),
    "shortcut-open-walk": (
        lambda: shortcut_to_hamiltonian((3, 0, 1, 2), 2), InvariantViolation, "not a closed circuit"
    ),
    "simplex-no-regions": (
        lambda: simplex_ground_truth(0, 4), ParameterError, "t must be >= 1, got 0"
    ),
    "truth-no-regions": (
        lambda: TaskGroundTruth(np.zeros((0, 4)), np.zeros(4), 1.0), ParameterError,
        "w_star needs at least one region, got shape (0, 4)",
    ),
    "truth-w-star-nan": (
        lambda: TaskGroundTruth([[NAN, 0.0], [0.0, 1.0]], np.zeros(2), 1.0), ParameterError,
        "w_star must be finite, got nan",
    ),
    "truth-w0-inf": (
        lambda: TaskGroundTruth(np.eye(2, 4), [INF, 0.0, 0.0, 0.0], 1.0), ParameterError,
        "w0 must be finite, got inf",
    ),
    "config-sweep-var": (
        lambda: _config(sweep_var="n"), ParameterError, "sweep_var must be 'm' or 't', got 'n'"
    ),
    "config-no-values": (
        lambda: _config(values=()), ParameterError, "sweep needs at least one value"
    ),
    "config-no-strategies": (
        lambda: _config(strategies=()), ParameterError, "need at least one strategy"
    ),
    "config-no-instances": (
        lambda: _config(instances=0), ParameterError, "instances must be >= 1, got 0"
    ),
}


@pytest.mark.parametrize("call,error,message", LIBRARY_ROWS.values(), ids=list(LIBRARY_ROWS))
def test_library_rejects_bad_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
