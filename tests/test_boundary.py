"""Input-boundary branches: a bad file or flag exits 2 or 3 with one error
line, and a bad library argument raises before any work is done."""

from __future__ import annotations

import json
import re

import pytest

from clroute import ParameterError, Route, Strategy, loss_upper, plan, write_instance
from clroute.cli import ExperimentConfig, main
from clroute.mc_verify import simplex_ground_truth
from clroute.shp import InvariantViolation, shortcut_to_hamiltonian
from helpers import worked_under

FILE = object()  # stands for the path of the edited worked instance file
EXPERIMENT = ["experiment", "--sweep", "t", "--values", "5"]


@pytest.mark.parametrize(
    "edit,argv,code,message",
    [
        pytest.param(
            lambda doc: {**doc, "costs": [[0.0, 1.0], [1.0, 0.0]]}, ["plan", FILE], 3,
            "costs must be 3x3, got (2, 2)", id="costs-shape",
        ),
        pytest.param(
            lambda doc: {**doc, "t": 1, "delta": [[0.0]], "delta0": [1.0], "costs": [[0.0]]},
            ["plan", FILE], 2, "t must be >= 2, got 1", id="t-one",
        ),
        pytest.param(
            lambda doc: [doc], ["plan", FILE], 3, "top-level value must be an object",
            id="top-level-array",
        ),
        pytest.param(
            None, [*EXPERIMENT, "--instances", "0"], 2, "instances must be >= 1, got 0",
            id="experiment-no-instances",
        ),
    ],
)
def test_cli_rejects_bad_input(tmp_path, capsys, edit, argv, code, message):
    path = tmp_path / "worked.json"
    write_instance(worked_under(), path)
    if edit is not None:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main([str(path) if arg is FILE else arg for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and message in captured.err
    assert captured.out == ""


def _experiment_config(**changes) -> ExperimentConfig:
    fields = dict(
        sweep_var="t", values=(5,), t=5, m=80, n=100, sigma2=1.0, instances=1, seed=1,
        strategies=(Strategy.ALGORITHM1,),
    )
    return ExperimentConfig(**{**fields, **changes})


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(
            lambda: loss_upper(worked_under(), Route((1, 0))), ValueError,
            "route length 2 != t_regions 3", id="loss_upper-route-length",
        ),
        pytest.param(
            lambda: plan(worked_under(), "alg1"), ValueError, "unknown strategy 'alg1'",
            id="plan-not-a-strategy",
        ),
        pytest.param(
            lambda: shortcut_to_hamiltonian((3, 0, 1, 2), 2), InvariantViolation,
            "not a closed circuit", id="shortcut-open-walk",
        ),
        pytest.param(
            lambda: simplex_ground_truth(0, 4), ParameterError, "t must be >= 1, got 0",
            id="simplex-no-regions",
        ),
        pytest.param(
            lambda: _experiment_config(sweep_var="n"), ParameterError,
            "sweep_var must be 'm' or 't', got 'n'", id="config-sweep-var",
        ),
        pytest.param(
            lambda: _experiment_config(values=()), ParameterError,
            "sweep needs at least one value", id="config-no-values",
        ),
        pytest.param(
            lambda: _experiment_config(strategies=()), ParameterError,
            "need at least one strategy", id="config-no-strategies",
        ),
        pytest.param(
            lambda: _experiment_config(instances=0), ParameterError,
            "instances must be >= 1, got 0", id="config-no-instances",
        ),
    ],
)
def test_library_rejects_bad_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
