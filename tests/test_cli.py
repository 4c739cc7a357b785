from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clroute
from clroute import Objective, Strategy, generate_instance, plan, read_instance, shp, write_instance
from clroute.cli import CSV_HEADER, main
from helpers import worked_under


def _worked_file(tmp_path):
    path = tmp_path / "worked.json"
    write_instance(worked_under(), str(path))
    return str(path)


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--t", "3", "--seed", "5", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    assert "regime=under" in captured.out
    assert "valid" in captured.out
    inst = read_instance(str(out))
    assert inst.t_regions == 3 and inst.m_features == 80


def test_gen_reports_over_regime(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--t", "3", "--m", "120", "--out", str(out)]) == 0
    assert "regime=over" in capsys.readouterr().out


def test_gen_rejects_t_one(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--t", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "t must be >= 2" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["gen", "--t", "5"], ["experiment", "--sweep", "t", "--values", "5", "--instances", "1"]],
    ids=["gen", "experiment"],
)
def test_gen_and_experiment_exit_2_when_memory_runs_out(tmp_path, capsys, monkeypatch, argv):
    # as `gen --t 1000000000000` does, whose first array numpy cannot allocate
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(clroute.cli, "generate_instance", refuse)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    assert captured.out == "" and not out.exists()


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--t", "5", "--seed", "9", "--out", str(a)])
    main(["gen", "--t", "5", "--seed", "9", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_plan_text_worked_example(tmp_path, capsys):
    path = _worked_file(tmp_path)
    assert main(["plan", path]) == 0
    out = capsys.readouterr().out
    assert "route: 3 2 1" in out
    assert "strategy: alg1" in out
    assert "forgetting: 2\n" in out
    assert "travel: 0.666667" in out
    assert "constant: 0.8" in out
    assert "total: 3.46667" in out
    assert re.search(r"elapsed: \d+\.\d{6}s", out)


def test_plan_json_output(tmp_path, capsys):
    path = _worked_file(tmp_path)
    assert main(["plan", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["route"] == [3, 2, 1]
    assert doc["strategy"] == "alg1"
    assert abs(doc["total"] - 10.4 / 3) < 1e-12
    assert set(doc) == {"route", "strategy", "forgetting", "travel", "constant", "total", "elapsed"}


def test_plan_forgetting_baseline_route(tmp_path, capsys):
    path = _worked_file(tmp_path)
    assert main(["plan", path, "--strategy", "forgetting"]) == 0
    assert "route: 2 3 1" in capsys.readouterr().out
    # the interior is always ascending; there is no option to shuffle it
    with pytest.raises(SystemExit) as exc:
        main(["plan", path, "--strategy", "forgetting", "--interior", "random"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --interior" in capsys.readouterr().err


def test_plan_exact_hits_size_limit(tmp_path, capsys):
    out = tmp_path / "big.json"
    main(["gen", "--t", str(shp.HELD_KARP_MAX_T + 1), "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    assert main(["plan", str(out), "--strategy", "exact"]) == 4
    assert "approximation" in capsys.readouterr().err


def test_experiment_runs_the_exact_oracle_above_sixteen_regions(capsys):
    argv = ["experiment", "--sweep", "t", "--values", "17", "--instances", "1"]
    assert main([*argv, "--strategies", "alg1,exact"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[:3] for r in rows] == [["t", "17", "alg1"], ["t", "17", "exact"]]
    assert all(float(x) >= 1.0 for r in rows for x in r[3:6])


def _put(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


NAN, INF = float("nan"), float("inf")


class _Raw(str):
    """JSON text spliced into the file as is, for nesting json.dumps cannot write."""


def _case(case_id, code, message, *edits, flags=()):
    return pytest.param(edits, flags, code, message, id=case_id)


@pytest.mark.parametrize(
    "edits,flags,code,message",
    [
        _case("sigma2-nan", 2, "sigma2 must be finite, got nan", (("sigma2",), NAN)),
        _case("sigma2-inf", 2, "sigma2 must be finite, got inf", (("sigma2",), INF)),
        _case("delta0-nan", 2, "delta0 must be finite: delta0_{1}=nan", (("delta0", 0), NAN)),
        _case(
            "delta-inf", 2, "delta must be finite: delta_{1,2}=inf",
            (("delta", 0, 1), INF), (("delta", 1, 0), INF),
        ),
        _case("delta-nan", 2, "delta must be finite: delta_{1,2}=nan", (("delta", 0, 1), NAN)),
        _case(
            "costs-inf", 2, "c must be finite: c_{2,3}=inf",
            (("costs", 1, 2), INF), (("costs", 2, 1), INF),
        ),
        _case(
            "delta-ragged", 3, 'field "delta" is not a rectangular array',
            (("delta", 1), [0.0, 1.0]),
        ),
        _case(
            "costs-ragged", 3, 'field "costs" is not a rectangular array',
            (("costs", 2), [1.0, [2.0], 0.0, 3.0]),
        ),
        # finite inputs whose loss does not fit a float
        _case(
            "delta-overflow", 2, "row sum of region 1 does not fit a float: inf",
            *((("delta", i, j), 1e308) for i in range(4) for j in range(4) if i != j),
        ),
        _case(
            "sigma2-overflow", 2, "noise constant does not fit a float: inf",
            (("sigma2",), 1e308),
        ),
        _case(
            "costs-overflow", 2, "c too large: (T-1)*max c = 3*1e+308 does not fit a float",
            *((("costs", i, j), 1e308) for i in range(4) for j in range(4) if i != j),
        ),
        _case("m-overflow", 2, "noise constant does not fit a float", (("m",), 10**400)),
        # every part fits a float, their sum does not
        _case(
            "total-overflow", 2, "bound on the route total does not fit a float: inf",
            (("t",), 2), (("sigma2",), 2e306), (("delta0",), [1.0, 1.0]),
            (("delta",), [[0.0, 1.79e308], [1.79e308, 0.0]]),
            (("costs",), [[0.0, 1.79e308], [1.79e308, 0.0]]),
        ),
        _case("seed-negative", 2, "--seed must be >= 0, got -3", flags=("--seed", "-3")),
        # integer literals too large for a float, where 1e400 would read as inf
        *(
            _case(
                f"{name}-huge-int", 2, f'field "{name}" does not fit a float',
                (key_path, 10**400),
            )
            for name, key_path in (
                ("sigma2", ("sigma2",)),
                ("delta", ("delta", 0, 1)),
                ("delta0", ("delta0", 2)),
                ("costs", ("costs", 3, 1)),
            )
        ),
        # JSON values that numpy would cast to a float, each valid if it did
        _case(
            "delta-string", 3, 'field "delta" is not a rectangular array of numbers',
            (("delta", 0, 1), "2.5"), (("delta", 1, 0), "2.5"),
        ),
        _case(
            "delta0-bool", 3, 'field "delta0" is not a rectangular array of numbers',
            (("delta0", 1), True),
        ),
        _case(
            "costs-bool", 3, 'field "costs" is not a rectangular array of numbers',
            (("costs", 2, 2), False),
        ),
        _case(  # nested deeper than numpy's 64 dimensions
            "delta0-deep", 3, 'field "delta0" is not a rectangular array of numbers',
            (("delta0",), json.loads("[" * 100 + "1.0" + "]" * 100)),
        ),
        _case(  # nested deeper than the JSON parser's recursion limit
            "delta0-too-deep", 3, "JSON nested too deeply to parse",
            (("delta0",), _Raw("[" * 100_000 + "1.0" + "]" * 100_000)),
        ),
    ],
)
@pytest.mark.filterwarnings("error")  # no numpy overflow warning leaks either
def test_plan_rejects_non_finite_and_ragged_files(tmp_path, capsys, edits, flags, code, message):
    path = tmp_path / "mutated.json"
    write_instance(generate_instance(4, seed=3), path)
    doc = json.loads(path.read_text())
    for key_path, value in edits:
        _put(doc, key_path, value)
    text = json.dumps(doc)  # writes NaN / Infinity, as Python's json accepts
    for _, value in edits:
        if isinstance(value, _Raw):
            text = text.replace(json.dumps(value), value)
    path.write_text(text)
    for fmt in ("text", "json"):
        for strategy in ("alg1", "exact", "forgetting", "random"):
            argv = ["plan", str(path), "--format", fmt, "--strategy", strategy, *flags]
            assert main(argv) == code
            captured = capsys.readouterr()
            assert captured.err.count("error:") == 1 and message in captured.err
            assert "nan != nan" not in captured.err and "inhomogeneous" not in captured.err
            assert captured.out == ""
            if not flags:  # every fault of the file, its loss included, names the file
                assert captured.err.startswith(f"error: {path}: ")


BAD_VALUES = [NAN, INF, -INF, -1.0, 1e300, 1e308, 10**400]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    t=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([60, 80, 120, 180]),
    sigma2=st.floats(0.0, 1e3),
    field=st.sampled_from(["delta", "delta0", "costs", "sigma2"]),
    index=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    value=st.sampled_from(BAD_VALUES),
    every_entry=st.booleans(),
)
# travel that overflows: a numpy warning, then a traceback from alg1 or an infinite travel
@example(t=5, seed=0, m=80, sigma2=1.0, field="costs", index=(0, 1), value=1e308, every_entry=True)
def test_file_round_trips_and_a_bad_edit_never_crashes_plan(
    t, seed, m, sigma2, field, index, value, every_entry
):
    # write then read is bit-exact; after a symmetric edit of one entry of a
    # field, or of all its off-diagonal entries, plan exits 0, 2 or 3 with
    # every strategy, and exit 0 prints only finite numbers
    inst = generate_instance(t, seed, m=m, n=100, sigma2=sigma2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert (back.t_regions, back.m_features, back.n_samples) == (t, m, 100)
        assert repr(back.sigma2) == repr(inst.sigma2)
        for name in ("delta", "delta0", "costs"):
            assert getattr(back, name).tobytes() == getattr(inst, name).tobytes()

        doc = json.loads(path.read_text())
        pairs = [(i, j) for i in range(t) for j in range(t) if i != j]
        if not every_entry:
            pairs = [(index[0] % t, index[1] % t)]
        for i, j in pairs:
            if field == "sigma2":
                doc["sigma2"] = value
            elif field == "delta0":
                doc["delta0"][i] = value
            else:
                doc[field][i][j] = doc[field][j][i] = value
        path.write_text(json.dumps(doc))
        for strategy in ("alg1", "exact", "forgetting", "random"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy warning leaks either
                code = main(["plan", str(path), "--strategy", strategy, "--format", "json"])
            assert code in (0, 2, 3), err.getvalue()
            if code == 0:
                doc = json.loads(out.getvalue())
                for key in ("forgetting", "travel", "constant", "total", "elapsed"):
                    assert math.isfinite(doc[key]), (key, doc)
            else:
                assert out.getvalue() == "" and err.getvalue().count("error:") == 1


@pytest.mark.parametrize(
    "to_bytes",
    [
        lambda text: b"\xff\xfe" + text.encode("utf-16-le"),
        lambda text: b'{"r\xe9gion": 1, ' + text[1:].encode(),
    ],
    ids=["utf16-bom", "latin1-byte"],
)
def test_plan_rejects_undecodable_files(tmp_path, capsys, to_bytes):
    path = tmp_path / "encoded.json"
    path.write_bytes(to_bytes(Path(_worked_file(tmp_path)).read_text()))
    assert main(["plan", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert f"{path}: not UTF-8 text" in captured.err
    assert captured.out == ""


def test_plan_missing_file(tmp_path, capsys):
    assert main(["plan", str(tmp_path / "nope.json")]) == 3
    assert "error:" in capsys.readouterr().err


def test_experiment_skips_undefined_sweep_points(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "experiment", "--sweep", "m", "--values", "80,99,100,101,120",
            "--t", "4", "--instances", "2", "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    for bad in (99, 100, 101):
        assert f"skipping m={bad}" in captured.err
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # two surviving sweep points, one strategy
    assert lines[1].startswith("m,80,alg1,")
    assert lines[2].startswith("m,120,alg1,")


def test_experiment_fails_when_no_points_remain(capsys):
    code = main(["experiment", "--sweep", "m", "--values", "99,100,101", "--instances", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no valid sweep points remain" in captured.err


def test_experiment_two_region_ratio_is_exactly_one(tmp_path):
    out = tmp_path / "t2.csv"
    main(["experiment", "--sweep", "t", "--values", "2", "--instances", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[1] == "t,2,alg1,1,1,1,1"


def test_experiment_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "experiment", "--sweep", "m", "--values", "80,120",
        "--t", "4", "--instances", "3", "--seed", "7",
    ]
    main(argv + ["--out", str(a)])
    main(argv + ["--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def test_experiment_row_order_follows_strategy_list(tmp_path):
    out = tmp_path / "multi.csv"
    main(
        [
            "experiment", "--sweep", "m", "--values", "80", "--t", "4",
            "--instances", "2", "--strategies", "alg1,exact,forgetting,random",
            "--out", str(out),
        ]
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[2] for r in rows] == ["alg1", "exact", "forgetting", "random"]
    exact = rows[1]
    assert exact[3] == exact[4] == exact[5] == "1"


def test_experiment_solves_the_exact_optimum_once_per_instance(tmp_path, monkeypatch):
    calls = []
    held_karp = shp.held_karp_min_path

    def counted(inst):
        calls.append(inst.t_regions)
        return held_karp(inst)

    monkeypatch.setattr(shp, "held_karp_min_path", counted)
    argv = ["experiment", "--sweep", "m", "--values", "80,120", "--t", "5", "--instances", "3"]
    assert main([*argv, "--strategies", "alg1,exact", "--out", str(tmp_path / "r.csv")]) == 0
    assert calls == [5] * 6  # two sweep points, three instances each


def test_the_objective_is_built_once_per_instance(tmp_path, monkeypatch):
    calls = []
    of = Objective.of

    def counted(cls, inst):
        calls.append(inst.t_regions)
        return of(inst)

    path = str(tmp_path / "inst.json")
    write_instance(generate_instance(6, seed=2), path)
    inst = read_instance(path)
    monkeypatch.setattr(Objective, "of", classmethod(counted))
    for strategy in Strategy:
        plan(inst, strategy, seed=1)
    assert calls == []  # every strategy reads the objective the instance holds
    assert main(["plan", path, "--strategy", "exact"]) == 0
    assert calls == [6]  # built when the file is read
    calls.clear()
    argv = ["experiment", "--sweep", "t", "--values", "5", "--instances", "1"]
    assert main([*argv, "--strategies", "alg1,forgetting,random"]) == 0
    assert calls == [5]


def test_experiment_rejects_bad_strategy(capsys):
    code = main(["experiment", "--sweep", "m", "--values", "80", "--strategies", "alg1,bogus"])
    assert code == 2
    assert "bad sweep configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--values", "5,5"], "repeated sweep value 5"),
        (["--values", "5", "--strategies", "alg1,alg1,exact"], "repeated strategy alg1"),
    ],
    ids=["values", "strategies"],
)
def test_experiment_rejects_repeats(capsys, flags, message):
    # the CSV holds one row per (point, strategy); a repeat would print two
    assert main(["experiment", "--sweep", "t", "--instances", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and message in captured.err
    assert captured.out == ""


def test_experiment_rejects_bad_values(capsys):
    code = main(["experiment", "--sweep", "t", "--values", "4,x"])
    assert code == 2
    assert "bad sweep configuration" in capsys.readouterr().err


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--trials", "2000", "--seed", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert set(doc) == {"under", "over", "threshold", "ok"}
    for part in ("under", "over"):
        assert set(doc[part]) == {"empirical", "closed_form", "std_error", "trials", "z"}
        assert doc[part]["trials"] == 2000
    assert doc["ok"] is True
    assert code == 0


@pytest.mark.parametrize("t,seed", [(1, 0), (2, 1)])
def test_verify_passes_without_noise(capsys, t, seed):
    # the noiseless least-squares fit recovers w* exactly, so the under slot
    # differs from its closed form only by rounding, at a std error of 1e-17 or less
    argv = ["verify", "--sigma2", "0", "--trials", "200", "--t", str(t), "--seed", str(seed)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["under"]["z"] == 0.0 and doc["ok"] is True


def test_verify_threshold_zero_fails(tmp_path, capsys):
    code = main(["verify", "--trials", "200", "--threshold", "0", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 5
    assert json.loads(captured.out)["ok"] is False


def test_verify_rejects_tiny_trial_count(capsys):
    assert main(["verify", "--trials", "50"]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--under-m", "12", "--under-n", "4"], "--under-m=12, --under-n=4 is overparameterized"),
        (["--over-m", "4", "--over-n", "10"], "--over-m=4, --over-n=10 is underparameterized"),
    ],
    ids=["under-slot", "over-slot"],
)
def test_verify_rejects_slot_dims_of_the_other_regime(capsys, flags, message):
    assert main(["verify", "--trials", "200", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--under-m", "4", "--under-n", "6"],
        ["--under-m", "4", "--under-n", "7"],
        ["--over-m", "6", "--over-n", "4"],
        ["--over-m", "7", "--over-n", "4"],
    ],
    ids=["under-4-6", "under-4-7", "over-6-4", "over-7-4"],
)
def test_verify_rejects_slot_dims_at_the_regime_edge(capsys, flags):
    # at |n - m| in {2, 3} the per-trial loss has a finite mean but no finite variance
    assert main(["verify", "--trials", "200", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert f"{flags[0]}={flags[1]}, {flags[2]}={flags[3]}" in captured.err
    assert "|n − m| >= 4" in captured.err
    assert captured.out == ""


VERIFY = ["verify", "--trials", "200"]
SWEEP = ["experiment", "--sweep", "t", "--values", "3", "--instances", "1"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (VERIFY + ["--sigma2", "-1"], "sigma2 must be finite and >= 0, got -1.0"),
        (VERIFY + ["--sigma2", "nan"], "sigma2 must be finite and >= 0, got nan"),
        (VERIFY + ["--sigma2", "inf"], "sigma2 must be finite and >= 0, got inf"),
        (VERIFY + ["--threshold", "nan"], "threshold must be finite, got nan"),
        (VERIFY + ["--t", "-1"], "t must be >= 1, got -1"),
        (VERIFY + ["--seed", "-2"], "--seed must be >= 0, got -2"),
        (["gen", "--t", "3", "--seed", "-1", "--out", "x.json"], "--seed must be >= 0, got -1"),
        (SWEEP + ["--seed", "-7"], "--seed must be >= 0, got -7"),
        (SWEEP + ["--sigma2", "1e308"], "noise constant does not fit a float: inf"),
        (
            ["gen", "--t", "3", "--sigma2", "1e308", "--out", "x.json"],
            "noise constant does not fit a float: inf",
        ),
        (
            ["gen", "--t", "4", "--range-hi", "inf", "--out", "x.json"],
            "need 0 < range_lo <= range_hi < inf, got [1.0, inf]",
        ),
        (  # path sums in the metric closure overflow: no numpy warning either
            ["gen", "--t", "4", "--range-lo", "1e308", "--range-hi", "1.7e308", "--out", "x.json"],
            "c too large",
        ),
    ],
    ids=[
        "sigma2-negative", "sigma2-nan", "sigma2-inf", "threshold-nan", "t-negative",
        "seed-negative", "gen-seed-negative", "experiment-seed-negative",
        "experiment-sigma2-overflow", "gen-sigma2-overflow", "gen-range-hi-inf",
        "gen-range-sum-overflow",
    ],
)
def test_verify_rejects_negative_and_non_finite_inputs(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)  # where gen would write
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and message in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x.json").exists()


def test_module_is_runnable_as_script(tmp_path):
    out = tmp_path / "inst.json"
    # the child imports clroute from where this process found it, whether
    # that is an install or the pytest pythonpath setting
    src = str(Path(clroute.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "clroute.cli", "gen", "--t", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout
    assert out.exists()
