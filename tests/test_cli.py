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
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clroute
from clroute import Objective, Strategy, generate_instance, plan, read_instance, shp, write_instance
from clroute.cli import CSV_HEADER, ExperimentConfig, main, rows_to_csv, run_experiment
from helpers import SWEEP, VERIFY, Raw, assert_cli_rejects, file_row, row, worked_under


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


def test_verify_exits_2_when_memory_runs_out_without_a_reason(capsys, monkeypatch):
    # as `verify --t 1000000000000` does, whose route raises a bare MemoryError()
    def refuse(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(clroute.cli, "Route", refuse)
    assert main(["verify", "--trials", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n" and captured.out == ""


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--t", "5", "--seed", "9", "--out", str(a)])
    main(["gen", "--t", "5", "--seed", "9", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


REWRITES = {  # each writes fewer bytes than the T=10 file it overwrites
    "gen": ["gen", "--t", "3", "--seed", "5"],
    "experiment": ["experiment", "--sweep", "t", "--values", "3", "--instances", "1"],
    "verify": ["verify", "--trials", "200", "--seed", "1"],
}


@pytest.mark.parametrize("command", REWRITES)
def test_out_over_a_longer_file_holds_the_bytes_of_a_fresh_write(tmp_path, capsys, command):
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    main(["gen", "--t", "10", "--out", str(rewritten)])
    old = rewritten.stat()
    argv = REWRITES[command]
    assert main([*argv, "--out", str(fresh)]) == main([*argv, "--out", str(rewritten)]) == 0
    capsys.readouterr()
    assert rewritten.read_bytes() == fresh.read_bytes()
    assert fresh.stat().st_size < old.st_size
    assert rewritten.stat().st_ino == old.st_ino  # rewritten in place, not replaced


def test_out_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "fresh.json"
    main(["gen", "--t", "10", "--out", str(target)])
    link.symlink_to(target.name)
    for out in (link, fresh):
        assert main([*REWRITES["gen"], "--out", str(out)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == fresh.read_bytes()


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


def test_experiment_runs_the_exact_oracle_above_sixteen_regions(capsys):
    argv = ["experiment", "--sweep", "t", "--values", "17", "--instances", "1"]
    assert main([*argv, "--strategies", "alg1,exact"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [r[:3] for r in rows] == [["t", "17", "alg1"], ["t", "17", "exact"]]
    assert all(float(x) >= 1.0 for r in rows for x in r[3:6])


NAN, INF = float("nan"), float("inf")
BAD_VALUES = [NAN, INF, -INF, -1.0, 1e300, 1e308, 10**400]

PLAN_FILE_ROWS = [  # test_plan_rejects_non_finite_and_ragged_files, below
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
        ("delta0", Raw("[" * 100_000 + "1.0" + "]" * 100_000)),
    ),
    row("seed-negative", "plan <file> --seed -3", 2, "--seed must be >= 0, got -3"),
]


@pytest.mark.parametrize("argv,fault,code,message", PLAN_FILE_ROWS)
def test_plan_rejects_non_finite_and_ragged_files(
    tmp_path, monkeypatch, capsys, argv, fault, code, message
):
    assert_cli_rejects(tmp_path, monkeypatch, capsys, argv, fault, code, message)


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


def test_experiment_exclude_constant_drops_the_constant_from_every_ratio(tmp_path):
    argv = [
        "experiment", "--sweep", "m", "--values", "80,120", "--t", "5", "--m", "80",
        "--n", "100", "--sigma2", "1.0", "--instances", "3", "--seed", "7",
        "--strategies", "alg1,forgetting,random",
    ]
    with_constant, without = tmp_path / "with.csv", tmp_path / "without.csv"
    assert main([*argv, "--out", str(with_constant)]) == 0
    assert main([*argv, "--exclude-constant", "--out", str(without)]) == 0
    strategies = (Strategy.ALGORITHM1, Strategy.FORGETTING, Strategy.RANDOM)
    cfg = ExperimentConfig("m", (80, 120), 5, 80, 100, 1.0, 3, 7, strategies)
    rows, _ = run_experiment(replace(cfg, include_constant=False))
    assert without.read_text() == rows_to_csv(rows)
    assert with_constant.read_text() == rows_to_csv(run_experiment(cfg)[0])
    assert without.read_text() != with_constant.read_text()


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


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--trials", "2000", "--seed", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert set(doc) == {"under", "over", "threshold", "ok", "seed", "t", "sigma2"}
    for part in ("under", "over"):
        assert set(doc[part]) == {
            "empirical", "closed_form", "std_error", "trials", "z", "z_signed", "m", "n", "route"
        }
        assert doc[part]["trials"] == 2000
        assert doc[part]["route"] == [1, 2, 3]
    assert [(doc[part]["m"], doc[part]["n"]) for part in ("under", "over")] == [(4, 10), (12, 4)]
    assert (doc["seed"], doc["t"], doc["sigma2"]) == (0, 3, 1.0)
    assert doc["ok"] is True
    assert code == 0


def test_verify_replays_from_its_own_report(capsys):
    argv = ["verify", "--t", "3", "--trials", "600", "--sigma2", "0.7", "--seed", "12",
            "--threshold", "4.5", "--under-m", "3", "--under-n", "9", "--over-m", "14",
            "--over-n", "5"]  # fmt: skip
    main(argv)
    first = capsys.readouterr().out
    doc = json.loads(first)
    # verify simulates the identity route over --t regions
    assert doc["under"]["route"] == doc["over"]["route"] == list(range(1, doc["t"] + 1))
    replay = ["verify", "--t", str(doc["t"]), "--trials", str(doc["under"]["trials"]),
              "--sigma2", repr(doc["sigma2"]), "--seed", str(doc["seed"]),
              "--threshold", repr(doc["threshold"])]  # fmt: skip
    for part in ("under", "over"):
        replay += [f"--{part}-m", str(doc[part]["m"]), f"--{part}-n", str(doc[part]["n"])]
    main(replay)
    assert capsys.readouterr().out == first


FLAG_ROWS = [  # test_verify_rejects_negative_and_non_finite_inputs, below
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
    row(  # the closed form is built before any trial runs: no numpy warning from the pool
        "sigma2-overflow", f"{VERIFY} --sigma2 1e308", 2, "noise constant does not fit a float: inf"
    ),
    row(  # the squared losses overflow, which would leave z at 0
        "sigma2-loss-overflow", f"{VERIFY} --sigma2 1e200 --seed 1", 2,
        "standard error of the mean does not fit a float: inf",
    ),
    row(  # the losses themselves overflow, though the closed form fits
        "sigma2-mean-overflow", f"{VERIFY} --sigma2 1e307 --seed 1", 2,
        "mean simulated loss does not fit a float: inf",
    ),
    row("threshold-nan", f"{VERIFY} --threshold nan", 2, "threshold must be finite, got nan"),
    row("threshold-negative", f"{VERIFY} --threshold -1", 2, "threshold must be >= 0, got -1.0"),
    row("t-negative", f"{VERIFY} --t -1", 2, "t must be >= 1, got -1"),
    row("seed-negative", f"{VERIFY} --seed -2", 2, "--seed must be >= 0, got -2"),
]


@pytest.mark.parametrize("argv,fault,code,message", FLAG_ROWS)
def test_verify_rejects_negative_and_non_finite_inputs(
    tmp_path, monkeypatch, capsys, argv, fault, code, message
):
    assert_cli_rejects(tmp_path, monkeypatch, capsys, argv, fault, code, message)


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
