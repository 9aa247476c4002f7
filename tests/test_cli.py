"""Tests for the command-line interface: outputs, formats, exit codes."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cpstein
from cpstein import cli, core
from cpstein.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_json_structure(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--rates", "1.0,0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rates"] == [1.0, 0.2]
    assert doc["regime"] == "BX99_OK"
    methods = [row["method"] for row in doc["bounds"]]
    assert methods == ["GENERAL", "MONOTONE", "BX99", "COR3", "THM4"]
    bx = doc["bounds"][2]
    assert_allclose(bx["m1"], 1 / 0.6, rtol=1e-15)
    thm4 = doc["bounds"][4]
    assert thm4["applicable"] is False
    assert thm4["m1"] == "inf"
    best = doc["best"]
    assert best["m1"] <= min(r["m1"] for r in doc["bounds"] if r["applicable"])


def test_bounds_accepts_model(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--model", "runs", "--n", "100", "--p", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == {"model": "runs", "n": 100, "p": 0.1}
    assert_allclose(doc["theta"], [1.0, 0.2, 0.02, 0.0], atol=1e-12)


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--rates", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # single-size clusters sit on the theta_2 = 2 theta_1 = 0 boundary, so
    # the order-3 row falls back to the grid route and carries its tag
    assert [r["method"] for r in rows] == [
        "GENERAL",
        "MONOTONE",
        "BX99",
        "THM2(3)",
        "THM4",
        "BEST",
    ]
    mono = rows[1]
    assert_allclose(float(mono["m1"]), 1 / 9, rtol=1e-15)
    assert rows[4]["m1"] == "inf"


def test_bounds_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bounds", "--rates", "0.5,0.25")
    _, second, _ = run_cli(capsys, "bounds", "--rates", "0.5,0.25")
    assert first == second


# ---------------------------------------------------------------------------
# verify


def test_verify_rates_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rates", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert "distance" not in doc
    methods = {c["method"] for c in doc["checks"]}
    assert "MONOTONE" in methods
    for c in doc["checks"]:
        assert c["pass"] is True
        assert c["m0_hat"] <= c["m0_bound"]
        assert c["m1_hat"] <= c["m1_bound"]


def test_verify_runs_model_distance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "runs", "--n", "30", "--p", "0.15"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["dk_pass"] is True
    assert doc["vacuous"] is False
    assert_allclose(doc["dk_bound"], 3 * 0.5 * 30 * 0.15**4, rtol=1e-12)
    assert doc["distance"]["d_k"] <= doc["dk_bound"]


def test_verify_exit_one_on_violation(capsys, monkeypatch):
    # measured factors above every applicable bound of --rates 8
    from cpstein import oracle

    params = cpstein.CompoundPoissonParams([8.0])
    bounds = [b for b in cpstein.evaluate_all(params) if b.applicable]
    fake = cpstein.EmpiricalFactors(
        m0_hat=max(b.m0 for b in bounds) + 1.0,
        m1_hat=max(b.m1 for b in bounds) + 1.0,
        y_max=5,
        x_max=10,
    )
    monkeypatch.setattr(oracle, "_measure", lambda params, table, y_max, x_max, th: fake)
    code, out, _ = run_cli(capsys, "verify", "--rates", "8")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["empirical"] == {
        "m0_hat": fake.m0_hat,
        "m1_hat": fake.m1_hat,
        "y_max": 5,
        "x_max": 10,
    }
    assert doc["checks"] and not any(c["pass"] for c in doc["checks"])


def test_verify_mixed_gamma(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "mixed", "--gamma", "17.3,0.41"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["dk_pass"] is True
    # a numpy bool here would not serialize
    assert doc["vacuous"] is (doc["dk_bound"] > 1.0)


def test_verify_infinite_best_m1_is_a_vacuous_dk_bound(capsys):
    # rates (700, 650): only GENERAL applies and its e^1350 overflows; the d_K
    # bound on that m1 is inf and vacuous, as a sweep row prints it
    code, out, err = run_cli(capsys, "verify", "--model", "mixed", "--gamma", "3076.923,0.65")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [c["method"] for c in doc["checks"]] == ["GENERAL"]
    assert (doc["dk_bound"], doc["dk_bound_method"]) == ("inf", "GENERAL")
    assert doc["vacuous"] is True and doc["dk_pass"] is True and doc["pass"] is True


def test_verify_runs_oracle_once(capsys, monkeypatch):
    # the oracle's sweep, which empirical_factors runs on its own table and
    # verify on the one it also gives the distance
    from cpstein import oracle

    calls = []
    real = oracle._measure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_measure", counting)
    code, out, _ = run_cli(capsys, "verify", "--model", "runs", "--n", "200", "--p", "0.1")
    assert code == 0
    assert len(json.loads(out)["checks"]) > 1
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        "verify --rates 8",
        "verify --rates 5.3,0.6",
        "verify --model runs --n 30 --p 0.15",
        "verify --model reliability --n 6 --k 2 --q 0.3 --samples 10000 --seed 1",
        "verify --model mixed --gamma 17.3,0.41",
        "verify --model sums --components 0.7,0.1,0.1,0.1",
    ],
)
def test_verify_forms_theta_twice(capsys, monkeypatch, argv):
    # cp_pmf's truncation forms theta(params, 1) behind its public signature;
    # verify forms theta(params, 3) once, for the oracle's x_max and for the
    # catalogue
    orders, real = [], core.theta

    def counting(params, K):
        orders.append(K)
        return real(params, K)

    for name, module in list(sys.modules.items()):
        if name.startswith("cpstein") and getattr(module, "theta", None) is real:
            monkeypatch.setattr(module, "theta", counting)
    assert run_cli(capsys, *argv.split())[0] == 0
    assert orders == [1, 3]


@pytest.mark.parametrize("block_columns", [512, 8])
@pytest.mark.parametrize(
    "argv",
    [
        "verify --model runs --n 200 --p 0.1",
        "verify --model reliability --n 8 --k 2 --q 0.3 --samples 10000 --seed 1",
        "verify --model mixed --gamma 17.3,0.41",
        "verify --model sums --components 0.7,0.1,0.1,0.1",
        "verify --rates 30,10,5",
    ],
)
def test_verify_builds_the_approximant_once(capsys, monkeypatch, argv, block_columns):
    # one cp_pmf table serves the oracle and the distance, and where the
    # tails at N and 2N agree at the block (every law here), one g column
    # serves both truncations: one _sups call per block of BLOCK_COLUMNS
    # columns, the g and y_max + 1 thresholds, over both rows of the sups
    from cpstein import core, oracle

    tables, sups = [], []

    def counting_pmf(*args, _real=core.cp_pmf):
        tables.append(args)
        return _real(*args)

    def counting_sups(C, P, g, g_next, acc, _real=oracle._sups):
        sups.append(acc.shape)
        _real(C, P, g, g_next, acc)

    for module in (core, oracle, cli):
        monkeypatch.setattr(module, "cp_pmf", counting_pmf)
    monkeypatch.setattr(oracle, "_sups", counting_sups)
    monkeypatch.setattr(oracle, "BLOCK_COLUMNS", block_columns)
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    y_max = json.loads(out)["empirical"]["y_max"]
    assert len(tables) == 1
    assert sups == [(2, 2)] * -(-(y_max + 2) // block_columns)


# the column function of each catalogue row, in catalogue order
FORMULAS = ("_general", "_monotone", "_bx99", "_cor3", "_thm4")


@pytest.mark.parametrize(
    "argv,rows",
    [
        (["bounds", "--rates", "1.0,0.2"], 1),
        (["verify", "--model", "runs", "--n", "30", "--p", "0.15"], 1),
        (["sweep", "--model", "runs", "--n", "50", "--p-range", "0.05:0.45:5"], 5),
        # the last row's COR3 falls back to THM2(3)
        (["sweep", "--model", "reliability", "--n", "30", "--k", "2", "--q-range", "0.1:0.9:8"],
         8),
    ],
)
def test_catalogue_evaluated_once_per_row(capsys, monkeypatch, argv, rows):
    # each row's column function runs once per command, over the columns of
    # all its laws: one for bounds and verify, through evaluate_all, and every
    # row of a sweep; the order-3 closed form runs once, over the same
    # columns, and the order-3 enclosure once for each law whose order-3 row
    # falls back to THM2(3).  Bounds, and so their notes, are built only for
    # the five rows of one law and its best_of: a sweep, its THM2(3)
    # fallback included, builds none
    from cpstein import bounds

    made = []

    def counting_new(cls, *args, _real=bounds.SteinFactorBound.__new__):
        made.append(args)
        return _real(cls, *args)

    monkeypatch.setattr(bounds.SteinFactorBound, "__new__", counting_new)

    laws = dict.fromkeys(FORMULAS, [])
    order3 = []
    for name in FORMULAS:
        def counting(*columns, _name=name, _real=getattr(bounds, name)):
            out = _real(*columns)
            laws[_name] = laws[_name] + [len(out.method)]
            if _name == "_cor3":
                order3.extend(out.method)
            return out

        monkeypatch.setattr(bounds, name, counting)
    calls = {"_cor3_deltas": [], "delta_k_grid": []}
    for name, seen in calls.items():
        def counting_calls(*args, _seen=seen, _real=getattr(bounds, name)):
            _seen.append(args)
            return _real(*args)

        monkeypatch.setattr(bounds, name, counting_calls)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert laws == dict.fromkeys(FORMULAS, [rows])
    assert [len(args[0]) for args in calls["_cor3_deltas"]] == [rows]
    assert len(calls["delta_k_grid"]) == order3.count("THM2(3)") == ("reliability" in argv)
    assert len(made) == (0 if argv[0] == "sweep" else 6)


@pytest.mark.parametrize(
    "argv,model,law",
    [
        ("verify --rates 8", None, {}),
        ("verify --model runs --n 30 --p 0.15", {"model": "runs", "n": 30, "p": 0.15}, {}),
        (
            "verify --model reliability --n 4 --k 2 --q 0.3 --exact",
            {"model": "reliability", "n": 4, "k": 2, "q": 0.3},
            {"exact": True},
        ),
        (
            "verify --model reliability --n 6 --k 2 --q 0.3 --samples 20000 --seed 7",
            {"model": "reliability", "n": 6, "k": 2, "q": 0.3},
            {"samples": 20000, "seed": 7},
        ),
        (
            "verify --model mixed --two-point 2.5,3.5,0.5",
            {"model": "mixed", "two_point": [2.5, 3.5, 0.5]},
            {},
        ),
        ("verify --model mixed --gamma 17.3,0.41", {"model": "mixed", "gamma": [17.3, 0.41]}, {}),
        (
            "verify --model sums --components 0.7,0.1,0.1,0.1;0.6,0.1,0.3",
            {"model": "sums", "components": [[0.7, 0.1, 0.1, 0.1], [0.6, 0.1, 0.3]]},
            {},
        ),
    ],
)
def test_verify_prints_the_library_report(capsys, argv, model, law):
    # the command adds nothing to the report of cpstein.verify
    m = None if model is None else cpstein.model_from_json(model)
    params = cpstein.CompoundPoissonParams([8.0]) if m is None else m.cp_params()
    report = cpstein.verify(params, m, **law)
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == cli.dumps(report) + "\n"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_runs_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        "runs",
        "--n",
        "50",
        "--p-range",
        "0.05:0.25:3",
        "--format",
        "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["p"]) for r in rows] == pytest.approx([0.05, 0.15, 0.25])
    assert rows[0]["best_method"] == "MONOTONE"
    assert_allclose(float(rows[0]["bx99_m1"]), 10.0, rtol=1e-12)
    assert rows[2]["bx99_applicable"] == "false"
    assert rows[2]["bx99_m1"] == "inf"


def _seeded_sweeps(seed: int) -> list:
    """A runs and a reliability sweep of six rows at parameters drawn from ``seed``."""
    rng = random.Random(seed)
    p0, p1 = rng.uniform(0.01, 0.3), rng.uniform(0.3, 1.0)
    k = rng.choice([2, 3])
    q0, q1 = rng.uniform(0.05, 0.4), rng.uniform(0.4, 0.95)
    runs = ["--model", "runs", "--n", str(rng.randint(3, 500)), "--p-range", f"{p0}:{p1}:6"]
    reliability = ["--model", "reliability", "--n", str(rng.randint(k + 2, 40)), "--k", str(k),
                   "--q-range", f"{q0}:{q1}:6"]
    return [pytest.param(runs, id=f"runs-seed{seed}"),
            pytest.param(reliability, id=f"reliability-seed{seed}")]


@pytest.mark.parametrize(
    "sweep",
    [
        pytest.param(["--model", "runs", "--n", "50", "--p-range", "0.2:0.2:1"], id="runs-point"),
        *_seeded_sweeps(1),
        *_seeded_sweeps(2),
        *_seeded_sweeps(3),
        # the last row takes the THM2(3) route (theta_2 >= 2 theta_1)
        pytest.param(["--model", "reliability", "--n", "30", "--k", "2", "--q-range", "0.1:0.9:8"],
                     id="thm2-route"),
        # no bound is finite (theta_0 = 3.2e4); the model's dk_bound is inf
        # at that infinite m1, and the row prints it as "inf"
        pytest.param(["--model", "reliability", "--n", "200", "--k", "2",
                      "--q-range", "0.95:0.95:1"], id="no-finite-bound"),
    ],
)
def test_sweep_rows_match_bounds(capsys, sweep):
    # every row carries what bounds prints at its point: theta, each catalogue
    # row's applicability and m1 under its method's keys, and the best m1;
    # dk_bound is the model's d_K bound on that m1, "inf" where it is not finite
    code, out, err = run_cli(capsys, "sweep", *sweep)
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert len(rows) == int(sweep[-1].split(":")[-1])
    tag, keys = sweep[1], cpstein.MODELS[sweep[1]].keys
    for row in rows:
        point = ["--model", tag, *(a for k in keys for a in (cli._flag(k), repr(row[k])))]
        code, out, err = run_cli(capsys, "bounds", *point)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        want = {k: row[k] for k in ("model", *keys)}
        want.update(zip(cli._THETA_COLUMNS, doc["theta"]))
        for b in doc["bounds"]:
            want.update(zip(cli._bound_columns(b["method"]), (b["applicable"], b["m1"])))
        want["best_method"], want["best_m1"] = doc["best"]["method"], doc["best"]["m1"]
        m1 = doc["best"]["m1"]
        dk = "inf" if m1 == "inf" else cpstein.model_from_json(want).dk_bound(m1)
        want["dk_bound"], want["vacuous"] = dk, dk == "inf" or dk > 1.0
        assert list(row.items()) == list(want.items())
    if sweep[-1] == "0.1:0.9:8":
        assert "thm2_m1" in rows[-1] and "cor3_m1" not in rows[-1]
    if sweep[-1] == "0.95:0.95:1":
        assert doc["regime"] == "GENERAL_ONLY"
        assert (row["best_m1"], row["dk_bound"], row["vacuous"]) == ("inf", "inf", True)


def test_sweep_error_is_the_first_failing_rows(capsys):
    # row 1 fails the approximant's n > k + 1 before row 3 fails its q check,
    # and row 1 of the second sweep has no positive rate
    argv = ["sweep", "--model", "reliability", "--k", "2"]
    code, out, err = run_cli(capsys, *argv, "--n", "3", "--q-range", "0.5:1.5:3")
    assert (code, out, err) == (2, "", "error: n must exceed k+1\n")
    code, out, err = run_cli(capsys, *argv, "--n", "10", "--q-range", "0:1.5:3")
    assert (code, out, err) == (2, "", "error: at least one rate must be positive\n")
    code, out, err = run_cli(capsys, *argv, "--n", "10", "--q-range", "0.5:1.5:3")
    assert (code, out, err) == (2, "", "error: q must lie in [0, 1]\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "q_range, code",
    [("0.2:0.5:4", 0), ("0.5:1.5:3", 2)],  # a passing sweep, and one whose row 3 raises
)
def test_sweep_leaves_the_collector_as_it_was(capsys, monkeypatch, q_range, code, enabled):
    # the columns are built with the cyclic collector paused, and the sweep
    # leaves it on or off as it found it, also when a row raises
    import gc

    during = []

    def spy(*args, _real=cli._sweep_columns):
        during.append(gc.isenabled())
        return _real(*args)

    monkeypatch.setattr(cli, "_sweep_columns", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got, _, _ = run_cli(capsys, "sweep", "--model", "reliability", "--n", "10", "--k", "2",
                            "--q-range", q_range)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert got == code
    assert after is enabled
    assert during and not any(during)


def test_sweep_reliability(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        "reliability",
        "--n",
        "10",
        "--k",
        "2",
        "--q-range",
        "0.2:0.5:4",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["dk_bound"] > 0
        # independent recomputation of the theta_0 closed form
        q = row["q"]
        assert_allclose(row["theta0"], 81 * q**4, rtol=1e-12)


def test_sweep_requires_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "runs", "--n", "50")
    assert code == 2
    assert "p-range" in err


def test_sweep_takes_runs_and_reliability_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "mixed", "--gamma", "1,1"])
    assert exc.value.code == 2
    assert "invalid choice: 'mixed'" in capsys.readouterr().err


def test_sweep_registers_seven_flags():
    sweep = cli.build_parser()._subparsers._group_actions[0].choices["sweep"]
    flags = {s for a in sweep._actions for s in a.option_strings} - {"-h", "--help"}
    assert flags == {"--model", "--n", "--k", "--p-range", "--q-range", "--format", "--output"}


def test_sweep_row_budget_exit_three(capsys, monkeypatch):
    # refused before any row is built
    monkeypatch.setattr(cli, "_sweep_table", lambda *args: pytest.fail("row built"))
    over = cli.SWEEP_ROW_BUDGET + 1
    code, out, err = run_cli(capsys, "sweep", "--model", "reliability", "--n", "10", "--k", "2",
                             "--q-range", f"0.05:0.8:{over}")
    assert code == 3 and out == ""
    assert err == f"error: --q-range count {over} exceeds budget {cli.SWEEP_ROW_BUDGET} rows\n"
    assert len(cli._parse_range(f"0.05:0.8:{cli.SWEEP_ROW_BUDGET}", "--q-range")) == over - 1


def test_sweep_csv_header_is_union_of_row_keys(capsys):
    # rows 1-7 carry COR3's columns; at q = 0.9 theta_2 >= 2 theta_1, and
    # row 8 carries THM2(3)'s instead
    argv = ["sweep", "--model", "reliability", "--n", "30", "--k", "2",
            "--q-range", "0.1:0.9:8"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    table = list(csv.DictReader(io.StringIO(out)))
    assert list(table[0]) == list(dict.fromkeys(k for row in rows for k in row))
    assert "cor3_m1" not in rows[7] and table[7]["cor3_m1"] == ""
    assert table[7]["thm2_m1"] == cli._csv_cell(rows[7]["thm2_m1"])
    assert table[0]["thm2_m1"] == ""


# ---------------------------------------------------------------------------
# stein-solve and pmf


def test_stein_solve_output(capsys):
    code, out, _ = run_cli(
        capsys, "stein-solve", "--rates", "8", "--y", "3", "--x-max", "60"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["y"] == 3 and doc["x_max"] == 60
    assert doc["residual0"] <= 1e-6
    assert len(doc["f"]) == 61 + 0  # indices 0..x_max at least
    assert doc["f"][0] == 0.0


def test_pmf_exact_model(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--model", "runs", "--n", "3", "--p", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["pmf"] == [0.5, 0.375, 0, 0.125]
    assert doc["tail_mass"] == 0


def test_pmf_approximant(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--model", "runs", "--n", "3", "--p", "0.5", "--law", "approx"
    )
    assert code == 0
    doc = json.loads(out)
    assert_allclose(doc["pmf"][0], math.exp(-sum((3 * 0.25 * 0.25,
                                                  3 * 0.125 * 0.5,
                                                  3 * 0.0625 / 3))), rtol=1e-12)


def test_pmf_rates(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--rates", "0.5,0.25")
    assert code == 0
    doc = json.loads(out)
    assert_allclose(doc["pmf"][0], math.exp(-0.75), rtol=1e-14)
    assert doc["tail_mass"] <= 1e-12


# nu = 3 < sigma^2 in both: the exact law exists, the approximant does not
OVERDISPERSED_MIXED = [["--gamma", "2,1.5"], ["--two-point", "1,5,0.5"]]


@pytest.mark.parametrize("mixing", OVERDISPERSED_MIXED)
def test_pmf_exact_law_needs_no_approximant(capsys, mixing):
    code, out, _ = run_cli(capsys, "pmf", "--model", "mixed", *mixing)
    assert code == 0
    doc = json.loads(out)
    pmf = np.asarray(doc["pmf"], dtype=float)
    assert abs(pmf.sum() + doc["tail_mass"] - 1.0) <= 1e-12
    assert_allclose(np.arange(pmf.size) @ pmf, 3.0, rtol=1e-9)


@pytest.mark.parametrize("mixing", OVERDISPERSED_MIXED)
@pytest.mark.parametrize("command", [["pmf", "--law", "approx"], ["verify"]])
def test_undefined_approximant_is_a_usage_error(capsys, mixing, command):
    code, out, err = run_cli(capsys, *command, "--model", "mixed", *mixing)
    assert code == 2
    assert out == ""
    assert err == "error: approximant undefined (lambda_1 < 0)\n"


# ---------------------------------------------------------------------------
# exit codes and output handling


def test_usage_error_bad_rates(capsys):
    code, _, err = run_cli(capsys, "pmf", "--rates", "0")
    assert code == 2
    assert "positive" in err


def test_parser_reused_after_rejected_call(capsys):
    cli._parser.cache_clear()
    first = run_cli(capsys, "bounds", "--rates", "1,0.2")
    parser = cli._parser()
    with pytest.raises(SystemExit):
        main(["bounds", "--rates", "1,0.2", "--no-such-flag"])
    capsys.readouterr()
    assert run_cli(capsys, "bounds", "--rates", "1,0.2") == first
    assert cli._parser() is parser


# every golden command line, then malformed and edge ones, each with the
# number of times main calls the full parser's parse_known_args on it
GOLDEN = [
    (shlex.split(command), 0)
    for command in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
]
EDGES = [
    ([], 1),
    (["-h"], 1),
    (["--help"], 1),
    (["-h", "bounds"], 1),
    (["bounds", "-h"], 0),
    (["verify", "--rates", "1", "-h"], 0),
    (["boundz", "--rates", "1"], 1),
    (["--rates", "1", "bounds"], 1),
    (["--", "bounds", "--rates", "1"], 1),
    (["bounds", "--rates", "1", "--no-such-flag"], 1),
    (["bounds", "--rates", "1", "extra"], 1),
    (["bounds", "--rates", "8", "--y", "3"], 1),
    (["bounds", "--rat", "1"], 1),
    (["bounds", "--rates"], 0),
    (["bounds", "--model", "nope"], 0),
    (["pmf", "--rates", "1", "--law", "both"], 0),
    (["stein-solve", "--rates", "8", "--y", "abc"], 0),
    (["bounds", "--rates=1.5"], 0),
    (["bounds", "--rates", "1", "--rates", "2"], 0),
    (["bounds", "--", "--rates", "1"], 1),
    (["bounds", "--rates", "1", "--"], 1),
    (["bounds", "--rates", "-1"], 0),
    (["sweep", "--model", "reliability", "--n", "10", "--k", "2", "--q-range",
      f"0.05:0.8:{cli.SWEEP_ROW_BUDGET + 1}"], 0),
]


def _outcome(capsys, call):
    """What ``call()`` returns, or ("exit", code) of the SystemExit it raises,
    with what it printed to stdout and to stderr."""
    try:
        result = call()
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv,full_calls", GOLDEN + EDGES,
                         ids=[shlex.join(argv) for argv, _ in GOLDEN + EDGES])
def test_command_parser_parses_as_the_full_parser(capsys, monkeypatch, argv, full_calls):
    # main hands a command's words to the parser the full parser would hand
    # them to; the namespace differs only in the full parser's "command", and
    # every other line goes to the full parser, which prints every usage
    # error and help text
    parser = cli._parser()
    full = _outcome(capsys, lambda: parser.parse_args(argv))
    calls = []

    def counting(*args, _real=parser.parse_known_args):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(parser, "parse_known_args", counting)
    own = _outcome(capsys, lambda: cli._parse(argv))
    assert len(calls) == full_calls
    if isinstance(full[0], argparse.Namespace):
        assert vars(full[0]).pop("command") == argv[0]
        assert vars(own[0]) == vars(full[0]) and own[1:] == full[1:] == ("", "")
    else:
        assert own == full
    monkeypatch.setattr(cli, "_parse", parser.parse_args)
    full = _outcome(capsys, lambda: main(argv))
    monkeypatch.undo()
    assert _outcome(capsys, lambda: main(argv)) == full


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--samples", "20000"], ["--exact"]])
@pytest.mark.parametrize("command", ["bounds", "sweep", "stein-solve", "verify", "pmf"])
def test_law_flags_only_on_verify_and_pmf(capsys, command, flag):
    # the exact-law flags are registered only where a command reads them
    base = {
        "sweep": ["--model", "runs", "--n", "50", "--p-range", "0.1:0.2:2"],
        "verify": ["--model", "reliability", "--n", "4", "--k", "2", "--q", "0.3"],
    }
    base["pmf"] = base["verify"]
    argv = [command, *base.get(command, ["--rates", "1"]), *flag]
    if command in ("verify", "pmf"):
        assert run_cli(capsys, *argv)[0] == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


# model input a command would drop, and abbreviated flags
DROPPED_INPUT = [
    ("bounds --rates 5 --model runs --n 30 --p 0.15", "runs model does not take --rates"),
    ("stein-solve --model runs --n 30 --p 0.15 --rates 5 --y 1",
     "runs model does not take --rates"),
    ("bounds --model runs --n 30 --p 0.15 --q 0.3", "runs model does not take --q"),
    ("bounds --rates 5 --n 3", "--rates input does not take --n"),
    ("pmf --model mixed --two-point 1,5,0.5 --gamma 2,1",
     "mixed model takes only one of --two-point and --gamma"),
    ("sweep --model runs --n 50 --k 2 --p-range 0.1:0.2:2", "runs sweep does not take --k"),
    ("sweep --model reliability --n 10 --k 2 --q-range 0.2:0.5:4 --p-range 0.1:0.2:2",
     "reliability sweep does not take --p-range"),
    ("bounds --rate 5", "unrecognized arguments: --rate 5"),
    ("verify --rates 8 --sampl 20000 --exa", "unrecognized arguments: --sampl 20000 --exa"),
    ("sweep --model runs --n 50 --p 0.3 --p-range 0.1:0.2:2", "unrecognized arguments: --p 0.3"),
    # law flags no law reads
    ("pmf --rates 2 --law exact", "--rates input does not take --law"),
    ("verify --rates 8 --exact", "--rates input does not take --exact"),
    ("verify --model runs --n 30 --p 0.15 --samples 5 --seed 3 --exact",
     "runs model does not take --seed"),
    ("verify --model mixed --gamma 2,0.5 --samples 5", "mixed model does not take --samples"),
    ("pmf --model reliability --n 4 --k 2 --q 0.3 --law approx --samples 20000",
     "--law approx does not take --samples"),
    ("pmf --model reliability --n 4 --k 2 --q 0.3 --exact --samples 5 --seed 9",
     "--exact does not take --seed"),
    ("verify --model reliability --n 4 --k 2 --q 0.3 --exact --samples 20000",
     "--exact does not take --samples"),
]


@pytest.mark.parametrize("command,message", DROPPED_INPUT)
def test_dropped_input_is_refused(capsys, command, message):
    try:
        code = main(command.split())
    except SystemExit as exc:  # argparse: an unknown flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err


# (argv, exit code, message): tables past the truncation cap, a Monte Carlo
# law past its cell budget, an exact law past its cost budget, a Stein
# solution past the largest double (off 3Z or 2Z it has no x = 0 anchor and
# grows like e^lambda), non-finite model input, integers past the float
# range, and sweep ranges and Monte Carlo laws the parser passes but the
# command refuses
BIG = 10**400  # an integer past the float range, which --n and --y accept
NINES = "9" * 4300  # the most digits int() parses: y + 20 has more than str() prints
REFUSED = [
    ("pmf --model mixed --gamma 1e8,10", 3, "truncation cap exceeded"),
    ("pmf --model mixed --gamma 1e5,10", 3, "truncation cap exceeded"),
    ("pmf --model mixed --two-point 1e9,2,0.5", 3, "truncation cap exceeded"),
    ("pmf --model mixed --two-point 1e8,10,0.5", 3, "truncation cap exceeded"),
    ("pmf --model mixed --two-point 1e300,1e300,0.5", 3, "truncation cap exceeded"),
    ("pmf --model reliability --n 100 --k 2 --q 0.3", 3, "exceeds budget 200000000"),
    ("verify --model reliability --n 300 --k 2 --q 0.3", 3, "exceeds budget 200000000"),
    ("pmf --model reliability --n 20000 --k 2 --q 0.3 --exact", 3, "exceeds budget 60000000"),
    (f"bounds --model reliability --n {BIG} --k 2 --q 0.5", 2, "n must not exceed"),
    # u^2 and k^2 of the approximant pass the float range: its rates are inf or nan
    (f"bounds --model reliability --n {10**160} --k 2 --q 0.5", 2, "every rate must be finite"),
    (f"sweep --model reliability --n {10**300} --k {10**160} --q-range 0.1:0.5:2", 2,
     "every rate must be finite"),
    (f"stein-solve --rates 1 --y {BIG}", 3, "exceeds budget 4000000 points"),
    (f"stein-solve --rates 1 --y -{BIG}", 2, "y must be >= 0"),
    (f"stein-solve --rates 1 --y {NINES}", 3, "of 4301 digits exceeds budget 4000000 points"),
    ("pmf --model reliability --n 6 --k 2 --q 0.3 --samples 10000 --seed -1", 2,
     "seed must be >= 0"),
    ("pmf --model reliability --n 6 --k 2 --q 0.3 --samples 100", 2, "samples must be >= 10000"),
    ("sweep --model runs --n 50 --p-range 0.1:0.2:0", 2, "count must be >= 1"),
    ("sweep --model runs --n 50 --p-range x:0.2:3", 2, "malformed --p-range"),
    ("verify --rates 0,0,1000", 3, "Stein solution passes the largest double"),
    ("verify --rates 0,1000", 3, "Stein solution passes the largest double"),
    ("pmf --model sums --components 0.5,0.5;nan", 2, "must be nonempty, finite and nonnegative"),
    ("pmf --model mixed --gamma inf,1", 2, "shape and scale must be finite and positive"),
    ("pmf --model mixed --two-point inf,1,0.5", 2, "mixing values must be finite and positive"),
]


@pytest.mark.parametrize("command,code,message", REFUSED)
def test_refused_with_one_error_line(capsys, command, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        got = main(command.split())
    out, err = capsys.readouterr()
    assert got == code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["bounds", "verify", "pmf"])
@pytest.mark.parametrize(
    "mixing",
    ["--two-point 1e200,1,0.5", "--two-point 1e200,1,0", "--two-point 1e300,1,0", "--gamma 3,1e200"],
)
def test_mixing_moments_past_the_largest_double(capsys, command, mixing):
    # (a - b)^2 or scale^2 passes the largest double here, even where a has
    # weight 0: each command answers or refuses in one line
    code = main([command, "--model", "mixed", *mixing.split()])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# one grid of extreme inputs, run through main under bounds, verify and pmf
EXTREMES = ["1e-300", "1e-12", "1e-8", "0.5", "3", "1e3", "1e8", "1e200", "1e300", "1e308"]
PROBABILITIES = ["0", "1e-300", "1e-9", "0.3", "0.999999", "1"]


def _extreme_inputs(command):
    mixed = [f"--two-point {a},{b},{w}" for a in EXTREMES for b in EXTREMES for w in (0, 0.5, 1)]
    mixed += [f"--gamma {a},{s}" for a in EXTREMES for s in EXTREMES]
    runs = [f"--n {n} --p {p}" for n in (1, 2, 3, 60, 5000, BIG) for p in PROBABILITIES]
    grids = [
        f"--n {n} --k {k} --q {q}" for n in (2, 4, 30) for k in (1, 2, 3) for q in PROBABILITIES
    ]
    laws = [""] if command == "bounds" else ["--exact", "--samples 10000"]
    return (
        [f"{command} --model mixed {m}" for m in mixed]
        + [f"{command} --model runs {r}" for r in runs]
        + [f"{command} --model reliability {g} {law}" for g in grids for law in laws]
    )


@pytest.mark.parametrize("command", ["bounds", "verify", "pmf"])
def test_extreme_inputs_answer_or_refuse_in_one_line(capsys, command):
    # exit 1 (a failed verification) is allowed here: a verdict the accuracy
    # does not support is another matter than a crash or a warning
    bad = []
    for line in _extreme_inputs(command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(line.split())
            except BaseException as exc:  # noqa: BLE001 - every escape is a finding
                code = repr(exc)
        out, err = capsys.readouterr()
        one_line = out == "" and err.startswith("error: ") and err.count("\n") == 1
        if code not in (0, 1, 2, 3) or caught or (code in (2, 3) and not one_line):
            bad.append((line, code, [str(w.message) for w in caught], err[:200]))
    assert bad == []


def test_gamma_mixture_near_a_point_mass_matches_mpmath(capsys):
    # at shape r = 1e-300, x/m = r/m in the deviance bd0(r, m), m = n/(1 + scale),
    # is below rounding, where exact._bd0 takes the limit m; the law is all but
    # a point mass at 0
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "pmf", "--model", "mixed", "--gamma", "1e-300,1")
    assert code == 0 and err == ""
    pmf = json.loads(out)["pmf"]
    assert len(pmf) == 17 and pmf[0] == 1.0  # x_max 16, cp_pmf's floor
    with mpmath.workdps(30):
        r, succ = mpmath.mpf(1e-300), mpmath.mpf(0.5)  # succ = 1/(1 + scale)
        want = [
            float(mpmath.rf(r, x) / mpmath.factorial(x) * succ**r * (1 - succ) ** x)
            for x in range(len(pmf))
        ]
    assert_allclose(pmf, want, rtol=1e-12)


@pytest.mark.parametrize("two_point", ["1e8,1,0", "1,1e8,1"])
def test_mixed_intensity_of_weight_zero_is_left_out(capsys, two_point):
    # W ~ Poisson(1): the intensity 1e8 has weight 0, and its table, past
    # the cap, is never asked for
    code, out, err = run_cli(capsys, "pmf", "--model", "mixed", "--two-point", two_point)
    assert code == 0 and err == ""
    want = core.cp_pmf(core.CompoundPoissonParams([1.0]))
    assert json.loads(out) == {"pmf": want.pmf.tolist(), "tail_mass": want.tail_mass}
    code, out, err = run_cli(capsys, "verify", "--model", "mixed", "--two-point", two_point)
    assert code == 0 and err == ""
    assert json.loads(out)["pass"] is True


def test_usage_error_missing_input(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "--rates or --model" in err


def test_usage_error_malformed_floats(capsys):
    code, _, err = run_cli(capsys, "bounds", "--rates", "1.0,abc")
    assert code == 2
    assert "malformed" in err


def test_budget_error_exit_three(capsys):
    code, _, err = run_cli(capsys, "pmf", "--model", "runs", "--n", "5000", "--p", "0.1")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("extra", [["--y", "1000000000000"], ["--y", "1", "--x-max", "100000000"]])
def test_stein_solve_budget_exit_three(capsys, extra):
    code, out, err = run_cli(capsys, "stein-solve", "--rates", "1", *extra)
    assert code == 3 and out == ""
    assert "exceeds budget 4000000 points" in err


def test_reliability_exact_budget_exit_three(capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--model",
        "reliability",
        "--n",
        "12",
        "--k",
        "2",
        "--q",
        "0.3",
        "--exact",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("k,q", [("2", "0.3"), ("3", "0.4")])
def test_verify_reliability_exact_n5(capsys, k, q):
    # n = 5 has 2^25 failure patterns; the transfer matrix takes milliseconds
    code, out, _ = run_cli(
        capsys, "verify", "--model", "reliability", "--n", "5", "--k", k, "--q", q, "--exact"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["distance"]["mc_stderr"] == 0


def test_output_file_atomic(tmp_path, capsys):
    # a whole payload, a sweep written row by row whose rows have two shapes
    # (THM2(3) in the last row, COR3 in the others), in JSON and CSV, and a
    # CSV written record by record: the file holds the bytes stdout gets
    sweep = ["sweep", "--model", "reliability", "--n", "30", "--k", "2",
             "--q-range", "0.1:0.9:8"]
    target = tmp_path / "out"
    for argv in (["bounds", "--rates", "1.0,0.2"], sweep, [*sweep, "--format", "csv"],
                 ["pmf", "--rates", "2,1", "--format", "csv"]):
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""  # nothing on stdout when writing to a file
        _, direct, _ = run_cli(capsys, *argv)
        assert target.read_bytes() == direct.encode()
        assert not list(tmp_path.glob("*.tmp.*"))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_printer_holds_one_row(tmp_path, fmt):
    # printing a 5 000-row sweep adds less than 1 MiB to the peak of building
    # its columns: the printer holds a row at a time, not a copy of the output
    # (about 3.5 MB of JSON or 1.3 MB of CSV here)
    q_range = "0.05:0.8:5000"
    argv = ["sweep", "--model", "reliability", "--n", "10", "--k", "2", "--q-range", q_range,
            "--format", fmt, "--output", str(tmp_path / "out")]
    values = cli._parse_range(q_range, "--q-range")
    assert main(argv) == 0  # fills the parser's and the catalogue's caches
    tracemalloc.start()
    try:
        cli._sweep_table({"model": "reliability", "n": 10, "k": 2}, "q", values)
        columns = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        printed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert printed <= columns + 2**20, (printed, columns)


@pytest.mark.parametrize("target", ["missing/out.json", "taken"])
def test_output_unwritable_exit_two(tmp_path, capsys, target):
    # a missing directory fails at the temporary file, a directory as the
    # target at the rename; neither leaves the temporary behind
    (tmp_path / "taken").mkdir()
    path = tmp_path / target
    code, out, err = run_cli(capsys, "bounds", "--rates", "1.0,0.2", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_mc_seed_flag_changes_output(capsys):
    args = ["pmf", "--model", "reliability", "--n", "4", "--k", "2", "--q", "0.3",
            "--samples", "20000"]
    _, a, _ = run_cli(capsys, *args, "--seed", "1")
    _, b, _ = run_cli(capsys, *args, "--seed", "2")
    _, a2, _ = run_cli(capsys, *args, "--seed", "1")
    assert a != b
    assert a == a2


def fmt_float_17g(x):
    return format(x, ".17g") if math.isfinite(x) else f'"{x}"'


def dumps_recursive(obj, indent=0):
    """The JSON emitter as first written: an isinstance chain and one
    recursive call per value."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float_17g(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dumps_recursive(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            body = f",\n{inner}".join(map(fmt_float_17g, obj))
        else:
            body = f",\n{inner}".join(dumps_recursive(v, indent + 1) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


EMITTER_PAYLOADS = [
    {},
    [],
    {"a": {}, "b": [], "c": {"d": [1, [2.5, {}], {"e": []}]}, "f": ({"g": (0.1, 2)},)},
    [math.inf, -math.inf, math.nan, 1.0, -0.0, 5e-324, 1.7976931348623157e308],
    {"inf": math.inf, "ninf": -math.inf, "nan": math.nan, "list": [0.1, math.inf]},
    {"t": True, "f": False, "one": 1, "zero": 0, "none": None, "l": [True, 1, False, 0, None]},
    {"s": 'quote " and back\\slash', "l": ['\\"', "", "plain"], 'k"ey': "v"},
    {"x": 0.1, "y": math.inf, "z": [2.5, 0.3, -1e-300]},
    [1.0, 2],
    [0.1, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-310, 1e16, 123456789.125] * 40,
    [1e308, 1e308, 0.5],  # finite, but their sum overflows
    {"f": [1.0, 2.0, 3.0], "g": [[0.25, -1e-300], [True, 1.5], [1, 2.0], ["a", 0.5]]},
    (1, "two", 3.0),
    math.nan,
    "top-level string",
    7,
    None,
]


@pytest.mark.parametrize("payload", EMITTER_PAYLOADS)
def test_dumps_bytes_equal_recursive_emitter(payload):
    assert cli.dumps(payload) == dumps_recursive(payload)
    assert cli.dumps(payload, 3) == dumps_recursive(payload, 3)


@pytest.mark.parametrize(
    "value",
    [np.int64(3), {1, 2}, np.bool_(True), object(), b"bytes",
     np.float64(0.1), np.float64(math.inf), np.float64(math.nan)],
)
def test_dumps_rejects_unsupported_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli.dumps(value)
    with pytest.raises(TypeError, match="cannot serialize"):
        cli.dumps({"nested": [1.0, {"deeper": value}]})


def test_float_format_17g_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "bounds", "--rates", "0.1,0.2")
    doc = json.loads(out)
    # 17 significant digits reproduce the double exactly
    assert doc["theta"][0] == 0.1 + 2 * 0.2


# ---------------------------------------------------------------------------
# THM4 delta underflow (2 theta_1 - theta_0 > 473) and start-up imports


def test_bounds_thm4_delta_underflow(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--rates", "151.36,71.0009,54.0361")
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"][4]["method"] == "THM4"
    assert doc["bounds"][4]["applicable"] is False


@pytest.mark.parametrize(
    "rates,applicable",
    [("5e307,0,5e307", ["GENERAL"]), ("1.7e308,4e307", ["GENERAL", "MONOTONE"])],
)
def test_bounds_non_finite_theta(capsys, monkeypatch, rates, applicable):
    # theta overflows to inf: reported as such, with no enclosure run and
    # no warning or error on stderr
    from cpstein import bounds

    def forbidden(*args, **kwargs):
        raise AssertionError("enclosure entered")

    monkeypatch.setattr(bounds, "_bernstein_factors", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "bounds", "--rates", rates)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert "inf" in doc["theta"]
    assert doc["regime"] == "GENERAL_ONLY"
    assert [b["method"] for b in doc["bounds"] if b["applicable"]] == applicable
    notes = {b["method"]: b["note"] for b in doc["bounds"]}
    assert notes["BX99"] == notes["COR3"] == notes["THM4"] == "theta not finite"


def test_bounds_cor3_delta_past_the_double_range_in_its_terms(capsys):
    # theta is finite and theta_2 < 2 theta_1, but 2 theta_2 overflows in the
    # order-3 closed form, whose value is about 1.48e307
    rates = ("1.798803455810564e+307,2.1388503440218942e+306,"
             "5.370697911693372e+306,3.747972106988163e+306")
    code, out, err = run_cli(capsys, "bounds", "--rates", rates)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["regime"] == "COR3_OK"
    cor3 = doc["bounds"][3]
    assert cor3["method"] == "COR3" and cor3["applicable"] is True
    assert cor3["note"] == "delta = 1.48305e+307 (closed form)"
    assert doc["best"]["method"] == "COR3"


def test_sweep_reliability_thm4_delta_underflow(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "reliability", "--n", "30", "--k", "2",
        "--q-range", "0.1:0.9:8",
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 8


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter with cpstein's sources on
    PYTHONPATH, so the modules it lists are the ones the code loaded."""
    src = os.path.dirname(os.path.dirname(cpstein.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return res.stdout


def test_import_leaves_out_scipy_stats_and_integrate():
    # scipy is a test extra: importing the package loads no scipy module at all
    out = _fresh_python(
        "import sys, cpstein, cpstein.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


# every model, the gamma mixing included: no command loads scipy
_SCIPY_FREE_COMMANDS = [
    ["bounds", "--rates", "1.0,0.2"],
    ["sweep", "--model", "runs", "--n", "50", "--p-range", "0.05:0.45:5"],
    ["verify", "--model", "runs", "--n", "30", "--p", "0.15"],
    ["verify", "--rates", "5.3"],
    ["stein-solve", "--rates", "1.0,0.2", "--y", "2"],
    ["pmf", "--rates", "800"],
    ["verify", "--model", "reliability", "--n", "5", "--k", "2", "--q", "0.3", "--exact"],
    ["pmf", "--model", "reliability", "--n", "10", "--k", "2", "--q", "0.3", "--samples", "10000"],
    ["verify", "--model", "sums", "--components", "0.6,0,0.4;0.6,0,0.4"],
    ["bounds", "--model", "mixed", "--gamma", "2,0.5"],
    ["verify", "--model", "mixed", "--gamma", "2,0.5"],
    ["pmf", "--model", "mixed", "--gamma", "2,0.5"],
    ["verify", "--model", "mixed", "--gamma", "5e3,0.01"],
]


def test_commands_leave_out_scipy():
    # GammaMixing.abs3 sums P(a+1, a) itself, so gamma bounds and verify
    # load no scipy either; poisson_stein_forward, a test reference, is
    # called last to show that the check sees scipy.special when it loads
    out = _fresh_python(
        "import contextlib, io, sys, cpstein, cpstein.cli\n"
        f"for argv in {_SCIPY_FREE_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cpstein.cli.main(argv)\n"
        "    print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "cpstein.oracle.poisson_stein_forward(2.0, 3, 10)\n"
        "print('scipy.special' in sys.modules)"
    )
    *plain, reference = out.strip().splitlines()
    assert plain == ["0 []"] * len(_SCIPY_FREE_COMMANDS)
    assert reference == "True"


def test_two_point_mixed_pmf_leaves_out_scipy():
    # the two-point law is cp_pmf's recursion: no scipy.special, no pdtr
    out = _fresh_python(
        "import contextlib, io, sys, cpstein.cli\n"
        "argv = ['pmf', '--model', 'mixed', '--two-point', '2.5,3.5,0.5']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cpstein.cli.main(argv)\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "0 []"


def test_gamma_mixed_pmf_leaves_out_scipy():
    # the negative binomial is Loader's kernel cut by a ratio bound: no betainc
    out = _fresh_python(
        "import contextlib, io, sys, cpstein.cli\n"
        "argv = ['pmf', '--model', 'mixed', '--gamma', '17.3,0.41']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cpstein.cli.main(argv)\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "0 []"


# closed-form bounds and sweeps, which never need numpy
_NUMPY_FREE_COMMANDS = [
    ["bounds", "--rates", "1.0,0.2"],
    ["bounds", "--rates", "8"],  # constant criterion
    ["bounds", "--rates", "5,0,0"],
    ["bounds", "--model", "runs", "--n", "50", "--p", "0.45"],
    ["bounds", "--model", "reliability", "--n", "10", "--k", "2", "--q", "0.3"],
    ["sweep", "--model", "runs", "--n", "50", "--p-range", "0.05:0.45:5"],
    ["sweep", "--model", "reliability", "--n", "10", "--k", "2", "--q-range", "0.05:0.8:256"],
]


def test_closed_form_commands_leave_out_numpy():
    # numpy loads on first use; the oracle's verify at the end shows that the
    # check sees it when it does load
    out = _fresh_python(
        "import contextlib, io, sys, cpstein, cpstein.cli\n"
        "print('numpy' in sys.modules)\n"
        f"for argv in {_NUMPY_FREE_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cpstein.cli.main(argv)\n"
        "    print(code, 'numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cpstein.cli.main(['verify', '--rates', '5.3'])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    imported, *plain, verify = out.strip().splitlines()
    assert imported == "False"
    assert plain == ["0 False"] * len(_NUMPY_FREE_COMMANDS)
    assert verify == "0 True"


# ---------------------------------------------------------------------------
# total rates beyond a one-sided Stein recursion and e^{-lambda}


def test_verify_rates_50_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rates", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert 0.0 < doc["empirical"]["m0_hat"] < 0.1


@pytest.mark.parametrize("rates", ["0,0.6", "0,0,0.8", "0,1.6"])
def test_lattice_rates_solve_and_verify(capsys, rates):
    # U on 2Z or 3Z, floor(theta_0) off the lattice
    code, out, _ = run_cli(capsys, "stein-solve", "--rates", rates, "--y", "2")
    assert code == 0
    assert json.loads(out)["residual0"] <= 1e-14
    code, out, _ = run_cli(capsys, "verify", "--rates", rates)
    assert code == 0
    assert 0.0 < json.loads(out)["empirical"]["m0_hat"] < 1.0


def test_stein_solve_large_rate_residuals(capsys):
    code, out, _ = run_cli(capsys, "stein-solve", "--rates", "121.92", "--y", "113")
    assert code == 0
    doc = json.loads(out)
    lam, y, eh_u = 121.92, doc["y"], doc["eh_u"]
    f = np.asarray(doc["f"])
    x = np.arange(1, doc["x_max"])  # interior: x + 1 <= x_max
    res = (x <= y) - eh_u - (lam * f[x + 1] - x * f[x])
    assert np.max(np.abs(res)) <= 1e-9
    assert doc["residual0"] <= 1e-9


def test_pmf_rates_800_mass_and_mean(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--rates", "800")
    assert code == 0
    doc = json.loads(out)
    pmf = np.asarray(doc["pmf"])
    assert abs(math.fsum(doc["pmf"]) - 1.0) <= 1e-12
    assert doc["tail_mass"] <= 1e-12
    assert_allclose(np.dot(np.arange(pmf.size), pmf), 800.0, rtol=1e-9)


def test_pmf_mass_shortfall_exit_three(capsys, monkeypatch):
    # a table that cannot reach its mass (here: started from e^{-800} = 0)
    # is refused with the budget exit code, not printed as zeros
    monkeypatch.setattr(core, "LOG_P0_FLOOR", math.inf)
    code, out, err = run_cli(capsys, "pmf", "--rates", "800")
    assert code == 3
    assert out == ""
    assert "mass target" in err


@pytest.mark.parametrize("total", [1e-300, 1.0, 1e5, 1e10, 1e300, 1e308])
def test_commands_over_the_full_rate_range(capsys, total):
    # every command ends in an answer, a failed inequality or a refused
    # budget: no traceback, and no usage error for a valid --rates
    for rates in ([total], [0.75 * total, 0.25 * total]):
        arg = ",".join(map(repr, rates))
        for command in (["bounds"], ["verify"], ["pmf"], ["stein-solve", "--y", "3"]):
            code, out, err = run_cli(capsys, command[0], "--rates", arg, *command[1:])
            assert code in (0, 1, 3), (command, arg, err)
            assert (out == "") == (code == 3), (command, arg)
            assert code != 3 or err.startswith("error: "), (command, arg, err)


def test_oracle_leaves_out_scipy_linalg():
    # the banded elimination is plain numpy: no LAPACK import, no BLAS threads
    out = _fresh_python(
        "import sys, cpstein\n"
        "cpstein.empirical_factors(cpstein.CompoundPoissonParams([80.0]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'linalg']))"
    )
    assert out.strip() == "[]"
