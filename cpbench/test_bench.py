"""Tests of the benchmark's own parts: job generator, output checks, tail rule.

    python3 -m pytest cpbench
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_job_list_is_a_function_of_workload_and_seed(workload):
    jobs = workloads.make_jobs(workload, 7, 3)
    assert jobs == workloads.make_jobs(workload, 7, 3)
    assert jobs != workloads.make_jobs(workload, 8, 3)
    spec = workloads.WORKLOADS[workload]
    assert Counter(j.cls for j in jobs) == {cls: 3 * n for cls, n, _ in spec.classes}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_job_has_parameters_of_its_own(workload):
    jobs = workloads.make_jobs(workload, 7, 20)
    warm = workloads.warmup_jobs(workload, 7)
    warmup = {next(warm).argv for _ in range(3 * len(workloads.WORKLOADS[workload].classes))}
    argvs = {j.argv for j in jobs}
    assert len(argvs) == len(jobs)
    assert not argvs & warmup


def _pmf_output(pmf: list[float], tail: float) -> str:
    return json.dumps({"pmf": pmf, "tail_mass": tail})


def test_check_accepts_a_correct_pmf():
    lam = 3.0
    pmf = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(60)]
    job = Job("pmf", ("pmf", "--rates", "3"), lam)
    assert checks.check(job, 0, _pmf_output(pmf, max(0.0, 1.0 - math.fsum(pmf)))) is None


def test_check_rejects_an_all_zero_pmf_that_exits_0():
    job = Job("pmf-huge", ("pmf", "--rates", "800"), 800.0)
    assert checks.check(job, 0, _pmf_output([0.0] * 1095, 1.0)) is not None


def test_check_rejects_a_pmf_with_excess_mass():
    pmf = [0.5, 0.5026]
    job = Job("pmf", ("pmf", "--rates", "0.5"), 0.5026)
    assert checks.check(job, 0, _pmf_output(pmf, 0.0)) is not None


def test_check_rejects_a_failed_verify():
    job = Job("verify", ("verify", "--rates", "50"))
    assert checks.check(job, 0, json.dumps({"pass": False})) is not None
    assert checks.check(job, 1, json.dumps({"pass": False})) is not None
    assert checks.check(job, 0, json.dumps({"pass": True})) is None


def test_check_rejects_a_best_bound_that_is_not_the_minimum():
    rows = [
        {"m0": 2.0, "m1": 1.0, "applicable": True},
        {"m0": 1.0, "m1": 3.0, "applicable": True},
        {"m0": "inf", "m1": "inf", "applicable": False},
    ]
    job = Job("bounds", ("bounds", "--rates", "5"))
    good = {"bounds": rows, "best": {"m0": 1.0, "m1": 1.0}}
    bad = {"bounds": rows, "best": {"m0": 1.0, "m1": 3.0}}
    assert checks.check(job, 0, json.dumps(good)) is None
    assert checks.check(job, 0, json.dumps(bad)) is not None


def test_check_counts_sweep_rows():
    row = {"bx99_applicable": True, "bx99_m1": 2.0, "thm4_applicable": False,
           "thm4_m1": "inf", "best_m1": 2.0}
    job = Job("sweep-runs", ("sweep", "--model", "runs", "--n", "50", "--p-range", "0.1:0.2:3"))
    assert checks.check(job, 0, json.dumps({"rows": [row] * 3})) is None
    assert checks.check(job, 0, json.dumps({"rows": [row] * 2})) is not None


@pytest.mark.parametrize("n", [21, 22, 57, 1000])
def test_tail_keeps_ten_samples_beyond_and_never_falls_below_the_median(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    pct, value = run.tail(values)
    assert sum(v > value for v in values) == run.MIN_BEYOND
    assert value >= statistics.median(values)
    assert pct == pytest.approx(100.0 * (n - run.MIN_BEYOND) / n)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        run.tail([float(i) for i in range(2 * run.MIN_BEYOND)])


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
