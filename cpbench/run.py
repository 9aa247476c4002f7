"""Benchmark for cpstein: one closed-loop client calling ``cli.main`` in-process.

    python3 cpbench/run.py --workload rates-heavy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cpstein is imported from ``src/``.
The run

1. measures set-up time: import cpstein plus job generation, in fresh
   interpreters started one at a time (``--trace 1``: ``-X importtime``);
2. imports cpstein, generates the job list of (workload, seed) and runs
   warm-up jobs, on parameters of their own, for WARMUP_S seconds;
3. runs every job once, in order, with stdout and stderr captured, timing
   each ``cli.main(argv)`` call and checking its output afterwards, then
   timing one pass of a fixed calibration kernel.

Times are given at a nominal host speed: the raw times are divided, and the
rate multiplied, by a host factor, the median time of the calibration kernel
over CAL_NOMINAL_S.  Job metrics use the kernel passes after each job;
``setup_s`` uses SETUP_CAL_PASSES passes after each set-up interpreter.  Code
that gets faster lowers the raw times and leaves the factor as it was; a host
that gets slower raises both.

``--seconds`` sets the run's length in jobs, not in time: a workload's round
has a nominal cost, and a run holds ``seconds / cost`` rounds.  Parent and
change therefore time the same jobs and the tail is the same percentile.

With ``--trace 1`` every second job of each class runs with spans around
cpstein's public functions and the per-layer metrics are reported, including
the difference between the traced and untraced median job time.

The last line of stdout is the result: ``correct`` (every job's output went
through its check), ``attempted``, ``failed`` (jobs that exited non-zero,
crashed, or whose output broke an invariant; each is listed by argv above the
result) and ``metrics``.  Failures are counted, never dropped: ``ok_frac``
carries them into the end-to-end metrics.  A fuller report, with the sample
count of each metric, the tail percentile, where each job class falls in the
run's cost order, the time of every job in run order (which shows how the
host's speed drifted during the run), and the versions of Python, numpy and
scipy, goes to ``cpbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5
SETUP_CAL_PASSES = 100  # calibration passes after each set-up interpreter
IMPORTTIME_SAMPLES = 3
WARMUP_S = 2.0
MIN_BEYOND = 10  # samples above the reported tail percentile

# On a shared host a vCPU's speed drifts over seconds to minutes between
# states up to 1.6 times apart, and the drift slows every job of a run alike:
# raw median job times of ten runs spread by 30-40 % of their median.  A fixed
# calibration kernel, timed after every job, tracks it: over runs, the log of
# its median correlated 0.95-0.97 with the log of the median job time.  All
# times are reported at the host speed at which the kernel's median is
# CAL_NOMINAL_S (about its median on the 2-vCPU Xeon KVM guest where the
# benchmark was defined); the raw values and the factors go to the report.
CAL_NOMINAL_S = 4.5e-4

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
_EXACT_LAWS = (
    "runs_exact_pmf",
    "reliability_exact_pmf",
    "reliability_mc_pmf",
    "mixed_exact_pmf",
    "sums_exact_pmf",
    "distance",
)
PER_LAYER = {
    "import.cpstein_s": "s",
    "import.scipy_stats_s": "s",
    **{f"{layer}.{kind}": unit for layer in ("cli", "core", "bounds", "oracle", "models", "exact")
       for kind, unit in (("self_s", "s"), ("share", "ratio"))},
    "core.cp_pmf.calls": "count",
    "core.cp_pmf.busy_s": "s",
    "core.cp_pmf.p50_s": "s",
    "core.theta.calls": "count",
    "oracle.empirical_factors.calls": "count",
    "oracle.empirical_factors.busy_s": "s",
    "oracle.empirical_factors.p50_s": "s",
    "oracle.solve_stein.busy_s": "s",
    "oracle.x_max_p50": "points",
    "oracle.errors": "count",
    "bounds.evaluate_all.calls": "count",
    "bounds.evaluate_all.busy_s": "s",
    "bounds.delta_k_grid.calls": "count",
    "bounds.delta_k_grid.busy_s": "s",
    "models.cp_params_for.busy_s": "s",
    "models.GammaMixing.abs3.busy_s": "s",
    "models.runs_dk_bound.calls": "count",
    "models.reliability_dk_bound.calls": "count",
    "models.mixed_dk_bound.calls": "count",
    **{f"exact.{fn}.busy_s": "s" for fn in _EXACT_LAWS},
    "trace.overhead_s": "s",
}

_SETUP_CHILD = """\
import sys
import cpstein, cpstein.cli, workloads
workloads.make_jobs(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
print("ready", flush=True)
"""


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least MIN_BEYOND
    samples beyond it.  Needs 2 * MIN_BEYOND + 1 samples, so that the value is
    never below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * MIN_BEYOND + 1:
        raise ValueError(f"{n} samples: a tail needs at least {2 * MIN_BEYOND + 1}")
    i = n - MIN_BEYOND - 1
    return 100.0 * (i + 1) / n, xs[i]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _setup_sample(workload: str, seed: int, rounds: int) -> float:
    """Seconds from starting a fresh interpreter until it could run its first job."""
    argv = [sys.executable, "-c", _SETUP_CHILD, workload, str(seed), str(rounds)]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up interpreter exited {code}")
    return elapsed


def _import_times() -> dict[str, float]:
    """Cumulative import time of cpstein and of scipy.stats, from -X importtime.

    scipy loads ``stats`` lazily, so its own line may be missing; the
    outermost ``scipy.stats.*`` entries are summed instead.
    """
    argv = [sys.executable, "-X", "importtime", "-c", "import cpstein"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                          timeout=120, check=True)
    entries = []  # (depth, name, cumulative seconds)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    stats = [e for e in entries if e[1] == "scipy.stats" or e[1].startswith("scipy.stats.")]
    top = min((e[0] for e in stats), default=0)
    return {
        "import.cpstein_s": sum(e[2] for e in entries if e[1] == "cpstein"),
        "import.scipy_stats_s": sum(e[2] for e in stats if e[0] == top),
    }


def calibration_kernel():
    """A function that runs a fixed mix of Python bytecode and small numpy
    calls, like a job's but from no cpstein code, and returns its time."""
    rng = np.random.default_rng(0)
    a = rng.random((40, 40)) + 40.0 * np.eye(40)
    b, v = rng.random(40), rng.random(20_000)

    def run() -> float:
        t0 = perf_counter()
        s = 0
        for i in range(3000):
            s += i * i
        np.linalg.solve(a, b)
        np.cumsum(np.sqrt(v) * 1.5)
        return perf_counter() - t0

    return run


def _run_job(cli, job, trace=None) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, crash) of one job; ``crash`` names the
    exception that escaped ``cli.main``, if one did."""
    out, err = io.StringIO(), io.StringIO()
    traced = trace.job(job.argv) if trace is not None else contextlib.nullcontext()
    code, crash = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced:
        t0 = perf_counter()
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            crash = f"crash: {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return elapsed, code, out.getvalue(), crash


def _class_summary(records) -> dict[str, dict]:
    """Per class: job count, failures, cost quartiles, and the share of the
    run's untraced jobs that cost less than the class's cheapest and dearest
    job, which shows where the median and the tail fall."""
    plain = sorted(t for _, t, traced, _ in records if not traced)
    by_class: dict[str, list] = {}
    for job, t, traced, reason in records:
        by_class.setdefault(job.cls, []).append((t, traced, reason))
    summary = {}
    for cls, rows in by_class.items():
        times = sorted(t for t, traced, _ in rows if not traced)
        q1, q2, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        summary[cls] = {
            "jobs": len(rows),
            "failed": sum(reason is not None for _, _, reason in rows),
            "quartiles_s": [q1, q2, q3],
            "rank_span": [bisect.bisect_left(plain, times[0]) / len(plain),
                          bisect.bisect_right(plain, times[-1]) / len(plain)],
        }
    return summary


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _provenance() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpstein" / "__init__.py").is_file():
        print(f"error: no cpstein sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    rounds = workloads.rounds_for(args.workload, args.seconds)

    samples: dict[str, list[float]] = {}
    calibrate = calibration_kernel()
    setup_cal: list[float] = []
    if args.trace:
        runs = [_import_times() for _ in range(IMPORTTIME_SAMPLES)]
        for key in runs[0]:
            samples[key] = [r[key] for r in runs]
    else:
        samples["setup_s"] = []
        for _ in range(SETUP_SAMPLES):
            samples["setup_s"].append(_setup_sample(args.workload, args.seed, rounds))
            setup_cal.extend(calibrate() for _ in range(SETUP_CAL_PASSES))

    # cpstein is importable only from here on, with SRC on sys.path
    import checks
    import tracer
    from cpstein import cli

    jobs = workloads.make_jobs(args.workload, args.seed, rounds)
    # A CPU that sat idle, as this one did while the set-up interpreters ran,
    # runs slower for about a second; warm it and the caches before timing.
    warm_until = perf_counter() + WARMUP_S
    for job in workloads.warmup_jobs(args.workload, args.seed):
        _run_job(cli, job)
        calibrate()
        if perf_counter() >= warm_until:
            break
    gc.collect()
    gc.freeze()

    trace = tracer.Tracer() if args.trace else None
    seen: dict[str, int] = {}
    records = []  # (job, seconds, traced, failure reason or None)
    cal = []  # seconds of the calibration kernel after each job
    for job in jobs:
        rank = seen[job.cls] = seen.get(job.cls, -1) + 1
        traced = trace is not None and rank % 2 == 1
        elapsed, code, out, crash = _run_job(cli, job, trace if traced else None)
        reason = crash or checks.check(job, code, out)
        records.append((job, elapsed, traced, reason))
        cal.append(calibrate())

    failures = [(job, reason) for job, _, _, reason in records if reason is not None]
    plain = [t for _, t, traced, _ in records if not traced]
    host_factor = statistics.median(cal) / CAL_NOMINAL_S  # above 1: a slow host
    setup_factor = statistics.median(setup_cal) / CAL_NOMINAL_S if setup_cal else None
    notes: dict[str, str] = {}
    if args.trace:
        traced_times = [t for _, t, traced, _ in records if traced]
        values = {key: statistics.median(v) for key, v in samples.items()}
        values.update(trace.metrics())
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain)
        units = PER_LAYER
        trace.write(OUT / f"spans-{args.workload}-{args.seed}.json.gz")
    else:
        passed = len(records) - len(failures)
        pct, tail_value = tail(plain)
        raw = {
            "setup_s": statistics.median(samples["setup_s"]),
            "job_p50_s": statistics.median(plain),
            "job_tail_s": tail_value,
            "jobs_per_s": passed / sum(plain),
        }
        values = {
            "setup_s": raw["setup_s"] / setup_factor,
            "job_p50_s": raw["job_p50_s"] / host_factor,
            "job_tail_s": raw["job_tail_s"] / host_factor,
            "jobs_per_s": raw["jobs_per_s"] * host_factor,
            "ok_frac": passed / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        notes = {
            "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters; raw {raw['setup_s']:.6g}",
            "job_p50_s": f"median of {len(plain)} jobs; raw {raw['job_p50_s']:.6g}",
            "job_tail_s": f"p{pct:.2f} of {len(plain)} jobs, {MIN_BEYOND} beyond;"
                          f" raw {raw['job_tail_s']:.6g}",
            "jobs_per_s": f"{passed} passing jobs / {sum(plain):.3f} s of job time;"
                          f" raw {raw['jobs_per_s']:.6g}",
            "ok_frac": f"{passed} / {len(records)}",
        }

    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "host_factor": host_factor,
        "setup_host_factor": setup_factor,
        "setup_samples_s": samples.get("setup_s"),
        "jobs": len(records),
        "provenance": _provenance(),
        "metrics": {name: dict(m, note=notes.get(name, "")) for name, m in metrics.items()},
        "classes": _class_summary(records),
        "times": [[job.cls, t, traced, reason is None, c]
                  for (job, t, traced, reason), c in zip(records, cal)],
        "failures": [{"class": job.cls, "argv": list(job.argv), "reason": reason}
                     for job, reason in failures],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {args.workload} seed {args.seed}: {len(records)} jobs in {rounds} rounds;"
          f" host factor {host_factor:.4g}, at set-up {setup_factor or float('nan'):.4g}; "
          + json.dumps(report["provenance"]))
    for job, reason in failures:
        print(f"FAIL [{job.cls}] {reason} :: cpstein {shlex.join(job.argv)}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(json.dumps({"correct": True, "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
