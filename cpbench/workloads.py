"""Seeded job lists for the cpstein benchmark.

A job is one ``cpstein`` command line.  A workload is a fixed mix of job
classes, given as a *round*: how many jobs of each class one round holds.
A run is a whole number of rounds, so its length is counted in jobs, and
every class keeps its share whatever the seed.

Each class draws its parameters by Latin hypercube sampling: for n jobs,
every parameter takes one point in each of n equal cells of its range, and
the columns are shuffled independently.  The cost distribution of a class,
and so the median and tail of a run, then moves little from one seed to the
next, while every job still gets parameters of its own; a cache that spans
calls sees no repeated input.

The job list is a pure function of (workload, seed, rounds).  Parameter
ranges are fixed by what each class is meant to exercise, not by whether the
program gets them right: the classes marked "fails today" below hold inputs
on which this version of cpstein exits non-zero or prints a wrong table.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["Job", "WORKLOADS", "make_jobs", "warmup_jobs", "rounds_for"]

MC_SAMPLES = 10_000  # the CLI's minimum for reliability Monte Carlo


@dataclass(frozen=True)
class Job:
    """One command line, its class, and the mean a ``pmf`` job must show."""

    cls: str
    argv: tuple[str, ...]
    mean: float | None = None


# ---------------------------------------------------------------------------
# parameter helpers


def _num(x: float) -> str:
    return f"{x:.6g}"


def _lin(u: float, lo: float, hi: float) -> float:
    return float(_num(lo + u * (hi - lo)))


def _log(u: float, lo: float, hi: float) -> float:
    return float(_num(lo * (hi / lo) ** u))


def _pick(u: float, options: tuple) -> object:
    return options[min(int(u * len(options)), len(options) - 1)]


def _rates(total: float, shape: float, u2: float, u3: float) -> list[float]:
    """Rates with total ``total`` and J = 1, 2 or 3 chosen by ``shape``.

    lambda_1 always carries at least half of the total, so 2 theta_1 -
    theta_0 stays below 2 * total.  Above 473 it overflows THM4's
    exp(1.5 (2 theta_1 - theta_0)), which today crashes ``bounds`` and
    ``verify``; only the rare J = 3 draws near a total of 300 reach it.
    """
    j = _pick(shape, (1, 2, 3))
    if j == 1:
        return [float(_num(total))]
    a = 0.05 + 0.25 * u2
    if j == 2:
        return [float(_num(total * (1.0 - a))), float(_num(total * a))]
    b = 0.02 + 0.18 * u3
    return [
        float(_num(total * (1.0 - a - b))),
        float(_num(total * a)),
        float(_num(total * b)),
    ]


def _rates_arg(rates: list[float]) -> str:
    return ",".join(_num(r) for r in rates)


def _theta0(rates: list[float]) -> float:
    return math.fsum(j * r for j, r in enumerate(rates, start=1))


# ---------------------------------------------------------------------------
# job classes: each maps one row of hypercube coordinates to (argv, mean)

ClassFn = Callable[[tuple[float, ...], random.Random], tuple[tuple[str, ...], float | None]]


def _pmf_rates(lo: float, hi: float) -> ClassFn:
    def make(u, rng):
        rates = _rates(_log(u[0], lo, hi), u[1], u[2], u[3])
        return ("pmf", "--rates", _rates_arg(rates)), _theta0(rates)

    return make


def _stein_rates(lo: float, hi: float) -> ClassFn:
    def make(u, rng):
        rates = _rates(_log(u[0], lo, hi), u[1], u[2], u[3])
        y = int(_theta0(rates) * (0.3 + 1.4 * u[4]))
        return ("stein-solve", "--rates", _rates_arg(rates), "--y", str(y)), None

    return make


def _verify_rates(lo: float, hi: float) -> ClassFn:
    def make(u, rng):
        rates = _rates(_log(u[0], lo, hi), u[1], u[2], u[3])
        return ("verify", "--rates", _rates_arg(rates)), None

    return make


def _runs(command: str) -> ClassFn:
    def make(u, rng):
        n = int(_lin(u[0], 200, 2000))
        if command == "verify":
            # approximant theta_0 = n p^2 kept small: the oracle's share stays low
            p = _num(math.sqrt(_lin(u[1], 1.0, 12.0) / n))
        else:
            p = _num(_lin(u[1], 0.02, 0.5))
        mean = n * float(p) ** 2
        return (command, "--model", "runs", "--n", str(n), "--p", p), mean

    return make


def _reliability(command: str, exact: bool) -> ClassFn:
    def make(u, rng):
        if exact:
            n, k, q = 4, 2, _lin(u[0], 0.15, 0.6)
            extra = ("--exact",)
        else:
            n = _pick(u[1], (6, 7, 8, 9, 10))
            k, q = 2, _lin(u[0], 0.2, 0.5)
            extra = ("--samples", str(MC_SAMPLES), "--seed", str(rng.randrange(1 << 31)))
        argv = (command, "--model", "reliability", "--n", str(n), "--k", str(k), "--q", _num(q))
        return argv + extra, (n - k + 1) ** 2 * q ** (k * k)

    return make


def _mixed_two_point(command: str) -> ClassFn:
    def make(u, rng):
        # b - a = d solves w (1-w) d^2 = f nu with nu = a + (1-w) d, so the
        # mixing variance is the share f of the mean (the approximant needs f < 1)
        a, w, f = _lin(u[0], 1.0, 20.0), _lin(u[1], 0.1, 0.9), 0.1 + 0.7 * u[2]
        c = w * (1.0 - w)
        d = (f * (1.0 - w) + math.sqrt((f * (1.0 - w)) ** 2 + 4.0 * c * f * a)) / (2.0 * c)
        b = float(_num(a + d))
        return (command, "--model", "mixed", "--two-point", f"{_num(a)},{_num(b)},{_num(w)}"), (
            w * a + (1.0 - w) * b
        )

    return make


def _mixed_gamma(command: str) -> ClassFn:
    def make(u, rng):
        scale = _lin(u[0], 0.05, 0.8)
        shape = _lin(u[1], 2.0, 60.0)
        return (command, "--model", "mixed", "--gamma", f"{_num(shape)},{_num(scale)}"), shape * scale

    return make


def _sums(command: str) -> ClassFn:
    def make(u, rng):
        count = int(_lin(u[0], 3, 40))
        comps, mean = [], 0.0
        for _ in range(count):
            # component (1-a-b, a, b) with 2b >= (a+2b)^2, so Var >= mean;
            # four decimals keep each pmf's printed sum at 1 within rounding
            a = round(0.05 + 0.15 * rng.random(), 4)
            b = round(0.1 + 0.15 * rng.random(), 4)
            comps.append(f"{1.0 - a - b:.4f},{a:.4f},{b:.4f}")
            mean += a + 2.0 * b
        return (command, "--model", "sums", "--components", ";".join(comps)), mean

    return make


def _bounds_rates(lo: float, hi: float, pure: bool) -> ClassFn:
    def make(u, rng):
        total = _log(u[0], lo, hi)
        rates = [total] if pure else _rates(total, 0.34 + 0.66 * u[1], u[2], u[3])
        return ("bounds", "--rates", _rates_arg(rates)), None

    return make


def _sweep_reliability(
    n_lo: int, n_hi: int, q_end_lo: float, q_end_hi: float, rows: int
) -> ClassFn:
    def make(u, rng):
        n = int(_lin(u[0], n_lo, n_hi + 0.999))
        q0 = _lin(u[1], 0.05, 0.3)
        q1 = _lin(u[2], q_end_lo, q_end_hi)
        argv = ("sweep", "--model", "reliability", "--n", str(n), "--k", "2")
        return argv + ("--q-range", f"{_num(q0)}:{_num(q1)}:{rows}"), None

    return make


def _sweep_runs(u, rng):
    n = int(_lin(u[0], 20, 500))
    p0, p1 = _lin(u[1], 0.01, 0.1), _lin(u[2], 0.3, 0.6)
    return ("sweep", "--model", "runs", "--n", str(n), "--p-range", f"{_num(p0)}:{_num(p1)}:8"), None


@dataclass(frozen=True)
class Workload:
    """A job mix: (class name, jobs per round, maker) and the nominal time of
    one round at the commit that defined the benchmark."""

    why: str
    classes: tuple[tuple[str, int, ClassFn], ...]
    round_s: float


# Shares are set so that the median and the tail percentile of a run fall
# inside one class of similar cost, never on the edge between a cheap class
# and a costly one.  The cost order is noted per workload.
WORKLOADS: dict[str, Workload] = {
    # cheap pmf/stein-solve < verify < verify-large: the median lies in
    # "verify", the tail in "verify-large".
    "rates-heavy": Workload(
        why=(
            "verify, stein-solve and pmf on bare --rates up to a few hundred: oracle and"
            " core.cp_pmf do nearly all the work and exact none; holds the large-rate inputs"
            " that fail today"
        ),
        classes=(
            ("pmf", 4, _pmf_rates(1.0, 600.0)),
            ("pmf-huge", 2, _pmf_rates(750.0, 1000.0)),  # fails today: all-zero table
            ("stein-solve", 4, _stein_rates(0.5, 12.0)),
            ("stein-solve-large", 2, _stein_rates(60.0, 300.0)),  # fails today: unstable f
            ("verify", 18, _verify_rates(0.5, 12.0)),
            ("verify-large", 5, _verify_rates(50.0, 150.0)),  # fails today: exit 1
        ),
        round_s=1.0,
    ),
    # pmf on mixed and sums models (a few ms) < every other class (15 to 60
    # ms, overlapping): the median and the tail both lie in the second group.
    "models-exact": Workload(
        why=(
            "verify and pmf on runs, reliability (exact n=4, Monte Carlo n=6..10), mixed and"
            " sums models: exact laws, models and distance carry the work, the oracle sees"
            " small rates only"
        ),
        classes=(
            ("mixed-two-point-pmf", 2, _mixed_two_point("pmf")),
            ("mixed-two-point-verify", 2, _mixed_two_point("verify")),
            ("mixed-gamma-pmf", 2, _mixed_gamma("pmf")),
            ("mixed-gamma-verify", 2, _mixed_gamma("verify")),
            ("sums-pmf", 2, _sums("pmf")),
            ("sums-verify", 2, _sums("verify")),
            ("reliability-mc-pmf", 3, _reliability("pmf", exact=False)),
            ("reliability-mc-verify", 3, _reliability("verify", exact=False)),
            ("reliability-exact-pmf", 2, _reliability("pmf", exact=True)),
            ("reliability-exact-verify", 2, _reliability("verify", exact=True)),
            ("runs-pmf", 3, _runs("pmf")),
            ("runs-verify", 3, _runs("verify")),
        ),
        round_s=0.85,
    ),
    # closed-form bounds and runs sweeps < pure-Poisson bounds (grid run
    # twice) < long reliability sweeps: the median lies in the pure-Poisson
    # bounds, the tail in the long sweeps.
    "bounds-grid": Workload(
        why=(
            "bounds and sweep only: delta_k_grid does most of the work, with no oracle and no"
            " exact law; the no-change workload for oracle and exact-law work"
        ),
        classes=(
            ("bounds", 3, _bounds_rates(0.5, 300.0, pure=False)),
            ("sweep-runs", 2, _sweep_runs),
            # fails today: THM4 divides by an underflowed delta at large theta
            ("sweep-reliability-large", 1, _sweep_reliability(16, 30, 0.85, 0.9, 8)),
            ("bounds-poisson", 10, _bounds_rates(0.5, 300.0, pure=True)),
            ("sweep-reliability", 2, _sweep_reliability(8, 12, 0.6, 0.85, 256)),
        ),
        round_s=0.16,
    ),
}

_DIMS = 5  # hypercube columns drawn for every class


def _lhs(rng: random.Random, n: int) -> list[tuple[float, ...]]:
    cols = []
    for _ in range(_DIMS):
        col = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(col)
        cols.append(col)
    return list(zip(*cols))


def _generate(workload: str, seed: int, rounds: int, stream: str) -> list[Job]:
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{stream}")
    jobs = []
    for cls, per_round, make in spec.classes:
        for u in _lhs(rng, per_round * rounds):
            argv, mean = make(u, rng)
            jobs.append(Job(cls, argv, mean))
    rng.shuffle(jobs)
    return jobs


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of nominally ``seconds`` seconds; at least one."""
    return max(1, round(seconds / WORKLOADS[workload].round_s))


def make_jobs(workload: str, seed: int, rounds: int) -> list[Job]:
    """The measured job list of one run."""
    return _generate(workload, seed, rounds, "run")


def warmup_jobs(workload: str, seed: int) -> Iterator[Job]:
    """Endless rounds of jobs on parameters of their own, run before timing."""
    for i in itertools.count():
        yield from _generate(workload, seed, 1, f"warmup{i}")
