"""Output checks for benchmark jobs, by invariants rather than golden bytes.

A check accepts any output that a correct program could print, so a change
of route (a banded solver, an exact law in place of Monte Carlo) stays
checkable.  ``check`` returns None when a job passes and the reason when it
does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cpstein.bounds import best_bound
from cpstein.core import CompoundPoissonParams
from workloads import Job

__all__ = ["check"]

MASS_TOL = 1e-9  # |sum(pmf) + tail_mass - 1|
TAIL_MAX = 1e-6  # a table must cover its mass, not push it into the tail
MEAN_REL_TOL = 1e-8  # exact tables
MC_MEAN_SIGMAS = 5.0  # Monte Carlo tables
RESIDUAL_TOL = 1e-6  # interior Stein-equation defect


def _option(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def _rates(argv: tuple[str, ...]) -> list[float]:
    return [float(t) for t in _option(argv, "--rates").split(",")]


def _check_pmf(job: Job, out: dict) -> str | None:
    pmf = np.array([float(v) for v in out["pmf"]])
    tail = float(out["tail_mass"])
    if not np.all(np.isfinite(pmf)) or np.any(pmf < 0.0):
        return "pmf entries not finite and nonnegative"
    mass = float(pmf.sum()) + tail
    if not abs(mass - 1.0) <= MASS_TOL:
        return f"total mass {mass!r} is not 1"
    if not tail <= TAIL_MAX:
        return f"tail mass {tail!r} above {TAIL_MAX}"
    x = np.arange(pmf.size)
    mean = float(x @ pmf)
    if "stderr" in out:
        var = float(((x - mean) ** 2) @ pmf)
        samples = int(_option(job.argv, "--samples"))
        tol = MC_MEAN_SIGMAS * math.sqrt(var / samples) + 1e-12
    else:
        tol = MEAN_REL_TOL * max(1.0, abs(job.mean))
    if not abs(mean - job.mean) <= tol:
        return f"mean {mean!r} differs from {job.mean!r}"
    return None


def _check_stein(job: Job, out: dict) -> str | None:
    f = np.array([float(v) for v in out["f"]])
    if not np.all(np.isfinite(f)):
        return "f not finite"
    rates = _rates(job.argv)
    J = len(rates)
    y, eh_u = int(out["y"]), float(out["eh_u"])
    hi = f.size - 1 - J
    if hi >= 1:
        x = np.arange(1, hi + 1)
        drift = sum(j * rates[j - 1] * f[x + j] for j in range(1, J + 1))
        residual = (x <= y) - eh_u - (drift - x * f[x])
        worst = float(np.max(np.abs(residual)))
        if not worst <= RESIDUAL_TOL:
            return f"interior Stein residual {worst!r}"
    m0 = best_bound(CompoundPoissonParams(rates)).m0
    sup = float(np.max(np.abs(f[1:]))) if f.size > 1 else 0.0
    if not sup <= m0 * (1.0 + 1e-12):
        return f"sup|f| = {sup!r} exceeds the best bound m0 = {m0!r}"
    return None


def _check_bounds(job: Job, out: dict) -> str | None:
    usable = [b for b in out["bounds"] if b["applicable"]]
    if not usable:
        return "no applicable bound"
    for comp in ("m0", "m1"):
        lowest = min(float(b[comp]) for b in usable)
        if float(out["best"][comp]) != lowest:
            return f"best {comp} is not the minimum over applicable bounds"
    return None


def _check_sweep(job: Job, out: dict) -> str | None:
    flag = "--q-range" if "--q-range" in job.argv else "--p-range"
    expected = int(_option(job.argv, flag).split(":")[2])
    rows = out["rows"]
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    for row in rows:
        m1s = [
            float(row[key])
            for key in row
            if key.endswith("_m1") and key != "best_m1" and row[key[:-3] + "_applicable"]
        ]
        if not m1s or float(row["best_m1"]) != min(m1s):
            return "row best_m1 is not the minimum over applicable bounds"
    return None


def _check_verify(job: Job, out: dict) -> str | None:
    return None if out.get("pass") is True else "pass is not true"


_CHECKS = {
    "pmf": _check_pmf,
    "stein-solve": _check_stein,
    "bounds": _check_bounds,
    "sweep": _check_sweep,
    "verify": _check_verify,
}


def check(job: Job, code: int | None, stdout: str) -> str | None:
    """None if the job exited 0 and its output holds every invariant."""
    if code != 0:
        return f"exit {code}"
    try:
        return _CHECKS[job.argv[0]](job, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    except ArithmeticError as exc:  # best_bound itself can fail on the job's rates
        return f"check failed: {type(exc).__name__}: {exc}"
