"""Exact solver for the compound Poisson Stein equation and empirical factors.

For U ~ CP with rates lambda_j and a Kolmogorov test function
h = I(. <= y), the Stein equation is

    h(x) - E h(U) = sum_j j lambda_j f(x+j) - x f(x),    x >= 1.       (*)

The solver fills f by backward recursion from a zero tail: division by x at
each step damps the initialization error, and convergence is certified
empirically by doubling the truncation point and comparing.  f(0) is not
part of the solution: the x = 0 instance of (*) has coefficient 0 on f(0),
and its defect is reported separately as a truncation diagnostic.

Sweeping y and taking sups of |f| and |f(x+1)-f(x)| yields empirical
Kolmogorov Stein factors, the ground truth that every bound in
:mod:`cpstein.bounds` must dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import CompoundPoissonParams, cp_pmf, theta
from .bounds import SteinFactorBound, encode_float

__all__ = [
    "SteinSolution",
    "EmpiricalFactors",
    "VerifyReport",
    "ConvergenceError",
    "solve_stein",
    "interior_residuals",
    "empirical_factors",
    "verify_bound",
    "poisson_stein_forward",
    "default_x_max",
]

TAIL_FOR_YMAX = 1e-8
STABILITY_TOL = 1e-7


class ConvergenceError(RuntimeError):
    """Raised when doubling the truncation does not stabilize the factors."""


@dataclass(frozen=True)
class SteinSolution:
    """Solution of the Stein equation for one threshold y.

    ``f[x]`` holds the solution for x = 1..x_max; ``f[0]`` is a zero
    placeholder and never enters any norm.
    """

    params: CompoundPoissonParams
    y: int
    x_max: int
    f: np.ndarray
    eh_u: float
    residual0: float


@dataclass(frozen=True)
class EmpiricalFactors:
    """Empirical sup norms of f and of its first difference over a threshold sweep."""

    m0_hat: float
    m1_hat: float
    y_max: int
    x_max: int


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking empirical factors against a claimed bound."""

    method: str
    m0_bound: float
    m1_bound: float
    m0_hat: float
    m1_hat: float
    passed: bool
    m0_slack: float
    m1_slack: float
    x_max: int
    y_max: int

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "m0_bound": encode_float(self.m0_bound),
            "m0_hat": self.m0_hat,
            "m1_bound": encode_float(self.m1_bound),
            "m1_hat": self.m1_hat,
            "pass": self.passed,
            "x_max": self.x_max,
            "y_max": self.y_max,
        }


def default_x_max(params: CompoundPoissonParams, y: int) -> int:
    """Default truncation point for thresholds up to y:
    max(4 (theta_0 + 10 sqrt(theta_0 + theta_1)), y + 20 J), rounded up."""
    th = theta(params, 1)
    bulk = 4.0 * (th[0] + 10.0 * math.sqrt(th[0] + th[1]))
    return int(math.ceil(max(bulk, y + 20.0 * params.max_cluster_size)))


def _jlam(params: CompoundPoissonParams) -> np.ndarray:
    """Coefficients j lambda_j, j = 1..J, of f(x+j) in the Stein equation."""
    return np.arange(1, params.max_cluster_size + 1) * np.asarray(params.rates)


def _solve_matrix(
    jlam: np.ndarray, ys: np.ndarray, x_max: int, eh_us: np.ndarray
) -> np.ndarray:
    """Backward-recursion solutions for all thresholds at once.

    Returns F of shape (x_max + 1 + J, len(ys)); rows x_max+1.. are the zero
    tail initialization, row 0 is the f(0) placeholder.
    """
    J = jlam.size
    F = np.zeros((x_max + 1 + J, ys.size))
    for x in range(x_max, 0, -1):
        s = jlam @ F[x + 1 : x + 1 + J]
        rhs = (x <= ys).astype(float) - eh_us
        F[x] = (s - rhs) / x
    return F


def solve_stein(params: CompoundPoissonParams, y: int, x_max: int) -> SteinSolution:
    """Solve the Stein equation for h = I(. <= y) on x = 1..x_max.

    E h(U) comes from the certified pmf table; f is filled backward from a
    zero tail.  residual0 is the defect of the (coefficient-0) x = 0
    equation, |sum_j j lambda_j f(j) - (h(0) - E h(U))|, a pure truncation
    diagnostic.
    """
    y = int(y)
    if y < 0:
        raise ValueError("y must be >= 0")
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    table = cp_pmf(params)
    cdf = table.cdf()
    eh_u = float(cdf[min(y, table.x_max)])
    jlam = _jlam(params)
    F = _solve_matrix(jlam, np.array([y], dtype=float), x_max, np.array([eh_u]))
    h0 = 1.0  # h(0) = I(0 <= y) and y >= 0
    residual0 = abs(float(jlam @ F[1 : 1 + jlam.size, 0]) - (h0 - eh_u))
    return SteinSolution(
        params=params,
        y=y,
        x_max=x_max,
        f=F[: x_max + 1, 0].copy(),
        eh_u=eh_u,
        residual0=residual0,
    )


def interior_residuals(sol: SteinSolution) -> np.ndarray:
    """Defects of the Stein equation at x = 1..x_max-J.

    The last J points are excluded: they touch the truncated tail directly.
    """
    jlam = _jlam(sol.params)
    J = jlam.size
    hi = sol.x_max - J
    if hi < 1:
        return np.zeros(0)
    x = np.arange(1, hi + 1)
    s = np.zeros(hi)
    for j in range(1, J + 1):
        s += jlam[j - 1] * sol.f[x + j]
    h = (x <= sol.y).astype(float)
    return h - sol.eh_u - (s - x * sol.f[x])


def _factors_at(
    jlam: np.ndarray, ys: np.ndarray, eh_us: np.ndarray, x_max: int
) -> tuple[float, float]:
    """Sups of |f| and |delta f| over the sweep, interior points only."""
    J = jlam.size
    F = _solve_matrix(jlam, ys, x_max, eh_us)
    hi = x_max - J
    if hi < 1:
        raise ValueError("x_max too small for interior sup")
    interior = F[1 : hi + 1]
    m0 = float(np.max(np.abs(interior)))
    diffs = F[2 : hi + 2] - F[1 : hi + 1]
    m1 = float(np.max(np.abs(diffs)))
    return m0, m1


def empirical_factors(
    params: CompoundPoissonParams,
    y_max: int | None = None,
    x_max: int | None = None,
    stability_tol: float = STABILITY_TOL,
) -> EmpiricalFactors:
    """Empirical Kolmogorov Stein factors by sweeping thresholds y = 0..y_max.

    y_max defaults to the smallest y with P(U > y) <= 1e-8; beyond it the
    right-hand side h - E h(U) is uniformly small and contributes nothing at
    the reported precision.  x_max defaults to ``default_x_max(params, y_max)``
    and is doubled until both sups move by less than stability_tol.
    """
    table = cp_pmf(params)
    cdf = table.cdf()
    tail = 1.0 - cdf + table.tail_mass
    if y_max is None:
        ok = np.nonzero(tail <= TAIL_FOR_YMAX)[0]
        if ok.size == 0:
            raise ValueError("table does not reach the y_max tail target")
        y_max = int(ok[0])
    else:
        y_max = int(y_max)
        if y_max > table.x_max or tail[y_max] > TAIL_FOR_YMAX:
            raise ValueError("P(U > y_max) exceeds 1e-8; enlarge y_max")
    ys = np.arange(0, y_max + 1, dtype=float)
    eh_us = cdf[: y_max + 1].astype(float)

    if x_max is None:
        x_max = default_x_max(params, y_max)
    jlam = _jlam(params)
    x_max = max(int(x_max), jlam.size + 2)

    m0_a, m1_a = _factors_at(jlam, ys, eh_us, x_max)
    for _ in range(8):
        x2 = 2 * x_max
        m0_b, m1_b = _factors_at(jlam, ys, eh_us, x2)
        if abs(m0_b - m0_a) <= stability_tol and abs(m1_b - m1_a) <= stability_tol:
            return EmpiricalFactors(m0_hat=m0_b, m1_hat=m1_b, y_max=y_max, x_max=x2)
        m0_a, m1_a, x_max = m0_b, m1_b, x2
    raise ConvergenceError("truncation not converged")


def verify_bound(
    params: CompoundPoissonParams,
    bound: SteinFactorBound,
    y_max: int | None = None,
    x_max: int | None = None,
    emp: EmpiricalFactors | None = None,
) -> VerifyReport:
    """Check m0_hat <= bound.m0 and m1_hat <= bound.m1 for an applicable bound.

    ``emp`` takes factors already measured for params, so that checking
    several bounds runs the oracle once; y_max and x_max are then ignored.
    """
    if not bound.applicable:
        raise ValueError("bound is not applicable; nothing to verify")
    if emp is None:
        emp = empirical_factors(params, y_max=y_max, x_max=x_max)
    ok = emp.m0_hat <= bound.m0 and emp.m1_hat <= bound.m1
    m0_slack = bound.m0 / emp.m0_hat if emp.m0_hat > 0.0 else math.inf
    m1_slack = bound.m1 / emp.m1_hat if emp.m1_hat > 0.0 else math.inf
    return VerifyReport(
        method=bound.method,
        m0_bound=bound.m0,
        m1_bound=bound.m1,
        m0_hat=emp.m0_hat,
        m1_hat=emp.m1_hat,
        passed=ok,
        m0_slack=m0_slack,
        m1_slack=m1_slack,
        x_max=emp.x_max,
        y_max=emp.y_max,
    )


def poisson_stein_forward(lam: float, y: int, x_max: int) -> np.ndarray:
    """Classical forward-sum solution of the Poisson Stein equation.

    For Z ~ Poisson(lam) and h = I(. <= y), the equation
    lam f(x+1) - x f(x) = h(x) - E h(Z) has the explicit solution

        f(x+1) = (x! / lam^{x+1}) sum_{i<=x} (h(i) - P(Z<=y)) lam^i / i!.

    Evaluated here in the cancellation-free split form
    f(x+1) = (x!/lam^{x+1}) e^lam * { P(Z>y) P(Z<=x)   for x <= y
                                    { P(Z<=y) P(Z>x)   for x > y
    computed in logs.  Returns f on indices 0..x_max with f[0] = 0.

    This is an independent route used to cross-check the backward solver on
    single-size-cluster (pure Poisson) inputs.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    x = np.arange(0, x_max, dtype=float)  # role of x in f(x+1)
    log_front = special.gammaln(x + 1.0) - (x + 1.0) * math.log(lam) + lam
    cdf_x = special.pdtr(x, lam)
    sf_x = special.pdtrc(x, lam)
    p_le = special.pdtr(y, lam)
    p_gt = special.pdtrc(y, lam)
    branch = np.where(x <= y, p_gt * cdf_x, p_le * sf_x)
    with np.errstate(divide="ignore"):
        logf = log_front + np.log(branch)
    f = np.zeros(x_max + 1)
    f[1:] = np.where(branch > 0.0, np.exp(logf), 0.0)
    return f
