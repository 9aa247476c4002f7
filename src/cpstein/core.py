"""Compound Poisson laws with finite cluster-size support.

A compound Poisson random variable U ~ CP(lambda, mu) is the sum of N
i.i.d. cluster sizes drawn from mu, with N ~ Poisson(lambda).  Throughout
this package the primitive parameterization is the rate sequence
``lambda_j = lambda * mu_j`` for cluster sizes j = 1..J: every formula of
interest is stated directly in the rates or in their factorial-moment sums

    theta_k = sum_j j*(j-1)*...*(j-k) * lambda_j      (k+1 factors),

so the (lambda, mu) view is not carried: lambda is ``total_rate`` and
mu_j = lambda_j / lambda.

The module computes theta vectors and the exact pmf of U via the standard
one-step recursion with a Chernoff-certified truncation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # numpy loads in the functions that use it
    import numpy as np

__all__ = [
    "CompoundPoissonParams",
    "ThetaVector",
    "DistributionTable",
    "TruncationCapError",
    "theta",
    "cp_pmf",
    "monotone_condition",
    "chernoff_tail",
]

TAIL_TARGET = 1.0 - (1.0 - 1e-12)  # every table's tail bound, about 1.00009e-12
X_CAP = 1_000_000  # no table is built past this point
MASS_TOL = 1e-9  # rounding allowance on the total mass of a table
LOG_P0_FLOOR = 700.0  # e^-700 is a normal double; e^-746 is 0
RESCALE_AT = 2.0**600  # cp_pmf scales its table down by this, exactly


class TruncationCapError(RuntimeError):
    """Raised when the pmf support cannot cover the mass target within the cap."""


@dataclass(frozen=True)
class CompoundPoissonParams:
    """Rates (lambda_1, ..., lambda_J) of a compound Poisson law.

    ``rates[j-1]`` is the rate of clusters of size j.  All rates must be
    nonnegative and at least one must be positive.
    """

    rates: tuple[float, ...]

    def __init__(self, rates: Sequence[float]):
        rates = tuple(map(float, rates))
        _check_laws(list(zip(rates)))  # one law: columns one entry long
        object.__setattr__(self, "rates", rates)

    @property
    def max_cluster_size(self) -> int:
        """J, the largest cluster size carried (including trailing zero rates)."""
        return len(self.rates)

    @property
    def total_rate(self) -> float:
        """lambda = sum_j lambda_j, the cluster-arrival intensity."""
        return math.fsum(self.rates)


def _all_finite(values: Sequence[float]) -> bool:
    return all(map(math.isfinite, values))


def _check_laws(rates: Sequence[Sequence[float]]) -> None:
    """Refuse the first law whose rates are empty, not finite, negative or
    all 0: the rule of every law, over the columns of many (``rates[j - 1]``
    holds lambda_j of every law), which the sweep applies to its laws without
    building a CompoundPoissonParams for each."""
    if len(rates) == 0:
        raise ValueError("rates must be nonempty")
    # the common case: every rate >= 0 and finite, as their sum is, and every
    # law with one that is not 0
    if (min(map(min, rates)) >= 0.0 and math.isfinite(sum(map(sum, rates)))
            and all(map(any, zip(*rates)))):
        return
    # the first law with a rate outside [0, inf), and the first with none positive
    n = len(rates[0])
    invalid = min((i for lams in rates for i, lam in enumerate(lams)
                   if not 0.0 <= lam < math.inf), default=n)
    empty = next((i for i, top in enumerate(map(max, zip(*rates))) if not top > 0.0), n)
    if invalid < n and invalid <= empty:
        raise ValueError("every rate must be finite and nonnegative")
    if empty < n:
        raise ValueError("at least one rate must be positive")


@dataclass(frozen=True)
class ThetaVector:
    """Factorial-moment sums theta_0..theta_K of rates; ``finite`` when all of them are."""

    values: tuple[float, ...]
    finite: bool = field(init=False, repr=False, compare=False)

    def __init__(self, values: Sequence[float]):
        values = tuple(map(float, values))
        if len(values) == 0:
            raise ValueError("theta vector must contain at least theta_0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "finite", _all_finite(values))

    @property
    def order(self) -> int:
        """K, the highest order carried."""
        return len(self.values) - 1

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < len(self.values):
            raise IndexError(f"theta order {k} not computed (have 0..{self.order})")
        return self.values[k]

    def require(self, k: int) -> None:
        if len(self.values) <= k:
            raise ValueError("theta order insufficient")


@functools.lru_cache(maxsize=64)
def _falling_factorials(J: int, K: int) -> tuple[tuple[float, ...], ...]:
    """Row k, for k = 0..K, holds j(j-1)...(j-k) for j = k+1..J, each formed
    as the float product 1.0 * j * (j-1) * ... * (j-k), factor by factor."""
    rows, ff = [], [1.0] * J
    for k in range(K + 1):
        ff = [f * (j - k) for j, f in enumerate(ff, start=1)]
        rows.append(tuple(ff[k:]))
    return tuple(rows)


def theta(params: CompoundPoissonParams, K: int) -> ThetaVector:
    """Compute theta_k = sum_j j(j-1)...(j-k) lambda_j for k = 0..K.

    The falling factorial has k+1 factors, so theta_k = 0 whenever k >= J
    (every product term contains a zero factor).
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    # params as the one law of a set of columns, each one entry long
    (values,) = zip(*_theta_columns(list(zip(params.rates)), K))
    return ThetaVector(values)


def _theta_columns(rates: Sequence[Sequence[float]], K: int) -> list[list[float]]:
    """theta_0..theta_K of many laws at once: ``rates[j - 1]`` holds lambda_j
    of every law, and column k of the result its theta_k.

    Each sum runs over j in increasing order from 0.0, with one rounding per
    term; a zero rate adds a zero, which leaves every bit of the sum as it
    is.  ``sum`` is not used: since Python 3.12 it compensates, which would
    change the last bits.
    """
    totals = []
    for k, ffs in enumerate(_falling_factorials(len(rates), K)):
        # theta_k is 0 where k >= J
        total = [0.0 + ffs[0] * lam for lam in rates[k]] if ffs else [0.0] * len(rates[0])
        for ff, lam_j in zip(ffs[1:], rates[k + 1:]):
            total = [t + ff * lam for t, lam in zip(total, lam_j)]
        totals.append(total)
    return totals


@dataclass(frozen=True)
class DistributionTable:
    """pmf of an integer random variable on {0..X_max} plus certified tail mass.

    ``tail_mass`` is an upper bound on P(X > X_max).  ``mc_samples`` is the
    sample count of a Monte Carlo table and None for an exact one.
    """

    pmf: np.ndarray
    tail_mass: float
    mc_samples: int | None = field(default=None, compare=False)

    def __post_init__(self):
        import numpy as np

        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty 1-D array")
        # min and max are nan if any entry is, and nan fails both comparisons
        if not (pmf.min() >= -1e-12 and pmf.max() <= 1.0 + 1e-12):
            raise ValueError("pmf entries must be finite and lie in [0, 1]")
        if not 0.0 <= self.tail_mass < math.inf:
            raise ValueError("tail_mass must be finite and nonnegative")
        if float(pmf.sum()) + self.tail_mass > 1.0 + MASS_TOL:
            raise ValueError("total mass exceeds 1")

    @property
    def x_max(self) -> int:
        return self.pmf.size - 1

    @property
    def stderr(self) -> np.ndarray | None:
        """Per-bin standard errors sqrt(p (1 - p) / mc_samples), None if exact."""
        if self.mc_samples is None:
            return None
        import numpy as np

        return np.sqrt(self.pmf * (1.0 - self.pmf) / self.mc_samples)

    def cdf(self) -> np.ndarray:
        import numpy as np

        return np.minimum(np.cumsum(self.pmf), 1.0)

    def mean(self) -> float:
        import numpy as np

        return float(np.dot(np.arange(self.pmf.size), self.pmf))

    def var(self) -> float:
        import numpy as np

        x = np.arange(self.pmf.size)
        m = self.mean()
        return float(np.dot((x - m) ** 2, self.pmf))

    def total_mass(self) -> float:
        return float(self.pmf.sum()) + self.tail_mass

    def to_json(self) -> dict:
        return {"pmf": self.pmf.tolist(), "tail_mass": self.tail_mass}


@functools.lru_cache(maxsize=16)
def _chernoff_grid(J: int) -> tuple[np.ndarray, np.ndarray]:
    """The s grid of ``chernoff_tail`` for cluster sizes up to J and
    e^{s j} - 1 on it, one row per s and one column per j; read-only."""
    import numpy as np

    s = np.geomspace(1e-2, 40.0 / J, 80)
    e = np.expm1(np.outer(s, np.arange(1, J + 1, dtype=float)))
    s.flags.writeable = e.flags.writeable = False
    return s, e


def chernoff_tail(params: CompoundPoissonParams, x: float) -> float:
    """Exponential-moment bound on P(U > x).

    Minimizes exp(-s*x + sum_j lambda_j (e^{s j} - 1)) over a fixed grid of
    s values.  The exponents are formed first and exp is taken of their
    minimum only when that is negative (the bound is 1 otherwise), so the
    evaluation never overflows.
    """
    import numpy as np

    s, e = _chernoff_grid(params.max_cluster_size)
    cgf = e @ np.asarray(params.rates)  # sum_j lambda_j (e^{s j} - 1)
    exponent = np.min(-s * x + cgf)
    return math.exp(exponent) if exponent < 0.0 else 1.0


def _truncation_point(x: int, tail: Callable[[int], float]) -> tuple[int, float]:
    """The first of x, 2x, 4x, ... at which tail(x) does not exceed TAIL_TARGET,
    and tail there.  The one truncation rule of every tabulated law: a point
    past X_CAP raises TruncationCapError before tail is evaluated there."""
    while x <= X_CAP:
        t = tail(x)
        if not t > TAIL_TARGET:
            return x, t
        x *= 2
    raise TruncationCapError("truncation cap exceeded")


def _panjer(jlam: list[float], p0: float, x_max: int) -> tuple[list[float], list[int]]:
    """p[n] = (1/n) sum_{j <= min(n, J)} jlam[j-1] p[n-j] for n = 1..x_max, from p0.

    Each sum runs over j in increasing order from 0.0, one rounding per
    term; for J <= 3 it is written out from n = J on, with the last J
    entries carried in locals, which gives the same bits as the loop over j
    in less time.  Whenever an entry passes RESCALE_AT, it and the J - 1
    entries before it, those the recursion still reads, are divided by
    RESCALE_AT.  Returns the table and the first index of each such window.
    """
    J = len(jlam)
    R = RESCALE_AT
    p, starts = [p0], []
    written_out = J <= 3 and x_max >= J
    for n in range(1, J if written_out else x_max + 1):
        acc = 0.0
        for j in range(1, min(n, J) + 1):
            acc += jlam[j - 1] * p[n - j]
        pn = acc / n
        p.append(pn)
        if pn > R:  # rescale the J entries the recursion still reads
            lo = max(0, n - J + 1)
            p[lo : n + 1] = [v / R for v in p[lo : n + 1]]
            starts.append(lo)
    if not written_out:
        return p, starts
    push = p.append
    if J == 1:
        (c1,) = jlam
        a1 = p[0]
        for n in range(1, x_max + 1):
            a1 = (0.0 + c1 * a1) / n
            if a1 > R:
                a1 /= R
                starts.append(n)
            push(a1)
    elif J == 2:
        c1, c2 = jlam
        a1, a2 = p[1], p[0]
        for n in range(2, x_max + 1):
            pn = (0.0 + c1 * a1 + c2 * a2) / n
            if pn > R:
                pn, a1 = pn / R, a1 / R
                p[-1] = a1
                starts.append(n - 1)
            a1, a2 = pn, a1
            push(pn)
    else:
        c1, c2, c3 = jlam
        a1, a2, a3 = p[2], p[1], p[0]
        for n in range(3, x_max + 1):
            pn = (0.0 + c1 * a1 + c2 * a2 + c3 * a3) / n
            if pn > R:
                pn, a1, a2 = pn / R, a1 / R, a2 / R
                p[-2:] = a2, a1
                starts.append(n - 2)
            a1, a2, a3 = pn, a1, a2
            push(pn)
    return p, starts


def cp_pmf(params: CompoundPoissonParams) -> DistributionTable:
    """Exact pmf of U ~ CP via the one-step recursion.

    P(U=0) = e^{-lambda} and, for n >= 1,

        P(U=n) = (1/n) sum_{j <= min(n, J)} j lambda_j P(U=n-j).

    The support {0..X_max} is grown until the Chernoff tail bound at X_max
    drops to TAIL_TARGET, about 1e-12, under the X_CAP = 10^6-point cap; the
    recorded tail_mass is the exact residual 1 - sum(pmf) (clipped at 0),
    which the Chernoff bound certifies.

    For lambda > 700, where e^{-lambda} is subnormal or 0, the recursion
    (Panjer 1981) starts from e^{-700} and carries the factor
    e^{700 - lambda} apart in logs; each time an entry passes 2^600, the J
    entries that the recursion still reads are divided by 2^600, which is
    exact.  Every entry's factor is applied once at the end, and entries
    that land below the normal range are set to 0.  For lambda <= 700 the
    arithmetic is the plain recursion.  A table whose residual exceeds
    TAIL_TARGET by more than MASS_TOL = 1e-9 raises TruncationCapError.

    ``exact.poisson_mixture_table`` builds each component by this truncation
    point, recursion and residual tail; ``exact.nbinom_table`` takes the same
    rule from the same bulk start on a tail bound of its own.
    """
    return _residual_table(_cp_table(params, _cp_x_max(params)))


def _bulk_start(mean: float, var: float, J: int) -> int:
    """First truncation point tried: 10 sd past the mean plus 10 J, at least 16.
    Past the cap it starts at the cap: the bulk may not even be a finite float."""
    return max(16, math.ceil(min(mean + 10.0 * math.sqrt(var), X_CAP)) + 10 * J)


def _cp_x_max(params: CompoundPoissonParams) -> int:
    """cp_pmf's truncation point: the doubling rule on its Chernoff bound from ``_bulk_start``."""
    th = theta(params, 1)
    x = _bulk_start(th[0], th[0] + th[1], params.max_cluster_size)
    return _truncation_point(x, functools.partial(chernoff_tail, params))[0]


def _jlam(rates: Sequence[float]) -> list[float]:
    """j lambda_j for j = 1..J.  The same coefficients drive both recursions
    of the package: Panjer's n P(U=n) = sum_j j lambda_j P(U=n-j) in
    ``cp_pmf``, and the Stein operator sum_j j lambda_j f(x+j) - x f(x)
    that ``oracle`` solves."""
    return [j * lam for j, lam in enumerate(rates, start=1)]


def _cp_table(params: CompoundPoissonParams, x_max: int) -> np.ndarray:
    """P(U=n) for n = 0..x_max by cp_pmf's recursion and its shift in logs."""
    import numpy as np

    # Start from log P(U=0) = -lambda: p[n] holds P(U=n) e^{shift} / RESCALE_AT^d,
    # where d counts the rescalings whose window began at or before n.
    lam = params.total_rate
    shift = max(0.0, lam - LOG_P0_FLOOR)
    p, starts = _panjer(_jlam(params.rates), math.exp(shift - lam), x_max)
    p = np.array(p)
    if shift > 0.0:
        d = np.searchsorted(starts, np.arange(p.size), side="right")
        with np.errstate(divide="ignore"):
            p = np.exp(np.log(p) + (d * math.log(RESCALE_AT) - shift))
        p[p < np.finfo(float).tiny] = 0.0  # subnormal: exp's last bit decides it
    return p


def _residual_table(pmf: np.ndarray) -> DistributionTable:
    """pmf with tail_mass 1 - sum(pmf), clipped at 0 and checked against TAIL_TARGET."""
    tail = max(0.0, 1.0 - float(pmf.sum()))
    if tail > TAIL_TARGET + MASS_TOL:
        raise TruncationCapError("pmf does not reach its mass target")
    return DistributionTable(pmf=pmf, tail_mass=tail)


def monotone_condition(params: CompoundPoissonParams) -> bool:
    """True iff j lambda_j >= (j+1) lambda_{j+1} for all j (lambda_{J+1} = 0)."""
    (monotone,) = _monotone_columns(list(zip(params.rates)))
    return monotone


def _monotone_columns(rates: Sequence[Sequence[float]]) -> list[bool]:
    """``monotone_condition`` of many laws at once: ``rates[j - 1]`` holds
    lambda_j of every law, each law's rates >= 0.  Each pass compares
    ``_jlam``'s entries j - 1 and j of every law, from j = J - 1 down; at
    j = J, against lambda_{J+1} = 0, every law passes."""
    J = len(rates)
    monotone = [True] * len(rates[0])
    for j in range(J - 1, 0, -1):
        monotone = [m and j * a >= (j + 1) * b
                    for m, a, b in zip(monotone, rates[j - 1], rates[j])]
    return monotone
