"""Stein-factor bounds for compound Poisson approximation.

A Stein factor (or "magic factor") is an upper bound on the sup norm of the
solution f_h of the compound Poisson Stein equation (M_0), or of its first
difference (M_1), uniformly over Kolmogorov test functions h = I(. <= y).
This module implements the classical bounds (general exponential, monotone
rates, the theta_0 - 2 theta_1 > 0 condition) and the criterion-function
route: with

    g_k(phi, p) = (1/(cos phi - 1)) sum_{j=1}^k Re[(e^{i phi}-1)^j]/j!
                  * (1-(1-p)^j)/p * theta_{j-1}  -  (2^k/k!) theta_k,

positivity of delta_k = inf over (phi, p) in (-pi, pi] x [0, 1] of g_k yields

    M_0 <= 2 sqrt(2/delta_k),   M_1 <= (1/(2 delta_k)) (1 + log+(pi delta_k)).

Closed forms for the infimum are used where the classical positivity
conditions pin it down.  Every other case goes to a Bernstein range
enclosure (Garloff's method): with t = (cos phi + 1)/2 and q = 1 - p, g_k is
a polynomial of degree k - 1 in each of t and q on [0, 1]^2, and de
Casteljau subdivision brackets its infimum between an attained value and a
lower bound that is certified, in floating point too; the two are at most
1e-8 max(1, |delta|) apart.  The criterion bounds use that lower end.

Each row of the catalogue that ``evaluate_all`` returns has its formula
written once, as a private function of columns, one list per quantity with
an entry for each of many laws: ``_general`` of the rates (``rates[j - 1]``
holds lambda_j of every law), ``_monotone`` of lambda_1 and whether
j lambda_j is nonincreasing, and ``_bx99``, ``_cor3`` and ``_thm4`` of
theta's entries and whether theta is finite.  Each returns ``_Rows``, six
columns of every law's m0, m1, method, applicable, note template and its
arguments.  ``_general`` and ``_monotone``, whose rows have one or two
cases, build each column in one pass over the laws, a constant column as
one list product; ``_bx99``, ``_cor3`` and ``_thm4`` decide each law's
entry once, in one comprehension, and transpose the entries, which for
their several cases costs less than a pass per column.  A note is
formatted only when ``_Rows.bound`` builds a law's SteinFactorBound; a
sweep builds none.  ``_cor3`` also chooses the route of each law: the
closed form under theta_2 < 2 theta_1, else the THM2(3) entry (``_thm2``)
of that law's Bernstein enclosure, without the closed form a second time.
One law is the one-entry case: ``bound_general`` ... ``bound_thm4`` and
``evaluate_all`` call the functions on columns one entry long.
``evaluate_columns`` calls each once over the columns of many laws, with
theta summed over the same columns (``core._theta_columns``), which is how
the sweep evaluates its rows.  The best m1 row, of ``best_of`` and of each
sweep row, is ``_first_least``'s: the first row of least m1.

Note that the order-3 closed form is the value of g_3 at (pi, 0); it equals
the true infimum only when theta_2 <= (2/5) theta_1 (for larger theta_2 the
phi-slice at p = 0 has an interior minimum at
cos phi* = 1/4 - theta_1/(2 theta_2)).  ``delta_k``
keeps the closed-form shortcut under the classical condition
theta_2 < 2 theta_1, matching the published criterion; ``delta_k_grid``
always encloses the infimum.
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import (
    CompoundPoissonParams,
    ThetaVector,
    _all_finite,
    _check_laws,
    _monotone_columns,
    _theta_columns,
    monotone_condition,
    theta,
)

if TYPE_CHECKING:  # numpy loads in the functions that use it
    import numpy as np

__all__ = [
    "SteinFactorBound",
    "GkEvaluation",
    "DeltaResult",
    "log_plus",
    "g_k_eval",
    "g_k_grid",
    "delta_k",
    "delta_k_grid",
    "bound_general",
    "bound_monotone",
    "bound_bx99",
    "bound_thm2",
    "bound_cor3",
    "bound_lemma_c",
    "bound_thm4",
    "regime_classify",
    "evaluate_all",
    "evaluate_columns",
    "best_of",
    "best_bound",
]

INF = float("inf")

EPS = sys.float_info.epsilon

# delta_k_grid stops once the certified lower end is this close to the best
# attained value, relative to max(1, |delta|), or after this many box splits
ENCLOSURE_REL_GAP = 1e-8
ENCLOSURE_MAX_SPLITS = 4096


def encode_float(x: float) -> float | str:
    """x when finite, else "inf", "-inf" or "nan": JSON has no literal for them
    (an inapplicable bound carries infinite factors)."""
    return x if math.isfinite(x) else str(x)


class SteinFactorBound(
    collections.namedtuple("_Bound", "m0 m1 method applicable condition_note")
):
    """An (M0, M1) Stein-factor pair with method tag, applicability and the
    note of the condition that decided it.

    The constructor refuses an applicable bound with a non-positive factor
    and an inapplicable one with a finite factor; an inapplicable bound
    carries m0 = m1 = inf.  The catalogue rows hold their notes as
    %-templates and arguments, formatted only when a bound is built
    (``_Rows.bound``); over a sweep's columns they refuse non-positive
    factors at once (``evaluate_columns``).
    """

    __slots__ = ()

    def __new__(
        cls, m0: float, m1: float, method: str, applicable: bool, condition_note: str = ""
    ):
        if applicable and not (m0 > 0.0 and m1 > 0.0):
            raise ValueError("applicable bounds must be positive")
        if not applicable and not (m0 == INF and m1 == INF):
            raise ValueError("inapplicable bounds must carry infinite factors")
        return tuple.__new__(cls, (m0, m1, method, applicable, condition_note))

    def to_json(self) -> dict:
        return {
            "m0": encode_float(self.m0),
            "m1": encode_float(self.m1),
            "method": self.method,
            "applicable": self.applicable,
            "note": self.condition_note,
        }


@dataclass(frozen=True)
class GkEvaluation:
    """One evaluation of the criterion function g_k."""

    phi: float
    p: float
    value: float


@dataclass(frozen=True)
class DeltaResult:
    """delta_k = inf g_k: a value, where it is attained, whether a closed form
    gave it (``certified``), ``lower``, the end that bounds the infimum from
    below, and ``route``, the computation that ran: "closed form",
    "constant" (theta_1..theta_k all 0) or "Bernstein enclosure".  On the
    first two ``lower`` is ``delta``; on the enclosure ``delta`` is the best
    attained value and ``lower`` a certified lower bound, at most
    1e-8 max(1, |delta|) below it."""

    k: int
    delta: float
    argmin: tuple[float, float]
    certified: bool
    lower: float
    route: str


def log_plus(x: float) -> float:
    """Positive part of the natural logarithm; 0 for arguments <= 0."""
    if x <= 0.0:
        return 0.0
    return max(math.log(x), 0.0)


def _ratio_columns(k: int, phis: np.ndarray) -> np.ndarray:
    """Columns j = 1..k of Re[(e^{i phi} - 1)^j] / (cos phi - 1).

    Uses the half-angle factorization e^{i phi} - 1 = 2 i sin(phi/2)
    e^{i phi/2}, under which the ratio collapses to the cancellation-free
    product

        -2^{j-1} sin(phi/2)^{j-2} cos(j (phi + pi) / 2).

    The j = 1 column is identically 1, j = 2 is 2 cos phi, and the phi -> 0
    limits (0 for j >= 3) emerge without a special case.  The ratio is even
    in phi and is evaluated at |phi|.
    """
    import numpy as np

    aphi = np.abs(phis)
    s = np.sin(aphi / 2.0)
    cols = np.empty((phis.size, k))
    cols[:, 0] = 1.0
    if k >= 2:
        cols[:, 1] = 2.0 * np.cos(aphi)
    spow = np.ones_like(s)
    for j in range(3, k + 1):
        spow = spow * s
        cols[:, j - 1] = -(2.0 ** (j - 1)) * spow * np.cos(j * (aphi + np.pi) / 2.0)
    return cols


def _q_rows(k: int, ps: np.ndarray) -> np.ndarray:
    """Rows j = 1..k of (1 - (1-p)^j) / p, via the stable geometric sum.

    (1-(1-p)^j)/p = sum_{i=0}^{j-1} (1-p)^i, which evaluates to j at p = 0
    without a special case and avoids cancellation for small p.
    """
    import numpy as np

    omp = 1.0 - ps
    rows = np.empty((k, ps.size))
    power = np.ones_like(ps)
    acc = np.zeros_like(ps)
    for j in range(1, k + 1):
        acc = acc + power
        rows[j - 1] = acc
        power = power * omp
    return rows


def g_k_grid(th: ThetaVector, k: int, phis: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Evaluate g_k on the grid phis x ps; returns shape (len(phis), len(ps))."""
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    th.require(k)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    R = _ratio_columns(k, phis)
    Q = _q_rows(k, ps)
    coef = np.array([th[j - 1] / math.factorial(j) for j in range(1, k + 1)])
    const = (2.0**k / math.factorial(k)) * th[k]
    return (R * coef) @ Q - const


def g_k_eval(th: ThetaVector, k: int, phi: float, p: float) -> GkEvaluation:
    """Evaluate g_k at a single (phi, p).

    phi must lie in (-pi, pi] and p in [0, 1].  Evaluation goes through
    |phi|, so the symmetry g_k(-phi, p) = g_k(phi, p) holds exactly.
    """
    if not -math.pi <= phi <= math.pi:
        raise ValueError("phi must lie in (-pi, pi]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    value = g_k_grid(th, k, [abs(phi)], [p])[0, 0]
    return GkEvaluation(phi=phi, p=p, value=float(value))


@functools.cache
def _bernstein_factors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bernstein coefficients, degree k - 1 on [0, 1], of the two factors of
    the j-th term of g_k, j = 1..k, as rows of two (k, k) arrays:

    * R_j(t) = Re[(e^{i phi} - 1)^j] / (cos phi - 1) with t = (cos phi + 1)/2.
      Re[(e^{i phi} - 1)^j] = sum_m C(j, m) (-1)^{j-m} T_m(cos phi) (T_m the
      Chebyshev polynomials) vanishes at cos phi = 1, so the division is exact.
    * Q_j(q) = sum_{i<j} q^i with q = 1 - p, that is (1 - (1-p)^j)/p.

    Computed in integers and fractions; each entry is rounded to float once.
    The arrays are shared by every caller and are read-only.
    """
    import numpy as np

    cheb = [[1], [0, 1]]  # T_m as coefficients of 1, c, c^2, ...
    while len(cheb) <= k:
        nxt = [0] + [2 * v for v in cheb[-1]]
        for i, v in enumerate(cheb[-2]):
            nxt[i] -= v
        cheb.append(nxt)
    r_rows, q_rows = [], []
    for j in range(1, k + 1):
        num = [0] * (j + 1)
        for m in range(j + 1):
            weight = math.comb(j, m) * (-1) ** (j - m)
            for i, v in enumerate(cheb[m]):
                num[i] += weight * v
        # synthetic division by (c - 1); the remainder num[0] + quo[0] is 0
        quo, carry = [0] * j, 0
        for i in range(j, 0, -1):
            carry += num[i]
            quo[i - 1] = carry
        # substitute c = 2t - 1
        in_t = [0] * j
        for i, v in enumerate(quo):
            for m in range(i + 1):
                in_t[m] += v * math.comb(i, m) * 2**m * (-1) ** (i - m)
        r_rows.append(_to_bernstein(in_t, k - 1))
        q_rows.append(_to_bernstein([1] * j, k - 1))
    r, q = np.array(r_rows), np.array(q_rows)
    r.flags.writeable = q.flags.writeable = False
    return r, q


def _to_bernstein(coeffs: list[int], n: int) -> list[float]:
    """Degree-n Bernstein coefficients on [0, 1] of sum_i coeffs[i] x^i:
    b_m = sum_{i<=m} C(m, i)/C(n, i) coeffs[i], exact and then rounded."""
    return [
        float(sum(Fraction(math.comb(m, i) * c, math.comb(n, i))
                  for i, c in enumerate(coeffs[: m + 1])))
        for m in range(n + 1)
    ]


def _halves(b: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """de Casteljau subdivision at the midpoint of one axis: the Bernstein
    coefficients on the lower and upper half of the box."""
    b = b if axis == 0 else b.T
    lo, hi = b.copy(), b.copy()  # lo[0] = b[0] and hi[n] = b[n] already
    n = len(b) - 1
    for i in range(1, n + 1):
        b = 0.5 * (b[:-1] + b[1:])
        lo[i] = b[0]
        hi[n - i] = b[-1]
    return (lo, hi) if axis == 0 else (lo.T, hi.T)


def _add_down(a: float, b: float) -> float:
    """a + b rounded toward -inf: the nearest sum, stepped down one ulp when
    its exact rounding error (TwoSum) shows that it rounded up."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return math.nextafter(s, -INF) if err < 0.0 else s


def delta_k_grid(th: ThetaVector, k: int) -> DeltaResult:
    """inf g_k over (phi, p) by a certified Bernstein range enclosure.

    With t = (cos phi + 1)/2 and q = 1 - p, g_k is theta_0 (the j = 1 term)
    plus a polynomial of degree k - 1 in each of t and q on [0, 1]^2.  The
    minimum of its Bernstein coefficients on a box bounds it from below on
    that box, and the corner coefficients are its values at the box corners.
    Boxes are taken best first (smallest lower bound) and halved by de
    Casteljau subdivision, along t at even depth and q at odd depth, until
    the best corner value and the smallest lower bound of any open box are
    within ENCLOSURE_REL_GAP * max(1, |delta|), or ENCLOSURE_MAX_SPLITS boxes
    have been split; the lower end is valid either way.

    ``delta`` and ``argmin`` are the best corner value and its (phi, p).
    ``lower`` is certified in floating point too: it subtracts
    k (k + D) eps S, with D the deepest box made and S the sum over the
    terms of max |coefficient| (which bounds every coefficient of every
    box), covering the rounding of forming the coefficients and of D
    subdivisions, and the final addition of theta_0 rounds down.

    When theta_1..theta_k are all 0, g_k is the constant theta_0: the value,
    argmin and lower end are the ones the subdivision gives, returned without
    it on the route "constant".
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    th.require(k)
    if not any(th.values[1 : k + 1]):
        return DeltaResult(k, th[0], (math.pi, 1.0), False, th[0], "constant")
    import numpy as np

    r, q = _bernstein_factors(k)
    w = np.array([th[j - 1] / math.factorial(j) for j in range(2, k + 1)])
    const = (2.0**k / math.factorial(k)) * th[k]
    root = (r[1:].T * w) @ q[1:] - const
    scale = float(np.abs(w) @ (np.abs(r[1:]).max(axis=1) * q[1:].max(axis=1)))
    scale += abs(const)
    n = k - 1
    best, best_at = INF, (0.0, 0.0)
    deepest = 0
    heap: list = []

    def push(b: np.ndarray, depth: int, t0: float, q0: float) -> None:
        nonlocal best, best_at, deepest
        deepest = max(deepest, depth)
        wt, wq = 0.5 ** ((depth + 1) // 2), 0.5 ** (depth // 2)
        for i, j in ((0, 0), (0, n), (n, 0), (n, n)):
            if b[i, j] < best:
                best = float(b[i, j])
                best_at = (t0 + wt * (i > 0), q0 + wq * (j > 0))
        heapq.heappush(heap, (float(b.min()), depth, t0, q0, b))

    push(root, 0, 0.0, 0.0)
    for splits in range(ENCLOSURE_MAX_SPLITS + 1):
        lo, depth, t0, q0, b = heap[0]
        margin = k * (k + deepest) * EPS * scale
        tol = ENCLOSURE_REL_GAP * max(1.0, abs(th[0] + best))
        if best - lo + margin <= tol or splits == ENCLOSURE_MAX_SPLITS:
            break
        heapq.heappop(heap)
        axis = depth % 2
        first, second = _halves(b, axis)
        push(first, depth + 1, t0, q0)
        if axis == 0:
            push(second, depth + 1, t0 + 0.5 ** ((depth + 2) // 2), q0)
        else:
            push(second, depth + 1, t0, q0 + 0.5 ** ((depth + 1) // 2))
    t, qv = best_at
    return DeltaResult(
        k=k,
        delta=th[0] + best,
        argmin=(math.acos(2.0 * t - 1.0), 1.0 - qv),
        certified=False,
        lower=_add_down(th[0], lo - margin),
        route="Bernstein enclosure",
    )


def _cor3_deltas(t0: Sequence[float], t1: Sequence[float], t2: Sequence[float],
                 t3: Sequence[float]) -> list[float | None]:
    """Per law, the order-3 closed form
    theta_0 - 2 theta_1 + 2 theta_2 - (4/3) theta_3, defined under
    theta_2 < 2 theta_1; None otherwise.

    Where the sum of finite entries overflows, it is formed at half scale,
    each term and partial sum exactly half, and doubled; past the double
    range that gives the largest double, a lower end of delta."""
    return [
        None if not c < 2.0 * b
        # the sum as formed, unless it overflowed from finite entries
        else delta if (-INF < (delta := a - 2.0 * b + 2.0 * c - (4.0 / 3.0) * d) < INF
                       or not _all_finite((a, b, c, d)))
        else min(2.0 * (0.5 * a - b + c - (2.0 / 3.0) * d), sys.float_info.max)
        for a, b, c, d in zip(t0, t1, t2, t3)
    ]


def delta_k(th: ThetaVector, k: int) -> DeltaResult:
    """delta_k = inf g_k, via closed form where available.

    k=1: g_1 is constant, delta = theta_0 - 2 theta_1.  k=2: the closed form
    theta_0 + cos phi (2-p) theta_1 - 2 theta_2 is minimized over the four
    corners of the domain.  k=3 with theta_2 < 2 theta_1: the classical value
    theta_0 - 2 theta_1 + 2 theta_2 - (4/3) theta_3 at (pi, 0).  Everything
    else falls through to the Bernstein enclosure of ``delta_k_grid``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    th.require(k)
    if k == 1:
        delta = th[0] - 2.0 * th[1]
        return DeltaResult(1, delta, (math.pi, 0.0), True, delta, "closed form")
    if k == 2:
        corners = [(math.pi, 0.0), (math.pi, 1.0), (0.0, 0.0), (0.0, 1.0)]
        vals = [
            th[0] + math.cos(phi) * (2.0 - p) * th[1] - 2.0 * th[2]
            for phi, p in corners
        ]
        idx = min(range(4), key=vals.__getitem__)
        return DeltaResult(2, vals[idx], corners[idx], True, vals[idx], "closed form")
    if k == 3 and (delta := _cor3_deltas(*zip(th.values[:4]))[0]) is not None:
        return DeltaResult(3, delta, (math.pi, 0.0), True, delta, "closed form")
    return delta_k_grid(th, k)


def _factors_from_delta(delta: float) -> tuple[float, float]:
    """M0/M1 from a positive delta: 2 sqrt(2/delta), (1/(2 delta))(1+log+(pi delta)).

    1/(2 delta) is formed as 0.5/delta, the same double wherever 2 delta is
    finite, and log(pi delta) as log pi + log delta where pi delta overflows.
    ``log_plus`` is written out, which spares a call per law: over the 256
    laws of a reliability sweep (n = 10, k = 2, q 0.05..0.8) COR3 took 0.76x
    and THM4 0.73x the time of calling it, the whole catalogue 0.90x
    (Python 3.11, 2-vCPU host).
    """
    pi_delta = math.pi * delta
    log_pi_delta = (math.log(pi_delta) if 1.0 < pi_delta < INF
                    else 0.0 if pi_delta <= 1.0 else math.log(math.pi) + math.log(delta))
    return 2.0 * math.sqrt(2.0 / delta), (0.5 / delta) * (1.0 + log_pi_delta)


class _Rows(collections.namedtuple("_Rows", "m0 m1 method applicable note args")):
    """One catalogue row of many laws, in columns: entry i of each column is
    law i's.  ``note`` holds %-templates and ``args`` their arguments, a lone
    argument bare; ``bound(i)`` builds law i's SteinFactorBound, the one
    place a note is formatted, and a sweep builds none."""

    __slots__ = ()

    def bound(self, i: int) -> SteinFactorBound:
        m0, m1, method, applicable, note, args = self
        return SteinFactorBound(m0[i], m1[i], method[i], applicable[i], note[i] % args[i])


def _rows(entries: Sequence[tuple]) -> _Rows:
    """The columns of one entry (m0, m1, method, applicable, note, args) per law."""
    return _Rows(*zip(*entries))


def _all_positive(values: Sequence[float]) -> bool:
    """Every value > 0: the least one is, and none is nan, as their sum is not."""
    return min(values) > 0.0 and not math.isnan(sum(values))

# MONOTONE's note by applicability, and the entries of an inapplicable row
# that carry no argument
_MONOTONE_NOTES = ("rate sequence j*lambda_j not nonincreasing", "j*lambda_j nonincreasing")
_BX99_NOT_FINITE = (INF, INF, "BX99", False, "theta not finite", ())
_COR3_NOT_FINITE = (INF, INF, "COR3", False, "theta not finite", ())
_THM4_NOT_FINITE = (INF, INF, "THM4", False, "theta not finite", ())
_THM4_UNDERFLOW = (INF, INF, "THM4", False, "delta underflowed to 0", ())


def _exp_fsum(values: Sequence[float]) -> float:
    """e^lambda of the exactly rounded sum lambda of values; inf where the sum
    or its exponential passes the double range."""
    try:
        return math.exp(math.fsum(values))
    except OverflowError:
        return INF


def bound_general(params: CompoundPoissonParams) -> SteinFactorBound:
    """The always-applicable exponential bound m0 = m1 = min{1, 1/lambda_1} e^lambda."""
    return _general(list(zip(params.rates))).bound(0)


def _general(rates: Sequence[Sequence[float]]) -> _Rows:
    try:
        e_lams = list(map(math.exp, map(math.fsum, zip(*rates))))
    except OverflowError:  # a law's sum or its exponential past the double range
        e_lams = list(map(_exp_fsum, zip(*rates)))
    # min{1, 1/lambda_1}, 1 at lambda_1 = 0
    values = [(1.0 / lam1 if lam1 > 1.0 else 1.0) * e_lam for lam1, e_lam in zip(rates[0], e_lams)]
    n = len(values)
    return _Rows(values, values, ["GENERAL"] * n, [True] * n, ["always applicable"] * n, [()] * n)


def bound_monotone(params: CompoundPoissonParams) -> SteinFactorBound:
    """Bound under the monotone-rates condition j lambda_j >= (j+1) lambda_{j+1}."""
    return _monotone([params.rates[0]], [monotone_condition(params)]).bound(0)


def _monotone(lam1s: Sequence[float], monotone: list[bool]) -> _Rows:
    m0 = [min(1.0, math.sqrt(2.0 / el if (el := math.e * lam1) < INF else 2.0 / math.e / lam1))
          if mono else INF for mono, lam1 in zip(monotone, lam1s)]
    # min{1/2, 1/(lambda_1 + 1)}
    m1 = [(1.0 / (lam1 + 1.0) if lam1 > 1.0 else 0.5) if mono else INF
          for mono, lam1 in zip(monotone, lam1s)]
    n = len(m0)
    return _Rows(m0, m1, ["MONOTONE"] * n, monotone,
                 list(map(_MONOTONE_NOTES.__getitem__, monotone)), [()] * n)


def bound_bx99(th: ThetaVector) -> SteinFactorBound:
    """Bound under theta_0 - 2 theta_1 > 0: m0 = sqrt(theta_0)/(theta_0-2 theta_1)."""
    th.require(1)
    t0, t1 = th.values[:2]
    return _bx99([t0], [t1], [th.finite]).bound(0)


def _bx99(t0: Sequence[float], t1: Sequence[float], finite: Sequence[bool]) -> _Rows:
    return _rows([
        _BX99_NOT_FINITE if not f
        else (math.sqrt(a) / gap, 1.0 / gap, "BX99", True, "theta_0 - 2*theta_1 = %g > 0", gap)
        if (gap := a - 2.0 * b) > 0.0
        else (INF, INF, "BX99", False, "theta_0 - 2*theta_1 = %g <= 0", gap)
        for a, b, f in zip(t0, t1, finite)
    ])


def bound_thm2(th: ThetaVector, k: int) -> SteinFactorBound:
    """Criterion-function bound at order k, applicable iff delta_k > 0.

    Uses the lower end of ``delta_k``: the closed form where there is one,
    else the certified lower bound of the Bernstein enclosure; the note
    names the route that ran."""
    if not th.finite:
        return SteinFactorBound(INF, INF, f"THM2({k})", False, "theta not finite")
    return _rows([_thm2(delta_k(th, k))]).bound(0)


def _thm2(dr: DeltaResult) -> tuple:
    """The THM2(k) entry of finite theta from its delta_k, ``dr``."""
    method = f"THM2({dr.k})"
    if not dr.lower > 0.0:
        return INF, INF, method, False, "delta_%s = %g <= 0", (dr.k, dr.lower)
    return (*_factors_from_delta(dr.lower), method, True, "delta_%s = %g (%s)",
            (dr.k, dr.lower, dr.route))


def bound_cor3(th: ThetaVector) -> SteinFactorBound:
    """Order-3 bound with the closed-form delta under theta_2 < 2 theta_1.

    Falls back to THM2(3), the certified lower end of the order-3 Bernstein
    enclosure, when theta_2 >= 2 theta_1, where no closed form is available.
    """
    th.require(3)
    t0, t1, t2, t3 = th.values[:4]
    return _cor3([t0], [t1], [t2], [t3], [th.finite]).bound(0)


def _cor3(t0: Sequence[float], t1: Sequence[float], t2: Sequence[float],
          t3: Sequence[float], finite: Sequence[bool]) -> _Rows:
    """COR3, or THM2(3) for each law where theta_2 >= 2 theta_1 leaves no
    closed form: the entry of its Bernstein enclosure, the closed form not
    tried a second time."""
    return _rows([
        _COR3_NOT_FINITE if not f
        else _thm2(delta_k_grid(ThetaVector((a, b, c, d)), 3)) if delta is None
        else (*_factors_from_delta(delta), "COR3", True, "delta = %g (closed form)", delta)
        if delta > 0.0
        else (INF, INF, "COR3", False, "delta = %g <= 0", delta)
        for a, b, c, d, f, delta in zip(t0, t1, t2, t3, finite, _cor3_deltas(t0, t1, t2, t3))
    ])


def _exp_three_halves(gamma: float) -> float:
    try:
        return math.exp(1.5 * gamma)
    except OverflowError:
        return INF


def _scaled_margin_delta(gamma: float, c: float) -> float:
    """delta = gamma/(2 c sqrt(pi)); shared so that the c = exp(1.5 gamma)
    specialization is bitwise identical to the generic call."""
    return gamma / (2.0 * c * math.sqrt(math.pi))


def bound_lemma_c(th: ThetaVector, c: float) -> SteinFactorBound:
    """Free-parameter bound: for c > 1 and theta_1/theta_0 in
    (1/2, 1/2 + log c/(3 theta_0)], delta = (2 theta_1 - theta_0)/(2 c sqrt(pi)).

    The upper endpoint is checked in the exponentiated form
    exp(1.5 (2 theta_1 - theta_0)) <= c, which is exact when c is supplied
    as exp(1.5 gamma) and equivalent over the reals by monotonicity.
    """
    th.require(1)
    if not c > 1.0:
        raise ValueError("c must exceed 1")
    if not th[0] > 0.0:
        raise ValueError("theta_0 must be positive")
    method = f"LEMMA_C({c:.6g})"
    gamma = 2.0 * th[1] - th[0]
    if not gamma > 0.0:
        return SteinFactorBound(INF, INF, method, False,
                                "theta_1/theta_0 = %g <= 1/2" % (th[1] / th[0]))
    if not _exp_three_halves(gamma) <= c:
        return SteinFactorBound(INF, INF, method, False,
                                "theta_1/theta_0 = %g above interval endpoint" % (th[1] / th[0]))
    delta = _scaled_margin_delta(gamma, c)
    if not delta > 0.0:
        return SteinFactorBound(INF, INF, method, False, "delta underflowed to 0")
    m0, m1 = _factors_from_delta(delta)
    return SteinFactorBound(m0, m1, method, True, "delta = %g" % delta)


def bound_thm4(th: ThetaVector) -> SteinFactorBound:
    """Overdispersed-regime bound: for 2 theta_1 > theta_0,
    delta = gamma/(2 sqrt(pi) e^{1.5 gamma}) with gamma = 2 theta_1 - theta_0."""
    th.require(1)
    t0, t1 = th.values[:2]
    return _thm4([t0], [t1], [th.finite]).bound(0)


def _thm4(t0: Sequence[float], t1: Sequence[float], finite: Sequence[bool]) -> _Rows:
    return _rows([
        _THM4_NOT_FINITE if not f
        else (INF, INF, "THM4", False, "2*theta_1 - theta_0 = %g <= 0", gamma)
        if not (gamma := 2.0 * b - a) > 0.0
        else (*_factors_from_delta(delta), "THM4", True, "delta = %g", delta)
        if (delta := _scaled_margin_delta(gamma, _exp_three_halves(gamma))) > 0.0
        else _THM4_UNDERFLOW
        for a, b, f in zip(t0, t1, finite)
    ])


def regime_classify(bounds: list[SteinFactorBound]) -> str:
    """BX99_OK, COR3_OK or THM4_OK for the first of those rows applicable in a
    catalogue from ``evaluate_all`` (a THM2(3) fallback is not COR3), else
    GENERAL_ONLY."""
    ok = {b.method for b in bounds if b.applicable}
    return next((f"{m}_OK" for m in ("BX99", "COR3", "THM4") if m in ok), "GENERAL_ONLY")


def evaluate_all(
    params: CompoundPoissonParams, th: ThetaVector | None = None
) -> list[SteinFactorBound]:
    """Evaluate the five named bounds for params.

    ``th`` may pass theta(params, K) already computed, with K at least 3.
    A THM2(k) row of any order is ``bound_thm2(th, k)``.
    """
    if th is None:
        th = theta(params, 3)
    return [bound_general(params), bound_monotone(params), bound_bx99(th), bound_cor3(th),
            bound_thm4(th)]


def evaluate_columns(rates: list[list[float]]) -> tuple[list[list[float]], list[_Rows]]:
    """theta(params, 3) and the five catalogue rows of many laws at once, in
    columns: ``rates[j - 1]`` holds lambda_j of every law, each law checked
    as CompoundPoissonParams checks it.  Each row is one call of its
    function over the columns of every law; ``row.bound(i)`` of each row is
    ``evaluate_all`` of law i, bit for bit.  This is the catalogue of every
    row of a sweep."""
    _check_laws(rates)
    thetas = _theta_columns(rates, 3)
    t0, t1, t2, t3 = thetas
    # every law's theta is finite where the sum of each column, of entries
    # >= 0, is; else, or where a sum of finite entries overflows, law by law
    finite = ([True] * len(t0) if all(map(math.isfinite, map(sum, thetas)))
              else list(map(_all_finite, zip(*thetas))))
    rows = [
        _general(rates),
        _monotone(rates[0], _monotone_columns(rates)),
        _bx99(t0, t1, finite),
        _cor3(t0, t1, t2, t3, finite),
        _thm4(t0, t1, finite),
    ]
    # the constructor's check, over every law; an inapplicable entry is inf
    if not all(_all_positive(row.m0) and _all_positive(row.m1) for row in rows):
        raise ValueError("applicable bounds must be positive")
    return thetas, rows


def _first_least(laws: Iterable[Sequence[float]]) -> list[int]:
    """For each law's values, none of them nan, the index of the first least
    one: the rule by which ``best_of`` picks its m0 and its m1 row, and each
    sweep row its best m1 row."""
    return [values.index(min(values)) for values in laws]


def best_of(bounds: list[SteinFactorBound]) -> SteinFactorBound:
    """Componentwise minimum of a bound list, for m0 and m1 separately: the
    first bound of least m0 and the first of least m1 (``_first_least``) win.

    The winning method for each component is recorded in the condition note;
    the method tag is the m1 winner's.
    """
    i0, i1 = _first_least(list(zip(*bounds))[:2])  # over the m0s, over the m1s
    b0, b1 = bounds[i0], bounds[i1]
    return SteinFactorBound(b0.m0, b1.m1, b1.method, True, f"m0: {b0.method}, m1: {b1.method}")


def best_bound(params: CompoundPoissonParams) -> SteinFactorBound:
    """Componentwise minimum of all applicable bounds for params (see best_of)."""
    return best_of(evaluate_all(params))
