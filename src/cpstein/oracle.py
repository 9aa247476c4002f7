"""Two-boundary solver for the compound Poisson Stein equation and empirical factors.

For U ~ CP with rates lambda_j and a Kolmogorov test function
h = I(. <= y), the Stein equation is

    h(x) - E h(U) = sum_j j lambda_j f(x+j) - x f(x),    x >= 0.       (*)

The unknowns are f(1..N), with f = 0 beyond the truncation point N; f(0)
has coefficient 0 in (*) and is not part of the solution.  (*) is imposed
at x = 0..N except one point x0 <= min(floor(theta_0), N): below the mean
f is fixed from the left boundary x = 0, above it from the zero tail, so
no rounding error is amplified (a recursion from either end alone grows it
like e^lambda).  The defect of the one equation left out, at x0, is
reported as ``residual0``.

Summing (*) against the law of U gives sum_x P(U = x) d(x) = 0 for the
defects d of a bounded f, so the defect at x0 is the P-weighted sum of
the others divided by P(U = x0): rounding in the imposed equations
reaches f in proportion to 1 / P(U = x0).  So x0 is floor(theta_0) unless
its probability is below half the largest P(U = x) at x <= floor(theta_0);
then it is the largest x whose probability is not.  That moves x0 on
or near a lattice, for one: if U lives on d Z, d > 1, (*) splits into d chains
x = r mod d, the chains r != 0 have as many equations as unknowns, and
leaving out an equation off d Z would make the system singular.

The system has lower bandwidth 1 and upper bandwidth J.  Above
M = max(y, x0) + J + 1 every equation is imposed and the system is
triangular: f there comes from the scalar backward recursion, stable
because theta_0 / x <= 1.  Its values enter the M x M block below as known
terms, and only that block is solved, by banded Gaussian elimination with
partial pivoting.  For a sweep of thresholds y = 0..y_max, linearity gives
f_y = c_y - P(U <= y) g with (*) solved for right-hand sides I(. <= y) and
1, and c_y = 0 above max(y, x0), so one elimination serves every y, and
the solutions truncated at N and at 2N differ only in g.  They rarely
differ even there: the backward recursion forgets its start, so the tail
truncated at N meets the one truncated at 2N, bit for bit, a few dozen
points below N.  The N tail is run only until then, and where the two
agree on the J values that enter the block, one g and one reduction of
each block serve both truncations; only the sups above the block differ.

Sweeping y and taking sups of |f| and |f(x+1)-f(x)| yields empirical
Kolmogorov Stein factors, the ground truth that every bound in
:mod:`cpstein.bounds` must dominate.  The elimination is factored once and
applied to BLOCK_COLUMNS right-hand sides at a time, and each solved block
is reduced to its sups a few rows at a time before the next is solved, so
a sweep holds M x BLOCK_COLUMNS floats at most, while its time grows like
M x (y_max + 3).  ``verify`` checks the catalogue against them, and a
model's d_K bound against its exact law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    CompoundPoissonParams, DistributionTable, ThetaVector, TruncationCapError, _jlam, cp_pmf,
    theta,
)
from .bounds import best_of, encode_float, evaluate_all
from .exact import BudgetExceededError, distance

if TYPE_CHECKING:  # numpy loads in the functions that use it
    import numpy as np

__all__ = [
    "SteinSolution",
    "EmpiricalFactors",
    "ConvergenceError",
    "solve_stein",
    "interior_residuals",
    "empirical_factors",
    "verify",
    "poisson_stein_forward",
    "default_x_max",
]

TAIL_FOR_YMAX = 1e-8
STABILITY_TOL = 1e-7
# right-hand sides that empirical_factors solves at a time: M x 512 floats;
# up to a total rate of about 390 (y_max + 3 <= 512) the sweep is one block
BLOCK_COLUMNS = 512
# cells of the M x (y_max + 3) sweep that empirical_factors solves, a bound
# on its time: about 4e7 cells/s on a 2-vCPU host, so 2e8 cells take about
# 5 s (4.7 s for one rate, 5.8 s at J = 3) and admit a single rate up to
# about 13 500; theta_0 = 3000 takes 1.1e7 cells
ORACLE_CELL_BUDGET = 200_000_000
# points x = 0..x_max of one solve_stein call, about 1.5 us and 140 B each:
# x_max = 4e6 takes 6-8 s and 562 MB of peak memory
STEIN_POINT_BUDGET = 4_000_000


class ConvergenceError(RuntimeError):
    """Raised when the factors at truncation N and 2N differ by more than the
    tolerance, or when the solution passes the largest double."""


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


def default_x_max(params: CompoundPoissonParams, y: int) -> int:
    """Default truncation point for thresholds up to y:
    max(4 (theta_0 + 10 sqrt(theta_0 + theta_1)), y + 20 J), rounded up.
    y + 20 J is formed in integers, so a y past the float range gives an
    x_max that ``solve_stein`` refuses, not an OverflowError."""
    return _x_max_rule(params, theta(params, 1), y)


def _x_max_rule(params: CompoundPoissonParams, th: ThetaVector, y: int) -> int:
    """``default_x_max`` with ``th``, theta(params, K) for any K >= 1."""
    bulk = 4.0 * (th[0] + 10.0 * math.sqrt(th[0] + th[1]))
    if bulk == math.inf:  # far past any table cp_pmf builds
        raise TruncationCapError("truncation cap exceeded")
    return max(math.ceil(bulk), int(y) + 20 * params.max_cluster_size)


def _same_bits(a: float, b: float) -> bool:
    """a and b are the same double: -0.0 is not 0.0, and a nan is nothing."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _tail(
    jl: list[float], lo: int, n: int, r: float, ref: list[float] | None = None
) -> list[float]:
    """Backward recursion t(x) = (sum_j j lambda_j t(x+j) - r) / x, x = n..lo.

    This is (*) with constant right-hand side r and t = 0 beyond n.  It is
    stable for x > theta_0: an error in t(x+j) reaches t(x) multiplied by
    at most theta_0 / x.  Returns [t(lo), ..., t(n)] followed by J zeros.

    The sum runs over j in increasing order from 0.0, one rounding per
    term; for J <= 3 it is written out, with the last values carried in
    locals, which gives the same bits as the loop over j in less time.
    J = 2 runs the J = 3 form with c3 = 0.0: the running sum is never -0.0,
    so adding 0.0 * t, t finite, leaves its bits as they are.

    ``ref`` is this recursion from the same lo and r to a larger n.  The
    recursion forgets its start, so the two meet a few dozen points below
    n: once the values this one carries (J of them, three at J = 2) are
    ref's bit for bit, every value below is ref's too, and is taken from
    it.  Until then the loop over j runs, which has the written-out form's
    bits while every value is finite; a non-finite value sends the call
    back to the recursion without ref.
    """
    J = len(jl)
    if J > 3 or ref is not None:
        t = [0.0] * (n - lo + 1 + J)
        carried, run = (3 if J == 2 else J), 0
        for i in range(n - lo, -1, -1):
            s = 0.0
            k = i
            for c in jl:
                k += 1
                s += c * t[k]
            t[i] = v = (s - r) / (lo + i)
            if ref is not None:
                if not math.isfinite(v):
                    return _tail(jl, lo, n, r)
                run = run + 1 if _same_bits(v, ref[i]) else 0
                if run == carried:
                    t[:i] = ref[:i]
                    return t
        return t
    t = [0.0] * J  # t(n + J), ..., t(n + 1), then t(n), ..., t(lo)
    push = t.append
    xs = range(n, lo - 1, -1)
    if J == 1:
        (c1,) = jl
        a1 = 0.0
        for x in xs:
            a1 = (0.0 + c1 * a1 - r) / x
            push(a1)
    else:
        c1, c2, c3 = jl + [0.0] * (3 - J)
        a1 = a2 = a3 = 0.0
        for x in xs:
            a1, a2, a3 = (0.0 + c1 * a1 + c2 * a2 + c3 * a3 - r) / x, a1, a2
            push(a1)
    t.reverse()
    return t


def _tail_terms(jl: list[float], x0: int, M: int, t: list[float]) -> np.ndarray:
    """Known terms sum_{j: x+j > M} j lambda_j t(x+j) of the block equations.

    One entry per block equation x = 0..M except x0, in order; ``t`` holds
    the values from x = M + 1 on.
    """
    import numpy as np

    out = np.zeros(M)
    J = len(jl)
    for x in range(max(0, M + 1 - J), M + 1):
        if x != x0:
            s = 0.0
            for j in range(M + 1 - x, J + 1):
                s += jl[j - 1] * t[x + j - M - 1]
            out[x - (x > x0)] = s
    return out


def _factor(jl: list[float], x0: int, M: int) -> tuple[list, list[list[float]]]:
    """Forward elimination of (*) at x = 0..x0 - 1, on f(1..M).

    Equation x has -x on f(x) and j lambda_j on f(x + j), x + j <= M.  The
    equations below x0 have one entry left of the diagonal, so each pivot
    compares two scalars.  Returns the steps k = 0..x0 - 2, as (swap, m):
    rows k and k + 1 trade places if swap, then row k + 1 loses m times row
    k; and the rows U[k], k < x0, of the upper factor, on f(k + 1), ...,
    f(k + J + 2).  The rows above x0 are the equations themselves.
    """
    J = len(jl)
    inner = jl + [0.0]  # equation x on f(x + 1), ..., f(x + J + 1), for x + J <= M

    def right(x: int) -> list[float]:
        if x + J <= M:
            return inner
        return [c if x + j <= M else 0.0 for j, c in enumerate(jl, 1)] + [0.0]

    steps, U = [], []
    cur = right(0) + [0.0]
    for x in range(1, x0):  # eliminate f(x) from equation x
        d, nxt = -float(x), right(x)
        swap = abs(d) > abs(cur[0])
        if swap:  # equation x is the pivot row
            m = cur[0] / d
            U.append([d] + nxt)
            cur = [a - m * c for a, c in zip(cur[1:], nxt)]
        else:
            m = d / cur[0]
            U.append(cur)
            cur = [a - m * c for a, c in zip(nxt, cur[1:])]
        cur.append(0.0)
        steps.append((swap, m))
    if x0 > 0:
        U.append(cur)
    return steps, U


def _block_solve(
    jl: list[float], x0: int, M: int, B: np.ndarray | list[float], lu: tuple
) -> None:
    """Solve (*) at x = 0..M except x0 for f(1..M), in place on B.

    B has one row per equation, in order of x, and one column per
    right-hand side (a list of floats for a single one), with the terms in
    f(x), x > M, already moved there.  ``lu`` is ``_factor(jl, x0, M)``,
    the banded Gaussian elimination with partial pivoting; it is applied
    to B, then back substitution; the equations above x0 are already
    triangular.  On an array each product and difference is one numpy call
    across the columns, written into B or into one scratch row, and a pivot
    swap exchanges the rows themselves, so a column's result does not
    depend on the other columns solved with it.  On return row i of B
    holds f(i + 1).
    """
    J = len(jl)
    steps, U = lu
    above = [None] + jl + [0.0]  # row k >= x0, equation k + 1, right of its diagonal
    if isinstance(B, list):
        b = B[0]
        for k, (swap, m) in enumerate(steps):
            b_nxt = B[k + 1]
            if swap:
                b, b_nxt = b_nxt, b
            b, B[k] = b_nxt - m * b, b
        if x0 > 0:
            B[x0 - 1] = b
        for k in range(M - 1, -1, -1):
            u, d = (U[k], U[k][0]) if k < x0 else (above, -float(k + 1))
            b = B[k]
            for i in range(1, min(J + 2, M - k)):
                if u[i] != 0.0:
                    b = b - u[i] * B[k + i]
            B[k] = b / d
        return

    import numpy as np

    rows = list(B)  # row views: row k holds equation k's pending right-hand side
    s = np.empty(B.shape[1])
    mul, sub = np.multiply, np.subtract
    for k, (swap, m) in enumerate(steps):
        b, b_nxt = rows[k], rows[k + 1]
        if swap:
            mul(b_nxt, m, s)
            sub(b, s, s)
            b[...] = b_nxt
            b_nxt[...] = s
        else:
            mul(b, m, s)
            sub(b_nxt, s, b_nxt)
    for k in range(M - 1, -1, -1):
        u, d = (U[k], U[k][0]) if k < x0 else (above, -float(k + 1))
        b = rows[k]
        for i in range(1, min(J + 2, M - k)):
            if u[i] != 0.0:
                mul(rows[k + i], u[i], s)
                sub(b, s, b)
        np.divide(b, d, b)


def _split(
    params: CompoundPoissonParams, pmf: np.ndarray, y: int
) -> tuple[list[float], int, int]:
    """j lambda_j, the equation left out x0, and the block size
    M = max(y, x0) + J + 1 for thresholds up to y.

    x0 is the largest x <= floor(theta_0) with P(U = x) at least half the
    largest such probability (see the module docstring).
    """
    import numpy as np

    jl = _jlam(params.rates)
    p = pmf[: int(math.floor(math.fsum(jl))) + 1]
    x0 = int(np.flatnonzero(p >= 0.5 * p.max())[-1])
    return jl, x0, max(y, x0) + len(jl) + 1


def solve_stein(params: CompoundPoissonParams, y: int, x_max: int) -> SteinSolution:
    """Solve the Stein equation for h = I(. <= y) on x = 1..x_max.

    E h(U) comes from the certified pmf table.  f = 0 beyond x_max, and the
    equation is imposed at x = 0..x_max except one point x0 <=
    min(floor(theta_0), x_max), chosen as in the module docstring: f above
    the block x <= M comes from the backward recursion, f on the block
    from its banded elimination.  residual0 is the defect
    of the one equation left out, |sum_j j lambda_j f(x0+j) - x0 f(x0) -
    (h(x0) - E h(U))|, a truncation and rounding diagnostic.  An x_max above
    STEIN_POINT_BUDGET raises BudgetExceededError before anything is built.
    """
    import numpy as np

    y = int(y)
    if y < 0:
        raise ValueError("y must be >= 0")
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if x_max > STEIN_POINT_BUDGET:
        # its digit count, not x_max: str() refuses an int past 4300 digits;
        # log10 takes any int, and is within one of the count
        d = math.floor(math.log10(x_max)) + 1
        d += (x_max >= 10**d) - (x_max < 10 ** (d - 1))
        raise BudgetExceededError(
            f"x_max of {d} digits exceeds budget {STEIN_POINT_BUDGET} points"
        )
    table = cp_pmf(params)
    cdf = table.cdf()
    eh_u = float(cdf[min(y, table.x_max)])
    jl, x0, M = _split(params, table.pmf[: x_max + 1], y)
    M = min(M, x_max)  # a short window is all block
    t = _tail(jl, M + 1, x_max, -eh_u)  # f(x) = -E h(U) g(x) above the block
    xs = np.delete(np.arange(M + 1), x0)
    b = ((xs <= y) - eh_u - _tail_terms(jl, x0, M, t)).tolist()
    _block_solve(jl, x0, M, b, _factor(jl, x0, M))
    f = [0.0] + b + t  # f(0..x_max), then J zeros
    lhs = math.fsum(c * f[x0 + j] for j, c in enumerate(jl, start=1))
    residual0 = abs(lhs - x0 * f[x0] - ((x0 <= y) - eh_u))
    return SteinSolution(
        params=params,
        y=y,
        x_max=x_max,
        f=np.array(f[: x_max + 1]),
        eh_u=eh_u,
        residual0=residual0,
    )


def interior_residuals(sol: SteinSolution) -> np.ndarray:
    """Defects of the Stein equation at x = 1..x_max-J.

    The last J points are excluded: they touch the truncated tail directly.
    """
    import numpy as np

    jlam = _jlam(sol.params.rates)
    J = len(jlam)
    hi = sol.x_max - J
    if hi < 1:
        return np.zeros(0)
    x = np.arange(1, hi + 1)
    s = np.zeros(hi)
    for j in range(1, J + 1):
        s += jlam[j - 1] * sol.f[x + j]
    h = (x <= sol.y).astype(float)
    return h - sol.eh_u - (s - x * sol.f[x])


def _sups(C: np.ndarray, P: np.ndarray, g: np.ndarray, g_next: float, acc: np.ndarray) -> None:
    """Fold into acc = [m0, m1], or into each of its rows [m0, m1], the sups
    of |f_y| over x = 1..M and of |f_y(x+1) - f_y(x)| over x = 1..M, for
    the thresholds y of C's columns.

    On the block f_y = C[:, y] - P[y] g, and f_y(M+1) = -P[y] g_next.
    F = C - g P^T and its differences D are formed a few rows at a time in
    two scratch buffers of BLOCK_COLUMNS^2 / 32 cells (2^13 at 512 columns,
    64 KiB, which the heap reuses; 16 rows of a full block); consecutive
    chunks share a row, so D spans their edges.  Every entry is the product
    and difference of the whole-block F, and max is exact, so the sups do
    not depend on the chunks; np.maximum keeps a nan.
    """
    import numpy as np

    M, width = C.shape
    rows = max(2, BLOCK_COLUMNS**2 // 32 // width)
    F, D = np.empty((rows, width)), np.empty((rows - 1, width))
    for lo in range(0, M - 1, rows - 1):
        hi = min(lo + rows, M)
        f, d = F[: hi - lo], D[: hi - lo - 1]
        np.multiply.outer(g[lo:hi], P, out=f)
        np.subtract(C[lo:hi], f, out=f)
        np.subtract(f[1:], f[:-1], out=d)
        # a nan makes max and min both nan
        np.maximum(acc, (max(f.max(), -f.min()), max(d.max(), -d.min())), out=acc)
    across = g_next * P + f[-1]  # f_y(M) - f_y(M+1)
    acc[..., 1] = np.maximum(acc[..., 1], np.abs(across, out=across).max())


def empirical_factors(
    params: CompoundPoissonParams,
    y_max: int | None = None,
    x_max: int | None = None,
) -> EmpiricalFactors:
    """Empirical Kolmogorov Stein factors by sweeping thresholds y = 0..y_max.

    y_max defaults to the smallest y with P(U > y) <= 1e-8; beyond it the
    right-hand side h - E h(U) is uniformly small and contributes nothing at
    the reported precision.  x_max defaults to ``default_x_max(params,
    y_max)`` (and is raised to M + J if smaller).  By linearity f_y = c_y -
    P(U <= y) g, where c_y solves the equations with right-hand side
    I(. <= y) and vanishes above max(y, x0), and g solves them with
    right-hand side 1.  One elimination of the block x <= M solves every
    c_y and g for truncation at x_max and at 2 x_max, BLOCK_COLUMNS
    right-hand sides at a time (the g first), with running sups; the sups
    are taken on the interior x <= x_max - J, and both pairs of sups must
    agree within STABILITY_TOL and be finite, or ConvergenceError is
    raised.  The factors at 2 x_max are returned.

    The 2 x_max pass does the work once where the x_max pass would repeat
    it bit for bit.  The backward recursion above the block forgets its
    start, so the x_max tail is run only until it meets the 2 x_max tail
    (``_tail`` with ``ref``), a few dozen points below x_max.  Where the two
    tails agree on the J values that enter the block, the two g agree too:
    one g column is solved, and each block's sups are taken once for both
    truncations.  Only the sups above the block, up to x_max - J and up to
    2 x_max - J, are taken for each.  Where the tails differ at the block,
    as in a window with x_max at its floor, both g are solved and reduced.
    A sweep of more than ORACLE_CELL_BUDGET cells, M x (y_max + 3), raises
    BudgetExceededError before anything is solved.
    """
    return _measure(params, cp_pmf(params), y_max, x_max)


def _measure(
    params: CompoundPoissonParams,
    table: DistributionTable,
    y_max: int | None,
    x_max: int | None,
    th: ThetaVector | None = None,
) -> EmpiricalFactors:
    """``empirical_factors`` with ``table``, the table of ``cp_pmf(params)``,
    and ``th``, theta(params, K) for some K >= 1, or None."""
    import numpy as np

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
    P = cdf[: y_max + 1].astype(float)

    if x_max is None:
        x_max = _x_max_rule(params, theta(params, 1) if th is None else th, y_max)
    jl, x0, M = _split(params, table.pmf, y_max)
    if M * (y_max + 3) > ORACLE_CELL_BUDGET:
        raise BudgetExceededError(
            f"oracle block of M = {M} equations by y_max + 3 = {y_max + 3} thresholds"
            f" exceeds budget {ORACLE_CELL_BUDGET} cells"
        )
    J = len(jl)
    n = max(int(x_max), M + J)
    wide = _tail(jl, M + 1, 2 * n, 1.0)
    tails = [_tail(jl, M + 1, n, 1.0, wide), wide]
    acc = np.empty((2, 2))  # running [m0, m1] at truncation n and at 2n
    # each distinct g, from the tail that makes it, with the rows of acc it serves
    if all(map(_same_bits, tails[0][:J], wide[:J])):
        gs = [(wide, acc)]
    else:
        gs = [(tails[0], acc[:1]), (wide, acc[1:])]
    lu = _factor(jl, x0, M)
    xs = np.delete(np.arange(M + 1), x0)[:, None]
    # the g, then thresholds y = lo..hi - 1, fill the first block; each later
    # block holds thresholds alone
    B = np.empty((M, min(BLOCK_COLUMNS, y_max + 1 + len(gs))))
    for col, (t, _) in enumerate(gs):
        B[:, col] = 1.0 - _tail_terms(jl, x0, M, t)
    # where f passes the largest double (off the support of a lattice law
    # at a large rate) the sups are inf or nan: the sweep stops at the first
    # such block, and the law is refused
    with np.errstate(over="ignore", invalid="ignore"):
        for a, t, top in zip(acc, tails, (n, 2 * n)):
            # above the block f_y = -P[y] g, and P is increasing: there the sups
            # over y are P[y_max] times those of g, on the interior x <= top - J
            gt = np.array(t[: top - J - M + 1])
            a[0] = P[-1] * np.abs(gt[:-1]).max(initial=0.0)
            a[1] = P[-1] * np.abs(gt[1:] - gt[:-1]).max(initial=0.0)
        lo, col = 0, len(gs)
        while lo <= y_max:
            hi = min(lo + B.shape[1] - col, y_max + 1)
            block = B[:, : col + hi - lo]
            np.less_equal(xs, np.arange(lo, hi), out=block[:, col:])
            _block_solve(jl, x0, M, block, lu)
            if col:  # the g, kept from the block that solved them
                g = B[:, :col].T.copy()
            for g_k, (t, rows) in zip(g, gs):
                _sups(block[:, col:], P[lo:hi], g_k, t[0], rows)
            if hi <= y_max and not np.isfinite(acc).all():
                break
            lo, col = hi, 0
    if not np.isfinite(acc).all():
        raise ConvergenceError("Stein solution passes the largest double")
    (m0_a, m1_a), (m0_b, m1_b) = acc.tolist()
    if abs(m0_b - m0_a) <= STABILITY_TOL and abs(m1_b - m1_a) <= STABILITY_TOL:
        return EmpiricalFactors(m0_hat=m0_b, m1_hat=m1_b, y_max=y_max, x_max=2 * n)
    raise ConvergenceError("truncation not converged")


def verify(params: CompoundPoissonParams, model=None, **law) -> dict:
    """Check every applicable bound of the catalogue against the measured
    factors and, given a model, its d_K bound against the exact distance;
    returns the report that ``cpstein verify`` prints.

    ``cp_pmf`` builds the approximant's table once, for the oracle and for
    the distance.  The oracle runs once for every row: a row passes if
    m0_hat <= m0 and m1_hat <= m1.  ``model`` is any object with the
    methods of the :mod:`cpstein.models` classes, and ``law`` holds the
    arguments of its ``exact_law``.  Its d_K bound is taken at the best m1 of the catalogue
    and passes if d_k + certified_slack - 4 mc_stderr <= dk_bound: the tail
    mass the tables leave out counts against the model, and a Monte Carlo
    law gets four standard errors.  An infinite best m1 (only GENERAL
    applies and its e^lambda overflows) gives an infinite d_K bound, which
    passes and is vacuous, as a sweep row prints it.  A model without a d_K
    bound (independent sums) is judged by its rows alone.  ``pass`` holds
    if every check does.
    """
    table = cp_pmf(params)
    th = theta(params, 3)
    emp = _measure(params, table, None, None, th)
    bounds = evaluate_all(params, th=th)
    checks = [
        {
            "method": b.method,
            "m0_bound": encode_float(b.m0),
            "m0_hat": emp.m0_hat,
            "m1_bound": encode_float(b.m1),
            "m1_hat": emp.m1_hat,
            "pass": emp.m0_hat <= b.m0 and emp.m1_hat <= b.m1,
            "x_max": emp.x_max,
            "y_max": emp.y_max,
        }
        for b in bounds
        if b.applicable
    ]
    empirical = {k: getattr(emp, k) for k in emp.__dataclass_fields__}
    report = {"rates": list(params.rates), "empirical": empirical, "checks": checks}
    ok = all(c["pass"] for c in checks)
    if model is not None:
        report["input"] = model.to_json()
        dist = distance(model.exact_law(**law), table)
        report["distance"] = dist.to_json()
        best = best_of(bounds)
        dk_bound = model.dk_bound(best.m1)
        if dk_bound is not None:
            upper = dist.d_k + dist.certified_slack - 4.0 * dist.mc_stderr
            report["dk_bound"] = dk_bound
            report["dk_bound_method"] = best.method
            report["vacuous"] = dk_bound > 1.0
            report["dk_pass"] = upper <= dk_bound
            ok = ok and report["dk_pass"]
    report["pass"] = ok
    return report


def poisson_stein_forward(lam: float, y: int, x_max: int) -> np.ndarray:
    """Classical forward-sum solution of the Poisson Stein equation.

    For Z ~ Poisson(lam) and h = I(. <= y), the equation
    lam f(x+1) - x f(x) = h(x) - E h(Z) has the explicit solution

        f(x+1) = (x! / lam^{x+1}) sum_{i<=x} (h(i) - P(Z<=y)) lam^i / i!,

    which in split form reads f(x+1) = P(Z>y) R(x) / lam for x <= y and
    P(Z<=y) S(x) / lam for x > y, with R(x) = P(Z<=x)/P(Z=x) and
    S(x) = P(Z>x)/P(Z=x).  Both are evaluated by the equation itself, which
    they satisfy: f(x+1) = (P(Z>y) + x f(x)) / lam upward from f(0) = 0 for
    x <= y, and f(x) = (P(Z<=y) + lam f(x+1)) / x downward above y, from a
    zero start far enough out that the tail it leaves out is below 2^-60 of
    the tail it keeps.  Every step adds two positive terms, so the relative
    error stays at a few ulps (about 1e-15 at lam = 600, where a log-gamma
    front with scipy's tail probabilities of Z at x rounded to 1.4e-12).
    Returns f on indices 0..x_max with f[0] = 0.

    This is an independent route used to cross-check the Stein solver on
    single-size-cluster (pure Poisson) inputs.  It is the one function that
    loads scipy, which only the ``test`` extra installs.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    import numpy as np

    try:
        from scipy import special
    except ImportError as exc:
        raise ImportError(
            "poisson_stein_forward needs scipy, from the test extra:"
            " pip install 'cpstein[test]'"
        ) from exc

    p_le = float(special.pdtr(y, lam))
    p_gt = float(special.pdtrc(y, lam))
    f = [0.0] * (x_max + 1)
    for x in range(min(y, x_max - 1) + 1):
        f[x + 1] = (p_gt + x * f[x]) / lam
    # start where the neglected tail is P(Z > top) <= 2^-60 P(Z > x_max - 1)
    top, weight = max(x_max, math.ceil(lam)), 1.0
    while weight > 2.0**-60:
        top += 1
        weight *= lam / top
    g = 0.0
    for x in range(top, y + 1, -1):
        g = (p_le + lam * g) / x
        if x <= x_max:
            f[x] = g
    return np.array(f)
