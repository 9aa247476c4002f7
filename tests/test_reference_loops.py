"""Bit identity of the oracle and pmf hot loops against their first versions.

The Stein elimination works in place on preallocated rows, and the scalar
recurrences of ``cp_pmf`` and of the oracle's tail write the sum over rates
out for J <= 3.  Each rewrite runs the same float operations in the same
order, so the results must agree bit for bit, -0.0 and all, with the loops
as first written, which are kept here: ``block_solve_reference``,
``tail_reference``, ``panjer_reference`` and ``chernoff_tail_reference``.

The oracle's sweep does the work of the truncation at N only where it
differs from the truncation at 2N: the N tail stops where it meets the 2N
tail, and one g serves both where the tails agree at the block.
``empirical_factors_reference``, the sweep as first written, with both
tails in full and each g solved and reduced on its own, is kept here; every
field, and the error where there is one, must agree with it bit for bit.

The truncation of ``cp_pmf`` and of both mixed-Poisson tables is one
doubling rule, ``core._truncation_point``, from one bulk start.  The loop
that ``cp_pmf`` replaced is kept here, ``cp_pmf_x_max_reference``, and so
is the Poisson mixture as first written, with a quantile search of its own
and a log-gamma Poisson pmf: ``poisson_ppf_reference`` and
``poisson_mixture_table_reference``.  The Poisson mixture is now built from
``cp_pmf``'s recursion, so it is held to mpmath and agrees with its
reference to the log-gamma form's accuracy.  The negative binomial is cut
by a bound on the tail past its last entry (the pmf ratio's, and for shape
<= 1 the smaller of it and one that keeps the 1/k decay);
``nbinom_table_reference`` is that cut as a plain doubling loop, and both
are held to mpmath at the true (shape, scale).

The regime is read from the bound catalogue's BX99, COR3 and THM4 rows;
``regime_classify_reference``, which judged the three conditions on theta a
second time, is kept here and must agree with the reading.

The reliability rates of a sweep form each column in one pass;
``reliability_rate_columns_reference`` is the loop as first written, with
its binomial probabilities in columns of their own.

Each catalogue row is one function of columns, run over all the laws of a
sweep at once, with one law the one-entry case.  The rows as first written,
one law at a time in floats, are kept here: ``general_reference``,
``monotone_reference``, ``bx99_reference``, ``cor3_reference`` and
``thm4_reference``, with the law checks and the monotone condition they
relied on (``check_law_reference``, ``monotone_rates_reference``).  Every
field of every row, note arguments included, must agree with them in repr,
law by law and over one column set of all the laws.

``cli.dumps`` appends the pieces of a payload to one list and joins it once;
``dumps_reference``, the emitter that formed and joined a string for each
container, is kept here.  The two must print the same text for the payload
of every golden command that prints JSON, built in process, and for empty,
non-finite, quoted and 100-deep inputs.
"""

from __future__ import annotations

import io
import json
import math
import operator
import random
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy import special

from cpstein import cli, core, exact, oracle
from cpstein import (
    CompoundPoissonParams,
    ConvergenceError,
    ReliabilityModel,
    RunsModel,
    ThetaVector,
    TruncationCapError,
    bound_bx99,
    bound_cor3,
    bound_thm4,
    chernoff_tail,
    cp_pmf,
    empirical_factors,
    evaluate_all,
    regime_classify,
    runs_exact_pmf,
    solve_stein,
    theta,
)
from cpstein.bounds import _cor3_delta, _evaluate_columns, bound_thm2
from cpstein.oracle import default_x_max
from test_bounds import COR3_OVERFLOW_LAW, _catalogue_laws
from test_exact import check_nbinom_table

# ---------------------------------------------------------------------------
# the loops as first written


def chernoff_tail_reference(params, x):
    J = params.max_cluster_size
    s = np.geomspace(1e-2, 40.0 / J, 80)
    j = np.arange(1, J + 1, dtype=float)
    lam = np.asarray(params.rates)
    cgf = np.expm1(np.outer(s, j)) @ lam
    exponents = -s * x + cgf
    return float(min(1.0, math.exp(np.min(exponents))))


def panjer_reference(jlam, p0, x_max):
    J = len(jlam)
    p = [0.0] * (x_max + 1)
    p[0] = p0
    starts = []
    for n in range(1, x_max + 1):
        acc = 0.0
        for j in range(1, min(n, J) + 1):
            acc += jlam[j - 1] * p[n - j]
        pn = acc / n
        p[n] = pn
        if pn > core.RESCALE_AT:
            lo = max(0, n - J + 1)
            p[lo : n + 1] = [v / core.RESCALE_AT for v in p[lo : n + 1]]
            starts.append(lo)
    return p, starts


def cp_pmf_reference(params, target=core.TAIL_TARGET, x_cap=core.X_CAP):
    lam = params.total_rate
    th = core.theta(params, 1)
    sd = math.sqrt(th[0] + th[1])
    x_max = max(16, int(math.ceil(th[0] + 10.0 * sd)) + 10 * params.max_cluster_size)
    while chernoff_tail_reference(params, x_max) > target:
        x_max *= 2
    if x_max > x_cap:
        raise TruncationCapError("truncation cap exceeded")
    J = params.max_cluster_size
    jlam = [j * params.rates[j - 1] for j in range(1, J + 1)]
    shift = max(0.0, lam - core.LOG_P0_FLOOR)
    p, starts = panjer_reference(jlam, math.exp(shift - lam), x_max)
    p = np.array(p)
    if shift > 0.0:
        d = np.searchsorted(starts, np.arange(p.size), side="right")
        with np.errstate(divide="ignore"):
            p = np.exp(np.log(p) + (d * math.log(core.RESCALE_AT) - shift))
        p[p < np.finfo(float).tiny] = 0.0
    tail = max(0.0, 1.0 - float(p.sum()))
    if tail > target + core.MASS_TOL:
        raise TruncationCapError("pmf does not reach its mass target")
    return core.DistributionTable(pmf=p, tail_mass=tail)


def cp_pmf_x_max_reference(params, target=core.TAIL_TARGET, x_cap=core.X_CAP):
    th = core.theta(params, 1)
    sd = math.sqrt(th[0] + th[1])
    J = params.max_cluster_size
    x_max = max(16, math.ceil(min(th[0] + 10.0 * sd, x_cap)) + 10 * J)
    while x_max <= x_cap and chernoff_tail(params, x_max) > target:
        x_max *= 2
    if x_max > x_cap:
        raise TruncationCapError("truncation cap exceeded")
    return x_max


MIXTURE_TAIL = 1e-12  # the tail target of the mixed-Poisson tables as first written


def poisson_ppf_reference(q, lam):
    k = math.ceil(special.pdtrik(q, lam))
    if k > 0 and special.pdtr(k - 1, lam) >= q:
        k -= 1
    return k


def poisson_mixture_table_reference(weights, intensities):
    hi = max(poisson_ppf_reference(1.0 - MIXTURE_TAIL / 4.0, lam) for lam in intensities)
    x_max = hi + 10
    while True:
        tail = sum(w * special.pdtrc(x_max, lam) for w, lam in zip(weights, intensities))
        if tail <= MIXTURE_TAIL:
            break
        x_max *= 2
    x = np.arange(x_max + 1)
    pmf = np.zeros(x_max + 1)
    for w, lam in zip(weights, intensities):
        pmf += w * np.exp(special.xlogy(x, lam) - special.gammaln(x + 1) - lam)
    return core.DistributionTable(pmf=pmf, tail_mass=float(tail))


def nbinom_table_reference(r, scale):
    a = scale / (1.0 + scale)
    mean = r * scale
    x_max = max(16, math.ceil(mean + 10.0 * math.sqrt(mean * (1.0 + scale))) + 10)
    while True:
        pmf = exact._nbinom_pmf(x_max, r, scale)
        rho = a * max(1.0, (x_max + r) / (x_max + 1.0))
        # 1 - rho = (1 + s)(x + 1) - s (x + r), over (1 + s)(x + 1)
        gap = (x_max + 1.0 - scale * max(0.0, r - 1.0)) / ((1.0 + scale) * (x_max + 1.0))
        factor = rho / gap if gap > 0.0 else math.inf
        if r <= 1.0:  # the 1/k decay of the pmf
            factor = min(factor, (x_max + 1.0) * (math.log1p(scale) + r * scale))
        if pmf[-1] * factor <= core.TAIL_TARGET:
            break
        x_max *= 2
    return core.DistributionTable(pmf=pmf, tail_mass=max(0.0, 1.0 - float(pmf.sum())))



def runs_squaring_reference(n, p):
    """c_0..c_n of trace(M(z)^n), not normalised: the squaring of
    ``runs_exact_pmf`` as first written, every degree of every power kept."""
    q = 1.0 - p

    def times_m(x):
        y = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        y[:, 0, :-1] = q * x[:, 0] + q * x[:, 1]
        y[:, 1, :-1] = p * x[:, 0]
        y[:, 1, 1:] += p * x[:, 1]
        return y

    x, lo = np.array([[[q, 0.0], [p, 0.0]], [[q, 0.0], [0.0, p]]]), 0
    conv = np.convolve
    bits = bin(n)[3:]
    for bit in bits[:-1]:
        y = np.empty((2, 2, 2 * x.shape[-1] - 1))
        for i in (0, 1):
            for j in (0, 1):
                np.add(conv(x[i, 0], x[0, j]), conv(x[i, 1], x[1, j]), out=y[i, j])
        x, lo = (times_m(y) if bit == "1" else y), 2 * lo
        if not (x[..., 0].any() and x[..., -1].any()):
            live = np.flatnonzero(x.reshape(4, -1).any(axis=0))
            x, lo = x[..., live[0] : live[-1] + 1], lo + live[0]
    y = times_m(x) if bits[-1] == "1" else x
    trace = (
        conv(x[0, 0], y[0, 0]) + conv(x[0, 1], y[1, 0])
        + conv(x[1, 0], y[0, 1]) + conv(x[1, 1], y[1, 1])
    )
    coef = np.zeros(n + 1)
    coef[2 * lo : 2 * lo + trace.size] = trace
    return coef

def regime_classify_reference(th):
    th.require(3)
    if not th.finite:
        return "GENERAL_ONLY"
    if bound_bx99(th).applicable:
        return "BX99_OK"
    cor3 = _cor3_delta(*th.values[:4])
    if cor3 is not None and cor3 > 0.0:
        return "COR3_OK"
    if bound_thm4(th).applicable:
        return "THM4_OK"
    return "GENERAL_ONLY"


def check_law_reference(rates):
    if len(rates) == 0:
        raise ValueError("rates must be nonempty")
    if not all(map(math.isfinite, rates)) or min(rates) < 0.0:
        raise ValueError("every rate must be finite and nonnegative")
    if not max(rates) > 0.0:
        raise ValueError("at least one rate must be positive")


def monotone_rates_reference(rates):
    jl = [j * lam for j, lam in enumerate(rates, start=1)]
    return all(map(operator.ge, jl, jl[1:] + [0.0]))


# a catalogue row as first written: (m0, m1, method, applicable, note)
def applicable_reference(m0, m1, method, note, *args):
    if not (m0 > 0.0 and m1 > 0.0):
        raise ValueError("applicable bounds must be positive")
    return (m0, m1, method, True, note % args)


def inapplicable_reference(method, note, *args):
    return (math.inf, math.inf, method, False, note % args)


def factors_from_delta_reference(delta):
    m0 = 2.0 * math.sqrt(2.0 / delta)
    pi_delta = math.pi * delta
    if pi_delta < math.inf:
        log_pi_delta = max(math.log(pi_delta), 0.0) if pi_delta > 0.0 else 0.0
    else:
        log_pi_delta = math.log(math.pi) + math.log(delta)
    return m0, (0.5 / delta) * (1.0 + log_pi_delta)


def general_reference(rates):
    lam1 = rates[0]
    factor = 1.0 if lam1 == 0.0 else min(1.0, 1.0 / lam1)
    try:
        value = factor * math.exp(math.fsum(rates))
    except OverflowError:
        value = math.inf
    return applicable_reference(value, value, "GENERAL", "always applicable")


def monotone_reference(lam1, monotone):
    if not monotone:
        return inapplicable_reference("MONOTONE", "rate sequence j*lambda_j not nonincreasing")
    e_lam1 = math.e * lam1
    m0 = min(1.0, math.sqrt(2.0 / e_lam1 if e_lam1 < math.inf else 2.0 / math.e / lam1))
    m1 = min(0.5, 1.0 / (lam1 + 1.0))
    return applicable_reference(m0, m1, "MONOTONE", "j*lambda_j nonincreasing")


def bx99_reference(t0, t1, finite):
    if not finite:
        return inapplicable_reference("BX99", "theta not finite")
    gap = t0 - 2.0 * t1
    if not gap > 0.0:
        return inapplicable_reference("BX99", "theta_0 - 2*theta_1 = %g <= 0", gap)
    return applicable_reference(math.sqrt(t0) / gap, 1.0 / gap, "BX99",
                                "theta_0 - 2*theta_1 = %g > 0", gap)


def cor3_delta_reference(t0, t1, t2, t3):
    if not t2 < 2.0 * t1:
        return None
    delta = t0 - 2.0 * t1 + 2.0 * t2 - (4.0 / 3.0) * t3
    if math.isfinite(delta) or not all(map(math.isfinite, (t0, t1, t2, t3))):
        return delta
    return min(2.0 * (0.5 * t0 - t1 + t2 - (2.0 / 3.0) * t3), sys.float_info.max)


def cor3_reference(t0, t1, t2, t3, finite):
    if not finite:
        return inapplicable_reference("COR3", "theta not finite")
    delta = cor3_delta_reference(t0, t1, t2, t3)
    if delta is None:
        return tuple(bound_thm2(ThetaVector((t0, t1, t2, t3)), 3))
    if not delta > 0.0:
        return inapplicable_reference("COR3", "delta = %g <= 0", delta)
    m0, m1 = factors_from_delta_reference(delta)
    return applicable_reference(m0, m1, "COR3", "delta = %g (closed form)", delta)


def thm4_reference(t0, t1, finite):
    if not finite:
        return inapplicable_reference("THM4", "theta not finite")
    gamma = 2.0 * t1 - t0
    if not gamma > 0.0:
        return inapplicable_reference("THM4", "2*theta_1 - theta_0 = %g <= 0", gamma)
    try:
        c = math.exp(1.5 * gamma)
    except OverflowError:
        c = math.inf
    delta = gamma / (2.0 * c * math.sqrt(math.pi))
    if not delta > 0.0:
        return inapplicable_reference("THM4", "delta underflowed to 0")
    m0, m1 = factors_from_delta_reference(delta)
    return applicable_reference(m0, m1, "THM4", "delta = %g", delta)


def reliability_rate_columns_reference(model, qs):
    k = model.k
    u = float(model.n - k - 1)
    four_u, u_sq = 4.0 * u, u * u
    ys = [q**k for q in qs]
    psis = [q ** (float(k) * k) for q in qs]
    y_pow = [[y**e for y in ys] for e in range(5)]
    z_pow = [[(1.0 - y) ** e for y in ys] for e in range(5)]
    zeros = [0.0] * len(ys)
    columns = []
    for e in range(5):
        c2, c3, c4 = (math.comb(m, e) for m in (2, 3, 4))
        pi1 = [c2 * a * b for a, b in zip(y_pow[e], z_pow[2 - e])] if c2 else zeros
        pi2 = [c3 * a * b for a, b in zip(y_pow[e], z_pow[3 - e])] if c3 else zeros
        pi3 = [c4 * a * b for a, b in zip(y_pow[e], z_pow[4 - e])]
        columns.append([
            psi / (e + 1) * (4.0 * a + four_u * b + u_sq * c)
            for psi, a, b, c in zip(psis, pi1, pi2, pi3)
        ])
    return columns


def catalogue_reference(rates):
    """The five rows of one law as first written, each a plain tuple."""
    check_law_reference(rates)
    th = theta(CompoundPoissonParams(rates), 3)
    t0, t1, t2, t3 = th.values
    return [
        general_reference(rates),
        monotone_reference(rates[0], monotone_rates_reference(rates)),
        bx99_reference(t0, t1, th.finite),
        cor3_reference(t0, t1, t2, t3, th.finite),
        thm4_reference(t0, t1, th.finite),
    ]


def tail_reference(jl, lo, n, r):
    J = len(jl)
    t = [0.0] * (n - lo + 1 + J)
    for i in range(n - lo, -1, -1):
        s = 0.0
        k = i
        for c in jl:
            k += 1
            s += c * t[k]
        t[i] = (s - r) / (lo + i)
    return t


def block_solve_reference(jl, x0, M, B, lu):
    # eliminates on its own; the factor ``lu`` that the oracle passes is ignored
    J = len(jl)

    def eq(x):
        return [-float(x)] + [c if x + j <= M else 0.0 for j, c in enumerate(jl, 1)] + [0.0]

    U = []
    cur, b = eq(0)[1:] + [0.0], B[0]
    for k in range(x0 - 1):
        nxt, b_nxt = eq(k + 1), B[k + 1]
        if abs(nxt[0]) > abs(cur[0]):
            cur, nxt, b, b_nxt = nxt, cur, b_nxt, b
        m = nxt[0] / cur[0]
        U.append(cur)
        cur = [a - m * c for a, c in zip(nxt[1:], cur[1:])] + [0.0]
        b, B[k] = b_nxt - m * b, b
    if x0 > 0:
        U.append(cur)
        B[x0 - 1] = b
    U += [eq(x) for x in range(x0 + 1, M + 1)]
    for k in range(M - 1, -1, -1):
        u, b = U[k], B[k]
        for i in range(1, min(J + 2, M - k)):
            if u[i] != 0.0:
                b = b - u[i] * B[k + i]
        B[k] = b / u[0]


def empirical_factors_reference(params, y_max=None, x_max=None):
    # the sweep as first written: both tails in full, a g column for each,
    # and the sups of every block taken once for each tail
    table = oracle.cp_pmf(params)
    cdf = table.cdf()
    tail = 1.0 - cdf + table.tail_mass
    if y_max is None:
        y_max = int(np.nonzero(tail <= oracle.TAIL_FOR_YMAX)[0][0])
    P = cdf[: y_max + 1].astype(float)
    if x_max is None:
        x_max = default_x_max(params, y_max)
    jl, x0, M = oracle._split(params, table.pmf, y_max)
    J = len(jl)
    n = max(int(x_max), M + J)
    tails = [oracle._tail(jl, M + 1, n, 1.0), oracle._tail(jl, M + 1, 2 * n, 1.0)]
    lu = oracle._factor(jl, x0, M)
    xs = np.delete(np.arange(M + 1), x0)[:, None]
    B = np.empty((M, min(oracle.BLOCK_COLUMNS, y_max + 3)))
    for col, t in enumerate(tails):
        B[:, col] = 1.0 - oracle._tail_terms(jl, x0, M, t)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.empty((2, 2))
        for a, t, top in zip(acc, tails, (n, 2 * n)):
            gt = np.array(t[: top - J - M + 1])
            a[0] = P[-1] * np.abs(gt[:-1]).max(initial=0.0)
            a[1] = P[-1] * np.abs(gt[1:] - gt[:-1]).max(initial=0.0)
        lo, col = 0, 2
        while lo <= y_max:
            hi = min(lo + B.shape[1] - col, y_max + 1)
            block = B[:, : col + hi - lo]
            np.less_equal(xs, np.arange(lo, hi), out=block[:, col:])
            oracle._block_solve(jl, x0, M, block, lu)
            if col:
                g = B[:, :2].T.copy()
            for k, t in enumerate(tails):
                oracle._sups(block[:, col:], P[lo:hi], g[k], t[0], acc[k])
            if hi <= y_max and not np.isfinite(acc).all():
                break
            lo, col = hi, 0
    if not np.isfinite(acc).all():
        raise ConvergenceError("Stein solution passes the largest double")
    (m0_a, m1_a), (m0_b, m1_b) = acc.tolist()
    if abs(m0_b - m0_a) <= oracle.STABILITY_TOL and abs(m1_b - m1_a) <= oracle.STABILITY_TOL:
        return oracle.EmpiricalFactors(m0_hat=m0_b, m1_hat=m1_b, y_max=y_max, x_max=2 * n)
    raise ConvergenceError("truncation not converged")


@pytest.fixture
def reference(monkeypatch):
    """Within the block: the oracle and cp_pmf run on the reference loops."""

    def use():
        monkeypatch.setattr(oracle, "_block_solve", block_solve_reference)
        monkeypatch.setattr(oracle, "_tail", tail_reference)
        monkeypatch.setattr(oracle, "cp_pmf", cp_pmf_reference)

    return use


def dumps_reference(obj, indent=0):
    """``cli.dumps`` as it was before it wrote one list: a string formed and
    joined for each container."""
    fmt = cli._SCALARS.get(type(obj))
    if fmt is not None:
        return fmt(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        get = cli._SCALARS.get
        items = [
            f'{inner}"{k}": {fmt(v) if (fmt := get(type(v))) else dumps_reference(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = f",\n{inner}"
        if {*map(type, obj)} == {float} and math.isfinite(sum(obj)):
            body = sep.join(["%.17g"] * len(obj)) % tuple(obj)
        else:
            body = sep.join(dumps_reference(v, indent + 1) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the seeded input set


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _rates(rng: random.Random, J: int, total: float) -> list[float]:
    """J rates summing to about ``total``; about one in three is 0 (never all)."""
    w = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(J)]
    if not any(w):
        w[rng.randrange(J)] = 1.0
    s = math.fsum(w)
    return [total * v / s for v in w]


def _cases(seed: int, count: int, lo: float, hi: float) -> list[list[float]]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        J = 1 + i % 5
        total = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        out.append(_rates(rng, J, total))
    return out


# lattice laws (U on d Z, d > 1), zero rates inside and at the ends, -0.0
# rates, and the worked examples (2, 0, 10), (0, 0, 10) and (0, 20)
FIXED = [
    [2.0, 0.0, 10.0],
    [0.0, 0.0, 10.0],
    [0.0, 20.0],
    [0.0, 3.0, 0.0, 1.5],
    [0.7, 0.0, 0.0, 0.0, 0.4],
    [1.0, -0.0],
    [-0.0, 0.0, 4.0],
    [0.3, 0.1, 0.05, 0.02, 0.01],
    [110.0, 20.0],
    [4.0, 1.0, 0.5],
]
PMF_CASES = FIXED + _cases(13, 40, 1e-3, 1000.0) + [[699.9, 0.1], [700.0], [800.0, 150.0]]
# past a total rate of 700 cp_pmf rescales its table
ORACLE_CASES = FIXED + _cases(17, 25, 1e-3, 60.0) + [[750.0], [600.0, 100.0, 20.0]]


def _ids(cases):
    return [",".join(f"{r:.4g}" for r in rates) for rates in cases]


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("rates", PMF_CASES, ids=_ids(PMF_CASES))
def test_cp_pmf_bit_identical_to_reference(rates):
    params = CompoundPoissonParams(rates)
    want = cp_pmf_reference(params)
    got = cp_pmf(params)
    assert _bits(got.pmf) == _bits(want.pmf)
    assert _bits(got.tail_mass) == _bits(want.tail_mass)


@pytest.mark.parametrize("J", [1, 2, 3, 4, 5])
def test_panjer_bit_identical_to_reference_with_rescaling(J):
    # start at 1 and let the entries grow past 2^600: every J rescales
    rng = random.Random(J)
    jlam = [rng.choice([0.0, rng.uniform(200.0, 800.0)]) for _ in range(J - 1)] + [1000.0]
    got, got_starts = core._panjer(jlam, 1.0, 1500)
    want, want_starts = panjer_reference(jlam, 1.0, 1500)
    assert want_starts and got_starts == want_starts
    assert _bits(got) == _bits(want)


def test_panjer_bit_identical_to_reference_on_short_tables():
    for J in range(1, 6):
        jlam = [0.5 * j for j in range(1, J + 1)]
        for x_max in range(0, 6):
            got, want = core._panjer(jlam, 0.25, x_max), panjer_reference(jlam, 0.25, x_max)
            assert _bits(got[0]) == _bits(want[0]) and got[1] == want[1] == []


@pytest.mark.parametrize("J", [1, 2, 3, 4, 5])
def test_tail_bit_identical_to_reference(J):
    rng = random.Random(100 + J)
    for _ in range(20):
        jl = [rng.choice([0.0, -0.0, rng.uniform(0.0, 50.0)]) for _ in range(J)]
        lo = rng.randrange(1, 80)  # lo = M + 1 >= 1
        n = lo - 1 + rng.randrange(0, 300)
        r = rng.choice([1.0, -0.4, 0.0, -0.0])
        assert _bits(oracle._tail(jl, lo, n, r)) == _bits(tail_reference(jl, lo, n, r))
    # every product -0.0: only the sum's 0.0 start makes it +0.0
    for r in (0.0, -0.0):
        jl = [-0.0] * J
        assert _bits(oracle._tail(jl, 1, 5, r)) == _bits(tail_reference(jl, 1, 5, r))


@pytest.mark.parametrize("J", [1, 2, 3, 4, 5])
def test_tail_meeting_a_longer_tail_bit_identical_to_reference(J):
    # run until it meets the tail to 2n, or to its end: the same bits as the
    # recursion in full, -0.0 and all
    rng = random.Random(200 + J)
    met = 0
    for _ in range(40):
        jl = [rng.choice([0.0, -0.0, rng.uniform(0.0, 50.0)]) for _ in range(J)]
        lo = rng.randrange(1, 80)
        n = lo - 1 + rng.randrange(0, 300)
        r = rng.choice([1.0, -0.4, 0.0, -0.0])
        ref = oracle._tail(jl, lo, 2 * n, r)
        got = oracle._tail(jl, lo, n, r, ref)
        assert _bits(got) == _bits(tail_reference(jl, lo, n, r))
        met += any(a is b for a, b in zip(got, ref))
    assert met
    # one sign of zero against the other, and a nan, never meet
    jl = [0.0] * J
    for r, ref in ((0.0, [-0.0] * 20), (1.0, [math.nan] * 20)):
        assert _bits(oracle._tail(jl, 1, 5, r, ref)) == _bits(tail_reference(jl, 1, 5, r))


def test_chernoff_tail_bit_identical_to_reference():
    for rates in PMF_CASES[::3] + [[1e-300, 2.0], [300.0]]:
        params = CompoundPoissonParams(rates)
        for x in (0, 1, 17, 250, 4096, 10**6):
            assert _bits(chernoff_tail(params, x)) == _bits(chernoff_tail_reference(params, x))


@pytest.mark.parametrize("rates", [[1e9], [1e300], [5e307, 0.0, 1.0], [1e308, 1e308]])
def test_chernoff_tail_is_one_where_the_reference_overflowed(rates):
    params = CompoundPoissonParams(rates)
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowError):
            chernoff_tail_reference(params, 16)
        assert chernoff_tail(params, 16) == 1.0


def _solve_cases():
    rng = random.Random(29)
    for rates in ORACLE_CASES:
        params = CompoundPoissonParams(rates)
        theta0 = math.fsum(j * r for j, r in enumerate(rates, 1))
        y = rng.randrange(0, int(2 * theta0) + 3)
        x_max = rng.choice([None, y + 1, default_x_max(params, y) // 2 + 1])
        yield rates, y, x_max


@pytest.mark.parametrize("rates, y, x_max", list(_solve_cases()), ids=_ids(ORACLE_CASES))
def test_solve_stein_bit_identical_to_reference(rates, y, x_max, reference):
    params = CompoundPoissonParams(rates)
    x_max = default_x_max(params, y) if x_max is None else x_max
    got = solve_stein(params, y, x_max)
    reference()
    want = solve_stein(params, y, x_max)
    assert _bits(got.f) == _bits(want.f)
    assert _bits([got.eh_u, got.residual0]) == _bits([want.eh_u, want.residual0])


def _factors(factors, params, **kw):
    try:
        emp = factors(params, **kw)
    except ConvergenceError as exc:
        return repr(exc)
    return (_bits([emp.m0_hat, emp.m1_hat]), emp.y_max, emp.x_max)


@pytest.mark.parametrize("rates", ORACLE_CASES, ids=_ids(ORACLE_CASES))
def test_empirical_factors_bit_identical_to_reference(rates, reference, monkeypatch):
    # the x_max pass reuses the 2 x_max pass, against both passes in full on
    # the reference loops; by default the tails agree at the block and one
    # g serves both truncations, and in an explicit window, a larger y_max
    # and x_max at its floor M + J, they differ and each has its own
    params = CompoundPoissonParams(rates)
    shapes = []

    def sups(C, P, g, g_next, acc, _real=oracle._sups):
        shapes.append(acc.shape)
        _real(C, P, g, g_next, acc)

    monkeypatch.setattr(oracle, "_sups", sups)
    got = _factors(empirical_factors, params)
    assert set(shapes) == {(2, 2)}
    table = cp_pmf(params)
    y_max = int(np.argmax(1.0 - table.cdf() + table.tail_mass <= oracle.TAIL_FOR_YMAX))
    shapes.clear()
    got_window = _factors(empirical_factors, params, y_max=y_max + 3, x_max=1)
    assert set(shapes) == {(1, 2)}
    reference()
    assert got == _factors(empirical_factors_reference, params)
    assert got_window == _factors(empirical_factors_reference, params, y_max=y_max + 3, x_max=1)


def test_empirical_factors_not_converged_as_the_reference(reference, monkeypatch):
    # the input of test_empirical_factors_unreachable_tolerance: the same error
    params = CompoundPoissonParams([0.3])
    monkeypatch.setattr(oracle, "STABILITY_TOL", -1.0)
    got = _factors(empirical_factors, params, x_max=4)
    reference()
    assert got == _factors(empirical_factors_reference, params, x_max=4)
    assert got == repr(ConvergenceError("truncation not converged"))


# ---------------------------------------------------------------------------
# the one truncation rule


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _two_point_cases():
    rng = random.Random(47)
    cases = [(2.5, 3.5, 0.5), (0.01, 7.0, 0.9), (200.0, 210.0, 0.3), (1e-4, 1e-4, 0.0)]
    for _ in range(30):
        a, b = _log_uniform(rng, 1e-3, 3e3), _log_uniform(rng, 1e-3, 3e3)
        cases.append((a, b, rng.choice([0.0, 1.0, rng.random()])))
    return cases


def poisson_mixture_mpmath(weights, intensities, x_max):
    """The mixture's pmf on 0..x_max at 40 digits, by p(x) = p(x-1) lam / x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        total = [mpmath.mpf(0)] * (x_max + 1)
        for w, lam in zip(weights, intensities):
            lam = mpmath.mpf(lam)
            p = mpmath.exp(-lam)
            for x in range(x_max + 1):
                if x:
                    p = p * lam / x
                total[x] += w * p
        return total


@pytest.mark.parametrize("a, b, w", _two_point_cases())
def test_poisson_mixture_table_bit_identical_to_reference(a, b, w):
    # the table is cp_pmf's Poisson recursion, held to mpmath; the reference,
    # the log-gamma form as first written, agrees to its own accuracy
    weights, lams = [w, 1.0 - w], [a, b]
    got = exact.poisson_mixture_table(weights, lams)
    exact_pmf = poisson_mixture_mpmath(weights, lams, got.x_max)
    rel = [abs((got.pmf[x] - v) / v) for x, v in enumerate(exact_pmf) if v > 1e-290]
    assert max(rel) <= 1e-12
    assert abs(math.fsum(got.pmf) + got.tail_mass - 1.0) <= 1e-14
    ref = poisson_mixture_table_reference(weights, lams)
    n = min(got.x_max, ref.x_max) + 1
    np.testing.assert_allclose(got.pmf[:n], ref.pmf[:n], rtol=1e-10, atol=np.finfo(float).tiny)


def _gamma_cases():
    rng = random.Random(53)
    cases = [(3.0, 0.7), (0.01, 0.9), (300.0, 1e-17), (60.0, 0.41)]
    for _ in range(30):
        cases.append((_log_uniform(rng, 1e-2, 1e3), _log_uniform(rng, 1e-3, 10.0)))
    # small scales at a fixed mean, where a rounded 1/(1 + scale) lost the law,
    # and a scale where scale/(1 + scale) rounds to 1
    cases += [(1e8, 1e-8), (1e12, 1e-12), (3.0, 1e-12), (1e3, 1e-12), (1e300, 1e-300)]
    cases += [(1e6, 1e-3), (5e4, 1.0), (0.05, 100.0), (17.3, 0.41), (1e-50, 1e20)]
    # tiny shapes at huge scales, cut by the bound that keeps the 1/k decay
    return cases + [(1e-14, 1e8), (1e-16, 1e10), (1e-13, 1e3)]


@pytest.mark.parametrize("r, scale", _gamma_cases())
def test_nbinom_table_bit_identical_to_reference(r, scale):
    # the table and its residual tail are the doubling loop's, bit for bit,
    # and the 40-digit law at the true (shape, scale) holds them to 1e-12
    got = exact.nbinom_table(r, scale)
    want = nbinom_table_reference(r, scale)
    assert _bits(got.pmf) == _bits(want.pmf)
    assert _bits(got.tail_mass) == _bits(want.tail_mass)
    check_nbinom_table(r, scale)


CAP_CASES = PMF_CASES + [[3e5], [5e5, 1e3], [9e5], [1e6], [1e300], [2.0] * 40]


@pytest.mark.parametrize("rates", CAP_CASES, ids=_ids(CAP_CASES))
def test_cp_pmf_truncation_matches_reference_loop(rates, monkeypatch):
    # only the truncation point is compared: the table is never built
    params = CompoundPoissonParams(rates)
    for x_cap in (core.X_CAP, 100):
        try:
            want = cp_pmf_x_max_reference(params, x_cap=x_cap)
        except TruncationCapError as exc:
            want = repr(exc)

        def stop(jlam, p0, x_max):
            raise LookupError(x_max)

        monkeypatch.setattr(core, "_panjer", stop)
        monkeypatch.setattr(core, "X_CAP", x_cap)
        try:
            cp_pmf(params)
        except LookupError as exc:
            got = exc.args[0]
        except TruncationCapError as exc:
            got = repr(exc)
        assert got == want


def _forbid(*args, **kwargs):
    raise AssertionError("pmf built past the cap")


@pytest.mark.parametrize(
    "build",
    [
        lambda: cp_pmf(CompoundPoissonParams([2e6])),
        lambda: cp_pmf(CompoundPoissonParams([1e300, 1.0])),
        lambda: exact.poisson_mixture_table([0.5, 0.5], [1e8, 10.0]),
        lambda: exact.poisson_mixture_table([0.5, 0.5], [1e300, 1e300]),
        lambda: exact.nbinom_table(1e8, 10.0),
        lambda: exact.nbinom_table(1e5, 10.0),
    ],
)
def test_table_past_the_cap_is_refused_before_its_pmf_is_built(build, monkeypatch):
    for module, name in ((core, "_panjer"), (exact, "_nbinom_pmf")):
        monkeypatch.setattr(module, name, _forbid)
    with pytest.raises(TruncationCapError, match="truncation cap exceeded"):
        build()


def test_truncation_point_never_evaluates_the_tail_past_the_cap():
    seen = []

    def tail(x):
        seen.append(x)
        return 1.0

    with pytest.raises(TruncationCapError):
        core._truncation_point(3, tail)
    assert max(seen) <= core.X_CAP < 2 * max(seen)
    seen.clear()
    with pytest.raises(TruncationCapError):
        core._truncation_point(core.X_CAP + 1, tail)
    assert seen == []
    # at or below the target, the start itself; a nan tail stops the doubling
    assert core._truncation_point(16, lambda x: core.TAIL_TARGET) == (16, core.TAIL_TARGET)
    x, t = core._truncation_point(16, lambda x: math.nan)
    assert x == 16 and math.isnan(t)


RUNS_NS = [3, 15, 16, 17, 30, 129, 1999, 2000]
RUNS_PS = [0.0, 1e-9, 0.05, 0.3, 0.5, 0.999999, 1.0]


@pytest.mark.parametrize("p", RUNS_PS)
@pytest.mark.parametrize("n", RUNS_NS)
def test_runs_cut_squaring_bit_identical_to_reference(n, p):
    # every kept coefficient has the uncut squaring's bits, the table is
    # their quotient by their sum, and the uncut law's mass past the cut is
    # within tail_mass; where nothing is cut, tail_mass is 0
    t = runs_exact_pmf(RunsModel(n, p))
    ref = runs_squaring_reference(n, p)
    kept = exact._runs_coefficients(n, p, t.x_max)
    assert _bits(kept) == _bits(ref[: t.x_max + 1])
    assert _bits(t.pmf) == _bits(kept / kept.sum())
    assert math.fsum(ref[t.x_max + 1 :]) / math.fsum(ref) <= t.tail_mass
    if n <= 16 or p == 1.0:
        assert (t.x_max, t.tail_mass) == (n, 0.0)


@pytest.mark.parametrize("p", [1e-9, 0.05, 0.3, 0.5, 0.999999])
@pytest.mark.parametrize("n", [3, 17, 129, 2000])
def test_runs_pgf_matches_uncut_coefficients(n, p):
    # log(lambda_+^n + lambda_-^n) against log sum_d c_d z^d of the uncut
    # law, both within O(n u) of the true value; z = 1 gives the mass.  A
    # large z is taken only at small n: at n = 2000 the degrees it weighs
    # most have coefficients below the double range
    ref = runs_squaring_reference(n, p)
    d = np.flatnonzero(ref)
    zm1 = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0] + [147.0] * (n <= 129))
    got = exact._runs_log_pgf(n, p, zm1)
    for z, g in zip(zm1, got):
        logs = np.log(ref[d]) + d * math.log1p(z)
        top = logs.max()
        want = top + math.log(math.fsum(np.exp(logs - top)))
        assert abs(g - want) <= 8 * n * 2.0**-53 * max(1.0, abs(want)), (z, g, want)

# ---------------------------------------------------------------------------
# the one regime judge


def _regime_laws(seed: int, count: int) -> list[list[float]]:
    """J <= 4 rates with total 0.1-300; about 40% of the laws have a zero rate."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        zero = rng.random() < 0.4
        w = [rng.random() for _ in range(rng.randint(2 if zero else 1, 4))]
        if zero:
            w[rng.randrange(len(w))] = 0.0
        total, s = _log_uniform(rng, 0.1, 300.0), math.fsum(w)
        out.append([total * v / s for v in w])
    return out


# (10, 300): THM4's delta underflows; (0, 0, 0, 0, 1): the COR3 slot holds THM2(3)
REGIME_LAWS = _regime_laws(59, 400) + [[10.0, 300.0], [0.0, 0.0, 0.0, 0.0, 1.0]]


def test_regime_read_from_catalogue_matches_reference():
    seen = set()
    for rates in REGIME_LAWS:
        params = CompoundPoissonParams(rates)
        want = regime_classify_reference(theta(params, 3))
        assert regime_classify(evaluate_all(params)) == want, rates
        seen.add(want)
    assert seen == {"BX99_OK", "COR3_OK", "THM4_OK", "GENERAL_ONLY"}


@pytest.mark.parametrize(
    "values",
    [[1.0, 0.5, 1.0, 0.0], [math.inf, math.inf, math.inf, 0.0], [math.inf, 8e307, 0.0, 0.0]],
)
def test_regime_read_from_rows_matches_reference_on_theta(values):
    # theta_0 = 2 theta_1 exactly, and the two non-finite thetas
    th = ThetaVector(values)
    rows = [bound_bx99(th), bound_cor3(th), bound_thm4(th)]
    assert regime_classify(rows) == regime_classify_reference(th) == "GENERAL_ONLY"


# ---------------------------------------------------------------------------
# the catalogue rows over columns


def _reference_laws() -> list[tuple[float, ...]]:
    rng = random.Random(34)
    laws = [law for J in range(1, 6) for law in _catalogue_laws(J, 60, rng)]
    return laws + [COR3_OVERFLOW_LAW]


def test_catalogue_rows_match_references_law_by_law():
    for rates in _reference_laws():
        rows = [tuple(b) for b in evaluate_all(CompoundPoissonParams(rates))]
        assert repr(rows) == repr(catalogue_reference(rates)), rates


def test_catalogue_rows_match_references_over_one_column_set():
    # all the laws at once, padded to J = 5 with zero rates, which change
    # neither theta nor any row
    laws = [rates + (0.0,) * (5 - len(rates)) for rates in _reference_laws()]
    thetas, catalogue = _evaluate_columns([list(col) for col in zip(*laws)])
    methods = set()
    for i, rates in enumerate(laws):
        want = catalogue_reference(rates)
        assert repr([tuple(row.bound(i)) for row in catalogue]) == repr(want), rates
        read = [(row.m1[i], row.applicable[i], row.method[i]) for row in catalogue]
        assert repr(read) == repr([(w[1], w[3], w[2]) for w in want])
        methods.update(w[2] for w in want)
    assert methods == {"GENERAL", "MONOTONE", "BX99", "COR3", "THM2(3)", "THM4"}


def test_monotone_columns_match_reference():
    laws = [rates + (0.0,) * (5 - len(rates)) for rates in _reference_laws()]
    got = core._monotone_columns([list(col) for col in zip(*laws)])
    want = list(map(monotone_rates_reference, laws))
    assert got == want and True in want and False in want


@pytest.mark.parametrize("seed", range(6))
def test_check_laws_refuses_the_first_failing_law_as_the_reference(seed):
    # bad laws at random places, of each kind, among good ones: the columns
    # are refused with the message law by law checking gives first
    rng = random.Random(seed)
    bad = [(-1.0, 2.0), (math.nan, 1.0), (math.inf, 0.0), (0.0, 0.0), (0.0, -0.0), (1.0, math.nan)]
    good = [(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0) + 0.1) for _ in range(20)]
    core._check_laws([list(col) for col in zip(*good)])
    laws = list(good)
    for law in rng.sample(bad, 3):
        laws.insert(rng.randrange(len(laws) + 1), law)
    want = None
    for law in laws:
        try:
            check_law_reference(law)
        except ValueError as exc:
            want = str(exc)
            break
    with pytest.raises(ValueError) as info:
        core._check_laws([list(col) for col in zip(*laws)])
    assert str(info.value) == want


@pytest.mark.parametrize(
    "model,argv",
    [
        ({"model": "reliability", "n": 10, "k": 2, "q": 0.0},
         ["--model", "reliability", "--n", "10", "--k", "2", "--q-range", "0:0.8:16"]),
        ({"model": "runs", "n": 50, "p": 0.0},
         ["--model", "runs", "--n", "50", "--p-range", "0:0.45:8"]),
    ],
)
def test_sweep_from_zero_refuses_with_the_first_rows_message(capsys, model, argv):
    # at q = 0 (p = 0) every rate is 0: the sweep is refused as its first
    # row's law is, and nothing is printed
    with pytest.raises(ValueError) as info:
        cli.model_from_json(model).cp_params()
    assert str(info.value) == "at least one rate must be positive"
    assert cli.main(["sweep", *argv]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {info.value}\n"


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("n_past_k", [2, 30, 10**6])
def test_reliability_rate_columns_bit_identical_to_reference(k, n_past_k):
    qs = [i / 63 for i in range(64)] + [1e-300, 0.5 - 1e-17, 1.0 - 2**-52]
    model = ReliabilityModel(n=k + n_past_k, k=k, q=0.5)
    assert repr(model.rate_columns(qs)) == repr(reliability_rate_columns_reference(model, qs))


# ---------------------------------------------------------------------------
# the JSON emitter


def _golden_json_commands() -> list[str]:
    """Every golden command that prints JSON."""
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    return [c for c, want in golden.items() if want["code"] in (0, 1) and "--format csv" not in c]


def _plain(payload: dict) -> dict:
    return {k: [dict(zip(keys, row)) for keys, row in zip(v.keys, zip(*v.columns))]
            if isinstance(v, cli._Table) else v for k, v in payload.items()}


def _nested(depth: int):
    obj = [1.5, {"k": None}]
    for i in range(depth):
        obj = {"a": obj, "b": [], "c": {}} if i % 2 else [obj, True, 0, (), {}]
    return obj


EMITTER_EDGES = [
    {}, [], (), {"a": {}}, [[]], {"a": [{}, [], {"b": [[], {}]}]}, [[[{}]]],
    (1, (2.5, "t"), ()), {"t": (0.1, 0.2)},
    [True, 1, False, 0, None], {"true": True, "one": 1, "zero": 0, "false": False},
    [math.inf, -math.inf, math.nan, -0.0, 0.0], {"a": math.inf, "b": -math.inf, "c": math.nan,
                                                  "d": -0.0},
    [0.1, 0.2, math.inf, 0.3], [-0.0, 5e-324, 1e308, 1e308],
    ['say "hi"', "back\\slash", '\\"', ""], {'k"ey': 'v"al\\ue'},
    _nested(100), _nested(101),
    1.5, -0.0, math.nan, "bare", True, None, 3,
]


@pytest.mark.parametrize("command", _golden_json_commands())
def test_golden_payload_printed_as_the_reference(command):
    # the payload built in process by the command's function; a sweep's
    # table is printed row by row, and compared as its rows
    args = cli._parser().parse_args(shlex.split(command))
    payload = args.func(args)[1]
    plain = _plain(payload)
    assert cli.dumps(plain) == dumps_reference(plain)
    out = io.StringIO()
    cli._write_json(out, payload)
    assert out.getvalue() == dumps_reference(plain) + "\n"


@pytest.mark.parametrize("obj", EMITTER_EDGES)
def test_dumps_matches_reference_on_edges(obj):
    for indent in (0, 1, 4):
        assert cli.dumps(obj, indent) == dumps_reference(obj, indent)
