"""Exact and Monte Carlo laws of the application statistics, plus distances.

These are the verification side of every end-to-end bound: the law of the
statistic W is computed exactly (transfer matrices for runs and
lattice reliability, closed-form mixtures, iterated convolution for sums) or
by reproducible Monte Carlo, and compared against the compound Poisson
approximant via Kolmogorov and total variation distances.

The transfer matrix is the Markov-chain imbedding of Fu & Koutras (JASA
1994): a state x count array advanced one site at a time, each transition
keeping the count or raising it by one.  The runs chain has two states,
so its law is the trace of the n-th power of a 2 x 2 matrix of
polynomials, formed by repeated squaring on the degrees up to its
truncation point D only, O(D^2 log n); it takes n <= 2000 (0.5-3.5 ms at
n = 2000, by p, within n u of the exact law).  Reliability takes grids up
to n = 11 for k = 2 and n = 8 for k = 3 (0.2-0.25 s there), Monte Carlo
beyond, up to MC_CELL_BUDGET grid cells, through one draw buffer of
MC_DRAW_CELLS cells (1.5 ms per 10 000 grids at n = 10 and k = 2 and 0.6 ms
at n = 6, about 1.5 ns a cell: one random byte a cell and a 64-bit tie word
for one cell in 256 are drawn in about 0.8 ns, where one double a cell took
2.3-3.6 ns; a draw of 327 grids at n = 10 is counted in about 17 us); 2
vCPUs, numpy 2.4.  The mixed-Poisson tables
take ``cp_pmf``'s truncation rule and residual tail: the two-point mixture
mixes its Poisson tables, and the negative binomial, Loader's kernel in
(shape, scale), is cut on a bound from its pmf ratio and, for shape <= 1,
from its 1/k decay.  The runs law takes the same rule on the Chernoff bound
of its pgf, which is also its ``tail_mass``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import CompoundPoissonParams, DistributionTable
from .core import (
    _bulk_start, _chernoff_grid, _cp_table, _cp_x_max, _residual_table, _truncation_point,
)

# for annotations only: numpy loads in the functions that use it, and models'
# methods import this module (the laws read model attributes only)
if TYPE_CHECKING:
    import numpy as np

    from . import models

__all__ = [
    "DistanceReport",
    "BudgetExceededError",
    "runs_exact_pmf",
    "reliability_exact_pmf",
    "reliability_mc_pmf",
    "mixed_exact_pmf",
    "sums_exact_pmf",
    "distance",
]

RUNS_N_BUDGET = 2000
RELIABILITY_COST_BUDGET = 60_000_000
SUMS_CELL_BUDGET = 10_000_000
MC_MIN_SAMPLES = 10_000
MC_CHUNK = 1 << 17
# grid cells of one draw, the size of the one byte-stream and one bool buffer
# a Monte Carlo law reuses for every draw: 32 KB of random words (one byte a
# cell) and 32 KB of bools, 327 grids at n = 10
MC_DRAW_CELLS = 1 << 15
# samples x n^2 grid cells of one Monte Carlo law, about 1.6-2 ns each:
# 2e8 cells take 0.32-0.39 s (10^6 samples at n = 14) and 0.39-0.41 s
# (20 000 at n = 100), and 36 MB of peak RSS for a cold pmf, 10^6 samples
# at n = 10 0.29-0.40 s, numpy's import included (0.17 s in process)
MC_CELL_BUDGET = 200_000_000


class BudgetExceededError(RuntimeError):
    """Raised when an exact computation would exceed its resource budget."""


@dataclass(frozen=True)
class DistanceReport:
    """Kolmogorov and total variation distances between two tables.

    ``d_k`` is the exact sup of |cdf difference| over the covered support;
    ``certified_slack`` (the combined tail masses) bounds how much of either
    distance can hide beyond it, so d_k + certified_slack is a certified
    upper bound.  ``mc_stderr`` is the standard error of the cdf difference
    at argmax_y when Monte Carlo tables are involved, 0 for exact tables.
    """

    d_k: float
    d_tv: float
    argmax_y: int
    mc_stderr: float
    certified_slack: float

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def runs_exact_pmf(m: models.RunsModel) -> DistributionTable:
    """Exact law of the circular 2-runs count from the power of its transfer matrix.

    The generating function of W is E z^W = trace(M(z)^n), with

        M(z) = [[q, p], [q, p z]]    (row: previous bit, column: next bit),

    z counting a 1 that follows a 1 and the trace closing the cycle.  The
    table takes every tabulated law's truncation rule: from the bulk start
    of mean n p^2 and variance n p^2 (1 + 2p - 3p^2), D is the first point
    tried at which ``_runs_tail``, the Chernoff bound of the closed-form
    pgf, is at most TAIL_TARGET, capped at n, where P(W > n) = 0.  The
    coefficients c_0..c_D of ``_runs_coefficients`` are divided by their
    sum, so with F the cdf of W, for every x <= D

        0 <= sum_{d<=x} c_d / sum_{d<=D} c_d - F(x)
           = F(x) P(W > D) / P(W <= D) <= P(W > D) <= tail_mass:

    ``tail_mass`` bounds both the mass past D and the shift this division
    makes in each cdf value.  Where D = n, every n <= 16 and p = 1 among
    them, tail_mass is 0 and the whole law is tabulated.

    Every site contributes one factor p or q = fl(1 - p), and p + q need not
    be exactly 1; dividing the table by its sum gives the law at p/(p + q),
    within an ulp of p.  Every operation adds nonnegative terms, so the
    error is O(n u), u = 2^-53: at most 0.85 n u per entry against the
    block-count law in 50-digit arithmetic, over 162 laws up to n = 2000.

    Direct convolution costs O(L^2) per squaring, L <= D + 1, so the whole
    is O(D^2 log n).  At n = 2000 a call takes about 0.5-0.6 ms at
    p = 0.02-0.05 (D = 20-39), 0.8-0.9 ms at p = 0.2 (D = 192), 1.1 ms at
    p = 0.5 (D = 760) and 3.5 ms at p = 0.9 (D = 1875), where all n + 1
    degrees took 1.7-4.8 ms.  Up to n = 30 the per-call cost of the
    convolutions dominates instead, about 0.2 ms, of which the tail bound
    takes 15-35 us; 2 vCPUs, numpy 2.4.
    """
    if m.n > RUNS_N_BUDGET:
        raise BudgetExceededError(f"runs n = {m.n} exceeds budget {RUNS_N_BUDGET}")
    n, p = m.n, m.p
    mean = n * p * p
    start = _bulk_start(mean, mean * (1.0 + 2.0 * p - 3.0 * p * p), 1)
    d_max, tail = _truncation_point(start, functools.partial(_runs_tail, n, p))
    pmf = _runs_coefficients(n, p, min(d_max, n))
    return DistributionTable(pmf=pmf / pmf.sum(), tail_mass=tail)


def _runs_log_pgf(n: int, p: float, zm1: np.ndarray) -> np.ndarray:
    """log trace(M(z)^n) = log(lambda_+^n + lambda_-^n) at each z = 1 + zm1 >= 1,
    for the p and q = fl(1 - p) of ``_runs_coefficients``, so at z = 1 the
    mass (p + q)^n of its uncut table.

    lambda_+- = (T +- disc) / 2 are the eigenvalues of M(z): T = q + p z, and
    disc^2 = T^2 - 4 p q (z - 1) is formed as (q - p z)^2 + 4 p q, a sum of
    nonnegative terms; lambda_- = 2 p q (z - 1) / (T + disc), which does not
    cancel.  For z >= 1 both are nonnegative, so the log is
    n log lambda_+ + log1p((lambda_- / lambda_+)^n).
    """
    import numpy as np

    q = 1.0 - p
    pz = p * (1.0 + zm1)
    plus = q + pz + np.sqrt((q - pz) ** 2 + 4.0 * p * q)  # T + disc = 2 lambda_+
    ratio = 4.0 * p * q * zm1 / (plus * plus)  # lambda_- / lambda_+, in [0, 1]
    return n * np.log(0.5 * plus) + np.log1p(ratio**n)


def _runs_tail(n: int, p: float, x: int) -> float:
    """Chernoff bound on P(W > x): the least exp(-s x) E e^{sW} over
    ``chernoff_tail``'s grid of s, E e^{sW} from ``_runs_log_pgf`` at z = e^s,
    formed in logs; 0 for x >= n, past the support."""
    if x >= n:
        return 0.0
    s, e = _chernoff_grid(1)
    exponent = float((_runs_log_pgf(n, p, e[:, 0]) - x * s).min())
    return math.exp(exponent) if exponent < 0.0 else 1.0


def _runs_coefficients(n: int, p: float, d_max: int) -> np.ndarray:
    """c_0..c_{d_max} of trace(M(z)^n), not normalised, for d_max <= n.

    M(z)^n is formed by left-to-right square-and-multiply over the bits of
    n.  The 2 x 2 matrix of polynomials in z is one (2, 2, L) array of
    coefficients, from power ``lo`` up: a squaring is eight
    ``np.convolve`` calls, a multiply by M one site of the site-by-site
    recursion, a' = q a + q b and b' = p a + p z b in each row, and the last
    squaring forms only the trace.  After each step only the degrees up to
    d_max are kept: a product's coefficient of degree d reads only its
    factors' degrees up to d, through the same dot products, so each kept
    coefficient has the bits of the uncut power.  Coefficients that
    underflow to exact zeros at either end are cut away as well, so the
    array holds only the counts that carry mass.
    """
    import numpy as np

    q = 1.0 - p

    def times_m(x: np.ndarray) -> np.ndarray:
        y = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        y[:, 0, :-1] = q * x[:, 0] + q * x[:, 1]
        y[:, 1, :-1] = p * x[:, 0]
        y[:, 1, 1:] += p * x[:, 1]
        return y

    x, lo = np.array([[[q, 0.0], [p, 0.0]], [[q, 0.0], [0.0, p]]]), 0  # M(z)
    conv = np.convolve
    bits = bin(n)[3:]  # after the leading 1, which M(z) stands for
    for bit in bits[:-1]:
        y = np.empty((2, 2, 2 * x.shape[-1] - 1))
        for i in (0, 1):
            for j in (0, 1):
                np.add(conv(x[i, 0], x[0, j]), conv(x[i, 1], x[1, j]), out=y[i, j])
        x, lo = (times_m(y) if bit == "1" else y), 2 * lo
        x = x[..., : d_max - lo + 1]
        if not (x[..., 0].any() and x[..., -1].any()):
            live = np.flatnonzero(x.reshape(4, -1).any(axis=0))
            x, lo = x[..., live[0] : live[-1] + 1], lo + live[0]
    y = times_m(x) if bits[-1] == "1" else x
    trace = (
        conv(x[0, 0], y[0, 0]) + conv(x[0, 1], y[1, 0])
        + conv(x[1, 0], y[0, 1]) + conv(x[1, 1], y[1, 1])
    )
    pmf = np.zeros(d_max + 1)
    pmf[2 * lo : 2 * lo + trace.size] = trace[: d_max + 1 - 2 * lo]
    return pmf


def _count_subgrids(grids: np.ndarray, k: int) -> np.ndarray:
    """Count all-failed k x k subgrids, k >= 2, in each n x n boolean grid.

    ``grids`` has shape (m, n, n) and is read as one flat array, cell (r, c)
    of grid g at i = (g n + r) n + c; returns shape (m,).  The AND of k
    views shifted by 0, n, ..., (k-1) n marks the cells that start a
    vertical run of k failures, and the AND of k views of that shifted by
    0..k-1 the top-left corners of all-failed windows.  Each AND is one
    pass over the contiguous draw.  At a corner, r <= n - k and c <= n - k,
    every shifted cell lies in the corner's own grid; the other starts may
    reach into the next row or grid, and ``_corner_weights`` gives them 0.
    One float32 product with those weights masks and counts each grid's
    corners at once: its sums of 0s and 1s are below 2^24, so exact.
    """
    import numpy as np

    m, n, _ = grids.shape
    flat = grids.reshape(-1)
    size = flat.size
    runs = np.zeros(size, dtype=bool)
    np.bitwise_and(flat[: size - n], flat[n:], out=runs[: size - n])
    for i in range(2, k):
        runs[: size - i * n] &= flat[i * n :]
    full = np.zeros(size, dtype=bool)
    np.bitwise_and(runs[:-1], runs[1:], out=full[:-1])
    for j in range(2, k):
        full[:-j] &= runs[j:]
    return (full.reshape(m, n * n) @ _corner_weights(n, k)).astype(np.intp)


@functools.lru_cache(maxsize=16)
def _corner_weights(n: int, k: int) -> np.ndarray:
    """1 at the flat index r n + c of each window corner of an n x n grid,
    r and c <= n - k, and 0 elsewhere; float32, read-only."""
    import numpy as np

    w = np.zeros((n, n), dtype=np.float32)
    w[: n - k + 1, : n - k + 1] = 1.0
    w = w.reshape(-1)
    w.flags.writeable = False
    return w


def _reliability_step(k: int, q: float, row_start: bool, window: bool) -> np.ndarray:
    """Transition of the local state (s, v) at one cell, as ``advance`` in
    ``reliability_exact_pmf`` reads it.

    v is the current column's run of failed cells up to the row above,
    capped at k-1; s is the number of columns just left of this cell, capped
    at k-1, whose run reaches k in this row (0 at the start of a row).  A
    failed cell completes a k x k window when v = s = k-1.  The new v goes
    to the end of the column register, so the new states are laid out as
    (s', v').  With ``window`` the second layer raises the count; without,
    no state with v = s = k-1 has mass yet, as no window ends at this cell.
    """
    import numpy as np

    step = np.zeros((1 + window, k, k, k * k))
    for s in range(k):
        for v in range(k):
            src = s * k + v
            step[0, 0, 0, src] += 1.0 - q
            full = v == k - 1  # the run reaches k if this cell fails
            s_in = 0 if row_start else s
            closes = full and s_in == k - 1
            if closes and not window:
                continue
            s_out = min(s_in + 1, k - 1) if full else 0
            step[int(closes), s_out, min(v + 1, k - 1), src] += q
    return step


def reliability_exact_pmf(m: models.ReliabilityModel) -> DistributionTable:
    """Exact law of the subgrid count by a cell-by-cell transfer matrix.

    Cells are visited row by row.  The state is each column's run of failed
    cells capped at k-1 (k^n values) and the count of full columns just to
    the left (k values); it is kept as a register of column digits that
    rotates by one column per cell, so the current column is always the
    leading axis.  The count dimension grows by one at each of the
    (n-k+1)^2 cells that close a window.  The cost, states x counts x cells
    = k^(n+1) ((n-k+1)^2 + 1) n^2, is refused above RELIABILITY_COST_BUDGET:
    the largest grids it admits are n = 11 for k = 2, 8 for k = 3, 7 for
    k = 4 and 6 for k = 5, 6.  Once n + 1 reaches the budget's bit length,
    k^(n+1) >= 2^(n+1) alone passes it, and the cost, an integer of about
    n digits, is not formed.
    """
    n, k, q = m.n, m.k, m.q
    past = n + 1 >= RELIABILITY_COST_BUDGET.bit_length()
    cost = f"at least {k}^{n + 1}" if past else k ** (n + 1) * ((n - k + 1) ** 2 + 1) * n * n
    if past or cost > RELIABILITY_COST_BUDGET:
        raise BudgetExceededError(
            f"reliability transfer-matrix cost {cost} exceeds budget "
            f"{RELIABILITY_COST_BUDGET}; use reliability_mc_pmf"
        )
    import numpy as np

    def advance(step: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
        """Advance a state x count array by one site of the transfer matrix.

        ``x`` has the states on its first axis and the counts on its last.
        ``step[0]`` is the transition matrix of the moves that keep the
        count, ``step[1]`` (if present) that of the moves that raise it by
        one; the leading axes of ``step`` after the first are the new
        states.  ``out`` receives the result and has one more count than
        ``x`` exactly when ``step[1]`` is present.  ``out`` may overlap ``x``.
        """
        y = np.einsum("...k,kl->...l", step, x.reshape(len(x), -1))
        y = y.reshape(step.shape[:-1] + x.shape[1:])
        if len(step) == 1:
            out[...] = y[0]
            return
        out[..., :-1] = y[0]
        out[..., -1] = 0.0
        out[..., 1:] += y[1]

    start = _reliability_step(k, q, row_start=True, window=False)
    inner = {w: _reliability_step(k, q, row_start=False, window=w) for w in (False, True)}
    rest = k ** (n - 1)
    dp = np.zeros((k * k, rest, 1))  # axes (s, v_c), the other columns, count
    dp[0, 0, 0] = 1.0
    for r in range(n):
        for c in range(n):
            window = r >= k - 1 and c >= k - 1
            new = np.empty((k, rest, k, dp.shape[-1] + window))
            step = start if c == 0 else inner[window]
            advance(step, dp, new.transpose(0, 2, 1, 3))
            dp = new.reshape(k * k, rest, -1)
    # pairwise summation over the states, which needs them contiguous
    pmf = np.ascontiguousarray(dp.reshape(-1, dp.shape[-1]).T).sum(axis=1)
    # fl(1-q) + q is not exactly 1, so every cell scales the total mass by
    # the same factor; dividing it out gives the law at a q within an ulp
    return DistributionTable(pmf=pmf / pmf.sum(), tail_mass=0.0)


def _cell_threshold(q: float) -> tuple[int, int]:
    """(t >> 45, t mod 2^45) for t = ceil(q 2^53): a cell whose 53-bit
    uniform m lies below t fails, with probability t / 2^53.  q 2^53 is
    exact, a power-of-two scaling; q = 1 gives t >> 45 = 256."""
    t = math.ceil(q * 2.0**53)
    return t >> 45, t & ((1 << 45) - 1)


def _failed_cells(octets: np.ndarray, t_hi: int, t_lo: int, tie, out: np.ndarray) -> None:
    """Mark in ``out`` (bool, contiguous, one entry per byte) the cells whose
    uniform m = b 2^45 + r is below t = t_hi 2^45 + t_lo: a cell fails iff
    its byte b < t_hi, or b == t_hi and r < t_lo, r the top 45 bits of the
    next word of the bit generator ``tie``, one word per tie cell in cell
    order."""
    import numpy as np

    flat = out.reshape(-1)
    np.less(octets, t_hi, out=flat)
    ties = np.flatnonzero(octets == t_hi)
    if ties.size:
        flat[ties] = (tie.random_raw(ties.size) >> 19) < t_lo


def reliability_mc_pmf(
    m: models.ReliabilityModel, samples: int, seed: int
) -> DistributionTable:
    """Monte Carlo law of the subgrid count, reproducible for a given seed.

    The seed stream is split into one substream per fixed-size chunk, so the
    result does not depend on how chunks are scheduled.  Each chunk's
    substream spawns two PCG64 streams: a byte stream, whose ``random_raw``
    words are read as little-endian bytes, one byte per cell in cell order,
    and a tie stream, one word per tie cell in cell order.  A cell fails
    with the law of ``rng.random() < q``: a 53-bit uniform m below
    t = ceil(q 2^53), here m = b 2^45 + r, its byte b the top 8 bits of m
    and r, the top 45 bits of its tie word, the rest.  With
    t = t_hi 2^45 + t_lo the cell fails iff b < t_hi, or b == t_hi and
    r < t_lo, so with probability exactly t / 2^53, independently of every
    other cell; r is drawn only for the one cell in 256 whose byte ties
    (Knuth & Yao 1976 compare random bits with q's expansion from the top
    the same way).  q = 1 gives t_hi = 256: every cell fails.

    A chunk is drawn and counted as many whole grids as fit in
    MC_DRAW_CELLS cells at a time, through one word and one bool buffer
    allocated once per call; a word's bytes left over at the end of a draw
    are carried to the next.  Consecutive draws continue both streams, so
    the table is the same as from one draw of the whole chunk, a function
    of (model, samples, seed) alone, and memory stays bounded.  More than
    MC_CELL_BUDGET cells in all raise BudgetExceededError before the first
    draw.  The table's ``mc_samples`` gives its per-bin binomial standard
    errors.
    """
    import numpy as np

    if samples < MC_MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MC_MIN_SAMPLES}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    n, k, q = m.n, m.k, m.q
    if samples * n * n > MC_CELL_BUDGET:
        raise BudgetExceededError(
            f"Monte Carlo cost {samples} x {n}^2 cells exceeds budget {MC_CELL_BUDGET}"
        )
    block = max(1, MC_DRAW_CELLS // (n * n))
    # word 0 holds the bytes carried from the last draw at its end, octets
    # lo..7, and the draw's new words follow it
    words = np.empty(1 + (block * n * n + 7) // 8, dtype="<u8")
    octets = words.view(np.uint8)
    failed = np.empty((block, n, n), dtype=bool)
    t_hi, t_lo = _cell_threshold(q)
    max_count = (n - k + 1) ** 2
    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    freq = np.zeros(max_count + 1, dtype=np.int64)
    done = 0
    for child in children:
        byte_stream, tie_stream = (np.random.PCG64(s) for s in child.spawn(2))
        take = min(MC_CHUNK, samples - done)
        lo = 8
        for start in range(0, take, block):
            size = min(block, take - start)
            end = lo + size * n * n
            new = (end - 1) // 8  # the fewest words that reach octet end
            words[1 : 1 + new] = byte_stream.random_raw(new)
            _failed_cells(octets[lo:end], t_hi, t_lo, tie_stream, failed[:size])
            lo = end - 8 * new  # carry octets end..8 + 8 new to the end of word 0
            octets[lo:8] = octets[end : 8 + 8 * new]
            counts = _count_subgrids(failed[:size], k)
            freq += np.bincount(counts, minlength=max_count + 1)
        done += take
    return DistributionTable(pmf=freq / samples, tail_mass=0.0, mc_samples=samples)


def poisson_mixture_table(weights: list[float], intensities: list[float]) -> DistributionTable:
    """Weighted mixture of Poisson pmfs: ``cp_pmf``'s recursion for each intensity
    of positive weight, up to the largest of their ``cp_pmf`` truncation points,
    and ``cp_pmf``'s residual tail, which their Chernoff bounds certify."""
    parts = [(w, CompoundPoissonParams([lam])) for w, lam in zip(weights, intensities) if w > 0]
    x_max = max(_cp_x_max(params) for _, params in parts)
    pmf = sum(w * _cp_table(params, x_max) for w, params in parts)
    return _residual_table(pmf)


# Stirling series coefficients B_2k / (2k (2k-1)), k = 1..5
_STIRLING_COEF = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)
_STIRLING_MIN = 15.0


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for n > 0.

    Five terms of the Stirling series at n >= 15 (next term < 3e-16); below,
    the upward recurrence stirlerr(n) = stirlerr(n+1) + (n+1/2) log1p(1/n) - 1,
    whose steps involve only O(1) numbers, not differences of large
    log-gammas.
    """
    import numpy as np

    n = np.asarray(n, dtype=float)
    steps = np.ceil(np.maximum(_STIRLING_MIN - n, 0.0))
    big = n + steps
    with np.errstate(over="ignore"):  # past 1.3e154 nn is inf: the series is c0 / big
        nn = big * big
    c0, c1, c2, c3, c4 = _STIRLING_COEF
    out = (c0 - (c1 - (c2 - (c3 - c4 / nn) / nn) / nn) / nn) / big
    small = steps > 0.0
    if small.any():
        k = n[small, None] + np.arange(_STIRLING_MIN)
        term = (k + 0.5) * np.log1p(1.0 / k) - 1.0
        out[small] += np.where(k < big[small, None], term, 0.0).sum(axis=1)
    return out


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Deviance x log(x/m) + m - x, without cancellation.

    Near x = m (|v| < 0.1, v = (x-m)/(x+m)) it is summed as the odd series
    (x-m) v + 2x sum_j v^(2j+1)/(2j+1); elsewhere as m((1+t) log1p(t) - t)
    with t = (x-m)/m.
    """
    import numpy as np

    d = x - m
    v = d / (x + m)
    near = np.abs(v) < 0.1
    s = d * v
    term = 2.0 * x * v
    v2 = np.where(near, v * v, 0.0)
    for j in range(3, 41, 2):
        term = term * v2
        s_next = s + term / j
        if np.array_equal(s_next, s):
            break
        s = s_next
    t = d / m
    # t rounds to -1 once x/m is below rounding, where 0 * log1p(-1) is nan;
    # the deviance there is its limit m, so the nan and its warning are dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.where(t == -1.0, m, m * ((1.0 + t) * np.log1p(t) - t))
    return np.where(near, s, far)


def _nbinom_pmf(x_max: int, r: float, scale: float) -> np.ndarray:
    """Negative binomial pmf Gamma(x+r) / (Gamma(r) x!) (1+scale)^-r a^x,
    a = scale / (1+scale), on x = 0..x_max: the law of Poisson(xi) with
    xi ~ Gamma(r, scale).

    Evaluated in Loader's saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000), for x >= 1:

        sqrt(r / (2 pi x n)) exp(stirlerr(n) - stirlerr(r) - stirlerr(x)
                                 - bd0(r, n / (1+scale))
                                 - bd0(x, n scale / (1+scale))),

    n = x + r.  Every term is O(1) or a cancellation-free deviance in the
    law's own parameters, with no rounded success probability 1/(1+scale),
    so the relative error stays near 1e-14 at every scale.
    """
    import numpy as np

    pmf = np.empty(x_max + 1)
    pmf[0] = math.exp(-r * math.log1p(scale))
    xs = np.arange(1.0, x_max + 1)
    n = xs + r
    st = _stirlerr(np.concatenate(([r], xs, n)))
    lc = (
        st[1 + x_max :]
        - st[0]
        - st[1 : 1 + x_max]
        - _bd0(r, n / (1.0 + scale))
        - _bd0(xs, n * scale / (1.0 + scale))
    )
    pmf[1:] = np.sqrt(r / (2.0 * math.pi * xs * n)) * np.exp(lc)
    return pmf


def nbinom_table(r: float, scale: float) -> DistributionTable:
    """Law of Poisson(xi) with xi ~ Gamma(r, scale), the negative binomial, by
    ``cp_pmf``'s rule from its bulk start (mean r scale, variance
    r scale (1 + scale), J = 1) and with its residual tail.  For k >= x,
    p(k+1)/p(k) = a (k+r)/(k+1) <= rho = a max(1, (x+r)/(x+1)), so
    P(W > x) <= p(x) rho / (1 - rho), read off the last entry of the table
    built at each point tried.  1 - rho is formed as
    (x + 1 - scale max(0, r-1)) / ((1+scale)(x+1)), which keeps its digits
    where a = scale / (1+scale) rounds to 1.

    For r <= 1 the pmf also decays like 1/k, which the ratio bound drops:
    p(k) <= p(x) a^(k-x) ((x+1)/(k+1))^(1-r), and (x+1+m)^r <= (x+1)^r
    (1 + r m) with sum_{m>=1} a^m / m = log1p(scale) give
    P(W > x) <= p(x) (x+1) (log1p(scale) + r scale); the smaller of the two
    bounds is taken.  It decides the cut near a point mass at 0 with a huge
    scale, where rho / (1 - rho) = scale is far too loose.
    """
    a = scale / (1.0 + scale)
    pmf = None

    def tail(x: int) -> float:
        nonlocal pmf
        pmf = _nbinom_pmf(x, r, scale)
        rho = a * max(1.0, (x + r) / (x + 1.0))
        gap = (x + 1.0 - scale * max(0.0, r - 1.0)) / ((1.0 + scale) * (x + 1.0))  # 1 - rho
        factor = rho / gap if gap > 0.0 else math.inf
        if r <= 1.0:
            factor = min(factor, (x + 1.0) * (math.log1p(scale) + r * scale))
        return pmf[-1] * factor

    _truncation_point(_bulk_start(r * scale, r * scale * (1.0 + scale), 1), tail)
    return _residual_table(pmf)


def mixed_exact_pmf(m: models.MixedPoissonModel) -> DistributionTable:
    """Exact law of W ~ Poisson(xi), from the mixing law: a two-atom Poisson
    mixture for two-point mixing, a negative binomial for gamma mixing."""
    return m.mixing.exact_law()


def sums_exact_pmf(m: models.IndependentSumModel) -> DistributionTable:
    """Exact law of W = sum Z_i by iterated convolution of the component pmfs.

    Each component is divided by its sum first: the model accepts sums
    within 1e-9 of 1, and their product could otherwise exceed the mass a
    table may hold.
    """
    import numpy as np

    cost = 0
    length = 1
    for comp in m.components:
        cost += length * len(comp)
        length += len(comp) - 1
        if cost > SUMS_CELL_BUDGET:
            raise BudgetExceededError(
                f"convolution cost exceeds {SUMS_CELL_BUDGET} cells"
            )
    pmf = np.array([1.0])
    for comp in m.components:
        pmf = np.convolve(pmf, np.asarray(comp, dtype=float) / math.fsum(comp))
    return DistributionTable(pmf=pmf, tail_mass=0.0)


def distance(a: DistributionTable, b: DistributionTable) -> DistanceReport:
    """Kolmogorov and total variation distances between two tables.

    d_k is the exact sup of the |cdf difference| over the union support
    (identical tables give exactly 0); the combined tail masses are reported
    as certified_slack, to be added by callers who need a one-sided
    certificate.  d_tv is half the l1 pmf distance plus the slack, capped
    at 1.
    """
    import numpy as np

    hi = max(a.x_max, b.x_max)
    pa = np.zeros(hi + 1)
    pb = np.zeros(hi + 1)
    pa[: a.x_max + 1] = a.pmf
    pb[: b.x_max + 1] = b.pmf
    ca, cb = np.cumsum(pa), np.cumsum(pb)
    diff = np.abs(ca - cb)
    argmax_y = int(np.argmax(diff))
    d_k = float(diff[argmax_y])
    slack = a.tail_mass + b.tail_mass
    d_tv = min(1.0, 0.5 * float(np.abs(pa - pb).sum()) + slack)
    stderr2 = 0.0
    for t, cdf in ((a, ca), (b, cb)):
        if t.mc_samples is not None:
            # cumsum adds in order and the padding is zeros, so this equals
            # t's own cumulative sum at min(argmax_y, t.x_max)
            F = float(cdf[argmax_y])
            stderr2 += F * (1.0 - F) / t.mc_samples
    return DistanceReport(
        d_k=d_k,
        d_tv=d_tv,
        argmax_y=argmax_y,
        mc_stderr=math.sqrt(stderr2),
        certified_slack=slack,
    )
