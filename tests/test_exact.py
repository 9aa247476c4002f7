"""Tests for the exact small-instance laws and distance computations."""

from __future__ import annotations

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf
from numpy.testing import assert_allclose
from scipy import stats

from cpstein import (
    BudgetExceededError,
    CompoundPoissonParams,
    GammaMixing,
    IndependentSumModel,
    MixedPoissonModel,
    ReliabilityModel,
    RunsModel,
    TwoPointMixing,
    cp_pmf,
    distance,
    mixed_exact_pmf,
    reliability_exact_pmf,
    reliability_mc_pmf,
    runs_exact_pmf,
    sums_exact_pmf,
)
from cpstein.cli import main
from cpstein import exact
from cpstein.core import TAIL_TARGET
from cpstein.exact import MC_CHUNK, _cell_threshold, _count_subgrids, _failed_cells
from test_core import plain_recursion_pmf

U = 2.0**-53  # unit roundoff of a double


def runs_brute_force(n, p):
    """Exhaustive 2^n enumeration of the circular adjacent-pair count."""
    patterns = np.arange(1 << n, dtype=np.int64)
    bits = (patterns[:, None] >> np.arange(n)) & 1
    pairs = (bits * np.roll(bits, -1, axis=1)).sum(axis=1)
    ones = bits.sum(axis=1)
    weights = p**ones * (1.0 - p) ** (n - ones)
    return np.bincount(pairs, weights=weights, minlength=n + 1)


def reliability_patterns(n, k):
    """Every one of the 2^(n^2) failure patterns: its count of all-failed
    k x k subgrids and its number of failed cells."""
    cells = n * n
    patterns = np.arange(1 << cells, dtype=np.int64)
    grids = ((patterns[:, None] >> np.arange(cells)) & 1).astype(bool).reshape(-1, n, n)
    count = np.zeros(len(patterns), dtype=np.int64)
    for r in range(n - k + 1):
        for c in range(n - k + 1):
            count += grids[:, r : r + k, c : c + k].all(axis=(1, 2))
    return count, grids.sum(axis=(1, 2))


def reliability_brute_force(n, k, q):
    """Exhaustive 2^(n^2) enumeration of the all-failed k x k subgrid count."""
    count, ones = reliability_patterns(n, k)
    weights = q**ones * (1.0 - q) ** (n * n - ones)
    return np.bincount(count, weights=weights, minlength=(n - k + 1) ** 2 + 1)


def runs_dp_reference(n, p):
    """The runs transfer matrix as first written: (first bit, current bit),
    each a vector over the count, updated one pair at a time."""
    prob = (1.0 - p, p)
    dp = [[np.zeros(n + 1) for _ in range(2)] for _ in range(2)]
    for b in range(2):
        dp[b][b][0] = prob[b]
    for _ in range(2, n + 1):
        new = [[np.zeros(n + 1) for _ in range(2)] for _ in range(2)]
        for b1 in range(2):
            for prev in range(2):
                vec = dp[b1][prev]
                for cur in range(2):
                    w = prob[cur] * vec
                    if prev == 1 and cur == 1:
                        new[b1][cur][1:] += w[:-1]
                    else:
                        new[b1][cur] += w
        dp = new
    pmf = np.zeros(n + 1)
    for b1 in range(2):
        for last in range(2):
            vec = dp[b1][last]
            if b1 == 1 and last == 1:
                pmf[1:] += vec[:-1]
            else:
                pmf += vec
    return pmf


def subgrid_counts_by_prefix_sums(grids, k):
    """The all-failed k x k subgrid count as first written: 2-D prefix sums
    of the int8 grids, each window sum four lookups."""
    S = np.zeros((grids.shape[0], grids.shape[1] + 1, grids.shape[2] + 1), dtype=np.int32)
    S[:, 1:, 1:] = np.cumsum(np.cumsum(grids.astype(np.int8), axis=1), axis=2)
    win = S[:, k:, k:] - S[:, :-k, k:] - S[:, k:, :-k] + S[:, :-k, :-k]
    return np.count_nonzero(win == k * k, axis=(1, 2))


def reliability_mc_by_prefix_sums(m, samples, seed):
    """The Monte Carlo loop of reliability_mc_pmf as first written: the same
    substream per chunk and the same draws, counted by prefix sums.  Each
    chunk is drawn at once: a cell fails iff its byte of the byte stream is
    below t >> 45, or equals it and the top 45 bits of its word of the tie
    stream are below t mod 2^45, for t = ceil(q 2^53)."""
    n, k, q = m.n, m.k, m.q
    max_count = (n - k + 1) ** 2
    n_chunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    freq = np.zeros(max_count + 1)
    done = 0
    t = math.ceil(q * 2.0**53)
    for child in np.random.SeedSequence(seed).spawn(n_chunks):
        byte_stream, tie_stream = (np.random.PCG64(s) for s in child.spawn(2))
        take = min(MC_CHUNK, samples - done)
        cells = take * n * n
        octets = byte_stream.random_raw(-(-cells // 8)).astype("<u8").view(np.uint8)[:cells]
        grids = octets < t >> 45
        ties = np.flatnonzero(octets == t >> 45)
        grids[ties] = (tie_stream.random_raw(ties.size) >> 19) < t % 2**45
        grids = grids.reshape(take, n, n)
        counts = subgrid_counts_by_prefix_sums(grids, k)
        freq += np.bincount(counts, minlength=max_count + 1)
        done += take
    pmf = freq / samples
    return pmf, np.sqrt(pmf * (1.0 - pmf) / samples)


# ---------------------------------------------------------------------------
# runs


def test_runs_n3_closed_values():
    # n=3, p=1/2: W in {0, 1, 3} with probabilities 1/2, 3/8, 1/8
    t = runs_exact_pmf(RunsModel(3, 0.5))
    assert_allclose(t.pmf, [0.5, 0.375, 0.0, 0.125], atol=1e-15)
    assert t.tail_mass == 0.0


def test_runs_dp_matches_brute_force():
    for n in (3, 5, 8, 11):
        for p in (0.1, 0.3, 0.5, 0.7):
            t = runs_exact_pmf(RunsModel(n, p))
            assert_allclose(t.pmf, runs_brute_force(n, p), atol=1e-13)


def test_runs_dp_matches_brute_force_n16():
    t = runs_exact_pmf(RunsModel(16, 0.3))
    assert_allclose(t.pmf, runs_brute_force(16, 0.3), atol=1e-13)


def test_runs_mean_is_n_p_squared():
    for n, p in ((10, 0.2), (100, 0.45), (400, 0.07)):
        t = runs_exact_pmf(RunsModel(n, p))
        assert_allclose(t.mean(), n * p * p, rtol=1e-10)
        assert_allclose(t.total_mass(), 1.0, atol=1e-12)


def test_runs_degenerate_edges():
    all_fail = runs_exact_pmf(RunsModel(5, 0.0))
    assert all_fail.pmf[0] == 1.0
    all_succeed = runs_exact_pmf(RunsModel(5, 1.0))
    assert all_succeed.pmf[5] == 1.0


def runs_gate_cases():
    """(n, p) of the exact-reference gate: seeded n <= 400 over p in (0, 1),
    p near 1e-6 and p near 1 - 1e-6, then fixed edges up to n = 2000."""
    rng = np.random.default_rng(2323)
    ns = rng.integers(3, 401, size=12).tolist()
    near = 10.0 ** rng.uniform(-6.3, -5.7, size=4)
    ps = rng.random(4).tolist() + near[:2].tolist() + (1.0 - near[2:]).tolist()
    ps += rng.random(4).tolist()
    edges = [(n, p) for n in (3, 4, 5, 1999, 2000) for p in (1e-300, 1e-9, 1.0 - 1e-9)]
    return list(zip(ns, ps)) + edges + [(4, 0.5), (2000, 0.001), (2000, 0.999)]


@functools.cache
def runs_block_count_law(n, p):
    """The circular 2-runs law in 50-digit arithmetic, at the exact value of
    the double p and q = 1 - p exact.

    A circle with m ones in r blocks (0 < m < n) has W = m - r, and
    (n/r) C(m-1, r-1) C(n-m-1, r-1) arrangements, so

        P(W = w) = sum_r (n/r) C(m-1, r-1) C(n-m-1, r-1) p^m q^(n-m),  m = w + r;

    m = 0 gives W = 0 and m = n gives W = n.  The term of r + 1 is that of r
    times (m-r)(n-m-r) / (r(r+1)).  An m whose binomial weight C(n, m)
    p^m q^(n-m) is below e^-785 is skipped: all of them together move no
    entry by more than 1e-337.
    """
    lp = math.log(p) if p > 0.0 else -math.inf
    lq = math.log1p(-p) if p < 1.0 else -math.inf
    with mp.workdps(50):
        pm, qm = mpf(p), 1 - mpf(p)
        law = [mpf(0)] * (n + 1)
        law[0] += qm**n
        law[n] += pm**n
        for m in range(1, n):
            log_weight = (
                math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
                + m * lp + (n - m) * lq
            )
            if log_weight < -785.0:
                continue
            term = n * pm**m * qm ** (n - m)
            for r in range(1, min(m, n - m) + 1):
                law[m - r] += term
                term = term * ((m - r) * (n - m - r)) / (r * (r + 1))
    return law


def assert_within_n_u_of_block_count_law(pmf, n, p):
    """Relative error at most n u where the exact law exceeds 1e-290,
    absolute error at most 1e-290 elsewhere."""
    law = runs_block_count_law(n, p)
    with mp.workdps(50):
        for w, (x, exact_p) in enumerate(zip(pmf, law)):
            err = abs(mpf(float(x)) - exact_p)
            if exact_p > 1e-290:
                assert err <= n * U * exact_p, (w, float(err / exact_p) / (n * U))
            else:
                assert err <= 1e-290, (w, float(err))


@pytest.mark.parametrize("n, p", runs_gate_cases())
def test_runs_within_n_u_of_block_count_law(n, p):
    t = runs_exact_pmf(RunsModel(n, p))
    assert_within_n_u_of_block_count_law(t.pmf, n, p)
    assert abs(math.fsum(t.pmf) - 1.0) <= 4 * U


@pytest.mark.parametrize("n, p", runs_gate_cases())
def test_reference_dp_within_n_u_of_block_count_law(n, p):
    # the site-by-site recursion meets the same per-entry rule; it does not
    # divide by its sum, so its mass is (p + fl(1-p))^n, not within 4 u of 1
    assert_within_n_u_of_block_count_law(runs_dp_reference(n, p), n, p)


@pytest.mark.parametrize(
    "p, n", [(0.05, 3), (0.05, 50), (0.05, 2000), (0.5, 3), (0.5, 50), (0.5, 2000), (0.3, 1999)]
)
def test_runs_matches_reference_dp(n, p):
    # both are within n u of the exact law, so within 2 n u of each other
    # where it exceeds 1e-290; below, rounding is absolute.  p = 0.3 at
    # n = 1999 is past the block-count reference's budget (about 80 s)
    t = runs_exact_pmf(RunsModel(n, p))
    ref = runs_dp_reference(n, p)
    assert_reference_past_table_within_tail_mass(t, ref)
    ref = ref[: t.pmf.size]
    big = ref > 1e-290
    assert_allclose(t.pmf[big], ref[big], rtol=2 * n * U, atol=0)
    assert_allclose(t.pmf[~big], ref[~big], rtol=0, atol=1e-290)


def assert_reference_past_table_within_tail_mass(t, ref):
    """The mass of the reference law past the table's support is at most its tail_mass."""
    assert math.fsum(ref[t.pmf.size :]) / math.fsum(ref) <= t.tail_mass


@pytest.mark.parametrize("n, p", [(50, 0.0), (50, 1.0), (2000, 0.0), (2000, 1.0)])
def test_runs_exact_at_p_0_and_1(n, p):
    t = runs_exact_pmf(RunsModel(n, p))
    ref = runs_dp_reference(n, p)
    assert_reference_past_table_within_tail_mass(t, ref)
    assert np.array_equal(t.pmf, ref[: t.pmf.size])


def test_runs_budget():
    with pytest.raises(BudgetExceededError):
        runs_exact_pmf(RunsModel(2001, 0.1))


# ---------------------------------------------------------------------------
# reliability


def test_reliability_exact_matches_brute_force():
    t = reliability_exact_pmf(ReliabilityModel(3, 2, 0.5))
    assert_allclose(t.pmf, reliability_brute_force(3, 2, 0.5), atol=1e-14)


def test_reliability_exact_matches_brute_force_asymmetric_q():
    t = reliability_exact_pmf(ReliabilityModel(3, 2, 0.3))
    assert_allclose(t.pmf, reliability_brute_force(3, 2, 0.3), atol=1e-14)


@pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 4) for k in range(2, n + 1)])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.85])
def test_reliability_exact_matches_brute_force_every_small_grid(n, k, q):
    # the brute force adds up to 2^16 weights one at a time, which costs it
    # up to ~5e-13 relative; the rational-law test below holds the engine to 1e-15
    t = reliability_exact_pmf(ReliabilityModel(n, k, q))
    assert_allclose(t.pmf, reliability_brute_force(n, k, q), rtol=1e-12, atol=0)


def test_reliability_k_equals_n():
    # single k x k window: W ~ Bernoulli(q^{k^2})
    t = reliability_exact_pmf(ReliabilityModel(3, 3, 0.4))
    assert_allclose(t.pmf, [1 - 0.4**9, 0.4**9], atol=1e-15)


def test_reliability_exact_against_rational_law():
    # n = 4, q = 3/10 in exact rational arithmetic, from the counts of the
    # 2^16 patterns by (subgrid count, failed cells)
    n, k, q = 4, 2, Fraction(3, 10)
    count, ones = reliability_patterns(n, k)
    law = [Fraction(0)] * ((n - k + 1) ** 2 + 1)
    pairs, times = np.unique(np.stack([count, ones], axis=1), axis=0, return_counts=True)
    for (w, o), t in zip(pairs.tolist(), times.tolist()):
        law[w] += t * q**o * (1 - q) ** (n * n - o)
    assert sum(law) == 1
    got = reliability_exact_pmf(ReliabilityModel(n, k, 0.3)).pmf
    rel = [abs(Fraction(float(g)) - want) / want for g, want in zip(got, law)]
    assert max(rel) <= Fraction(1, 10**15)


@pytest.mark.parametrize(
    "n,k", [(5, 2), (8, 2), (11, 2), (5, 3), (8, 3)]  # n = 11, 8: the largest in budget
)
@pytest.mark.parametrize("q", [0.3, 0.7])
def test_reliability_exact_mass_and_mean(n, k, q):
    t = reliability_exact_pmf(ReliabilityModel(n, k, q))
    assert t.x_max == (n - k + 1) ** 2
    assert abs(t.total_mass() - 1.0) <= 1e-13
    assert_allclose(t.mean(), (n - k + 1) ** 2 * q ** (k * k), rtol=1e-13)


@pytest.mark.parametrize("n,k", [(9, 3), (8, 4), (7, 5), (7, 7)])
def test_reliability_exact_budget_limit(n, k):
    # one step past the largest grid the cost budget admits for each k > 2
    # (k = 2: test_reliability_budget)
    with pytest.raises(BudgetExceededError, match="budget"):
        reliability_exact_pmf(ReliabilityModel(n, k, 0.3))


def test_reliability_exact_matches_mc_n8():
    # at q = 0.05 the cells whose byte ties with t >> 45 = 12 take the tie stream
    for k, q, seed, bin1 in ((2, 0.4, 8, 0.1), (3, 0.6, 83, 0.1), (2, 0.05, 85, 2e-4)):
        m = ReliabilityModel(8, k, q)
        exact = reliability_exact_pmf(m)
        mc = reliability_mc_pmf(m, samples=200_000, seed=seed)
        se = np.sqrt(exact.pmf * (1.0 - exact.pmf) / mc.mc_samples)
        assert np.all(np.abs(mc.pmf - exact.pmf) <= 5 * se + 1e-12), (k, q)
        assert exact.pmf[1] > bin1, (k, q)  # the check is not on empty bins only


def test_reliability_degenerate_q():
    full = reliability_exact_pmf(ReliabilityModel(4, 2, 1.0))
    assert full.pmf[9] == 1.0  # every one of the (n-k+1)^2 windows fails
    none = reliability_exact_pmf(ReliabilityModel(4, 2, 0.0))
    assert none.pmf[0] == 1.0


def test_reliability_budget():
    with pytest.raises(BudgetExceededError):
        reliability_exact_pmf(ReliabilityModel(12, 2, 0.3))


@pytest.mark.parametrize("n", [24, 25, 20_000])
def test_reliability_budget_at_large_n_names_the_budget(n):
    # from n = 25 on, 2^(n+1) alone passes the budget and the cost is not
    # formed; at n = 20 000 it would have more digits than str() prints
    budget = exact.RELIABILITY_COST_BUDGET
    with pytest.raises(BudgetExceededError, match=f"exceeds budget {budget}; "):
        reliability_exact_pmf(ReliabilityModel(n, 2, 0.3))


def test_reliability_budget_refusal_memory_does_not_grow_with_n():
    m = ReliabilityModel(10**7, 2, 0.3)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            reliability_exact_pmf(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_reliability_mc_reproducible_and_consistent():
    m = ReliabilityModel(4, 2, 0.3)
    a = reliability_mc_pmf(m, samples=50_000, seed=7)
    b = reliability_mc_pmf(m, samples=50_000, seed=7)
    assert np.array_equal(a.pmf, b.pmf)
    assert a.mc_samples == 50_000
    exact = reliability_exact_pmf(m)
    hi = min(a.x_max, exact.x_max)
    for x in range(hi + 1):
        p = float(exact.pmf[x])
        se = math.sqrt(p * (1.0 - p) / a.mc_samples)  # true binomial scale
        assert abs(a.pmf[x] - exact.pmf[x]) <= 4 * se + 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_count_subgrids_matches_prefix_sums(n):
    rng = np.random.default_rng(n)
    for k in range(2, n + 1):  # k = n: a single window
        for q in (0.3, 0.7, 0.95):
            grids = rng.random((400, n, n)) < q
            got = _count_subgrids(grids, k)
            assert np.array_equal(got, subgrid_counts_by_prefix_sums(grids, k))


@pytest.mark.parametrize(
    "n, k, q, samples",
    [(10, 2, 0.45, 150_000), (9, 3, 0.6, 20_000), (4, 4, 0.95, 20_000)],
)
def test_reliability_mc_bit_identical_to_prefix_sum_loop(n, k, q, samples):
    # 150 000 samples span two chunks of MC_CHUNK
    t = reliability_mc_pmf(ReliabilityModel(n, k, q), samples=samples, seed=11)
    pmf, stderr = reliability_mc_by_prefix_sums(ReliabilityModel(n, k, q), samples, 11)
    assert np.array_equal(t.pmf, pmf)
    assert np.array_equal(t.stderr, stderr)


class _TieWords:
    """A tie stream that hands out the given words in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0

    def random_raw(self, size):
        self.used += size
        return self.words[self.used - size : self.used]


@pytest.mark.parametrize(
    "q",
    [0.0, 2.0**-60, 2.0**-53, math.nextafter(77 / 256, 0.0), 77 / 256,
     math.nextafter(77 / 256, 1.0), 0.5, math.nextafter(1.0, 0.0), 1.0],
)
def test_cell_rule_is_the_53_bit_uniform_rule(q):
    # every byte b, each with 45-bit rests r at both ends and on both sides
    # of t mod 2^45, so that the cells whose byte ties with t >> 45 take
    # every such r from the tie stream (in its words' top 45 bits, the low
    # 19 bits set to show that they are ignored); each cell must fail
    # exactly when the 53-bit uniform m = b 2^45 + r fails the rule
    # m 2^-53 < q of rng.random() < q
    t_hi, t_lo = _cell_threshold(q)
    rests = sorted({0, 1, max(t_lo - 1, 0), t_lo, min(t_lo + 1, 2**45 - 1), 2**45 - 1})
    cells = [(b, r) for b in range(256) for r in rests]
    octets = np.array([b for b, _ in cells], dtype=np.uint8)
    tie = _TieWords([r << 19 | (1 << 19) - 1 for b, r in cells if b == t_hi])
    failed = np.empty(len(cells), dtype=bool)
    _failed_cells(octets, t_hi, t_lo, tie, failed)
    assert tie.used == tie.words.size == (len(rests) if t_hi < 256 else 0)
    expected = [(b * 2**45 + r) * 2.0**-53 < q for b, r in cells]
    assert failed.tolist() == expected
    assert math.ceil(q * 2.0**53) == t_hi * 2**45 + t_lo  # the law is t / 2^53


@pytest.mark.parametrize("block", [1000, 777, 1 << 17])
def test_reliability_mc_block_size_leaves_table_unchanged(monkeypatch, block):
    # MC_DRAW_CELLS set to block grids of 6 x 6 and most of one more, so a
    # draw is block grids: blocks that divide the chunk, that do not, and
    # one block per chunk; consecutive draws continue one stream, so every
    # table is the same
    m = ReliabilityModel(6, 2, 0.4)
    samples = (1 << 17) + 5000  # two chunks, the second partial
    default = reliability_mc_pmf(m, samples=samples, seed=5)
    monkeypatch.setattr(exact, "MC_DRAW_CELLS", block * 36 + 35)
    other = reliability_mc_pmf(m, samples=samples, seed=5)
    assert np.array_equal(default.pmf, other.pmf)
    assert np.array_equal(default.stderr, other.stderr)


class _Drawn(Exception):
    pass


def test_reliability_mc_budget_refused_before_the_first_draw(monkeypatch):
    def drawn(*args, **kwargs):
        raise _Drawn

    monkeypatch.setattr(np.random, "SeedSequence", drawn)
    # 20 001 x 100^2 cells is one grid row past the budget; n = 10 at the
    # default 10^6 samples, and a budget of cells exactly, pass to the draw
    with pytest.raises(BudgetExceededError, match="exceeds budget"):
        reliability_mc_pmf(ReliabilityModel(100, 2, 0.3), samples=20_001, seed=1)
    with pytest.raises(BudgetExceededError):
        reliability_mc_pmf(ReliabilityModel(300, 2, 0.3), samples=10**6, seed=1)
    for n, samples in ((10, 10**6), (100, 20_000), (14, exact.MC_CELL_BUDGET // 196)):
        with pytest.raises(_Drawn):
            reliability_mc_pmf(ReliabilityModel(n, 2, 0.3), samples=samples, seed=1)


@pytest.mark.parametrize("n", [4, 10, 40, 141])
def test_reliability_mc_draw_holds_at_most_draw_cells(monkeypatch, n):
    # a draw is as many whole grids as fit in MC_DRAW_CELLS cells: 2048 of
    # 4 x 4, 327 of 10 x 10, 20 of 40 x 40, and one of the largest grid the
    # cell budget admits at the fewest samples.  Stop at the first draw.
    def first(drawn, k):
        raise _Drawn(drawn.shape)

    monkeypatch.setattr(exact, "_count_subgrids", first)
    with pytest.raises(_Drawn) as info:
        reliability_mc_pmf(ReliabilityModel(n, 2, 0.3), samples=10_000, seed=1)
    grids = info.value.args[0][0]
    assert info.value.args[0] == (grids, n, n)
    assert grids * n * n <= exact.MC_DRAW_CELLS < (grids + 1) * n * n


def test_reliability_mc_memory_is_one_draw_buffer():
    # the draws go through one buffer of MC_DRAW_CELLS doubles and one of
    # bools, so the peak stays far below one MB and does not grow with the
    # sample count (one more chunk adds a few bytes of seed bookkeeping)
    m = ReliabilityModel(10, 2, 0.3)
    reliability_mc_pmf(m, samples=10_000, seed=1)  # numpy's first-call allocations
    peaks = []
    for samples in (100_000, 200_000):
        tracemalloc.start()
        try:
            reliability_mc_pmf(m, samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1 << 20
    assert peaks[1] <= peaks[0] + 4096


def test_reliability_mc_seed_sensitivity():
    m = ReliabilityModel(4, 2, 0.3)
    a = reliability_mc_pmf(m, samples=20_000, seed=1)
    b = reliability_mc_pmf(m, samples=20_000, seed=2)
    assert not np.array_equal(a.pmf, b.pmf)


def test_reliability_mc_chunking_invariant():
    # chunked accumulation must give one pmf regardless of sample count
    # alignment with the chunk size (1 << 17)
    m = ReliabilityModel(4, 2, 0.5)
    t = reliability_mc_pmf(m, samples=(1 << 17) + 1234, seed=3)
    assert_allclose(t.total_mass(), 1.0, atol=1e-12)
    assert t.mc_samples == (1 << 17) + 1234


# ---------------------------------------------------------------------------
# mixed Poisson


def test_two_point_mixture_pmf():
    m = MixedPoissonModel(TwoPointMixing(2.5, 3.5, 0.5))
    t = mixed_exact_pmf(m)
    want0 = 0.5 * math.exp(-2.5) + 0.5 * math.exp(-3.5)
    assert_allclose(t.pmf[0], want0, rtol=1e-14)
    x = np.arange(t.x_max + 1)
    direct = 0.5 * stats.poisson.pmf(x, 2.5) + 0.5 * stats.poisson.pmf(x, 3.5)
    assert_allclose(t.pmf, direct, rtol=1e-12, atol=1e-300)
    assert t.tail_mass <= 1e-12


def test_gamma_mixture_is_negative_binomial():
    # Poisson mixed over Gamma(r, s) is negative binomial with
    # success probability 1/(1+s)
    r, s = 3.0, 0.7
    m = MixedPoissonModel(GammaMixing(r, s))
    t = mixed_exact_pmf(m)
    x = np.arange(t.x_max + 1)
    direct = stats.nbinom.pmf(x, r, 1.0 / (1.0 + s))
    assert_allclose(t.pmf, direct, rtol=1e-10, atol=1e-300)


def test_two_point_table_is_cp_pmf_of_each_intensity():
    # each intensity is built by cp_pmf's recursion, all to the largest of
    # their cp_pmf truncation points, then mixed; up to lambda = 700 that
    # is the plain recursion from e^{-lambda}
    for a, b, w in ((2.5, 3.5, 0.5), (0.01, 7.0, 0.9), (200.0, 210.0, 0.3), (700.0, 3.0, 0.2)):
        t = mixed_exact_pmf(MixedPoissonModel(TwoPointMixing(a, b, w)))
        x_max = max(cp_pmf(CompoundPoissonParams([lam])).x_max for lam in (a, b))
        assert t.x_max == x_max
        want = w * plain_recursion_pmf([a], x_max) + (1.0 - w) * plain_recursion_pmf([b], x_max)
        assert np.array_equal(t.pmf, want)
        assert t.tail_mass == max(0.0, 1.0 - float(want.sum()))


def test_two_point_table_builds_under_the_cap():
    # 5.3e5 is past 2^19 but its table is under the 10^6-point cap
    t = exact.poisson_mixture_table([0.5, 0.5], [5.3e5, 1.0])
    assert t.x_max == cp_pmf(CompoundPoissonParams([5.3e5])).x_max < 10**6
    assert 0.0 <= t.tail_mass <= 1e-9
    assert t.tail_mass == max(0.0, 1.0 - float(t.pmf.sum()))
    assert abs(t.mean() - 0.5 * (5.3e5 + 1.0)) <= 1e-6 * 5.3e5


def nbinom_mpmath(r, scale, x_max):
    """P(W = x) for x = 0..x_max and P(W > x_max) of the negative binomial at
    the true (shape, scale), at 40 digits: p(0) = (1 + scale)^-r and
    p(x+1) = p(x) a (x + r) / (x + 1), a = scale / (1 + scale)."""
    with mp.workdps(40):
        r, s = mpf(r), mpf(scale)
        a = s / (1 + s)
        p = [mp.exp(-r * mp.log1p(s))]
        for x in range(x_max):
            p.append(p[-1] * a * (x + r) / (x + 1))
        return p, 1 - mp.fsum(p)


def check_nbinom_table(r, scale):
    """The gamma-mixed table against the 40-digit law: 1e-12 relative wherever
    the law exceeds 1e-290, the residual tail equal to the missing mass, the
    cut at the first doubling point from cp_pmf's bulk start where
    ``nbinom_tail_bound`` meets the target, and the true tail there within
    the target."""
    t = mixed_exact_pmf(MixedPoissonModel(GammaMixing(r, scale)))
    want, tail = nbinom_mpmath(r, scale, t.x_max)
    rel = [abs((t.pmf[x] - v) / v) for x, v in enumerate(want) if v > 1e-290]
    assert max(rel) <= 1e-12
    assert abs(1.0 - float(t.pmf.sum()) - t.tail_mass) <= 1e-15

    mean = r * scale
    x = max(16, math.ceil(mean + 10.0 * math.sqrt(mean * (1.0 + scale))) + 10)
    while x < t.x_max:
        assert nbinom_tail_bound(r, scale, x, float(want[x])) > TAIL_TARGET
        x *= 2
    assert x == t.x_max and nbinom_tail_bound(r, scale, x, float(want[x])) <= TAIL_TARGET
    assert tail <= TAIL_TARGET


def nbinom_tail_bound(r, scale, x, p_x):
    """The bound on P(W > x) that cuts the negative binomial table, from
    p(x): the ratio bound p(x) rho / (1 - rho), rho = a max(1, (x + r) / (x + 1)),
    and for r <= 1 also p(x) (x + 1) (log1p(scale) + r scale)."""
    a = scale / (1.0 + scale)
    rho = a * max(1.0, (x + r) / (x + 1.0))
    gap = (x + 1.0 - scale * max(0.0, r - 1.0)) / ((1.0 + scale) * (x + 1.0))
    factor = rho / gap if gap > 0.0 else math.inf
    if r <= 1.0:
        factor = min(factor, (x + 1.0) * (math.log1p(scale) + r * scale))
    return p_x * factor


@pytest.mark.parametrize("r", [0.01, 0.3, 2.0, 17.3, 60.0, 300.0])
@pytest.mark.parametrize("s", [1e-17, 0.01, 0.41, 0.9])
def test_negative_binomial_table_matches_scipy_stats(r, s):
    # the reference is the law at the true (shape, scale), not scipy.stats:
    # nbinom takes the success probability 1/(1 + s), whose rounding loses
    # about log10(1/s) digits; at s = 1e-17 it is 1, a point mass at 0,
    # while P(W = 1) is r 1e-17
    check_nbinom_table(r, s)


@pytest.mark.parametrize(
    "r, scale", [(1e-16, 1e12), (1e-14, 1e8), (1e-3, 1e6), (0.5, 100.0), (0.9, 1e3), (1.0, 50.0)]
)
def test_nbinom_tail_bound_holds_against_mpmath(r, scale):
    # the bound never falls below the 40-digit tail, at x from the first
    # entries to past the bulk, but for rounding at r = 1, where the ratio
    # bound is the geometric tail itself
    xs = [0, 1, 2, 5, 16, 100, 1000]
    want, _ = nbinom_mpmath(r, scale, max(xs))
    with mp.workdps(40):
        tails = [float(1 - mp.fsum(want[: x + 1])) for x in xs]
    bounds = [nbinom_tail_bound(r, scale, x, float(want[x])) for x in xs]
    for bound, tail in zip(bounds, tails):
        assert bound >= tail * (1.0 - 1e-15) > 0.0
    if (r, scale) == (1e-16, 1e12):
        # at x = 1: 5.5e-15 against 2.66e-15, where rho / (1 - rho) alone gives 1e-4
        assert_allclose(tails[1], 2.66e-15, rtol=5e-3)
        assert bounds[1] <= 5.6e-15


@pytest.mark.parametrize(
    "gamma",
    ["1e-14,1e8", "1e-14,1e9", "1e-14,1e10", "1e-14,1e11", "1e-16,1e10",
     "1e-16,1e11", "1e-16,1e12", "1e-18,1e12", "1e-18,1e13", "1e-20,1e14"],
)
def test_gamma_table_near_a_point_mass_with_a_huge_scale_is_cut(gamma):
    # the ratio bound alone ran these to the 10^6 cap; the 1/k decay of the
    # pmf for r <= 1 cuts them at the bulk start, within the target
    r, scale = map(float, gamma.split(","))
    t = exact.nbinom_table(r, scale)
    mean = r * scale
    assert t.x_max == max(16, math.ceil(mean + 10.0 * math.sqrt(mean * (1.0 + scale))) + 10)
    assert 0.0 <= t.tail_mass <= TAIL_TARGET


# ---------------------------------------------------------------------------
# independent sums


def test_sums_exact_single_component():
    t = sums_exact_pmf(IndependentSumModel([[0.3, 0.2, 0.5]]))
    assert_allclose(t.pmf, [0.3, 0.2, 0.5], atol=1e-15)


def test_sums_exact_convolution():
    m = IndependentSumModel([[0.5, 0.5], [0.25, 0.75]])
    t = sums_exact_pmf(m)
    # direct product enumeration
    want = np.zeros(3)
    for a, pa in enumerate((0.5, 0.5)):
        for b, pb in enumerate((0.25, 0.75)):
            want[a + b] += pa * pb
    assert_allclose(t.pmf, want, atol=1e-15)


def test_sums_exact_moments():
    m = IndependentSumModel([[0.7, 0.12, 0.0, 0.18]] * 5)
    t = sums_exact_pmf(m)
    assert_allclose(t.mean(), m.ew, rtol=1e-12)
    assert_allclose(t.var(), m.var_w, rtol=1e-10)
    assert_allclose(t.total_mass(), 1.0, atol=1e-12)


def test_sums_exact_components_summing_just_above_one(capsys):
    # each component is within the model's 1e-9 of 1, their product is not
    comp = [0.6 + 9e-10, 0.1, 0.3]
    t = sums_exact_pmf(IndependentSumModel([comp, comp]))
    assert_allclose(t.total_mass(), 1.0, atol=1e-15)
    c = [v / (1.0 + 9e-10) for v in comp]
    want = [sum(c[a] * c[k - a] for a in range(3) if 0 <= k - a < 3) for k in range(5)]
    assert_allclose(t.pmf, want, rtol=1e-15)
    comps = "0.6000000009,0.1,0.3;0.6000000009,0.1,0.3"
    for command in ("pmf", "verify"):
        assert main([command, "--model", "sums", "--components", comps]) == 0
    capsys.readouterr()


def test_sums_budget():
    big = [[0.5, 0.5]] * 8000  # support ~8000, cost ~ sum of partial supports
    with pytest.raises(BudgetExceededError):
        sums_exact_pmf(IndependentSumModel(big))


# ---------------------------------------------------------------------------
# distance


def test_distance_identity_and_symmetry():
    t = cp_pmf(CompoundPoissonParams([1.0, 0.5]))
    rep = distance(t, t)
    assert rep.d_k == 0.0
    assert rep.certified_slack == 2 * t.tail_mass
    a = cp_pmf(CompoundPoissonParams([1.0]))
    ab = distance(a, t)
    ba = distance(t, a)
    assert ab.d_k == ba.d_k
    assert ab.d_tv == ba.d_tv


def test_distance_triangle_inequality():
    a = cp_pmf(CompoundPoissonParams([1.0]))
    b = cp_pmf(CompoundPoissonParams([1.0, 0.2]))
    c = cp_pmf(CompoundPoissonParams([0.5, 0.4]))
    slack = 2 * (a.tail_mass + b.tail_mass + c.tail_mass)
    assert distance(a, c).d_k <= distance(a, b).d_k + distance(b, c).d_k + slack
    assert distance(a, c).d_tv <= distance(a, b).d_tv + distance(b, c).d_tv + slack


def test_distance_disjoint_supports():
    from cpstein import DistributionTable

    a = DistributionTable(pmf=np.array([1.0]), tail_mass=0.0)
    b = DistributionTable(pmf=np.array([0.0, 0.0, 1.0]), tail_mass=0.0)
    rep = distance(a, b)
    assert rep.d_k == 1.0
    assert rep.d_tv == 1.0
    assert rep.argmax_y == 0


def test_distance_known_pair_regression():
    # d_K and d_TV between Poisson(1) and the compound law with rates
    # (0.9, 0.05); frozen from a 40-digit arbitrary-precision evaluation
    a = cp_pmf(CompoundPoissonParams([1.0]))
    b = cp_pmf(CompoundPoissonParams([0.9, 0.05]))
    rep = distance(a, b)
    assert_allclose(rep.d_k, 0.01886158228305888532, rtol=0, atol=1e-11)
    assert_allclose(rep.d_tv, 0.027785074976314347023, rtol=0, atol=1e-11)
    assert rep.argmax_y == 0
    assert rep.mc_stderr == 0.0


def test_distance_reports_mc_stderr():
    m = ReliabilityModel(4, 2, 0.3)
    mc = reliability_mc_pmf(m, samples=30_000, seed=11)
    exact = reliability_exact_pmf(m)
    rep = distance(mc, exact)
    assert rep.mc_stderr > 0.0
    assert rep.d_k <= rep.d_tv + 1e-15


def test_distance_json_keys():
    a = cp_pmf(CompoundPoissonParams([1.0]))
    js = distance(a, a).to_json()
    assert set(js) == {"d_k", "d_tv", "argmax_y", "mc_stderr", "certified_slack"}
