"""Tests for the Stein-equation solver and empirical factor extraction."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from cpstein import (
    BudgetExceededError,
    CompoundPoissonParams,
    ConvergenceError,
    TruncationCapError,
    bound_general,
    bound_monotone,
    cp_pmf,
    empirical_factors,
    evaluate_all,
    interior_residuals,
    poisson_stein_forward,
    solve_stein,
    theta,
    verify,
)
from cpstein import oracle
from cpstein.oracle import default_x_max


def stein_lhs(params, sol, x):
    """x f(x) side of the equation rebuilt from the solution."""
    total = 0.0
    for j, rate in enumerate(params.rates, start=1):
        total += j * rate * sol.f[x + j]
    return total - x * sol.f[x]


# ---------------------------------------------------------------------------
# solve_stein


def test_solution_satisfies_equation_interior():
    params = CompoundPoissonParams([1.0, 0.5, 0.2])
    t = cp_pmf(params)
    for y in (0, 2, 5):
        sol = solve_stein(params, y, 80)
        eh_u = float(t.cdf()[y])
        assert_allclose(sol.eh_u, eh_u, atol=1e-12)
        for x in (1, 2, 10, 40, 77):
            h = 1.0 if x <= y else 0.0
            assert_allclose(stein_lhs(params, sol, x), h - eh_u, atol=1e-9)


def test_interior_residuals_small():
    params = CompoundPoissonParams([2.0, 0.3])
    sol = solve_stein(params, 3, 100)
    res = interior_residuals(sol)
    assert res.size == 100 - params.max_cluster_size
    assert np.max(res) <= 1e-9


def test_residual0_diagnostic_small():
    params = CompoundPoissonParams([0.5, 0.25])
    sol = solve_stein(params, 1, 80)
    assert sol.residual0 <= 1e-6


def test_solution_positive_and_bounded():
    # for h = I(. <= y) the solution is positive on x >= 1 and decays like
    # 1/x in the tail; the general exponential bound caps its sup norm
    params = CompoundPoissonParams([1.0])
    sol = solve_stein(params, 2, 120)
    assert sol.f[0] == 0.0  # placeholder, excluded from norms
    assert np.all(sol.f[1:100] > 0.0)
    assert np.max(np.abs(sol.f[1:])) <= bound_general(params).m0
    assert abs(sol.f[100]) < abs(sol.f[10])


def test_solve_stein_validation():
    params = CompoundPoissonParams([1.0])
    with pytest.raises(ValueError):
        solve_stein(params, -1, 50)
    with pytest.raises(ValueError):
        solve_stein(params, 2, 0)


# ---------------------------------------------------------------------------
# classical Poisson cross-check


def test_backward_matches_forward_poisson():
    for lam in (1.0, 8.0):
        params = CompoundPoissonParams([lam])
        for y in (0, 3, 10):
            sol = solve_stein(params, y, 80)
            fwd = poisson_stein_forward(lam, y, 80)
            interior = slice(1, 60)
            assert_allclose(sol.f[interior], fwd[interior], atol=1e-8)


def poisson_stein_ratio(lam, y, x_max):
    """The forward-sum Poisson solution f(x+1) = P(Z>y) R(x) / lam (x <= y),
    P(Z<=y) S(x) / lam (x > y), with R(x) = P(Z<=x)/P(Z=x) and
    S(x) = P(Z>x)/P(Z=x) summed as ratios of consecutive Poisson weights:
    sums of positive terms, with no exponential or logarithm to round."""
    f = np.zeros(x_max + 1)
    r = 0.0
    for x in range(min(y, x_max - 1) + 1):
        r = 1.0 + x / lam * r
        f[x + 1] = r * special.pdtrc(y, lam) / lam
    s = 0.0
    for x in range(4 * x_max, y, -1):
        s = lam / (x + 1) * (1.0 + s)
        if x < x_max:
            f[x + 1] = s * special.pdtr(y, lam) / lam
    return f


@pytest.mark.parametrize("lam", [10.0, 50.0, 200.0, 600.0])
def test_solve_stein_matches_poisson_closed_form(lam):
    # total rates at which a recursion from the zero tail alone blows up
    params = CompoundPoissonParams([lam])
    for y in (int(lam), int(lam + math.sqrt(lam))):
        x_max = default_x_max(params, y)
        sol = solve_stein(params, y, x_max)
        half = slice(1, x_max // 2 + 1)
        assert_allclose(sol.f[half], poisson_stein_ratio(lam, y, x_max)[half], rtol=1e-12)
        assert_allclose(sol.f[half], poisson_stein_forward(lam, y, x_max)[half], rtol=1e-12)
        assert sol.residual0 <= 1e-12
        assert np.max(np.abs(interior_residuals(sol))) <= 1e-12


def backward_stein(params, y, x_max):
    """f by the backward recursion from the zero tail at every x >= 1, with
    the equation at x = 0 left out: the same truncated solution in exact
    arithmetic, and stable at the small total rates it is used at."""
    jl = [j * r for j, r in enumerate(params.rates, start=1)]
    eh_u = float(cp_pmf(params).cdf()[y])
    f = [0.0] * (x_max + 1 + len(jl))
    for x in range(x_max, 0, -1):
        s = math.fsum(c * f[x + j] for j, c in enumerate(jl, start=1))
        f[x] = (s - ((x <= y) - eh_u)) / x
    return np.array(f[: x_max + 1])


# U on 2Z, 3Z and 2Z with lambda_1 = 0 and floor(theta_0) = 1, 2 and 3 off
# the lattice, and next to 2Z; pure size-J laws are J times a Poisson
LATTICE_RATES = [[0.0, 0.6], [0.0, 0.0, 0.8], [0.0, 1.6], [1e-14, 0.6]]


@pytest.mark.parametrize("rates", LATTICE_RATES)
def test_solve_stein_on_a_lattice(rates):
    params = CompoundPoissonParams(rates)
    J = params.max_cluster_size
    for y in range(6):
        x_max = default_x_max(params, y)
        sol = solve_stein(params, y, x_max)
        assert_allclose(sol.f, backward_stein(params, y, x_max), rtol=1e-12, atol=1e-15)
        assert sol.residual0 <= 1e-14
        if rates[:-1] == [0.0] * (J - 1):
            # on J Z, J f(J k) is the Poisson(lambda_J) solution at y // J
            fwd = poisson_stein_forward(rates[-1], y // J, x_max // (2 * J))
            assert_allclose(J * sol.f[J : x_max // 2 + 1 : J], fwd[1:], rtol=1e-12)


@pytest.mark.parametrize("rates", LATTICE_RATES)
def test_empirical_factors_on_a_lattice(rates):
    params = CompoundPoissonParams(rates)
    emp = empirical_factors(params)
    J = params.max_cluster_size
    hi = emp.x_max - J  # the interior of the reported truncation
    m0 = m1 = 0.0
    for y in range(emp.y_max + 1):
        f = backward_stein(params, y, emp.x_max)[1 : hi + 1]
        m0 = max(m0, np.max(np.abs(f)))
        m1 = max(m1, np.max(np.abs(np.diff(f))))
    assert_allclose([emp.m0_hat, emp.m1_hat], [m0, m1], rtol=1e-12)


@pytest.mark.parametrize(
    "lam, ys",
    [(0.3, (0,)), (5.0, (4,)), (37.5, (40,)), (200.0, (200, 214)), (600.0, (600, 624))],
    ids=["0.3", "5", "37.5", "200", "600"],
)
def test_forward_solution_matches_ratio_sum(lam, ys):
    # the reference sums ratios of consecutive Poisson weights; a front in
    # log-gamma form rounded to 4.9e-13 at lam = 200 and 1.4e-12 at 600
    for y in ys:
        x_max = default_x_max(CompoundPoissonParams([lam]), y)
        half = slice(1, x_max // 2 + 1)
        f = poisson_stein_forward(lam, y, x_max)
        assert f[0] == 0.0
        assert_allclose(f[half], poisson_stein_ratio(lam, y, x_max)[half], rtol=1e-13, atol=0)


def test_forward_solution_positive():
    # both branches of the split form are products of probabilities, so the
    # solution is positive wherever the Poisson law has effective mass
    f = poisson_stein_forward(5.0, 4, 60)
    assert f[0] == 0.0
    assert np.all(f[1:40] > 0.0)


# ---------------------------------------------------------------------------
# empirical factors


def test_empirical_factors_poisson8_within_published_bounds():
    params = CompoundPoissonParams([8.0])
    emp = empirical_factors(params)
    mono = bound_monotone(params)
    assert emp.m0_hat <= mono.m0
    assert emp.m1_hat <= mono.m1
    # and the factors are genuinely attained at this scale, not vacuous
    assert emp.m0_hat > 0.5 * mono.m0
    assert emp.m1_hat > 0.5 * mono.m1


def test_empirical_factors_ymax_covers_tail():
    params = CompoundPoissonParams([1.0, 0.5])
    emp = empirical_factors(params)
    cdf = cp_pmf(params).cdf()
    assert 1.0 - cdf[emp.y_max] <= 1e-8
    assert 1.0 - cdf[emp.y_max - 1] > 1e-8
    assert emp.x_max > emp.y_max


def test_empirical_factors_explicit_window():
    params = CompoundPoissonParams([1.0])
    a = empirical_factors(params)
    b = empirical_factors(params, y_max=a.y_max, x_max=a.x_max)
    assert a.m0_hat == b.m0_hat
    assert a.m1_hat == b.m1_hat


def test_empirical_factors_stable_under_further_doubling():
    params = CompoundPoissonParams([1.5, 0.25])
    a = empirical_factors(params)
    b = empirical_factors(params, y_max=a.y_max, x_max=2 * a.x_max)
    assert abs(a.m0_hat - b.m0_hat) <= 1e-7
    assert abs(a.m1_hat - b.m1_hat) <= 1e-7


def test_empirical_factors_grow_with_window():
    # sup over a larger threshold set cannot shrink
    params = CompoundPoissonParams([2.0, 0.5])
    small = empirical_factors(params)
    big = empirical_factors(params, y_max=small.y_max + 5)
    assert big.m0_hat >= small.m0_hat - 1e-12
    assert big.m1_hat >= small.m1_hat - 1e-12


def test_empirical_factors_rejects_uncovering_ymax():
    # a user-supplied y_max must still cover the law up to the tail target
    params = CompoundPoissonParams([2.0, 0.5])
    with pytest.raises(ValueError):
        empirical_factors(params, y_max=2)


def test_empirical_factors_unreachable_tolerance(monkeypatch):
    params = CompoundPoissonParams([0.3])
    monkeypatch.setattr(oracle, "STABILITY_TOL", -1.0)
    with pytest.raises(ConvergenceError, match="truncation not converged"):
        empirical_factors(params, x_max=4)


@pytest.mark.parametrize("rates", [[50.0], [200.0], [600.0], [200.0, 100.0, 30.0]])
def test_measured_factors_within_every_applicable_bound_at_large_rates(rates, monkeypatch):
    params = CompoundPoissonParams(rates)
    # the truncations at N and 2N give the same factors to the last bit
    monkeypatch.setattr(oracle, "STABILITY_TOL", 0.0)
    emp = empirical_factors(params)
    assert 0.0 < emp.m1_hat <= emp.m0_hat < 1.0
    applicable = [b for b in evaluate_all(params) if b.applicable]
    assert applicable
    for b in applicable:
        assert emp.m0_hat <= b.m0 and emp.m1_hat <= b.m1, b.method


def test_empirical_factors_raises_small_truncation():
    # x_max below the block the thresholds need is raised, not used
    params = CompoundPoissonParams([3.0])
    a = empirical_factors(params)
    b = empirical_factors(params, x_max=5)
    assert b.x_max > 2 * 5 and b.y_max == a.y_max
    assert_allclose([b.m0_hat, b.m1_hat], [a.m0_hat, a.m1_hat], rtol=1e-12)


def _seeded_law(seed, J):
    rng = random.Random(seed)
    return CompoundPoissonParams([rng.uniform(0.1, 6.0 / j) for j in range(1, J + 1)])


def _bits(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("J", [1, 2, 4])
def test_oracle_keywords_give_the_plain_call_bits(seed, J):
    # a table, a theta of higher order and an x_max that a caller passes in
    # are the ones each function forms itself
    params = _seeded_law(seed, J)
    y = random.Random(seed).randrange(0, 25)
    plain = empirical_factors(params)
    given = empirical_factors(params, table=cp_pmf(params), th=theta(params, 3))
    assert (plain.y_max, plain.x_max) == (given.y_max, given.x_max)
    assert _bits(plain.m0_hat, plain.m1_hat) == _bits(given.m0_hat, given.m1_hat)
    x_max = default_x_max(params, y)
    assert default_x_max(params, y, theta(params, 3)) == x_max
    a, b = solve_stein(params, y), solve_stein(params, y, x_max)
    assert (a.y, a.x_max) == (b.y, b.x_max) == (y, x_max)
    assert a.f.tobytes() == b.f.tobytes()
    assert _bits(a.eh_u, a.residual0) == _bits(b.eh_u, b.residual0)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_for_true_bounds():
    params = CompoundPoissonParams([8.0])
    rep = verify(params)
    assert rep["pass"] is True
    assert list(rep) == ["rates", "empirical", "checks", "pass"]
    assert [c["method"] for c in rep["checks"]] == [
        b.method for b in evaluate_all(params) if b.applicable
    ]
    for row in rep["checks"]:
        assert list(row) == [
            "method", "m0_bound", "m0_hat", "m1_bound", "m1_hat", "pass", "x_max", "y_max"
        ]
        assert row["pass"] is True
        assert row["m0_bound"] >= row["m0_hat"] and row["m1_bound"] >= row["m1_hat"]


def test_verify_general_large_slack():
    rep = verify(CompoundPoissonParams([0.5, 0.25]))
    (row,) = [c for c in rep["checks"] if c["method"] == "GENERAL"]
    assert row["pass"] is True
    assert row["m0_bound"] > 2.0 * row["m0_hat"]  # the exponential bound is far from sharp


def test_empirical_factors_block_budget(monkeypatch):
    # verify --rates 8 solves a block of M = 30 equations by y_max + 3 = 31
    # thresholds, 930 cells
    params = CompoundPoissonParams([8.0])
    emp = empirical_factors(params)
    monkeypatch.setattr(oracle, "ORACLE_CELL_BUDGET", 930)
    assert empirical_factors(params) == emp
    monkeypatch.setattr(oracle, "ORACLE_CELL_BUDGET", 929)
    with pytest.raises(BudgetExceededError, match=r"M = 30 equations by y_max \+ 3 = 31"):
        empirical_factors(params)


def test_empirical_factors_refuses_before_allocating():
    # the budget bounds the sweep's time: at total rate 1e5 its 1.0e10 cells
    # would take about four minutes
    with pytest.raises(BudgetExceededError, match=r"M = 101782 equations by y_max \+ 3 = 101783"):
        empirical_factors(CompoundPoissonParams([1e5]))
    assert oracle.ORACLE_CELL_BUDGET >= 5404 * 5405  # verify --rates 5000


@pytest.mark.parametrize(
    "x_max,digits",
    [(4_000_001, 7), (10**16 - 1, 16), (10**16, 17), (10**22 - 1, 22), (10**4300 + 19, 4301),
     (10**5000 - 1, 5000), (10**5000, 5001)],
    ids=lambda v: f"{v}" if v < 10**30 else f"{v.bit_length()}bits",
)
def test_stein_point_budget_names_the_digits_of_x_max(x_max, digits):
    # log10 rounds 10^16 - 1 up to 16, and str() refuses past 4300 digits
    with pytest.raises(BudgetExceededError, match=f"x_max of {digits} digits exceeds budget"):
        solve_stein(CompoundPoissonParams([1.0]), 0, x_max)


@pytest.mark.parametrize(
    "rates",
    [[8.0], [5.0, 1.0], [2.0, 0.0, 10.0], [0.0, 0.0, 10.0], [30.0, 10.0, 5.0],
     [1.0, 0.5, 0.2, 0.1], [75.479, 43.4247, 27.9043]],
)
def test_empirical_factors_same_bits_in_narrow_blocks(rates, monkeypatch):
    # eight columns a block (two g and six thresholds, then eight
    # thresholds) and two rows a chunk: every block and chunk edge is crossed
    params = CompoundPoissonParams(rates)
    emp = empirical_factors(params)
    monkeypatch.setattr(oracle, "BLOCK_COLUMNS", 8)
    assert empirical_factors(params) == emp


@pytest.mark.parametrize("columns, rows", [(8, 2), (60, 16)])  # rows a chunk of 7 columns
def test_sups_in_row_chunks_match_the_whole_block(columns, rows, monkeypatch):
    # the largest difference, f(rows + 1) - f(rows), lies across the edge of
    # the first two chunks; only their shared row lets it be seen
    monkeypatch.setattr(oracle, "BLOCK_COLUMNS", columns)
    rng = np.random.default_rng(rows)
    M = 40
    C, g = rng.standard_normal((M, 7)), rng.standard_normal(M)
    C[rows:, 3] += np.linspace(50.0, 0.0, M - rows)
    P, g_next = np.sort(rng.random(7)), float(rng.standard_normal())
    F = C - np.outer(g, P)
    across = np.abs(g_next * P + F[-1]).max()
    want = [np.abs(F).max(), max(np.abs(np.diff(F, axis=0)).max(), across)]
    acc = np.zeros(2)
    oracle._sups(C, P, g, g_next, acc)
    assert acc.tolist() == want
    assert want[1] == abs(F[rows, 3] - F[rows - 1, 3])
    acc = np.zeros(2)
    oracle._sups(C, P, g, 1e3, acc)  # now f(M + 1) - f(M) is the largest
    assert acc.tolist() == [want[0], np.abs(1e3 * P + F[-1]).max()]
    C[M // 2, 3] = np.nan  # a nan anywhere reaches both sups
    oracle._sups(C, P, g, g_next, acc)
    assert np.isnan(acc).all()


@pytest.mark.parametrize(
    "rates, bound_mib",
    [([75.479, 43.4247, 27.9043], 2.0), ([1000.0, 400.0, 100.0], 16.0)],
    ids=["386-columns", "2445-columns"],
)
def test_empirical_factors_memory_is_linear_in_the_block(rates, bound_mib):
    # one M x BLOCK_COLUMNS block and chunk buffers of a few rows: 1.6 and
    # 11.5 MiB traced, against 3.7 and 138 MiB for the whole sweep at once
    empirical_factors(CompoundPoissonParams([1.0, 0.5, 0.2]))  # lazy imports and caches
    tracemalloc.start()
    try:
        empirical_factors(CompoundPoissonParams(rates))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_default_x_max_past_the_float_range():
    with pytest.raises(TruncationCapError):
        default_x_max(CompoundPoissonParams([1e308]), 3)
