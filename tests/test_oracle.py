"""Tests for the Stein-equation solver and empirical factor extraction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from cpstein import (
    CompoundPoissonParams,
    ConvergenceError,
    EmpiricalFactors,
    bound_general,
    bound_monotone,
    cp_pmf,
    empirical_factors,
    interior_residuals,
    poisson_stein_forward,
    solve_stein,
    verify_bound,
)


def stein_lhs(params, sol, x):
    """x f(x) side of the equation rebuilt from the solution."""
    total = 0.0
    for j in range(1, params.max_cluster_size + 1):
        total += j * params.rate(j) * sol.f[x + j]
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


def test_forward_solution_bit_identical_to_scipy_stats():
    # the split form as first written with scipy.stats; pdtr/pdtrc are the
    # same functions, so every entry must agree to the last bit
    for lam, y, x_max in ((0.3, 0, 30), (5.0, 4, 60), (37.5, 40, 120)):
        x = np.arange(0, x_max, dtype=float)
        log_front = special.gammaln(x + 1.0) - (x + 1.0) * math.log(lam) + lam
        p_gt = stats.poisson.sf(y, lam)
        p_le = stats.poisson.cdf(y, lam)
        branch = np.where(
            x <= y, p_gt * stats.poisson.cdf(x, lam), p_le * stats.poisson.sf(x, lam)
        )
        with np.errstate(divide="ignore"):
            want = np.where(branch > 0.0, np.exp(log_front + np.log(branch)), 0.0)
        f = poisson_stein_forward(lam, y, x_max)
        assert f[0] == 0.0
        assert np.array_equal(f[1:], want)


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


def test_empirical_factors_unreachable_tolerance():
    params = CompoundPoissonParams([0.3])
    with pytest.raises(ConvergenceError, match="truncation not converged"):
        empirical_factors(params, x_max=4, stability_tol=-1.0)


# ---------------------------------------------------------------------------
# verify_bound


def test_verify_bound_passes_for_true_bounds():
    params = CompoundPoissonParams([8.0])
    rep = verify_bound(params, bound_monotone(params))
    assert rep.passed
    assert rep.m0_slack >= 1.0 and rep.m1_slack >= 1.0
    js = rep.to_json()
    assert js["pass"] is True
    assert set(js) == {
        "method",
        "m0_bound",
        "m0_hat",
        "m1_bound",
        "m1_hat",
        "pass",
        "x_max",
        "y_max",
    }


def test_verify_bound_rejects_inapplicable():
    params = CompoundPoissonParams([0.5, 0.3])
    with pytest.raises(ValueError):
        verify_bound(params, bound_monotone(params))


def test_verify_bound_general_large_slack():
    params = CompoundPoissonParams([0.5, 0.25])
    rep = verify_bound(params, bound_general(params))
    assert rep.passed
    assert rep.m0_slack > 2.0  # the exponential bound is far from sharp


def test_verify_bound_uses_given_factors():
    params = CompoundPoissonParams([1.0, 0.2])
    b = bound_general(params)
    emp = empirical_factors(params)
    assert verify_bound(params, b, emp=emp) == verify_bound(params, b)
    fake = EmpiricalFactors(m0_hat=b.m0 * 2.0, m1_hat=0.0, y_max=3, x_max=7)
    rep = verify_bound(params, b, emp=fake)
    assert not rep.passed
    assert (rep.m0_hat, rep.y_max, rep.x_max) == (b.m0 * 2.0, 3, 7)
