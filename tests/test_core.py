"""Tests for compound Poisson parameters, theta functionals, the pmf and its tail bound."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpstein import core
from cpstein import (
    CompoundPoissonParams,
    DistributionTable,
    ThetaVector,
    TruncationCapError,
    chernoff_tail,
    cp_pmf,
    monotone_condition,
    theta,
)


def convolution_pmf(rates, x_max, n_clusters=80):
    """Independent route to the compound Poisson pmf: Poisson-weighted
    convolution powers of the cluster-size law, no recursion involved."""
    lam = math.fsum(rates)
    mu = np.zeros(len(rates) + 1)
    mu[1:] = np.asarray(rates) / lam
    pmf = np.zeros(x_max + 1)
    power = np.array([1.0])  # mu^{*0}
    weight = math.exp(-lam)
    for n in range(n_clusters + 1):
        take = min(len(power), x_max + 1)
        pmf[:take] += weight * power[:take]
        power = np.convolve(power, mu)
        weight *= lam / (n + 1)
    return pmf


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        CompoundPoissonParams([])
    with pytest.raises(ValueError):
        CompoundPoissonParams([0.5, -0.1])
    with pytest.raises(ValueError):
        CompoundPoissonParams([0.0, 0.0])
    with pytest.raises(ValueError):
        CompoundPoissonParams([math.inf])


def test_params_accessors():
    p = CompoundPoissonParams([0.5, 0.0, 0.25])
    assert p.max_cluster_size == 3
    assert p.total_rate == 0.75
    assert p.rates == (0.5, 0.0, 0.25)


# ---------------------------------------------------------------------------
# theta functionals


def test_theta_single_size_cluster():
    th = theta(CompoundPoissonParams([5.0]), 2)
    assert (th[0], th[1], th[2]) == (5.0, 0.0, 0.0)


def test_theta_two_sizes():
    th = theta(CompoundPoissonParams([1.0, 1.0]), 2)
    assert (th[0], th[1], th[2]) == (3.0, 2.0, 0.0)


def test_theta_falling_factorial_definition():
    # theta_k = sum_j j(j-1)...(j-k) lambda_j with k+1 factors
    rates = [0.3, 0.7, 0.2, 0.9]
    th = theta(CompoundPoissonParams(rates), 4)
    for k in range(5):
        expect = 0.0
        for j, lam in enumerate(rates, start=1):
            prod = 1.0
            for i in range(k + 1):
                prod *= j - i
            expect += prod * lam
        assert_allclose(th[k], expect, rtol=1e-14)
    # vanishes from order J on: the product then always contains factor 0
    assert th[4] == 0.0


def theta_by_triple_loop(rates, K):
    """theta as first written: for each k a fresh sum over j of the falling
    factorial formed factor by factor, zero rates included."""
    values = []
    for k in range(K + 1):
        total = 0.0
        for j, lam_j in enumerate(rates, start=1):
            if j <= k:
                continue
            ff = 1.0
            for i in range(k + 1):
                ff *= j - i
            total += ff * lam_j
        values.append(total)
    return values


@pytest.mark.parametrize("J", range(1, 9))
def test_theta_bit_identical_to_triple_loop(J):
    rng = np.random.default_rng(J)
    draws = [
        rng.exponential(1.0, J),
        rng.exponential(1.0, J) * 10.0 ** rng.uniform(-300, 300, J),
    ]
    zeros = rng.exponential(1.0, J)
    zeros[rng.random(J) < 0.5] = 0.0  # interior zero rates
    zeros[-1] = 0.0  # and a trailing one
    draws.append(zeros)
    for rates in draws:
        if not rates.any():
            rates[0] = 1.5
        params = CompoundPoissonParams(rates)
        for K in range(6):
            assert list(theta(params, K).values) == theta_by_triple_loop(params.rates, K)


def test_monotone_condition_matches_definition():
    rng = np.random.default_rng(3)
    for J in range(1, 7):
        for _ in range(50):
            rates = rng.choice([0.0, 0.5, 1.0, 2.0], J)
            rates[0] = 1.0
            params = CompoundPoissonParams(rates)
            padded = (*params.rates, 0.0)  # lambda_{J+1} = 0
            expect = all(
                j * padded[j - 1] >= (j + 1) * padded[j] for j in range(1, J + 1)
            )
            assert monotone_condition(params) == expect


def test_theta_vector_access_errors():
    th = theta(CompoundPoissonParams([1.0]), 1)
    assert th.order == 1
    with pytest.raises(IndexError):
        th[2]
    with pytest.raises(ValueError, match="theta order insufficient"):
        th.require(2)
    th.require(1)


# ---------------------------------------------------------------------------
# pmf recursion


def test_pmf_small_closed_values():
    # rates (1/2, 1/4): P(U=0) = e^{-3/4}, P(U=1) = (1/2) e^{-3/4},
    # P(U=2) = (1/2 * 1/4 + 1/4) e^{-3/4} = (3/8) e^{-3/4}
    t = cp_pmf(CompoundPoissonParams([0.5, 0.25]))
    base = math.exp(-0.75)
    assert_allclose(t.pmf[0], base, rtol=1e-14)
    assert_allclose(t.pmf[1], 0.5 * base, rtol=1e-14)
    assert_allclose(t.pmf[2], 0.375 * base, rtol=1e-14)


def test_pmf_matches_convolution_oracle():
    for rates in ([0.5, 0.25], [1.0, 0.3, 0.7], [2.0], [0.1, 0.0, 0.0, 1.2]):
        t = cp_pmf(CompoundPoissonParams(rates))
        oracle = convolution_pmf(rates, min(t.x_max, 60))
        assert_allclose(t.pmf[: len(oracle)], oracle, atol=1e-13)


def test_pmf_poisson_case_matches_scipy():
    from scipy import stats

    t = cp_pmf(CompoundPoissonParams([3.5]))
    x = np.arange(t.x_max + 1)
    assert_allclose(t.pmf, stats.poisson.pmf(x, 3.5), rtol=1e-12, atol=1e-300)


def test_pmf_mass_and_moments():
    p = CompoundPoissonParams([1.0, 0.5, 0.2])
    t = cp_pmf(p)
    th = theta(p, 1)
    assert t.tail_mass <= 1e-12
    assert_allclose(t.total_mass() + t.tail_mass, 1.0, rtol=0, atol=1e-15)
    assert_allclose(t.mean(), th[0], atol=1e-9)
    assert_allclose(t.var(), th[0] + th[1], atol=1e-8)


def test_pmf_truncation_cap(monkeypatch):
    monkeypatch.setattr(core, "X_CAP", 100)
    with pytest.raises(TruncationCapError, match="truncation cap exceeded"):
        cp_pmf(CompoundPoissonParams([200.0]))


def plain_recursion_pmf(rates, x_max):
    """The one-step recursion from P(U=0) = e^{-lambda}, as first written."""
    J = len(rates)
    jlam = [j * rates[j - 1] for j in range(1, J + 1)]
    p = np.zeros(x_max + 1)
    p[0] = math.exp(-math.fsum(rates))
    for n in range(1, x_max + 1):
        acc = 0.0
        for j in range(1, min(n, J) + 1):
            acc += jlam[j - 1] * p[n - j]
        p[n] = acc / n
    return p


@pytest.mark.parametrize(
    "rates", [[0.5, 0.25], [8.0], [300.0, 100.0, 50.0], [699.9, 0.1], [700.0]]
)
def test_pmf_bit_identical_to_plain_recursion_up_to_700(rates):
    t = cp_pmf(CompoundPoissonParams(rates))
    assert np.array_equal(t.pmf, plain_recursion_pmf(rates, t.x_max))


@pytest.mark.parametrize("rates", [[740.0], [800.0], [2000.0], [600.0, 150.0, 20.0]])
def test_pmf_large_total_rate_mass_and_mean(rates):
    # e^{-lambda} is subnormal at 740 and 0 from about 746 on
    p = CompoundPoissonParams(rates)
    t = cp_pmf(p)
    assert abs(float(t.pmf.sum()) - 1.0) <= 1e-12
    assert t.tail_mass <= 1e-12
    th = theta(p, 1)
    assert_allclose(t.mean(), th[0], rtol=1e-9)
    assert_allclose(t.var(), th[0] + th[1], rtol=1e-8)  # Var(U) = theta_0 + theta_1


@pytest.mark.parametrize("lam", [50.0, 700.0, 5e3, 5e4, 5e5])
def test_poisson_pmf_matches_mpmath_over_the_accepted_range(lam):
    # Past lambda = 700 the error is one common factor per rescale window,
    # from exp(log p + d log R - shift), so it grows like eps * lambda; the
    # residual tail 1 - sum(pmf) absorbs what the table gains or loses
    mpmath = pytest.importorskip("mpmath")
    t = cp_pmf(CompoundPoissonParams([lam]))
    sd = math.sqrt(lam)
    xs = np.unique(np.linspace(max(0.0, lam - 6.0 * sd), lam + 6.0 * sd, 200).round())
    with mpmath.workdps(40):
        big = mpmath.mpf(lam)
        want = [mpmath.exp(x * mpmath.log(big) - big - mpmath.loggamma(x + 1)) for x in xs]
        rel = max(abs((mpmath.mpf(t.pmf[int(x)]) - w) / w) for x, w in zip(xs, want))
    assert rel <= 2e-16 * max(lam, 50.0)
    assert t.tail_mass == 1.0 - float(t.pmf.sum())


def test_pmf_large_total_rate_matches_poisson_components():
    # U = N_1 + 2 N_2 with independent Poisson counts: an independent route
    from scipy import stats

    t = cp_pmf(CompoundPoissonParams([900.0, 100.0]))
    x = np.arange(t.x_max + 1)
    want = np.zeros(t.x_max + 1)
    for k in range(t.x_max // 2 + 1):
        want[2 * k :] += stats.poisson.pmf(k, 100.0) * stats.poisson.pmf(x[: x.size - 2 * k], 900.0)
    big = want > 1e-200
    assert_allclose(t.pmf[big], want[big], rtol=1e-9)


def test_pmf_mass_shortfall_raises(monkeypatch):
    # started from e^{-800}, which is 0, every entry is 0: refuse, do not print it
    monkeypatch.setattr(core, "LOG_P0_FLOOR", math.inf)
    with pytest.raises(TruncationCapError, match="mass target"):
        cp_pmf(CompoundPoissonParams([800.0]))


def test_table_rejects_mass_above_one():
    with pytest.raises(ValueError, match="total mass"):
        DistributionTable(pmf=np.array([0.6, 0.4 + 2e-9]), tail_mass=0.0)
    with pytest.raises(ValueError, match="total mass"):
        DistributionTable(pmf=np.array([0.6, 0.4]), tail_mass=1e-8)
    # rounding within 1e-9 is allowed
    DistributionTable(pmf=np.array([0.6, 0.4 + 5e-10]), tail_mass=0.0)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_entries_and_tail(entry):
    with pytest.raises(ValueError, match="finite"):
        DistributionTable(pmf=np.array([1.0, entry, 0.0]), tail_mass=0.0)
    with pytest.raises(ValueError, match="finite"):
        DistributionTable(pmf=np.array([entry]), tail_mass=0.0)
    with pytest.raises(ValueError, match="finite"):
        DistributionTable(pmf=np.array([0.5]), tail_mass=entry)


# ---------------------------------------------------------------------------
# Chernoff tail


def test_chernoff_tail_dominates_exact_tail():
    p = CompoundPoissonParams([1.0, 0.5])
    t = cp_pmf(p)
    cdf = t.cdf()
    for x in (5, 10, 20):
        exact = 1.0 - cdf[x]
        assert chernoff_tail(p, x) >= exact
    assert chernoff_tail(p, 0) <= 1.0


def test_chernoff_tail_decreasing():
    p = CompoundPoissonParams([2.0, 0.3])
    vals = [chernoff_tail(p, x) for x in (5, 10, 20, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# monotone condition


def test_monotone_condition():
    assert monotone_condition(CompoundPoissonParams([1.0, 0.5]))  # j*lam: 1, 1
    assert monotone_condition(CompoundPoissonParams([3.0]))
    assert not monotone_condition(CompoundPoissonParams([0.5, 0.3]))  # 0.5 < 0.6
    assert not monotone_condition(CompoundPoissonParams([1.0, 0.5 + 1e-12]))
