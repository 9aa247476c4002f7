"""Tests for the application models and their approximant parameter maps."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpstein import cli, models
from cpstein import (
    GammaMixing,
    IndependentSumModel,
    MixedPoissonModel,
    ReliabilityModel,
    RunsModel,
    TwoPointMixing,
    bound_bx99,
    evaluate_all,
    mixed_cp_params,
    mixed_dk_bound,
    model_from_json,
    monotone_condition,
    regime_classify,
    reliability_cp_params,
    reliability_delta,
    reliability_dk_bound,
    runs_cp_params,
    runs_dk_bound,
    sums_cp_params,
    theta,
)


# ---------------------------------------------------------------------------
# runs model


def test_runs_model_validation():
    with pytest.raises(ValueError):
        RunsModel(n=2, p=0.5)
    with pytest.raises(ValueError):
        RunsModel(n=10, p=1.5)
    RunsModel(n=3, p=0.0)
    RunsModel(n=3, p=1.0)


def test_runs_theta_identity_exact_rationals():
    # lambda_1 = n p^2 (1-p)^2, lambda_2 = n p^3 (1-p), lambda_3 = n p^4/3
    # imply theta = (n p^2, 2 n p^3, 2 n p^4, 0); checked in exact arithmetic
    n, p = 50, Fraction(1, 5)
    lam1 = n * p**2 * (1 - p) ** 2
    lam2 = n * p**3 * (1 - p)
    lam3 = n * p**4 / 3
    theta0 = lam1 + 2 * lam2 + 3 * lam3
    theta1 = 2 * lam2 + 6 * lam3
    theta2 = 6 * lam3
    assert theta0 == n * p**2
    assert theta1 == 2 * n * p**3
    assert theta2 == 2 * n * p**4


def test_runs_theta_identity_float():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(3, 500))
        p = float(rng.uniform(0.01, 0.99))
        th = theta(runs_cp_params(RunsModel(n=n, p=p)), 3)
        want = (n * p**2, 2 * n * p**3, 2 * n * p**4, 0.0)
        for k in range(4):
            assert_allclose(th[k], want[k], rtol=1e-12, atol=1e-300)


def test_runs_monotone_boundary_at_one_third():
    # j lambda_j nonincreasing iff p <= 1/3
    n = 40
    assert monotone_condition(runs_cp_params(RunsModel(n=n, p=1 / 3 - 1e-6)))
    assert not monotone_condition(runs_cp_params(RunsModel(n=n, p=1 / 3 + 1e-6)))


def test_runs_bx_boundary_at_one_quarter():
    # theta_0 - 2 theta_1 = n p^2 (1 - 4p) > 0 iff p < 1/4
    n = 40
    below = theta(runs_cp_params(RunsModel(n=n, p=0.25 - 1e-6)), 1)
    above = theta(runs_cp_params(RunsModel(n=n, p=0.25 + 1e-6)), 1)
    assert bound_bx99(below).applicable
    assert not bound_bx99(above).applicable


def test_runs_dk_bound_formula():
    m = RunsModel(n=30, p=0.15)
    assert_allclose(runs_dk_bound(m, 0.5), 3 * 0.5 * 30 * 0.15**4, rtol=1e-15)
    assert runs_dk_bound(m, math.inf) == math.inf


# ---------------------------------------------------------------------------
# reliability model


def test_reliability_model_validation():
    with pytest.raises(ValueError):
        ReliabilityModel(n=4, k=1, q=0.3)
    with pytest.raises(ValueError):
        ReliabilityModel(n=3, k=4, q=0.3)
    with pytest.raises(ValueError):
        ReliabilityModel(n=4, k=2, q=1.5)
    ReliabilityModel(n=3, k=3, q=0.5)  # k = n allowed for the exact law


def test_reliability_params_requires_headroom():
    with pytest.raises(ValueError, match="n must exceed k"):
        reliability_cp_params(ReliabilityModel(n=3, k=2, q=0.3))


def reliability_rates_by_binomial_pmf(m):
    """The approximant rates as first written: one call of the binomial pmf,
    with its own powers of y and 1 - y, per term."""

    def binom_pmf(ell, size, y):
        if not 0 <= ell <= size:
            return 0.0
        return math.comb(size, ell) * y**ell * (1.0 - y) ** (size - ell)

    u = m.n - m.k - 1
    y = m.q**m.k
    rates = []
    for j in range(1, 6):
        pi1 = binom_pmf(j - 1, 2, y)
        pi2 = binom_pmf(j - 1, 3, y)
        pi3 = binom_pmf(j - 1, 4, y)
        rates.append(m.psi / j * (4.0 * pi1 + 4.0 * u * pi2 + u * u * pi3))
    return tuple(rates)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reliability_rates_bit_identical_to_binomial_pmf(k):
    qs = [0.0, 1.0, 0.5, 1e-3, 0.999] + list(np.random.default_rng(k).random(40))
    for n in (k + 2, k + 5, 30, 200):
        for q in qs:
            m = ReliabilityModel(n=n, k=k, q=float(q))
            expect = reliability_rates_by_binomial_pmf(m)
            if not any(expect):  # q = 0: no positive rate, so no approximant
                with pytest.raises(ValueError, match="at least one rate"):
                    reliability_cp_params(m)
                continue
            assert reliability_cp_params(m).rates == expect


def test_reliability_psi():
    m = ReliabilityModel(n=10, k=3, q=0.5)
    assert_allclose(m.psi, 0.5**9, rtol=1e-15)


def test_reliability_theta_closed_forms():
    # theta_0 = (n-k+1)^2 psi            theta_1 = 4 [2+3u+u^2] psi q^k
    # theta_2 = 4 [2+6u+3u^2] psi q^2k   theta_3 = 24 [u+u^2] psi q^3k
    rng = np.random.default_rng(22)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k + 2, 40))
        q = float(rng.uniform(0.05, 0.95))
        m = ReliabilityModel(n=n, k=k, q=q)
        th = theta(reliability_cp_params(m), 3)
        u = n - k - 1
        y = q**k
        psi = m.psi
        want = (
            (n - k + 1) ** 2 * psi,
            4 * (2 + 3 * u + u * u) * psi * y,
            4 * (2 + 6 * u + 3 * u * u) * psi * y * y,
            24 * (u + u * u) * psi * y**3,
        )
        for i in range(4):
            assert_allclose(th[i], want[i], rtol=1e-10, atol=1e-300)


def test_reliability_theta1_bounded_by_theta0():
    # theta_1/theta_0 = 4 (u+1)(u+2) y / (u+2)^2 <= 4 y
    for u in (1, 2, 5, 20):
        for y in (0.05, 0.2, 0.6):
            k = 2
            n = u + k + 1
            m = ReliabilityModel(n=n, k=k, q=math.sqrt(y))
            th = theta(reliability_cp_params(m), 1)
            assert th[1] <= 4 * (m.q**k) * th[0] * (1 + 1e-12)


def test_reliability_delta_matches_theta_combination():
    # delta = theta_0 - 2 theta_1 + 2 theta_2 - (4/3) theta_3, and also
    # psi [4a + 4ub + u^2 c] with a=(1-2y)^2, b=(1-2y)^3, c=(1-4y)(1-4y+8y^2)
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 2, 30))
        q = float(rng.uniform(0.1, 0.9))
        m = ReliabilityModel(n=n, k=k, q=q)
        th = theta(reliability_cp_params(m), 3)
        via_theta = th[0] - 2 * th[1] + 2 * th[2] - (4 / 3) * th[3]
        assert_allclose(reliability_delta(m), via_theta, rtol=1e-10, atol=1e-300)


def test_reliability_delta_positive_beyond_classical_threshold():
    # for q^k in (0.19, 0.25) the classical theta_0 > 2 theta_1 condition
    # fails for every u >= 2, yet delta stays positive
    for u in (2, 3, 8, 30):
        for y in (0.19, 0.2, 0.22, 0.2499):
            k = 2
            n = u + k + 1
            m = ReliabilityModel(n=n, k=k, q=math.sqrt(y))
            th = theta(reliability_cp_params(m), 1)
            assert th[0] - 2 * th[1] <= 0
            assert reliability_delta(m) > 0


def test_reliability_delta_example_value():
    # n=20, k=2, q^k=0.2: u=17, delta/psi = 4(0.36)+4*17(0.216)+289(0.104)
    m = ReliabilityModel(n=20, k=2, q=math.sqrt(0.2))
    assert_allclose(reliability_delta(m) / m.psi, 46.184, rtol=1e-3)


def test_reliability_dk_bound_k2_closed_form():
    # bracket for k=2 is (4k^2+12k-3) psi + 4 q^{k^2-1} = 37 psi + 4 q^3
    m = ReliabilityModel(n=4, k=2, q=0.3)
    psi = 0.3**4
    want = 0.5 * 9 * psi * (37 * psi + 4 * 0.3**3)
    assert_allclose(reliability_dk_bound(m, 0.5), want, rtol=1e-14)


class _CountedQs(list):
    """A list of q values that counts how often its values are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


@pytest.mark.parametrize(
    "k,count", [(100_000, 1), (1001, 1), (2, models.DK_BRACKET_BUDGET + 1), (4, 100_000)]
)
def test_reliability_dk_bracket_past_its_budget_is_refused_unread(k, count):
    # (k-1)^2 + (k-2) exponents at each q: past the budget the bracket is
    # refused before one q is read or one exponent formed
    qs = _CountedQs([0.5] * count)
    m = ReliabilityModel(n=10**6, k=k, q=0.5)
    with pytest.raises(models.BudgetExceededError, match="exceeds budget 1000000"):
        m.dk_columns(qs, [1.0] * count)
    assert qs.reads == 0


def test_reliability_dk_bracket_at_its_budget_is_summed(monkeypatch):
    # k = 3 has 5 exponents: 4 values make 20 terms, 5 values 25
    monkeypatch.setattr(models, "DK_BRACKET_BUDGET", 20)
    m = ReliabilityModel(n=30, k=3, q=0.5)
    assert m.dk_columns([0.5] * 4, [1.0] * 4) == [m.dk_bound(1.0)] * 4
    with pytest.raises(models.BudgetExceededError, match="25 terms exceeds budget 20 terms"):
        m.dk_columns([0.5] * 5, [1.0] * 5)


def test_reliability_sweep_past_the_bracket_budget_exits_3(capsys):
    argv = ["sweep", "--model", "reliability", "--n", "1000000", "--k", "100000",
            "--q-range", "1:1:1"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: reliability d_K bracket of 9999899999 terms exceeds budget 1000000 terms\n"
    )


# ---------------------------------------------------------------------------
# mixed Poisson model


def test_two_point_mixing_moments():
    mix = TwoPointMixing(a=2.5, b=3.5, w=0.5)
    assert_allclose(mix.nu, 3.0, rtol=1e-15)
    assert_allclose(mix.sigma2, 0.25, rtol=1e-15)
    assert_allclose(mix.abs3(), 0.125, rtol=1e-15)


def test_two_point_mixing_validation():
    with pytest.raises(ValueError):
        TwoPointMixing(a=-1.0, b=2.0, w=0.5)
    with pytest.raises(ValueError):
        TwoPointMixing(a=1.0, b=2.0, w=1.5)


def test_gamma_mixing_moments():
    mix = GammaMixing(shape=2.0, scale=0.5)
    assert_allclose(mix.nu, 1.0, rtol=1e-15)
    assert_allclose(mix.sigma2, 0.5, rtol=1e-15)
    # E|xi - nu|^3 for Gamma(2, 1/2), frozen from a 40-digit quadrature
    assert_allclose(mix.abs3(), 0.71801754912951422705, atol=1e-8)
    assert type(mix.abs3()) is float


@pytest.mark.parametrize("shape", [0.01, 0.3, 2.0, 17.3, 60.0, 1e4])
def test_gamma_abs3_closed_form_matches_quadrature(shape):
    # adaptive quadrature of |x - nu|^3 against the gamma density, split at nu
    from scipy import integrate, stats

    mix = GammaMixing(shape=shape, scale=1.0)
    dist = stats.gamma(shape)

    def integrand(x):
        return abs(x - shape) ** 3 * dist.pdf(x)

    left, _ = integrate.quad(integrand, 0.0, shape, epsabs=1e-10, epsrel=1e-12)
    right, _ = integrate.quad(integrand, shape, math.inf, epsabs=1e-10, epsrel=1e-12)
    got = mix.abs3()
    assert type(got) is float
    # the quadrature itself is ~2e-13 off at shape 0.01 and ~2.4e-12 at 1e4
    assert_allclose(got, left + right, rtol=1e-12 if shape <= 60.0 else 1e-10)
    assert_allclose(GammaMixing(shape, 0.41).abs3(), 0.41**3 * got, rtol=1e-14)


def gamma_abs3_mpmath(shape, scale):
    """E|xi - nu|^3 of Gamma(shape, scale) at 60 digits, from its closed form
    s^3 (2a + 4 (a^2 f_a(a) - a P(a+1, a))) with f_a(a) in logs."""
    from mpmath import mp, mpf

    with mp.workdps(60):
        a, s = mpf(shape), mpf(scale)
        f_a = mp.exp((a - 1) * mp.log(a) - a - mp.loggamma(a))
        p = 1 - mp.gammainc(a + 1, a, regularized=True)
        return float(s**3 * (2 * a + 4 * (a * a * f_a - a * p)))


@pytest.mark.parametrize(
    "shape", [1e-12, 1e-3, 0.05, 0.5, 3.0, 17.3, 999.9, 1e3, 1000.1, 1e5, 1e8]
)
def test_gamma_abs3_matches_mpmath(shape):
    # (s sqrt(a))^3 g(a) has only O(1) terms: a few roundings at any shape,
    # on either side of the switch from P(a+1, a)'s series to Temme's
    # expansion at a = 1000
    assert_allclose(GammaMixing(shape, 0.41).abs3(), gamma_abs3_mpmath(shape, 0.41), rtol=2e-15)


def test_gamma_abs3_at_the_largest_shapes_needs_no_power_of_the_shape():
    # Temme's expansion runs in 1/a, so a^k, which overflows, is never formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = 1e-154 * math.sqrt(1e308)
        want = 2.0 * math.sqrt(2.0 / math.pi) * t * t * t
        assert_allclose(GammaMixing(1e308, 1e-154).abs3(), want, rtol=1e-15)
        assert GammaMixing(1e308, 1.0).abs3() == math.inf


@pytest.mark.parametrize(
    "shape, scale", [(1e14, 1.0), (2.9e14, 0.41), (1e16, 1e-16), (1e100, 1e-50), (1e200, 1e-90)]
)
def test_gamma_abs3_at_large_shape_is_its_asymptote(shape, scale):
    # g(a) = 2 sqrt(2/pi) (1 + O(1/a)), where f_a(a) in logs cancelled terms
    # of size a log a (4e50 for 1.596 at shape 1e100, scale 1e-50)
    t = scale * math.sqrt(shape)
    want = 2.0 * math.sqrt(2.0 / math.pi) * t * t * t
    assert_allclose(GammaMixing(shape, scale).abs3(), want, rtol=1e-13)


def test_gamma_abs3_below_the_smallest_double_is_zero():
    # (1e-300 sqrt(1e200))^3 = 1e-600 rounds to 0, with no nan and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GammaMixing(1e200, 1e-300).abs3() == 0.0


def test_mixed_cp_params():
    m = MixedPoissonModel(TwoPointMixing(2.5, 3.5, 0.5))
    params = mixed_cp_params(m)
    assert_allclose(params.rates, (2.75, 0.125), rtol=1e-15)
    th = theta(params, 1)
    assert_allclose(th[0], m.nu, rtol=1e-14)  # mean matched
    assert_allclose(th[0] + th[1], m.nu + m.sigma2, rtol=1e-14)  # variance matched


def test_mixed_cp_params_undefined_when_overdispersed_past_double():
    # nu <= sigma^2 makes lambda_1 negative: no approximant of this form
    m = MixedPoissonModel(TwoPointMixing(0.5, 4.5, 0.5))
    assert m.sigma2 >= m.nu
    with pytest.raises(ValueError, match="approximant undefined"):
        mixed_cp_params(m)


def test_mixed_dk_bound():
    m = MixedPoissonModel(TwoPointMixing(2.5, 3.5, 0.5))
    assert_allclose(mixed_dk_bound(m, 1 / 3.75), 1.2 * 0.125 / 3.75, rtol=1e-14)


# ---------------------------------------------------------------------------
# independent sums model


def test_sums_model_validation():
    with pytest.raises(ValueError):
        IndependentSumModel([])
    with pytest.raises(ValueError):
        IndependentSumModel([[0.5, 0.4]])  # does not sum to 1
    with pytest.raises(ValueError):
        IndependentSumModel([[1.2, -0.2]])


def test_sums_moments():
    comp = [0.7, 0.12, 0.0, 0.18]
    m = IndependentSumModel([comp] * 5)
    ex = 0.12 + 3 * 0.18
    ex2 = 0.12 + 9 * 0.18
    assert_allclose(m.ew, 5 * ex, rtol=1e-12)
    assert_allclose(m.var_w, 5 * (ex2 - ex * ex), rtol=1e-12)


def test_sums_cp_params_identities():
    m = IndependentSumModel([[0.7, 0.12, 0.0, 0.18]] * 5)
    params = sums_cp_params(m)
    th = theta(params, 1)
    assert_allclose(th[0], m.ew, rtol=1e-12)
    assert_allclose(th[1], m.var_w - m.ew, rtol=1e-12)


def test_sums_cp_params_named_violations():
    under = IndependentSumModel([[0.5, 0.5]] * 3)  # Var W < E W
    with pytest.raises(ValueError, match=r"Var\(W\) >= E\(W\) violated"):
        sums_cp_params(under)
    heavy = IndependentSumModel([[0.8, 0.0, 0.0, 0.0, 0.2]] * 3)  # Var W > 2 E W
    with pytest.raises(ValueError, match=r"E\(W\) >= Var\(W\)/2 violated"):
        sums_cp_params(heavy)


# ---------------------------------------------------------------------------
# cross-cutting


def test_regime_classify():
    assert regime_classify(evaluate_all(runs_cp_params(RunsModel(50, 0.1)))) == "BX99_OK"
    assert regime_classify(evaluate_all(runs_cp_params(RunsModel(50, 0.3)))) == "COR3_OK"
    m = MixedPoissonModel(TwoPointMixing(0.4, 2.0, 0.5))
    assert regime_classify(evaluate_all(mixed_cp_params(m))) == "THM4_OK"
    # boundary case: theta_0 = 2 theta_1 exactly, no criterion applies
    from cpstein import ThetaVector, bound_cor3, bound_thm4

    th = ThetaVector([1.0, 0.5, 1.0, 0.0])
    assert regime_classify([bound_bx99(th), bound_cor3(th), bound_thm4(th)]) == "GENERAL_ONLY"


def test_cp_params_for_dispatch():
    models = [
        RunsModel(30, 0.2),
        ReliabilityModel(6, 2, 0.4),
        MixedPoissonModel(TwoPointMixing(2.0, 3.0, 0.5)),
        IndependentSumModel([[0.7, 0.12, 0.0, 0.18]] * 4),
    ]
    for m in models:
        params = m.cp_params()
        assert params.total_rate > 0


def test_model_json_roundtrip():
    models = [
        RunsModel(30, 0.2),
        ReliabilityModel(6, 2, 0.4),
        MixedPoissonModel(TwoPointMixing(2.0, 3.0, 0.5)),
        MixedPoissonModel(GammaMixing(2.0, 0.5)),
        IndependentSumModel([[0.7, 0.3], [0.5, 0.25, 0.25]]),
    ]
    for m in models:
        back = model_from_json(m.to_json())
        assert back.to_json() == m.to_json()


def test_model_interface_and_registry():
    from cpstein.models import MODELS

    models = [
        RunsModel(30, 0.2),
        ReliabilityModel(4, 2, 0.4),
        MixedPoissonModel(TwoPointMixing(2.0, 3.0, 0.5)),
        MixedPoissonModel(GammaMixing(2.0, 0.5)),
        IndependentSumModel([[0.7, 0.12, 0.0, 0.18]] * 4),
    ]
    assert list(MODELS) == ["runs", "reliability", "mixed", "sums"]
    law = {"exact": True, "samples": 10_000, "seed": 1}
    for m in models:
        assert MODELS[m.tag] is type(m)
        assert model_from_json(m.to_json()) == m
        table = m.exact_law(**{k: law[k] for k in m.law_keys})
        assert abs(table.total_mass() - 1.0) <= 1e-12
        dk = m.dk_bound(0.5)
        assert (dk is None) == isinstance(m, IndependentSumModel)
    assert runs_cp_params is RunsModel.cp_params
    with pytest.raises(ValueError, match="unknown model tag"):
        model_from_json({"model": "lattice"})
    with pytest.raises(ValueError, match="two_point takes 3 values"):
        model_from_json({"model": "mixed", "two_point": [1.0, 2.0]})
