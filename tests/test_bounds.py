"""Tests for the criterion function g_k, its infima, and the factor bounds."""

from __future__ import annotations

import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpstein import (
    CompoundPoissonParams,
    DeltaResult,
    SteinFactorBound,
    ThetaVector,
    best_bound,
    best_of,
    bound_bx99,
    bound_cor3,
    bound_general,
    bound_lemma_c,
    bound_monotone,
    bound_thm2,
    bound_thm4,
    delta_k,
    delta_k_grid,
    evaluate_all,
    g_k_eval,
    g_k_grid,
    regime_classify,
    theta,
)
from cpstein.bounds import _cor3_delta, _evaluate_columns, _factors_from_delta, log_plus
from cpstein.models import RunsModel


def g3_closed(th, phi, p):
    """Independent closed-form route for the order-3 criterion function."""
    c = math.cos(phi)
    return (
        th[0]
        + c * (2.0 - p) * th[1]
        + (1.0 / 3.0) * (c - 1.0) * (2.0 * c + 1.0) * (p * p - 3.0 * p + 3.0) * th[2]
        - (4.0 / 3.0) * th[3]
    )


def g_naive(th, k, phi, p):
    """Direct complex-arithmetic transcription of the definition, valid for
    cos(phi) != 1; an independent route to the vectorized evaluator."""
    z = complex(math.cos(phi), math.sin(phi)) - 1.0
    total = 0.0
    zj = 1.0 + 0.0j
    for j in range(1, k + 1):
        zj *= z
        if p == 0.0:
            pfac = float(j)
        else:
            pfac = (1.0 - (1.0 - p) ** j) / p
        total += zj.real / math.factorial(j) * pfac * th[j - 1]
    return total / (math.cos(phi) - 1.0) - 2.0**k / math.factorial(k) * th[k]


def random_theta(rng, jmax=4):
    lam = rng.uniform(0.05, 2.0, size=jmax)
    return theta(CompoundPoissonParams(lam), max(3, jmax))


# ---------------------------------------------------------------------------
# g_k evaluation


def test_log_plus():
    assert log_plus(0.5) == 0.0
    assert log_plus(1.0) == 0.0
    assert_allclose(log_plus(math.e), 1.0, rtol=1e-15)


def test_g_k_eval_matches_naive_definition():
    rng = np.random.default_rng(11)
    for _ in range(200):
        th = random_theta(rng)
        k = int(rng.integers(1, 5))
        phi = float(rng.uniform(0.05, math.pi))
        p = float(rng.uniform(0.0, 1.0))
        got = g_k_eval(th, k, phi, p).value
        assert_allclose(got, g_naive(th, k, phi, p), rtol=1e-11, atol=1e-11)


def test_g3_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        th = random_theta(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        p = float(rng.uniform(0.0, 1.0))
        got = g_k_eval(th, 3, phi, p).value
        want = g3_closed(th, phi, p)
        assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_g_k_even_in_phi():
    rng = np.random.default_rng(13)
    for _ in range(50):
        th = random_theta(rng)
        k = int(rng.integers(1, 5))
        phi = float(rng.uniform(0.0, math.pi))
        p = float(rng.uniform(0.0, 1.0))
        assert g_k_eval(th, k, phi, p).value == g_k_eval(th, k, -phi, p).value


def test_g_k_phi_zero_limit():
    # At phi = 0 the evaluator substitutes the analytic limit of each ratio
    # Re[(e^{i phi}-1)^j]/(cos phi - 1): 1 for j=1, 2 cos phi for j=2, 0 beyond.
    rng = np.random.default_rng(14)
    for _ in range(50):
        th = random_theta(rng)
        p = float(rng.uniform(0.0, 1.0))
        got = g_k_eval(th, 3, 0.0, p).value
        want = g3_closed(th, 0.0, p)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # continuity: tiny phi approaches the limit
        near = g_k_eval(th, 3, 1e-9, p).value
        assert_allclose(near, want, rtol=1e-6, atol=1e-6)


def test_g_k_eval_validates_domain():
    th = ThetaVector([1.0, 0.2, 0.0, 0.0])
    with pytest.raises(ValueError):
        g_k_eval(th, 0, 0.5, 0.5)
    with pytest.raises(ValueError):
        g_k_eval(th, 3, 4.0, 0.5)
    with pytest.raises(ValueError):
        g_k_eval(th, 3, 0.5, 1.5)
    with pytest.raises(ValueError, match="theta order insufficient"):
        g_k_eval(ThetaVector([1.0, 0.2]), 3, 0.5, 0.5)


def test_g_k_grid_matches_pointwise_eval():
    th = ThetaVector([1.2, 0.4, 0.1, 0.0])
    phis = np.linspace(0.0, math.pi, 7)
    ps = np.linspace(0.0, 1.0, 5)
    grid = g_k_grid(th, 3, phis, ps)
    assert grid.shape == (7, 5)
    for i, phi in enumerate(phis):
        for j, p in enumerate(ps):
            assert_allclose(grid[i, j], g_k_eval(th, 3, phi, p).value, rtol=1e-12)


# ---------------------------------------------------------------------------
# delta_k


def test_delta_1_constant_in_phi_p():
    # g_1 is identically theta_0 - 2 theta_1
    rng = np.random.default_rng(15)
    th = random_theta(rng)
    want = th[0] - 2.0 * th[1]
    for phi in np.linspace(0.0, math.pi, 9):
        for p in np.linspace(0.0, 1.0, 5):
            assert_allclose(g_k_eval(th, 1, phi, p).value, want, rtol=1e-12)
    dr = delta_k(th, 1)
    assert dr.certified
    assert_allclose(dr.delta, want, rtol=1e-14)
    gr = delta_k_grid(th, 1)
    assert_allclose(gr.delta, want, rtol=1e-12)


def test_delta_2_corner_scan_equals_grid():
    rng = np.random.default_rng(16)
    for _ in range(10):
        th = random_theta(rng)
        dr = delta_k(th, 2)
        gr = delta_k_grid(th, 2)
        assert dr.certified
        assert_allclose(dr.delta, gr.delta, rtol=1e-8, atol=1e-10)


def test_delta_3_closed_form_when_clusters_small():
    # theta_2 < 2 theta_1 branch: closed form theta_0 - 2 theta_1 + 2 theta_2
    # - (4/3) theta_3, reported as certified
    th = ThetaVector([1.0, 0.2, 0.02, 0.0])
    dr = delta_k(th, 3)
    assert dr.certified
    assert_allclose(dr.delta, 1.0 - 0.4 + 0.04, rtol=1e-14)


def test_delta_3_grid_branch_when_clusters_large():
    # theta_2 >= 2 theta_1 forces the grid route (certified=False)
    th = theta(CompoundPoissonParams([0.0, 0.0, 0.0, 0.0, 1.0]), 3)
    assert th[2] >= 2.0 * th[1]
    dr = delta_k(th, 3)
    assert not dr.certified
    gr = delta_k_grid(th, 3)
    assert_allclose(dr.delta, gr.delta, rtol=1e-10)


def test_delta_k_poisson_case_is_theta0():
    # single-size clusters: every theta_k vanishes for k >= 1 and g_k is
    # identically theta_0, so the infimum equals theta_0 at every order
    # (every Bernstein coefficient is theta_0, so both ends are exact)
    th = theta(CompoundPoissonParams([1.7]), 6)
    for k in range(1, 7):
        gr = delta_k_grid(th, k)
        assert gr.lower == gr.delta == 1.7


def test_delta_grid_argmin_attains_value():
    rng = np.random.default_rng(17)
    th = random_theta(rng)
    gr = delta_k_grid(th, 3)
    phi, p = gr.argmin
    assert_allclose(g_k_eval(th, 3, phi, p).value, gr.delta, rtol=1e-9, atol=1e-12)


def test_delta_3_grid_can_undercut_closed_form():
    # Regression pin: the order-3 closed form is the value at (phi, p) =
    # (pi, 0), but the true infimum of g_3 can be smaller (attained at an
    # interior phi) once theta_2 > (2/5) theta_1; the closed-form route is
    # kept for the theta_2 < 2 theta_1 branch by design, and the honest grid
    # route documents the gap.  Point chosen with theta_2 < 2 theta_1 and a
    # large gap; values frozen from this implementation's grid.
    th = ThetaVector([2.24036051, 1.44003286, 1.52745556, 0.38508633])
    assert th[2] < 2.0 * th[1]
    closed = th[0] - 2.0 * th[1] + 2.0 * th[2] - (4.0 / 3.0) * th[3]
    assert_allclose(closed, 1.9017574699999997, rtol=1e-12)
    gr = delta_k_grid(th, 3)
    assert gr.delta < 0.1 * closed
    assert_allclose(gr.delta, 0.04973413078002553, rtol=1e-6)
    assert 0.0 < gr.argmin[0] < math.pi  # interior minimizer in phi
    # the boundary-vertex criterion: interior minimizer appears only when
    # theta_2 > (2/5) theta_1
    assert th[2] > 0.4 * th[1]


def test_delta_3_closed_form_is_true_infimum_for_small_ratio():
    # with theta_2 <= (2/5) theta_1 the p = 0 slice has no interior vertex
    # and the grid infimum agrees with the closed form
    rng = np.random.default_rng(18)
    for _ in range(5):
        lam = rng.uniform(0.1, 1.0, size=3)
        lam[2] = min(lam[2], 0.05 * lam[1])  # keep theta_2/theta_1 small
        th = theta(CompoundPoissonParams(lam), 3)
        assert th[2] <= 0.4 * th[1]
        closed = th[0] - 2.0 * th[1] + 2.0 * th[2] - (4.0 / 3.0) * th[3]
        gr = delta_k_grid(th, 3)
        assert_allclose(gr.delta, closed, rtol=1e-8, atol=1e-10)


def test_enclosure_brackets_dense_grid_minimum():
    # the certified lower end never exceeds g_k anywhere on a dense grid, and
    # the enclosure closes to 1e-8 max(1, |delta|)
    rng = np.random.default_rng(19)
    phis = np.linspace(0.0, math.pi, 257)
    ps = np.linspace(0.0, 1.0, 65)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        lam = rng.uniform(0.0, 2.0, size=int(rng.integers(1, 7)))
        th = theta(CompoundPoissonParams(lam), k)
        gr = delta_k_grid(th, k)
        assert gr.lower <= g_k_grid(th, k, phis, ps).min()
        assert gr.lower <= gr.delta
        assert gr.delta - gr.lower <= 1e-8 * max(1.0, abs(gr.delta))


@pytest.mark.parametrize("n, want", [(50, -0.056953125), (200, -0.2278125)])
def test_enclosure_runs_p045_infimum(n, want):
    # the interior minimum at p = 0 that the order-3 closed form misses
    th = theta(RunsModel(n, 0.45).cp_params(), 3)
    gr = delta_k_grid(th, 3)
    assert abs(gr.delta - want) <= 1e-9
    assert gr.lower <= want <= gr.delta


def test_enclosure_brackets_runs_order3_infimum():
    # for runs, theta = (n p^2, 2 n p^3, 2 n p^4, 0) and inf g_3 has a closed
    # form: the corner value n p^2 (1 - 2p)^2 up to p = 2/5, and past it
    # n p^3 (4 - 9p)/4 at the vertex cos phi* = (p - 2)/(4p) of the p = 0
    # edge, which changes sign at p = 4/9; the tolerance covers the
    # formula's own rounding, relative to theta_0
    ps = [i / 100 for i in range(1, 100)]
    ps += [math.nextafter(0.4, 0.0), math.nextafter(0.4, 1.0), 4 / 9 - 1e-6, 4 / 9, 4 / 9 + 1e-6]
    for n in (3, 50, 200, 1000):
        for p in ps:
            th = theta(RunsModel(n, p).cp_params(), 3)
            gr = delta_k_grid(th, 3)
            inf = n * p**2 * (1.0 - 2.0 * p) ** 2 if p <= 0.4 else n * p**3 * (4.0 - 9.0 * p) / 4.0
            tol = 1e-12 * th[0]
            assert gr.lower - tol <= inf <= gr.delta + tol, (n, p)


def test_enclosure_huge_theta_terminates():
    # theta of a sweep-reliability-large row (n = 30, q near 0.9)
    th = ThetaVector([385.66, 1163.29, 2630.21, 3962.31])
    gr = delta_k_grid(th, 3)
    assert gr.lower <= gr.delta < 0.0
    assert gr.delta - gr.lower <= 1e-8 * abs(gr.delta)


def test_enclosure_lower_end_valid_at_split_budget(monkeypatch):
    from cpstein import bounds

    th = ThetaVector([2.24036051, 1.44003286, 1.52745556, 0.38508633])
    monkeypatch.setattr(bounds, "ENCLOSURE_MAX_SPLITS", 3)
    gr = delta_k_grid(th, 3)
    grid = g_k_grid(th, 3, np.linspace(0.0, math.pi, 513), np.linspace(0.0, 1.0, 129))
    assert gr.lower <= grid.min() <= gr.delta
    assert gr.delta - gr.lower > 1e-3  # stopped early, still a valid bracket


def test_thm2_on_cor3_fallback_uses_lower_end():
    # theta = (5.05, 0.2, 0.6, 1.2): theta_2 >= 2 theta_1 and delta_3 > 0
    th = theta(CompoundPoissonParams([5.0, 0.0, 0.0, 0.0, 0.01]), 3)
    gr = delta_k_grid(th, 3)
    assert 0.0 < gr.lower < gr.delta
    b = bound_cor3(th)
    assert b.method == "THM2(3)"
    assert (b.m0, b.m1) == _factors_from_delta(gr.lower)
    assert b.condition_note == f"delta_3 = {gr.lower:g} (Bernstein enclosure)"


def test_delta_k_validates_k():
    th = ThetaVector([1.0, 0.2, 0.0, 0.0])
    with pytest.raises(ValueError):
        delta_k(th, 0)
    with pytest.raises(ValueError):
        delta_k_grid(th, 0)


# ---------------------------------------------------------------------------
# individual bounds


def test_bound_general_examples():
    # lambda_1 = 0: prefactor 1, value e^lambda
    b = bound_general(CompoundPoissonParams([0.0, 1.0]))
    assert b.applicable
    assert_allclose(b.m0, math.e, rtol=1e-15)
    assert b.m0 == b.m1
    # lambda_1 = 2, lambda_2 = 1: min{1, 1/2} e^3
    b = bound_general(CompoundPoissonParams([2.0, 1.0]))
    assert_allclose(b.m0, math.exp(3.0) / 2.0, rtol=1e-15)


def test_bound_general_overflow_to_inf():
    b = bound_general(CompoundPoissonParams([1000.0]))
    assert b.applicable
    assert b.m0 == math.inf


def test_bound_monotone_poisson8():
    b = bound_monotone(CompoundPoissonParams([8.0]))
    assert b.applicable
    assert_allclose(b.m0, math.sqrt(2.0 / (math.e * 8.0)), rtol=1e-15)
    assert_allclose(b.m1, 1.0 / 9.0, rtol=1e-15)


def test_bound_monotone_caps():
    # small lambda_1: both caps bind
    b = bound_monotone(CompoundPoissonParams([0.1, 0.05]))
    assert b.m0 == 1.0
    assert b.m1 == 0.5


@pytest.mark.parametrize("lam1", [6.6e307, 1e308, 1.7976931348623157e308])
def test_bound_monotone_where_e_lambda1_overflows(lam1):
    # e * lambda_1 is inf: 2/e divided by lambda_1, not 2 / inf = 0
    b = bound_monotone(CompoundPoissonParams([lam1]))
    assert b.applicable
    assert 0.0 < b.m0 < 1e-153
    assert_allclose(b.m0, math.sqrt(2.0 / math.e / lam1), rtol=1e-15)


def test_factors_from_delta_bit_identical_where_products_are_finite():
    # the formulas as first written, wherever 2 delta and pi delta are finite
    for delta in (1e-300, 5e-300, 0.3, 1.0, 7.5, 1e10, 1e300, 5.6e307):
        m0 = 2.0 * math.sqrt(2.0 / delta)
        m1 = (1.0 / (2.0 * delta)) * (1.0 + log_plus(math.pi * delta))
        assert _factors_from_delta(delta) == (m0, m1)


@pytest.mark.parametrize("delta", [5.8e307, 1e308, 1.7976931348623157e308])
def test_factors_from_delta_where_products_overflow(delta):
    m0, m1 = _factors_from_delta(delta)
    assert 0.0 < m0 and 0.0 < m1 < math.inf
    assert_allclose(m1, (0.5 / delta) * (1.0 + math.log(math.pi) + math.log(delta)), rtol=1e-15)


def test_bounds_positive_at_rates_near_the_float_limit():
    for rates in ([1e308], [0.75e308, 0.25e308], [5.9e307, 1e300]):
        for b in evaluate_all(CompoundPoissonParams(rates)):
            assert not b.applicable or (b.m0 > 0.0 and b.m1 > 0.0), (rates, b)


def test_bound_monotone_inapplicable():
    b = bound_monotone(CompoundPoissonParams([0.5, 0.3]))
    assert not b.applicable
    assert b.m0 == math.inf and b.m1 == math.inf


def test_bound_bx99():
    th = theta(CompoundPoissonParams([1.0, 0.2]), 1)
    b = bound_bx99(th)
    assert b.applicable
    assert_allclose(b.m0, math.sqrt(1.4) / 0.6, rtol=1e-14)
    assert_allclose(b.m1, 1.0 / 0.6, rtol=1e-14)
    neg = bound_bx99(ThetaVector([1.0, 0.5]))
    assert not neg.applicable


def test_bound_thm2_formula():
    # delta_1 = theta_0 - 2 theta_1 closed form feeds the generic factors
    th = ThetaVector([2.0, 0.28])  # delta_1 = 1.44
    b = bound_thm2(th, 1)
    assert b.applicable
    assert_allclose(b.m0, 2.0 * math.sqrt(2.0 / 1.44), rtol=1e-14)
    assert_allclose(b.m1, (1.0 + math.log(math.pi * 1.44)) / 2.88, rtol=1e-14)
    assert "closed form" in b.condition_note


@pytest.mark.parametrize(
    "rates, k, route",
    [
        ([1.0, 0.2], 1, "closed form"),
        ([1.0, 0.2], 3, "closed form"),
        ([8.0], 3, "constant"),  # theta_1 = theta_2 = theta_3 = 0: no enclosure runs
        ([5.0, 0.0, 0.0, 0.0, 0.01], 3, "Bernstein enclosure"),
    ],
)
def test_bound_thm2_note_names_the_route_that_ran(monkeypatch, rates, k, route):
    from cpstein import bounds

    calls = []
    factors = bounds._bernstein_factors
    monkeypatch.setattr(bounds, "_bernstein_factors", lambda k: calls.append(k) or factors(k))
    th = theta(CompoundPoissonParams(rates), k)
    dr = delta_k(th, k)
    assert dr.route == route
    assert bool(calls) == (route == "Bernstein enclosure")
    assert bound_thm2(th, k).condition_note == f"delta_{k} = {dr.lower:g} ({route})"


def test_bound_thm2_log_plus_kicks_in_at_one_over_pi():
    # delta = 1/pi sits exactly at the log+ threshold: m1 = pi/2
    th = ThetaVector([1.0 / math.pi, 0.0])
    b = bound_thm2(th, 1)
    assert b.m1 == math.pi / 2.0


def test_bound_thm2_m0_m1_decrease_in_delta():
    deltas = [0.2, 0.5, 1.0, 3.0, 10.0]
    bs = [bound_thm2(ThetaVector([d, 0.0]), 1) for d in deltas]
    for a, b in zip(bs, bs[1:]):
        assert a.m0 > b.m0
        assert a.m1 > b.m1


def test_bound_cor3_runs_like_theta():
    # theta = (1, 0.2, 0.02, 0): delta = 0.64
    th = ThetaVector([1.0, 0.2, 0.02, 0.0])
    b = bound_cor3(th)
    assert b.applicable and b.method == "COR3"
    assert_allclose(b.m1, (1.0 + math.log(0.64 * math.pi)) / 1.28, rtol=1e-14)
    bx = bound_bx99(th)
    assert b.m1 < bx.m1  # sharper than the order-1 route here


def test_bound_cor3_inapplicable_when_delta_negative():
    # theta_2 < 2 theta_1 but delta <= 0
    th = ThetaVector([1.0, 0.6, 0.02, 0.0])
    assert th[0] - 2 * th[1] + 2 * th[2] - (4 / 3) * th[3] < 0
    b = bound_cor3(th)
    assert not b.applicable
    assert b.method == "COR3"


def test_bound_cor3_falls_back_to_grid_route():
    th = theta(CompoundPoissonParams([0.0, 0.0, 0.0, 0.0, 1.0]), 3)
    b = bound_cor3(th)
    assert b.method == "THM2(3)"


def test_cor3_grid_fallback_searches_once(monkeypatch):
    from cpstein import bounds

    calls = []
    real = bounds.delta_k_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "delta_k_grid", counting)
    # theta = (5, 20, 60, 120): theta_2 >= 2 theta_1, so no order-3 closed form
    out = evaluate_all(CompoundPoissonParams([0.0, 0.0, 0.0, 0.0, 1.0]))
    assert out[3].method == "THM2(3)"
    assert len(calls) == 1


def test_regime_classify_reads_only_its_rows(monkeypatch):
    from cpstein import bounds, cli

    def rows_of(th):
        return [bound_bx99(th), bound_cor3(th), bound_thm4(th)]

    # the rows are built first: the COR3 slot of (0, 0, 0, 0, 1) falls back to
    # THM2(3) and searches the grid once
    catalogues = [
        ("BX99_OK", evaluate_all(CompoundPoissonParams([1.0, 0.2]))),  # COR3 applies too
        ("COR3_OK", evaluate_all(CompoundPoissonParams([4.0, 1.0, 0.5]))),  # THM4 too
        ("COR3_OK", rows_of(ThetaVector([1.0, 0.6, 0.3, 0.0]))),
        ("THM4_OK", evaluate_all(CompoundPoissonParams([0.0, 0.0, 0.0, 0.0, 1.0]))),
        ("GENERAL_ONLY", rows_of(ThetaVector([1.0, 0.5, 1.0, 0.0]))),
    ]
    # theta_2 >= 2 theta_1: the COR3 slot holds an applicable THM2(3)
    thm2 = bound_cor3(ThetaVector([10.0, 0.5, 1.0, 0.0]))

    def forbidden(*args, **kwargs):
        raise AssertionError("regime judged again")

    # the closed-form paths never search the grid: COR3 under
    # theta_2 < 2 theta_1, and a runs sweep row
    monkeypatch.setattr(bounds, "delta_k_grid", forbidden)
    assert bound_cor3(ThetaVector([1.0, 0.6, 0.3, 0.0])).method == "COR3"
    table = cli._sweep_table({"model": "runs", "n": 50}, "p", [0.2])
    assert table.columns[table.keys[0].index("cor3_applicable")][0] is True
    for name in ("bound_bx99", "bound_cor3", "bound_thm4", "theta"):
        monkeypatch.setattr(bounds, name, forbidden)
    for regime, rows in catalogues:
        assert bounds.regime_classify(rows) == regime
        assert bounds.regime_classify(rows[::-1]) == regime  # preference, not row order
    assert thm2.method == "THM2(3)" and thm2.applicable
    assert bounds.regime_classify([thm2]) == "GENERAL_ONLY"
    assert bounds.regime_classify([]) == "GENERAL_ONLY"


def _catalogue_laws(J: int, count: int, rng: random.Random) -> list[tuple[float, ...]]:
    """``count`` laws of J rates, drawn in turn from kinds that reach every
    branch of the catalogue rows."""
    def draw(kind: int) -> list[float]:
        rates = [rng.uniform(0.0, 3.0) for _ in range(J)]
        if kind == 0:  # zero rates among positive ones
            rates = [r if rng.random() < 0.5 else 0.0 for r in rates]
        elif kind == 1:  # lambda_1 = 0
            rates[0] = 0.0
        elif kind == 2:  # increasing: not monotone
            rates.sort()
        elif kind == 3:  # mass on j = 3..J: theta_2 >= 2 theta_1 for J >= 3
            rates = [r * 0.01 if j < 2 else r * 10.0 for j, r in enumerate(rates)]
        elif kind == 4:  # e^lambda past the double range
            rates = [r * 400.0 + 800.0 / J for r in rates]
        elif kind == 5:  # 2 theta_1 - theta_0 past 473: THM4's delta underflows
            rates = [r + (300.0 if j == 1 else 0.0) for j, r in enumerate(rates)]
        elif kind == 6:  # theta_0 overflows for J >= 2
            rates[-1] = 1e308
        elif kind == 7:  # spread over many scales
            rates = [r * 10.0 ** rng.uniform(-6.0, 4.0) for r in rates]
        if not max(rates) > 0.0:
            rates[-1] = 1.0
        return rates

    return [tuple(draw(i % 8)) for i in range(count)]


# finite theta with theta_2 < 2 theta_1, whose order-3 closed form overflows
# in the term 2 theta_2 but not in its value, about 1.48e307
COR3_OVERFLOW_LAW = (
    1.798803455810564e307, 2.1388503440218942e306, 5.370697911693372e306, 3.747972106988163e306
)


def test_catalogue_columns_match_one_law_at_a_time():
    # the column path of the sweep gives theta(params, 3) and
    # evaluate_all(params) of every law bit for bit, notes and inapplicable rows included
    rng = random.Random(32)
    seen = set()
    for J in range(1, 6):
        laws = _catalogue_laws(J, 60, rng) + [COR3_OVERFLOW_LAW] * (J == 4)
        thetas, catalogue = _evaluate_columns([list(col) for col in zip(*laws)])
        for i, rates in enumerate(laws):
            params = CompoundPoissonParams(rates)
            th = theta(params, 3)
            assert repr(tuple(col[i] for col in thetas)) == repr(th.values)
            rows = [tuple(row.bound(i)) for row in catalogue]
            assert repr(rows) == repr([tuple(b) for b in evaluate_all(params)])
            seen.update((row.method[i], row.applicable[i], row.note[i]) for row in catalogue)
            if rates[0] == 0.0:
                seen.add("lambda_1 = 0")
            if rows[0][1] == math.inf:
                seen.add("GENERAL inf")
            if rates == COR3_OVERFLOW_LAW and rows[3][3]:
                seen.add("COR3 past the double range")
    assert {
        "lambda_1 = 0",
        "GENERAL inf",
        "COR3 past the double range",
        ("MONOTONE", False, "rate sequence j*lambda_j not nonincreasing"),
        ("MONOTONE", True, "j*lambda_j nonincreasing"),
        ("THM2(3)", True, "delta_%s = %g (%s)"),
        ("THM4", False, "delta underflowed to 0"),
        ("THM4", True, "delta = %g"),
        ("COR3", True, "delta = %g (closed form)"),
        ("BX99", False, "theta not finite"),
        ("BX99", True, "theta_0 - 2*theta_1 = %g > 0"),
    } <= seen


@pytest.mark.parametrize("rates", [[10.0, 300.0], [0.0, 250.0], [1.0, 200.0], [0.4, 1.0]])
def test_regime_is_thm4_only_where_bound_thm4_applies(rates):
    # past 2 theta_1 - theta_0 of about 473, THM4's delta underflows to 0:
    # (10, 300) has 590, and its THM4 row reads "delta underflowed to 0"
    th = theta(CompoundPoissonParams(rates), 3)
    assert not bound_bx99(th).applicable and _cor3_delta(*th.values[:4]) < 0.0
    thm4 = bound_thm4(th)
    rows = evaluate_all(CompoundPoissonParams(rates))
    assert rows[4] == thm4
    assert (regime_classify(rows) == "THM4_OK") == thm4.applicable
    assert thm4.applicable == (2.0 * rates[1] - rates[0] < 473.0)


def test_cor3_delta_formed_at_half_scale_where_its_terms_overflow():
    # 2 theta_2 overflows; the value is within a few ulps of the exact one
    th = theta(CompoundPoissonParams(COR3_OVERFLOW_LAW), 3)
    assert th.finite and th[2] < 2.0 * th[1]
    t0, t1, t2, t3 = map(Fraction, th.values)
    exact = float(t0 - 2 * t1 + 2 * t2 - Fraction(4, 3) * t3)
    dr = delta_k(th, 3)
    assert dr.route == "closed form" and dr.certified
    assert abs(dr.delta - exact) <= 4.0 * math.ulp(exact)
    b = bound_cor3(th)
    assert b.applicable and b.method == "COR3" and 0.0 < b.m1 < b.m0 < 1.0


def test_cor3_delta_past_the_largest_double_is_the_largest_double():
    # delta = 1.58 max: the largest double is a lower end, and the factors hold
    big = sys.float_info.max
    th = ThetaVector([big, 0.3 * big, 0.59 * big, 0.0])
    assert _cor3_delta(*th.values) == big
    b = bound_cor3(th)
    assert b.applicable and b.method == "COR3"
    assert (b.m0, b.m1) == _factors_from_delta(big)


@pytest.mark.parametrize(
    "values", [[math.inf, math.inf, math.inf, 0.0], [math.inf, 8e307, 0.0, 0.0]]
)
def test_non_finite_theta_is_inapplicable_without_enclosure(monkeypatch, values):
    # unguarded, theta_0 = inf with a finite theta_1 gives BX99 a nan m0, and
    # (inf, inf, inf, 0) runs the enclosure on nan coefficients
    from cpstein import bounds

    def forbidden(*args, **kwargs):
        raise AssertionError("enclosure entered")

    monkeypatch.setattr(bounds, "_bernstein_factors", forbidden)
    th = ThetaVector(values)
    rows = [bound_bx99(th), bound_cor3(th), bound_thm2(th, 3), bound_thm4(th)]
    for b in rows:
        assert not b.applicable
        assert b.condition_note == "theta not finite"
    assert bounds.regime_classify(rows) == "GENERAL_ONLY"


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("rates", [[1e-4], [0.5], [8.0], [37.5], [1e3], [5.0, 0.0, 0.0]])
def test_delta_k_grid_constant_criterion(k, rates):
    # single-size rates: theta_1..theta_k = 0 and g_k is the constant theta_0;
    # the result is the one the subdivision returns for it, on its own route
    th = theta(CompoundPoissonParams(rates), k)
    want = DeltaResult(k, th[0], (math.pi, 1.0), False, th[0], "constant")
    assert delta_k_grid(th, k) == want


def test_bound_lemma_c_validation():
    th = ThetaVector([1.0, 1.0])
    with pytest.raises(ValueError, match="c must exceed 1"):
        bound_lemma_c(th, 1.0)
    with pytest.raises(ValueError, match="theta_0 must be positive"):
        bound_lemma_c(ThetaVector([0.0, 1.0]), 2.0)


def test_bound_lemma_c_applicability_window():
    th = ThetaVector([1.0, 1.0])  # gamma = 1
    # c below exp(1.5): out of the allowed interval
    low = bound_lemma_c(th, 2.0)
    assert not low.applicable
    # c at the endpoint: applicable
    edge = bound_lemma_c(th, math.exp(1.5))
    assert edge.applicable
    delta = 1.0 / (2.0 * math.exp(1.5) * math.sqrt(math.pi))
    assert_allclose(delta, 0.06294, rtol=1e-4)
    assert_allclose(edge.m0, 2.0 * math.sqrt(2.0 / delta), rtol=1e-14)
    # generous c also applicable, but with a smaller delta (bigger factors)
    big = bound_lemma_c(th, 100.0)
    assert big.applicable
    assert big.m1 > edge.m1


def test_bound_lemma_c_underdispersed_inapplicable():
    th = ThetaVector([1.0, 0.3])  # gamma < 0
    b = bound_lemma_c(th, 5.0)
    assert not b.applicable


def test_margin_bounds_inapplicable_once_delta_underflows():
    # 2 theta_1 - theta_0 = 476.97 > 473: exp(1.5 gamma) overflows and
    # delta = gamma / (2 c sqrt(pi)) is 0, which used to reach 1/delta
    th = theta(CompoundPoissonParams([151.36, 71.0009, 54.0361]), 3)
    assert 2.0 * th[1] - th[0] > 473.0
    t4 = bound_thm4(th)
    assert not t4.applicable
    assert t4.condition_note == "delta underflowed to 0"
    lc = bound_lemma_c(ThetaVector([1.0, 1.0]), math.inf)
    assert not lc.applicable
    assert lc.condition_note == "delta underflowed to 0"


def test_bound_thm4_equals_lemma_at_endpoint():
    rng = np.random.default_rng(19)
    for _ in range(100):
        lam1 = float(rng.uniform(0.01, 2.0))
        lam2 = float(rng.uniform(0.01, 2.0))
        extra = rng.uniform(0.0, 0.3, size=2)
        th = theta(CompoundPoissonParams([lam1, lam2, *extra]), 3)
        gamma = 2.0 * th[1] - th[0]
        if gamma <= 0.0:
            continue
        t4 = bound_thm4(th)
        lc = bound_lemma_c(th, math.exp(1.5 * gamma))
        assert t4.applicable and lc.applicable
        assert t4.m0 == lc.m0
        assert t4.m1 == lc.m1


def test_bound_thm4_inapplicable_when_underdispersed():
    th = ThetaVector([5.0, 0.3])
    assert not bound_thm4(th).applicable


# ---------------------------------------------------------------------------
# aggregation


def test_stein_factor_bound_invariants():
    with pytest.raises(ValueError):
        SteinFactorBound(1.0, 2.0, "X", False, "finite but inapplicable")
    with pytest.raises(ValueError):
        SteinFactorBound(-1.0, 2.0, "X", True, "negative")
    b = SteinFactorBound(math.inf, math.inf, "X", False, "ok")
    js = b.to_json()
    assert js["m0"] == "inf" and js["applicable"] is False


def test_stein_factor_bound_copies_and_pickles():
    # a bound function's result, whose note is formatted when the bound is
    # built, and a bound built through the constructor both come back equal
    th = theta(CompoundPoissonParams([1.0, 0.2]), 3)
    for b in (bound_bx99(th), SteinFactorBound(1.0, 2.0, "X", True, "50% of it")):
        for back in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert back == b and back.condition_note == b.condition_note


def test_evaluate_all_methods_and_orders():
    p = CompoundPoissonParams([1.0, 0.2])
    out = evaluate_all(p)
    assert [b.method for b in out] == ["GENERAL", "MONOTONE", "BX99", "COR3", "THM4"]
    th = theta(p, 4)
    assert evaluate_all(p, th) == out
    assert [bound_thm2(th, k).method for k in (2, 4)] == ["THM2(2)", "THM2(4)"]


@pytest.mark.parametrize(
    "rates,shows",
    [
        *((r, None) for r in np.random.default_rng(29).uniform(0.0, 3.0, size=(12, 4)).tolist()),
        # theta_2 >= 2 theta_1: COR3 falls back to THM2(3)
        ([5.0, 0.0, 0.0, 0.0, 0.01], ("THM2(3)", "(Bernstein enclosure)")),
        ([5e307, 0.0, 5e307], ("BX99", "theta not finite")),
        ([151.36, 71.0009, 54.0361], ("THM4", "delta underflowed to 0")),
    ],
)
def test_catalogue_is_the_public_bound_functions(rates, shows):
    p = CompoundPoissonParams(rates)
    th = theta(p, 3)
    want = [bound_general(p), bound_monotone(p), bound_bx99(th), bound_cor3(th), bound_thm4(th)]
    got = evaluate_all(p, th)
    assert got == want and evaluate_all(p) == want
    assert [b.condition_note for b in got] == [b.condition_note for b in want]
    if shows is not None:
        method, note = shows
        assert any(b.method == method and b.condition_note.endswith(note) for b in got)


def test_best_bound_componentwise():
    # rates (6, 0.1, 0.3): not monotone (0.2 < 0.9), theta = (7.1, 2.0, 1.8, 0)
    # BX99: m0 = sqrt(7.1)/3.1 ~ 0.860, m1 = 1/3.1 ~ 0.323
    # COR3: delta = 6.7, m0 = 2 sqrt(2/6.7) ~ 1.093, m1 ~ 0.302
    # so m0 winner is BX99 and m1 winner is COR3
    p = CompoundPoissonParams([6.0, 0.1, 0.3])
    bb = best_bound(p)
    assert_allclose(bb.m0, math.sqrt(7.1) / 3.1, rtol=1e-14)
    assert_allclose(bb.m1, (1.0 + math.log(math.pi * 6.7)) / 13.4, rtol=1e-14)
    assert bb.method == "COR3"
    assert bb.condition_note == "m0: BX99, m1: COR3"
    assert bb.applicable


def test_best_bound_dominates_each_method():
    rng = np.random.default_rng(20)
    for _ in range(20):
        lam = rng.uniform(0.05, 1.5, size=3)
        p = CompoundPoissonParams(lam)
        bb = best_bound(p)
        for b in evaluate_all(p):
            assert bb.m0 <= b.m0
            assert bb.m1 <= b.m1


def test_best_of_is_best_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = CompoundPoissonParams(rng.uniform(0.0, 2.0, size=3) + [0.1, 0.0, 0.0])
        assert best_of(evaluate_all(p)) == best_bound(p)
        th = theta(p, 4)
        assert evaluate_all(p, th) == evaluate_all(p)
        best = best_of([*evaluate_all(p, th), bound_thm2(th, 4)])
        assert best.m0 <= best_bound(p).m0 and best.m1 <= best_bound(p).m1
