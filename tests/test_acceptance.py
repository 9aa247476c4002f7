"""Acceptance gate: seven criteria, each printing one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Criterion
2 is expected to fail in its third clause: the order-3 grid infimum of the
criterion function genuinely drops below the closed form n p^2 (1-2p)^2 for
runs models with p = 0.45 (the closed form is the value at the boundary
point (pi, 0), but for theta_2 > (2/5) theta_1 the infimum moves to an
interior phi).  The numbers are reproduced in the failure message; all other
clauses and criteria pass.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from cpstein import (
    CompoundPoissonParams,
    MixedPoissonModel,
    ReliabilityModel,
    RunsModel,
    TwoPointMixing,
    IndependentSumModel,
    best_bound,
    bound_bx99,
    bound_lemma_c,
    bound_thm4,
    cp_pmf,
    delta_k,
    delta_k_grid,
    distance,
    empirical_factors,
    evaluate_all,
    g_k_eval,
    interior_residuals,
    mixed_cp_params,
    mixed_dk_bound,
    mixed_exact_pmf,
    monotone_condition,
    poisson_stein_forward,
    reliability_cp_params,
    reliability_delta,
    reliability_dk_bound,
    reliability_exact_pmf,
    runs_cp_params,
    runs_dk_bound,
    runs_exact_pmf,
    solve_stein,
    sums_cp_params,
    theta,
)


class _Gate:
    """Prints one ACCEPTANCE line per criterion, PASS or FAIL."""

    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.time() - self.start
        print(f"ACCEPTANCE {self.num} ({self.name}): {status} [{elapsed:.1f}s]")
        return False


# ---------------------------------------------------------------------------


def test_acceptance_1_theta_identity_suite():
    with _Gate(1, "theta identity suite"):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(3, 500))
            p = float(rng.uniform(0.01, 0.99))
            th = theta(runs_cp_params(RunsModel(n, p)), 3)
            want = (n * p**2, 2 * n * p**3, 2 * n * p**4, 0.0)
            for k in range(4):
                assert_allclose(th[k], want[k], rtol=1e-12, atol=1e-300)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(k + 2, 40))
            q = float(rng.uniform(0.05, 0.95))
            m = ReliabilityModel(n, k, q)
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


def test_acceptance_2_gk_delta_suite():
    with _Gate(2, "g_k/delta_k suite"):
        rng = np.random.default_rng(102)
        # clause A: order-1 grid infimum is the constant theta_0 - 2 theta_1
        for _ in range(5):
            lam = rng.uniform(0.05, 2.0, size=4)
            th = theta(CompoundPoissonParams(lam), 3)
            assert_allclose(
                delta_k_grid(th, 1).delta, th[0] - 2.0 * th[1], rtol=1e-12
            )
        # clause B: complex-arithmetic g_3 equals the closed form
        for _ in range(1000):
            lam = rng.uniform(0.05, 2.0, size=4)
            th = theta(CompoundPoissonParams(lam), 3)
            phi = float(rng.uniform(-math.pi, math.pi))
            p = float(rng.uniform(0.0, 1.0))
            c = math.cos(phi)
            want = (
                th[0]
                + c * (2.0 - p) * th[1]
                + (c - 1.0) * (2.0 * c + 1.0) * (p * p - 3.0 * p + 3.0) * th[2] / 3.0
                - (4.0 / 3.0) * th[3]
            )
            got = g_k_eval(th, 3, phi, p).value
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        # clause C: runs-model order-3 grid infimum vs n p^2 (1-2p)^2
        failures = []
        for n in (50, 200):
            for p in (0.1, 0.3, 0.45):
                th = theta(runs_cp_params(RunsModel(n, p)), 3)
                want = n * p * p * (1.0 - 2.0 * p) ** 2
                got = delta_k_grid(th, 3).delta
                rel = abs(got - want) / abs(want)
                if rel > 1e-6:
                    failures.append(
                        f"n={n} p={p}: grid infimum {got:.6f} vs closed form "
                        f"{want:.6f} (rel dev {rel:.4g})"
                    )
        assert not failures, (
            "order-3 grid infimum departs from the closed form: "
            + "; ".join(failures)
        )


def test_acceptance_3_dominance_suite():
    with _Gate(3, "magic-factor dominance suite"):
        parameter_sets = [
            # monotone regime
            CompoundPoissonParams([8.0]),
            CompoundPoissonParams([0.5, 0.25]),
            runs_cp_params(RunsModel(30, 0.15)),
            CompoundPoissonParams([2.0, 1.0, 0.5, 0.25]),
            # theta_0 - 2 theta_1 > 0 regime
            CompoundPoissonParams([1.0, 0.2]),
            runs_cp_params(RunsModel(100, 0.1)),
            CompoundPoissonParams([5.0, 0.3, 0.1]),
            # order-3-criterion-only regime (between the old and new
            # thresholds: runs 1/4 < p, reliability q^k in (0.1875, 0.25))
            runs_cp_params(RunsModel(50, 0.3)),
            reliability_cp_params(ReliabilityModel(10, 2, math.sqrt(0.2))),
            runs_cp_params(RunsModel(50, 0.45)),
            # overdispersed regime 2 theta_1 > theta_0
            CompoundPoissonParams([1.0, 1.0]),
            mixed_cp_params(MixedPoissonModel(TwoPointMixing(0.4, 2.0, 0.5))),
            sums_cp_params(IndependentSumModel([[0.7, 0.12, 0.0, 0.18]] * 5)),
        ]
        regimes_seen = set()
        for params in parameter_sets:
            th = theta(params, 3)
            if monotone_condition(params):
                regimes_seen.add("monotone")
            if th[0] - 2.0 * th[1] > 0.0:
                regimes_seen.add("bx")
            if (
                th[2] < 2.0 * th[1]
                and th[0] - 2.0 * th[1] <= 0.0
                and th[0] - 2.0 * th[1] + 2.0 * th[2] - (4.0 / 3.0) * th[3] > 0.0
            ):
                regimes_seen.add("cor3-only")
            if 2.0 * th[1] - th[0] > 0.0:
                regimes_seen.add("overdispersed")
            emp = empirical_factors(params)
            for b in evaluate_all(params):
                if not b.applicable:
                    continue
                assert emp.m0_hat <= b.m0, (
                    f"{b.method} m0 violated for rates {params.rates}: "
                    f"{emp.m0_hat} > {b.m0}"
                )
                assert emp.m1_hat <= b.m1, (
                    f"{b.method} m1 violated for rates {params.rates}: "
                    f"{emp.m1_hat} > {b.m1}"
                )
        assert regimes_seen == {"monotone", "bx", "cor3-only", "overdispersed"}


def test_acceptance_4_regime_extension_checks():
    with _Gate(4, "regime-extension checks"):
        # reliability at q^k = 0.2: classical condition fails, delta > 0
        m = ReliabilityModel(20, 2, math.sqrt(0.2))
        th = theta(reliability_cp_params(m), 3)
        assert not bound_bx99(th).applicable
        assert reliability_delta(m) > 0.0
        # and the same verdict for every u = n-k-1 across a wide range
        for n in (4, 5, 8, 20, 60):
            mm = ReliabilityModel(n, 2, math.sqrt(0.2))
            tt = theta(reliability_cp_params(mm), 3)
            assert not bound_bx99(tt).applicable
            assert reliability_delta(mm) > 0.0
        # runs at p = 0.45: neither classical condition holds, closed-form
        # delta = n p^2 (1-2p)^2 > 0
        params = runs_cp_params(RunsModel(50, 0.45))
        th = theta(params, 3)
        assert not monotone_condition(params)
        assert not bound_bx99(th).applicable
        dr = delta_k(th, 3)
        assert dr.certified
        assert dr.delta > 0.0
        assert_allclose(dr.delta, 50 * 0.45**2 * (1 - 0.9) ** 2, rtol=1e-12)


def test_acceptance_5_end_to_end_distance_suite():
    with _Gate(5, "end-to-end distance suite"):
        # runs: exact transfer-matrix law vs 3 M1 n p^4
        for n, p in ((30, 0.15), (50, 0.2), (200, 0.1)):
            m = RunsModel(n, p)
            params = runs_cp_params(m)
            rep = distance(runs_exact_pmf(m), cp_pmf(params))
            bound = runs_dk_bound(m, best_bound(params).m1)
            assert rep.d_k + rep.certified_slack <= bound, (n, p)
        # mixed Poisson in both moment regimes vs 1.2 M1 E|xi-nu|^3
        for mixing in (TwoPointMixing(2.5, 3.5, 0.5), TwoPointMixing(0.4, 2.0, 0.5)):
            mm = MixedPoissonModel(mixing)
            assert (mm.nu > 2 * mm.sigma2) or (mm.sigma2 < mm.nu < 2 * mm.sigma2)
            params = mixed_cp_params(mm)
            rep = distance(mixed_exact_pmf(mm), cp_pmf(params))
            bound = mixed_dk_bound(mm, best_bound(params).m1)
            assert rep.d_k + rep.certified_slack <= bound
        # reliability: transfer-matrix 4x4 law vs the lattice bound chain
        rm = ReliabilityModel(4, 2, 0.3)
        params = reliability_cp_params(rm)
        rep = distance(reliability_exact_pmf(rm), cp_pmf(params))
        bound = reliability_dk_bound(rm, best_bound(params).m1)
        assert rep.d_k + rep.certified_slack <= bound


def test_acceptance_6_oracle_self_consistency():
    with _Gate(6, "oracle self-consistency"):
        # runs transfer-matrix DP vs exhaustive enumeration up to n = 16
        for n in (3, 6, 10, 16):
            p = 0.3
            patterns = np.arange(1 << n, dtype=np.int64)
            bits = (patterns[:, None] >> np.arange(n)) & 1
            pairs = (bits * np.roll(bits, -1, axis=1)).sum(axis=1)
            ones = bits.sum(axis=1)
            weights = p**ones * (1.0 - p) ** (n - ones)
            brute = np.bincount(pairs, weights=weights, minlength=n + 1)
            assert_allclose(runs_exact_pmf(RunsModel(n, p)).pmf, brute, atol=1e-13)
        # Stein solutions satisfy the equation on interiors
        for rates in ([8.0], [1.0, 0.5, 0.2], [0.56, 0.32]):
            params = CompoundPoissonParams(rates)
            sol = solve_stein(params, 3, 120)
            assert np.max(interior_residuals(sol)) <= 1e-9
        # truncation stability within 1e-7
        for rates in ([8.0], [1.0, 0.5]):
            params = CompoundPoissonParams(rates)
            a = empirical_factors(params)
            b = empirical_factors(params, y_max=a.y_max, x_max=2 * a.x_max)
            assert abs(a.m0_hat - b.m0_hat) <= 1e-7
            assert abs(a.m1_hat - b.m1_hat) <= 1e-7
        # the Stein solver matches the classical forward Poisson solution
        for lam in (1.0, 8.0):
            for y in (0, 3, 10):
                sol = solve_stein(CompoundPoissonParams([lam]), y, 80)
                fwd = poisson_stein_forward(lam, y, 80)
                assert np.max(np.abs(sol.f[1:60] - fwd[1:60])) <= 1e-8


def test_acceptance_7_lemma_theorem4_consistency():
    with _Gate(7, "lemma/theorem-4 consistency"):
        rng = np.random.default_rng(107)
        checked = 0
        while checked < 100:
            lam = rng.uniform(0.01, 2.0, size=int(rng.integers(2, 5)))
            th = theta(CompoundPoissonParams(lam), 3)
            gamma = 2.0 * th[1] - th[0]
            if gamma <= 0.0:
                continue
            t4 = bound_thm4(th)
            lc = bound_lemma_c(th, math.exp(1.5 * gamma))
            assert t4.applicable and lc.applicable
            assert t4.m0 == lc.m0
            assert t4.m1 == lc.m1
            checked += 1
