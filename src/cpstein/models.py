"""Application models approximated by compound Poisson laws.

Four statistics with known compound Poisson approximants and explicit
Kolmogorov-distance bounds d_K <= (coefficient) * M1:

* 2-runs: W = sum_i xi_i xi_{i+1} over a circular Bernoulli(p) sequence of
  length n, counting adjacent success pairs.
* 2-D consecutive k-out-of-n:F reliability: W counts the k x k all-failed
  subgrids of an n x n grid whose components fail independently with
  probability q.
* mixed Poisson: W ~ Poisson(xi) with a positive random intensity xi.
* independent integer-valued summands: W = Z_1 + ... + Z_n.

Every model class has ``tag`` (its JSON name), ``keys`` (its JSON fields; a
tuple entry lists alternatives), ``law_keys`` (the arguments its
``exact_law`` reads: exact, samples and seed for reliability, none for the
others), ``cp_params()``, ``exact_law(**law)``, ``dk_bound(m1)`` (None
without a bound), ``to_json()`` and ``from_json(obj)``; ``MODELS`` maps tags
to classes.  The models the CLI sweeps, runs and reliability, also have
``rate_columns(values)`` and ``dk_columns(values, m1s)``: the approximant's
rates and the d_K bound at many values of the model's last key at once, the
other keys as in the model, held in columns; ``cp_params`` and ``dk_bound``
are their one-value case.  ``runs_cp_params`` and the other per-model
functions are these methods under their older names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, field, fields
from typing import Iterable, Sequence

from .core import CompoundPoissonParams, DistributionTable

# cpstein.exact loads in the methods that use it: bounds and sweep run none

__all__ = [
    "RunsModel",
    "ReliabilityModel",
    "TwoPointMixing",
    "GammaMixing",
    "MixedPoissonModel",
    "IndependentSumModel",
    "MODELS",
    "runs_cp_params",
    "runs_dk_bound",
    "reliability_cp_params",
    "reliability_delta",
    "reliability_dk_bound",
    "mixed_cp_params",
    "mixed_dk_bound",
    "sums_cp_params",
    "model_from_json",
]

# the reliability law's Monte Carlo seed and sample count when none is given
DEFAULT_SEED = 12345
DEFAULT_MC_SAMPLES = 1_000_000


def _check_probabilities(name: str, values: Iterable[float]) -> None:
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"{name} must lie in [0, 1]")


def _check_float_range(name: str, value: int) -> None:
    """Refuse an integer that float arithmetic cannot take (OverflowError)."""
    if value > sys.float_info.max:
        raise ValueError(f"{name} must not exceed the largest double")


@dataclass(frozen=True)
class RunsModel:
    """Circular 2-runs statistic: n Bernoulli(p) bits, indices modulo n."""

    tag = "runs"
    keys = ("n", "p")
    law_keys = ()
    n: int
    p: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        _check_float_range("n", self.n)
        _check_probabilities("p", (self.p,))

    def cp_params(self) -> CompoundPoissonParams:
        """Approximant rates lambda_1 = n p^2 (1-p)^2, lambda_2 = n p^3 (1-p),
        lambda_3 = n p^4 / 3; the resulting theta vector is
        (n p^2, 2 n p^3, 2 n p^4, 0)."""
        return CompoundPoissonParams([col[0] for col in self.rate_columns((self.p,))])

    def rate_columns(self, ps: Sequence[float]) -> list[list[float]]:
        """The rates of ``cp_params`` at each p of ``ps``, each p checked as the
        model checks its own: column j - 1 holds lambda_j."""
        _check_probabilities("p", ps)
        n = self.n
        return [
            [n * p**2 * (1.0 - p) ** 2 for p in ps],
            [n * p**3 * (1.0 - p) for p in ps],
            [n * p**4 / 3.0 for p in ps],
        ]

    def exact_law(self) -> DistributionTable:
        from .exact import runs_exact_pmf
        return runs_exact_pmf(self)

    def dk_bound(self, m1: float) -> float:
        """Kolmogorov bound d_K(W, U) <= 3 * M1 * n * p^4; inf at an infinite M1."""
        return self.dk_columns((self.p,), (m1,))[0]

    def dk_columns(self, ps: Sequence[float], m1s: Iterable[float]) -> list[float]:
        """``dk_bound`` at each pair of p and m1."""
        n = self.n
        return [math.inf if m1 == math.inf else 3.0 * m1 * n * p**4 for p, m1 in zip(ps, m1s)]

    def to_json(self) -> dict:
        return {"model": self.tag, "n": self.n, "p": self.p}

    @classmethod
    def from_json(cls, obj: dict) -> RunsModel:
        return cls(n=int(obj["n"]), p=float(obj["p"]))


# terms of the reliability d_K bracket, values x exponents: about 1.2 us a
# term at one value (1.2 s at the budget) and 0.16 us at 10^4 values, on a
# 2-vCPU host
DK_BRACKET_BUDGET = 1_000_000


def _all_failed(qs: Sequence[float], k: int) -> list[float]:
    """psi = q^(k^2) at each q, the chance that a fixed k x k subgrid is
    all-failed; k^2 is formed as a float, inf past the float range."""
    k_sq = float(k) * k
    return [q**k_sq for q in qs]


@dataclass(frozen=True)
class ReliabilityModel:
    """k x k all-failed subgrid count on an n x n grid, failure probability q."""

    tag = "reliability"
    keys = ("n", "k", "q")
    law_keys = ("exact", "samples", "seed")
    n: int
    k: int
    q: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.n < self.k:
            raise ValueError("n must be >= k")
        _check_float_range("n", self.n)
        _check_probabilities("q", (self.q,))

    @property
    def psi(self) -> float:
        """Probability q^(k^2) that a fixed k x k subgrid is all-failed."""
        (psi,) = _all_failed((self.q,), self.k)
        return psi

    def cp_params(self) -> CompoundPoissonParams:
        """Approximant rates for the subgrid count, j = 1..5:

            lambda_j = (1/j) psi [4 pi_1(j) + 4 u pi_2(j) + u^2 pi_3(j)],

        with u = n-k-1 and pi_i(j) = P(Bin(i+1, q^k) = j-1).  Requires n > k+1
        so the u factors are positive.
        """
        return CompoundPoissonParams([col[0] for col in self.rate_columns((self.q,))])

    def rate_columns(self, qs: Sequence[float]) -> list[list[float]]:
        """The rates of ``cp_params`` at each q of ``qs``, each q checked as the
        model checks its own: column j - 1 holds lambda_j.

        With e = j - 1, y = q^k and P(m, e) = C(m, e) y^e (1-y)^(m-e),

            lambda_j = psi/j * [4 P(2, e) + 4u P(3, e) + u^2 P(4, e)],

        each P formed as the float product C(m, e) * y**e * (1-y)**(m-e),
        in one pass over the q: a term whose binomial is 0 is left out, and a
        factor of 1 (psi/1, C = 1, a power 0) and a power 1 are dropped,
        which changes no bit."""
        _check_probabilities("q", qs)
        if self.n <= self.k + 1:
            raise ValueError("n must exceed k+1")
        k = self.k
        u = float(self.n - k - 1)  # u * u as a float is inf past 1.3e154
        four_u, u_sq = 4.0 * u, u * u
        psis = _all_failed(qs, k)
        columns: list[list[float]] = [[], [], [], [], []]
        put1, put2, put3, put4, put5 = (col.append for col in columns)
        for psi, q in zip(psis, qs):
            y = q**k
            z = 1.0 - y
            y2, y3, z2, z3 = y**2, y**3, z**2, z**3
            put1(psi * (4.0 * z2 + four_u * z3 + u_sq * z**4))
            put2(psi / 2 * (4.0 * (2 * y * z) + four_u * (3 * y * z2) + u_sq * (4 * y * z3)))
            put3(psi / 3 * (4.0 * y2 + four_u * (3 * y2 * z) + u_sq * (6 * y2 * z2)))
            put4(psi / 4 * (four_u * y3 + u_sq * (4 * y3 * z)))
            put5(psi / 5 * (u_sq * y**4))
        return columns

    def exact_law(
        self, exact: bool = False, samples: int = DEFAULT_MC_SAMPLES, seed: int = DEFAULT_SEED
    ) -> DistributionTable:
        """The transfer-matrix law if ``exact`` (within its cost budget: n <= 11
        at k = 2, n <= 8 at k = 3), else seeded Monte Carlo."""
        from .exact import reliability_exact_pmf, reliability_mc_pmf
        if exact:
            return reliability_exact_pmf(self)
        return reliability_mc_pmf(self, samples=samples, seed=seed)

    def dk_bound(self, m1: float) -> float:
        """Kolmogorov bound
        d_K <= M1 (n-k+1)^2 psi [(4k^2+12k-3) psi
              + 4 sum_{r,s=1}^{k-1} q^{k^2-rs} + 4 sum_{s=1}^{k-2} q^{k^2-ks}];
        inf at an infinite M1."""
        return self.dk_columns((self.q,), (m1,))[0]

    def dk_columns(self, qs: Sequence[float], m1s: Iterable[float]) -> list[float]:
        """``dk_bound`` at each pair of q and m1.  The bracket has
        (k-1)^2 + (k-2) exponents, each summed at every q in turn; more than
        DK_BRACKET_BUDGET terms in all raise BudgetExceededError before any
        is formed."""
        n, k = self.n, self.k
        terms = len(qs) * ((k - 1) ** 2 + (k - 2))
        if terms > DK_BRACKET_BUDGET:
            from .exact import BudgetExceededError
            raise BudgetExceededError(f"reliability d_K bracket of {terms} terms exceeds"
                                      f" budget {DK_BRACKET_BUDGET} terms")
        psis = _all_failed(qs, k)
        brackets = [(4.0 * k * k + 12.0 * k - 3.0) * psi for psi in psis]
        powers = [k * k - r * s for r in range(1, k) for s in range(1, k)]
        powers += [k * k - k * s for s in range(1, k - 1)]
        for e in powers:
            brackets = [b + 4.0 * q**e for b, q in zip(brackets, qs)]
        side = float(n - k + 1)
        side_sq = side * side
        return [
            math.inf if m1 == math.inf else m1 * side_sq * psi * b
            for m1, psi, b in zip(m1s, psis, brackets)
        ]

    def to_json(self) -> dict:
        return {"model": self.tag, "n": self.n, "k": self.k, "q": self.q}

    @classmethod
    def from_json(cls, obj: dict) -> ReliabilityModel:
        return cls(n=int(obj["n"]), k=int(obj["k"]), q=float(obj["q"]))


def reliability_delta(m: ReliabilityModel) -> float:
    """Closed-form order-3 delta: psi [4 a(y) + 4 u b(y) + u^2 c(y)] at y = q^k,
    with a(y) = (1-2y)^2, b(y) = (1-2y)^3, c(y) = (1-4y)(1-4y+8y^2)."""
    u = m.n - m.k - 1
    y = m.q**m.k
    a = (1.0 - 2.0 * y) ** 2
    b = (1.0 - 2.0 * y) ** 3
    c = (1.0 - 4.0 * y) * (1.0 - 4.0 * y + 8.0 * y * y)
    return m.psi * (4.0 * a + 4.0 * u * b + u * u * c)


@dataclass(frozen=True)
class TwoPointMixing:
    """Mixing law: xi = a with probability w, b with probability 1-w."""

    tag = "two_point"
    a: float
    b: float
    w: float

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError("mixing values must be finite and positive")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("weight must lie in [0, 1]")

    @property
    def nu(self) -> float:
        return self.w * self.a + (1.0 - self.w) * self.b

    @property
    def sigma2(self) -> float:
        """w (1-w) d^2, d = a - b; a product, so a variance past the largest
        double is inf, not an OverflowError."""
        d = self.a - self.b
        return self.w * (1.0 - self.w) * d * d

    def abs3(self) -> float:
        """E|xi - nu|^3 = w v (w^2 + v^2) |d|^3 with v = 1-w and d = a - b, in
        products with the weights first: 0 at w in {0, 1}, inf past the
        largest double."""
        w, v, d = self.w, 1.0 - self.w, abs(self.a - self.b)
        return w * v * (w * w + v * v) * d * d * d

    def exact_law(self) -> DistributionTable:
        from .exact import poisson_mixture_table
        return poisson_mixture_table([self.w, 1.0 - self.w], [self.a, self.b])


# Q(a, a) = 1/2 + (2 pi a)^(-1/2) sum_k c_k a^-k, Temme's coefficients at
# x = a, used for a >= _TEMME_MIN_SHAPE (P(a+1, a) is summed as a series below)
_TEMME_COEF = (-1 / 3, -1 / 540, 25 / 6048, 101 / 155520, -3184811 / 3695155200)
_TEMME_MIN_SHAPE = 1000.0


@dataclass(frozen=True)
class GammaMixing:
    """Mixing law: xi ~ Gamma(shape, scale)."""

    tag = "gamma"
    shape: float
    scale: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise ValueError("shape and scale must be finite and positive")

    @property
    def nu(self) -> float:
        return self.shape * self.scale

    @property
    def sigma2(self) -> float:
        return self.shape * (self.scale * self.scale)

    def abs3(self) -> float:
        """E|xi - nu|^3 in closed form.

        Integrating by parts against the Gamma(a) density f_a gives, with
        a = shape, s = scale and P the regularized lower incomplete gamma,

            E|xi - nu|^3 = s^3 (2a + 4 (a^2 f_a(a) - a P(a+1, a))),

        where f_a(a) = a^(a-1) e^(-a) / Gamma(a).  As sqrt(a) f_a(a) =
        f = e^(-stirlerr(a)) / sqrt(2 pi), this is (s sqrt(a))^3 g(a) with

            g(a) = (2 - 4 P(a+1, a)) / sqrt(a) + 4 f,

        whose terms are O(1) at every shape; g tends to 2 sqrt(2/pi).

        Below a = 1000, P(a+1, a) is its positive series (f / sqrt(a))
        (a / (a+1)) sum_n prod_{j=2..n+1} a / (a+j), at most about 280
        terms.  From there on, Temme's uniform expansion at x = a (DLMF
        8.12) gives Q(a, a) = 1/2 + S / sqrt(2 pi a), S = sum_k c_k a^-k
        (five terms, 9e-21 relative at a = 1000), and P(a+1, a) =
        1 - Q(a, a) - f / sqrt(a) turns g into 4 S / (a sqrt(2 pi)) +
        4 f / a + 4 f, free of cancellation, by Horner's rule in 1/a.
        """
        from .exact import _stirlerr
        a = self.shape
        f = math.exp(-_stirlerr([a])[0]) / math.sqrt(2.0 * math.pi)  # sqrt(a) f_a(a)
        if a < _TEMME_MIN_SHAPE:
            total, term, j = 1.0, 1.0, 2.0
            while True:
                term *= a / (a + j)
                if total + term == total:
                    break
                total += term
                j += 1.0
            p = a / (a + 1.0) * (f / math.sqrt(a)) * total
            g = (2.0 - 4.0 * p) / math.sqrt(a) + 4.0 * f
        else:
            inv = 1.0 / a
            s = 0.0
            for c in reversed(_TEMME_COEF):
                s = s * inv + c
            g = 4.0 * f + inv * (4.0 * f + 4.0 * s / math.sqrt(2.0 * math.pi))
        t = self.scale * math.sqrt(a)
        return float(t * t * t * g)

    def exact_law(self) -> DistributionTable:
        from .exact import nbinom_table
        return nbinom_table(self.shape, self.scale)


MIXINGS = (TwoPointMixing, GammaMixing)


@dataclass(frozen=True)
class MixedPoissonModel:
    """W ~ Poisson(xi) with random intensity xi from the given mixing law."""

    tag = "mixed"
    keys = (tuple(mix.tag for mix in MIXINGS),)
    law_keys = ()
    mixing: TwoPointMixing | GammaMixing

    @property
    def nu(self) -> float:
        return self.mixing.nu

    @property
    def sigma2(self) -> float:
        return self.mixing.sigma2

    def abs3(self) -> float:
        return self.mixing.abs3()

    def cp_params(self) -> CompoundPoissonParams:
        """Approximant rates lambda_1 = nu - sigma^2, lambda_2 = sigma^2 / 2."""
        nu, s2 = self.nu, self.sigma2
        if not nu > s2:
            raise ValueError("approximant undefined (lambda_1 < 0)")
        return CompoundPoissonParams((nu - s2, s2 / 2.0))

    def exact_law(self) -> DistributionTable:
        from .exact import mixed_exact_pmf
        return mixed_exact_pmf(self)

    def dk_bound(self, m1: float) -> float:
        """Kolmogorov bound d_K(W, U) <= 1.2 * M1 * E|xi - nu|^3; inf at an
        infinite M1."""
        return math.inf if m1 == math.inf else 1.2 * m1 * self.abs3()

    def to_json(self) -> dict:
        return {"model": self.tag, self.mixing.tag: list(astuple(self.mixing))}

    @classmethod
    def from_json(cls, obj: dict) -> MixedPoissonModel:
        for mix in MIXINGS:
            if mix.tag in obj:
                vals = [float(v) for v in obj[mix.tag]]
                if len(vals) != len(fields(mix)):
                    raise ValueError(f"{mix.tag} takes {len(fields(mix))} values")
                return cls(mix(*vals))
        raise KeyError(" or ".join(cls.keys[0]))


@dataclass(frozen=True)
class IndependentSumModel:
    """W = Z_1 + ... + Z_n with independent integer-valued components."""

    tag = "sums"
    keys = ("components",)
    law_keys = ()
    components: tuple[tuple[float, ...], ...]
    _moments: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __init__(self, components: Sequence[Sequence[float]]):
        import numpy as np

        comps = []
        for pmf in components:
            arr = tuple(float(v) for v in pmf)
            if len(arr) == 0 or not all(0.0 <= v < math.inf for v in arr):
                raise ValueError("component pmfs must be nonempty, finite and nonnegative")
            if abs(math.fsum(arr) - 1.0) > 1e-9:
                raise ValueError("component pmf must sum to 1")
            comps.append(arr)
        if not comps:
            raise ValueError("at least one component required")
        object.__setattr__(self, "components", tuple(comps))
        ew = 0.0
        vw = 0.0
        for pmf in comps:
            x = np.arange(len(pmf))
            w = np.asarray(pmf)
            m = float(x @ w)
            ew += m
            vw += float(((x - m) ** 2) @ w)
        object.__setattr__(self, "_moments", (ew, vw))

    @property
    def ew(self) -> float:
        return self._moments[0]

    @property
    def var_w(self) -> float:
        return self._moments[1]

    def cp_params(self) -> CompoundPoissonParams:
        """Approximant rates lambda_1 = 2 EW - Var W, lambda_2 = (Var W - EW)/2.

        The derived identities theta_0 = EW and theta_1 = Var W - EW hold, so
        the approximant matches W's mean and variance.
        """
        ew, vw = self.ew, self.var_w
        lam2 = (vw - ew) / 2.0
        lam1 = 2.0 * ew - vw
        if lam2 < 0.0:
            raise ValueError(f"Var(W) >= E(W) violated: Var(W) = {vw:g} < E(W) = {ew:g}")
        if lam1 < 0.0:
            raise ValueError(
                f"E(W) >= Var(W)/2 violated: E(W) = {ew:g} < Var(W)/2 = {vw / 2.0:g}"
            )
        return CompoundPoissonParams((lam1, lam2))

    def exact_law(self) -> DistributionTable:
        from .exact import sums_exact_pmf
        return sums_exact_pmf(self)

    def dk_bound(self, m1: float) -> None:
        """No closed-form distance bound is known for general sums."""
        return None

    def to_json(self) -> dict:
        return {"model": self.tag, "components": [list(c) for c in self.components]}

    @classmethod
    def from_json(cls, obj: dict) -> IndependentSumModel:
        return cls(obj["components"])


MODELS = {
    cls.tag: cls
    for cls in (RunsModel, ReliabilityModel, MixedPoissonModel, IndependentSumModel)
}

runs_cp_params = RunsModel.cp_params
runs_dk_bound = RunsModel.dk_bound
reliability_cp_params = ReliabilityModel.cp_params
reliability_dk_bound = ReliabilityModel.dk_bound
mixed_cp_params = MixedPoissonModel.cp_params
mixed_dk_bound = MixedPoissonModel.dk_bound
sums_cp_params = IndependentSumModel.cp_params


def model_from_json(obj: dict):
    """Rebuild a model from its tagged JSON form."""
    tag = obj.get("model")
    if tag not in MODELS:
        raise ValueError(f"unknown model tag {tag!r}")
    return MODELS[tag].from_json(obj)
