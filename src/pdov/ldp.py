"""Rate functions on the ordered simplex closure.

J is the energy-ladder rate for PD(theta); S_lam adds the selection term
lam * phi2 and recenters by the integer infimum.  The two-zero structure
at the critical lam = k(k+1) is an exact statement, so uniform
configurations carry an exact-arithmetic path (fractions) while general
configurations use floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "Configuration",
    "MASS_TOL",
    "phi2",
    "j_rate",
    "inf_term",
    "s_rate",
    "metric_d",
    "rate_I1",
    "rate_I2",
    "uniform_config",
]

MASS_TOL = 1e-12


@dataclass(frozen=True)
class Configuration:
    """Finite descending nonnegative vector with total mass <= 1.

    uniform_k marks the exact k-uniform configuration (1/k, ..., 1/k),
    which unlocks the rational-arithmetic path of s_rate.
    """

    entries: tuple
    uniform_k: int | None = None
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            e = self.entries
            if any(not v >= 0.0 for v in e):  # NaN fails too
                raise DomainError("configuration entries must be nonnegative")
            if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
                raise DomainError("configuration entries must be descending")
            if self.total_mass > 1.0 + MASS_TOL:
                raise DomainError(f"total mass {self.total_mass} exceeds 1")

    @property
    def total_mass(self) -> float:
        if self.uniform_k is not None:
            return 1.0
        return float(math.fsum(self.entries))

    @property
    def n_positive(self) -> int:
        return sum(1 for v in self.entries if v > 0.0)

    def on_simplex(self) -> bool:
        return abs(self.total_mass - 1.0) <= MASS_TOL


def uniform_config(k: int) -> Configuration:
    """The configuration with k entries of 1/k (exact-mass marked)."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return Configuration(entries=(1.0 / k,) * k, uniform_k=k)


def phi2(x: Configuration) -> float:
    """Sum of squared entries (the homozygosity functional)."""
    if x.uniform_k is not None:
        return 1.0 / x.uniform_k
    return float(math.fsum(v * v for v in x.entries))


def j_rate(x: Configuration) -> float:
    """0 on L_1, n-1 on L_n, +inf off the simplex (mass < 1)."""
    if not x.on_simplex():
        return math.inf
    return float(x.n_positive - 1)


@lru_cache(maxsize=64)
def _inf_exact(lam: float) -> tuple[Fraction, float, frozenset]:
    """Exact min over integers n >= 1 of lam/n + n - 1, its nearest float,
    and its minimizers, with lam taken at its binary-float value (memoized
    per lam)."""
    lam_q = Fraction(lam)
    # the objective is convex in n with minimum near sqrt(lam)
    n_hi = int(math.isqrt(int(lam_q)) + 3)
    best = None
    argmin: list[int] = []
    for n in range(1, n_hi + 1):
        val = lam_q / n + n - 1
        if best is None or val < best:
            best = val
            argmin = [n]
        elif val == best:
            argmin.append(n)
    return best, float(best), frozenset(argmin)


def inf_term(lam: float) -> tuple[float, frozenset]:
    """min over integers n >= 1 of lam/n + n - 1, with all minimizers.

    Ties (the critical lam = k(k+1)) are detected exactly: lam is taken
    at its binary-float value and compared in rational arithmetic.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lam must be finite and > 0, got {lam}")
    _, best, argmin = _inf_exact(float(lam))
    return best, argmin


def s_rate(x: Configuration, lam: float) -> float | Fraction:
    """J(x) + lam * phi2(x) - inf_n {lam/n + n - 1}.

    Uniform configurations go through exact rational arithmetic (lam taken
    at its exact binary-float value) and return a Fraction, so the two-zero
    structure at critical lam is exact; +inf off the simplex.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lam must be finite and > 0, got {lam}")
    if x.uniform_k is not None:
        k = x.uniform_k
        return (k - 1) + Fraction(lam) * Fraction(1, k) - _inf_exact(float(lam))[0]
    j = j_rate(x)
    if math.isinf(j):
        return math.inf
    return j + lam * phi2(x) - inf_term(lam)[0]


def metric_d(x: Configuration, y: Configuration) -> float:
    """sum_i |x_i - y_i| / 2^i; bounded by 1 on the simplex closure."""
    xe, ye = x.entries, y.entries
    n = max(len(xe), len(ye))
    total = 0.0
    for i in range(n):
        xi = xe[i] if i < len(xe) else 0.0
        yi = ye[i] if i < len(ye) else 0.0
        total += abs(xi - yi) * 0.5 ** (i + 1)
    return total


def _xlogx(v: float) -> float:
    return 0.0 if v == 0.0 else v * math.log(v)


def rate_I1(x: float, alpha: float) -> float:
    """Large-deviation rate of the mean of geometric(alpha) variables.

    Zero exactly at the mean (1-alpha)/alpha; x log x := 0 at x = 0.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    return (
        _xlogx(x)
        - (x + 1.0) * math.log(1.0 + x)
        - (x * math.log(1.0 - alpha) + math.log(alpha))
    )


def rate_I2(x: float, alpha: float) -> float:
    """Large-deviation rate of the mean of Bernoulli(alpha) variables.

    Zero exactly at x = alpha; boundary values extended by 0 log 0 = 0.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    term1 = 0.0 if x == 0.0 else x * math.log(x / alpha)
    term2 = 0.0 if x == 1.0 else (1.0 - x) * math.log((1.0 - x) / (1.0 - alpha))
    return term1 + term2
