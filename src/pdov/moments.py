"""Heterozygosity moments m_k = E(1-H2)^k under PD(theta).

Three independent routes: the coefficient-table expansion, the direct
recursion, and a Monte Carlo oracle over GEM draws.  The beta_factor is
the Beta(1,theta) integral kernel the recursion is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, logsumexp

from . import mc
from .coefficients import CoeffTable, log_a1
from .errors import DomainError

__all__ = [
    "MomentVector",
    "moments_from_table",
    "moment_via_recursion",
    "beta_factor",
    "mc_moment_oracle",
    "log_moments_from_table",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class MomentVector:
    theta: float
    values: tuple  # values[i] is m_{i+1}

    def m(self, k: int) -> float:
        if not (1 <= k <= len(self.values)):
            raise DomainError(f"k={k} outside computed range 1..{len(self.values)}")
        return self.values[k - 1]


def log_moments_from_table(table: CoeffTable, kmax: int) -> np.ndarray:
    """log m_k for k = 0..kmax (m_0 = 1), from the coefficient expansion."""
    if table.theta <= 0.0:
        raise DomainError("moments need a table with theta > 0")
    if kmax > table.kmax:
        raise DomainError(f"kmax={kmax} exceeds table kmax={table.kmax}")
    if table.cols < table.kmax:
        raise DomainError(
            f"moments need every column; table holds 1..{table.cols} of {table.kmax}"
        )
    log_theta = math.log(table.theta)
    logm = np.empty(kmax + 1)
    logm[0] = 0.0
    l = np.arange(1, table.kmax + 1, dtype=float)
    weighted = table.log_entries[1 : kmax + 1, 1:] + l[None, :] * log_theta
    logm[1:] = logsumexp(weighted, axis=1)
    return logm


def moments_from_table(table: CoeffTable, kmax: int) -> MomentVector:
    """m_k = sum_l A(k,l)(theta) theta^l for k = 1..kmax."""
    logm = log_moments_from_table(table, kmax)
    return MomentVector(theta=table.theta, values=tuple(np.exp(logm[1:])))


def _log_recursion_weight(k: int, l: int, theta: float) -> float:
    return (
        math.log((2.0 * k + theta) / (2.0 * k))
        + k * _LN2
        + gammaln(k + 1.0)
        - l * _LN2
        - gammaln(l + 1.0)
        + gammaln(k + l + theta)
        - gammaln(2.0 * k + 1.0 + theta)
    )


@lru_cache(maxsize=16)
def _recursion_moments(theta: float) -> list[float]:
    """m_1, m_2, ... computed so far at theta; moment_via_recursion grows it."""
    return [theta / (1.0 + theta)]


def moment_via_recursion(theta: float, k: int) -> float:
    """m_k by direct recursion in m_1..m_{k-1}, independent of the table
    (it shares only the closed form of A(k,1) with the table build).

    Memoized per theta (the 16 most recent); O(k^2) total work.
    """
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    ms = _recursion_moments(theta)
    while len(ms) < k:
        j = len(ms) + 1
        acc = 0.0
        for l in range(1, j):
            acc += math.exp(_log_recursion_weight(j, l, theta)) * ms[l - 1]
        # free term: A(j,1)(theta) * theta
        ms.append(theta * acc + math.exp(log_a1(j, theta)) * theta)
    return ms[k - 1]


def beta_factor(k: int, l: int, theta: float) -> float:
    """2^{k-l} Gamma(k-l+1) Gamma(k+l+theta) theta / Gamma(2k+1+theta).

    Equals theta * E[(2U(1-U))^{k-l} (1-U)^{2l}] / ... with U ~ Beta(1,theta);
    checked against adaptive quadrature in the tests.
    """
    if theta <= 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    if not (0 <= l <= k):
        raise DomainError(f"need 0 <= l <= k, got (k={k}, l={l})")
    log = (
        (k - l) * _LN2
        + gammaln(k - l + 1.0)
        + gammaln(k + l + theta)
        + math.log(theta)
        - gammaln(2.0 * k + 1.0 + theta)
    )
    return math.exp(log)


def mc_moment_oracle(theta: float, k: int, n: int, seed: int) -> mc.TiltedEstimate:
    """Sample mean of (1-H2)^k over n independent GEM draws."""
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if n < 1000:
        raise DomainError(f"n must be >= 1000, got {n}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    h2 = mc.h2_samples(theta, n, seed)
    vals = (1.0 - h2) ** k
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n))
    return mc.TiltedEstimate(
        value=mean, std_error=se, n_samples=n, effective_sample_size=float(n)
    )
