"""Heterozygosity moments m_k = E(1-H2)^k under PD(theta).

Three routes: the coefficient-table expansion, the moment recursion

    m_j = theta sum_{l<j} w(j,l) m_l,     m_0 = 1

(the table's recursion summed over its columns, sharing w(k,l) and
log_sum_exp with the table but no arithmetic past them), and a Monte
Carlo oracle over GEM draws.  The beta_factor is the Beta(1,theta)
integral kernel the recursion is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from . import mc
from .coefficients import CoeffTable, log_sum_exp, log_w
from .errors import DomainError

__all__ = [
    "MomentVector",
    "moments_from_table",
    "moment_via_recursion",
    "log_moments",
    "beta_factor",
    "mc_moment_oracle",
    "log_moments_from_table",
]

_LN2 = math.log(2.0)
# ~MAX_MOMENTS^2 / 2 = 2e8 weight evaluations, ~20 s on one core
MAX_MOMENTS = 20_000


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
    logm[1:] = log_sum_exp(weighted, axis=1)
    return logm


def moments_from_table(table: CoeffTable, kmax: int) -> MomentVector:
    """m_k = sum_l A(k,l)(theta) theta^l for k = 1..kmax."""
    logm = log_moments_from_table(table, kmax)
    return MomentVector(theta=table.theta, values=tuple(np.exp(logm[1:])))


@lru_cache(maxsize=16)
def _log_moment_memo(theta: float) -> list[np.ndarray]:
    """One slot: the read-only log m_0..log m_k computed so far at theta."""
    return [np.zeros(1)]


def log_moments(theta: float, k: int) -> np.ndarray:
    """log m_j for j = 0..k (m_0 = 1, k >= 1) by the moment recursion

        m_j = theta sum_{l<j} w(j,l) m_l,

    one log_sum_exp per row, O(k^2) in all, memoized per theta (the
    16 most recent); more than MAX_MOMENTS moments are refused up front.
    """
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if not 1 <= k <= MAX_MOMENTS:
        cost = f"{k} moments need ~{k * k / 2:.3g} weight evaluations"
        raise DomainError(f"k={k} outside 1..{MAX_MOMENTS} ({cost})")
    memo = _log_moment_memo(theta)
    if len(memo[0]) <= k:
        logm = np.concatenate([memo[0], np.empty(k + 1 - len(memo[0]))])
        l = np.arange(float(k))
        for j in range(len(memo[0]), k + 1):
            logm[j] = math.log(theta) + log_sum_exp(log_w(j, l[:j], theta) + logm[:j])
        logm.setflags(write=False)
        memo[0] = logm
    return memo[0][: k + 1]


def moment_via_recursion(theta: float, k: int) -> float:
    """m_k from the moment recursion (see log_moments), no table built."""
    return math.exp(log_moments(theta, k)[k])


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
