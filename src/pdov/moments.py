"""Heterozygosity moments m_k = E(1-H2)^k under PD(theta).

Three routes: the coefficient-table expansion, the moment recursion

    m_j = theta sum_{l<j} w(j,l) m_l,     m_0 = 1

(the table's recursion summed over its columns, sharing w(k,l) and
log_sum_exp with the table but no arithmetic past them), and a Monte
Carlo oracle over GEM draws.  The beta_factor is the Beta(1,theta)
integral kernel the recursion is built from.
The homozygosity moments E H2^k follow from the same split of the first
stick U ~ Beta(1, theta) off the rest: H2 = U^2 + (1-U)^2 H2'.
"""

from __future__ import annotations

import math

import numpy as np

from . import mc
from .coefficients import CoeffTable, _held_run, lgamma_lookup, log_sum_exp, log_w, log_w_parts
from .errors import DomainError

__all__ = [
    "moments_from_table",
    "moment_via_recursion",
    "log_moments",
    "log_homozygosity_moments",
    "beta_factor",
    "mc_moment_oracle",
    "log_moments_from_table",
]

# ~MAX_MOMENTS^2 / 2 = 2e8 weight evaluations, ~20 s on one core
MAX_MOMENTS = 20_000


def log_moments_from_table(table: CoeffTable, kmax: int) -> np.ndarray:
    """log m_k for k = 0..kmax (m_0 = 1), from the coefficient expansion
    over columns 1..kmax, whatever more the table holds."""
    if table.theta <= 0.0:
        raise DomainError("moments need a table with theta > 0")
    if kmax > table.kmax:
        raise DomainError(f"kmax={kmax} exceeds table kmax={table.kmax}")
    if table.cols < kmax:
        raise DomainError(
            f"moments to k={kmax} need columns 1..{kmax}; table holds 1..{table.cols}"
        )
    log_theta = math.log(table.theta)
    logm = np.empty(kmax + 1)
    logm[0] = 0.0
    l = np.arange(1, kmax + 1, dtype=float)
    weighted = table.log_entries[1 : kmax + 1, 1 : kmax + 1] + l[None, :] * log_theta
    logm[1:] = log_sum_exp(weighted, axis=1)
    return logm


def moments_from_table(table: CoeffTable, kmax: int) -> np.ndarray:
    """m_k = sum_l A(k,l)(theta) theta^l for k = 0..kmax (m_0 = 1)."""
    return np.exp(log_moments_from_table(table, kmax))


def log_moments(theta: float, k: int) -> np.ndarray:
    """log m_j for j = 0..k (m_0 = 1, k >= 1) by the moment recursion

        m_j = theta sum_{l<j} w(j,l) m_l,

    one log_sum_exp per row over slices of log_w_parts, O(k^2) in all, each
    row computed once per theta held; more than MAX_MOMENTS are refused up front.
    """
    _check_moment_run(theta, k)

    def fill(logm, start):
        n = np.arange(k + 1)
        row, col, g = log_w_parts(theta, n[1:], n)  # log w(j,l) = row[j-1] + col[l] + g[j+l]
        for j in range(max(start, 1), k + 1):  # log m_0 = 0, as grown
            logm[j] = math.log(theta) + log_sum_exp(row[j - 1] + col[:j] + g[j : 2 * j] + logm[:j])

    return _held_run(theta, "log_m", k + 1, fill)


def _check_moment_run(theta: float, k: int) -> None:
    """Refuse theta outside (0, 1] or k outside 1..MAX_MOMENTS, up front."""
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if not 1 <= k <= MAX_MOMENTS:
        cost = f"{k} moments need ~{0.5 * k * k:.3g} weight evaluations"  # inf past ~1e154
        raise DomainError(f"k={k} outside 1..{MAX_MOMENTS} ({cost})")


def log_homozygosity_moments(theta: float, k: int) -> np.ndarray:
    """log h_j, h_j = E H2^j under PD(theta), for j = 0..k (h_0 = 1, k >= 1),
    by the expansion of H2 = U^2 + (1-U)^2 H2', U ~ Beta(1, theta),

        h_j 2j/(2j+theta) = sum_{i<j} C(j,i) theta B(2j-2i+1, 2i+theta) h_i:

    one log_sum_exp per row, O(k^2) in all, held and grown as log_moments
    holds its run; more than MAX_MOMENTS moments are refused up front."""
    _check_moment_run(theta, k)

    def fill(logh, start):
        fact, g = lgamma_lookup(1.0, 2 * k + 1), lgamma_lookup(theta, 2 * k + 2)
        by_gap = fact[::2] - fact[: k + 1]  # log (2n)!/n!, n = j - i
        by_low = math.log(theta) + g[: 2 * k : 2] - fact[:k]  # log theta Gamma(2i+theta)/i!
        by_low[0] = g[1]  # theta Gamma(theta) = Gamma(1+theta), free of a cancelling log theta
        for j in range(max(start, 1), k + 1):  # log h_0 = 0, as grown
            lse = log_sum_exp(by_gap[j:0:-1] + by_low[:j] + logh[:j])
            logh[j] = math.log1p(theta / (2 * j)) + fact[j] - g[2 * j + 1] + lse

    return _held_run(theta, "log_h", k + 1, fill)


def moment_via_recursion(theta: float, k: int) -> float:
    """m_k from the moment recursion (see log_moments), no table built."""
    return math.exp(log_moments(theta, k)[k])


def beta_factor(k: int, l: int, theta: float) -> float:
    """2^{k-l} Gamma(k-l+1) Gamma(k+l+theta) theta / Gamma(2k+1+theta)
    = theta (2k/(2k+theta)) w(k,l) / C(k,l), from coefficients.log_w (1 at k = 0).

    Equals theta * E[(2U(1-U))^{k-l} (1-U)^{2l}] / ... with U ~ Beta(1,theta);
    checked against adaptive quadrature in the tests.
    """
    if theta <= 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    if not (0 <= l <= k):
        raise DomainError(f"need 0 <= l <= k, got (k={k}, l={l})")
    if k == 0:  # theta Gamma(theta) / Gamma(1+theta)
        return 1.0
    fact = lgamma_lookup(1.0, k + 1)
    log_binom = fact[k] - fact[l] - fact[k - l]
    return math.exp(math.log(theta) - math.log1p(theta / (2 * k)) + log_w(k, l, theta) - log_binom)


def mc_moment_oracle(theta: float, k: int, n: int, seed: int) -> mc.TiltedEstimate:
    """Sample mean of (1-H2)^k over n independent GEM draws (theta is
    checked where they are drawn)."""
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
