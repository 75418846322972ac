"""Log-space evaluation of the tilted-measure series.

Everything here is a ratio of exponential generating series
sum_k (x^k / k!) a_k with x = lam * log(1/theta) and positive
coefficients a_k drawn from the triangular tables.  Inner sums are
accumulated in log space; the one alternating series (the outer MGF sum
over n) is summed in linear space with Kahan compensation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

from . import ldp
from .coefficients import CoeffTable, cached_table, series_kmax
from .errors import DomainError, PrecisionError
from .model import SelectionSpec
from .moments import log_moments_from_table

__all__ = [
    "SelectionSpec",
    "PhaseResult",
    "exp_series",
    "k_ratio",
    "proof_diagnostics",
    "tail_bound",
    "mgf",
    "tilted_mean_heterozygosity",
    "classify_phase",
    "limit_mgf",
]

DEFAULT_RTOL = 1e-13
MAX_ABS_T = 50.0


@dataclass(frozen=True)
class PhaseResult:
    lam: float
    u: int
    limit_homozygosity: Fraction
    limit_configuration: ldp.Configuration


def exp_series(
    x: float, log_coeffs: np.ndarray, start: int = 0, *, coeff_cap: float
) -> float:
    """log of sum_{k>=start} a_k x^k / k! over the supplied coefficients
    (log a_k, indexed from `start`).

    Every a_k past the supplied ones is assumed <= coeff_cap, so the
    truncated tail is bounded geometrically (terms past the Poisson mode
    shrink by x/(k+1) < 1); if the bound exceeds DEFAULT_RTOL times the
    sum, PrecisionError is raised rather than silently truncating.
    """
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    log_coeffs = np.asarray(log_coeffs, dtype=float)
    if log_coeffs.size == 0:
        raise DomainError("empty coefficient sequence")
    if x == 0.0:
        return float(log_coeffs[0]) if start == 0 else -math.inf
    k = np.arange(start, start + log_coeffs.size, dtype=float)
    log_terms = log_coeffs + k * math.log(x) - gammaln(k + 1.0)
    total = float(logsumexp(log_terms))
    k_last = start + log_coeffs.size - 1
    if x >= k_last + 2:
        raise PrecisionError(
            f"coefficient sequence ends at k={k_last} inside the series "
            f"bulk (x={x}); enlarge the table"
        )
    log_tail = (
        math.log(coeff_cap)
        + (k_last + 1) * math.log(x)
        - gammaln(k_last + 2.0)
        - math.log1p(-x / (k_last + 2.0))
    )
    if log_tail > math.log(DEFAULT_RTOL) + total:
        raise PrecisionError(
            f"series tail bound {log_tail:.3f} (log) above tolerance at "
            f"k={k_last}, x={x}"
        )
    return total


def _log_series(table: CoeffTable, l: int, x: float, shift: int = 0) -> float:
    """log of sum_{k=l}^{kmax-shift} (x^k/k!) A(k+shift, l)."""
    hi = table.kmax - shift
    if hi < l:
        raise PrecisionError(f"table kmax={table.kmax} too small for l={l}, shift={shift}")
    log_coeffs = table.log_entries[l + shift : table.kmax + 1, l]
    return exp_series(x, log_coeffs, start=l, coeff_cap=2.0 ** (2 - l))


def _floor_lam(lam: float) -> int:
    lf = math.floor(lam)
    if lf < 1:
        raise DomainError(f"series over l = 1..floor(lam) is empty for lam={lam}")
    return lf


def _log_num_den(spec: SelectionSpec, n: int, table: CoeffTable) -> float:
    """log of sum_{l=1}^{[lam]} theta^l sum_k (x^k/k!) A(k+n, l)."""
    lf = _floor_lam(spec.lam)
    log_theta = math.log(spec.theta)
    parts = [l * log_theta + _log_series(table, l, spec.x, shift=n) for l in range(1, lf + 1)]
    return float(logsumexp(parts))


def _series_table(
    spec: SelectionSpec, n: int, limit: bool, cols: int | None = None
) -> CoeffTable:
    """The cached table for the series at spec, shifted by n, holding
    columns 1..cols (default: the [lam] columns that K_n reads)."""
    kmax = series_kmax(spec.x) + n
    cols = _floor_lam(spec.lam) if cols is None else cols
    return cached_table(0.0 if limit else spec.theta, kmax, cols=cols)


def k_ratio(spec: SelectionSpec, n: int, use_limit_coeffs: bool = False) -> float:
    """The shifted-to-unshifted series ratio K_n (or its limit-coefficient
    twin when use_limit_coeffs is set); K_0 = 1 exactly."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    table = _series_table(spec, n, use_limit_coeffs)
    return math.exp(_log_num_den(spec, n, table) - _log_num_den(spec, 0, table))


def proof_diagnostics(spec: SelectionSpec, n: int) -> tuple[float, float]:
    """(F, G) such that K_n = (K~_n + F) / (1 + G).

    F collects the coefficient perturbation A(theta) - A in the shifted
    numerator, G the same in the denominator; both are O([lam] * theta).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    t_theta = _series_table(spec, n, limit=False)
    t_limit = _series_table(spec, n, limit=True)
    log_num_t = _log_num_den(spec, n, t_theta)
    log_num_0 = _log_num_den(spec, n, t_limit)
    log_den_t = _log_num_den(spec, 0, t_theta)
    log_den_0 = _log_num_den(spec, 0, t_limit)
    f = math.exp(log_num_t - log_den_0) - math.exp(log_num_0 - log_den_0)
    g = math.exp(log_den_t - log_den_0) - 1.0
    return f, g


def tail_bound(spec: SelectionSpec) -> tuple[float, float]:
    """(computed tail over l > [lam], closed-form bound).

    computed = sum_{l=[lam]+1} theta^l sum_k (x^k/k!) A(k,l)(theta),
    summed until numerically exhausted over a table whose column count
    starts at 2([lam]+1) and doubles whenever the sum reaches past it; the
    bound is
    4 theta^{[lam]-lam+1} / 2^{[lam]+1} * 2/(2-theta).
    """
    lf = _floor_lam(spec.lam)
    table = _series_table(spec, 0, limit=False, cols=2 * (lf + 1))
    log_theta = math.log(spec.theta)
    total = 0.0
    for l in range(lf + 1, table.kmax + 1):
        if l > table.cols:  # doubling keeps the rebuilds O(kmax^2 l) in all
            table = _series_table(spec, 0, limit=False, cols=2 * table.cols)
        term = math.exp(l * log_theta + _log_series(table, l, spec.x))
        total += term
        if term < 1e-18 * max(total, 1e-300):
            break
    analytic = (
        4.0
        * spec.theta ** (lf - spec.lam + 1.0)
        / 2.0 ** (lf + 1)
        * 2.0
        / (2.0 - spec.theta)
    )
    return total, analytic


def _log_moment_series(spec: SelectionSpec, n_max: int) -> np.ndarray:
    """log S_n for n = 0..n_max, where S_n = sum_m (x^m/m!) m_{n+m}.

    S_n / S_0 is the tilted n-th heterozygosity moment.
    """
    x = spec.x
    m_top = series_kmax(x)
    table = cached_table(spec.theta, m_top + n_max)
    logm = log_moments_from_table(table, m_top + n_max)
    if x == 0.0:
        return logm[: n_max + 1]
    m = np.arange(0, m_top + 1, dtype=float)
    base = m * math.log(x) - gammaln(m + 1.0)
    logS = np.empty(n_max + 1)
    for n in range(n_max + 1):
        logS[n] = logsumexp(base + logm[n : n + m_top + 1])
    return logS


def mgf(spec: SelectionSpec, t: float) -> float:
    """Moment generating function of the homozygosity under the tilted
    measure: e^t * (1 + sum_n ((-t)^n / n!) S_n / S_0).

    The outer alternating sum runs in linear space with Kahan
    compensation; the inner S_n are log-space series of positive terms.
    """
    if abs(t) > MAX_ABS_T:
        raise DomainError(f"|t| must be <= {MAX_ABS_T}, got {t}")
    if t == 0.0:
        return 1.0
    n_max = int(abs(t)) + 60
    logS = _log_moment_series(spec, n_max)
    acc = 1.0
    comp = 0.0
    log_term_n = 0.0  # log of |t|^n / n!
    converged = False
    for n in range(1, n_max + 1):
        log_term_n += math.log(abs(t)) - math.log(n)
        ratio = math.exp(logS[n] - logS[0])
        term = (-1.0 if (t > 0 and n % 2) else 1.0) * math.exp(log_term_n) * ratio
        y = term - comp
        s = acc + y
        comp = (s - acc) - y
        acc = s
        if n > abs(t) and abs(term) < 1e-15 * max(1.0, abs(acc)):
            converged = True
            break
    if not converged:
        raise PrecisionError(
            f"outer MGF series did not converge within n={n_max} terms at t={t}"
        )
    return math.exp(t) * acc


def tilted_mean_heterozygosity(spec: SelectionSpec) -> float:
    """E[1 - H2] under the tilted measure: S_1 / S_0."""
    logS = _log_moment_series(spec, 1)
    return math.exp(logS[1] - logS[0])


def classify_phase(lam: float) -> PhaseResult:
    """The unique u >= 1 with u(u-1) < lam <= u(u+1).

    Critical values lam = u(u+1) belong to phase u (closed right
    endpoint): the tie between the two candidate series bases is broken
    by the polynomial prefactor, which favors the smaller level.
    """
    if not lam > 0.0:
        raise DomainError(f"lam must be > 0, got {lam}")
    u = max(1, math.ceil((math.sqrt(1.0 + 4.0 * lam) - 1.0) / 2.0))
    while u * (u - 1) >= lam:
        u -= 1
    while u * (u + 1) < lam:
        u += 1
    return PhaseResult(
        lam=lam,
        u=u,
        limit_homozygosity=Fraction(1, u),
        limit_configuration=ldp.uniform_config(u),
    )


def limit_mgf(lam: float, t: float) -> float:
    """Limiting MGF e^{t/u} of the homozygosity as theta -> 0."""
    u = classify_phase(lam).u
    return math.exp(t / u)
