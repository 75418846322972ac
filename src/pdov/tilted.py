"""Log-space evaluation of the tilted-measure series.

Everything here is a ratio of exponential generating series
sum_k (x^k / k!) a_k with x = lam * log(1/theta) and positive
coefficients a_k drawn from the triangular tables (K_n and its
diagnostics) or from the moment recursions (the MGF), all summed in log
space.

One check, _certify, cuts a block of positive series where each tail is
certified, or says how many more terms to hold (_more_terms): tables and
moment runs grow by that count until the same check sums every series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coefficients, ldp
from .coefficients import cached_table, lgamma_lookup, log_sum_exp
from .errors import DomainError, PrecisionError
from .model import SelectionSpec
from .moments import _check_moment_run, log_homozygosity_moments, log_moments
from .moments import log_moments_from_table  # noqa: F401  (perfbench wraps it)

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


@dataclass(frozen=True)
class PhaseResult:
    """The phase u of lam, u(u-1) < lam <= u(u+1), and its limits."""

    lam: float
    u: int

    @property
    def limit_homozygosity(self) -> Fraction:
        return Fraction(1, self.u)

    @property
    def limit_configuration(self) -> ldp.Configuration:
        return ldp.uniform_config(self.u)


def exp_series(
    x: float, log_coeffs: np.ndarray, start: int = 0, *, log_coeff_cap: float
) -> float:
    """log of sum_{k>=start} a_k x^k / k! over the supplied coefficients
    (log a_k, indexed from `start`), cut where _certify certifies its tail,
    with exp(log_coeff_cap) bounding every a_k past the supplied ones.

    If the tail is not certified by the last supplied k, PrecisionError is
    raised rather than silently truncating.  The coefficients must hold no
    NaN or +inf and at least one finite log a_k.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    log_coeffs = np.asarray(log_coeffs, dtype=float)
    if log_coeffs.size == 0 or not np.isfinite(log_coeffs.max()):
        raise DomainError("coefficients must be non-empty, free of NaN and +inf, and not all 0")
    row = np.concatenate([np.full(start, -math.inf), log_coeffs])[None]
    log_sums, more = _certify(x, row, np.array([start]), np.array([log_coeff_cap]))
    if more:
        raise PrecisionError(
            f"series tail not certified by its last coefficient, k={row.shape[1] - 1}, "
            f"at x={x}: {more} more needed"
        )
    return float(log_sums[0])


def _certify(x: float, log_coeffs: np.ndarray, starts: np.ndarray, log_caps: np.ndarray):
    """(log sums, 0) for a block of series, row i's sum being
    sum_{k>=starts[i]} a_k x^k / k! with log a_k = log_coeffs[i, k], each
    cut where its tail is certified; or (None, more) if some series is not
    certified by the last column, more being the columns _more_terms adds.

    Past the Poisson mode (k + 2 > x) the terms after k shrink by at most
    x/(k+2) each, so they sum to at most cap x^{k+1}/(k+1)! / (1 - x/(k+2)),
    where cap bounds every dropped a_j: the largest a_j held past k, and
    exp(log_caps[i]), which must bound every a_j past the last column.  A
    series stops at the first such k whose bound is within DEFAULT_RTOL of
    its largest term up to k, so its sum depends on a_start..a_k alone, not
    on how many columns are held.  Each row must hold a finite log a_k from
    its start on, and no NaN or +inf.
    """
    k_last = log_coeffs.shape[1] - 1
    if x == 0.0:  # each series is its first term
        return np.where(starts == 0, log_coeffs[:, 0], -math.inf), 0
    k = np.arange(k_last + 1)
    terms = log_coeffs + k * math.log(x) - _log_factorial(k)  # log (a_k x^k / k!)
    terms = np.where(k >= starts[:, None], terms, -math.inf)
    peaks = np.maximum.accumulate(terms, axis=1)  # -inf before a series starts
    first = max(0, math.floor(x) - 1)  # k + 2 > x from here on
    if first <= k_last:
        # caps[:, -1 - i]: the largest a_j past k = first + i
        caps = np.maximum.accumulate(np.column_stack([log_caps, log_coeffs[:, :first:-1]]), axis=1)
        log_tail = _log_tail(x, k[first:].astype(float), caps[:, ::-1])
        ok = log_tail <= math.log(DEFAULT_RTOL) + peaks[:, first:]
        if ok[:, -1].all():
            cuts = first + ok.argmax(axis=1)
            return np.array([log_sum_exp(t[s : c + 1]) for t, s, c in zip(terms, starts, cuts)]), 0
    return None, _more_terms(x, k_last, peaks[:, -1], log_caps)


def _log_tail(x: float, k: np.ndarray, log_cap):
    """log of cap x^{k+1}/(k+1)! / (1 - x/(k+2)), which bounds
    sum_{j>k} a_j x^j/j! when every a_j <= cap and k + 2 > x."""
    k2 = k + 2.0
    return log_cap + (k2 - 1.0) * math.log(x) - _log_factorial(k + 1.0) - np.log1p(-x / k2)


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! for the whole numbers k >= 0 (as ints or floats), from the
    lookup of lgamma(n + 1)."""
    n = k.astype(int)
    return lgamma_lookup(1.0, int(n.max()) + 1)[n]


def _more_terms(x: float, k_last: int, log_peaks: np.ndarray, log_caps: np.ndarray) -> int:
    """How many terms past k_last to grow a block of series by: 0 if each
    tail bound at k_last is within DEFAULT_RTOL / 2 of its series' largest
    term so far (log_peaks), with the cap on its coefficients past k_last
    (log_caps), else the fewest that bring every one there; at most
    2 k_last + 2 more terms past the Poisson mode.

    The half tolerance is only a growth target, which _certify's check at
    DEFAULT_RTOL then meets with room to spare.  A series' largest term only
    grows with more terms and its cap does not, so the count never
    overshoots once the terms held include each series' largest.  The
    bounds are searched over [lo, lo + 2 k_last + 3) at once.
    """
    lo = max(k_last, math.floor(x) - 1)  # k + 2 > x from here on: the bound falls in k
    k = np.arange(lo, lo + 2 * k_last + 3, dtype=float)
    allowance = math.log(DEFAULT_RTOL / 2) + log_peaks - log_caps
    need = np.searchsorted(-_log_tail(x, k, 0.0), -allowance).max()
    return int(k[min(need, len(k) - 1)]) - k_last


def _bulk_terms(x: float) -> int:
    """Terms to size a series at x from at first: past the Poisson bulk
    around x.  A moment series' largest term lies below x, that of
    sum_k (x^k/k!) A(k,l) below x + l (seen up to x = 83, l = 58), so
    callers add l; a start short of a series' largest term only makes its
    first growth step overshoot."""
    return math.ceil(x + 3.0 * math.sqrt(x) + 4.0)


def _log_a_cap(l):
    """log 2^{2-l}, which bounds every A(k,l)(theta)."""
    return (2 - l) * math.log(2.0)


def _column_sums(theta: float, x: float, ls: range, shifts) -> list[np.ndarray]:
    """log of sum_{k>=l} (x^k/k!) A(k+s, l) for each column l in ls, one
    array for each shift s in shifts, over the table held at theta with
    columns 1..ls[-1] at least, grown by rows from the Poisson bulk of x
    until every one of these series is certified."""
    starts = np.arange(ls.start, ls.stop)
    log_caps = _log_a_cap(starts)
    rows = _bulk_terms(x) + ls[-1] + max(shifts)
    while True:
        table = cached_table(theta, rows, cols=ls[-1])
        block = table.log_entries.T[ls.start : ls.stop]
        sums = [_certify(x, block[:, s:], starts, log_caps) for s in shifts]
        more = max(m for _, m in sums)
        if not more:
            return [log_sums for log_sums, _ in sums]
        rows = table.kmax + more


def _floor_lam(lam: float) -> int:
    """floor(lam), the columns a series over l = 1..floor(lam) reads,
    refused before any column array is built where no table could be: a
    table of cols columns has kmax >= cols rows, so kmax^2 cols >= cols^3."""
    lf = math.floor(lam)
    if lf < 1:
        raise DomainError(f"series over l = 1..floor(lam) is empty for lam={lam}")
    if lf**3 > coefficients.MAX_TABLE_WORK:
        raise DomainError(
            f"floor(lam) = {lf:.3g} columns: kmax^2 cols >= cols^3 > {coefficients.MAX_TABLE_WORK:.3g}"
        )
    return lf


def _log_num_den(spec: SelectionSpec, n: int, limit: bool = False) -> tuple[float, float]:
    """The logs of K_n's numerator and denominator,
    sum_{l=1}^{[lam]} theta^l sum_k (x^k/k!) A(k+s, l) at s = n and s = 0,
    with the coefficients at theta, or their limits where limit is set."""
    lf = _floor_lam(spec.lam)
    if spec.x == 0.0:  # every inner series starts at x^l, l >= 1
        raise DomainError("the series vanish at theta = 1 (x = 0): K_n is 0/0 there")
    log_weights = np.arange(1, lf + 1) * math.log(spec.theta)
    sums = _column_sums(0.0 if limit else spec.theta, spec.x, range(1, lf + 1), (n, 0))
    return tuple(float(log_sum_exp(log_weights + s)) for s in sums)


def k_ratio(spec: SelectionSpec, n: int, use_limit_coeffs: bool = False) -> float:
    """The shifted-to-unshifted series ratio K_n (or its limit-coefficient
    twin when use_limit_coeffs is set); K_0 = 1 exactly."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    log_num, log_den = _log_num_den(spec, n, use_limit_coeffs)
    return math.exp(log_num - log_den)


def proof_diagnostics(spec: SelectionSpec, n: int) -> tuple[float, float]:
    """(F, G) such that K_n = (K~_n + F) / (1 + G).

    F collects the coefficient perturbation A(theta) - A in the shifted
    numerator, G the same in the denominator; both are O([lam] * theta).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    log_num_t, log_den_t = _log_num_den(spec, n)
    log_num_0, log_den_0 = _log_num_den(spec, n, limit=True)
    # F = e^{num_0 - den_0} (e^{num_t - num_0} - 1): taken as differences of
    # the logs, F and G keep their relative precision however small theta is
    f = math.exp(log_num_0 - log_den_0) * math.expm1(log_num_t - log_num_0)
    g = math.expm1(log_den_t - log_den_0)
    return f, g


def tail_bound(spec: SelectionSpec) -> tuple[float, float]:
    """(computed tail over l > [lam], closed-form bound).

    computed = sum_{l=[lam]+1} theta^l sum_k (x^k/k!) A(k,l)(theta),
    summed until numerically exhausted over the table held at theta, whose
    columns read start at 2([lam]+1) and double whenever the sum reaches
    past them, each new block of columns certified at once.  A block widens
    the rows held and adds the rows it needs above them, so no row is
    computed twice.  The bound is 4 theta^{[lam]-lam+1} / 2^{[lam]+1} * 2/(2-theta).
    """
    lf = _floor_lam(spec.lam)
    log_theta = math.log(spec.theta)
    cols, block = lf + 1, None
    total = 0.0
    for l in itertools.count(lf + 1):
        if block is None or l > cols:  # the next block of columns, certified at once
            cols *= 2  # doubling keeps the builds O(kmax^2 l) in all
            base = l
            (block,) = _column_sums(spec.theta, spec.x, range(l, cols + 1), (0,))
        term = math.exp(l * log_theta + block[l - base])
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


def _log_moment_series(theta: float, x: float, series: list[tuple[int, float]],
                       family=log_moments) -> np.ndarray:
    """log sum_k (x^k/k!) m_{n+k} (1+d)^k, the series sum_k (y^k/k!) m_{n+k}
    at y = x (1+d), for each (n, d) in series, -1 <= d <= 0, with log m_0..
    log m_K = family(theta, K): E(1-H2)^j by default, or E H2^j.

    The moments, from their recursion with no table built, are grown from
    the Poisson bulk of x until every series is certified; m_k falls in k,
    and so does each coefficient, so the last one held caps the rest.
    """
    n_max = max(n for n, _ in series)
    m_top = _bulk_terms(x)
    starts = np.zeros(len(series), dtype=int)
    while True:
        logm = family(theta, m_top + n_max)
        k = np.arange(m_top + 1.0)
        coeffs = np.array([logm[n : n + m_top + 1] + _log_powers(k, d) for n, d in series])
        log_sums, more = _certify(x, coeffs, starts, coeffs[:, -1])
        if not more:
            return log_sums
        m_top += more


def _log_powers(k: np.ndarray, d: float) -> np.ndarray:
    """log (1+d)^k for -1 <= d <= 0, where (1+d)^0 = 1 at d = -1 too."""
    if d == -1.0:  # y = 0: only the k = 0 term is left
        return np.where(k == 0.0, 0.0, -math.inf)
    return k * math.log1p(d)


def mgf(spec: SelectionSpec, t: float) -> float:
    """Moment generating function of the homozygosity under the tilted
    measure: e^t S(x - t) / S(x), where S(y) = sum_k (y^k/k!) m_k is
    E e^{y(1-H2)} under PD(theta).

    Where t <= x both series have positive terms.  They are summed at the
    one argument max(x, x - t), the other's coefficients scaled by
    (1 - |t|/max)^k, so the roundings of the factors they share (x^k/k!,
    and x itself) cancel in the ratio.  Where t > x, S(x - t) alternates:
    the numerator is e^x H(t - x) instead, H(s) = sum_k (s^k/k!) E H2^k =
    E e^{s H2}, a positive series.  An mgf past the largest float is
    refused, and so is a run past MAX_MOMENTS.  Where t > x, log H is
    convex with slope E H2 = 1/(1+theta) at 0, so log mgf(t) lies above its
    tangent at t = x, x - log S(x) + (t - x)/(1+theta); a t where that
    passes the log of the largest float is refused before H is summed, and
    a t whose H needs a run past MAX_MOMENTS before either.
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if t == 0.0:
        return 1.0
    x = spec.x
    log_max = math.log(np.finfo(float).max)
    if x < t:
        _check_moment_run(spec.theta, _bulk_terms(t - x))  # the h run's first size, up front
        (log_den,) = _log_moment_series(spec.theta, x, [(0, 0.0)])
        # less a margin far above log S(x)'s rounding, ~1e-12 of x in the oracle tests
        if x - log_den + (t - x) / (1.0 + spec.theta) - 1e-9 * (1.0 + x) > log_max:
            raise DomainError(f"mgf at t={t} passes the largest float: its tangent at t = x does")
        (log_num,) = _log_moment_series(spec.theta, t - x, [(0, 0.0)], log_homozygosity_moments)
        log_mgf = x + log_num - log_den
    else:
        scale = max(x, x - t)
        log_num, log_den = _log_moment_series(
            spec.theta, scale, [(0, min(0.0, -t) / scale), (0, min(0.0, t) / scale)]
        )
        log_mgf = t + log_num - log_den
    if log_mgf > log_max:
        raise DomainError(f"mgf at t={t} passes the largest float")
    return math.exp(log_mgf)


def tilted_mean_heterozygosity(spec: SelectionSpec) -> float:
    """E[1 - H2] under the tilted measure: S_1 / S_0, S_n = sum_k (x^k/k!) m_{n+k}."""
    log_s0, log_s1 = _log_moment_series(spec.theta, spec.x, [(0, 0.0), (1, 0.0)])
    return math.exp(log_s1 - log_s0)


def classify_phase(lam: float) -> PhaseResult:
    """The unique u >= 1 with u(u-1) < lam <= u(u+1), exact in O(1) time.

    Critical values lam = u(u+1) belong to phase u (closed right
    endpoint): the tie between the two candidate series bases is broken
    by the polynomial prefactor, which favors the smaller level.  lam must
    be finite and > 0 (refused by ldp._level).
    """
    return PhaseResult(lam, ldp._level(lam))


def limit_mgf(lam: float, t: float) -> float:
    """Limiting MGF e^{t/u} of the homozygosity as theta -> 0."""
    u = classify_phase(lam).u
    return math.exp(t / u)
