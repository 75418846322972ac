"""Log-space evaluation of the tilted-measure series.

Everything here is a ratio of exponential generating series
sum_k (x^k / k!) a_k with x = lam * log(1/theta) and positive
coefficients a_k drawn from the triangular tables (K_n and its
diagnostics) or from the moment recursion (the MGF).  They are summed in
log space; the one alternating series, the MGF's S(x - t) where t > x,
is summed in linear space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ldp
from .coefficients import CoeffTable, cached_table, lgamma_lookup, log_sum_exp
from .errors import DomainError, PrecisionError
from .model import SelectionSpec
from .moments import log_moments, log_moments_from_table  # noqa: F401  (perfbench wraps the latter)

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
MGF_RTOL = 1e-12  # largest relative rounding admitted in the MGF's alternating series


@dataclass(frozen=True)
class PhaseResult:
    lam: float
    u: int
    limit_homozygosity: Fraction
    limit_configuration: ldp.Configuration


def exp_series(
    x: float, log_coeffs: np.ndarray, start: int = 0, *, log_coeff_cap: float
) -> float:
    """log of sum_{k>=start} a_k x^k / k! over the supplied coefficients
    (log a_k, indexed from `start`), cut where its tail is certified.

    Past the Poisson mode (k + 2 > x) the terms after k shrink by at most
    x/(k+2) each, so they sum to at most cap x^{k+1}/(k+1)! / (1 - x/(k+2)),
    where cap bounds every dropped a_j: the largest supplied a_j past k, and
    exp(log_coeff_cap), which must bound every a_j past the supplied ones.
    The sum stops at the first such k whose bound is within DEFAULT_RTOL of
    the largest term up to k, so it depends on a_start..a_k alone, not on
    how many coefficients are supplied.  If the bound at the last supplied
    k is not within DEFAULT_RTOL, PrecisionError is raised rather than
    silently truncating.  The coefficients must hold no NaN or +inf and at
    least one finite log a_k.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 0, got {x}")
    log_coeffs = np.asarray(log_coeffs, dtype=float)
    if log_coeffs.size == 0 or not np.isfinite(top := log_coeffs.max()):
        raise DomainError("coefficients must be non-empty, free of NaN and +inf, and not all 0")
    if x == 0.0:
        return float(log_coeffs[0]) if start == 0 else -math.inf
    log_terms = _log_terms(x, log_coeffs, start)
    k_last = start + log_coeffs.size - 1
    if x >= k_last + 2:
        raise PrecisionError(
            f"coefficient sequence ends at k={k_last} inside the series "
            f"bulk (x={x}); enlarge the table"
        )
    first = max(0, math.floor(x) - 1 - start)  # k + 2 > x from here on
    caps = log_coeff_cap
    if top > log_coeff_cap:  # caps[i]: the largest a_j past k = start + first + i
        caps = np.maximum.accumulate(np.append(log_coeff_cap, log_coeffs[:first:-1]))[::-1]
    log_tail = _log_tail(x, np.arange(start + first, k_last + 1, dtype=float), caps)
    ok = log_tail <= math.log(DEFAULT_RTOL) + np.maximum.accumulate(log_terms)[first:]
    if not ok[-1]:
        raise PrecisionError(
            f"series tail bound {log_tail[-1]:.3f} (log) above tolerance at "
            f"k={k_last}, x={x}"
        )
    return float(log_sum_exp(log_terms[: first + int(ok.argmax()) + 1]))


def _log_terms(x: float, log_coeffs: np.ndarray, start: int = 0) -> np.ndarray:
    """log (a_k x^k / k!), k = start, start+1, ... along the first axis of
    log_coeffs (log a_k)."""
    k = np.arange(start, start + len(log_coeffs), dtype=float)
    if log_coeffs.ndim == 2:
        k = k[:, None]
    return log_coeffs + k * math.log(x) - _log_factorial(k)


def _log_tail(x: float, k: np.ndarray, log_cap):
    """log of cap x^{k+1}/(k+1)! / (1 - x/(k+2)), which bounds
    sum_{j>k} a_j x^j/j! when every a_j <= cap and k + 2 > x."""
    k2 = k + 2.0
    return log_cap + (k2 - 1.0) * math.log(x) - _log_factorial(k + 1.0) - np.log1p(-x / k2)


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """log k! for the whole numbers k >= 0 (held as floats), from the
    lookup of lgamma(n + 1)."""
    n = k.astype(int)
    return lgamma_lookup(1.0, int(n.max()) + 1)[n]


def _more_terms(x: float, k_last: int, log_peaks: np.ndarray, log_caps: np.ndarray) -> int:
    """How many terms past k_last some series need before exp_series
    certifies each: 0 if it would at k_last, else the fewest that bring
    every tail bound within DEFAULT_RTOL / 2 of its series' largest term so
    far (log_peaks), each with the cap on its coefficients past k_last
    (log_caps); at most 2 k_last + 2 more terms past the Poisson mode.

    The half tolerance leaves room for exp_series's own check, which rounds
    differently.  A series' largest term only grows with more terms and its
    cap does not, so the count never overshoots once the terms held include
    each series' largest.  The bounds are searched in windows from lo that
    double until one holds every answer, so the log k! lookup grows only
    as far as the count needs.
    """
    lo = max(k_last, math.floor(x) - 1)  # k + 2 > x from here on: the bound falls in k
    span = 2 * k_last + 3
    allowance = math.log(DEFAULT_RTOL / 2) + log_peaks - log_caps
    width = min(span, 64)
    while True:
        k = np.arange(lo, lo + width, dtype=float)
        need = np.searchsorted(-_log_tail(x, k, 0.0), -allowance).max()
        if need < width or width == span:
            return int(k[min(need, width - 1)]) - k_last
        width = min(2 * width, span)


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


def _log_series(table: CoeffTable, l: int, x: float, shift: int = 0) -> float:
    """log of sum_{k>=l} (x^k/k!) A(k+shift, l) over the rows held."""
    return exp_series(x, table.log_entries[l + shift :, l], start=l, log_coeff_cap=_log_a_cap(l))


def _log_peaks(x: float, table: CoeffTable, ls: range, shift: int) -> np.ndarray:
    """The largest log term held of sum_{k>=l} (x^k/k!) A(k+shift, l), for
    each column l in ls."""
    terms = _log_terms(x, table.log_entries[shift:, ls.start : ls.stop])
    k = np.arange(len(terms))[:, None]
    return np.where(k >= ls, terms, -np.inf).max(axis=0)


def _certified_table(theta: float, x: float, cols: int, ls: range, shifts) -> CoeffTable:
    """The table held at theta, with columns 1..cols at least, grown by rows
    from the Poisson bulk of x until exp_series certifies _log_series for
    every column l in ls at every shift in shifts."""
    rows = _bulk_terms(x) + ls[-1] + max(shifts)
    log_caps = _log_a_cap(np.array(ls))
    while True:
        table = cached_table(theta, rows, cols=cols)
        if x == 0.0:  # each series is its first term
            return table
        more = max(_more_terms(x, table.kmax - s, _log_peaks(x, table, ls, s), log_caps)
                   for s in shifts)
        if more == 0:
            return table
        rows = table.kmax + more


def _floor_lam(lam: float) -> int:
    lf = math.floor(lam)
    if lf < 1:
        raise DomainError(f"series over l = 1..floor(lam) is empty for lam={lam}")
    return lf


def _log_num_den(spec: SelectionSpec, n: int, table: CoeffTable) -> float:
    """log of sum_{l=1}^{[lam]} theta^l sum_k (x^k/k!) A(k+n, l)."""
    lf = _floor_lam(spec.lam)
    if spec.x == 0.0:  # every inner series starts at x^l, l >= 1
        raise DomainError("the series vanish at theta = 1 (x = 0): K_n is 0/0 there")
    log_theta = math.log(spec.theta)
    parts = [l * log_theta + _log_series(table, l, spec.x, shift=n) for l in range(1, lf + 1)]
    return float(log_sum_exp(np.array(parts)))


def _series_table(spec: SelectionSpec, n: int, limit: bool) -> CoeffTable:
    """The cached table for the series of K_n at spec: columns 1..[lam],
    rows enough to certify them unshifted and shifted by n."""
    lf = _floor_lam(spec.lam)
    theta = 0.0 if limit else spec.theta
    return _certified_table(theta, spec.x, lf, range(1, lf + 1), (0, n))


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
    cols, table = lf + 1, None
    total = 0.0
    for l in itertools.count(lf + 1):
        if table is None or l > cols:  # the next block of columns, certified at once
            cols *= 2  # doubling keeps the builds O(kmax^2 l) in all
            table = _certified_table(spec.theta, spec.x, cols, range(l, cols + 1), (0,))
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


def _log_moment_series(theta: float, x: float, series: list[tuple[int, float]]) -> list[float]:
    """log sum_k (x^k/k!) m_{n+k} (1+d)^k, the series sum_k (y^k/k!) m_{n+k}
    at y = x (1+d), for each (n, d) in series, -1 <= d <= 0.

    The moments come from the moment recursion, with no table built, grown
    from the Poisson bulk of x until every series is certified; m_k =
    E(1-H2)^k falls in k, and so does each coefficient, so the last one
    supplied caps every one past it.
    """
    n_max = max(n for n, _ in series)
    m_top = _bulk_terms(x)
    while True:
        logm = log_moments(theta, m_top + n_max)
        k = np.arange(m_top + 1.0)
        coeffs = np.array([logm[n : n + m_top + 1] + _log_powers(k, d) for n, d in series])
        if x == 0.0:  # each series is its first term
            break
        peaks = _log_terms(x, coeffs.T).max(axis=0)
        more = _more_terms(x, m_top, peaks, coeffs[:, -1])
        if more == 0:
            break
        m_top += more
    return [exp_series(x, c, log_coeff_cap=c[-1]) for c in coeffs]


def _log_powers(k: np.ndarray, d: float) -> np.ndarray:
    """log (1+d)^k for -1 <= d <= 0, where (1+d)^0 = 1 at d = -1 too."""
    if d == -1.0:  # y = 0: only the k = 0 term is left
        return np.where(k == 0.0, 0.0, -math.inf)
    return k * math.log1p(d)


def _alternating_moment_series(theta: float, y: float) -> float:
    """sum_k (y^k/k!) m_k for -MAX_ABS_T <= y < 0, in linear space.

    It stops past -y where the rest, below |y|^{k+1}/(k+1)!/(1-|y|/(k+2))
    as m_k <= 1, is under 2^-53 of its first term m_0 = 1 (by k = 166 at
    y = -50).  Each term carries its moment's rounding, which grows about
    linearly in k, so PrecisionError is raised where the sum cancels so far
    that sum_k |term_k| (k+1) 2^-52 passes MGF_RTOL of it.
    """
    k = np.arange(math.floor(-y) + 1, 5 * MAX_ABS_T)
    top = int(k[np.argmax(_log_tail(-y, k, 0.0) < -53.0 * math.log(2.0))])
    terms = np.exp(_log_terms(-y, log_moments(theta, top)))
    terms[1::2] *= -1.0
    total = math.fsum(terms)
    rounding = math.fsum(np.abs(terms) * np.arange(1.0, top + 2.0)) * 2.0**-52
    if rounding > MGF_RTOL * abs(total):
        raise PrecisionError(
            f"alternating MGF series cancels at x - t = {y}: its rounding "
            f"{rounding:.3e} passes {MGF_RTOL:g} of its sum {total:.3e}"
        )
    return total


def mgf(spec: SelectionSpec, t: float) -> float:
    """Moment generating function of the homozygosity under the tilted
    measure: e^t S(x - t) / S(x), where S(y) = sum_k (y^k/k!) m_k is
    E e^{y(1-H2)} under PD(theta).

    Where x >= t both series have positive terms.  They are summed at the
    one argument max(x, x - t), the other's coefficients scaled by
    (1 - |t|/max)^k, so the roundings of the factors they share (x^k/k!,
    and x itself) cancel in the ratio.  Where x < t <= MAX_ABS_T, S(x - t)
    alternates: it is summed in linear space, or refused where it cancels.
    """
    if not abs(t) <= MAX_ABS_T:
        raise DomainError(f"|t| must be <= {MAX_ABS_T}, got {t}")
    if t == 0.0:
        return 1.0
    x = spec.x
    if x < t:
        (log_den,) = _log_moment_series(spec.theta, x, [(0, 0.0)])
        return math.exp(t - log_den) * _alternating_moment_series(spec.theta, x - t)
    scale = max(x, x - t)
    log_num, log_den = _log_moment_series(
        spec.theta, scale, [(0, min(0.0, -t) / scale), (0, min(0.0, t) / scale)]
    )
    return math.exp(t + log_num - log_den)


def tilted_mean_heterozygosity(spec: SelectionSpec) -> float:
    """E[1 - H2] under the tilted measure: S_1 / S_0, S_n = sum_k (x^k/k!) m_{n+k}."""
    log_s0, log_s1 = _log_moment_series(spec.theta, spec.x, [(0, 0.0), (1, 0.0)])
    return math.exp(log_s1 - log_s0)


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
