"""Triangular coefficient tables for the heterozygosity moment expansion.

The table holds the coefficients of m_k = sum_l A(k,l) theta^l, built by
the one triangular recursion

    A(k,p) = sum_{l<k} w(k,l) A(l,p-1),     p >= 1,  A(l,0) = [l = 0],

with w(k,l) = ((2k+theta)/2k) * 2^k k! Gamma(k+l+theta)
              / (2^l l! Gamma(2k+1+theta)).  Its first column is the single
term A(k,1) = w(k,0) = 2^{k-1} (k-1)! Gamma(k+theta) / Gamma(2k+theta).

theta = 0 gives the limit table (the recursion specializes verbatim).
All entries are kept in log scale; gamma ratios are differences of
log-gamma, never ratios of raw gamma values, since Gamma(2k+1) overflows
doubles near k = 85.  Every log-space sum in pdov goes through
log_sum_exp.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

__all__ = [
    "CoeffTable",
    "build_coeff_table",
    "build_limit_table",
    "log_w",
    "log_sum_exp",
    "log_b_term",
    "c_constant",
    "log_asymptotic_A",
    "log_c_combined",
    "log_asymptotic_C",
    "series_kmax",
    "cached_table",
    "table_to_csv",
    "table_to_json",
]

_LN2 = math.log(2.0)
MAX_TABLE_WORK = 1e10  # bounds a build's kmax^2 cols: its work and O(kmax cols) memory


@dataclass(frozen=True)
class CoeffTable:
    """Triangular table of log A(k,l), 1 <= l <= min(k, cols), k <= kmax.

    theta == 0 marks the limit table.  Entries outside the triangle are
    -inf in the backing array, whose shape is (kmax+1, cols+1).
    """

    theta: float
    kmax: int
    log_entries: np.ndarray = field(repr=False)

    def log_entry(self, k: int, l: int) -> float:
        if not (1 <= l <= k <= self.kmax):
            raise DomainError(f"index (k={k}, l={l}) outside triangle kmax={self.kmax}")
        if l > self.cols:
            raise DomainError(f"column l={l} not built (table holds columns 1..{self.cols})")
        return float(self.log_entries[k, l])

    @property
    def cols(self) -> int:
        """Columns built: 1..cols (cols == kmax for a full table)."""
        return self.log_entries.shape[1] - 1

    @property
    def is_limit(self) -> bool:
        return self.theta == 0.0


def log_w(k, l, theta: float):
    """log w(k,l) = log of ((2k+theta)/2k) 2^k k! Gamma(k+l+theta)
    / (2^l l! Gamma(2k+1+theta)), the weight of both the table recursion
    and the moment recursion; k and l may be scalars or broadcast arrays."""
    return (
        np.log((2.0 * k + theta) / (2.0 * k))
        + k * _LN2
        + gammaln(k + 1.0)
        - l * _LN2
        - gammaln(l + 1.0)
        + gammaln(k + l + theta)
        - gammaln(2.0 * k + 1.0 + theta)
    )


def log_sum_exp(a: np.ndarray, axis=None):
    """log of sum(exp(a)) along axis (all of a by default), shifted by the
    maximum, which must be finite: every caller sums at least one finite
    term and no +inf or NaN."""
    peak = a.max(axis=axis, keepdims=True)
    return peak.squeeze(axis) + np.log(np.exp(a - peak).sum(axis=axis))


def build_coeff_table(theta: float, kmax: int, cols: int | None = None) -> CoeffTable:
    """Build the table of A(k,l)(theta) up to kmax, columns l = 1..cols
    (all kmax columns by default).

    theta = 0 yields the limit coefficients.  Column 1 is w(k,0); each row
    comes from the rows below it, its columns 2..min(k, cols) in one
    log_sum_exp over l < k, at a cost of ~kmax^2 cols / 2 terms (kmax^2
    cols > MAX_TABLE_WORK is refused up front).  Entry (k,p) is a sum of length k-1 over column
    p-1 whatever cols is, so a truncated build is bit-identical to the full
    one's columns."""
    if kmax < 1:
        raise DomainError(f"kmax must be >= 1, got {kmax}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must lie in [0, 1], got {theta}")
    cols = kmax if cols is None else cols
    if not (1 <= cols <= kmax):
        raise DomainError(f"cols must lie in 1..kmax={kmax}, got {cols}")
    if (work := kmax**2 * cols) > MAX_TABLE_WORK:
        raise DomainError(f"kmax^2 cols = {work:.3g} > {MAX_TABLE_WORK:.3g} ({kmax=}, {cols=})")

    k = np.arange(1, kmax + 1, dtype=float)
    by_col = np.full((cols + 1, kmax + 1), -np.inf)  # by_col[l, k] = log A(k,l)
    by_col[1, 1:] = log_w(k, 0.0, theta)  # A(k,1) = w(k,0) A(0,0)
    for j in range(2, kmax + 1) if cols > 1 else ():
        # row p-1 holds w(j,l) A(l,p-1), l < j; its -inf at l < p-1 adds 0
        terms = log_w(j, k[: j - 1], theta) + by_col[1 : min(j, cols), 1:j]
        by_col[2 : min(j, cols) + 1, j] = log_sum_exp(terms, axis=1)
    by_col.setflags(write=False)
    return CoeffTable(theta=float(theta), kmax=kmax, log_entries=by_col.T)


def build_limit_table(kmax: int) -> CoeffTable:
    """Table of the theta-free coefficients A(k,l) (theta = 0 tag)."""
    return build_coeff_table(0.0, kmax)


def log_b_term(k: int, l: int) -> float:
    """log B(k,l) = log w(k,l) at theta = 0: 2^k k! Gamma(k+l) / (2^l l! Gamma(2k+1)), l < k."""
    if not (1 <= l <= k - 1):
        raise DomainError(f"log_b_term needs 1 <= l <= k-1, got (k={k}, l={l})")
    return float(log_w(k, l, 0.0))


def c_constant(p: int) -> float:
    """C_1 = sqrt(pi); C_{p+1} = C_p sqrt(pi) ((p+2)/p)^{p/2}."""
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    c = math.sqrt(math.pi)
    for q in range(1, p):
        c *= math.sqrt(math.pi) * ((q + 2.0) / q) ** (q / 2.0)
    return c


def log_asymptotic_A(k: int, p: int) -> float:
    """log of the large-k approximation C_p k^{-p/2} (p/(p+1))^k.

    Evaluated verbatim at any k >= p; accuracy is only claimed for large k.
    """
    if not (1 <= p <= k):
        raise DomainError(f"need 1 <= p <= k, got (k={k}, p={p})")
    log = (
        math.log(c_constant(p))
        - 0.5 * p * math.log(k)
        + k * math.log(p / (p + 1.0))
    )
    return float(log)


def series_kmax(x: float) -> int:
    """Table size that keeps the truncated Poisson-weight tail below the
    series tolerance even against the crude constant-cap tail bound.

    The series sum_k (x^k/k!) a_k peaks near k = x, but with a_k decaying
    like 2^-k the total is only ~e^{x/2}, so the relative tail check needs
    the cut past ~2.2 x (where x^K/K! drops below e^{x/2} * 1e-13).
    """
    return int(math.ceil(2.3 * x + 14.0 * math.sqrt(max(x, 0.0)) + 60.0))


def _bucket(kmax: int) -> int:
    # round up so nearby requests share one cached build
    return ((kmax + 63) // 64) * 64


@lru_cache(maxsize=16)
def _cached_table(theta: float, kmax_bucket: int, cols: int) -> CoeffTable:
    return build_coeff_table(theta, kmax_bucket, cols)


def cached_table(theta: float, kmax: int, cols: int | None = None) -> CoeffTable:
    """Memoized table build (kmax rounded up to a shared bucket), columns
    1..cols capped at the bucket (all of them by default)."""
    bucket = _bucket(kmax)
    cols = bucket if cols is None else min(int(cols), bucket)
    return _cached_table(float(theta), bucket, cols)


def log_c_combined(k: int, l: int, lam: float, table: CoeffTable | None = None) -> float:
    """log of sum_{s=0}^{k-l} binom(k,s) ((lam-l)/lam)^s A(k-s,l).

    The binomial weight carries exponent s (the form consistent with the
    theta^{-(lam-l)} rescaling identity of the series it represents).
    """
    if not (1 <= l <= k):
        raise DomainError(f"need 1 <= l <= k, got (k={k}, l={l})")
    if lam <= l:
        raise DomainError(f"need lam > l, got (lam={lam}, l={l})")
    if table is None:
        table = cached_table(0.0, k, cols=l)
    elif not table.is_limit or table.kmax < k or table.cols < l:
        raise DomainError("log_c_combined needs a limit table with kmax >= k and cols >= l")

    s = np.arange(0, k - l + 1, dtype=float)
    log_binom = gammaln(k + 1.0) - gammaln(s + 1.0) - gammaln(k - s + 1.0)
    log_ratio = s * math.log((lam - l) / lam)
    ks = (k - s).astype(int)
    log_a = table.log_entries[ks, l]
    return float(log_sum_exp(log_binom + log_ratio + log_a))


def log_asymptotic_C(k: int, l: int, lam: float) -> float:
    """log of the large-k approximation of the log_c_combined sum:

    C_l (1 + (lam-l)(l+1)/(lam l))^{l/2} k^{-l/2} ((lam-l)/lam + l/(l+1))^k.
    """
    if not (1 <= l <= k):
        raise DomainError(f"need 1 <= l <= k, got (k={k}, l={l})")
    if lam <= l:
        raise DomainError(f"need lam > l, got (lam={lam}, l={l})")
    base = (lam - l) / lam + l / (l + 1.0)
    log = (
        math.log(c_constant(l))
        + 0.5 * l * math.log1p((lam - l) * (l + 1.0) / (lam * l))
        - 0.5 * l * math.log(k)
        + k * math.log(base)
    )
    return float(log)


def _linear_repr(log_value: float) -> str:
    if log_value == -np.inf:
        return "0"
    if abs(log_value) < 700.0:
        return f"{math.exp(log_value):.17g}"
    # value not representable in linear scale: emit scientific notation
    # from the log representation
    log10 = log_value / math.log(10.0)
    exp10 = math.floor(log10)
    mantissa = 10.0 ** (log10 - exp10)
    return f"{mantissa:.17g}e{exp10:+d}"


def table_to_csv(table: CoeffTable, fp) -> None:
    """Write the triangle as rows k,l,A."""
    writer = csv.writer(fp)
    writer.writerow(["k", "l", "A"])
    for k in range(1, table.kmax + 1):
        for l in range(1, k + 1):
            writer.writerow([k, l, _linear_repr(table.log_entries[k, l])])


def table_to_json(table: CoeffTable) -> dict:
    """Triangular JSON mirror: {"theta", "kmax", "rows": [[A(k,1)..A(k,k)]...]}."""
    rows = []
    for k in range(1, table.kmax + 1):
        rows.append([_linear_repr(table.log_entries[k, l]) for l in range(1, k + 1)])
    return {"theta": table.theta, "kmax": table.kmax, "rows": rows}
