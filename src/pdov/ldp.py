"""Rate functions on the ordered simplex closure.

J is the energy-ladder rate for PD(theta); S_lam adds the selection term
lam * phi2 and recenters by the integer infimum.  The two-zero structure
at the critical lam = k(k+1) is an exact statement, so uniform
configurations carry an exact-arithmetic path (fractions) while general
configurations use floating point.

The row forms (phi2_rows, total_mass_rows, j_rate_rows, s_rate_rows,
metric_d_rows) take many configurations at once, as the rows of one
descending, zero-padded float matrix, and refuse, with DomainError, an
input that is not 2-D and any row that Configuration refuses.  Each gives
on every row the float its scalar form gives on that row's Configuration,
bit for bit: a sum of entries or of squares is rounded once, as math.fsum
rounds it (by _fsum_rows, the one row-sum kernel, which mc also rounds
each draw's H2 with), and the metric's terms are added left to right,
as its loop adds them; a row's mass, tested only against 1 +- MASS_TOL, is
a plain row sum, summed again by math.fsum within its error bound of either.
The scalar forms are the exact reference, and the only path to the rational
values of uniform configurations.  rate_I1 holds the last alpha's two logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "Configuration",
    "MASS_TOL",
    "phi2",
    "j_rate",
    "inf_term",
    "s_rate",
    "metric_d",
    "phi2_rows",
    "total_mass_rows",
    "j_rate_rows",
    "s_rate_rows",
    "metric_d_rows",
    "rate_I1",
    "rate_I2",
    "uniform_config",
]

MASS_TOL = 1e-12
MAX_UNIFORM_K = 10**6  # one entry per allele, 8 bytes each


@dataclass(frozen=True)
class Configuration:
    """Finite descending nonnegative vector with total mass <= 1.

    uniform_k marks the exact k-uniform configuration (1/k, ..., 1/k),
    which unlocks the rational-arithmetic path of s_rate; validation
    refuses it on any other entries.
    """

    entries: tuple
    uniform_k: int | None = None

    def __post_init__(self):
        e = self.entries
        if any(not v >= 0.0 for v in e):  # NaN fails too
            raise DomainError("configuration entries must be nonnegative")
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise DomainError("configuration entries must be descending")
        if self.total_mass > 1.0 + MASS_TOL:
            raise DomainError(f"total mass {self.total_mass} exceeds 1")
        k = self.uniform_k
        if k is not None and not (isinstance(k, int) and k >= 1
                                  and len(e) == k and e.count(1.0 / k) == k):
            raise DomainError(f"entries are not the {k}-uniform configuration")

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


def _unchecked(entries: tuple) -> Configuration:
    """Configuration(entries) built without the dataclass __init__ or
    __post_init__: object.__new__ and the instance dict.  Only for entries
    that pass validation by construction, such as a draw's positive sticks
    sorted descending: nonnegative, descending, and of mass 1 - residual,
    up to rounding far inside MASS_TOL.  There the checks would cost more
    than the statistic valued on them.  Equal to, and hashed as,
    Configuration(entries)."""
    config = object.__new__(Configuration)
    fields = config.__dict__
    fields["entries"] = entries
    fields["uniform_k"] = None
    return config


def uniform_config(k: int) -> Configuration:
    """The configuration with k entries of 1/k (exact-mass marked), k <= MAX_UNIFORM_K."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > MAX_UNIFORM_K:
        raise DomainError(f"k={k}: more than {MAX_UNIFORM_K} entries")
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


def _level(lam: float) -> int:
    """The least whole u >= 1 with u(u+1) >= lam, exactly: u(u+1) is whole,
    so it is the least with u(u+1) >= ceil(lam).  lam must be finite and
    > 0; this is the one place every lam of the rate functions and phases
    is checked, before math.ceil can raise on NaN or inf."""
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lam must be finite and > 0, got {lam}")
    c = math.ceil(lam)
    u = (math.isqrt(4 * c + 1) - 1) // 2  # the greatest u >= 0 with u(u+1) <= c
    return u if u >= 1 and u * (u + 1) >= c else u + 1


def _inf_exact(lam: float) -> tuple[Fraction, frozenset]:
    """Exact min over integers n >= 1 of lam/n + n - 1, and its minimizers,
    with lam taken at its binary-float value; O(1), one isqrt and one
    Fraction division.  The objective changes by 1 - lam/(n(n+1)) from n to
    n + 1, so it is least at u = _level(lam), and at u + 1 too where
    lam = u(u+1)."""
    u = _level(lam)
    best = Fraction(lam) / u + u - 1
    return best, frozenset({u, u + 1} if u * (u + 1) == lam else {u})


def inf_term(lam: float) -> tuple[float, frozenset]:
    """min over integers n >= 1 of lam/n + n - 1 (the nearest float to the
    exact value), with all minimizers; lam is refused by _level.

    Ties (the critical lam = k(k+1)) are detected exactly: lam is taken
    at its binary-float value and compared in rational arithmetic.
    """
    best, argmin = _inf_exact(float(lam))
    return float(best), argmin


def s_rate(x: Configuration, lam: float) -> float | Fraction:
    """J(x) + lam * phi2(x) - inf_n {lam/n + n - 1}.

    Uniform configurations go through exact rational arithmetic (lam taken
    at its exact binary-float value) and return a Fraction, so the two-zero
    structure at critical lam is exact; +inf off the simplex.  The infimum
    is taken first, so a bad lam is refused (by _level) on every x.
    """
    best = _inf_exact(float(lam))[0]
    if x.uniform_k is not None:
        k = x.uniform_k
        return (k - 1) + Fraction(lam) * Fraction(1, k) - best
    j = j_rate(x)
    if math.isinf(j):
        return math.inf
    return j + lam * phi2(x) - float(best)


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


def _fsum_rows(v: np.ndarray, part: np.ndarray) -> np.ndarray:
    """math.fsum of each row of v, whose entries lie in [0, 2) and whose
    rows sum to under 2; v and the buffer part, of its shape, are
    overwritten.

    Each entry is split exactly into part = (entry + 2) - 2, a multiple of
    2^-51, and a remainder of at most 2^-52, left in v.  A row's parts sum
    exactly to s, in any order: every partial sum is a multiple of 2^-51
    below 4.  Its n remainders sum to r in floating point, in any order,
    off their exact sum R by at most (n - 1) 2^-53 / (1 - (n - 1) 2^-53)
    times their sizes' sum, itself at most n 2^-52: by about (n - 1) n
    2^-105.  bound = n^2 2^-104 is more than twice that, so even rounded,
    r - bound <= R <= r + bound.  Rounding is monotone, so s + (r - bound)
    and s + (r + bound), each rounded once, bracket the rounded exact sum
    s + R: where the two are equal, that is math.fsum of the row.
    Where they are not, a rounding boundary lies near the exact sum, as
    where a row's largest entries sum to a tie.  There, with g the least
    spacing of an entry whose remainder is nonzero, each remainder is a
    multiple of g and every partial sum of them is at most n 2^-52: where
    g > n 2^-105, that is under 2^53 g, so r is R exactly and s + r,
    rounded once, is math.fsum of the row, ties included.  Only the other
    rows, with an entry below n 2^-52 whose remainder is nonzero, are summed
    again by math.fsum of their parts and remainders, which add up exactly
    to their entries.
    """
    np.add(v, 2.0, out=part)
    part -= 2.0
    v -= part
    s = np.einsum("ij->i", part)
    r = np.einsum("ij->i", v)
    n = v.shape[1]
    bound = n**2 * 2.0**-104
    out = s + (r + bound)
    rows = np.flatnonzero(s + (r - bound) != out)
    if rows.size:
        rest = v[rows]
        g = np.min(np.spacing(part[rows] + rest), axis=1, where=rest != 0.0, initial=math.inf)
        exact = g > n * 2.0**-105
        out[rows[exact]] = s[rows[exact]] + r[rows[exact]]
        for i in rows[~exact]:
            out[i] = math.fsum(part[i].tolist() + v[i].tolist())
    return out


def _checked_rows(x) -> tuple[np.ndarray, np.ndarray]:
    """x as a float matrix, and whether each row's mass is within MASS_TOL
    of 1; refused where x is not 2-D or Configuration refuses a row (a NaN
    or negative entry, entries not descending, mass above 1 + MASS_TOL).
    The mass is a plain row sum, off by under n 2^-52 of itself over n
    entries; a row within that plus 2^-50 (a few float spacings at 1) of a
    threshold is summed again by math.fsum, so both tests see its value."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"configurations must be the rows of a matrix, got a {x.ndim}-D array")
    if not np.all(x >= 0.0):  # NaN fails too
        raise DomainError("configuration entries must be nonnegative")
    if np.any(x[:, :-1] < x[:, 1:]):
        raise DomainError("configuration entries must be descending")
    if np.any(x[:, :1] > 1.0 + MASS_TOL):  # so _fsum_rows sees entries, and squares, in [0, 2)
        raise DomainError(f"an entry {np.max(x[:, 0])} exceeds 1, and so does its row's mass")
    mass = np.einsum("ij->i", x)
    near = np.abs(np.abs(mass - 1.0) - MASS_TOL) <= x.shape[1] * 2.0**-52 * mass + 2.0**-50
    for i in np.flatnonzero(near):
        mass[i] = math.fsum(x[i].tolist())
    if np.any(mass > 1.0 + MASS_TOL):
        raise DomainError(f"total mass {np.max(mass)} exceeds 1")
    return x, np.abs(mass - 1.0) <= MASS_TOL


def _j_rate(x: np.ndarray, on_simplex: np.ndarray) -> np.ndarray:
    return np.where(on_simplex, np.count_nonzero(x > 0.0, axis=1) - 1.0, math.inf)


def phi2_rows(x: np.ndarray) -> np.ndarray:
    """phi2 of each row of x (one configuration per row): math.fsum of its
    squares."""
    squares = np.square(_checked_rows(x)[0])
    return _fsum_rows(squares, np.empty_like(squares))


def total_mass_rows(x: np.ndarray) -> np.ndarray:
    """Configuration.total_mass of each row of x: math.fsum of its entries."""
    x = _checked_rows(x)[0].copy()  # _fsum_rows overwrites it, and x may be the caller's array
    return _fsum_rows(x, np.empty_like(x))


def j_rate_rows(x: np.ndarray) -> np.ndarray:
    """j_rate of each row of x: its positive entries less one, +inf where
    its mass is off 1 by more than MASS_TOL."""
    return _j_rate(*_checked_rows(x))


def s_rate_rows(x: np.ndarray, lam: float) -> np.ndarray:
    """s_rate of each row of x by its float path: J + lam * phi2 - inf_n
    {lam/n + n - 1}, +inf off the simplex."""
    best = inf_term(lam)[0]
    x, on_simplex = _checked_rows(x)
    squares = np.square(x)
    return _j_rate(x, on_simplex) + lam * _fsum_rows(squares, np.empty_like(squares)) - best


def metric_d_rows(x: np.ndarray, y: Configuration) -> np.ndarray:
    """metric_d of each row of x to y: the terms |x_i - y_i| / 2^i, the
    shorter of a row and y padded with zeros, summed left to right by
    np.cumsum, as metric_d's loop sums them."""
    x = _checked_rows(x)[0]
    ye = np.asarray(y.entries, dtype=float)
    width = max(x.shape[1], len(ye), 1)
    terms = np.zeros((len(x), width))
    terms[:, : x.shape[1]] = x
    terms[:, : len(ye)] -= ye
    np.abs(terms, out=terms)
    terms *= np.ldexp(1.0, -np.arange(1, width + 1))
    return np.cumsum(terms, axis=1)[:, -1]


_log = math.log
_alpha_logs = (math.nan, 0.0, 0.0)  # the last alpha rate_I1 took, log(1 - alpha) and log(alpha)


def rate_I1(x: float, alpha: float) -> float:
    """Large-deviation rate of the mean of geometric(alpha) variables.

    Zero exactly at the mean (1-alpha)/alpha; x log x := 0 at x = 0.  x is
    refused past 2.5e305: from ~2.556e305 on, (x + 1) log(1 + x) overflows
    and the rate is inf - inf.  The last alpha's two logs are held.
    """
    global _alpha_logs
    held, log_q, log_a = _alpha_logs
    if alpha != held:
        if not 0.0 < alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        held, log_q, log_a = _alpha_logs = alpha, _log(1.0 - alpha), _log(alpha)
    if not 0.0 <= x <= 2.5e305:
        raise DomainError(f"x must lie in [0, 2.5e305], got {x}")
    return (0.0 if x == 0.0 else x * _log(x)) - (x + 1.0) * _log(1.0 + x) - (x * log_q + log_a)


def rate_I2(x: float, alpha: float) -> float:
    """Large-deviation rate of the mean of Bernoulli(alpha) variables.

    Zero exactly at x = alpha; boundary values extended by 0 log 0 = 0.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    return ((0.0 if x == 0.0 else x * _log(x / alpha))
            + (0.0 if x == 1.0 else (1.0 - x) * _log((1.0 - x) / (1.0 - alpha))))
