"""GEM stick-breaking sampler for PD(theta) and importance sampling for
the tilted measure.

Sampling is deterministic per (seed, parameters): every estimator draws
through one batch driver, _draw, whose fixed-size batches each have their
own Philox stream, derived from the root seed by counter offsetting, so one
seed fixes the same draws for every statistic.  Batches are drawn one at a
time on the calling thread, and each is valued, chunk by chunk as it is
drawn, before the next is drawn.
Beta(1,theta) sticks come from the exact inverse CDF U = 1-(1-V)^{1/theta}.
Each draw takes sticks until its own residual mass is below epsilon: a
first block sized from the Poisson law of the sticks it needs, then short
blocks for the draws still above epsilon alone, the late draws (~0.3-2%),
which fill a small matrix of their own.  Each draw is finished once, when
it ends, on all its sticks: in its _ROWS-row chunk of the first block as
that is drawn, or in the late draws' matrix at the end of the batch; no
batch-sized stick matrix is formed (see _gem_batch).  A draw's H2 is the
sum of its whole squared sticks rounded once, by ldp's row-sum kernel,
_fsum_rows: math.fsum of them, and so ldp.phi2 of the draw.
h2_samples holds one array: the H2 of the last (theta, n, seed) drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError
from .ldp import Configuration, _fsum_rows, _unchecked, phi2
from .model import SelectionSpec

__all__ = [
    "GemSample",
    "TiltedEstimate",
    "stream",
    "sample_gem",
    "h2_samples",
    "tilted_estimate",
    "homozygosity_histogram",
    "ball_probability",
    "H2Statistic",
]

DEFAULT_EPSILON = 1e-8
ESS_WARN_THRESHOLD = 50.0
_BATCH = 1 << 14
_BLOCK = 16  # sticks of each block after a row's first
_ROWS = 1 << 11  # rows drawn and finished at once: temporaries stay in cache
_LISTED = 128  # rows listed at once to value a generic statistic: bounds the Python floats alive
MAX_DRAWS = 10**8  # an estimate holds a few n-long float arrays
MAX_HIST_BINS = 10**6  # a histogram holds one edge and one mass per bin
H2_CACHE_BYTES = 256 << 20  # the largest h2 array h2_samples holds


@dataclass(frozen=True)
class GemSample:
    theta: float
    weights: np.ndarray = field(repr=False)  # stick order V_1, V_2, ...
    residual: float


@dataclass(frozen=True)
class TiltedEstimate:
    value: float
    std_error: float
    n_samples: int
    effective_sample_size: float
    warning: str | None = None


class H2Statistic:
    """Statistic that factors through the homozygosity.

    ``fn`` maps an array of H2 values to statistic values; enables the
    vectorized estimation path.  Calling the object on a Configuration
    evaluates the same statistic at ldp.phi2 of it, which equals the
    sampler's H2 of a draw, so it is a valid plain statistic too.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn

    def __call__(self, config: Configuration) -> float:
        return float(self.fn(np.asarray([phi2(config)]))[0])


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-derived Philox stream #index under the given root seed, a
    Philox key: a seed outside [0, 2^128) is refused."""
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed must lie in [0, 2^128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 64))


def _sticks(
    rng: np.random.Generator, prefix: np.ndarray, inv_theta: float, width: int, work: np.ndarray
) -> np.ndarray:
    """The next `width` sticks of each row whose mass left is `prefix`, one
    row of the stream per row, as a C-contiguous view of work[0] (rows x
    width); `prefix` is overwritten with the mass left after them.

    cum, a view of work[1] (rows x width+1), is a buffer too.  cum[:, j]
    is the mass left before stick j: the prefix times
    (1 - U) = (1 - V)^(1/theta) of each stick before it, a running product
    taken column by column (cumprod's products, in its order); stick j is
    cum[:, j] U_j.  At theta = 1, U is V itself: V is a multiple of 2^-53
    in [0, 1), so 1 - V is exact and 1 - (1 - V) is V, and neither the
    power nor the second subtraction is taken.
    """
    m = len(prefix)
    u = work[0, : m * width].reshape(m, width)
    cum = work[1, : m * (width + 1)].reshape(m, width + 1)
    rng.random(out=u)
    cum[:, 0] = prefix
    rest = cum[:, 1:]
    np.subtract(1.0, u, out=rest)
    if inv_theta != 1.0:
        rest **= inv_theta
        np.subtract(1.0, rest, out=u)
    for j in range(width):
        np.multiply(cum[:, j], cum[:, j + 1], out=cum[:, j + 1])
    prefix[:] = cum[:, -1]
    return np.multiply(cum[:, :-1], u, out=u)


def _gem_batch(theta: float, size: int, rng: np.random.Generator, statistic: Callable | None = None):
    """Draw `size` GEM(theta) samples, each row's sticks until its own
    residual is below epsilon = DEFAULT_EPSILON.  theta outside (0, 1] is
    refused here, the one check of every draw's theta.

    A row needs 1 + Poisson(a) sticks, a = theta log(1/epsilon) <= 18.4:
    with U ~ Beta(1, theta), -log(1 - U) is exponential of rate theta, and
    the residual passes epsilon at the first arrival past log(1/epsilon).  So
    every row gets a first block of floor(a + 2 sqrt(a)) + 3 sticks, which
    leaves ~1-2% of rows at or above epsilon, the late rows, and blocks of
    _BLOCK sticks then go to those rows alone, straight into their own
    matrix.  Each block is drawn in row order, _ROWS rows at a time; which
    rows draw on follows from the stream, so one stream fixes every draw.

    Each draw is finished once, when it ends: in its chunk as that is
    drawn, or in the late rows' matrix at the end.  Its H2 is math.fsum of
    its whole squared sticks, by ldp._fsum_rows, which takes the sticks as
    its buffer once the statistic is done with them.  At theta = 1 each stick
    is the mass left times the uniform V itself (see _sticks).

    statistic(sticks, rows, at) values rows `rows` (an index array) of a
    C-contiguous stick matrix in draw order, zero-padded, which hold the
    batch's draws `at`; it owns the matrix and may sort or overwrite it.
    It is called on each first-block chunk, in the work buffer, with the
    chunk's rows that ended there (its other rows, the late ones, may be
    computed over in bulk but not valued), then once on the late rows'
    matrix, with every row.  So each draw is valued once, on all its sticks.

    Returns (h2, residual).
    """
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    epsilon = DEFAULT_EPSILON
    a = theta * math.log(1.0 / epsilon)
    inv_theta = 1.0 / theta
    first = math.floor(a + 2.0 * math.sqrt(a)) + 3
    prefix = np.ones(size)
    h2 = np.empty(size)
    work = np.empty((2, min(size, _ROWS) * (max(first, _BLOCK) + 1)))

    def finish(sticks: np.ndarray, squares: np.ndarray, rows: np.ndarray, at: np.ndarray) -> None:
        # the statistic first: _fsum_rows overwrites the sticks
        if statistic:
            statistic(sticks, rows, at)
        h2[at] = _fsum_rows(squares, sticks)[rows]

    heads = []  # the late rows' first blocks
    for start in range(0, size, _ROWS):
        left = prefix[start : start + _ROWS]  # a view: _sticks updates prefix
        w = _sticks(rng, left, inv_theta, first, work)
        ended = left < epsilon
        heads.append(w[~ended])
        done = np.flatnonzero(ended)
        finish(w, np.multiply(w, w, out=work[1, : w.size].reshape(w.shape)), done, start + done)
    late = np.flatnonzero(prefix >= epsilon)
    tail, rest = np.concatenate(heads), prefix[late]
    rows = np.arange(late.size)  # the rows of tail still at or above epsilon
    while rows.size:
        tail = np.concatenate([tail, np.zeros((late.size, _BLOCK))], axis=1)
        for start in range(0, rows.size, _ROWS):
            chunk = rows[start : start + _ROWS]
            left = rest[chunk]
            tail[chunk, -_BLOCK:] = _sticks(rng, left, inv_theta, _BLOCK, work)
            rest[chunk] = left
        rows = rows[rest[rows] >= epsilon]
    prefix[late] = rest
    finish(tail, tail * tail, np.arange(late.size), late)
    return h2, prefix


def _draw(theta: float, n: int, seed: int, batch_statistic: Callable | None = None):
    """Refuse n outside 1..MAX_DRAWS, then return each of n GEM draws' H2 and
    batch_statistic (None without one).  Batch b holds _BATCH draws from
    stream(seed, b), whatever the statistic.

    batch_statistic(ordered, rows) maps rows `rows` (an index array) of a
    stick matrix to one value each; it is called as _gem_batch calls its
    statistic, with each row of `ordered` a draw's sticks sorted descending
    in place, zero-padded.

    Batches are drawn in order on the calling thread, each valued before
    the next is drawn; a batch's arrays are locals of one _gem_batch call,
    freed on its return, so one batch is alive at a time.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > MAX_DRAWS:
        raise DomainError(f"{n} draws need {8 * n / 1e9:.3g} GB per array (limit {MAX_DRAWS})")
    h2 = np.empty(n)
    f = None if batch_statistic is None else np.empty(n)

    def descending(sticks: np.ndarray, rows: np.ndarray, at: np.ndarray) -> None:
        # sorted in place: negation is exact, -(-0.0) is +0.0
        np.negative(sticks, out=sticks)
        sticks.sort(axis=1)
        np.negative(sticks, out=sticks)
        f[lo + at] = batch_statistic(sticks, rows)

    statistic = None if batch_statistic is None else descending
    for b, lo in enumerate(range(0, n, _BATCH)):
        size = min(_BATCH, n - lo)
        h2[lo : lo + size], _ = _gem_batch(theta, size, stream(seed, b), statistic)
    return h2, f


def sample_gem(theta: float, *, seed: int) -> GemSample:
    """One truncated GEM(theta) draw from stream(seed): sticks until the
    residual mass < DEFAULT_EPSILON (theta is checked by _gem_batch)."""
    kept = []  # the one draw's sticks, in draw order, as it ends
    _, residual = _gem_batch(theta, 1, stream(seed),
                             lambda sticks, rows, _: kept.extend(sticks[rows]))
    return GemSample(theta=theta, weights=kept[0], residual=float(residual[0]))


_h2_last: tuple = (None, None)  # the last (theta, n, seed) drawn, and its read-only h2


def h2_samples(theta: float, n: int, seed: int) -> np.ndarray:
    """n homozygosity draws under PD(theta).  The read-only array of the
    last (theta, n, seed) drawn is held for a repeat, unless over H2_CACHE_BYTES;
    the slot is one tuple, so a reader sees the old pair or the new one."""
    global _h2_last
    key = (float(theta), int(n), int(seed))
    held, out = _h2_last
    if held == key:
        return out
    out, _ = _draw(*key)
    out.setflags(write=False)
    if out.nbytes <= H2_CACHE_BYTES:
        _h2_last = key, out
    return out


def _weights(spec: SelectionSpec, h2: np.ndarray) -> np.ndarray:
    """Importance weights exp(sigma * H2) of the draws, refused when every
    one underflows to 0 (no estimate can be normalized by them)."""
    w = np.exp(spec.sigma * h2)
    if not np.sum(w) > 0.0:
        raise DomainError(
            f"every importance weight exp(sigma H2) underflows to 0 at sigma={spec.sigma:.6g}"
        )
    return w


def _weighted_estimate(f: np.ndarray, w: np.ndarray) -> TiltedEstimate:
    n = len(f)
    wsum = float(np.sum(w))
    # anchor at f[0] so a constant statistic comes back bit-exact
    value = float(f[0]) + float(np.sum(w * (f - f[0]))) / wsum
    resid = f - value
    se = math.sqrt(float(np.sum((w * resid) ** 2))) / wsum
    ess = wsum**2 / float(np.sum(w * w))
    warning = None
    if ess < ESS_WARN_THRESHOLD:
        warning = f"importance weights degenerate: ESS {ess:.1f} < {ESS_WARN_THRESHOLD}"
    return TiltedEstimate(
        value=value,
        std_error=se,
        n_samples=n,
        effective_sample_size=ess,
        warning=warning,
    )


def tilted_estimate(
    spec: SelectionSpec,
    statistic: Callable[[Configuration], float],
    n: int,
    seed: int,
) -> TiltedEstimate:
    """Self-normalized importance-sampling estimate of E_pi[statistic].

    Proposal PD(theta), weight w = exp(sigma * H2) = theta^(lam * H2),
    bounded in [theta^lam, 1].  Statistics wrapped as H2Statistic use the
    vectorized H2 path; arbitrary Configuration statistics are evaluated
    sample by sample, on the positive sorted sticks as Python floats, each
    in a Configuration built unchecked (ldp._unchecked): the sticks of
    _LISTED rows at a time are listed by one tolist call and each draw
    takes its slice of that list.
    """
    if n < 1000:
        raise DomainError(f"n must be >= 1000, got {n}")
    if isinstance(statistic, H2Statistic):
        h2 = h2_samples(spec.theta, n, seed)
        f = np.asarray(statistic.fn(h2), dtype=float)
        return _weighted_estimate(f, _weights(spec, h2))

    def per_draw(ordered: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # sorted descending, so each row's positive sticks lead it, and the
        # positive sticks of a block of rows, in row order, are its draws' in turn
        out = np.empty(len(rows))
        for lo in range(0, len(rows), _LISTED):
            block = ordered[rows[lo : lo + _LISTED]]
            positive = block > 0.0
            sticks = tuple(block[positive].tolist())
            ends = np.cumsum(np.count_nonzero(positive, axis=1)).tolist()
            out[lo : lo + _LISTED] = [statistic(_unchecked(sticks[start:end]))
                                      for start, end in zip([0, *ends], ends)]
        return out

    h2, f = _draw(spec.theta, n, seed, per_draw)
    return _weighted_estimate(f, _weights(spec, h2))


def homozygosity_histogram(
    spec: SelectionSpec, n: int, bins: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Importance-weighted histogram of H2 over (0, 1].

    Returns (bin_edges, masses) with masses summing to 1.  More than
    MAX_HIST_BINS bins are refused before any draw.
    """
    if n < 10**4:
        raise DomainError(f"histogram needs n >= 1e4, got {n}")
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    if bins > MAX_HIST_BINS:
        raise DomainError(f"{bins} histogram bins: more than {MAX_HIST_BINS}")
    h2 = h2_samples(spec.theta, n, seed)
    w = _weights(spec, h2)
    masses, edges = np.histogram(h2, bins=bins, range=(0.0, 1.0), weights=w)
    masses = masses / np.sum(w)
    return edges, masses


def _inside_exactly(sticks: np.ndarray, k: int, delta: float) -> bool:
    """Whether the exact distance of one draw's sticks (a zero-padded row)
    to the k-uniform centre is below delta, in rational arithmetic.

    The centre's coordinates past the row, m < i <= k with m the lesser
    of k and the row's length, add sum 2^-i/k = (2^-m - 2^-k)/k.  With gap
    = the rest + 2^-m/k - delta, the draw is inside where gap < 2^-k/k;
    that lies below every positive gap once 2^k passes gap's denominator,
    so no 2^k that large is formed."""
    m = min(k, len(sticks))
    c = Fraction(1, k)
    gap = sum((abs(Fraction(x) - c) if i < k else Fraction(x)) / (2 << i)
              for i, x in enumerate(sticks.tolist()))
    gap += Fraction(1, k << m) - Fraction(delta)
    if gap <= 0:
        return True
    return k < gap.denominator.bit_length() and gap.numerator * k << k < gap.denominator


def ball_probability(
    spec: SelectionSpec,
    k: int,
    delta: float,
    n: int,
    seed: int,
) -> TiltedEstimate:
    """Tilted probability of the radius-delta ball around the k-uniform
    configuration, in the 2^{-i}-weighted l1 metric.

    GEM draws are sorted descending before the distance is evaluated;
    PD(theta) lives on ordered configurations.  A draw is inside where its
    exact distance is below delta.  The float distance d of a draw whose
    sticks fill a matrix `cols` wide is within (cols + 8) u of it, u =
    2^-53, so d < delta decides every draw but those with |d - delta|
    within that bound, which _inside_exactly decides.  The bound: every
    stick x and the float c of 1/k lie in [0, 1], and c is off 1/k by at
    most u/k, so each |x - c| is off |x - 1/k| by at most 2u, 2u in all
    once weighted by 2^-i (which scales exactly, bar underflow under
    2^-1074 a term).  d then sums cols + 1 nonnegative floats whose sum is
    at most 1 + u: the weighted terms, each at most 2^-i, and the centre's
    unsampled coordinates, at most 2^-cols and rounded by at most 2u of
    themselves.  Added in any order, with or without fused multiply-adds,
    each float passes through at most cols additions, which err by at most
    cols u / (1 - cols u) of the sum.  So d errs by under (cols + 4) u.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not (0.0 < delta):
        raise DomainError(f"delta must be > 0, got {delta}")
    if n < 1000:
        raise DomainError(f"n must be >= 1000, got {n}")

    def inside(ordered: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # over every row of the chunk at once, the rows not asked for dropped
        # at the end: |x - c| on the first m columns, where the centre c is
        # 1/k, in a temporary, so that the sticks are kept; past them c = 0,
        # and |x - c| = x as every stick x >= 0
        cols = ordered.shape[1]
        m = min(k, cols)
        weights = np.exp2(-np.arange(1, cols + 1, dtype=float))
        near = np.subtract(ordered[:, :m], 1.0 / k)
        d = np.abs(near, out=near) @ weights[:m] + ordered[:, m:] @ weights[m:]
        d += (2.0**-m - 2.0**-k) / k  # unsampled coordinates of the center: sum_{i=m+1}^k 2^-i/k
        d = d[rows]
        out = (d < delta).astype(float)
        for j in np.flatnonzero(np.abs(d - delta) <= (cols + 8) * 2.0**-53):
            out[j] = _inside_exactly(ordered[rows[j]], k, delta)
        return out

    h2, f = _draw(spec.theta, n, seed, inside)
    return _weighted_estimate(f, _weights(spec, h2))
