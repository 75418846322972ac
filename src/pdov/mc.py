"""GEM stick-breaking sampler for PD(theta) and importance sampling for
the tilted measure.

Sampling is deterministic per (seed, parameters): every estimator draws
through one batch loop whose batches are fixed-size slices, each driven by
its own Philox stream derived from the root seed by counter offsetting, so
one seed fixes the same draws for every statistic.  Batches are drawn
concurrently on the CPUs this process may use and handed to the statistic
in batch order, so the draws are the same for any CPU count.
Beta(1,theta) sticks come from the exact inverse CDF U = 1-(1-V)^{1/theta}.
"""

from __future__ import annotations

import concurrent.futures  # loads its thread pool module on first use, not with pdov
import math
import os
import threading
from collections import OrderedDict, deque
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .errors import DomainError
from .ldp import Configuration
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
STICK_CAP = 10**7
_BATCH = 1 << 14
MAX_DRAWS = 10**8  # an estimate holds a few n-long float arrays
H2_CACHE_BYTES = 256 << 20  # total bytes of the cached h2 arrays
# batches drawn at once: the CPUs this process may use
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    evaluates the same statistic, so it is a valid plain statistic too.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn

    def __call__(self, config: Configuration) -> float:
        h2 = sum(e * e for e in config.entries)
        return float(self.fn(np.asarray([h2]))[0])


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-derived Philox stream #index under the given root seed."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 64))


def _gem_batch(
    theta: float,
    size: int,
    epsilon: float,
    rng: np.random.Generator,
    keep_weights: bool,
):
    """Draw `size` GEM samples; sticks are appended in fixed-width blocks
    until every row's residual is below epsilon.

    Returns (h2, residual, weights-or-None).  Rows that converge early
    keep accumulating genuine sticks, which only sharpens their H2.
    """
    inv_theta = 1.0 / theta
    prefix = np.ones(size)
    h2 = np.zeros(size)
    chunks = [] if keep_weights else None
    total = 0
    first_width = max(16, int(4.0 * theta * math.log(1.0 / epsilon)) + 16)
    width = first_width
    while True:
        # u = 1 - (1 - v)^(1/theta), then w = prefix * shifted * u, in place
        u = rng.random((size, width))
        np.subtract(1.0, u, out=u)
        u **= inv_theta
        np.subtract(1.0, u, out=u)
        cum = np.empty((size, width + 1))  # column j: prod of (1 - u) before stick j
        cum[:, 0] = 1.0
        np.subtract(1.0, u, out=cum[:, 1:])
        np.cumprod(cum, axis=1, out=cum)
        shifted = cum[:, :-1]
        np.multiply(prefix[:, None], shifted, out=shifted)
        w = np.multiply(shifted, u, out=u)
        h2 += np.einsum("ij,ij->i", w, w)
        if chunks is not None:
            chunks.append(w)
        prefix = prefix * cum[:, -1]
        total += width
        if np.all(prefix < epsilon):
            break
        if total > STICK_CAP:
            raise DomainError(
                f"stick count exceeded {STICK_CAP} before residual < {epsilon}; "
                "pathological (theta, epsilon) combination"
            )
        width = 32
    if chunks is None:
        return h2, prefix, None
    return h2, prefix, chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)


def _batches(theta: float, n: int, seed: int, keep_weights: bool):
    """Refuse n > MAX_DRAWS, then iterate (lo, hi, h2, sorted-weights-or-None)
    for draws lo..hi-1 of n; batch b holds _BATCH draws from stream(seed, b),
    whatever the statistic, and its stick matrix comes sorted descending
    along each row.

    Up to _WORKERS batches are drawn at once on a thread pool of this call's
    own, and yielded in batch order; the pool is shut down when the
    iteration ends, is closed or raises, so callers close it on error.
    """
    if n > MAX_DRAWS:
        raise DomainError(f"{n} draws need {8 * n / 1e9:.3g} GB per array (limit {MAX_DRAWS})")

    def draw(b: int, lo: int):
        hi = min(n, lo + _BATCH)
        h2, _, weights = _gem_batch(theta, hi - lo, DEFAULT_EPSILON, stream(seed, b), keep_weights)
        if weights is not None:
            weights.sort(axis=1)
            weights = weights[:, ::-1]
        return lo, hi, h2, weights

    def batches():  # a generator of its own, so the check runs before callers allocate
        todo = enumerate(range(0, n, _BATCH))
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=_WORKERS)
        try:
            pending = deque(pool.submit(draw, b, lo) for b, lo in islice(todo, _WORKERS))
            while pending:
                batch = pending.popleft().result()
                pending.extend(pool.submit(draw, b, lo) for b, lo in islice(todo, 1))
                yield batch
        finally:
            pool.shutdown(cancel_futures=True)

    return batches()


def sample_gem(theta: float, epsilon: float = DEFAULT_EPSILON, *, seed: int) -> GemSample:
    """One truncated GEM draw from stream(seed); sticks until the residual
    mass < epsilon."""
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    _, residual, weights = _gem_batch(theta, 1, epsilon, stream(seed), keep_weights=True)
    return GemSample(theta=theta, weights=weights[0], residual=float(residual[0]))


_h2_cache: OrderedDict[tuple[float, int, int], np.ndarray] = OrderedDict()
_h2_lock = threading.Lock()  # callers on several threads share the cache


def h2_samples(theta: float, n: int, seed: int) -> np.ndarray:
    """n homozygosity draws under PD(theta), cached per (theta, n, seed);
    the read-only array is shared between hits.  The cache keeps the most
    recently used arrays up to H2_CACHE_BYTES in all, and none larger."""
    key = (float(theta), int(n), int(seed))
    with _h2_lock:
        out = _h2_cache.get(key)
        if out is not None:
            _h2_cache.move_to_end(key)
            return out
    batches = _batches(*key, keep_weights=False)
    out = np.empty(key[1])
    with closing(batches):
        for lo, hi, h2, _ in batches:
            out[lo:hi] = h2
    out.setflags(write=False)
    if out.nbytes <= H2_CACHE_BYTES:
        with _h2_lock:
            _h2_cache[key] = out
            while sum(a.nbytes for a in _h2_cache.values()) > H2_CACHE_BYTES:
                _h2_cache.popitem(last=False)
    return out


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


def _sorted_batch_estimate(
    spec: SelectionSpec,
    n: int,
    seed: int,
    batch_statistic: Callable[[np.ndarray], np.ndarray],
) -> TiltedEstimate:
    """Weighted estimate of a statistic of the descending-sorted sticks.

    The draws are those of h2_samples, with each batch's stick matrix
    kept; `batch_statistic` maps one batch's sorted matrix (one row per
    draw, zero-padded) to one value per row.
    """
    batches = _batches(spec.theta, n, seed, keep_weights=True)
    f = np.empty(n)
    h2 = np.empty(n)
    with closing(batches):  # a raising statistic still shuts the pool down
        for lo, hi, bh2, weights in batches:
            h2[lo:hi] = bh2
            f[lo:hi] = batch_statistic(weights)
    w = np.exp(spec.sigma * h2)
    return _weighted_estimate(f, w)


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
    sample by sample, on the positive sorted sticks as Python floats.
    """
    if n < 1000:
        raise DomainError(f"n must be >= 1000, got {n}")
    if isinstance(statistic, H2Statistic):
        h2 = h2_samples(spec.theta, n, seed)
        f = np.asarray(statistic.fn(h2), dtype=float)
        w = np.exp(spec.sigma * h2)
        return _weighted_estimate(f, w)

    def per_draw(ordered: np.ndarray) -> np.ndarray:
        # sorted descending, so each row's positive sticks lead it
        counts = np.count_nonzero(ordered > 0.0, axis=1)
        out = np.empty(len(ordered))
        for i, m in enumerate(counts):
            entries = tuple(ordered[i, :m].tolist())
            out[i] = statistic(Configuration(entries=entries, validate=False))
        return out

    return _sorted_batch_estimate(spec, n, seed, per_draw)


def homozygosity_histogram(
    spec: SelectionSpec, n: int, bins: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Importance-weighted histogram of H2 over (0, 1].

    Returns (bin_edges, masses) with masses summing to 1.
    """
    if n < 10**4:
        raise DomainError(f"histogram needs n >= 1e4, got {n}")
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    h2 = h2_samples(spec.theta, n, seed)
    w = np.exp(spec.sigma * h2)
    masses, edges = np.histogram(h2, bins=bins, range=(0.0, 1.0), weights=w)
    masses = masses / np.sum(w)
    return edges, masses


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
    PD(theta) lives on ordered configurations.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not (0.0 < delta):
        raise DomainError(f"delta must be > 0, got {delta}")
    if n < 1000:
        raise DomainError(f"n must be >= 1000, got {n}")

    def inside(ordered: np.ndarray) -> np.ndarray:
        cols = ordered.shape[1]
        target = np.zeros(cols)
        target[: min(k, cols)] = 1.0 / k
        pow2 = np.exp2(-np.arange(1, cols + 1, dtype=float))
        d = np.abs(ordered - target[None, :]) @ pow2
        if cols < k:  # unsampled coordinates of the center still count
            d += np.sum(np.exp2(-np.arange(cols + 1, k + 1, dtype=float))) / k
        return (d < delta).astype(float)

    return _sorted_batch_estimate(spec, n, seed, inside)
