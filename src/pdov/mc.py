"""GEM stick-breaking sampler for PD(theta) and importance sampling for
the tilted measure.

Sampling is deterministic per (seed, parameters): every estimator draws
through one batch loop whose batches are fixed-size slices, each driven by
its own Philox stream derived from the root seed by counter offsetting, so
one seed fixes the same draws for every statistic.
Beta(1,theta) sticks come from the exact inverse CDF U = 1-(1-V)^{1/theta}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
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
        v = rng.random((size, width))
        u = 1.0 - (1.0 - v) ** inv_theta
        cum = np.cumprod(1.0 - u, axis=1)
        shifted = np.concatenate([np.ones((size, 1)), cum[:, :-1]], axis=1)
        w = prefix[:, None] * shifted * u
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
    weights = np.concatenate(chunks, axis=1) if chunks is not None else None
    return h2, prefix, weights


def _batches(theta: float, n: int, seed: int, keep_weights: bool):
    """Yield (lo, hi, h2, weights-or-None) for draws lo..hi-1 of n; batch b
    holds _BATCH draws from stream(seed, b), whatever the statistic."""
    for b, lo in enumerate(range(0, n, _BATCH)):
        hi = min(n, lo + _BATCH)
        h2, _, weights = _gem_batch(
            theta, hi - lo, DEFAULT_EPSILON, stream(seed, b), keep_weights
        )
        yield lo, hi, h2, weights


def sample_gem(theta: float, epsilon: float = DEFAULT_EPSILON, *, seed: int) -> GemSample:
    """One truncated GEM draw from stream(seed); sticks until the residual
    mass < epsilon."""
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    _, residual, weights = _gem_batch(theta, 1, epsilon, stream(seed), keep_weights=True)
    return GemSample(theta=theta, weights=weights[0], residual=float(residual[0]))


@lru_cache(maxsize=8)
def _h2_draws(theta: float, n: int, seed: int) -> np.ndarray:
    out = np.empty(n)
    for lo, hi, h2, _ in _batches(theta, n, seed, keep_weights=False):
        out[lo:hi] = h2
    out.setflags(write=False)
    return out


def h2_samples(theta: float, n: int, seed: int) -> np.ndarray:
    """n homozygosity draws under PD(theta), cached per (theta, n, seed);
    the read-only array is shared between hits."""
    return _h2_draws(float(theta), int(n), int(seed))


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
    f = np.empty(n)
    h2 = np.empty(n)
    for lo, hi, bh2, weights in _batches(spec.theta, n, seed, keep_weights=True):
        h2[lo:hi] = bh2
        f[lo:hi] = batch_statistic(-np.sort(-weights, axis=1))
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
    sample by sample.
    """
    if n < 1000:
        raise DomainError(f"n must be >= 1000, got {n}")
    if isinstance(statistic, H2Statistic):
        h2 = h2_samples(spec.theta, n, seed)
        f = np.asarray(statistic.fn(h2), dtype=float)
        w = np.exp(spec.sigma * h2)
        return _weighted_estimate(f, w)

    def per_draw(ordered: np.ndarray) -> np.ndarray:
        out = np.empty(len(ordered))
        for i, row in enumerate(ordered):
            out[i] = statistic(Configuration(entries=tuple(row[row > 0.0]), validate=False))
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
