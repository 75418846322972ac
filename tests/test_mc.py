"""GEM sampling and self-normalized importance sampling under the tilt."""

import threading
from collections import OrderedDict
from contextlib import closing

import numpy as np
import pytest

from pdov import ldp, mc, tilted
from pdov.errors import DomainError
from pdov.ldp import uniform_config
from pdov.model import SelectionSpec


def test_sample_gem_mass_conservation():
    s = mc.sample_gem(0.8, seed=3)
    assert s.weights.sum() + s.residual == pytest.approx(1.0, abs=1e-12)
    assert s.residual < mc.DEFAULT_EPSILON
    assert np.all(s.weights >= 0.0)


def test_sample_gem_determinism():
    a = mc.sample_gem(0.5, seed=11)
    b = mc.sample_gem(0.5, seed=11)
    assert np.array_equal(a.weights, b.weights)
    c = mc.sample_gem(0.5, seed=12)
    assert not np.array_equal(a.weights, c.weights)


def test_small_theta_first_stick_dominates():
    # U_1 ~ Beta(1, theta) has mean 1/(1+theta); at theta = 0.01 the first
    # stick carries nearly everything
    h2 = mc.h2_samples(0.01, 10**4, seed=5)
    assert np.mean(h2) > 0.9


def test_h2_samples_deterministic_and_bounded():
    a = mc.h2_samples(0.5, 5000, seed=7)
    b = mc.h2_samples(0.5, 5000, seed=7)
    assert np.array_equal(a, b)
    assert a.shape == (5000,)
    assert np.all((a > 0.0) & (a <= 1.0))


def test_homozygosity_of_explicit_configs():
    one = uniform_config(1)
    assert mc.H2Statistic(lambda h: h)(one) == 1.0
    u3 = uniform_config(3)
    assert mc.H2Statistic(lambda h: h)(u3) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_tilted_estimate_theta_one_is_plain_pd():
    spec = SelectionSpec(6.0, 1.0)  # sigma = 0: weights all equal
    est = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: h), n=10**5, seed=2)
    assert abs(est.value - 0.5) < 4.0 * est.std_error
    assert est.effective_sample_size == pytest.approx(est.n_samples)


def test_tilted_estimate_constant_statistic_exact():
    spec = SelectionSpec(6.0, 0.3)
    est = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: np.full_like(h, 3.25)), n=10**4, seed=9)
    assert est.value == 3.25
    assert est.std_error == 0.0


def test_tilted_estimate_matches_series_oracle():
    spec = SelectionSpec(6.0, 0.3)
    est = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: np.exp(h)), n=2 * 10**5, seed=21)
    assert abs(est.value - tilted.mgf(spec, 1.0)) < 4.0 * est.std_error


def test_tilted_estimate_determinism():
    spec = SelectionSpec(4.0, 0.4)
    a = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: h), n=3 * 10**4, seed=17)
    b = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: h), n=3 * 10**4, seed=17)
    assert a.value == b.value and a.std_error == b.std_error


@pytest.mark.parametrize("n", [5000, mc._BATCH, 2 * mc._BATCH + 17])
def test_generic_statistic_path_matches_h2_path(n):
    # phi2 on the sorted configuration is H2; both paths draw batch b of
    # the same size from stream(seed, b)
    spec = SelectionSpec(6.0, 0.3)
    generic = mc.tilted_estimate(spec, ldp.phi2, n=n, seed=5)
    h2_path = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: h), n=n, seed=5)
    assert generic.value == h2_path.value
    assert generic.std_error == h2_path.std_error
    assert generic.effective_sample_size == h2_path.effective_sample_size


def test_generic_statistic_path_determinism_over_batches():
    spec = SelectionSpec(6.0, 0.3)
    n = 2 * mc._BATCH + 17
    stat = lambda config: config.entries[0]
    a = mc.tilted_estimate(spec, stat, n=n, seed=8)
    b = mc.tilted_estimate(spec, stat, n=n, seed=8)
    assert (a.value, a.std_error, a.effective_sample_size) == (
        b.value, b.std_error, b.effective_sample_size
    )
    assert a.n_samples == n


def test_ess_warning_fires_when_degenerate():
    # a strong tilt at moderate theta collapses the weights
    spec = SelectionSpec(80.0, 0.05)
    est = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: h), n=1000, seed=1)
    if est.effective_sample_size < mc.ESS_WARN_THRESHOLD:
        assert est.warning is not None
    else:  # keep determinism honest: at least the threshold logic is exercised
        assert est.warning is None


def test_histogram_masses():
    spec = SelectionSpec(6.0, 0.5)
    edges, masses = mc.homozygosity_histogram(spec, n=2 * 10**4, bins=25, seed=13)
    assert len(edges) == 26 and len(masses) == 25
    assert masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(masses >= 0.0)


def test_histogram_concentrates_near_half_at_lam6():
    bin_ix = lambda edges: np.searchsorted(edges, 0.5, side="right") - 1
    prev = -1.0
    for theta in (0.3, 0.1):
        edges, masses = mc.homozygosity_histogram(
            SelectionSpec(6.0, theta), n=5 * 10**4, bins=10, seed=3
        )
        cur = masses[bin_ix(edges)]
        assert cur > prev
        prev = cur


def test_ball_probability_trend_lam2():
    p3 = mc.ball_probability(SelectionSpec(2.0, 0.3), k=1, delta=0.2, n=5 * 10**4, seed=9)
    p1 = mc.ball_probability(SelectionSpec(2.0, 0.1), k=1, delta=0.2, n=5 * 10**4, seed=9)
    assert p1.value > p3.value


def test_ball_probability_radius_one_is_certain():
    est = mc.ball_probability(SelectionSpec(2.0, 0.5), k=1, delta=1.0, n=10**4, seed=4)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_ball_probability_wrong_center_small():
    # at lam = 6 the mass collects at the 2-uniform configuration, not the 3-uniform
    spec = SelectionSpec(6.0, 0.05)
    wrong = mc.ball_probability(spec, k=3, delta=0.05, n=2 * 10**4, seed=6)
    right = mc.ball_probability(spec, k=2, delta=0.05, n=2 * 10**4, seed=6)
    assert wrong.value < 0.2
    assert wrong.value < right.value


def test_domain_errors():
    with pytest.raises(DomainError):
        mc.sample_gem(0.0, seed=1)
    with pytest.raises(DomainError):
        mc.sample_gem(0.5, epsilon=0.0, seed=1)
    with pytest.raises(DomainError):
        mc.ball_probability(SelectionSpec(2.0, 0.5), k=0, delta=0.2, n=10**4, seed=1)
    with pytest.raises(DomainError):
        mc.homozygosity_histogram(SelectionSpec(2.0, 0.5), n=100, bins=5, seed=1)


# -- concurrent batches: the same draws for any worker count -----------------

POOL_N = 3 * mc._BATCH + 5


def _serial_sorted_batches(theta, n, seed):
    """Batch b drawn from stream(seed, b) one after another, sorted descending."""
    for b, lo in enumerate(range(0, n, mc._BATCH)):
        size = min(n, lo + mc._BATCH) - lo
        h2, _, w = mc._gem_batch(theta, size, mc.DEFAULT_EPSILON, mc.stream(seed, b), True)
        yield h2, -np.sort(-w, axis=1)


def _pool_stat(config):
    return config.entries[-1] * len(config.entries) + config.entries[0]


@pytest.fixture(scope="module", params=[0.1, 1.0])
def serial_reference(request):
    theta = request.param
    spec = SelectionSpec(2.0, theta)
    h2_parts, balls, stats = [], [], []
    for h2, ordered in _serial_sorted_batches(theta, POOL_N, seed=5):
        h2_parts.append(h2)
        cols = ordered.shape[1]
        target = np.zeros(cols)
        target[0] = 1.0  # the 1-uniform configuration
        d = np.abs(ordered - target[None, :]) @ np.exp2(-np.arange(1, cols + 1, dtype=float))
        balls.append((d < 0.2).astype(float))
        stats.append([_pool_stat(ldp.Configuration(tuple(row[row > 0.0]), validate=False))
                      for row in ordered])
    h2 = np.concatenate(h2_parts)
    w = np.exp(spec.sigma * h2)
    ball = mc._weighted_estimate(np.concatenate(balls), w)
    generic = mc._weighted_estimate(np.concatenate(stats), w)
    return spec, h2, ball, generic


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_draws_match_serial_reference(serial_reference, workers, monkeypatch):
    spec, h2, ball, generic = serial_reference
    monkeypatch.setattr(mc, "_WORKERS", workers)
    monkeypatch.setattr(mc, "_h2_cache", OrderedDict())  # draw afresh, not from the cache
    assert np.array_equal(mc.h2_samples(spec.theta, POOL_N, seed=5), h2)
    assert mc.ball_probability(spec, k=1, delta=0.2, n=POOL_N, seed=5) == ball
    assert mc.tilted_estimate(spec, _pool_stat, n=POOL_N, seed=5) == generic
    with closing(mc._batches(spec.theta, POOL_N, 5, keep_weights=False)) as batches:
        assert [lo for lo, *_ in batches] == list(range(0, POOL_N, mc._BATCH))  # in order


def test_raising_statistic_propagates_and_stops_the_pool(monkeypatch):
    monkeypatch.setattr(mc, "_WORKERS", 2)
    calls = []

    def stat(config):
        calls.append(1)
        if len(calls) > mc._BATCH + 100:  # inside the second batch
            raise RuntimeError("statistic failed")
        return config.entries[0]

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="statistic failed") as caught:
        mc.tilted_estimate(SelectionSpec(6.0, 0.3), stat, n=POOL_N, seed=3)
    assert threading.active_count() == before  # while the traceback is still held
    del caught
    mc.h2_samples(0.3, 2 * mc._BATCH + 1, seed=3)  # and after an estimate that returns
    assert threading.active_count() == before


def test_h2_cache_bounded_by_bytes(monkeypatch):
    monkeypatch.setattr(mc, "_h2_cache", OrderedDict())
    monkeypatch.setattr(mc, "H2_CACHE_BYTES", 2 * 8 * 1000)  # two arrays of 1000 draws
    a = mc.h2_samples(0.5, 1000, seed=1)
    b = mc.h2_samples(0.5, 1000, seed=2)
    assert mc.h2_samples(0.5, 1000, seed=1) is a  # hit; seed 1 is now the most recent
    mc.h2_samples(0.5, 1000, seed=3)  # evicts seed 2, the least recently used
    assert mc.h2_samples(0.5, 1000, seed=1) is a
    b2 = mc.h2_samples(0.5, 1000, seed=2)
    assert b2 is not b and np.array_equal(b2, b)
    big = mc.h2_samples(0.5, 2001, seed=1)  # larger than the whole bound: returned, not kept
    again = mc.h2_samples(0.5, 2001, seed=1)
    assert again is not big and np.array_equal(again, big)
    assert sum(x.nbytes for x in mc._h2_cache.values()) <= mc.H2_CACHE_BYTES
