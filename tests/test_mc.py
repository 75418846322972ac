"""GEM sampling and self-normalized importance sampling under the tilt."""

import math
import threading
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pdov import ldp, mc, moments, tilted
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


@pytest.mark.parametrize("theta", [0.01, 0.1, 0.3, 1.0])
def test_gem_batch_invariants(theta):
    eps = mc.DEFAULT_EPSILON
    a = theta * math.log(1.0 / eps)
    first = math.floor(a + 2.0 * math.sqrt(a)) + 3
    calls, valued = [], []

    def keep(sticks, rows, at):  # each draw's sticks, in draw order, by index in the batch
        calls.append((sticks.shape, sticks.flags.c_contiguous, at))
        valued.extend(zip(at.tolist(), sticks[rows]))

    h2, residual = mc._gem_batch(theta, mc._BATCH, mc.stream(5, 0), keep)
    # each first-block chunk is valued as it is drawn, at most _ROWS rows
    # exactly the first block wide; then the late rows' own matrix, which
    # starts with their first block and grows by whole blocks
    *chunks, (late_shape, late_contiguous, late) = calls
    assert len(chunks) == -(-mc._BATCH // mc._ROWS)
    assert all(c and rows <= mc._ROWS and cols == first for (rows, cols), c, _ in chunks)
    assert late_contiguous and len(late) == late_shape[0]
    assert (late_shape[1] - first) % mc._BLOCK == 0 and (late_shape[1] > first or not late.size)
    assert np.all(np.diff(late) > 0)
    # every draw is valued once
    assert sorted(i for i, _ in valued) == list(range(mc._BATCH))
    w = np.zeros((mc._BATCH, max(len(row) for _, row in valued)))
    for i, row in valued:
        w[i, : len(row)] = row
    assert np.all(residual < eps)
    assert np.all(w >= 0.0)
    assert np.max(np.abs(w.sum(axis=1) + residual - 1.0)) < 1e-12
    # H2 is math.fsum of the squares (ldp.phi2) on every draw
    assert h2.tolist() == [math.fsum(v * v for v in row) for row in w.tolist()]
    # the zero padding only follows a row's sticks, which come in draw order
    positive = w > 0.0
    assert np.all(positive[:, 1:] <= positive[:, :-1])
    # a row drew a block past its first only while its mass left was >= eps,
    # and the late rows are those that did
    drawn = positive.sum(axis=1)
    assert np.array_equal(np.flatnonzero(drawn > first), late)
    late = drawn > first
    block_start = first + (drawn[late] - first - 1) // mc._BLOCK * mc._BLOCK
    before = 1.0 - np.cumsum(w[late], axis=1)[np.arange(late.sum()), block_start - 1]
    assert np.all(before >= eps * (1.0 - 1e-6))
    if theta == 1.0:  # sticks drawn for the ~1 + Poisson(a) that each row needs
        assert late.any()
        assert drawn.mean() < 2.0 * (1.0 + a)


def _column_loop_sticks(rng, prefix, inv_theta, width, work):
    """The reference for mc._sticks: its running product row-major, rows x
    width+1, multiplied one strided column at a time.  The power is numpy's
    array **, as in mc: math.pow rounds some entries differently."""
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


@pytest.mark.parametrize("m", [1, 3, mc._ROWS])
@pytest.mark.parametrize("theta", [0.01, 0.105, 0.31, 0.5, 1.0])
def test_sticks_equal_the_column_loop_bit_for_bit(theta, m):
    # a first block, then a late block on the mass it left, as _gem_batch draws
    a = theta * math.log(1.0 / mc.DEFAULT_EPSILON)
    first = math.floor(a + 2.0 * math.sqrt(a)) + 3
    cols = max(first, mc._BLOCK) + 1
    ref_rng, rng = mc.stream(35), mc.stream(35)
    ref_prefix, prefix = np.ones(m), np.ones(m)
    for width in (first, mc._BLOCK):
        want = _column_loop_sticks(ref_rng, ref_prefix, 1.0 / theta, width, np.empty((2, m * cols)))
        work = np.empty((2, m * cols))
        got = mc._sticks(rng, prefix, 1.0 / theta, width, work)
        assert got.shape == (m, width) and got.flags.c_contiguous
        assert np.shares_memory(got, work[0])
        assert got.tobytes() == want.tobytes()
        assert prefix.tobytes() == ref_prefix.tobytes()
    assert rng.bit_generator.random_raw() == ref_rng.bit_generator.random_raw()


def test_fsum_rows_equal_fsum_on_built_rows(count_fsum):
    # squares of powers of two whose sum sits half an ulp above a double,
    # with a tail far below the bound: the bracket opens, and with entries
    # far below n 2^-52 the row must be summed again by math.fsum
    tie = np.ldexp(1.0, -np.array([16, 43, 43, 70, 98])) ** 2
    rng = np.random.Generator(np.random.Philox(key=32))
    x = -np.sort(-rng.random((10**4, 9)) ** 4, axis=1)
    x *= rng.random((10**4, 1)) / x.sum(axis=1, keepdims=True)  # descending, mass <= 1
    rows = [tie, np.zeros(5), np.array([1.0, 0.0, 0.0, 0.0, 0.0])]
    want = [math.fsum(v.tolist()) for v in rows] + [math.fsum(v) for v in (x * x).tolist()]
    calls = count_fsum()
    got = [ldp._fsum_rows(v[None].copy(), np.empty((1, 5)))[0] for v in rows]
    assert calls == [10]  # the tie row, by its parts and remainders; the zero row's are exact
    squares = x * x
    got += ldp._fsum_rows(squares, np.empty_like(squares)).tolist()
    assert got == want


def test_h2_is_fsum_of_each_draw_near_a_tie(count_fsum):
    # at theta = 0.01 a draw's two largest squares often sum to a tie, with
    # the rest of its squares below the kernel's bound: those rows open the
    # bracket, the ones with a square below n 2^-52 are summed again, and
    # every H2 is still math.fsum of the draw's squares
    fsum = math.fsum
    calls = count_fsum()
    for b in range(4):
        valued = {}

        def keep(sticks, rows, at):  # copied before _fsum_rows overwrites the sticks
            valued.update(zip(at.tolist(), sticks[rows].tolist()))

        h2, _ = mc._gem_batch(0.01, mc._BATCH, mc.stream(5, b), keep)
        assert h2.tolist() == [fsum(v * v for v in valued[i]) for i in range(mc._BATCH)]
    assert calls  # some rows took the fallback


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


def test_tilted_estimate_matches_the_mgf_past_t_equal_x():
    # x = 1.73 < t = 10: the series route through E H2^k
    spec = SelectionSpec(2.5, 0.5)
    est = mc.tilted_estimate(spec, mc.H2Statistic(lambda h: np.exp(10.0 * h)), n=2 * 10**5, seed=21)
    assert abs(est.value - tilted.mgf(spec, 10.0)) < 4.0 * est.std_error


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


def test_ball_probability_centre_wider_than_the_draws():
    # every configuration lies within 1/2 - 2^-60/60 of the 60-uniform
    # centre, so at radius 1/2 only rounding could leave a draw outside;
    # at 0.49 a draw is inside as its first stick is near 1, and 29 of these
    # draws lie closer to the radius than the centre's unsampled entries weigh
    spec, k, delta = SelectionSpec(2.0, 0.1), 60, 0.49
    n = 2 * mc._BATCH + 7

    def distance(ordered):
        cols = ordered.shape[1]
        assert cols < k
        target = np.full(cols, 1.0 / k)
        d = np.abs(ordered - target[None, :]) @ np.exp2(-np.arange(1, cols + 1, dtype=float))
        return d + sum(2.0**-i for i in range(cols + 1, k + 1)) / k  # the centre's unsampled entries

    inside = [(_each(distance, rows) < delta).astype(float)
              for _, rows in _serial_sorted_batches(spec.theta, n, seed=8)]
    h2 = mc.h2_samples(spec.theta, n, seed=8)
    want = mc._weighted_estimate(np.concatenate(inside), np.exp(spec.sigma * h2))
    assert 0.0 < want.value < 1.0
    assert mc.ball_probability(spec, k=k, delta=delta, n=n, seed=8) == want


def test_ball_probability_memory_does_not_grow_with_the_centre():
    tracemalloc.start()
    try:
        mc.ball_probability(SelectionSpec(2.0, 0.1), k=10**9, delta=0.5, n=1000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # a sum over the centre's 10^9 entries would take ~14 GB


def _ball_peak(n):
    """tracemalloc's peak over one ball probability of n draws at theta = 1."""
    tracemalloc.start()
    try:
        mc.ball_probability(SelectionSpec(2.0, 1.0), 1, 0.2, n=n, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_ball_probability_peak_memory_under_one_stick_matrix():
    # each 2,048 x 30 chunk of a theta = 1 batch is valued as it is drawn,
    # in the sampler's work buffer, with |x - 1/k| in a temporary of the
    # chunk's size, and the few late rows on their whole sticks (30 + 16
    # wide); the batch peaks at ~1.7 MiB.  The bound, one 16,384 x 30 matrix
    # (3.75 MiB), fails a return to a batch-sized matrix of sticks
    assert _ball_peak(mc._BATCH) < mc._BATCH * 30 * 8


def test_one_batch_is_alive_at_a_time(monkeypatch):
    # every matrix that batch b hands the statistic (the work buffer a chunk
    # is a view of, the late rows' matrix) is freed by reference counting
    # before batch b + 1 values its first chunk
    batch, alive = [None], {}
    stream = mc.stream

    def counted(seed, index=0):
        batch[0] = index
        return stream(seed, index)

    def stat(ordered, rows):
        for b, refs in alive.items():
            assert b == batch[0] or all(r() is None for r in refs), f"batch {b} is alive"
        while ordered.base is not None:
            ordered = ordered.base
        alive.setdefault(batch[0], []).append(weakref.ref(ordered))
        return np.zeros(len(rows))

    monkeypatch.setattr(mc, "stream", counted)
    mc._draw(1.0, 3 * mc._BATCH, seed=3, batch_statistic=stat)
    assert sorted(alive) == [0, 1, 2]


def test_draw_count_is_refused_before_any_allocation():
    # the output arrays alone would take 800 MB each
    spec, n = SelectionSpec(2.0, 0.5), mc.MAX_DRAWS + 1
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="draws need"):
            mc.ball_probability(spec, k=1, delta=0.2, n=n, seed=1)
        with pytest.raises(DomainError, match="draws need"):
            mc.tilted_estimate(spec, lambda config: config.entries[0], n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_domain_errors():
    with pytest.raises(DomainError):
        mc.sample_gem(0.0, seed=1)
    with pytest.raises(DomainError):
        mc.ball_probability(SelectionSpec(2.0, 0.5), k=0, delta=0.2, n=10**4, seed=1)
    with pytest.raises(DomainError):
        mc.homozygosity_histogram(SelectionSpec(2.0, 0.5), n=100, bins=5, seed=1)
    for theta in (0.0, -0.5, math.nan, 2.0):  # refused where every draw is made
        with pytest.raises(DomainError, match="theta must lie in"):
            mc.h2_samples(theta, 1000, seed=1)
    for n in (0, -3):
        with pytest.raises(DomainError, match="n must be >= 1"):
            mc.h2_samples(0.5, n, seed=1)
    for seed in (-1, 1 << 128, 1 << 130):  # not a Philox key
        with pytest.raises(DomainError, match="seed must lie in"):
            mc.stream(seed)


def test_histogram_bins_are_refused_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before refusing the bins")

    monkeypatch.setattr(mc, "_draw", no_draws)
    spec = SelectionSpec(6.0, 0.5)
    with pytest.raises(DomainError, match=f"more than {mc.MAX_HIST_BINS}"):
        mc.homozygosity_histogram(spec, n=10**8, bins=mc.MAX_HIST_BINS + 1, seed=1)


def test_weights_that_all_underflow_are_refused():
    spec = SelectionSpec(6.0, 1e-300)  # sigma = -4145: exp(sigma H2) is 0 for every draw
    with pytest.raises(DomainError, match="sigma=-4144"):
        mc.tilted_estimate(spec, mc.H2Statistic(lambda h2: h2), 1000, seed=1)
    with pytest.raises(DomainError, match="sigma"):
        mc.tilted_estimate(spec, lambda config: config.entries[0], 1000, seed=1)
    with pytest.raises(DomainError, match="sigma"):
        mc.homozygosity_histogram(spec, n=10**4, bins=5, seed=1)


# -- batches drawn in order: the same draws as a serial reference -------------

SERIAL_N = 3 * mc._BATCH + 5


def _serial_sorted_batches(theta, n, seed):
    """Batch b drawn from stream(seed, b) one after another: its H2 and, by
    index in the batch, each draw's whole sticks sorted descending, as wide
    as the matrix it was valued in, captured through _gem_batch's hook."""
    for b, lo in enumerate(range(0, n, mc._BATCH)):
        size = min(n - lo, mc._BATCH)
        kept = [None] * size

        def keep(sticks, rows, at):
            for i, row in zip(at.tolist(), -np.sort(-sticks[rows], axis=1)):
                kept[i] = row

        h2, _ = mc._gem_batch(theta, size, mc.stream(seed, b), keep)
        yield h2, kept


def _each(fn, rows):
    """fn of each row, the rows of one width stacked in one matrix: each
    draw as the batch statistic values it, a late one on its whole sticks."""
    out = np.empty(len(rows))
    for width in {len(row) for row in rows}:
        at = [i for i, row in enumerate(rows) if len(row) == width]
        out[at] = fn(np.array([rows[i] for i in at]))
    return out


@pytest.mark.parametrize("theta, n", [(0.01, 1000), (1.0, mc._BATCH + 5)])
def test_batch_statistic_owns_a_contiguous_descending_matrix(theta, n):
    # at theta = 0.01 no row of 1,000 draws a second block, so the late
    # rows' matrix is empty; at theta = 1 some rows of the first batch draw on
    a = theta * math.log(1.0 / mc.DEFAULT_EPSILON)
    first = math.floor(a + 2.0 * math.sqrt(a)) + 3
    shapes, valued = [], []

    def stat(ordered, rows):  # a row's value is its index in valued
        assert ordered.flags.c_contiguous and ordered.flags.writeable
        assert np.all(ordered[:, 1:] <= ordered[:, :-1])
        shapes.append(ordered.shape)
        valued.extend(ordered[rows])
        ordered[:] = np.nan  # the statistic owns the matrix
        return np.arange(len(valued) - len(rows), len(valued), dtype=float)

    h2, f = mc._draw(theta, n, seed=5, batch_statistic=stat)
    serial = list(_serial_sorted_batches(theta, n, seed=5))
    assert np.array_equal(h2, np.concatenate([h for h, _ in serial]))
    # each batch: a call per chunk of at most _ROWS rows, the first block
    # wide, as it is drawn, then one on the late rows' whole sticks
    want = []
    for lo, (_, rows) in zip(range(0, n, mc._BATCH), serial):
        size = min(mc._BATCH, n - lo)
        want += [(min(mc._ROWS, size - start), first) for start in range(0, size, mc._ROWS)]
        late = [row for row in rows if len(row) > first]
        want.append((len(late), len(late[0]) if late else first))
    assert shapes == want
    assert theta != 1.0 or want[-3][0]  # the theta = 1 batch has late rows
    # every draw valued once, on the sticks the serial reference holds for it
    assert sorted(f.tolist()) == list(range(n))
    got = [valued[i] for i in f.astype(int).tolist()]
    assert [row.tobytes() for row in got] == [row.tobytes() for _, rows in serial for row in rows]


def test_generic_statistic_is_valued_once_per_draw_on_its_whole_sticks():
    n = mc._BATCH + 5
    calls = []

    def stat(config):
        calls.append(config.entries)
        return 0.0

    mc.tilted_estimate(SelectionSpec(2.0, 1.0), stat, n=n, seed=5)
    want = [tuple(row[row > 0.0].tolist())
            for _, rows in _serial_sorted_batches(1.0, n, seed=5) for row in rows]
    assert len(calls) == n
    # each draw's positive sticks, sorted descending, once: never a late row's first block alone
    assert Counter(calls) == Counter(want)
    assert Counter(map(len, calls)) == Counter(map(len, want))
    assert max(map(len, want)) > 30  # some draws are late: the first block holds 30 sticks


@pytest.mark.parametrize("theta", [0.1, 1.0])
def test_generic_statistic_receives_configurations_equal_to_validated_ones(theta):
    # the generic path builds each Configuration unchecked: it must be one a
    # validated construction gives, first-block and late draws alike
    a = theta * math.log(1.0 / mc.DEFAULT_EPSILON)
    first = math.floor(a + 2.0 * math.sqrt(a)) + 3
    seen = []

    def stat(config):
        seen.append(config)
        return 0.0

    mc.tilted_estimate(SelectionSpec(2.0, theta), stat, n=mc._BATCH + 5, seed=5)
    assert len(seen) == mc._BATCH + 5
    assert max(len(c.entries) for c in seen) > first  # late draws are among them
    for config in seen:
        assert type(config) is ldp.Configuration
        assert type(config.entries) is tuple
        assert all(type(v) is float for v in config.entries)
        assert config.uniform_k is None
        checked = ldp.Configuration(config.entries)
        assert config == checked and hash(config) == hash(checked)


def _generic_stat(config):
    return config.entries[-1] * len(config.entries) + config.entries[0]


@pytest.fixture(scope="module", params=[0.1, 1.0])
def serial_reference(request):
    theta = request.param
    spec = SelectionSpec(2.0, theta)
    h2_parts, balls, stats = [], [], []

    def distance(ordered):
        cols = ordered.shape[1]
        target = np.zeros(cols)
        target[0] = 1.0  # the 1-uniform configuration
        return np.abs(ordered - target[None, :]) @ np.exp2(-np.arange(1, cols + 1, dtype=float))

    for h2, rows in _serial_sorted_batches(theta, SERIAL_N, seed=5):
        h2_parts.append(h2)
        balls.append((_each(distance, rows) < 0.2).astype(float))
        stats.append([_generic_stat(ldp.Configuration(tuple(row[row > 0.0])))
                      for row in rows])
    h2 = np.concatenate(h2_parts)
    w = np.exp(spec.sigma * h2)
    ball = mc._weighted_estimate(np.concatenate(balls), w)
    generic = mc._weighted_estimate(np.concatenate(stats), w)
    return spec, h2, ball, generic


def test_draws_match_serial_reference(serial_reference, monkeypatch):
    spec, h2, ball, generic = serial_reference
    monkeypatch.setattr(mc, "_h2_last", (None, None))  # draw afresh, not from the slot
    assert np.array_equal(mc.h2_samples(spec.theta, SERIAL_N, seed=5), h2)
    assert mc.ball_probability(spec, k=1, delta=0.2, n=SERIAL_N, seed=5) == ball
    assert mc.tilted_estimate(spec, _generic_stat, n=SERIAL_N, seed=5) == generic


def test_raising_statistic_propagates_from_the_calling_thread(monkeypatch):
    # every batch is drawn and valued on the calling thread, so starting a
    # thread fails here; the raise comes from a chunk call inside batch 2
    def no_thread(thread):
        raise AssertionError(f"mc started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    calls = []

    def stat(config):
        calls.append(1)
        if len(calls) > mc._BATCH + 100:  # inside the second batch
            raise RuntimeError("statistic failed")
        return config.entries[0]

    with pytest.raises(RuntimeError, match="statistic failed"):
        mc.tilted_estimate(SelectionSpec(6.0, 0.3), stat, n=SERIAL_N, seed=3)
    mc.h2_samples(0.3, 2 * mc._BATCH + 1, seed=3)  # and an estimate that returns
    mc.ball_probability(SelectionSpec(6.0, 0.3), k=1, delta=0.2, n=SERIAL_N, seed=3)


def test_h2_samples_holds_the_last_draw_only(monkeypatch):
    monkeypatch.setattr(mc, "_h2_last", (None, None))
    monkeypatch.setattr(mc, "H2_CACHE_BYTES", 8 * 1000)  # one array of 1000 draws
    a = mc.h2_samples(0.5, 1000, seed=1)
    assert mc.h2_samples(0.5, 1000, seed=1) is a
    b = mc.h2_samples(0.5, 1000, seed=2)  # replaces seed 1
    assert mc._h2_last[1] is b and mc.h2_samples(0.5, 1000, seed=2) is b
    a2 = mc.h2_samples(0.5, 1000, seed=1)
    assert a2 is not a and np.array_equal(a2, a)
    big = mc.h2_samples(0.5, 1001, seed=1)  # larger than the bound: returned, not held
    assert mc._h2_last[1] is a2
    again = mc.h2_samples(0.5, 1001, seed=1)
    assert again is not big and np.array_equal(again, big)


def test_a_repeated_key_costs_no_second_draw(monkeypatch):
    monkeypatch.setattr(mc, "_h2_last", (None, None))
    calls = []
    draw = mc._draw

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return draw(*args, **kwargs)

    monkeypatch.setattr(mc, "_draw", counting)
    spec = SelectionSpec(6.0, 0.3)
    mc.tilted_estimate(spec, mc.H2Statistic(lambda h2: h2), 10**4, seed=7)
    mc.homozygosity_histogram(spec, 10**4, bins=20, seed=7)  # the key just estimated
    assert calls == [(0.3, 10**4, 7)]
    for k in range(1, 7):
        moments.mc_moment_oracle(0.5, k, 5000, seed=1)
    assert calls == [(0.3, 10**4, 7), (0.5, 5000, 1)]


@pytest.mark.parametrize("theta, k", [(0.5, 2), (0.1, 60)])  # at k = 60 the centre is wider than the draws
def test_ball_membership_is_exact(theta, k):
    # the float distance of a draw is off its exact distance by an ulp or
    # so, either way; with delta the float just above a draw's exact
    # distance, that draw is inside, whatever its float distance reads
    spec, n, seed = SelectionSpec(2.0, theta), 1000, 4
    (h2, rows), = _serial_sorted_batches(theta, n, seed)
    c = Fraction(1, k)

    def exact(row):  # the centre's coordinates past the row count too
        d = sum((abs(Fraction(x) - c) if i < k else Fraction(x)) / (2 << i)
                for i, x in enumerate(row.tolist()))
        return d + sum(c / (2 << i) for i in range(len(row), k))

    dist = [exact(row) for row in rows]
    w = np.exp(spec.sigma * h2)
    for i in range(6):
        delta = math.nextafter(float(dist[i]), math.inf)
        if Fraction(float(dist[i])) > dist[i]:
            delta = float(dist[i])
        want = mc._weighted_estimate(np.array([float(d < delta) for d in dist]), w)
        assert mc.ball_probability(spec, k, delta, n, seed) == want


def test_exact_membership_with_a_centre_of_a_billion_entries():
    # the centre's coordinates past the row weigh 2^-3/k - 2^-k/k, and its
    # 2^-k/k lies below every gap a float delta leaves
    row, k = np.array([0.5, 0.25, 0.125]), 10**9
    near = sum((Fraction(x) - Fraction(1, k)) / (2 << i) for i, x in enumerate(row)) + Fraction(1, 8 * k)
    below, above = math.nextafter(float(near), 0.0), math.nextafter(float(near), 2.0)
    assert not mc._inside_exactly(row, k, below)
    assert mc._inside_exactly(row, k, above)


# -- golden values: one seed's estimates and sticks, bit for bit --------------
# Recorded by float.hex from the layout that padded every row of a batch to
# its widest.  How the sticks are laid out moves no draw, H2 or stick, so
# these stay exact (the ball distance may round by an ulp on a narrower
# matrix, which moves the estimate only where a distance lies that close to
# the radius; none of these does).

GOLDEN_N = 2 * mc._BATCH + 17
GOLDEN_ESTIMATES = {  # (theta, statistic): (value, std_error, effective_sample_size)
    (0.1, "ball"): ("0x1.2a9a943994777p-1", "0x1.40157dbfeafd1p-8", "0x1.8dc5bd88587a6p+13"),
    (0.1, "generic"): ("0x1.939e5ce62e93cp-1", "0x1.fe8d069a36c3ap-10", "0x1.8dc5bd88587a6p+13"),
    (0.3, "ball"): ("0x1.06b21fd5100a3p-1", "0x1.a40aceb8783bbp-9", "0x1.84440267bb10cp+14"),
    (0.3, "generic"): ("0x1.795b1f2302304p-1", "0x1.4c911a8fe2a00p-10", "0x1.84440267bb10cp+14"),
    (1.0, "ball"): ("0x1.65488c5d5b99dp-2", "0x1.59062b2a1f169p-9", "0x1.0022000000000p+15"),
    (1.0, "generic"): ("0x1.408de48e75eccp-1", "0x1.160a44222107bp-10", "0x1.0022000000000p+15"),
}
GOLDEN_GEM_WEIGHTS = {  # sample_gem(theta, seed=seed).weights, in stick order
    (0.3, 480): [
        "0x1.ff11c67013406p-1", "0x1.f21a838e63999p-15", "0x1.c0cd41da1f55dp-10",
        "0x1.4e8e86c12b90cp-18", "0x1.1915924f8ecc6p-17", "0x1.4bcc1bf26e1f3p-16",
        "0x1.244d8c0dd3ef3p-17", "0x1.35a0916750ccfp-19", "0x1.b7288d3362446p-21",
        "0x1.564f51c3705f5p-23", "0x1.a4a94d77eb9dcp-25", "0x1.c3e3dd9248355p-23",
        "0x1.6a949b2d8d82bp-21", "0x1.612443edc6bf1p-26", "0x1.5cf5f8d041499p-35",
        "0x1.8725a455ee7f7p-41", "0x1.f6211e284f5e9p-49", "0x1.034705f0a6a41p-52",
        "0x1.3337d616c4293p-52", "0x1.1cb1a069ad768p-56", "0x1.246b5d890be63p-55",
        "0x1.8d8f68c08931ap-56", "0x1.ab2449547bd86p-60", "0x1.d87a995b741a6p-67",
        "0x1.2e89afc8eeda3p-78", "0x1.8ea3770448b66p-79", "0x1.85e5aebaca8e4p-80",
        "0x1.b4bffd76a0950p-88", "0x1.2afb582606785p-83",
    ],
    (0.5, 11): [
        "0x1.e738f5d0c8284p-3", "0x1.5f62d02c7b326p-1", "0x1.0dc72cd360e5bp-4",
        "0x1.176811f4adcc9p-7", "0x1.300a1d907bf69p-10", "0x1.ab51648a2e73dp-16",
        "0x1.952866d89fa57p-13", "0x1.4b456a3f45b7cp-16", "0x1.3aebaee6071acp-22",
        "0x1.a2f37875a042fp-19", "0x1.ae4f303107c44p-19", "0x1.62cfe25073544p-20",
        "0x1.a1d8d331e14eap-23", "0x1.66a7e429c84d6p-22", "0x1.64ed9f5c7db82p-23",
        "0x1.1f0723715145bp-23", "0x1.fd3f6972b93fep-26", "0x1.eca403c8af793p-28",
    ],
    (1.0, 68): [
        "0x1.ec5e8693e87eep-2", "0x1.c1d1c6f543c1fp-5", "0x1.8c3c89aae7b65p-5",
        "0x1.f1cb27d446dc1p-3", "0x1.09c8ffecab389p-5", "0x1.27f85a065533ap-8",
        "0x1.dfa1d918d13afp-4", "0x1.c9b2d46e1cf46p-8", "0x1.5119161be53d0p-9",
        "0x1.d25886aff445bp-13", "0x1.c675066ca9a42p-8", "0x1.6914a5704a305p-10",
        "0x1.ddb4c4e0a7b1fp-12", "0x1.c6baf5d0dac81p-16", "0x1.f185652fee83dp-14",
        "0x1.33b0b7bc1f940p-15", "0x1.48305bf9f500ap-19", "0x1.c02ad287e3869p-17",
        "0x1.da943d851db8cp-17", "0x1.685a052cdfc73p-17", "0x1.48be175d934d2p-21",
        "0x1.fb19c7f030ddep-25", "0x1.246e1c72c1651p-20", "0x1.a450a7f648fecp-24",
        "0x1.6a4ff4a90fa53p-28", "0x1.01f099832c7c4p-27", "0x1.27a950137586fp-24",
        "0x1.88d280844bda4p-26", "0x1.db0efacc3d534p-25", "0x1.002f89318336bp-32",
        "0x1.ac22e30f3251bp-26", "0x1.dc1941225234ap-27", "0x1.41ee51f0dbd74p-30",
        "0x1.79e9cd09bafa0p-33", "0x1.3c1b7da706757p-32", "0x1.7714d3002a894p-34",
        "0x1.7f1294417258bp-35", "0x1.6741f7de5aec3p-37", "0x1.9d2f30fbeea18p-38",
        "0x1.bb8005ec7e545p-40", "0x1.4417859238f26p-39", "0x1.0dadf3252e83cp-41",
        "0x1.3c47d978018fdp-41", "0x1.466c668aef007p-43", "0x1.1eff1c64b0aa6p-44",
        "0x1.1d48595660a60p-46",
    ],
}


@pytest.mark.parametrize("theta, statistic", sorted(GOLDEN_ESTIMATES))
def test_estimates_equal_their_golden_values(theta, statistic):
    spec = SelectionSpec(2.0, theta)
    if statistic == "ball":
        est = mc.ball_probability(spec, k=1, delta=0.2, n=GOLDEN_N, seed=31)
    else:
        est = mc.tilted_estimate(spec, _generic_stat, n=GOLDEN_N, seed=31)
    got = (est.value, est.std_error, est.effective_sample_size)
    assert tuple(x.hex() for x in got) == GOLDEN_ESTIMATES[theta, statistic]


@pytest.mark.parametrize("theta, seed", sorted(GOLDEN_GEM_WEIGHTS))
def test_sample_gem_equals_its_golden_sticks(theta, seed):
    # at theta = 0.5 the draw ends within its first block of 18 sticks; at
    # theta = 0.3 and 1 it is late, its first block of 13 or 30 then one
    # block of 16
    weights = mc.sample_gem(theta, seed=seed).weights
    assert [float(x).hex() for x in weights] == GOLDEN_GEM_WEIGHTS[theta, seed]
