"""Tilted-measure series: K_n ratios, tail bounds, MGF, phase map."""

import math

import numpy as np
import pytest

from pdov import coefficients as coefs
from pdov import ldp, moments, tilted
from pdov.errors import DomainError, PrecisionError
from pdov.model import SelectionSpec


def test_exp_series_identity():
    # a_k = 1 gives sum x^k/k! = e^x, stable far past float overflow of e^x
    coeff = np.zeros(993)
    got = tilted.exp_series(300.0, coeff, start=0, log_coeff_cap=0.0)
    assert got == pytest.approx(300.0, abs=1e-10)


def test_exp_series_constant_ratio():
    b = coefs.cached_table(0.0, 241).log_entries[1:, 1]
    a = b + math.log(3.5)
    r = math.exp(
        tilted.exp_series(40.0, a, start=1, log_coeff_cap=math.log(7.0))
        - tilted.exp_series(40.0, b, start=1, log_coeff_cap=math.log(2.0))
    )
    assert r == pytest.approx(3.5, rel=1e-11)


def test_exp_series_bounded_by_cap():
    b = coefs.cached_table(0.0, 188).log_entries[1:, 1]
    got = tilted.exp_series(25.0, b, start=1, log_coeff_cap=math.log(2.0))
    assert got <= math.log(2.0) + 25.0


def test_exp_series_caps_each_cut_by_the_coefficients_past_it():
    # a_k = 1 up to k = 50, then 1e-30: log_coeff_cap bounds only the
    # coefficients past the supplied ones, so cutting where it alone
    # certifies the tail (at k = 19) would drop most of the sum
    x = 20.0
    log_coeffs = np.where(np.arange(61) <= 50, 0.0, math.log(1e-30))
    got = tilted.exp_series(x, log_coeffs, log_coeff_cap=log_coeffs[-1])
    exact = math.log(math.fsum(math.exp(a) * x**k / math.factorial(k)
                               for k, a in enumerate(log_coeffs)))
    assert abs(got - exact) <= 1e-13 * exact


def test_exp_series_cut_does_not_depend_on_the_coefficients_past_it():
    # a_k = 1, capped by 1: the terms past the cut are large enough to move
    # the rounded sum, so only a cut made from a_0..a_k keeps it fixed
    results = {tilted.exp_series(25.0, np.zeros(n), log_coeff_cap=0.0) for n in (73, 80, 150)}
    assert len(results) == 1


def test_exp_series_truncation_raises():
    short = np.zeros(20)  # far too short for x = 100
    with pytest.raises(PrecisionError):
        tilted.exp_series(100.0, short, start=0, log_coeff_cap=0.0)


@pytest.mark.parametrize(
    "log_coeffs",
    [[], [-np.inf, -np.inf], [np.nan, 0.0], [np.inf, 0.0]],
    ids=["empty", "all-zero", "nan", "inf"],
)
def test_exp_series_rejects_coefficients_it_cannot_certify(log_coeffs):
    with pytest.raises(DomainError):
        tilted.exp_series(1.0, log_coeffs, log_coeff_cap=0.0)


def test_certify_equals_exp_series_row_by_row():
    # random blocks of series: per-row starts, read at a column shift of a
    # transposed matrix (as K_n reads its table), caps above and below the
    # coefficients (so a cut's cap is the largest one past it), x = 0, and
    # rows that end inside the Poisson bulk
    rng = np.random.default_rng(18)
    seen = set()
    for _ in range(400):
        rows, width, shift = int(rng.integers(1, 7)), int(rng.integers(1, 300)), int(rng.integers(0, 4))
        x = float(rng.choice([0.0, rng.uniform(0.0, 5.0), rng.uniform(0.0, 60.0), rng.uniform(0.0, 300.0)]))
        starts = rng.integers(0, min(width, 40), rows)
        log_caps = rng.normal(0.0, 5.0, rows)
        lift = rng.uniform(-5.0, 5.0, rows)[:, None]  # > 0: coefficients above the cap
        spread = rng.uniform(0.0, 30.0, rows)[:, None]
        held = np.ascontiguousarray((log_caps[:, None] + lift - spread * rng.random((rows, width + shift))).T)
        block = held.T[:, shift:]
        log_sums, more = tilted._certify(x, block, starts, log_caps)
        single = []
        for row, start, cap in zip(block, starts, log_caps):
            try:
                single.append(tilted.exp_series(x, row[start:], start=start, log_coeff_cap=cap))
            except PrecisionError:
                single.append(None)
        assert (more > 0) == (None in single)
        if more == 0:
            assert [float(v).hex() for v in log_sums] == [v.hex() for v in single]
        if x == 0.0 or x >= width + 1:  # the last column k = width - 1 is inside the bulk
            seen.add("x = 0" if x == 0.0 else "ends in the bulk")
        else:
            seen.add(("more" if more else "certified", "lifted" if (lift > 0.0).any() else "capped"))
    assert seen == {"x = 0", "ends in the bulk"} | {
        (outcome, caps) for outcome in ("more", "certified") for caps in ("lifted", "capped")
    }


def test_series_ratio_refused_at_theta_one():
    # x = 0: numerator and denominator series are both empty sums
    with pytest.raises(DomainError, match="0/0"):
        tilted.k_ratio(SelectionSpec(6.0, 1.0), 1)


def test_k0_is_one():
    for lam in (1.0, 2.5, 6.0, 12.0):
        for theta in (1e-2, 1e-5):
            assert tilted.k_ratio(SelectionSpec(lam, theta), 0) == 1.0


def test_kn_in_unit_interval_and_decreasing_in_n():
    spec = SelectionSpec(6.0, 1e-4)
    vals = [tilted.k_ratio(spec, n) for n in range(4)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_k1_trend_lam6():
    vals = [tilted.k_ratio(SelectionSpec(6.0, th), 1) for th in (1e-3, 1e-5, 1e-7)]
    assert vals[0] > vals[1] > vals[2] > 0.5
    assert abs(vals[2] - 0.5) < abs(vals[0] - 0.5)


def test_k2_trend_lam6():
    vals = [tilted.k_ratio(SelectionSpec(6.0, th), 2) for th in (1e-3, 1e-5)]
    assert abs(vals[1] - 0.25) < abs(vals[0] - 0.25)


def test_limit_coeff_variant_close_for_small_theta():
    spec = SelectionSpec(6.0, 1e-6)
    full = tilted.k_ratio(spec, 1)
    lim = tilted.k_ratio(spec, 1, use_limit_coeffs=True)
    assert lim == pytest.approx(full, abs=1e-4)


def test_proof_diagnostics_reconstruction():
    for lam in (2.5, 6.0):
        for theta in (1e-2, 1e-4):
            spec = SelectionSpec(lam, theta)
            f, g = tilted.proof_diagnostics(spec, 1)
            kn = tilted.k_ratio(spec, 1)
            kn_tilde = tilted.k_ratio(spec, 1, use_limit_coeffs=True)
            assert kn * (1.0 + g) == pytest.approx(kn_tilde + f, rel=1e-10)
            bound = math.floor(lam) * theta
            assert abs(g) <= bound + 1e-15
            assert abs(f) <= bound * kn_tilde + 1e-15


def test_diagnostics_vanish_with_theta():
    f1, g1 = tilted.proof_diagnostics(SelectionSpec(6.0, 1e-2), 1)
    f2, g2 = tilted.proof_diagnostics(SelectionSpec(6.0, 1e-4), 1)
    assert abs(f2) < abs(f1)
    assert abs(g2) < abs(g1)


def test_tail_bound_holds():
    for lam in (1.0, 2.5, 6.0):
        for theta in (1e-2, 1e-4):
            computed, analytic = tilted.tail_bound(SelectionSpec(lam, theta))
            assert computed <= analytic
    # bound is monotone in theta at fixed lambda
    _, b1 = tilted.tail_bound(SelectionSpec(6.0, 1e-2))
    _, b2 = tilted.tail_bound(SelectionSpec(6.0, 5e-3))
    assert b2 < b1


def _full_table_series(full, l, x, n=0):
    """log of sum_{k>=l} (x^k/k!) A(k+n, l) over every row of a full table,
    one public exp_series call."""
    return tilted.exp_series(x, full.log_entries[l + n :, l], start=l,
                             log_coeff_cap=(2 - l) * math.log(2.0))


def test_tail_bound_doubles_columns_and_matches_full_table(monkeypatch):
    spec = SelectionSpec(1.0, 0.125)
    asked = []

    def recording_table(theta, kmax, cols=None):
        asked.append(cols)
        return coefs.cached_table(theta, kmax, cols=cols)

    monkeypatch.setattr(tilted, "cached_table", recording_table)
    computed, _ = tilted.tail_bound(spec)
    # 2([lam]+1) columns, then two doublings, each asked again as its rows grow
    assert asked == sorted(asked) and list(dict.fromkeys(asked)) == [4, 8, 16]

    # reference: the same stopping rule and summation order on a full table
    full = coefs.build_coeff_table(spec.theta, 85)
    assert full.cols == full.kmax
    total = 0.0
    for l in range(2, full.kmax + 1):
        term = math.exp(l * math.log(spec.theta) + _full_table_series(full, l, spec.x))
        total += term
        if term < 1e-18 * max(total, 1e-300):
            break
    assert computed == total


def _small_x_results():
    spec = SelectionSpec(6.0, 1e-2)
    return (
        tilted.k_ratio(spec, 1),
        tilted.k_ratio(spec, 2, use_limit_coeffs=True),
        tilted.proof_diagnostics(spec, 1),
        tilted.tail_bound(spec),
        tilted.mgf(spec, 1.0),
        tilted.mgf(spec, -0.5),
        tilted.tilted_mean_heterozygosity(spec),
    )


def test_series_do_not_depend_on_the_rows_held():
    coefs._store.cache_clear()
    try:
        fresh = _small_x_results()
        coefs._store.cache_clear()
        # larger-x calls first grow the tables and moments the small-x calls read:
        # the limit table is shared across theta, tail_bound at lam 6.9 holds the
        # same columns as at lam 6, and mgf at t = -20 sums its series at
        # x + 20, reading 29 moments more; then both tables are widened
        tilted.k_ratio(SelectionSpec(6.0, 1e-9), 2, use_limit_coeffs=True)
        tilted.tail_bound(SelectionSpec(6.9, 1e-2))
        tilted.mgf(SelectionSpec(6.0, 1e-2), -20.0)
        coefs.cached_table(1e-2, 500, cols=40)
        coefs.cached_table(0.0, 300, cols=40)
        assert _small_x_results() == fresh
    finally:
        coefs._store.cache_clear()


def test_tail_bound_holds_one_table_and_computes_no_row_twice(monkeypatch):
    extend = coefs._extend
    calls = []

    def recording_extend(held, theta, kmax, cols):
        table = extend(held, theta, kmax, cols)
        calls.append((held, table))
        return table

    monkeypatch.setattr(coefs, "_extend", recording_extend)
    coefs._store.cache_clear()
    try:
        tilted.tail_bound(SelectionSpec(1.0, 0.125))
        # only theta = 0.125 holds a table; theta = 1 holds the factorials alone
        assert coefs._store.cache_info().currsize == 2 and set(coefs._store(1.0)) == {"lgamma"}
        held = coefs._store(0.125)["table"]
        assert held.cols == 16  # the last block of columns, 9..16
        # each build grows the table the one before it returned
        assert calls[0][0] is None and len(calls) > 3
        assert all(held is table for (held, _), (_, table) in zip(calls[1:], calls))
        assert calls[-1][1] is held
        assert np.array_equal(held.log_entries,
                              coefs.build_coeff_table(0.125, held.kmax, held.cols).log_entries)
    finally:
        coefs._store.cache_clear()


def test_more_terms_is_the_fewest_that_bound_every_tail():
    rng = np.random.default_rng(3)
    answers = set()
    for _ in range(400):
        x = float(rng.choice([5.0, 100.0, 3000.0]) * rng.random())
        k_last = int(rng.integers(0, 400))
        peaks = rng.normal(x, 30.0, 3)
        caps = rng.normal(0.0, 5.0, 3)
        got = tilted._more_terms(x, k_last, peaks, caps)
        allowance = math.log(tilted.DEFAULT_RTOL / 2) + peaks - caps

        def holds(k):  # every series' tail bound past k within its allowance
            return np.all(tilted._log_tail(x, np.array([float(k)]), 0.0) <= allowance)

        lo, k = max(k_last, math.floor(x) - 1), k_last + got
        last = lo + 2 * k_last + 2
        assert lo <= k <= last
        # the bound holds at k and fails one term earlier, bar the search's ends
        assert holds(k) or k == last
        assert k == lo or not holds(k - 1)
        answers.add("none" if k == lo else "all" if k == last else "some")
    assert answers == {"none", "some", "all"}  # certified at once, inside, and at the end


def test_k_ratio_grows_the_factorial_lookup_only_as_far_as_it_reads():
    spec = SelectionSpec(6.0, 1e-5)

    coefs._store.cache_clear()
    try:
        tilted.k_ratio(spec, 1)
        kmax = coefs._store(spec.theta)["table"].kmax
        # each certificate reads log k! a few rows past the table, not 2 kmax past it
        assert len(coefs._store(1.0)["lgamma"]) <= 2 * kmax + 2
    finally:
        coefs._store.cache_clear()


def test_k_ratio_matches_full_table():
    spec = SelectionSpec(12.0, 1e-5)
    full = coefs.build_coeff_table(spec.theta, 544)
    assert full.cols == full.kmax
    log_num, log_den = (
        coefs.log_sum_exp(np.array([l * math.log(spec.theta) + _full_table_series(full, l, spec.x, n)
                                    for l in range(1, 13)]))
        for n in (1, 0)
    )
    expected = math.exp(log_num - log_den)
    assert tilted.k_ratio(spec, 1) == expected


def test_mgf_normalization_and_trend():
    assert tilted.mgf(SelectionSpec(6.0, 1e-4), 0.0) == 1.0
    vals = [tilted.mgf(SelectionSpec(6.0, th), 1.0) for th in (1e-2, 1e-4, 1e-6)]
    target = math.exp(0.5)
    assert abs(vals[2] - target) < abs(vals[0] - target)


def test_mgf_negative_argument():
    spec = SelectionSpec(6.0, 1e-3)
    assert 0.0 < tilted.mgf(spec, -2.0) < 1.0


def test_mgf_rejects_huge_t():
    spec = SelectionSpec(6.0, 0.1)
    for t in (780.0, 1000.0):  # log mgf passes log of the largest float, ~709.8
        with pytest.raises(DomainError, match="largest float"):
            tilted.mgf(spec, t)
    with pytest.raises(DomainError, match="weight evaluations"):  # past MAX_MOMENTS
        tilted.mgf(spec, 1e300)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            tilted.mgf(spec, t)
    assert tilted.mgf(spec, 700.0) < np.finfo(float).max


def test_mgf_refuses_past_the_tangent_before_any_h_run(monkeypatch):
    # log mgf >= x - log S(x) + (t - x)/1.1, its tangent at t = x; it passes
    # the log of the largest float at t ~ 785, and log mgf itself at t ~ 716
    spec = SelectionSpec(6.0, 0.1)
    assert tilted.mgf(spec, 700.0) == 3.380320471810575e+301

    def no_h_run(theta, k):
        raise AssertionError("the h run was called")

    monkeypatch.setattr(tilted, "log_homozygosity_moments", no_h_run)
    for t in (800.0, 1000.0, 1550.0, 15000.0):
        with pytest.raises(DomainError, match="largest float"):
            tilted.mgf(spec, t)
    with pytest.raises(AssertionError):  # under the tangent, the h run is summed
        tilted.mgf(spec, 780.0)


def test_a_second_mgf_computes_no_held_moment_again(monkeypatch):
    rows = []  # each moment row, of either run, is one log_sum_exp

    def counting(a, axis=None):
        rows.append(1)
        return coefs.log_sum_exp(a, axis)

    monkeypatch.setattr(moments, "log_sum_exp", counting)
    spec = SelectionSpec(6.0, 0.1)

    def held():
        store = coefs._store(spec.theta)
        return len(store["log_m"]) + len(store["log_h"])

    coefs._store.cache_clear()
    try:
        first = tilted.mgf(spec, 400.0)
        assert len(rows) == held() - 2  # every row past m_0 and h_0, once
        before = held()
        rows.clear()
        assert tilted.mgf(spec, 400.0) == first and rows == []
        tilted.mgf(spec, 700.0)
        assert 0 < len(rows) == held() - before  # only the rows past those held
    finally:
        coefs._store.cache_clear()


def test_s0_summed_with_s1_equals_s0_alone():
    for lam in (0.5, 2.0, 6.0, 12.0, 30.5):
        for theta in (1.0, 0.5, 0.1, 1e-3, 1e-30, 1e-100):
            x = SelectionSpec(lam, theta).x
            (alone,) = tilted._log_moment_series(theta, x, [(0, 0.0)])
            assert tilted._log_moment_series(theta, x, [(0, 0.0), (1, 0.0)])[0] == alone


def test_mgf_is_a_log_convex_mgf_across_t_equal_x():
    # log mgf is convex in t, with slope E H2 in (0, 1], on both routes
    spec = SelectionSpec(2.5, 0.5)  # x = 1.73
    ts = np.linspace(-20.0, 60.0, 161)
    log_m = np.log([tilted.mgf(spec, t) for t in ts])
    slopes = np.diff(log_m) / np.diff(ts)
    assert np.all(np.diff(slopes) > 0.0)
    assert 0.0 < slopes[0] and slopes[-1] < 1.0


def test_moment_series_free_energy_approaches_the_ldp_limit():
    # S(x) = sum_k (x^k/k!) m_k = E e^{x(1-H2)}; at theta = e^-l the LDP
    # gives (1/l) log S(lam l) -> lam - inf_n {lam/n + n - 1}
    for lam in (1.0, 6.0, 12.0):
        gaps = []
        for theta in (1e-5, 1e-20, 1e-50):
            (log_s,) = tilted._log_moment_series(theta, SelectionSpec(lam, theta).x, [(0, 0.0)])
            gaps.append(log_s / -math.log(theta) - lam + ldp.inf_term(lam)[0])
        if lam == 1.0:  # phase u = 1: the limit is 0 and S stays near 1
            assert all(abs(g) <= 3e-4 for g in gaps)
        else:  # ~log(l)/l: -0.073, -0.037, -0.019 at lam 6; -0.22, -0.088, -0.044 at lam 12
            assert gaps[0] < gaps[1] < gaps[2] < 0.0


def test_tilted_mean_heterozygosity():
    # x = 0 collapses the series to m_1 = theta/(1+theta)
    assert tilted.tilted_mean_heterozygosity(SelectionSpec(6.0, 1.0)) == pytest.approx(
        0.5, rel=1e-12
    )
    near = tilted.tilted_mean_heterozygosity(SelectionSpec(6.0, 1e-6))
    far = tilted.tilted_mean_heterozygosity(SelectionSpec(6.0, 1e-2))
    assert abs(near - 0.5) < abs(far - 0.5)
    # u = 1 phase: heterozygosity drains away
    low = tilted.tilted_mean_heterozygosity(SelectionSpec(1.0, 1e-8))
    assert low < 0.25


def test_classify_phase_intervals():
    assert tilted.classify_phase(1.0).u == 1
    assert tilted.classify_phase(2.0).u == 1  # closed right endpoint
    assert tilted.classify_phase(2.0000001).u == 2
    assert tilted.classify_phase(6.0).u == 2
    assert tilted.classify_phase(6.5).u == 3
    assert tilted.classify_phase(12.0).u == 3


def test_phase_result_payload():
    res = tilted.classify_phase(6.0)
    assert res.limit_homozygosity == pytest.approx(0.5)
    assert res.limit_configuration.entries == (0.5, 0.5)
    res1 = tilted.classify_phase(2.0)
    assert res1.limit_configuration.entries == (1.0,)


def test_classify_phase_refuses_non_finite_lam():
    for lam in (math.inf, math.nan):
        with pytest.raises(DomainError):
            tilted.classify_phase(lam)


def test_limit_mgf():
    assert tilted.limit_mgf(6.0, 1.0) == pytest.approx(math.exp(0.5), rel=1e-13)
    assert tilted.limit_mgf(12.0, 2.0) == pytest.approx(math.exp(2.0 / 3.0), rel=1e-13)
    assert tilted.limit_mgf(3.0, 0.0) == 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        tilted.classify_phase(0.0)
    with pytest.raises(DomainError):
        tilted.k_ratio(SelectionSpec(0.5, 1e-3), 1)  # floor(lambda) < 1
    with pytest.raises(DomainError):
        SelectionSpec(6.0, 0.0)
    with pytest.raises(DomainError):
        SelectionSpec(-1.0, 0.5)
    with pytest.raises(DomainError):
        SelectionSpec(math.inf, 0.5)
