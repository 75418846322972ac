"""Tilted-measure series: K_n ratios, tail bounds, MGF, phase map."""

import math

import numpy as np
import pytest

from pdov import coefficients as coefs
from pdov import tilted
from pdov.errors import DomainError, PrecisionError
from pdov.model import SelectionSpec


def test_exp_series_identity():
    # a_k = 1 gives sum x^k/k! = e^x, stable far past float overflow of e^x
    coeff = np.zeros(coefs.series_kmax(300.0))
    got = tilted.exp_series(300.0, coeff, start=0, log_coeff_cap=0.0)
    assert got == pytest.approx(300.0, abs=1e-10)


def test_exp_series_constant_ratio():
    b = coefs.cached_table(0.0, coefs.series_kmax(40.0)).log_entries[1:, 1]
    a = b + math.log(3.5)
    r = math.exp(
        tilted.exp_series(40.0, a, start=1, log_coeff_cap=math.log(7.0))
        - tilted.exp_series(40.0, b, start=1, log_coeff_cap=math.log(2.0))
    )
    assert r == pytest.approx(3.5, rel=1e-11)


def test_exp_series_bounded_by_cap():
    kmax = coefs.series_kmax(25.0)
    b = coefs.cached_table(0.0, kmax).log_entries[1:, 1]
    got = tilted.exp_series(25.0, b, start=1, log_coeff_cap=math.log(2.0))
    assert got <= math.log(2.0) + 25.0


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


def test_tail_bound_doubles_columns_and_matches_full_table(monkeypatch):
    spec = SelectionSpec(1.0, 0.125)
    asked = []

    def recording_table(theta, kmax, cols=None):
        asked.append(cols)
        return coefs.cached_table(theta, kmax, cols=cols)

    monkeypatch.setattr(tilted, "cached_table", recording_table)
    computed, _ = tilted.tail_bound(spec)
    assert asked == [4, 8, 16]  # 2([lam]+1) columns, then two doublings

    # reference: the same stopping rule and summation order on a full table
    full = coefs.cached_table(spec.theta, coefs.series_kmax(spec.x))
    assert full.cols == full.kmax
    total = 0.0
    for l in range(2, full.kmax + 1):
        term = math.exp(l * math.log(spec.theta) + tilted._log_series(full, l, spec.x))
        total += term
        if term < 1e-18 * max(total, 1e-300):
            break
    assert computed == total


def test_k_ratio_matches_full_table():
    spec = SelectionSpec(12.0, 1e-5)
    full = coefs.cached_table(spec.theta, coefs.series_kmax(spec.x) + 1)
    assert full.cols == full.kmax
    log_num, log_den = (tilted._log_num_den(spec, n, full) for n in (1, 0))
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


def test_mgf_raises_where_the_alternating_sum_cancels():
    # at t = 20 the outer terms reach ~2e5 against a sum near 2e-4: ~1e-7
    # relative rounding (the 40-digit oracle differs by 1.5e-7)
    spec = SelectionSpec(6.0, 1e-2)
    with pytest.raises(PrecisionError, match="cancels"):
        tilted.mgf(spec, 20.0)
    assert tilted.mgf(spec, 5.0) > 1.0


def test_mgf_rejects_huge_t():
    for t in (100.0, math.nan):
        with pytest.raises(DomainError):
            tilted.mgf(SelectionSpec(6.0, 0.1), t)


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
