"""Coefficient tables, bounds, and asymptotic constants."""

import json
import math

import numpy as np
import pytest

from pdov import coefficients as coefs
from pdov import moments
from pdov.errors import DomainError


def closed_form_A1(k, theta):
    # A_{k,1}(theta) = 2^{k-1} (k-1)! Gamma(k+theta) / Gamma(2k+theta)
    return math.exp(
        (k - 1) * math.log(2.0)
        + math.lgamma(k)
        + math.lgamma(k + theta)
        - math.lgamma(2 * k + theta)
    )


def test_first_column_closed_form():
    for theta in (0.0, 0.3, 0.5, 1.0):
        table = coefs.build_coeff_table(theta, 12)
        for k in range(1, 13):
            assert math.exp(table.log_entry(k, 1)) == pytest.approx(
                closed_form_A1(k, theta), rel=1e-12
            )
            # the first column is the l = 0 term of the recursion: A(k,1) = w(k,0)
            assert math.exp(coefs.log_w(k, 0, theta)) == pytest.approx(
                closed_form_A1(k, theta), rel=1e-12
            )


def test_log_sum_exp_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    rows = [np.array([3.0]), np.array([1.0, 1.0]), np.array([0.0, -np.inf, 0.0, -1e300])]
    for i in range(600):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), int(rng.integers(1, 400)))
        if i % 4 == 1:
            a[rng.random(a.size) < 0.3] = -np.inf
            a[rng.integers(0, a.size)] = 0.5  # keeps one term finite
        elif i % 4 == 2:
            a[rng.integers(0, a.size, 3)] = a.max()  # tied maxima
        elif i % 4 == 3:
            a = np.round(a)  # many ties
        rows.append(a)
    with mpmath.workdps(30):
        for a in rows:
            want = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in a if v > -np.inf))
            got = coefs.log_sum_exp(a)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(got)), a
    # along an axis, each row as on its own
    matrix = np.vstack([np.resize(a, 50) for a in rows[3:]])
    assert np.array_equal(coefs.log_sum_exp(matrix, axis=1), [coefs.log_sum_exp(r) for r in matrix])
    assert np.array_equal(coefs.log_sum_exp(matrix.T, axis=0), coefs.log_sum_exp(matrix, axis=1))


def test_small_theta_one_values():
    table = coefs.build_coeff_table(1.0, 1)
    assert math.exp(table.log_entry(1, 1)) == pytest.approx(0.5, rel=1e-14)
    half = coefs.build_coeff_table(0.5, 2)
    assert math.exp(half.log_entry(2, 1)) == pytest.approx(2.0 / (3.5 * 2.5), rel=1e-13)


def test_limit_table_small_values():
    limit = coefs.build_limit_table(2)
    assert math.exp(limit.log_entry(1, 1)) == pytest.approx(1.0, rel=1e-14)
    assert math.exp(limit.log_entry(2, 1)) == pytest.approx(1.0 / 3.0, rel=1e-14)
    # one recursion step: A_{2,2} = (8 Gamma(3)/(2 Gamma(5))) A_{1,1} = 1/3
    assert math.exp(limit.log_entry(2, 2)) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_theta_zero_is_limit_table():
    a = coefs.build_coeff_table(0.0, 8)
    b = coefs.build_limit_table(8)
    assert np.array_equal(a.log_entries, b.log_entries)
    assert b.is_limit


def test_triangular_shape():
    table = coefs.build_coeff_table(0.4, 10)
    for k in range(1, 11):
        for l in range(k + 1, 11):
            assert table.log_entries[k, l] == -math.inf
    with pytest.raises(DomainError):
        table.log_entry(3, 4)  # above the diagonal is not addressable


def test_domain_errors():
    with pytest.raises(DomainError):
        coefs.build_coeff_table(-0.1, 5)
    with pytest.raises(DomainError):
        coefs.build_coeff_table(1.5, 5)
    with pytest.raises(DomainError):
        coefs.build_coeff_table(0.5, 0)
    with pytest.raises(DomainError):
        coefs.log_b_term(3, 3)


def test_b_term_values():
    assert math.exp(coefs.log_b_term(5, 3)) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert math.exp(coefs.log_b_term(5, 4)) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert math.exp(coefs.log_b_term(3, 1)) == pytest.approx(0.2, rel=1e-12)


def test_c_constant_values():
    assert coefs.c_constant(1) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert coefs.c_constant(2) == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-13)
    assert coefs.c_constant(3) == pytest.approx(
        2.0 * math.pi ** 1.5 * math.sqrt(3.0), rel=1e-13
    )


def test_asymptotic_A_evaluation():
    got = coefs.log_asymptotic_A(100, 1)
    want = math.log(math.sqrt(math.pi)) - 0.5 * math.log(100.0) - 100.0 * math.log(2.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert math.exp(coefs.log_asymptotic_A(1, 1)) == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-12
    )


@pytest.mark.parametrize("kmax", (64, 192))
@pytest.mark.parametrize("theta", (0.0, 1e-5, 0.5, 1.0))
def test_column_truncated_table_matches_full_build(theta, kmax):
    full = coefs.build_coeff_table(theta, kmax)
    assert full.cols == kmax
    for cols in (1, 2, 12, kmax):
        table = coefs.build_coeff_table(theta, kmax, cols=cols)
        assert table.cols == cols
        assert table.log_entries.shape == (kmax + 1, cols + 1)
        assert np.array_equal(table.log_entries, full.log_entries[:, : cols + 1])


def test_column_truncated_table_domain_errors():
    table = coefs.build_coeff_table(0.5, 20, cols=3)
    assert math.isfinite(table.log_entry(20, 3))
    with pytest.raises(DomainError):
        table.log_entry(20, 4)  # inside the triangle, but the column was not built
    for cols in (0, 21):
        with pytest.raises(DomainError):
            coefs.build_coeff_table(0.5, 20, cols=cols)
    assert coefs.cached_table(0.5, 20, cols=1000).cols == coefs.cached_table(0.5, 20).kmax
    with pytest.raises(DomainError):
        moments.log_moments_from_table(table, 20)  # moments need every column
    limit = coefs.build_coeff_table(0.0, 16, cols=2)
    assert coefs.log_c_combined(8, 2, 6.0, table=limit) == coefs.log_c_combined(8, 2, 6.0)
    with pytest.raises(DomainError):
        coefs.log_c_combined(8, 3, 6.0, table=limit)  # column 3 not built


def test_asymptotic_A_accuracy_at_k400():
    table = coefs.cached_table(0.0, 400)
    ratio = math.exp(coefs.log_asymptotic_A(400, 1) - table.log_entry(400, 1))
    assert 0.9 < ratio < 1.1


def test_c_combined_two_term():
    got = math.exp(coefs.log_c_combined(2, 1, 6.0))
    # A_{2,1} + 2*(5/6)*A_{1,1} = 1/3 + 5/3 = 2
    assert got == pytest.approx(2.0, rel=1e-12)


def test_c_combined_degenerate_k_equals_l():
    table = coefs.cached_table(0.0, 16)
    got = coefs.log_c_combined(3, 3, 7.0, table=table)
    assert got == pytest.approx(table.log_entry(3, 3), abs=1e-12)


def test_c_combined_matches_asymptotic_at_k400():
    ratio = math.exp(
        coefs.log_c_combined(400, 1, 6.0) - coefs.log_asymptotic_C(400, 1, 6.0)
    )
    assert abs(ratio - 1.0) < 0.1


def test_asymptotic_C_growth_base_tie_at_critical():
    # f(l) = (lam-l)/lam + l/(l+1) ties between l=1 and l=2 exactly at lam=6
    f = lambda l, lam: (lam - l) / lam + l / (l + 1)
    assert f(1, 6.0) == pytest.approx(f(2, 6.0), rel=1e-15)
    assert f(1, 5.0) > f(2, 5.0)
    assert f(1, 7.0) < f(2, 7.0)


def test_c_combined_domain_error():
    with pytest.raises(DomainError):
        coefs.log_c_combined(4, 2, 2.0)
    with pytest.raises(DomainError):
        coefs.log_asymptotic_C(4, 2, 2.0)


def test_cached_table_reuse_and_sizing():
    t1 = coefs.cached_table(0.5, 100)
    t2 = coefs.cached_table(0.5, 70)
    assert t2.kmax >= 70
    assert t1 is coefs.cached_table(0.5, 100)
    assert math.exp(t2.log_entry(50, 2)) == pytest.approx(
        math.exp(coefs.build_coeff_table(0.5, 50).log_entry(50, 2)), rel=1e-12
    )


def test_series_kmax_covers_peak():
    # the series over k peaks near k = x; the truncation point must sit far beyond it
    for x in (1.0, 50.0, 200.0):
        assert coefs.series_kmax(x) > 2 * x + 50


def test_csv_json_roundtrip(tmp_path):
    import csv as csvmod
    import io

    table = coefs.build_coeff_table(0.25, 5)
    buf = io.StringIO()
    coefs.table_to_csv(table, buf)
    rows = list(csvmod.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 5 * 6 // 2
    row = next(r for r in rows if r["k"] == "3" and r["l"] == "2")
    assert float(row["A"]) == pytest.approx(math.exp(table.log_entry(3, 2)), rel=1e-15)
    obj = coefs.table_to_json(table)
    payload = json.loads(json.dumps(obj))
    assert payload["theta"] == 0.25
    assert float(payload["rows"][0][0]) == pytest.approx(
        math.exp(table.log_entry(1, 1)), rel=1e-15
    )
