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


def test_b_term_values():
    # B(k,l) = w(k,l) at theta = 0
    assert math.exp(coefs.log_w(5, 3, 0.0)) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert math.exp(coefs.log_w(5, 4, 0.0)) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert math.exp(coefs.log_w(3, 1, 0.0)) == pytest.approx(0.2, rel=1e-12)


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
    wide = coefs.cached_table(0.5, 20, cols=1000)  # columns past kmax ask for all kmax of them
    assert wide.kmax >= 20 and wide.cols >= 20
    with pytest.raises(DomainError):
        moments.log_moments_from_table(table, 20)  # moments to k = 20 need columns 1..20
    # the columns they read, however many rows and columns more the table holds
    small = coefs.build_coeff_table(0.5, 3)
    assert np.array_equal(moments.log_moments_from_table(table, 3),
                          moments.log_moments_from_table(small, 3))


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
    got = coefs.log_c_combined(3, 3, 7.0)
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


@pytest.fixture
def fresh_tables():
    coefs._store.cache_clear()
    yield
    coefs._store.cache_clear()


def test_cached_table_grows_by_rows_and_serves_smaller_requests(fresh_tables):
    t1 = coefs.cached_table(0.5, 70)
    t2 = coefs.cached_table(0.5, 100)
    assert (t2.kmax, t2.cols) == (100, 100)
    assert coefs.cached_table(0.5, 80) is t2  # the held table, not a smaller one
    assert np.array_equal(t2.log_entries[:71, :71], t1.log_entries)
    assert coefs.cached_table(0.5, 90, cols=3) is t2  # one table per theta serves every width


@pytest.mark.parametrize("theta", [0.0, 1e-100, 1e-5, 0.5, 1.0])
def test_table_grown_by_rows_and_columns_equals_fresh_build(fresh_tables, theta):
    rng = np.random.default_rng(17)
    for _ in range(6):
        coefs._store.cache_clear()
        for _ in range(4):
            kmax = int(rng.integers(1, 120))
            cols = None if rng.random() < 0.2 else int(rng.integers(1, 30))
            held = coefs._store(theta).get("table")
            grown = coefs.cached_table(theta, kmax, cols=cols)
            width = kmax if cols is None else min(cols, kmax)
            # the held table, grown to the larger rows and the larger columns
            assert grown.kmax == max(kmax, held.kmax if held else 0)
            assert grown.cols == max(width, held.cols if held else 0)
            fresh = coefs.build_coeff_table(theta, grown.kmax, cols=grown.cols)
            assert np.array_equal(grown.log_entries, fresh.log_entries)


def test_table_too_large_to_grow_is_replaced_by_the_request(fresh_tables, monkeypatch):
    monkeypatch.setattr(coefs, "MAX_TABLE_WORK", 50_000)
    coefs.cached_table(0.5, 30)  # 30^2 30 = 27,000
    table = coefs.cached_table(0.5, 60, cols=3)  # alone 10,800; grown to 60 x 30, 108,000
    assert (table.kmax, table.cols) == (60, 3)
    assert coefs._store(0.5)["table"] is table
    assert np.array_equal(table.log_entries, coefs.build_coeff_table(0.5, 60, cols=3).log_entries)
    with pytest.raises(DomainError):
        coefs.cached_table(0.5, 300, cols=3)  # 270,000 alone
    assert coefs._store(0.5)["table"] is table


@pytest.mark.parametrize("theta", [0.0, 1e-5, 0.5, 1.0])
@pytest.mark.parametrize("cols", [1, 3, 12, None])
def test_grown_table_equals_fresh_build(fresh_tables, theta, cols):
    for kmax in (2, 9, 40, 41, 130):
        grown = coefs.cached_table(theta, kmax, cols=cols)
        width = kmax if cols is None else min(cols, kmax)
        fresh = coefs.build_coeff_table(theta, kmax, cols=width)
        assert (grown.kmax, grown.cols) == (kmax, width)
        # bit-identical, the -inf outside the triangle included
        assert np.array_equal(grown.log_entries, fresh.log_entries)
    assert not grown.log_entries.flags.writeable


@pytest.mark.parametrize("theta", [0.0, 1e-5, 0.5, 1.0])
@pytest.mark.parametrize("cols", [5, 7])
def test_linear_kernel_is_bit_exact_across_widths_and_growth(fresh_tables, theta, cols):
    # the widths where a BLAS product summed rows in a width-dependent order
    full = coefs.build_coeff_table(theta, 192)
    truncated = coefs.build_coeff_table(theta, 192, cols=cols)
    assert np.array_equal(truncated.log_entries, full.log_entries[:, : cols + 1])
    for kmax in (3, 9, 40, 41, 192):
        grown = coefs.cached_table(theta, kmax, cols=cols)
        fresh = coefs.build_coeff_table(theta, kmax, cols=min(cols, kmax))
        assert np.array_equal(grown.log_entries, fresh.log_entries)


def _log_space_table(theta, kmax):
    """log A(k,l) by the row recursion, each entry one log_sum_exp of its terms."""
    by_col = np.full((kmax + 1, kmax + 1), -np.inf)  # by_col[l, k] = log A(k,l)
    for j in range(1, kmax + 1):
        lw = coefs.log_w(j, np.arange(j), theta)  # log w(j,l), l = 0..j-1
        by_col[1, j] = lw[0]
        if j > 1:
            by_col[2 : j + 1, j] = coefs.log_sum_exp(lw[1:] + by_col[1:j, 1:j], axis=1)
    return by_col.T


def test_linear_kernel_recomputes_uncertified_sums_in_log_space(monkeypatch):
    recomputed = []
    log_sum_exp = coefs.log_sum_exp

    def counting(a, axis=None):
        recomputed.append(a.shape[0])
        return log_sum_exp(a, axis=axis)

    monkeypatch.setattr(coefs, "log_sum_exp", counting)
    table = coefs.build_coeff_table(0.5, 200)
    assert sum(recomputed) > 0  # the entries whose linear sums reach the underflow floor
    want = _log_space_table(0.5, 200)
    assert np.array_equal(np.isinf(table.log_entries), np.isinf(want))
    finite = np.isfinite(want)
    got, want = table.log_entries[finite], want[finite]
    assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))


def test_export_matches_csv_writer_and_indexing_reference():
    import csv as csvmod
    import io

    table = coefs.build_coeff_table(0.5, 200)
    logs = table.log_entries
    assert np.abs(logs[np.isfinite(logs)]).max() > 700.0  # exercises the mantissa-exponent form
    rows = [[coefs._linear_repr(logs[k, l]) for l in range(1, k + 1)] for k in range(1, 201)]
    want = io.StringIO()
    writer = csvmod.writer(want)
    writer.writerow(["k", "l", "A"])
    writer.writerows([k, l, text] for k, row in enumerate(rows, 1) for l, text in enumerate(row, 1))
    got = io.StringIO()
    coefs.table_to_csv(table, got)
    assert got.getvalue() == want.getvalue()
    payload = {"theta": 0.5, "kmax": 200, "rows": rows}
    assert json.dumps(coefs.table_to_json(table), indent=2) == json.dumps(payload, indent=2)
    with pytest.raises(DomainError):
        coefs.table_to_csv(coefs.build_coeff_table(0.5, 20, cols=3), io.StringIO())


@pytest.mark.parametrize(
    "theta, kmax", [(0.5, 200), (0.0, 200), (0.5, 1), (1e-300, 3)]
)
def test_streamed_json_equals_the_reference(theta, kmax):
    import io

    table = coefs.build_coeff_table(theta, kmax)
    if kmax == 200:  # rows past double range take _linear_repr's mantissa-exponent form
        assert np.abs(table.log_entries[np.isfinite(table.log_entries)]).max() > 700.0
    got = io.StringIO()
    coefs.write_table_json(table, got)
    assert got.getvalue() == json.dumps(coefs.table_to_json(table), indent=2)
    refused = io.StringIO()
    with pytest.raises(DomainError):
        coefs.write_table_json(coefs.build_coeff_table(theta, kmax + 1, cols=1), refused)
    assert refused.getvalue() == ""  # refused before a byte is written


def test_row_text_equals_linear_repr_of_each_entry():
    logs = [0.5, -1e-300, -699.9999999999999, 699.9999999999999]  # the format's path
    outer = [-700.0, 700.0, -1e4, -math.inf]  # _linear_repr's path
    for row in [logs] + [r for x in outer for r in (logs + [x], [x])]:
        template = "|".join(["%.17g"] * len(row))
        assert coefs._row_text(template, row) == "|".join(map(coefs._linear_repr, row))


def test_row_text_splits_at_the_suffix_past_700_only():
    # a suffix past 700 after an in-range head, and entries past 700 in the
    # middle of a row, which is then written by _linear_repr throughout
    for row in ([0.5, -1.0, -700.0, -1e4, -math.inf],
                [0.5, -800.0, -1.0, -1e4],
                [800.0, 0.5, -1.0],
                [-math.inf, -1.0]):
        template = "".join(f"<{i}:%.17g>" for i in range(len(row)))
        want = "".join(f"<{i}:{coefs._linear_repr(v)}>" for i, v in enumerate(row))
        assert coefs._row_text(template, row) == want


@pytest.mark.parametrize("theta", [0.0, 1e-100, 1e-5, 0.5, 1.0])
def test_lgamma_lookup_is_math_lgamma_grown_or_fresh(theta):
    want = [math.lgamma(n + theta) if n + theta > 0.0 else math.inf for n in range(300)]
    coefs._store.cache_clear()
    try:
        for size in (1, 7, 40, 41, 300):  # grown
            got = coefs.lgamma_lookup(theta, size)
            assert got.tolist() == want[:size]  # bit for bit
        assert not got.flags.writeable
        coefs._store.cache_clear()
        assert coefs.lgamma_lookup(theta, 300).tolist() == want  # fresh
        assert len(coefs.lgamma_lookup(theta, 5)) == 5  # a view of the held lookup
    finally:
        coefs._store.cache_clear()


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
