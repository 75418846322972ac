"""Large-deviation rate functions and the finite-level configuration space."""

import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdov import ldp, tilted, verify
from pdov.errors import DomainError


def cfg(*entries):
    return ldp.Configuration(entries=tuple(entries))


def test_phi2_basics():
    assert ldp.phi2(cfg(1.0)) == 1.0
    assert ldp.phi2(cfg(0.5, 0.5)) == 0.5
    for k in (1, 2, 5):
        assert ldp.phi2(ldp.uniform_config(k)) == pytest.approx(1.0 / k, rel=1e-15)


def test_j_rate_levels():
    assert ldp.j_rate(cfg(1.0)) == 0.0
    assert ldp.j_rate(cfg(0.5, 0.5)) == 1.0
    assert ldp.j_rate(ldp.uniform_config(3)) == 2.0
    assert ldp.j_rate(cfg(0.3, 0.3, 0.2)) == math.inf  # total mass 0.8


def test_uniform_config():
    c2 = ldp.uniform_config(2)
    assert c2.entries == (0.5, 0.5)
    assert c2.uniform_k == 2
    with pytest.raises(DomainError):
        ldp.uniform_config(0)


def test_inf_term_enumeration():
    val6, arg6 = ldp.inf_term(6.0)
    assert val6 == 4.0 and arg6 == frozenset({2, 3})
    val1, arg1 = ldp.inf_term(1.0)
    assert val1 == 1.0 and arg1 == frozenset({1})
    val2, arg2 = ldp.inf_term(2.0)
    assert val2 == 2.0 and arg2 == frozenset({1, 2})  # critical tie


def _enumerated_inf(lam):
    """min over n >= 1 of lam/n + n - 1 and its minimizers, by enumeration
    in whole numbers: with lam = p/q the objective is (p + q n(n-1)) / (q n).
    From n to n + 1 it rises once n(n+1) > lam, so n <= isqrt(ceil lam) + 2
    holds every minimizer."""
    p, q = lam.as_integer_ratio()
    best, argmin = None, []
    for n in range(1, math.isqrt(math.ceil(lam)) + 3):
        num, den = p + q * n * (n - 1), q * n
        if best is None or num * best[1] < best[0] * den:
            best, argmin = (num, den), [n]
        elif num * best[1] == best[0] * den:
            argmin.append(n)
    return Fraction(*best), frozenset(argmin)


def test_inf_term_equals_enumeration():
    lams = [0.01 * i for i in range(1, 2001)] + [5e-324, 1e6]
    lams += np.random.default_rng(0).uniform(0.0, 1e6, 200).tolist()
    for u in range(1, 1000):  # every critical u(u+1) <= 1e6 and its float neighbours
        crit = float(u * (u + 1))
        lams += [math.nextafter(crit, 0.0), crit, math.nextafter(crit, math.inf)]
    for lam in lams:
        best, argmin = _enumerated_inf(lam)
        assert ldp._inf_exact(lam)[0] == best
        assert ldp.inf_term(lam) == (float(best), argmin)


@given(st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True))
def test_level_is_the_phase_and_the_least_minimizer(lam):
    u = ldp._level(lam)
    assert u >= 1 and u * (u - 1) < lam <= u * (u + 1)  # int against float: exact
    assert tilted.classify_phase(lam).u == min(ldp.inf_term(lam)[1]) == u


def test_s_rate_two_zeros_exact():
    for k in (1, 2, 3):
        lam = float(k * (k + 1))
        assert ldp.s_rate(ldp.uniform_config(k), lam) == 0
        assert ldp.s_rate(ldp.uniform_config(k + 1), lam) == 0


def test_s_rate_values():
    assert ldp.s_rate(ldp.uniform_config(1), 6.0) == 2  # 0 + 6/1 - 4
    assert ldp.s_rate(cfg(0.3, 0.3, 0.2), 6.0) == math.inf
    # non-uniform on-simplex configuration: float path, still nonnegative
    s = ldp.s_rate(cfg(0.6, 0.4), 6.0)
    assert s == pytest.approx(1.0 + 6.0 * 0.52 - 4.0, rel=1e-12)


def test_s_rate_exact_fraction_path():
    val = ldp.s_rate(ldp.uniform_config(4), 6.0)
    assert isinstance(val, Fraction) or val == float(val)
    assert val == Fraction(3) + Fraction(6, 4) - 4  # = 1/2


def test_off_level_floor():
    # at lam = k(k+1), levels other than k, k+1 stay >= 2/(k+2)
    for k in (1, 2, 3):
        lam = float(k * (k + 1))
        for n in range(1, 9):
            if n in (k, k + 1):
                continue
            s = ldp.s_rate(ldp.uniform_config(n), lam)
            assert s >= Fraction(2, k + 2)


def test_metric_examples():
    a, b = cfg(1.0), cfg(0.5, 0.5)
    assert ldp.metric_d(a, a) == 0.0
    assert ldp.metric_d(a, b) == pytest.approx(0.25 + 0.125, rel=1e-15)


simplex_entries = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=6
).map(lambda v: tuple(sorted((x / sum(v) for x in v), reverse=True)))


@given(simplex_entries, simplex_entries, simplex_entries)
def test_metric_is_a_metric(a, b, c):
    xa, xb, xc = cfg(*a), cfg(*b), cfg(*c)
    dab = ldp.metric_d(xa, xb)
    assert dab == ldp.metric_d(xb, xa)
    assert 0.0 <= dab <= 1.0 + 1e-12
    assert dab <= ldp.metric_d(xa, xc) + ldp.metric_d(xc, xb) + 1e-12


@given(simplex_entries)
def test_phi2_bounds(a):
    x = cfg(*a)
    n = len(a)
    assert 1.0 / n - 1e-12 <= ldp.phi2(x) <= 1.0 + 1e-12


def test_rate_I1_zeros_and_values():
    for alpha in (0.25, 0.5, 0.75):
        assert ldp.rate_I1((1.0 - alpha) / alpha, alpha) == pytest.approx(0.0, abs=1e-12)
    assert ldp.rate_I1(0.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)
    got = ldp.rate_I1(2.0, 0.5)
    assert got == pytest.approx(5.0 * math.log(2.0) - 3.0 * math.log(3.0), rel=1e-12)


def test_rate_I2_zeros_and_values():
    for alpha in (0.25, 0.5, 0.75):
        assert ldp.rate_I2(alpha, alpha) == pytest.approx(0.0, abs=1e-12)
    assert ldp.rate_I2(1.0, 0.25) == pytest.approx(math.log(4.0), rel=1e-12)
    assert ldp.rate_I2(0.0, 0.25) == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)


def test_rates_convex_on_grid():
    import numpy as np

    for alpha in (0.25, 0.5, 0.75):
        x1 = np.arange(1e-3, 6.0, 1e-3)
        v1 = np.array([ldp.rate_I1(x, alpha) for x in x1])
        assert np.all(np.diff(v1, 2) >= -1e-9)
        x2 = np.arange(1e-3, 1.0, 1e-3)
        v2 = np.array([ldp.rate_I2(x, alpha) for x in x2])
        assert np.all(np.diff(v2, 2) >= -1e-9)


def test_infinite_lambda_refused():
    with pytest.raises(DomainError):
        ldp.inf_term(math.inf)
    with pytest.raises(DomainError):
        ldp.s_rate(ldp.uniform_config(2), math.inf)


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_s_rate_refuses_lambda_off_the_simplex_too(lam):
    # the infimum is taken, and lam refused, before the off-simplex +inf
    with pytest.raises(DomainError, match="lam must be finite and > 0"):
        ldp.s_rate(cfg(0.4, 0.3), lam)


def test_rate_domain_errors():
    with pytest.raises(DomainError):
        ldp.rate_I1(-0.5, 0.5)
    with pytest.raises(DomainError):
        ldp.rate_I2(1.5, 0.5)
    with pytest.raises(DomainError):
        ldp.rate_I1(1.0, 0.0)


def _unheld_rate_I1(x, alpha):
    """rate_I1 as one expression, its alpha's logs taken afresh."""
    xlogx = 0.0 if x == 0.0 else x * math.log(x)
    return xlogx - (x + 1.0) * math.log(1.0 + x) - (x * math.log(1.0 - alpha) + math.log(alpha))


def test_rate_I1_refuses_x_past_its_bound():
    # (x + 1) log(1 + x) overflows from ~2.556e305 on; the bound its docstring states is 2.5e305
    for alpha in (0.5, 5e-324, math.nextafter(1.0, 0.0)):
        assert math.isfinite(ldp.rate_I1(2.5e305, alpha))
        assert ldp.rate_I1(2.5e305, alpha) == _unheld_rate_I1(2.5e305, alpha)
        for x in (math.nextafter(2.5e305, math.inf), 1e308, math.inf, math.nan, -5e-324):
            with pytest.raises(DomainError, match="x must lie in"):
                ldp.rate_I1(x, alpha)


def test_rate_I1_holds_its_alpha_and_gives_the_unheld_bits():
    alphas = [0.3, 0.7, 0.3, 0.3, 1e-300, 0.5, math.nextafter(0.5, 1.0), 0.5, 0.7]
    xs = [0.0, 5e-324, 1e-3, 0.5, 1.0, 7.0 / 3.0, 1e6, 1e300, 2.5e305]
    for alpha in alphas:
        got = [ldp.rate_I1(x, alpha) for x in xs]
        assert np.array_equal(_bits(got), _bits([_unheld_rate_I1(x, alpha) for x in xs]))
    # one alpha a call, alternating: each call takes the other alpha's logs
    for i, x in enumerate(xs * 3):
        alpha = alphas[i % len(alphas)]
        assert np.array_equal(_bits([ldp.rate_I1(x, alpha)]), _bits([_unheld_rate_I1(x, alpha)]))
    # a bad alpha is refused right after a valid call, at that call's x
    for bad in (math.nan, 0.0, 1.0, -0.0, math.inf):
        assert ldp.rate_I1(1.0, 0.25) == _unheld_rate_I1(1.0, 0.25)
        with pytest.raises(DomainError, match="alpha must lie in"):
            ldp.rate_I1(1.0, bad)
    # an x refusal at a new alpha leaves a valid alpha held
    with pytest.raises(DomainError, match="x must lie in"):
        ldp.rate_I1(math.nan, 0.6)
    assert ldp.rate_I1(2.0, 0.6) == _unheld_rate_I1(2.0, 0.6)
    assert ldp.rate_I1(2.0, 0.25) == _unheld_rate_I1(2.0, 0.25)


def test_configuration_validation():
    with pytest.raises(DomainError):
        cfg(0.5, 0.6)  # mass > 1
    with pytest.raises(DomainError):
        cfg(-0.1, 0.5)
    with pytest.raises(DomainError):
        cfg(0.3, 0.5)  # not sorted descending
    with pytest.raises(DomainError):
        cfg(math.nan, 0.5)
    # uniform_k unlocks exact values, so it must mark the k-uniform entries
    with pytest.raises(DomainError):
        ldp.Configuration((0.9, 0.1), uniform_k=2)
    with pytest.raises(DomainError):
        ldp.Configuration((0.5, 0.5), uniform_k=5)


def test_unchecked_configuration_equals_the_validated_one():
    checked, unchecked = ldp.Configuration((0.5, 0.25)), ldp._unchecked((0.5, 0.25))
    assert type(unchecked) is ldp.Configuration
    assert unchecked == checked and hash(unchecked) == hash(checked)
    assert repr(unchecked) == repr(checked)


def test_uniform_config_refuses_more_than_max_entries():
    start = time.perf_counter()
    for k in (ldp.MAX_UNIFORM_K + 1, 10**12):
        with pytest.raises(DomainError, match=f"more than {ldp.MAX_UNIFORM_K}"):
            ldp.uniform_config(k)
    # the phase of lam = 1e13 is u = 3,162,278: its limit has too many entries
    with pytest.raises(DomainError):
        tilted.classify_phase(1e13).limit_configuration
    assert time.perf_counter() - start < 0.1


def test_uniform_config_holds_its_entries_once():
    tracemalloc.start()
    try:
        ldp.uniform_config(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 10**6  # one tuple of 10^6 entries holds 8 MB of pointers


# -- row forms -----------------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_rows_match_scalar(x):
    """Every row form equals its scalar form on each row, bit for bit."""
    configs = [ldp.Configuration(tuple(row.tolist())) for row in x]
    assert np.array_equal(_bits(ldp.phi2_rows(x)), _bits([ldp.phi2(c) for c in configs]))
    assert np.array_equal(_bits(ldp.total_mass_rows(x)), _bits([c.total_mass for c in configs]))
    assert np.array_equal(_bits(ldp.j_rate_rows(x)), _bits([ldp.j_rate(c) for c in configs]))
    for lam in (2.0, 6.0, 12.0):
        assert np.array_equal(
            _bits(ldp.s_rate_rows(x, lam)), _bits([ldp.s_rate(c, lam) for c in configs])
        )
    # centers shorter than the rows, longer than every row, and not uniform
    for center in (ldp.uniform_config(1), ldp.uniform_config(12), cfg(0.5, 0.3, 0.2)):
        assert np.array_equal(
            _bits(ldp.metric_d_rows(x, center)), _bits([ldp.metric_d(c, center) for c in configs])
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_row_forms_equal_scalar_forms(n):
    rng = np.random.Generator(np.random.Philox(key=n))
    x = verify.perturbed_configs(n, 800, rng)  # 200 rows at each of the four concentrations
    assert x.shape == (800, n)
    _assert_rows_match_scalar(x)
    # zero-padded rows: n_positive counts the positive entries alone
    padded = np.concatenate([x, np.zeros((len(x), 3))], axis=1)
    _assert_rows_match_scalar(padded)
    on = np.abs(ldp.total_mass_rows(x) - 1.0) <= ldp.MASS_TOL
    assert on.all()
    assert np.all(ldp.j_rate_rows(padded) == n - 1)
    assert np.array_equal(ldp.s_rate_rows(padded, 6.0), ldp.s_rate_rows(x, 6.0))
    # rows of mass < 1 - MASS_TOL, the leading entry dropped among them: S is +inf
    for light in (x * 0.9, x * (1.0 - 4.0 * ldp.MASS_TOL), padded[:, 1:]):
        _assert_rows_match_scalar(light)
        assert np.all(ldp.s_rate_rows(light, 6.0) == math.inf)


def test_row_forms_equal_scalar_forms_on_ten_thousand_rows():
    # 5,000 configurations and their 5,000 rows of squares make 10,000 rows
    # summed and rounded at once
    rng = np.random.Generator(np.random.Philox(key=26))
    x = verify.perturbed_configs(5, 5000, rng)
    assert x.shape == (5000, 5)
    _assert_rows_match_scalar(x)


def test_row_forms_equal_scalar_forms_on_rows_wider_than_2_14():
    # the kernel's proof holds at any width; rows of mass 1 and of less
    rng = np.random.Generator(np.random.Philox(key=34))
    x = -np.sort(-rng.random((3, 2**15)) ** 8, axis=1)
    x /= x.sum(axis=1, keepdims=True)
    x[1:] *= rng.random((2, 1))
    _assert_rows_match_scalar(x)


def _open_rows(v):
    """Whether _fsum_rows finds each row's bracket open, as it splits v."""
    part = (v + 2.0) - 2.0
    s, r = part.sum(axis=1), (v - part).sum(axis=1)
    bound = v.shape[1] ** 2 * 2.0**-104
    return s + (r - bound) != s + (r + bound)


def test_row_sums_equal_fsum_where_the_bracket_is_open(count_fsum):
    # powers of two whose sum sits half an ulp above a double, with a tail
    # far below n 2^-52: the bracket opens, and math.fsum sums the row again
    mass_row = np.ldexp(1.0, -np.array([[28, 81, 136]]))
    square_row = np.ldexp(1.0, -np.array([[16, 43, 43, 70, 98]]))
    cases = (
        (mass_row, ldp.total_mass_rows, math.fsum(mass_row[0].tolist())),
        (square_row, ldp.phi2_rows, math.fsum((square_row[0] ** 2).tolist())),
    )
    assert _open_rows(mass_row).all() and _open_rows(square_row**2).all()
    calls = count_fsum()
    for row, fsum_rows, fsum in cases:
        assert fsum_rows(row)[0] == fsum
    assert calls == [6, 10]  # each row's parts and remainders


def test_open_rows_take_the_exact_remainder_sum_where_it_is_exact(count_fsum):
    # 0.75 + (0.25 + 2^-53) is 1 + 2^-53 exactly, a tie that rounds to even,
    # to 1.0; the zero row's remainders are all zero
    exact = [np.array([[0.75, 0.25 + 2.0**-53]]), np.zeros((1, 4))]
    rng = np.random.Generator(np.random.Philox(key=34))
    for n in range(1, 9):
        x = verify.perturbed_configs(n, 1000, rng)
        exact += [x, x * x]
    # entries below n 2^-52, of least spacing n 2^-106 and far less: 2^53
    # times that may not hold the remainders' sum
    summed_again = [np.array([[3.0 * 2.0**-54, 2.0**-53 + 2.0**-105]]), np.full((1, 3), 2.0**-60)]
    want = [[math.fsum(row) for row in v.tolist()] for v in exact + summed_again]
    assert want[0] == [1.0]
    opened = [int(np.count_nonzero(_open_rows(v))) for v in exact + summed_again]
    assert opened[:2] == [1, 1] and sum(opened[2:-2]) > 1000 and opened[-2:] == [1, 1]
    calls = count_fsum()
    got = [ldp._fsum_rows(v.copy(), np.empty_like(v)).tolist() for v in exact]
    assert calls == []
    got += [ldp._fsum_rows(v.copy(), np.empty_like(v)).tolist() for v in summed_again]
    assert calls == [4, 6]
    assert got == want


ROW_FORMS = (
    ldp.phi2_rows,
    ldp.total_mass_rows,
    ldp.j_rate_rows,
    lambda x: ldp.s_rate_rows(x, 6.0),
    lambda x: ldp.metric_d_rows(x, ldp.uniform_config(2)),
)


@pytest.mark.parametrize(
    "form", ROW_FORMS, ids=["phi2", "total_mass", "j_rate", "s_rate", "metric_d"]
)
def test_row_forms_refuse_rows_that_configuration_refuses(form):
    rng = np.random.Generator(np.random.Philox(key=3))
    refused = (
        np.array([[0.5, -0.1]]),
        np.array([[0.5, 0.5], [0.6, -0.1]]),  # one bad row among good ones
        np.array([[0.5, math.nan]]),
        np.array([[0.3, 0.5]]),  # not descending
        np.array([[0.5, math.inf]]),  # not descending either
        np.array([[math.inf, 0.5]]),
        np.array([[0.6, 0.4 + 4.0 * ldp.MASS_TOL]]),  # mass above 1 + MASS_TOL
        np.array([[1.0 + 4.0 * ldp.MASS_TOL, 0.0]]),
        -np.sort(-rng.uniform(0.0, 5000.0, size=(20_000, 6)), axis=1),  # sums far above 1
    )
    for x in refused:
        with pytest.raises(DomainError):
            ldp.Configuration(entries=tuple(x[-1].tolist()))
        with pytest.raises(DomainError):
            form(x)
    form(np.array([[0.6, 0.4 + 0.5 * ldp.MASS_TOL], [0.5, 0.0]]))  # rows Configuration takes


@pytest.mark.parametrize(
    "form", ROW_FORMS, ids=["phi2", "total_mass", "j_rate", "s_rate", "metric_d"]
)
def test_row_forms_leave_the_callers_matrix_unchanged(form):
    # np.asarray hands a float64 matrix itself to the row forms
    rng = np.random.Generator(np.random.Philox(key=34))
    x = np.concatenate([verify.perturbed_configs(5, 400, rng), np.zeros((400, 2))], axis=1)
    x[:200] *= 0.9
    before = x.tobytes()
    form(x)
    assert x.tobytes() == before


@pytest.mark.parametrize(
    "form", ROW_FORMS, ids=["phi2", "total_mass", "j_rate", "s_rate", "metric_d"]
)
def test_row_forms_refuse_input_that_is_not_2d(form):
    for x in ([0.5, 0.5], np.array([[[0.5, 0.5]]]), 0.5):
        with pytest.raises(DomainError, match="rows of a matrix"):
            form(x)


def _rows_summing_to(t):
    """Descending rows whose math.fsum is exactly the float t (near 1): two
    entries that sum to t exactly; t's predecessor with a tail of 2^-62
    entries worth 0.55 of its ulp; and t with such a tail worth 0.45 of its
    ulp.  A plain sum that adds the large entry early loses the tail."""
    below = math.nextafter(t, 0.0)
    rows = [[0.75, t - 0.75]]
    for big, tail in ((below, 0.55 * math.ulp(below)), (t, 0.45 * math.ulp(t))):
        rows.append([big] + [2.0**-62] * round(tail / 2.0**-62))
    for row in rows:
        assert math.fsum(row) == t
    return rows


def test_mass_is_certified_at_each_threshold(count_fsum):
    upper, lower = 1.0 + ldp.MASS_TOL, 1.0 - ldp.MASS_TOL
    targets = [f(c) for c in (upper, lower)
               for f in (lambda c: math.nextafter(c, 0.0), lambda c: c, lambda c: math.nextafter(c, 2.0))]
    rows = [row for t in targets for row in _rows_summing_to(t)]
    width = max(map(len, rows))
    x = np.array([row + [0.0] * (width - len(row)) for row in rows])
    fsum = np.array([math.fsum(row) for row in rows])
    plain = np.einsum("ij->i", x)  # as _checked_rows sums a row
    # the plain sum decides otherwise than math.fsum at both thresholds on some rows
    assert np.any((plain > upper) != (fsum > upper))
    assert np.any((np.abs(plain - 1.0) <= ldp.MASS_TOL) != (np.abs(fsum - 1.0) <= ldp.MASS_TOL))
    refused = fsum > upper
    assert 0 < np.count_nonzero(refused) < len(rows)
    for row in x[refused]:
        with pytest.raises(DomainError):
            ldp.Configuration(tuple(row.tolist()))
        for form in ROW_FORMS:
            with pytest.raises(DomainError):
                form(row[None])
    _assert_rows_match_scalar(x[~refused])
    on = np.abs(fsum[~refused] - 1.0) <= ldp.MASS_TOL
    assert on.any() and not on.all()
    # math.fsum sums again only rows within the plain sum's error bound of a threshold
    calls = count_fsum()
    ldp._checked_rows(x[~refused])
    assert calls
    calls.clear()
    rng = np.random.Generator(np.random.Philox(key=33))
    for n in range(1, 9):
        configs = verify.perturbed_configs(n, 4000, rng)
        for rows_n in (configs, configs * (1.0 - 4.0 * ldp.MASS_TOL), configs * 0.9):
            ldp._checked_rows(rows_n)
    assert calls == []


def _perturbed_configs_scalar(n_parts, count, rng):
    """verify.perturbed_configs as a list of Configurations, one per draw."""
    out = []
    alphas = (2.0, 20.0, 200.0, 2000.0)
    per = count // len(alphas)
    for alpha in alphas:
        draws = rng.dirichlet(np.full(n_parts, alpha), size=per)
        draws = -np.sort(-draws, axis=1)
        for row in draws:
            out.append(ldp.Configuration(tuple(row.tolist())))
    return out


def _suite_inclusion_scalar(seed, count):
    """The inclusion suite as a loop over one Configuration per draw."""
    checks = []
    rng = np.random.Generator(np.random.Philox(key=seed))
    for k in (1, 2, 3):
        lam = float(k * (k + 1))
        delta = 0.9 / (k * (k + 1) + 1)
        center = ldp.uniform_config(k)
        counterexamples = 0
        lhs_hits = 0
        min_s = math.inf
        for n in (k, k + 1):
            for c in _perturbed_configs_scalar(n, count // 2, rng):
                s = ldp.s_rate(c, lam)
                min_s = min(min_s, s)
                if s < delta and abs(ldp.phi2(c) - 1.0 / k) < delta:
                    lhs_hits += 1
                    if ldp.metric_d(c, center) >= delta:
                        counterexamples += 1
        checks.append(
            verify._check(
                "inclusion",
                f"no counterexample at k={k}",
                1.0 if counterexamples == 0 else -float(counterexamples),
                f"lhs hits={lhs_hits}",
            )
        )
        checks.append(verify._check("inclusion", f"S_lam >= 0 on sweep (k={k})", min_s + 1e-12))
        floor_margin = math.inf
        for n in range(1, 9):
            if n in (k, k + 1):
                continue
            for c in _perturbed_configs_scalar(n, 400, rng):
                floor_margin = min(floor_margin, ldp.s_rate(c, lam) - (2.0 / (k + 2) - 1e-12))
        checks.append(
            verify._check("inclusion", f"S_lam >= 2/{k + 2} off the zero levels (k={k})", floor_margin)
        )
    return checks


@pytest.mark.parametrize("seed", [0, 42])
def test_suite_inclusion_matches_the_scalar_loop(seed):
    got = verify.suite_inclusion(seed, 2000)
    ref = _suite_inclusion_scalar(seed, 2000)
    assert got == ref
    assert [type(c.margin) for c in got] == [float] * len(ref)
    assert [type(c.passed) for c in got] == [bool] * len(ref)
    assert [c.margin.hex() for c in got] == [c.margin.hex() for c in ref]
