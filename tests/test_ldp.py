"""Large-deviation rate functions and the finite-level configuration space."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdov import ldp
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


def test_rate_domain_errors():
    with pytest.raises(DomainError):
        ldp.rate_I1(-0.5, 0.5)
    with pytest.raises(DomainError):
        ldp.rate_I2(1.5, 0.5)
    with pytest.raises(DomainError):
        ldp.rate_I1(1.0, 0.0)


def test_configuration_validation():
    with pytest.raises(DomainError):
        cfg(0.5, 0.6)  # mass > 1
    with pytest.raises(DomainError):
        cfg(-0.1, 0.5)
    with pytest.raises(DomainError):
        cfg(0.3, 0.5)  # not sorted descending
    with pytest.raises(DomainError):
        cfg(math.nan, 0.5)
