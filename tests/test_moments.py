"""Heterozygosity moments: table route, recursion route, quadrature and MC oracles."""

import numpy as np
import pytest
from scipy import integrate

from pdov import coefficients as coefs
from pdov import mc, moments
from pdov.errors import DomainError


def quad_beta_factor(k, l, theta):
    """Independent oracle: E[(2U(1-U))^{k-l} (1-U)^{2l}], U ~ Beta(1, theta)."""

    def integrand(u):
        return theta * (1.0 - u) ** (theta - 1.0) * (2.0 * u * (1.0 - u)) ** (
            k - l
        ) * (1.0 - u) ** (2 * l)

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


def test_first_moment_exact():
    for theta in (0.1, 0.2, 0.5, 1.0):
        mv = moments.moments_from_table(coefs.cached_table(theta, 8), 8)
        assert mv[1] == pytest.approx(theta / (1.0 + theta), abs=1e-12)
        assert moments.moment_via_recursion(theta, 1) == pytest.approx(
            theta / (1.0 + theta), abs=1e-12
        )


def test_specific_values():
    mv = moments.moments_from_table(coefs.cached_table(0.5, 4), 4)
    assert mv[1] == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert mv[0] == 1.0 and len(mv) == 5


def test_moments_decrease_and_stay_in_unit_interval():
    mv = moments.moments_from_table(coefs.cached_table(0.7, 12), 12)
    vals = [1.0] + [mv[k] for k in range(1, 13)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))  # (1-H2) < 1 a.s.


def test_theta_to_zero_vanishes():
    # every term carries theta^l, and PD(0) concentrates on a single atom
    mv = moments.moments_from_table(coefs.cached_table(1e-8, 4), 4)
    assert mv[1] < 1e-7
    assert mv[4] < 1e-6


def test_two_routes_agree():
    for theta in (0.2, 0.5, 1.0):
        table = coefs.cached_table(theta, 12)
        mv = moments.moments_from_table(table, 12)
        for k in range(1, 13):
            rec = moments.moment_via_recursion(theta, k)
            assert rec == pytest.approx(mv[k], rel=1e-10)


def test_beta_factor_examples():
    assert moments.beta_factor(1, 0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    for k, theta in ((2, 0.3), (5, 1.0)):
        assert moments.beta_factor(k, k, theta) == pytest.approx(
            theta / (2 * k + theta), rel=1e-12
        )


def test_beta_factor_quadrature_oracle():
    for k, l, theta in ((3, 1, 0.5), (4, 2, 0.8), (2, 0, 0.3), (6, 3, 1.0)):
        assert moments.beta_factor(k, l, theta) == pytest.approx(
            quad_beta_factor(k, l, theta), abs=1e-8
        )


def test_beta_factor_at_k_zero():
    # theta Gamma(theta) / Gamma(1 + theta) = 1
    for theta in (1e-100, 0.3, 1.0):
        assert moments.beta_factor(0, 0, theta) == 1.0


def test_homozygosity_moments_closed_forms():
    # E H2 = 1/(1+theta), E H2^2 = (theta+6) / ((theta+1)(theta+2)(theta+3))
    for theta in (1e-100, 1e-5, 0.18, 0.5, 1.0):
        h = np.exp(moments.log_homozygosity_moments(theta, 40))
        assert h[0] == 1.0
        assert h[1] == pytest.approx(1.0 / (1.0 + theta), rel=1e-14)
        want = (theta + 6.0) / ((theta + 1.0) * (theta + 2.0) * (theta + 3.0))
        assert h[2] == pytest.approx(want, rel=1e-14)
        if theta >= 1e-5:  # at 1e-100 every h_k rounds to 1
            assert np.all(np.diff(h) < 0.0)  # 0 < H2 < 1 with positive probability


def test_homozygosity_moments_match_monte_carlo():
    h2 = mc.h2_samples(0.5, 10**5, 3)
    h = np.exp(moments.log_homozygosity_moments(0.5, 5))
    for k in (1, 3, 5):
        vals = h2**k
        assert abs(vals.mean() - h[k]) < 4.0 * vals.std(ddof=1) / np.sqrt(len(vals))


def test_homozygosity_moments_refused_past_max_moments():
    with pytest.raises(DomainError, match="weight evaluations"):
        moments.log_homozygosity_moments(0.5, moments.MAX_MOMENTS + 1)
    with pytest.raises(DomainError):
        moments.log_homozygosity_moments(1.5, 2)


def test_domain_errors():
    with pytest.raises(DomainError):
        moments.moment_via_recursion(1.5, 2)
    with pytest.raises(DomainError):
        moments.moment_via_recursion(0.5, 0)
    with pytest.raises(DomainError):
        moments.beta_factor(2, 3, 0.5)


def test_mc_oracle_first_moment():
    est = moments.mc_moment_oracle(0.5, 1, 10**5, seed=42)
    exact = 0.5 / 1.5
    assert abs(est.value - exact) < 4.0 * est.std_error
    # determinism contract
    again = moments.mc_moment_oracle(0.5, 1, 10**5, seed=42)
    assert again.value == est.value
    assert again.std_error == est.std_error


def test_mc_oracle_matches_table_k3():
    table = coefs.cached_table(0.5, 4)
    mv = moments.moments_from_table(table, 4)
    est = moments.mc_moment_oracle(0.5, 3, 10**5, seed=7)
    assert abs(est.value - mv[3]) < 4.0 * est.std_error


def test_log_moments_shape():
    table = coefs.cached_table(0.3, 6)
    logm = moments.log_moments_from_table(table, 6)
    assert logm.shape == (7,)
    assert logm[0] == 0.0
    assert np.all(np.diff(logm) < 0.0)


RUNS = (moments.log_moments, moments.log_homozygosity_moments)


@pytest.mark.parametrize("theta", [1e-100, 1e-5, 0.5, 1.0])
@pytest.mark.parametrize("run", RUNS, ids=["log_m", "log_h"])
def test_moment_run_grown_or_fresh_is_bit_identical(run, theta):
    coefs._store.cache_clear()
    try:
        for k in (1, 7, 40, 41, 300):  # grown
            got = run(theta, k)
            assert len(got) == k + 1
        assert not got.flags.writeable
        coefs._store.cache_clear()
        fresh = run(theta, 300)
        assert got.tolist() == fresh.tolist()  # bit for bit
        assert run(theta, 5).base is fresh.base  # a view of the held run
    finally:
        coefs._store.cache_clear()


def test_store_holds_16_theta_and_rebuilds_an_evicted_one_identically():
    coefs._store.cache_clear()
    try:
        first = [run(0.5, 60).copy() for run in RUNS]
        for i in range(20):
            theta = 0.01 * (i + 2)
            for run in RUNS:
                run(theta, 30)
            assert coefs._store.cache_info().currsize <= 16
        assert not coefs._store(0.5)  # evicted: held anew, empty
        for run, want in zip(RUNS, first):
            assert run(0.5, 60).tolist() == want.tolist()
    finally:
        coefs._store.cache_clear()
