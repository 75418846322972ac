"""Independent arbitrary-precision oracles for the series ratio K_1, whole
coefficient tables, the moments and the tilted MGF.

The oracles work in mpmath at 40 digits and use nothing of pdov's
numerics.  K_1's columns A(k,l), l <= [lam], come straight from the recursion
in the `pdov.coefficients` docstring,

    A(k,1) = 2^{k-1} (k-1)! Gamma(k+theta) / Gamma(2k+theta)
    A(k,p) = sum_{l=p-1}^{k-1} w(k,l) A(l,p-1)
    w(k,l) = ((2k+theta)/2k) 2^k k! Gamma(k+l+theta) / (2^l l! Gamma(2k+1+theta)),

and K_1 is the ratio of `pdov.tilted`,

    K_1 = sum_l theta^l sum_{k>=l} (x^k/k!) A(k+1,l)
          / sum_l theta^l sum_{k>=l} (x^k/k!) A(k,l),      l = 1..[lam],

with x = lam log(1/theta).  The series stops once the cap
A(k,l) <= 2^{2-l}, checked on every entry built, bounds both remaining
tails below 1e-30 of the partial sums.

At the critical lam = 12 the gap K_1 - 2/3 is not monotone in theta.  The
share of level 3 decays like x^{-1/2}, while the level-2 ratio sits about
1/x below 2/3; the second term dies faster, so the gap rises up to
theta ~ 1e-5 and falls after it.  `test_lambda_12_hump` pins that shape,
and acceptance criterion 6 checks the lam = 12 approach past it.

`test_table_matches_oracle` rebuilds every A(k,l), k <= 150, from the same
recursion at 50 digits and holds log A to 5e-14 max(1, |log A|).  A bound
of 1e-12 relative in A itself would not hold: the log-gamma terms of pdov's
log w(k,l), up to ~1e3 each and mostly cancelling, put ~1.4e-12 into A at
theta = 0.

The moments m_k = E(1-H2)^k come from the recursion in the
`pdov.moments.log_moments` docstring, m_j = theta sum_{l<j} w(j,l) m_l,
m_0 = 1 (the oracle writes its l = 0 term as A(j,1) = w(j,0)), the table
expansion m_k = sum_l theta^l A(k,l) summed over its columns.  Both of
pdov's moment routes (table and recursion) and the tilted MGF

    mgf(t) = e^t sum_n ((-t)^n/n!) S_n / S_0,   S_n = sum_m (x^m/m!) m_{n+m},

are checked against it; both series stop where the rest is certified below
1e-32, using only that m_k falls in k (asserted on every moment built).

`test_exp_series_certified_or_raises` holds `tilted.exp_series` to its
contract on random inputs: when it returns, even the worst case allowed
by its coefficient cap stays within DEFAULT_RTOL of the supplied sum.
"""

import functools
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pdov import coefficients, moments, tilted  # noqa: E402  (under test, not the oracle)
from pdov.errors import PrecisionError  # noqa: E402
from pdov.model import SelectionSpec  # noqa: E402

pytestmark = pytest.mark.slow

DPS = 40
SERIES_RTOL = 1e-30
REL_TOL = 1e-10
TABLE_DPS = 50
TABLE_TOL = 5e-14  # in log A, relative to max(1, |log A|)


@functools.cache
def oracle_k1(lam: float, theta: float) -> mpmath.mpf:
    """K_1 at (lam, theta), accurate far beyond double precision."""
    with mpmath.workdps(DPS):
        th = mpmath.mpf(theta)
        x = lam * mpmath.log(1 / th)
        levels = math.floor(lam)
        weight = [th**l for l in range(levels + 1)]
        tail_cap = mpmath.fsum(weight[l] * 2 ** (2 - l) for l in range(1, levels + 1))
        rtol = mpmath.mpf(SERIES_RTOL)

        gam = [None, mpmath.gamma(1 + th)]  # gam[m] = Gamma(m + theta)
        # scaled[p][j] = A(j,p) / (2^j j!), the part of w(k,j) A(j,p) free of k
        scaled = [[0] for _ in range(levels + 1)]
        term_x = mpmath.mpf(1)  # x^(k-1) / (k-1)!
        num = den = mpmath.mpf(0)
        k = 0
        while True:
            k += 1
            while len(gam) <= 2 * k + 1:
                gam.append(gam[-1] * (len(gam) - 1 + th))
            fact_k = mpmath.factorial(k)
            row = [0] * (levels + 1)
            row[1] = 2 ** (k - 1) * mpmath.factorial(k - 1) * gam[k] / gam[2 * k]
            w_k = ((2 * k + th) / (2 * k)) * 2**k * fact_k / gam[2 * k + 1]
            for p in range(2, min(k, levels) + 1):
                row[p] = w_k * mpmath.fdot(gam[k + p - 1 : 2 * k], scaled[p - 1][p - 1 : k])
            for l in range(1, levels + 1):
                assert row[l] <= 2 ** (2 - l), f"cap A <= 2^(2-l) fails at A({k},{l})"
                scaled[l].append(row[l] / (2**k * fact_k))

            # num gains its index-(k-1) term (levels l <= k-1), den its index-k term
            num_levels = range(1, min(k - 1, levels) + 1)
            num += term_x * mpmath.fsum(weight[l] * row[l] for l in num_levels)
            term_x *= x / k
            den += term_x * mpmath.fsum(weight[l] * row[l] for l in range(1, levels + 1))

            # what is left of num starts at index k, of den at index k+1
            if k + 1 > x:
                tail = tail_cap * term_x / (1 - x / (k + 1))
                if tail < rtol * num and tail < rtol * den:
                    return num / den


@functools.cache
def oracle_moments(theta: float, kmax: int) -> list:
    """m_0..m_kmax at DPS digits, with m_k <= m_{k-1} checked."""
    with mpmath.workdps(DPS):
        th = mpmath.mpf(theta)
        gam = [None, mpmath.gamma(1 + th)]  # gam[m] = Gamma(m + theta)
        while len(gam) <= 2 * kmax + 1:
            gam.append(gam[-1] * (len(gam) - 1 + th))
        m = [mpmath.mpf(1)]
        scaled = [None]  # scaled[l] = m_l / (2^l l!), the part of w(j,l) m_l free of j
        for j in range(1, kmax + 1):
            fact_j = mpmath.factorial(j)
            a1 = 2 ** (j - 1) * mpmath.factorial(j - 1) * gam[j] / gam[2 * j]
            w_j = ((2 * j + th) / (2 * j)) * 2**j * fact_j / gam[2 * j + 1]
            m.append(th * (w_j * mpmath.fdot(gam[j + 1 : 2 * j], scaled[1:j]) + a1))
            assert m[j] <= m[j - 1], f"m_k not falling at k={j}"
            scaled.append(m[j] / (2**j * fact_j))
        return m


@functools.cache
def oracle_table(theta: float, kmax: int) -> list:
    """log A(k,l) for 1 <= l <= k <= kmax at TABLE_DPS digits, as rows
    table[k][l] (index 0 unused), by the recursion above in full."""
    with mpmath.workdps(TABLE_DPS):
        th = mpmath.mpf(theta)
        gam = [None, mpmath.gamma(1 + th)]  # gam[m] = Gamma(m + theta)
        while len(gam) <= 2 * kmax + 1:
            gam.append(gam[-1] * (len(gam) - 1 + th))
        # scaled[p][l] = A(l,p) / (2^l l!), the part of w(k,l) A(l,p) free of k
        scaled = [[None] * p for p in range(kmax + 1)]  # l < p: outside the triangle
        table = [None]
        for k in range(1, kmax + 1):
            fact_k = mpmath.factorial(k)
            row = [None, 2 ** (k - 1) * mpmath.factorial(k - 1) * gam[k] / gam[2 * k]]
            w_k = ((2 * k + th) / (2 * k)) * 2**k * fact_k / gam[2 * k + 1]
            for p in range(2, k + 1):
                row.append(w_k * mpmath.fdot(gam[k + p - 1 : 2 * k], scaled[p - 1][p - 1 : k]))
            for p in range(1, k + 1):
                scaled[p].append(row[p] / (2**k * fact_k))
            table.append([None] + [mpmath.log(a) for a in row[1:]])
        return table


def oracle_mgf(lam: float, theta: float, t: float) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        rtol = mpmath.mpf(10) ** -32
        x = lam * mpmath.log(1 / mpmath.mpf(theta))
        # inner cut M: with m falling, sum_{m>M} (x^m/m!) m_{n+m} is at most
        # m_{n+M} times the Poisson tail, and S_n at least m_{n+M} times the rest
        power = [mpmath.mpf(1)]  # power[m] = x^m / m!
        while True:
            power.append(power[-1] * x / len(power))
            M = len(power) - 1
            if M > x and power[M] * x / (M + 1) / (1 - x / (M + 2)) < rtol * mpmath.fsum(power):
                break
        # outer cut N: S_n / S_0 <= 1, so the rest is below |t|^N / N!
        N = next(n for n in range(1, 200) if abs(t) ** n / mpmath.factorial(n) < rtol)
        m = oracle_moments(theta, M + N)
        s = [mpmath.fdot(power, m[n : n + M + 1]) for n in range(N)]
        outer = mpmath.fsum((-t) ** n / mpmath.factorial(n) * s[n] / s[0] for n in range(N))
        return mpmath.exp(t) * outer


@pytest.mark.parametrize("theta", [0.0, 1e-5, 0.5, 1.0])
def test_table_matches_oracle(theta):
    kmax = 150
    want = oracle_table(theta, kmax)
    got = coefficients.build_coeff_table(theta, kmax).log_entries
    for k in range(1, kmax + 1):
        for l in range(1, k + 1):
            assert abs(got[k, l] - want[k][l]) <= TABLE_TOL * max(1, abs(want[k][l])), (k, l)
        assert np.all(got[k, k + 1 :] == -np.inf)


@pytest.mark.parametrize("theta", [1e-5, 0.5, 1.0])
def test_moment_routes_match_oracle(theta):
    kmax = 200
    want = oracle_moments(theta, kmax)
    from_table = moments.moments_from_table(coefficients.cached_table(theta, kmax), kmax)
    for k in range(1, kmax + 1):
        assert abs(moments.moment_via_recursion(theta, k) / want[k] - 1) <= 1e-11
        assert abs(from_table.m(k) / want[k] - 1) <= 1e-11


@pytest.mark.parametrize("lam, theta", [(6.0, 1e-2), (12.0, 1e-3)])
def test_mgf_matches_oracle(lam, theta):
    spec = SelectionSpec(lam, theta)
    for t in (-1.0, 0.5, 1.0):
        assert abs(tilted.mgf(spec, t) / oracle_mgf(lam, theta, t) - 1) <= 1e-12


def test_mgf_builds_no_table():
    spec = SelectionSpec(6.0, 1e-2)
    before = coefficients._cached_table.cache_info()
    tilted.mgf(spec, 1.0)
    tilted.tilted_mean_heterozygosity(spec)
    assert coefficients._cached_table.cache_info() == before


@pytest.mark.parametrize(
    "lam, theta",
    [(6.0, th) for th in (1e-3, 1e-5, 1e-7)]
    + [(12.0, th) for th in (1e-3, 1e-5, 1e-7, 1e-9)],
)
def test_k_ratio_matches_oracle(lam, theta):
    got = tilted.k_ratio(SelectionSpec(lam, theta), 1)
    want = oracle_k1(lam, theta)
    assert abs(got / want - 1) <= REL_TOL


def test_lambda_12_hump():
    gap = {th: oracle_k1(12.0, th) - mpmath.mpf(2) / 3 for th in (1e-3, 1e-5, 1e-7, 1e-9)}
    # the hump: no monotone approach on {1e-3, 1e-5, 1e-7} ...
    assert gap[1e-5] > gap[1e-3]
    assert gap[1e-5] > gap[1e-7]
    # ... but a falling gap past the peak, the grid of acceptance criterion 6
    assert gap[1e-7] > gap[1e-9]


@settings(max_examples=150, deadline=None)
@given(
    # a log-float of magnitude L is only resolved to L * 2^-53, so x stays
    # above 1e-6 (|log S| < ~1000 here) for the 1e-12 comparison to mean anything
    x=st.just(0.0) | st.floats(min_value=1e-6, max_value=100.0),
    length=st.integers(min_value=1, max_value=400),
    start=st.integers(min_value=0, max_value=40),
    log_cap=st.floats(min_value=-20.0, max_value=20.0),
    spread=st.floats(min_value=0.0, max_value=40.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exp_series_certified_or_raises(x, length, start, log_cap, spread, seed):
    # log a_k in [log_cap - spread, log_cap]; spread = 0 puts every a_k at the cap
    log_coeffs = log_cap - spread * np.random.default_rng(seed).random(length)
    try:
        got = tilted.exp_series(x, log_coeffs, start=start, log_coeff_cap=log_cap)
    except PrecisionError:
        return
    with mpmath.workdps(DPS):
        mx = mpmath.mpf(x)
        k_last = start + length - 1
        power = [mpmath.mpf(1)]  # power[k] = x^k / k!
        for k in range(1, k_last + 1):
            power.append(power[-1] * mx / k)
        s_lo = mpmath.fsum(
            mpmath.exp(mpmath.mpf(float(c))) * power[k]
            for k, c in zip(range(start, k_last + 1), log_coeffs)
        )
        if s_lo == 0:  # x = 0 with start > 0: an empty sum
            assert got == -math.inf
            return
        # worst case: every coefficient past k_last sits at the cap.  The
        # unseen mass e^x - sum_{k <= k_last} x^k/k! is summed term by term,
        # free of cancellation; a return implies x < k_last + 2, so it converges.
        unseen = mpmath.mpf(0)
        term = power[k_last]
        k = k_last
        while True:
            k += 1
            term = term * mx / k
            unseen += term
            if term <= unseen * mpmath.mpf(10) ** -(DPS + 5) or term == 0:
                break
        s_hi = s_lo + mpmath.exp(mpmath.mpf(log_cap)) * unseen
        assert s_hi / s_lo - 1 <= tilted.DEFAULT_RTOL
        assert abs(mpmath.exp(mpmath.mpf(got)) / s_lo - 1) <= 1e-12
