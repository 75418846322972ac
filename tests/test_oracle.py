"""Independent arbitrary-precision oracle for the series ratio K_1.

The oracle works in mpmath at 40 digits and uses nothing of pdov's
numerics.  Its columns A(k,l), l <= [lam], come straight from the recursion
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

from pdov import tilted  # noqa: E402  (the function under test, not the oracle)
from pdov.errors import PrecisionError  # noqa: E402
from pdov.model import SelectionSpec  # noqa: E402

pytestmark = pytest.mark.slow

DPS = 40
SERIES_RTOL = 1e-30
REL_TOL = 1e-10


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
        got = tilted.exp_series(x, log_coeffs, start=start, coeff_cap=math.exp(log_cap))
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
