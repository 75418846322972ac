"""Acceptance gate: one check per release criterion, one printed line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL <summary>` before asserting, so a
plain pytest run leaves a criterion-by-criterion record in the captured output
(run with -s to see it live).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from pdov import coefficients as coefs
from pdov import ldp, mc, moments, tilted, verify
from pdov.model import SelectionSpec


def report(num, ok, summary):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {summary}")
    assert ok, f"criterion {num}: {summary}"


def test_criterion_1_exact_first_moment():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.1, 0.2, 0.5, 1.0):
        exact = theta / (1.0 + theta)
        table = coefs.cached_table(theta, 4)
        worst = max(worst, abs(moments.moments_from_table(table, 1).m(1) - exact))
        worst = max(worst, abs(moments.moment_via_recursion(theta, 1) - exact))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"first moment max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_triple_moment_agreement():
    t0 = time.perf_counter()
    rel_worst = 0.0
    z_worst = 0.0
    for theta in (0.2, 0.5, 1.0):
        table = coefs.cached_table(theta, 12)
        vec = moments.moments_from_table(table, 12)
        for k in range(1, 13):
            rec = moments.moment_via_recursion(theta, k)
            rel_worst = max(rel_worst, abs(rec / vec.m(k) - 1.0))
        for k in range(1, 7):
            est = moments.mc_moment_oracle(theta, k, 10**6, seed=101)
            z_worst = max(z_worst, abs(est.value - vec.m(k)) / est.std_error)
    elapsed = time.perf_counter() - t0
    report(2, rel_worst < 1e-10 and z_worst < 4.0 and elapsed < 120.0,
           f"route mismatch {rel_worst:.2e}, worst |z| {z_worst:.2f}, {elapsed:.1f}s")


def test_criterion_3_coefficient_bounds():
    t0 = time.perf_counter()
    checks = verify.run_suite("bounds")
    failures = [c.name for c in checks if not c.passed]
    elapsed = time.perf_counter() - t0
    report(3, not failures and elapsed < 30.0,
           f"{len(checks)} bound checks, failures: {failures or 'none'}, {elapsed:.1f}s")


def test_criterion_4_tail_bounds():
    t0 = time.perf_counter()
    violations = []
    for lam in (1.0, 2.5, 6.0, 6.5, 12.0):
        for theta in (1e-2, 1e-4, 1e-6):
            computed, bound = tilted.tail_bound(SelectionSpec(lam, theta))
            if computed > bound:
                violations.append((lam, theta))
    elapsed = time.perf_counter() - t0
    report(4, not violations and elapsed < 60.0,
           f"15 grid points, violations: {violations or 'none'}, {elapsed:.1f}s")


def test_criterion_5_coefficient_asymptotics():
    t0 = time.perf_counter()
    table = coefs.cached_table(0.0, 400)
    ok = True
    worst = 0.0
    for p in (1, 2, 3):
        devs = []
        for k in (100, 200, 400):
            ratio = math.exp(table.log_entry(k, p) - coefs.log_asymptotic_A(k, p))
            devs.append(abs(ratio - 1.0))
        ok &= devs[-1] < 0.1 and devs[0] > devs[1] > devs[2]
        worst = max(worst, devs[-1])
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 30.0,
           f"worst k=400 deviation {worst:.3f}, monotone decrease {ok}, {elapsed:.1f}s")


def test_criterion_6_series_ratio_trend():
    t0 = time.perf_counter()
    # At the critical lam = 12 the gap to 2/3 first rises, peaking near
    # theta = 1e-5 (the x^{-1/2} share of level 3 outlives the ~1/x offset of
    # the level-2 ratio), so that clause starts at the peak.
    # tests/test_oracle.py::test_lambda_12_hump pins the hump before it.
    clauses = (
        (6.0, 0.5, (1e-3, 1e-5, 1e-7)),
        (12.0, 2.0 / 3.0, (1e-5, 1e-7, 1e-9)),
    )
    results = []
    for lam, target, thetas in clauses:
        vals = [tilted.k_ratio(SelectionSpec(lam, th), 1) for th in thetas]
        gaps = [abs(v - target) for v in vals]
        monotone = gaps[0] > gaps[1] > gaps[2]
        results.append((lam, target, thetas, vals, monotone and gaps[2] < gaps[0]))
    elapsed = time.perf_counter() - t0
    ok = all(flag for *_, flag in results) and elapsed < 120.0
    summary = "; ".join(
        f"lam={lam}: K1={['%.5f' % v for v in vals]} at theta={list(thetas)} toward "
        f"{target:.4f} ({'ok' if flag else 'not monotone'})"
        for lam, target, thetas, vals, flag in results
    )
    report(6, ok, f"{summary}, {elapsed:.1f}s")


def test_criterion_7_mgf_vs_importance_sampling():
    t0 = time.perf_counter()
    spec = SelectionSpec(6.0, 0.3)
    analytic = tilted.mgf(spec, 1.0)
    est = mc.tilted_estimate(
        spec, mc.H2Statistic(lambda h: np.exp(h)), n=10**6, seed=202
    )
    z = abs(est.value - analytic) / est.std_error
    elapsed = time.perf_counter() - t0
    report(7, z < 4.0 and elapsed < 120.0,
           f"series {analytic:.6f} vs MC {est.value:.6f} (z={z:.2f}, "
           f"ESS={est.effective_sample_size:.0f}), {elapsed:.1f}s")


def test_criterion_8_phase_map():
    t0 = time.perf_counter()
    ok = True
    lam = 0.01
    while lam <= 12.0 + 1e-9:
        u = tilted.classify_phase(lam).u
        if lam <= 2.0 + 1e-12:
            ok &= u == 1
        elif lam <= 6.0 + 1e-12:
            ok &= u == 2
        else:
            ok &= u == 3
        lam = round(lam + 0.01, 10)
    for crit, want in ((2.0, 1), (6.0, 2), (12.0, 3)):
        ok &= tilted.classify_phase(crit).u == want
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 1.0, f"grid + critical points, {elapsed:.2f}s")


def test_criterion_9_two_zero_exactness():
    t0 = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        lam = float(k * (k + 1))
        ok &= ldp.s_rate(ldp.uniform_config(k), lam) == 0
        ok &= ldp.s_rate(ldp.uniform_config(k + 1), lam) == 0
        floor = Fraction(2, k + 2)
        for n in range(1, 9):
            if n in (k, k + 1):
                continue
            ok &= ldp.s_rate(ldp.uniform_config(n), lam) >= floor
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 1.0, f"exact zeros and 2/(k+2) floor, {elapsed:.2f}s")


def test_criterion_10_inclusion_property():
    t0 = time.perf_counter()
    checks = verify.run_suite("inclusion", seed=42)
    counter = [c for c in checks if c.name.startswith("no counterexample") and not c.passed]
    elapsed = time.perf_counter() - t0
    report(10, not counter and elapsed < 30.0,
           f"10^4 perturbed configurations per k, counterexamples: "
           f"{[c.name for c in counter] or 'none'}, {elapsed:.1f}s")


def test_criterion_11_ball_probability_trend():
    t0 = time.perf_counter()
    p_far = mc.ball_probability(SelectionSpec(2.0, 0.3), k=1, delta=0.2, n=10**5, seed=303)
    p_near = mc.ball_probability(SelectionSpec(2.0, 0.1), k=1, delta=0.2, n=10**5, seed=303)
    elapsed = time.perf_counter() - t0
    report(11, p_near.value > p_far.value and elapsed < 120.0,
           f"P(ball) {p_far.value:.4f} (theta=0.3) -> {p_near.value:.4f} (theta=0.1), "
           f"{elapsed:.1f}s")


def test_criterion_12_rate_function_zeros_and_convexity():
    t0 = time.perf_counter()
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        ok &= abs(ldp.rate_I1((1.0 - alpha) / alpha, alpha)) < 1e-12
        ok &= abs(ldp.rate_I2(alpha, alpha)) < 1e-12
        x1 = np.arange(1e-3, 6.0, 1e-3)
        ok &= bool(np.all(np.diff([ldp.rate_I1(x, alpha) for x in x1], 2) >= -1e-9))
        x2 = np.arange(1e-3, 1.0, 1e-3)
        ok &= bool(np.all(np.diff([ldp.rate_I2(x, alpha) for x in x2], 2) >= -1e-9))
    elapsed = time.perf_counter() - t0
    report(12, ok and elapsed < 5.0, f"zeros to 1e-12 and convexity grids, {elapsed:.1f}s")
