"""Property suites behind `pdov verify`: each suite re-checks one block of
inequalities or limits on its documented grid and reports worst-case
margins.

Margins are oriented so that positive means pass with room to spare;
a suite fails iff any check's margin is negative (or a hard predicate is
false).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coefficients as coefs
from . import ldp, mc, moments, tilted
from .model import SelectionSpec

__all__ = ["Check", "SUITES", "run_suite", "run_all"]


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _check(suite: str, name: str, margin: float, detail: str = "") -> Check:
    return Check(suite=suite, name=name, passed=margin >= 0.0, margin=margin, detail=detail)


# -- coefficient-bound suite -------------------------------------------------

BOUNDS_THETAS = (0.1, 0.25, 0.5, 0.75, 1.0)
BOUNDS_KMAX = 200


def suite_bounds(seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    limit = coefs.cached_table(0.0, BOUNDS_KMAX)
    la = limit.log_entries[1 : BOUNDS_KMAX + 1, 1 : BOUNDS_KMAX + 1]
    k_idx, p_idx = np.tril_indices(BOUNDS_KMAX)
    p_arr = (p_idx + 1).astype(float)
    tri = la[k_idx, p_idx]
    # A(k,p) <= 2^{2-p}
    margin = float(np.min((2.0 - p_arr) * math.log(2.0) - tri))
    checks.append(_check("bounds", "upper cap A(k,p) <= 2^(2-p)", margin, "log margin"))
    for theta in BOUNDS_THETAS:
        table = coefs.cached_table(theta, BOUNDS_KMAX)
        ta = table.log_entries[1 : BOUNDS_KMAX + 1, 1 : BOUNDS_KMAX + 1]
        tri_t = ta[k_idx, p_idx]
        m_upper = float(np.min(tri - tri_t))
        # 1e-9 log-space slack: the tables carry ~1e-13 logsumexp rounding
        m_lower = float(np.min(tri_t - (tri - p_arr * math.log(2.0)))) + 1e-9
        diff = np.exp(tri) - np.exp(tri_t)  # A - A(theta) >= 0 entrywise
        m_pert = float(np.min(theta * p_arr * np.exp(tri) - np.abs(diff)))
        checks.append(_check("bounds", f"A(k,p)({theta}) <= A(k,p)", m_upper, "log margin"))
        checks.append(
            _check("bounds", f"2^-p A(k,p) <= A(k,p)({theta})", m_lower, "log margin")
        )
        checks.append(
            _check("bounds", f"|A(k,p)({theta}) - A(k,p)| <= {theta} p A(k,p)", m_pert)
        )
    # auxiliary-term identities
    worst = math.inf
    for k in (5, 20, 100):
        for l in range(1, k - 1):
            ratio = math.exp(coefs.log_b_term(k, l + 1)) / math.exp(coefs.log_b_term(k, l))
            exact = (k + l) / (2.0 * (l + 1))
            worst = min(worst, 1e-10 - abs(ratio / exact - 1.0))
    checks.append(_check("bounds", "B(k,l+1)/B(k,l) = (k+l)/(2(l+1))", worst))
    worst = math.inf
    for k in (5, 20, 100):
        for p in range(2, k):
            s = sum(math.exp(coefs.log_b_term(k, l)) for l in range(p, k))
            worst = min(worst, 0.5 - s)
    checks.append(_check("bounds", "sum_l B(k,l) < 1/2", worst))
    return checks


# -- asymptotic-coefficient suites -------------------------------------------


def suite_asym_a(seed: int = 0) -> list[Check]:
    checks = []
    table = coefs.cached_table(0.0, 400, cols=3)
    for p in (1, 2, 3):
        devs = []
        for k in (100, 200, 400):
            ratio = math.exp(table.log_entry(k, p) - coefs.log_asymptotic_A(k, p))
            devs.append(abs(ratio - 1.0))
        checks.append(
            _check("asym-a", f"|A(400,{p})/asym - 1| < 0.1", 0.1 - devs[-1], f"dev={devs[-1]:.4f}")
        )
        checks.append(
            _check(
                "asym-a",
                f"deviation decreasing over k=100,200,400 at p={p}",
                min(devs[0] - devs[1], devs[1] - devs[2]),
            )
        )
    return checks


def suite_asym_c(seed: int = 0) -> list[Check]:
    checks = []
    table = coefs.cached_table(0.0, 400, cols=3)
    for l, lam in ((1, 6.0), (2, 6.0), (1, 4.0)):
        devs = []
        for k in (100, 200, 400):
            ratio = math.exp(
                coefs.log_c_combined(k, l, lam, table) - coefs.log_asymptotic_C(k, l, lam)
            )
            devs.append(abs(ratio - 1.0))
        checks.append(
            _check(
                "asym-c",
                f"combined/asym deviation decreasing (l={l}, lam={lam})",
                min(devs[0] - devs[1], devs[1] - devs[2]),
                f"devs={[f'{d:.4f}' for d in devs]}",
            )
        )
    return checks


# -- series suites ------------------------------------------------------------

FT_GRID = tuple(
    (lam, theta) for lam in (1.0, 2.5, 6.0, 6.5, 12.0) for theta in (1e-2, 1e-4, 1e-6)
)


def suite_tail(seed: int = 0) -> list[Check]:
    checks = []
    for lam, theta in FT_GRID:
        computed, bound = tilted.tail_bound(SelectionSpec(lam=lam, theta=theta))
        checks.append(
            _check(
                "tail",
                f"tail <= bound at (lam={lam}, theta={theta})",
                bound - computed,
                f"tail={computed:.3e} bound={bound:.3e}",
            )
        )
    return checks


def suite_ratio(seed: int = 0) -> list[Check]:
    checks = []
    kmax = coefs.series_kmax(200.0)
    table = coefs.cached_table(0.0, kmax, cols=1)
    b = table.log_entries[1 : kmax + 1, 1]
    c = 3.5
    a = b + math.log(c)
    for x in (50.0, 100.0, 200.0):
        ratio = math.exp(
            tilted.exp_series(x, a, start=1, log_coeff_cap=math.log(c * 2.0))
            - tilted.exp_series(x, b, start=1, log_coeff_cap=math.log(2.0))
        )
        checks.append(
            _check("ratio", f"exact-ratio series at x={x}", 1e-10 - abs(ratio - c))
        )
    # spliced sequence: a_k = c b_k beyond k=10; ratio drifts to c as x grows
    a2 = b.copy()
    a2[10:] += math.log(c)
    devs = []
    for x in (50.0, 100.0, 200.0):
        ratio = math.exp(
            tilted.exp_series(x, a2, start=1, log_coeff_cap=math.log(c * 2.0))
            - tilted.exp_series(x, b, start=1, log_coeff_cap=math.log(2.0))
        )
        devs.append(abs(ratio - c))
    checks.append(
        _check("ratio", "spliced-ratio deviation decreasing in x", min(devs[0] - devs[1], devs[1] - devs[2]))
    )
    return checks


def suite_phase(seed: int = 0) -> list[Check]:
    checks = []
    ok = True
    lam = 0.01
    while lam <= 12.5:
        u = tilted.classify_phase(lam).u
        if not (u * (u - 1) < lam <= u * (u + 1)):
            ok = False
        lam = round(lam + 0.01, 10)
    checks.append(_check("phase", "interval membership on 0.01 grid", 1.0 if ok else -1.0))
    for u in (1, 2, 3):
        crit = float(u * (u + 1))
        at = tilted.classify_phase(crit).u
        above = tilted.classify_phase(crit + 1e-9).u
        checks.append(
            _check("phase", f"right-closed at lam={crit:g}", 1.0 if (at == u and above == u + 1) else -1.0)
        )
    return checks


# -- randomized configuration suites -----------------------------------------


def perturbed_configs(n_parts: int, count: int, rng: np.random.Generator) -> list[ldp.Configuration]:
    """Dirichlet-perturbed uniform points of L_n, sorted descending.

    Concentrations from spread-out to nearly-uniform so both the bulk and
    the near-center region of L_n get exercised.
    """
    out = []
    alphas = (2.0, 20.0, 200.0, 2000.0)
    per = count // len(alphas)
    for alpha in alphas:
        draws = rng.dirichlet(np.full(n_parts, alpha), size=per)
        draws = -np.sort(-draws, axis=1)
        for row in draws:
            out.append(ldp.Configuration(entries=tuple(row), validate=False))
    return out


def suite_inclusion(seed: int = 0, count: int = 10**4) -> list[Check]:
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
            for cfg in perturbed_configs(n, count // 2, rng):
                s = ldp.s_rate(cfg, lam)
                min_s = min(min_s, s)
                if s < delta and abs(ldp.phi2(cfg) - 1.0 / k) < delta:
                    lhs_hits += 1
                    if ldp.metric_d(cfg, center) >= delta:
                        counterexamples += 1
        checks.append(
            _check(
                "inclusion",
                f"no counterexample at k={k}",
                1.0 if counterexamples == 0 else -float(counterexamples),
                f"lhs hits={lhs_hits}",
            )
        )
        checks.append(_check("inclusion", f"S_lam >= 0 on sweep (k={k})", min_s + 1e-12))
        # away from the two zero levels the rate stays >= 2/(k+2)
        floor_margin = math.inf
        for n in range(1, 9):
            if n in (k, k + 1):
                continue
            for cfg in perturbed_configs(n, 400, rng):
                floor_margin = min(
                    floor_margin, ldp.s_rate(cfg, lam) - (2.0 / (k + 2) - 1e-12)
                )
        checks.append(_check("inclusion", f"S_lam >= 2/{k + 2} off the zero levels (k={k})", floor_margin))
    return checks


def suite_mc_oracle(seed: int = 0, n: int = 2 * 10**5) -> list[Check]:
    checks = []
    spec = SelectionSpec(lam=3.0, theta=1.0)  # theta=1: weights all 1
    for k in range(1, 5):
        est = mc.tilted_estimate(
            spec, mc.H2Statistic(lambda h2, k=k: (1.0 - h2) ** k), n, seed
        )
        exact = moments.moment_via_recursion(1.0, k)
        margin = 4.0 * est.std_error - abs(est.value - exact)
        checks.append(
            _check(
                "mc-oracle",
                f"tilted estimate of (1-H2)^{k} vs m_{k}(1) within 4 se",
                margin,
                f"est={est.value:.6f} exact={exact:.6f} se={est.std_error:.2e}",
            )
        )
    return checks


SUITES = {
    "bounds": suite_bounds,
    "asym-a": suite_asym_a,
    "asym-c": suite_asym_c,
    "tail": suite_tail,
    "ratio": suite_ratio,
    "phase": suite_phase,
    "inclusion": suite_inclusion,
    "mc-oracle": suite_mc_oracle,
}


def run_suite(name: str, seed: int = 0) -> list[Check]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name](seed=seed)


def run_all(seed: int = 0) -> list[Check]:
    out: list[Check] = []
    for name in SUITES:
        out.extend(run_suite(name, seed=seed))
    return out
