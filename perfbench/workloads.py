"""Seeded op lists for the four benchmark workloads.

An op is one public pdov call, described here as plain data so that
run.py can generate and size-check a run's inputs without importing pdov.
The seed moves each theta up by less than JITTER of itself (so it stays in
its decade and never passes 1) and derives the Monte Carlo seeds; table
sizes and draw counts are the same for every seed, so run cost does not
depend on it.  Ops are kept short, about half a second at most on one vCPU
of a 2.0 GHz Xeon (tables of at most 192 rows, 1e5 draws): the host-speed
correction (speed.py) is taken around each op and holds best for short
ops, and short reps let a run repeat each op several times.

Why each workload exists:

- series: tilted-series consumers (K_1 ratios and their diagnostics, tail
  certificates, the MGF) that read only a few table columns yet build full
  triangles (192 rows).  Table caching, column truncation and recursion
  kernels show here.
- table: every column of every table is read (CSV/JSON export and both
  moment routes, through the CLI), so column truncation should gain
  nothing here; it also carries CLI serialization and the O(k^2) Python
  moment recursion.
- sample: no table work at all, so a coefficients change predicts no
  change here.  GEM sampling and importance weights: the H2 path, the h2
  cache, both keep-weights loops and a per-sample statistic.
- rates: pure-Python ldp (the inclusion sweep, exact S_lambda at critical
  lambda, I1/I2 grids, the phase map), the control for numpy-side changes.
"""

from __future__ import annotations

import hashlib
import math

WORKLOADS = ("series", "table", "sample", "rates")
JITTER = 0.05
KMAX_LIMIT = 704
DRAWS_LIMIT = 10**6
# the inclusion sweep as several short ops, each over its own random configurations
INCLUSION_OPS = 4
INCLUSION_COUNT = 2_000


def _hash(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def unit(seed: int, label: str) -> float:
    """Deterministic number in [0, 1) for (seed, label)."""
    return _hash(seed, label) / 2.0**64


def derived_seed(seed: int, label: str) -> int:
    """Deterministic Monte Carlo seed in [0, 2^63) for (seed, label)."""
    return _hash(seed, label) >> 1


def jitter(theta: float, seed: int, label: str) -> float:
    """theta * (1 + JITTER * u), capped at 1 (theta = 1 stays exactly 1)."""
    return min(1.0, theta * (1.0 + JITTER * unit(seed, label)))


def series_kmax(x: float) -> int:
    """Table size a series at scale x = lambda log(1/theta) needs.

    The same cut as pdov's own table sizing (2.3 x + 14 sqrt(x) + 60); used
    only to refuse oversized ops before anything runs.
    """
    return math.ceil(2.3 * x + 14.0 * math.sqrt(x) + 60.0)


def _x(lam: float, theta: float) -> float:
    return lam * math.log(1.0 / theta)


def _series(seed: int) -> list[dict]:
    ops = []
    for i, (lam, theta0) in enumerate(((6.0, 1.5e-2), (12.0, 0.125), (3.0, 2e-4))):
        theta = jitter(theta0, seed, f"k1-{i}")
        base = {"lam": lam, "theta": theta, "kmax": series_kmax(_x(lam, theta)) + 1}
        ops.append({**base, "id": f"k1-{i}", "kind": "k_ratio"})
        ops.append({**base, "id": f"k1-{i}-limit", "kind": "k_ratio_limit"})
        ops.append({**base, "id": f"k1-{i}-diag", "kind": "diagnostics",
                    "ref": [f"k1-{i}", f"k1-{i}-limit"]})
    theta = jitter(0.125, seed, "tail")
    for lam in (1.0, 2.5, 6.0, 6.5, 12.0):
        ops.append({"id": f"tail-{lam}", "kind": "tail", "lam": lam, "theta": theta,
                    "kmax": series_kmax(_x(lam, theta))})
    theta = jitter(0.18, seed, "mgf")
    kx = series_kmax(_x(6.0, theta))
    for t in (-1.0, 0.5, 1.0):
        ops.append({"id": f"mgf-{t}", "kind": "mgf", "lam": 6.0, "theta": theta, "t": t,
                    "kmax": kx + int(abs(t)) + 60, "ref": ["mean-het"]})
    ops.append({"id": "mean-het", "kind": "mean_het", "lam": 6.0, "theta": theta,
                "kmax": kx + 1})
    return ops


def _table(seed: int) -> list[dict]:
    theta = repr(jitter(0.5, seed, "table"))
    return [
        {"id": "coeffs-csv", "kind": "cli", "check": "csv_table", "kmax": 200,
         "argv": ["coeffs", "--theta", theta, "--kmax", "200"], "out": "coeffs.csv"},
        {"id": "limit-json", "kind": "cli", "check": "json_table", "kmax": 200,
         "argv": ["coeffs", "--limit", "--kmax", "200", "--format", "json"],
         "out": "limit.json"},
        {"id": "coeffs-csv-small-theta", "kind": "cli", "check": "csv_table", "kmax": 160,
         "argv": ["coeffs", "--theta", repr(jitter(0.1, seed, "table-small")), "--kmax", "160"],
         "out": "coeffs-small.csv"},
        {"id": "moments", "kind": "cli", "check": "moment_routes", "kmax": 200,
         "argv": ["moments", "--theta", theta, "--kmax", "200"], "out": "moments.csv"},
    ]


def _sample(seed: int) -> list[dict]:
    ops = []
    for theta0 in (0.1, 0.3, 1.0):
        theta = jitter(theta0, seed, f"sample-{theta0}")
        mc_seed = derived_seed(seed, f"sample-{theta0}")
        ops += [
            {"id": f"h2-{theta0}", "kind": "h2_estimate", "lam": 6.0, "theta": theta,
             "n": 100_000, "seed": mc_seed, "draws": 100_000},
            # same (theta, n, seed) as the estimate, so pdov's h2 cache serves it
            {"id": f"hist-{theta0}", "kind": "histogram", "lam": 6.0, "theta": theta,
             "n": 100_000, "bins": 50, "seed": mc_seed, "draws": 100_000},
            {"id": f"ball-{theta0}", "kind": "ball", "lam": 2.0, "theta": theta, "k": 1,
             "delta": 0.2, "n": 100_000, "seed": derived_seed(seed, f"ball-{theta0}"),
             "draws": 100_000},
            {"id": f"generic-{theta0}", "kind": "generic_estimate", "lam": 6.0,
             "theta": theta, "n": 20_000, "seed": derived_seed(seed, f"generic-{theta0}"),
             "draws": 20_000},
        ]
    return ops


def _rates(seed: int) -> list[dict]:
    ops = [{"id": f"inclusion-{i}", "kind": "suite", "suite": "inclusion",
            "seed": derived_seed(seed, f"inclusion-{i}") % 2**32, "count": INCLUSION_COUNT}
           for i in range(INCLUSION_OPS)]
    for k in range(1, 7):
        ops.append({"id": f"critical-{k}", "kind": "critical_rates", "k": k, "levels": 30})
    for rate, alpha0 in (("I1", 0.3), ("I1", 0.7), ("I2", 0.2), ("I2", 0.6)):
        ops.append({"id": f"{rate}-{alpha0}", "kind": "rate_grid", "rate": rate,
                    "alpha": jitter(alpha0, seed, f"{rate}-{alpha0}"), "points": 40_001})
    ops.append({"id": "phase", "kind": "phase_sweep", "lo": 0.01, "hi": 12.5, "step": 0.01})
    return ops


_GENERATORS = {"series": _series, "table": _table, "sample": _sample, "rates": _rates}


def check_sizes(ops: list[dict]) -> None:
    """Refuse any op whose table or draw count could make a run take hours."""
    for op in ops:
        if op.get("kmax", 0) > KMAX_LIMIT:
            raise ValueError(f"op {op['id']}: kmax {op['kmax']} above {KMAX_LIMIT}")
        if op.get("draws", 0) > DRAWS_LIMIT:
            raise ValueError(f"op {op['id']}: {op['draws']} draws above {DRAWS_LIMIT}")


def generate(workload: str, seed: int) -> list[dict]:
    """The op list of one workload for one seed, size-checked."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    ops = _GENERATORS[workload](seed)
    check_sizes(ops)
    return ops
