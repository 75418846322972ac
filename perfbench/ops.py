"""Op implementations and output checks.

Imported by the child process after pdov, so importing pdov here costs
nothing extra.  Every pdov function is looked up on its module at call
time, which is what lets the traced run swap in timing wrappers.

A check returns None when the op's output is right and a reason when it is
not.  Checks run after the timed loop and may call pdov themselves.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from fractions import Fraction

from pdov import cli, coefficients, ldp, mc, moments, tilted, verify
from pdov.model import SelectionSpec


def largest_share(config) -> float:
    """A statistic that does not factor through H2, so mc evaluates it on
    every sample (the generic estimation path)."""
    return config.entries[0] if config.entries else 0.0


def _spec(op: dict) -> SelectionSpec:
    return SelectionSpec(lam=op["lam"], theta=op["theta"])


def _estimate(est) -> tuple:
    return (est.value, est.std_error, est.n_samples, est.effective_sample_size)


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def _cli(op, workdir):
    path = os.path.join(workdir, op["out"])
    code = cli.main(op["argv"] + ["--out", path])
    return (code, _file_sha256(path))


def _suite(op, workdir):
    fn = getattr(verify, f"suite_{op['suite']}")
    kwargs = {k: op[k] for k in ("seed", "count") if k in op}
    return [(c.name, c.passed, c.margin) for c in fn(**kwargs)]


def _critical_rates(op, workdir):
    lam = float(op["k"] * (op["k"] + 1))
    return [ldp.s_rate(ldp.uniform_config(u), lam) for u in range(1, op["levels"] + 1)]


def _rate_grid(op, workdir):
    alpha, n = op["alpha"], op["points"]
    if op["rate"] == "I1":
        grid = [ldp.rate_I1(10.0 * i / (n - 1), alpha) for i in range(n)]
        return grid, ldp.rate_I1((1.0 - alpha) / alpha, alpha)
    grid = [ldp.rate_I2(i / (n - 1), alpha) for i in range(n)]
    return grid, ldp.rate_I2(alpha, alpha)


def _phase_sweep(op, workdir):
    out = []
    lam = op["lo"]
    while lam <= op["hi"]:
        out.append((lam, tilted.classify_phase(lam).u))
        lam = round(lam + op["step"], 10)
    return out


RUN = {
    "k_ratio": lambda op, wd: tilted.k_ratio(_spec(op), 1),
    "k_ratio_limit": lambda op, wd: tilted.k_ratio(_spec(op), 1, use_limit_coeffs=True),
    "diagnostics": lambda op, wd: tilted.proof_diagnostics(_spec(op), 1),
    "tail": lambda op, wd: tilted.tail_bound(_spec(op)),
    "mgf": lambda op, wd: tilted.mgf(_spec(op), op["t"]),
    "mean_het": lambda op, wd: tilted.tilted_mean_heterozygosity(_spec(op)),
    "cli": _cli,
    "suite": _suite,
    "h2_estimate": lambda op, wd: _estimate(mc.tilted_estimate(
        _spec(op), mc.H2Statistic(lambda h2: 1.0 - h2), op["n"], op["seed"])),
    "histogram": lambda op, wd: tuple(a.tolist() for a in mc.homozygosity_histogram(
        _spec(op), op["n"], op["bins"], op["seed"])),
    "ball": lambda op, wd: _estimate(mc.ball_probability(
        _spec(op), op["k"], op["delta"], op["n"], op["seed"])),
    "generic_estimate": lambda op, wd: _estimate(mc.tilted_estimate(
        _spec(op), largest_share, op["n"], op["seed"])),
    "critical_rates": _critical_rates,
    "rate_grid": _rate_grid,
    "phase_sweep": _phase_sweep,
}


# -- checks ---------------------------------------------------------------------


def _check_diagnostics(op, out, outs, workdir):
    k1, k1_limit = (outs[r] for r in op["ref"])
    f, g = out
    rel = abs((k1_limit + f) / (1.0 + g) - k1) / abs(k1)
    return None if rel <= 1e-12 else f"K1 != (K~1+F)/(1+G): rel err {rel:.3e}"


def _check_ratio(op, out, outs, workdir):
    return None if math.isfinite(out) and out > 0.0 else f"K1 = {out}"


def _check_tail(op, out, outs, workdir):
    computed, bound = out
    return None if 0.0 <= computed <= bound else f"tail {computed:.3e} > bound {bound:.3e}"


def _check_mgf(op, out, outs, workdir):
    t = op["t"]
    lo, hi = sorted((1.0, math.exp(t)))
    jensen = math.exp(t * (1.0 - outs[op["ref"][0]]))
    if not lo <= out <= hi:
        return f"mgf({t}) = {out} outside [{lo}, {hi}]"
    return None if out >= jensen * (1.0 - 1e-12) else f"mgf({t}) = {out} below Jensen {jensen}"


def _check_mean_het(op, out, outs, workdir):
    return None if 0.0 < out < 1.0 else f"E[1-H2] = {out}"


def _entry_matches(text: str, log_a: float) -> bool:
    """Whether an exported entry re-parses to the table's value: exactly
    where the export writes 17 digits of exp(log A), to 1e-12 (relative, in
    log) where it writes mantissa-e-exponent beyond double range."""
    if log_a == -math.inf:
        return text == "0"
    if abs(log_a) < 700.0:
        return float(text) == math.exp(log_a)
    mantissa, _, exp10 = text.partition("e")
    got = math.log(float(mantissa)) + int(exp10) * math.log(10.0)
    return abs(got - log_a) <= 1e-12 * abs(log_a)


def _table_mismatch(rows, table) -> str | None:
    cells = table.kmax * (table.kmax + 1) // 2
    if len(rows) != cells:
        return f"{len(rows)} entries, table has {cells}"
    for k, l, text in rows:
        if not _entry_matches(text, float(table.log_entries[k, l])):
            return f"A({k},{l}) = {text}, table log entry {float(table.log_entries[k, l])!r}"
    return None


def _check_csv_table(op, out, outs, workdir):
    if out[0] != 0:
        return f"exit code {out[0]}"
    with open(os.path.join(workdir, op["out"]), newline="") as fp:
        rows = [(int(k), int(l), a) for k, l, a in list(csv.reader(fp))[1:]]
    theta, kmax = float(op["argv"][2]), int(op["argv"][4])
    return _table_mismatch(rows, coefficients.build_coeff_table(theta, kmax))


def _check_json_table(op, out, outs, workdir):
    if out[0] != 0:
        return f"exit code {out[0]}"
    with open(os.path.join(workdir, op["out"])) as fp:
        payload = json.load(fp)
    rows = [(k, l, text) for k, row in enumerate(payload["rows"], 1)
            for l, text in enumerate(row, 1)]
    return _table_mismatch(rows, coefficients.build_limit_table(payload["kmax"]))


def _check_moment_routes(op, out, outs, workdir):
    if out[0] != 0:
        return f"exit code {out[0]}"
    with open(os.path.join(workdir, op["out"]), newline="") as fp:
        rows = list(csv.DictReader(fp))
    worst = max(abs(float(r["m_exact"]) / float(r["m_recursion"]) - 1.0) for r in rows)
    return None if worst <= 1e-10 else f"table and recursion routes differ by {worst:.3e}"


def _check_suite(op, out, outs, workdir):
    failed = [name for name, passed, _ in out if not passed]
    return f"failed checks: {failed}" if failed else None


def _check_h2_estimate(op, out, outs, workdir):
    value, se, n, ess = out
    if not (0.0 <= value <= 1.0 and se > 0.0 and 0.0 < ess <= n * (1.0 + 1e-12)):
        return f"estimate {out} out of range"
    if op["theta"] == 1.0:  # no tilt: the estimate is the plain moment m_1
        exact = moments.moment_via_recursion(1.0, 1)
        if abs(value - exact) > 4.0 * se:
            return f"E[1-H2] = {value} vs m_1 = {exact}: more than 4 se ({se:.2e})"
    return None


def _check_histogram(op, out, outs, workdir):
    edges, masses = out
    if len(masses) != op["bins"] or len(edges) != op["bins"] + 1:
        return "wrong bin count"
    if min(masses) < 0.0 or abs(math.fsum(masses) - 1.0) > 1e-12:
        return f"masses sum to {math.fsum(masses)}"
    return None


def _check_probability(op, out, outs, workdir):
    return None if 0.0 <= out[0] <= 1.0 else f"estimate {out[0]} outside [0, 1]"


def _check_critical_rates(op, out, outs, workdir):
    k = op["k"]
    for u, s in enumerate(out, 1):
        if not isinstance(s, Fraction):
            return f"S at u={u} is not exact: {s!r}"
        if (s == 0) != (u in (k, k + 1)) or s < 0:
            return f"S_lambda(uniform {u}) = {s} at lambda = {k * (k + 1)}"
    return None


def _check_rate_grid(op, out, outs, workdir):
    grid, at_mean = out
    if min(grid) < -1e-12:
        return f"negative rate {min(grid)}"
    return None if abs(at_mean) <= 1e-12 else f"rate at the mean is {at_mean}"


def _check_phase_sweep(op, out, outs, workdir):
    bad = [(lam, u) for lam, u in out if not u * (u - 1) < lam <= u * (u + 1)]
    return f"lambda outside its phase: {bad[:3]}" if bad else None


CHECK = {
    "k_ratio": _check_ratio,
    "k_ratio_limit": _check_ratio,
    "diagnostics": _check_diagnostics,
    "tail": _check_tail,
    "mgf": _check_mgf,
    "mean_het": _check_mean_het,
    "csv_table": _check_csv_table,
    "json_table": _check_json_table,
    "moment_routes": _check_moment_routes,
    "suite": _check_suite,
    "h2_estimate": _check_h2_estimate,
    "histogram": _check_histogram,
    "ball": _check_probability,
    "generic_estimate": _check_probability,
    "critical_rates": _check_critical_rates,
    "rate_grid": _check_rate_grid,
    "phase_sweep": _check_phase_sweep,
}


def failures(op_list: list[dict], outs: dict, errors: dict, workdir: str) -> dict:
    """Reason per failed op: it raised, an op it is checked against raised,
    or its check failed."""
    failed = dict(errors)
    for op in op_list:
        if op["id"] in errors:
            continue
        if any(ref in errors for ref in op.get("ref", ())):
            failed[op["id"]] = "an op it is checked against failed"
            continue
        try:
            reason = CHECK[op.get("check", op["kind"])](op, outs[op["id"]], outs, workdir)
        except Exception as exc:  # a malformed output fails its op, not the run
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failed[op["id"]] = reason
    return failed


def canonical(value) -> str:
    """Text form of an op output with floats at 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    return str(value)


def digest(ops: list[dict], outs: dict, errors: dict) -> str:
    """sha256 over every op's output (or its error), in op order."""
    h = hashlib.sha256()
    for op in ops:
        text = errors[op["id"]] if op["id"] in errors else canonical(outs[op["id"]])
        h.update(f"{op['id']}={text}\n".encode())
    return h.hexdigest()
