"""Batch command-line front end.

Every command writes machine-readable CSV or JSON (17 significant digits)
to stdout or --out; with --out a sidecar manifest records the invocation,
seed, version, and a sha256 of each data file so a re-run can be checked
byte for byte (timestamps live only in the manifest).

Exit codes: 0 success, 1 usage error, 2 domain error, 3 precision error,
4 MC weight degeneracy escalated by --strict.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import re
import sys
from datetime import datetime, timezone

from . import __version__, ldp, mc, moments, tilted
from . import coefficients as coefs
from . import verify as verify_mod
from .errors import DomainError, PrecisionError
from .model import SelectionSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3
EXIT_DEGENERATE = 4

MAX_PHASE_ROWS = 10**6
HASH_CHUNK = 1 << 16  # bytes of the --out file read at a time to hash it


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented usage exit code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _emit(args, write) -> None:
    """Call write(fp) on the --out file, then write its manifest, or on stdout."""
    if args.out:
        with open(args.out, "w") as fp:
            write(fp)
        _write_manifest(args)
    else:
        write(sys.stdout)


def _write_json(obj, fp, **kwargs) -> None:
    """Stream obj to fp as indented JSON and a newline."""
    json.dump(obj, fp, indent=2, **kwargs)
    fp.write("\n")


def _write_manifest(args) -> None:
    sha = hashlib.sha256()
    with open(args.out, "rb") as fp:
        while chunk := fp.read(HASH_CHUNK):
            sha.update(chunk)
    manifest = {
        "command": args.command,
        "argv": args._argv,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {args.out: sha.hexdigest()},
    }
    with open(args.out + ".manifest.json", "w") as fp:
        _write_json(manifest, fp)


def _emit_rows(args, header: list[str], rows: list[list]) -> None:
    if args.format == "json":
        payload = [dict(zip(header, (_jsonable(v) for v in row))) for row in rows]
        _emit(args, lambda fp: _write_json(payload, fp, default=_fmt))
    else:

        def write(fp):
            writer = csv.writer(fp)
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)

        _emit(args, write)


def _emit_obj(args, obj: dict) -> None:
    if args.format == "csv":
        _emit_rows(args, list(obj.keys()), [list(obj.values())])
    else:
        payload = {k: _jsonable(v) for k, v in obj.items()}
        _emit(args, lambda fp: _write_json(payload, fp, default=_fmt))


def _floats(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError("empty list")
    return values


def _ball(text: str) -> tuple[int, float]:
    k_text, delta_text = text.split(",")
    return int(k_text), float(delta_text)


# -- commands -----------------------------------------------------------------


def cmd_coeffs(args) -> int:
    table = coefs.build_coeff_table(0.0 if args.limit else args.theta, args.kmax)
    if args.format == "json":

        def write(fp):
            coefs.write_table_json(table, fp)
            fp.write("\n")

        _emit(args, write)
    else:
        _emit(args, lambda fp: coefs.table_to_csv(table, fp))
    return EXIT_OK


def cmd_moments(args) -> int:
    table = coefs.build_coeff_table(args.theta, args.kmax)
    vec = moments.moments_from_table(table, args.kmax)
    run = moments.log_moments(args.theta, args.kmax).tolist()  # log m_k, k = 0..kmax
    header = ["k", "m_exact", "m_recursion"]
    if args.mc_check is not None:
        header += ["m_mc", "se"]
    rows = []
    for k in range(1, args.kmax + 1):
        row = [k, vec[k], math.exp(run[k])]
        if args.mc_check is not None:
            est = moments.mc_moment_oracle(args.theta, k, args.mc_check, args.seed)
            row += [est.value, est.std_error]
        rows.append(row)
    _emit_rows(args, header, rows)
    return EXIT_OK


def cmd_kn(args) -> int:
    rows = []
    for theta in args.theta:
        spec = SelectionSpec(lam=args.lam, theta=theta)
        rows.append([theta, tilted.k_ratio(spec, args.n, args.limit_coeffs)])
    _emit_rows(args, ["theta", "K"], rows)
    return EXIT_OK


def cmd_mgf(args) -> int:
    spec = SelectionSpec(lam=args.lam, theta=args.theta)
    rows = [[t, tilted.mgf(spec, t)] for t in args.t]
    _emit_rows(args, ["t", "mgf"], rows)
    return EXIT_OK


def cmd_phase(args) -> int:
    if not -math.inf < args.lambda_min <= args.lambda_max < math.inf:
        raise DomainError(f"lambda range [{args.lambda_min}, {args.lambda_max}] "
                          "is empty or not finite")
    if not (args.step > 0.0 and (args.lambda_max - args.lambda_min) / args.step < MAX_PHASE_ROWS):
        raise DomainError(f"step {args.step} is <= 0 or makes more than {MAX_PHASE_ROWS} rows")
    rows = []
    lam = args.lambda_min
    while lam <= args.lambda_max + 1e-12:
        result = tilted.classify_phase(lam)
        rows.append([lam, result.u, float(result.limit_homozygosity)])
        lam, prev = round(lam + args.step, 12), lam
        if lam <= prev:  # a step below the 1e-12 grid or lam's resolution
            if args.step > args.lambda_max - prev:  # the sweep ends at prev
                break
            raise DomainError(f"step {args.step} does not advance lambda past {prev}")
    _emit_rows(args, ["lambda", "u", "h_limit"], rows)
    return EXIT_OK


def cmd_tails(args) -> int:
    spec = SelectionSpec(lam=args.lam, theta=args.theta)
    computed, bound = tilted.tail_bound(spec)
    _emit_obj(args, {"computedTail": computed, "analyticBound": bound})
    return EXIT_OK


def cmd_rate(args) -> int:
    if (args.config is None) == (args.uniform is None):
        raise DomainError("rate needs exactly one of --config or --uniform")
    if args.uniform is not None:
        config = ldp.uniform_config(args.uniform)
    else:
        config = ldp.Configuration(entries=tuple(sorted(args.config, reverse=True)))
    _emit_obj(
        args,
        {
            "J": ldp.j_rate(config),
            "phi2": ldp.phi2(config),
            "infTerm": ldp.inf_term(args.lam)[0],
            "S": ldp.s_rate(config, args.lam),
        },
    )
    return EXIT_OK


def cmd_sample(args) -> int:
    spec = SelectionSpec(lam=args.lam, theta=args.theta)
    if args.hist_bins is not None:
        edges, masses = mc.homozygosity_histogram(spec, args.samples, args.hist_bins, args.seed)
        rows = [[edges[i], edges[i + 1], masses[i]] for i in range(len(masses))]
        _emit_rows(args, ["bin_lo", "bin_hi", "mass"], rows)
        return EXIT_OK
    if args.ball:
        est = mc.ball_probability(spec, *args.ball, args.samples, args.seed)
    else:
        est = mc.tilted_estimate(spec, mc.H2Statistic(lambda h2: h2), args.samples, args.seed)
    payload = {
        "estimate": est.value,
        "se": est.std_error,
        "ess": est.effective_sample_size,
        "n": est.n_samples,
    }
    if est.warning:
        payload["warning"] = est.warning
    _emit_obj(args, payload)
    if est.warning and args.strict:
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = (
        verify_mod.run_all(seed=args.seed)
        if args.suite == "all"
        else verify_mod.run_suite(args.suite, seed=args.seed)
    )
    all_pass = all(c.passed for c in checks)
    if args.format == "json":
        rows = [[c.suite, c.name, c.passed, c.margin, c.detail] for c in checks]
        _emit_rows(args, ["suite", "name", "passed", "margin", "detail"], rows)
    else:
        lines = []
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"{status} {c.suite}: {c.name} (margin {c.margin:.3e}){detail}")
        lines.append(f"{'ALL PASS' if all_pass else 'FAILURES PRESENT'} ({len(checks)} checks)")
        _emit(args, lambda fp: fp.write("\n".join(lines) + "\n"))
    return EXIT_OK if all_pass else EXIT_DOMAIN


# -- wiring -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="pdov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table export")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--limit", action="store_true", help="limit table (theta = 0)")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("moments", help="heterozygosity moments")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mc-check", type=int, dest="mc_check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("kn", help="series ratio K_n over a theta list")
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=_floats, required=True, help="comma-separated theta values")
    p.add_argument("--limit-coeffs", action="store_true", dest="limit_coeffs")
    p.set_defaults(func=cmd_kn)

    p = sub.add_parser("mgf", help="tilted homozygosity MGF")
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--t", type=_floats, required=True, help="comma-separated t values")
    p.set_defaults(func=cmd_mgf)

    p = sub.add_parser("phase", help="phase diagram sweep")
    p.add_argument("--lambda-min", type=float, required=True, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, required=True, dest="lambda_max")
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("tails", help="series tail vs closed-form bound")
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("rate", help="rate-function evaluation")
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--config", type=_floats, default=None, help="comma-separated entries")
    p.add_argument("--uniform", type=int, default=None, help="k-uniform configuration")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("sample", help="tilted-measure Monte Carlo")
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    what = p.add_mutually_exclusive_group()  # a histogram or one estimate
    what.add_argument("--hist-bins", type=int, dest="hist_bins")
    what.add_argument("--ball", type=_ball, default=None, help="K,DELTA ball probability")
    p.add_argument("--strict", action="store_true", help="escalate ESS warnings to exit 4")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="bound-by-bound property suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(verify_mod.SUITES) + ["all"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    for sp in sub.choices.values():
        _add_common(sp)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a --t list like -1,1 as an option: join it to --t=-1,1
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] == "--t" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"--t={argv[i]}"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    raise SystemExit(main())
