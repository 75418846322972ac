"""Command-line interface: formats, exit codes, reproducibility manifests."""

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pdov
from pdov import cli, moments, tilted
from pdov import coefficients as coefs
from pdov.errors import PrecisionError

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_moments_first_row(capsys):
    code, out, _ = run(capsys, "moments", "--theta", "0.5", "--kmax", "3")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    assert float(rows[0]["m_exact"]) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert float(rows[0]["m_recursion"]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_moments_json_format(capsys):
    code, out, _ = run(capsys, "moments", "--theta", "0.5", "--kmax", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["k"] == 1
    assert payload[0]["m_exact"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_output_has_17_significant_digits(capsys):
    _, out, _ = run(capsys, "moments", "--theta", "0.3", "--kmax", "1")
    value_text = parse_csv(out)[0]["m_exact"]
    assert float(value_text) == pytest.approx(0.3 / 1.3, rel=1e-14)
    assert len(value_text.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_coeffs_limit_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--kmax", "2", "--limit")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[0]["A"]) == pytest.approx(1.0, rel=1e-13)
    assert float(rows[1]["A"]) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_mgf_t_zero(capsys):
    code, out, _ = run(capsys, "mgf", "--lambda", "6", "--theta", "1e-4", "--t", "0")
    assert code == 0
    assert float(parse_csv(out)[0]["mgf"]) == 1.0


def test_mgf_t_list_starting_negative(capsys):
    # argparse alone reads "-1,1" as an option; both spellings must parse
    code, out, _ = run(capsys, "mgf", "--lambda", "6", "--theta", "1e-2", "--t", "-1,1")
    assert code == 0
    assert [float(r["t"]) for r in parse_csv(out)] == [-1.0, 1.0]
    assert run(capsys, "mgf", "--lambda", "6", "--theta", "1e-2", "--t=-1,1")[1] == out


def test_kn_command(capsys):
    code, out, _ = run(capsys, "kn", "--lambda", "6", "--n", "0", "--theta", "1e-3,1e-4")
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["K"]) for r in rows] == [1.0, 1.0]


def test_kn_limit_coeffs_command(capsys):
    code, out, _ = run(capsys, "kn", "--lambda", "6", "--n", "1", "--theta", "1e-3,1e-5",
                       "--limit-coeffs")
    assert code == 0
    want = [f"{tilted.k_ratio(pdov.SelectionSpec(6.0, theta), 1, use_limit_coeffs=True):.17g}"
            for theta in (1e-3, 1e-5)]
    assert [r["K"] for r in parse_csv(out)] == want


def test_phase_sweep_jumps(capsys):
    code, out, _ = run(
        capsys, "phase", "--lambda-min", "0.5", "--lambda-max", "13", "--step", "0.5"
    )
    assert code == 0
    rows = parse_csv(out)
    by_lam = {float(r["lambda"]): int(r["u"]) for r in rows}
    assert by_lam[2.0] == 1 and by_lam[2.5] == 2
    assert by_lam[6.0] == 2 and by_lam[6.5] == 3
    assert by_lam[12.0] == 3 and by_lam[12.5] == 4


def test_tails_command(capsys):
    code, out, _ = run(capsys, "tails", "--lambda", "2.5", "--theta", "1e-4")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["computedTail"]) <= float(row["analyticBound"])


def test_rate_uniform(capsys):
    code, out, _ = run(capsys, "rate", "--lambda", "6", "--uniform", "2")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["S"]) == 0.0
    assert float(row["infTerm"]) == 4.0


def test_rate_explicit_config(capsys):
    code, out, _ = run(capsys, "rate", "--lambda", "6", "--config", "0.3,0.3,0.2")
    assert code == 0
    assert math.isinf(float(parse_csv(out)[0]["S"]))


def test_sample_reproducible(capsys):
    args = ("sample", "--lambda", "6", "--theta", "0.5", "--samples", "5000", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert float(parse_csv(out1)[0]["ess"]) > 50


def test_sample_histogram(capsys):
    code, out, _ = run(
        capsys, "sample", "--lambda", "6", "--theta", "0.5", "--samples", "20000",
        "--hist-bins", "10",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 10
    assert sum(float(r["mass"]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_exit_usage(capsys):
    code, _, _ = run(capsys, "moments", "--theta", "0.5")  # missing --kmax
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1
    # --strict belongs to sample, --seed to the commands that draw: moments, sample, verify
    code, out, err = run(capsys, "kn", "--lambda", "6", "--n", "1", "--theta", "1e-3", "--strict")
    assert code == 1 and out == "" and "unrecognized arguments: --strict" in err
    code, _, err = run(capsys, "coeffs", "--kmax", "5", "--seed", "1")
    assert code == 1 and "unrecognized arguments: --seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--lambda", "2", "--theta", "0.1", "--samples", "1000", "--ball", "1"),
        ("sample", "--lambda", "2", "--theta", "0.1", "--samples", "1000", "--ball", "1,x"),
        ("kn", "--lambda", "6", "--n", "1", "--theta", "abc"),
        ("kn", "--lambda", "6", "--n", "1", "--theta", ","),
        ("mgf", "--lambda", "6", "--theta", "0.1", "--t", ","),
        ("rate", "--lambda", "6", "--config", ""),
    ],
    ids=["ball-one-field", "ball-text", "theta-text", "theta-empty", "t-empty", "config-empty"],
)
def test_malformed_values_exit_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "error: argument" in err and "Traceback" not in err


# each subcommand's minimal valid arguments, and the numeric options set to a
# bad value against them; --ball takes its K and its DELTA in turn
BAD_VALUE_BASES = [
    (("coeffs", "--kmax", "2"), ("--theta", "--kmax")),
    (("moments", "--theta", "0.5", "--kmax", "1"), ("--theta", "--kmax", "--mc-check")),
    (("moments", "--theta", "0.5", "--kmax", "1", "--mc-check", "1000"), ("--seed",)),
    (("kn", "--lambda", "6", "--n", "1", "--theta", "0.1"), ("--lambda", "--n", "--theta")),
    (("mgf", "--lambda", "6", "--theta", "0.1", "--t", "1"), ("--lambda", "--theta", "--t")),
    (("phase", "--lambda-min", "1", "--lambda-max", "2", "--step", "0.5"),
     ("--lambda-min", "--lambda-max", "--step")),
    (("tails", "--lambda", "6", "--theta", "0.1"), ("--lambda", "--theta")),
    (("rate", "--lambda", "6", "--uniform", "2"), ("--lambda", "--uniform")),
    (("rate", "--lambda", "6"), ("--config",)),
    (("sample", "--lambda", "6", "--theta", "0.5", "--samples", "1000"),
     ("--lambda", "--theta", "--samples", "--seed", "--ball K", "--ball DELTA")),
    (("sample", "--lambda", "6", "--theta", "0.5", "--samples", "10000"), ("--hist-bins",)),
    (("verify", "--suite", "inclusion"), ("--seed",)),
]
BAD_VALUES = {"-1": "-1", "nan": "nan", "inf": "inf", "2^130": str(2**130)}


def bad_value_cases():
    for base, options in BAD_VALUE_BASES:
        for option in options:
            for name, bad in BAD_VALUES.items():
                flag, _, field = option.partition(" ")
                value = {"K": f"{bad},0.1", "DELTA": f"1,{bad}"}.get(field, bad)
                argv = list(base)
                if flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
                yield pytest.param(argv, id=f"{base[0]} {option}={name}")


@pytest.mark.parametrize("argv", bad_value_cases())
def test_bad_values_exit_with_a_code_not_a_traceback(capsys, argv):
    # -1, nan, inf or 2^130 in any numeric option: an answer, a usage error
    # or a domain error, never an exception out of main
    assert run(capsys, *argv)[0] in (0, 1, 2)


def test_exit_domain(capsys):
    for argv in (
        ("moments", "--theta", "1.5", "--kmax", "2"),
        ("mgf", "--lambda", "6", "--theta", "0.1", "--t", "nan"),
        ("rate", "--lambda", "6", "--config", "nan,0.5"),
        ("kn", "--lambda", "6", "--n", "1", "--theta", "1"),  # K_n is 0/0 at x = 0
        ("kn", "--lambda", "inf", "--n", "1", "--theta", "0.1"),
        ("mgf", "--lambda", "inf", "--theta", "0.1", "--t", "1"),
        # ~1e200 moments: their cost, ~5e399 weight evaluations, passes a float
        ("mgf", "--lambda", "1e200", "--theta", "0.5", "--t", "1"),
        ("tails", "--lambda", "inf", "--theta", "0.1"),
        ("rate", "--lambda", "inf", "--uniform", "2"),
        # every importance weight theta^(lam H2) underflows to 0
        ("sample", "--lambda", "6", "--theta", "1e-300", "--samples", "1000"),
        # a count of 0 is refused, not taken for the flag left out
        ("sample", "--lambda", "6", "--theta", "0.5", "--samples", "10000", "--hist-bins", "0"),
        ("moments", "--theta", "0.5", "--kmax", "1", "--mc-check", "0"),
        # an empty or non-finite lambda range, not a header alone
        ("phase", "--lambda-min", "1", "--lambda-max", "-1", "--step", "0.5"),
        ("phase", "--lambda-min", "inf", "--lambda-max", "2", "--step", "0.5"),
        ("phase", "--lambda-min", str(2.0**130), "--lambda-max", "2", "--step", "0.5"),
        ("phase", "--lambda-min=-inf", "--lambda-max", "2", "--step", "0.5"),
        ("phase", "--lambda-min", "1", "--lambda-max", "inf", "--step", "0.5"),
        ("phase", "--lambda-min", "nan", "--lambda-max", "2", "--step", "0.5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "domain error" in err


def test_exit_precision(capsys):
    # an mgf past the largest float, or past MAX_MOMENTS, is a domain error
    for t, why in (("1000", "largest float"), ("1e300", "weight evaluations")):
        start = time.perf_counter()
        code, out, err = run(capsys, "mgf", "--lambda", "6", "--theta", "0.1", "--t", t)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == "" and why in err


def test_precision_error_exits_3(capsys, monkeypatch):
    # no input is known to reach a PrecisionError through the CLI, so inject one
    def uncertified(spec, t):
        raise PrecisionError("series tail not certified")

    monkeypatch.setattr(tilted, "mgf", uncertified)
    code, out, err = run(capsys, "mgf", "--lambda", "6", "--theta", "0.1", "--t", "1")
    assert code == 3
    assert out == "" and err.startswith("precision error:")


def test_mgf_past_t_equal_x_exits_0(capsys):
    # x = 2.5 log(1/0.18) = 4.29 < t: the alternating S(x - t) is not summed
    code, out, _ = run(capsys, "mgf", "--lambda", "2.5", "--theta", "0.18", "--t", "20,50")
    assert code == 0
    assert [float(row["t"]) for row in parse_csv(out)] == [20.0, 50.0]


def test_strict_degenerate_exit(capsys):
    # at lambda = 80, theta = 0.05 one weight dwarfs the rest: ESS 1.0
    code, out, _ = run(
        capsys, "sample", "--lambda", "80", "--theta", "0.05", "--samples", "1000",
        "--seed", "1", "--strict",
    )
    row = parse_csv(out)[0]
    assert code == 4
    assert float(row["ess"]) < 50 and row["warning"].startswith("importance weights degenerate")
    code, out, _ = run(
        capsys, "sample", "--lambda", "6", "--theta", "0.5", "--samples", "5000",
        "--seed", "3", "--strict",
    )
    assert code == 0 and "warning" not in parse_csv(out)[0]


def test_sample_takes_a_histogram_or_a_ball_not_both(capsys):
    code, out, err = run(
        capsys, "sample", "--lambda", "2", "--theta", "0.1", "--samples", "10000",
        "--hist-bins", "2", "--ball", "1,0.2",
    )
    assert code == 1 and out == ""
    assert "not allowed with argument --hist-bins" in err


def test_out_writes_manifest(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "moments", "--theta", "0.5", "--kmax", "2", "--out", str(out_file),
        "--seed", "7",
    )
    assert code == 0
    manifest = json.loads((out_file.with_suffix(".csv.manifest.json")).read_text())
    assert manifest["command"] == "moments"
    assert manifest["seed"] == 7
    import hashlib

    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert manifest["outputs"][str(out_file)] == digest


def test_manifest_hashes_output_larger_than_one_chunk(tmp_path, capsys):
    import hashlib

    out_file = tmp_path / "a.csv"
    code, _, _ = run(capsys, "coeffs", "--kmax", "100", "--limit", "--out", str(out_file))
    assert code == 0
    data = out_file.read_bytes()
    assert len(data) > 2 * cli.HASH_CHUNK
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["outputs"][str(out_file)] == hashlib.sha256(data).hexdigest()
    assert manifest["seed"] is None  # coeffs draws nothing, so it takes no seed


def test_coeffs_json_out_is_the_reference_text_and_hashed(tmp_path, capsys):
    import hashlib

    out_file = tmp_path / "limit.json"
    code, _, _ = run(
        capsys, "coeffs", "--limit", "--kmax", "200", "--format", "json", "--out", str(out_file)
    )
    assert code == 0
    table = coefs.build_limit_table(200)
    data = out_file.read_bytes()
    assert data.decode() == json.dumps(coefs.table_to_json(table), indent=2) + "\n"
    manifest = json.loads((tmp_path / "limit.json.manifest.json").read_text())
    assert manifest["outputs"][str(out_file)] == hashlib.sha256(data).hexdigest()


def test_moments_takes_the_recursion_column_from_one_run(capsys, monkeypatch):
    calls = []
    log_moments = moments.log_moments

    def counting(theta, k):
        calls.append((theta, k))
        return log_moments(theta, k)

    monkeypatch.setattr(moments, "log_moments", counting)
    code, out, _ = run(capsys, "moments", "--theta", "0.5", "--kmax", "200")
    assert code == 0
    assert calls == [(0.5, 200)]
    rows = parse_csv(out)
    assert [int(r["k"]) for r in rows] == list(range(1, 201))
    for k, r in enumerate(rows, 1):
        assert r["m_recursion"] == f"{moments.moment_via_recursion(0.5, k):.17g}"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "phase")
    assert code == 0
    assert "ALL PASS" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "phase", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert all(row["passed"] is True for row in rows)


@pytest.mark.parametrize(
    "lo, hi, step",
    [("0.5", "13", "0"), ("0.5", "13", "-0.5"), ("0.5", "13", "1e-9"), ("1", "2", "1e-13"),
     ("1", "1.00000001", "1e-13")],
)
def test_phase_refuses_steps_that_never_end(capsys, lo, hi, step):
    # step <= 0 or one below the 1e-12 grid never advances lambda; 1e-9
    # over [0.5, 13] asks for ~1.25e10 rows, 1e-13 over [1, 2] for 1e13;
    # 1e-13 over [1, 1 + 1e-8] asks for 1e5 rows, but the second is stuck at 1
    code, out, err = run(
        capsys, "phase", "--lambda-min", lo, "--lambda-max", hi, "--step", step
    )
    assert code == 2
    assert "domain error" in err and out == ""


@pytest.mark.parametrize(
    "lo, hi, step", [("1", "1", "1e-13"), ("6", "6", "1e-20"), ("1e20", "1e20", "1")]
)
def test_phase_sweep_of_one_row(capsys, lo, hi, step):
    # lo + step lies past hi, so no second row is asked for, however small
    # the step is against the 1e-12 grid or lambda's resolution
    code, out, _ = run(capsys, "phase", "--lambda-min", lo, "--lambda-max", hi, "--step", step)
    assert code == 0
    assert [float(row["lambda"]) for row in parse_csv(out)] == [float(lo)]


@pytest.mark.parametrize(
    "argv, estimate",
    [
        (("coeffs", "--kmax", "100000"), "kmax^2 cols = 1e+15"),
        (("mgf", "--lambda", "1e6", "--theta", "0.5", "--t", "1"), "weight evaluations"),
        (("sample", "--lambda", "6", "--theta", "0.5", "--samples", "1000000000"), "8 GB"),
        # fits any memory bound, but the full triangle would run for hours
        (("coeffs", "--kmax", "8000"), "kmax^2 cols = 5.12e+11"),
        # refused before any draw: one edge and one output row per bin
        (("sample", "--lambda", "6", "--theta", "0.5", "--samples", "100000000",
          "--hist-bins", "1000001"), "more than 1000000"),
        # refused before the configuration's K entries are built
        (("rate", "--lambda", "6", "--uniform", "1000000000"), "more than 1000000"),
        # refused before an array over the floor(lam) columns is built
        (("kn", "--lambda", "1e20", "--n", "1", "--theta", "0.5"), "cols^3 > 1e+10"),
        (("tails", "--lambda", "1e12", "--theta", "0.5"), "cols^3 > 1e+10"),
        # x = lam log(1/theta) = inf
        (("mgf", "--lambda", "1e306", "--theta", "1e-300", "--t", "1"), "overflows"),
    ],
)
def test_resource_guards_refuse_up_front(capsys, argv, estimate):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert estimate in err and out == ""


@pytest.mark.parametrize(
    "args",
    [
        ("-m", "pdov.cli", "rate", "--lambda", "1e300", "--uniform", "2"),
        ("-m", "pdov.cli", "rate", "--lambda", "1e15", "--config", "0.6,0.4"),
        ("-m", "pdov.cli", "phase", "--lambda-min", "1e40", "--lambda-max", "1.00000000001e40",
         "--step", "1e29"),
        ("-c", "import sys; from pdov import tilted; "
               "print(tilted.limit_mgf(1e300, 1.0), tilted.classify_phase(sys.float_info.max).u)"),
    ],
)
def test_large_lambda_answers_at_once(args):
    # in a subprocess with a timeout, so a search that runs with lambda fails
    # this test instead of hanging the run
    src = str(Path(pdov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_runtime_loads_no_scipy():
    # numpy is the one runtime dependency; scipy is for the tests alone
    src = str(Path(pdov.__file__).resolve().parents[1])
    code = ("import sys, pdov, pdov.cli, pdov.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def readme_cli_examples() -> list[list[str]]:
    """The arguments of each `pdov ...` line in the README's CLI code block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("pdov ")]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_exit_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
