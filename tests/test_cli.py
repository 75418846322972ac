"""Command-line interface: formats, exit codes, reproducibility manifests."""

import csv
import io
import json
import math
import time

import pytest

from pdov import cli


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


def test_exit_domain(capsys):
    for argv in (
        ("moments", "--theta", "1.5", "--kmax", "2"),
        ("mgf", "--lambda", "6", "--theta", "0.1", "--t", "nan"),
        ("rate", "--lambda", "6", "--config", "nan,0.5"),
        ("kn", "--lambda", "6", "--n", "1", "--theta", "1"),  # K_n is 0/0 at x = 0
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "domain error" in err


def test_exit_precision(capsys):
    # a tiny theta at large lambda pushes x beyond what MAX_ABS_T-sized
    # tables support only via an absurd t; force it through mgf t too large
    code, _, err = run(capsys, "mgf", "--lambda", "6", "--theta", "0.1", "--t", "100")
    assert code == 2  # t cap is a domain check


def test_mgf_cancelling_sum_exits_precision(capsys):
    code, out, err = run(capsys, "mgf", "--lambda", "6", "--theta", "1e-2", "--t", "20")
    assert code == 3
    assert out == "" and "cancels" in err


def test_strict_degenerate_exit(capsys):
    code, out, _ = run(
        capsys, "sample", "--lambda", "80", "--theta", "0.05", "--samples", "1000",
        "--seed", "1", "--strict",
    )
    row = parse_csv(out)[0]
    if float(row["ess"]) < 50:
        assert code == 4
    else:
        assert code == 0


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
    [("0.5", "13", "0"), ("0.5", "13", "-0.5"), ("0.5", "13", "1e-9"), ("1", "1", "1e-13")],
)
def test_phase_refuses_steps_that_never_end(capsys, lo, hi, step):
    # step <= 0 or one below the 1e-12 grid never advances lambda; 1e-9
    # over [0.5, 13] asks for ~1.25e10 rows
    code, out, err = run(
        capsys, "phase", "--lambda-min", lo, "--lambda-max", hi, "--step", step
    )
    assert code == 2
    assert "domain error" in err and out == ""


@pytest.mark.parametrize(
    "argv, estimate",
    [
        (("coeffs", "--kmax", "100000"), "kmax^2 cols = 1e+15"),
        (("mgf", "--lambda", "1e6", "--theta", "0.5", "--t", "1"), "weight evaluations"),
        (("sample", "--lambda", "6", "--theta", "0.5", "--samples", "1000000000"), "8 GB"),
        # fits any memory bound, but the full triangle would run for hours
        (("coeffs", "--kmax", "8000"), "kmax^2 cols = 5.12e+11"),
    ],
)
def test_resource_guards_refuse_up_front(capsys, argv, estimate):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert estimate in err and out == ""
