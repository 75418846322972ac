"""The benchmark's own output checks (perfbench/ops.py), run on one seed
of every workload: the coefficient tables, the series, the Monte Carlo
estimates and the rate functions.  Every op must complete and pass its
check, e.g. K_1 = (K~_1 + F)/(1 + G) to 1e-12, the computed tail within
its bound, the MGF within Jensen's bounds, the H2 estimate within 4 se of
m_1 where theta = 1, histogram masses summing to 1, ball and generic
probabilities in [0, 1], S exactly 0 at critical lambda on the two zero
levels alone, the I1/I2 grids nonnegative and 0 at their means, every
lambda in its phase, and every inclusion check passing."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["series", "table", "sample", "rates"])
def test_benchmark_ops_pass_their_checks(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    import workloads

    op_list = workloads.generate(workload, 1)
    outs, errors = {}, {}
    for op in op_list:
        try:
            outs[op["id"]] = ops.RUN[op["kind"]](op, str(tmp_path))
        except Exception as exc:  # reported below, with the op that raised
            errors[op["id"]] = f"{type(exc).__name__}: {exc}"
    assert ops.failures(op_list, outs, errors, str(tmp_path)) == {}
