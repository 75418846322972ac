"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps pdov
functions by module attribute (perfbench/layers.py).  This fails when a
name it wraps disappears, or when a wrapper outlives its uninstall."""

from pathlib import Path

from pdov import cli, coefficients, ldp, mc, moments, tilted, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layers_install_then_uninstall_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import ops
    import spans

    owners = (cli, coefficients, ldp, mc, moments, tilted, verify, ops)

    def attributes():
        return {(o.__name__, name): v for o in owners for name, v in vars(o).items()}

    before = attributes()
    tracer = spans.Tracer("t")
    try:
        layers.install(tracer)
        wrapped = {key for key, v in attributes().items() if v is not before.get(key)}
    finally:
        tracer.uninstall()
    # tilted holds its own references, bound by `from .coefficients import ...`
    assert {("pdov.tilted", "cached_table"), ("pdov.coefficients", "cached_table"),
            ("pdov.tilted", "log_moments_from_table"),
            ("pdov.coefficients", "build_coeff_table")} <= wrapped
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key, v in after.items() if v is not before[key]] == []
