"""Tests of the benchmark's own arithmetic: span self times, the tracer's
wrappers, op times at reference host speed and the seeded workload
generator.  Run with

    python3 -m pytest perfbench
"""

import itertools
from types import SimpleNamespace

import pytest

import speed
import workloads
from run import op_list_ref_s
from spans import Tracer, outermost, self_times, union_length


def span(start, end, parent=None, name="x", hot_s=0.0):
    return {"name": name, "start": start, "end": end, "parent": parent, "hot_s": hot_s}


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert union_length([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 2.0
    assert union_length([(-5.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert union_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_children_and_hot_calls():
    spans = [
        span(0.0, 10.0, hot_s=0.5),
        span(1.0, 3.0, parent=0),
        span(2.0, 4.0, parent=0),  # overlaps its sibling: covered once
        span(9.0, 12.0, parent=0),  # runs past the parent: clipped
        span(1.5, 2.0, parent=1),  # grandchild: only its own parent loses it
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.0 - 0.5, 1.5, 2.0, 3.0, 0.5]


def test_outermost_skips_spans_nested_in_the_same_group():
    spans = [
        span(0, 10, name="a"),
        span(1, 9, parent=0, name="b"),
        span(2, 8, parent=1, name="a"),
        span(11, 12, name="a"),
    ]
    assert outermost(spans, {"a"}) == [0, 3]
    assert outermost(spans, {"b"}) == [1]


def fake_module():
    """inner() is hot, middle() calls inner() twice, outer() calls middle()."""
    mod = SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.middle = lambda x: mod.inner(mod.inner(x))
    mod.outer = lambda x: mod.middle(x) * 2
    return mod


def test_tracer_records_parents_hot_calls_and_restores():
    mod = fake_module()
    originals = (mod.inner, mod.middle, mod.outer)
    ticks = itertools.count()
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    tracer.wrap(mod, "outer", name="outer", hook=lambda args, result: {"x": args["x"]})
    tracer.wrap(mod, "middle", name="middle")
    tracer.wrap_hot(mod, "inner", "inner", tag=lambda r: r > 3)
    assert mod.outer(2) == 8
    outer, middle = tracer.spans
    assert (outer["name"], outer["parent"], outer["x"]) == ("outer", None, 2)
    assert (middle["name"], middle["parent"]) == ("middle", 0)
    # clock ticks: outer 0, middle 1, inner 2-3, inner 4-5, middle end 6, outer end 7
    assert (outer["start"], middle["start"], middle["end"], outer["end"]) == (0, 1, 6, 7)
    assert tracer.hot["inner"] == [2, 2.0, 1]
    assert middle["hot_s"] == 2.0
    assert self_times(tracer.spans) == [2.0, 3.0]
    tracer.uninstall()
    assert (mod.inner, mod.middle, mod.outer) == originals


def test_nested_hot_calls_charge_the_span_once():
    mod = SimpleNamespace(leaf=lambda: 1)
    mod.hot = lambda: mod.leaf() + 1
    mod.top = lambda: mod.hot()
    ticks = itertools.count()
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    tracer.wrap(mod, "top", name="top")
    tracer.wrap_hot(mod, "hot", "hot")
    tracer.wrap_hot(mod, "leaf", "leaf")
    mod.top()
    # top 0-5; hot 1-4 holds leaf 2-3: only hot's 3 s are charged to top
    assert tracer.spans[0]["hot_s"] == 3.0
    assert self_times(tracer.spans) == [2.0]


def test_failed_call_keeps_its_span_and_error():
    mod = SimpleNamespace()

    def boom():
        raise ArithmeticError("no")

    mod.boom = boom
    mod.outer = lambda: mod.boom()
    tracer = Tracer("t")
    tracer.wrap(mod, "outer", name="outer")
    tracer.wrap(mod, "boom", name="boom")
    with pytest.raises(ArithmeticError):
        mod.outer()
    assert [s["error"] for s in tracer.spans] == ["ArithmeticError"] * 2
    assert {s["error_id"] for s in tracer.spans} == {0}  # one exception, seen twice
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_wall_time_sums_each_ops_median_at_reference_speed():
    reps = [{"op_ref_s": {"a": 1.0, "b": 5.0}}, {"op_ref_s": {"a": 2.0, "b": 3.0}},
            {"op_ref_s": {"a": 4.0, "b": 4.0}}]
    assert op_list_ref_s(reps) == 2.0 + 4.0
    assert op_list_ref_s(reps[:2]) == 1.5 + 4.0


def test_reference_speed_scales_by_the_probe_around_the_op():
    ref = speed.REFERENCE_S
    assert speed.at_reference_speed(2.0, ref, ref) == 2.0
    assert speed.at_reference_speed(2.0, 2 * ref, 2 * ref) == 1.0
    assert speed.at_reference_speed(3.0, ref, 2 * ref) == 2.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_sizes_do_not_depend_on_seed(name):
    a, b, c = (workloads.generate(name, seed) for seed in (7, 7, 8))
    assert a == b
    assert a != c
    sizes = ("id", "kind", "draws", "n", "count", "points", "bins", "k")
    assert [{k: op.get(k) for k in sizes} for op in a] == [
        {k: op.get(k) for k in sizes} for op in c]
    # a series table size follows theta, which the jitter moves by under 5%
    assert all(abs(x.get("kmax", 0) - y.get("kmax", 0)) <= 3 for x, y in zip(a, c))


def test_jitter_stays_in_the_decade_and_keeps_theta_one():
    for seed in range(50):
        for theta in (1e-5, 1e-3, 0.1, 0.5):
            moved = workloads.jitter(theta, seed, "t")
            assert theta <= moved < theta * (1.0 + workloads.JITTER)
        assert workloads.jitter(1.0, seed, "t") == 1.0


def test_size_guard_refuses_large_ops():
    workloads.check_sizes([{"id": "ok", "kmax": 704, "draws": 10**6}])
    with pytest.raises(ValueError, match="kmax"):
        workloads.check_sizes([{"id": "big", "kmax": 705}])
    with pytest.raises(ValueError, match="draws"):
        workloads.check_sizes([{"id": "many", "draws": 10**6 + 1}])
    for name in workloads.WORKLOADS:
        for seed in range(20):
            workloads.generate(name, seed)  # no seed produces an oversized op
