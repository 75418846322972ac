"""One benchmark rep: a fresh interpreter that imports pdov, runs one
workload's op list once, checks every output and prints a JSON result as
its last line.

    python3 perfbench/child.py SPAWN_TIME [--workload W --seed N --workdir D
                                           [--trace-out FILE]]

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process; on Linux that clock is system-wide, so the difference measures
interpreter start plus pdov import; a run of the host-speed probe right
after it gives that time at reference speed too.  With only SPAWN_TIME the
child stops there.  Each op is timed on its own, between two runs of the
host-speed probe (perfbench/speed.py), and reported both as measured and
scaled to the probe's reference speed.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    import pdov  # the package and every module the workloads use
    import pdov.cli  # noqa: F401
    import pdov.verify  # noqa: F401

    setup_s = time.perf_counter() - float(argv[0])
    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(pdov.__file__).startswith(src):
        print(f"pdov imported from {pdov.__file__}, not from {src}", file=sys.stderr)
        return 2

    import speed  # after the import is timed: it loads nothing pdov has not

    probe = speed.probe_s()
    setup = {"setup_s": setup_s, "setup_ref_s": speed.at_reference_speed(setup_s, probe, probe)}
    if len(argv) == 1:
        print(json.dumps(setup))
        return 0

    import argparse
    import platform
    import resource
    import shutil

    import numpy
    import scipy

    import layers
    import ops
    import workloads
    from spans import Tracer

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[1:])

    op_list = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        layers.install(tracer)
    os.makedirs(args.workdir)
    try:
        outs, errors, op_s, probes = {}, {}, {}, [speed.probe_s()]
        cpu_start = time.process_time()
        for op in op_list:
            op_start = time.perf_counter()
            try:
                outs[op["id"]] = ops.RUN[op["kind"]](op, args.workdir)
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                errors[op["id"]] = f"error:{type(exc).__name__}: {exc}"
            op_s[op["id"]] = time.perf_counter() - op_start
            probes.append(speed.probe_s())
        cpu_s = time.process_time() - cpu_start - sum(probes[1:])
        if tracer is not None:
            tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = ops.failures(op_list, outs, errors, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result = {
        **setup,
        "wall_s": sum(op_s.values()),
        "op_s": op_s,
        "op_ref_s": {op: speed.at_reference_speed(t, before, after)
                     for (op, t), before, after in zip(op_s.items(), probes, probes[1:])},
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "attempted": len(op_list),
        "failures": failures,
        "digest": ops.digest(op_list, outs, errors),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
        result["layers"] = layers.summarize(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
