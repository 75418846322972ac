"""pdov benchmark: run one workload in fresh interpreters and print its metrics.

    python3 perfbench/run.py --workload {series,table,sample,rates} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a pdov checkout; pdov is imported from ./src.
Every rep is a new interpreter (perfbench/child.py), because pdov keeps
tables, h2 draws and moment recursions cached per process, so a repeat in
the same process would time cache hits.  Children run one at a time with
BLAS/OpenMP pinned to one thread.

--trace 0 repeats the workload while another rep is predicted to fit in S
seconds (at least MIN_REPS times) and reports the end-to-end metrics, with
times at the reference host speed of perfbench/speed.py:

- wall_ref_s: time of the op list.  Each op's time is scaled by the
  host-speed probe timed right before and after it, and each op's median
  over the reps is summed.  Every rep runs the ops in the same order from a
  fresh interpreter, so an op meets the same cache state in each rep.
- setup_s: interpreter start to pdov imported, scaled by the probe run
  right after the import; the median over setup-only interpreters and the
  reps.
- peak_rss_mb: median peak resident memory of a rep.

The times as measured, unscaled, are in the run record.  --trace 1
alternates plain reps with reps that have outside-in timing wrappers
installed (perfbench/layers.py), as many pairs as fit in S seconds, and
reports the per-layer metrics: each is the median over the traced reps,
layer times as measured.  draws_per_s divides the draws by the plain reps'
op-list time and trace.overhead_s is the traced minus the plain reps'
op-list time, both at reference speed.

The last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it is the run record (git sha, nproc,
versions, output digest, failures).  Metric names and units come from
BENCHMARK.json.  Spans, the run log and the output digest of every
(workload, seed) land in .perfbench/.  A run whose output digest differs
between its reps, or from an earlier run of the same op list in this
checkout, is reported as not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
STATE_DIR = ".perfbench"
DEADLINE_S = 170.0  # a whole run stops with an error rather than exceed 180 s
SETUP_SPAWNS = 12  # fewest setup-only interpreters per plain run, besides the reps
MIN_REPS = 2  # reps (pairs with --trace 1) per run, however long a rep takes


class Children:
    """Starts child interpreters one at a time against a shared deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(self, *args: str) -> dict:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0.0:
            raise TimeoutError("benchmark deadline passed")
        cmd = [sys.executable, str(HERE / "child.py"), repr(time.perf_counter()), *args]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited with {proc.returncode}: {' '.join(args)}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def digest_is_stable(state: Path, key: str, digests: set[str]) -> bool:
    """All reps agree and match what this checkout recorded for the key."""
    path = state / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if len(digests) != 1:
        return False
    (digest,) = digests
    if key not in known:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return known[key] == digest


def op_list_ref_s(reps: list[dict]) -> float:
    """Sum over the op list of each op's median time at reference speed."""
    return sum(statistics.median(r["op_ref_s"][op] for r in reps) for op in reps[0]["op_ref_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "pdov" / "__init__.py").is_file():
        print("perfbench: src/pdov not found; run from the root of a pdov checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    op_list = workloads.generate(args.workload, args.seed)  # refuses oversized ops first
    state = root / STATE_DIR
    state.mkdir(exist_ok=True)
    children = Children(root, deadline)

    def rep(i: int, *extra: str) -> dict:
        workdir = state / f"work-{os.getpid()}-{i}"
        return children.run("--workload", args.workload, "--seed", str(args.seed),
                            "--workdir", str(workdir), *extra)

    def repeat(step) -> None:
        """Calls step while another call is predicted to fit in the run's
        seconds, and at least MIN_REPS times."""
        start, calls = time.perf_counter(), 0
        while True:
            step()
            calls += 1
            elapsed = time.perf_counter() - start
            if calls >= MIN_REPS and elapsed * (calls + 1) / calls > args.seconds:
                return

    children.run()  # warm-up: byte-compiles pdov and fills the file cache; not measured
    setup, reps, traced = [], [], []
    if args.trace:
        # plain and traced reps alternate, so both meet the same spells of the host
        def pair():
            reps.append(rep(2 * len(traced)))
            trace_out = state / f"trace-{args.workload}-{args.seed}-{len(traced)}.jsonl"
            traced.append(rep(2 * len(traced) + 1, "--trace-out", str(trace_out)))

        repeat(pair)
    else:
        # setup samples are spread over the run, like the reps
        def plain():
            setup.append(children.run())
            reps.append(rep(len(reps)))

        repeat(plain)
        while len(setup) < SETUP_SPAWNS:
            setup.append(children.run())

    setup += reps
    every_rep = reps + traced
    attempted = sum(r["attempted"] for r in every_rep)
    failed = sum(len(r["failures"]) for r in every_rep)
    digests = {r["digest"] for r in every_rep}
    # keyed by the op list too, so a changed workload does not meet old digests
    ops_sha = hashlib.sha256(json.dumps(op_list, sort_keys=True).encode()).hexdigest()[:16]
    stable = digest_is_stable(state, f"{args.workload}:{args.seed}:{ops_sha}", digests)
    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["ops_failed_frac"] = failed / attempted
        values["draws_per_s"] = values["mc.draws"] / op_list_ref_s(reps)
        values["trace.overhead_s"] = op_list_ref_s(traced) - op_list_ref_s(reps)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_ref_s"] for r in setup),
            "wall_ref_s": op_list_ref_s(reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reps": len(reps), "traced_reps": len(traced),
        "wall_s": [r["wall_s"] for r in reps], "op_s": [r["op_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps], "setup_s": [r["setup_s"] for r in setup],
        "setup_ref_s": [r["setup_ref_s"] for r in setup],
        "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), **reps[0]["versions"],
        "digests": sorted(digests), "digest_stable": stable,
        "failures": [r["failures"] for r in every_rep if r["failures"]],
    }
    result = {"correct": failed == 0 and stable, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(state / "runs.jsonl", "a") as fp:
        fp.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
