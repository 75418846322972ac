"""Which pdov functions the traced run wraps, and the per-layer metrics
derived from the spans they record.

Functions are wrapped at every module attribute their callers look up,
including names bound by `from ... import`: tilted holds its own
references to cached_table and log_moments_from_table, and
coefficients._cached_table resolves build_coeff_table at call time.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np

from pdov import cli, coefficients, ldp, mc, moments, tilted, verify

import ops
from spans import Tracer, outermost, self_times

TABLE = {"coefficients.cached_table", "coefficients.build_coeff_table"}
TILTED = {"tilted.k_ratio", "tilted.proof_diagnostics", "tilted.tail_bound", "tilted.mgf",
          "tilted.tilted_mean_heterozygosity", "tilted.exp_series"}
FROM_TABLE = {"moments.log_moments_from_table", "moments.moments_from_table"}
MC = {"mc.h2_samples", "mc.tilted_estimate", "mc.ball_probability",
      "mc.homozygosity_histogram"}
VERIFY = {"verify.suite_bounds", "verify.suite_asym_a", "verify.suite_asym_c",
          "verify.suite_inclusion"}


def install(tracer: Tracer) -> None:
    tables: list = []  # distinct tables handed out, kept alive so identity holds
    h2_arrays: list = []

    def table_hook(arguments, table):
        if not any(table is t for t in tables):
            tables.append(table)
            return {"new_table": True, "cells": int(np.isfinite(table.log_entries).sum()),
                    "table_bytes": table.log_entries.nbytes}
        return {}

    def h2_hook(arguments, h2):
        if any(h2 is a for a in h2_arrays):
            return {"h2_cache_hit": True}
        h2_arrays.append(h2)
        return {"draws": arguments["n"]}

    def estimate_hook(arguments, est):
        fields = {"ess_frac": est.effective_sample_size / est.n_samples}
        if not isinstance(arguments.get("statistic"), mc.H2Statistic):
            fields["draws"] = arguments["n"]  # the H2 path counts its draws in h2_samples
        return fields

    def cli_hook(arguments, code):
        argv = list(arguments.get("argv") or [])
        if "--out" not in argv:
            return {}
        path = argv[argv.index("--out") + 1]
        written = [p for p in (path, path + ".manifest.json") if os.path.exists(p)]
        return {"bytes_out": sum(os.path.getsize(p) for p in written)}

    for owner in (coefficients, tilted):
        tracer.wrap(owner, "cached_table", hook=table_hook)
    tracer.wrap(coefficients, "build_coeff_table", hook=table_hook)
    for attr in ("k_ratio", "proof_diagnostics", "tail_bound", "mgf",
                 "tilted_mean_heterozygosity", "exp_series"):
        tracer.wrap(tilted, attr)
    for owner in (moments, tilted):
        tracer.wrap(owner, "log_moments_from_table")
    tracer.wrap(moments, "moments_from_table")
    tracer.wrap(moments, "moment_via_recursion")
    tracer.wrap(mc, "h2_samples", hook=h2_hook)
    tracer.wrap(mc, "tilted_estimate", hook=estimate_hook)
    tracer.wrap(mc, "ball_probability", hook=estimate_hook)
    tracer.wrap(mc, "homozygosity_histogram")
    tracer.wrap(cli, "main", hook=cli_hook)
    for name in VERIFY:
        tracer.wrap(verify, name.split(".", 1)[1])
    tracer.wrap_hot(ldp, "s_rate", "ldp.s_rate", tag=lambda s: isinstance(s, Fraction))
    tracer.wrap_hot(ldp, "metric_d", "ldp.metric_d")
    tracer.wrap_hot(ldp, "phi2", "ldp.phi2")
    tracer.wrap_hot(ops, "largest_share", "mc.statistic")


def summarize(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    own = self_times(spans)

    def named(names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def duration(indices):
        return sum(spans[i]["end"] - spans[i]["start"] for i in indices)

    def field_sum(indices, key):
        return sum(spans[i].get(key, 0) for i in indices)

    reached = set()  # cached_table spans that reached a build
    for i in named({"coefficients.build_coeff_table"}):
        parent = spans[i]["parent"]
        while parent is not None:
            reached.add(parent)
            parent = spans[parent]["parent"]
    lookups = named({"coefficients.cached_table"})
    tables = named(TABLE)
    precision = {spans[i]["error_id"] for i in named(TILTED)
                 if spans[i].get("error") == "PrecisionError"}
    estimates = [spans[i]["ess_frac"] for i in named(MC) if "ess_frac" in spans[i]]
    hot = {name: tracer.hot.get(name, [0, 0.0, 0]) for name in
           ("ldp.s_rate", "ldp.metric_d", "ldp.phi2", "mc.statistic")}
    s_rate_calls = hot["ldp.s_rate"][0]
    return {
        "coefficients.table_s": duration(outermost(spans, TABLE)),
        "coefficients.builds": len(named({"coefficients.build_coeff_table"})),
        "coefficients.cache_hits": sum(1 for i in lookups if i not in reached),
        "coefficients.cells": field_sum(tables, "cells"),
        "coefficients.table_mb": field_sum(tables, "table_bytes") / 1e6,
        "tilted.self_s": sum(own[i] for i in named(TILTED)),
        "tilted.exp_series_calls": len(named({"tilted.exp_series"})),
        "tilted.exp_series_s": duration(named({"tilted.exp_series"})),
        "tilted.precision_errors": len(precision),
        "moments.from_table_s": duration(outermost(spans, FROM_TABLE)),
        "moments.recursion_s": duration(outermost(spans, {"moments.moment_via_recursion"})),
        "mc.sample_s": sum(own[i] for i in named(MC)),
        "mc.draws": field_sum(named(MC), "draws"),
        "mc.h2_cache_hits": sum(1 for i in named(MC) if spans[i].get("h2_cache_hit")),
        "mc.statistic_s": hot["mc.statistic"][1],
        # 1.0 (every draw useful) when the workload makes no estimate
        "mc.ess_frac_min": min(estimates, default=1.0),
        "ldp.s_rate_calls": s_rate_calls,
        "ldp.s_rate_s": hot["ldp.s_rate"][1],
        "ldp.metric_d_s": hot["ldp.metric_d"][1],
        "ldp.exact_frac": hot["ldp.s_rate"][2] / s_rate_calls if s_rate_calls else 0.0,
        "ldp.phi2_calls": hot["ldp.phi2"][0],
        "cli.self_s": sum(own[i] for i in named({"cli.main"})),
        "cli.bytes_out": field_sum(named({"cli.main"}), "bytes_out"),
        "verify.self_s": sum(own[i] for i in named(VERIFY)),
    }
