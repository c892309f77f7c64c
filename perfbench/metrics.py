"""Metric definitions and their computation from passes and spans.

End-to-end metrics are the same names on every workload; the name a user
of that workload would use is given beside each (grid workloads count
replicates and cells, fits_p2_exact counts analysis bundles).  Per-module
metrics come from one traced pass.  A module a workload does not run
reports 0, which the ``why`` of the workload predicts.

Which end-to-end metric each per-module metric should move, and where:

* simlab.replicate_ms.*, simlab.gen_contaminated.s, simlab.bias_measures.s,
  estimators.<ID>.ms_p50, estimators.mve/s_bisquare.calls_per_replicate,
  numerics.m_scale.*: throughput_per_s on grid_p2_n20 and grid_p5.
* simlab.parallel_efficiency: throughput_per_s and task_p50_s of a
  ``--threads 2`` simulate, which only the traced run of grid_p2_n20 times
  (see workloads.py); 1 on the other grid workloads, 0 on fits_p2_exact.
* cli.simulate.self_s (config parsing and CSV writing): throughput_per_s on
  every grid workload; expected to stay small.
* estimators.<ID>.flagged: ok_share on the grid workloads.
* deepest.tukey_median/deepest_scatter.ms_p50, numerics.unit_directions.*:
  throughput_per_s on grid_p5; tukey_median also on fits_p2_exact.
* deepest.deepest_regression/deepest_locscale2.ms_p50, depth.*, maxbias.*:
  throughput_per_s on fits_p2_exact; depth.* should barely move
  grid_p2_n20.
"""

from __future__ import annotations

from tracing import median, percentile, summarize
from workloads import ESTIMATORS as ESTIMATOR_IDS
CURVES = ("tukey", "univ-median", "scatter-envelope", "scatter-excess",
          "scatter-implosion", "regression")
# Modules with a self-time metric; cli's is cli.simulate.self_s.
MODULES = ("simlab", "estimators", "deepest", "depth", "numerics", "maxbias")

# name, unit, better, bound.  On the grid workloads throughput_per_s is
# replicates_per_s and task_p50_s is cell_p50_s; on fits_p2_exact they are
# analyses_per_s and analysis_p50_s.  ok_share is 1 - failed_share, which
# unlike failed_share is never 0.  The time bounds are wide because
# same-seed runs of unchanged code on a shared 2-core host spread by about
# 20% (interquartile range over the median).
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("task_p50_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "ratio", "higher", 0.05),
]

_PER_LAYER_UNITS = (
    [("simlab.replicate_ms.p50", "ms"), ("simlab.replicate_ms.p90", "ms"),
     ("simlab.gen_contaminated.s", "s"), ("simlab.bias_measures.s", "s"),
     ("simlab.parallel_efficiency", "ratio"), ("cli.simulate.self_s", "s")]
    + [(f"estimators.{e}.ms_p50", "ms") for e in ESTIMATOR_IDS]
    + [(f"estimators.{e}.flagged", "count") for e in ESTIMATOR_IDS]
    + [("estimators.mve.calls_per_replicate", "count"),
       ("estimators.s_bisquare.calls_per_replicate", "count")]
    + [(f"deepest.{f}.ms_p50", "ms") for f in (
        "tukey_median", "deepest_scatter", "deepest_regression",
        "deepest_locscale2")]
    + [("depth.tukey_depth.calls", "count"), ("depth.tukey_depth.s", "s"),
       ("depth.regression_depth.calls", "count"),
       ("depth.regression_depth.s", "s"),
       ("depth.scatter_depth_pointmass.ms", "ms"),
       ("numerics.m_scale.calls_per_replicate", "count"),
       ("numerics.m_scale.s", "s"),
       ("numerics.unit_directions.calls", "count"),
       ("numerics.unit_directions.s", "s")]
    + [(f"maxbias.curve_table.{c}.ms", "ms") for c in CURVES]
    + [("maxbias.ls2_breakdown.ms", "ms")]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [("trace.overhead_share", "ratio")]
)
# name, unit, better: less time, fewer calls and fewer flags are better.
PER_LAYER = [(name, unit, "higher" if name == "simlab.parallel_efficiency"
              else "lower") for name, unit in _PER_LAYER_UNITS]


def end_to_end(passes, setup_samples, peak_rss_mb):
    """End-to-end metric values of an untraced run."""
    wall = sum(p["wall"] for p in passes)
    fits = sum(p["fits"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    tasks = [t for p in passes for t in p["task_s"]]
    return {
        "throughput_per_s": sum(p["units"] for p in passes) / wall,
        "task_p50_s": median(tasks),
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - failed / fits if fits else 0.0,
    }


def parallel_efficiency(workload, pool):
    """Serial seconds of pass 0 over (workers x wall time) of pass 0 on the
    workload's process pool, both timed in one cold interpreter; ``pool``
    is [pool pass, serial pass], or None where no pool pass ran."""
    if pool:
        return pool[1]["wall"] / (workload.pool_threads * pool[0]["wall"])
    return 1.0 if workload.kind == "grid" else 0.0


def per_layer(spans, traced, untraced):
    """Per-module metric values of one traced pass (0 where unused), except
    simlab.parallel_efficiency, which parallel_efficiency gives."""
    s = summarize(spans)
    replicates = len(s.get("simlab.replicate", {}).get("durations", []))

    def durations(name):
        return s.get(name, {}).get("durations", [])

    def total(name):
        return sum(durations(name))

    def calls(name):
        return len(durations(name))

    def per_replicate(name):
        return calls(name) / replicates if replicates else 0.0

    def ms_p50(name):
        return 1000.0 * median(durations(name))

    rep_ms = [1000.0 * d for d in durations("simlab.replicate")]
    out = {
        "simlab.replicate_ms.p50": median(rep_ms),
        "simlab.replicate_ms.p90": percentile(rep_ms, 90),
        "simlab.gen_contaminated.s": total("simlab.gen_contaminated"),
        "simlab.bias_measures.s": total("simlab.bias_measures"),
        "cli.simulate.self_s": s.get("cli.simulate", {}).get("self_s", 0.0),
    }
    for e in ESTIMATOR_IDS:
        out[f"estimators.{e}.ms_p50"] = ms_p50(f"estimators.{e}")
        out[f"estimators.{e}.flagged"] = traced["flagged"].get(e, 0)
    for f in ("mve", "s_bisquare"):
        out[f"estimators.{f}.calls_per_replicate"] = per_replicate(
            f"estimators.{f}")
    for f in ("tukey_median", "deepest_scatter", "deepest_regression",
              "deepest_locscale2"):
        out[f"deepest.{f}.ms_p50"] = ms_p50(f"deepest.{f}")
    for f in ("tukey_depth", "regression_depth"):
        out[f"depth.{f}.calls"] = calls(f"depth.{f}")
        out[f"depth.{f}.s"] = total(f"depth.{f}")
    out["depth.scatter_depth_pointmass.ms"] = ms_p50(
        "depth.scatter_depth_pointmass")
    out["numerics.m_scale.calls_per_replicate"] = per_replicate(
        "numerics.m_scale")
    out["numerics.m_scale.s"] = total("numerics.m_scale")
    out["numerics.unit_directions.calls"] = calls("numerics.unit_directions")
    out["numerics.unit_directions.s"] = total("numerics.unit_directions")
    for c in CURVES:
        out[f"maxbias.curve_table.{c}.ms"] = ms_p50(f"maxbias.curve_table.{c}")
    out["maxbias.ls2_breakdown.ms"] = ms_p50("maxbias.ls2_breakdown")
    for m in MODULES:
        out[f"{m}.self_s"] = sum(v["self_s"] for k, v in s.items()
                                 if k.split(".")[0] == m)
    out["trace.overhead_share"] = traced["wall"] / untraced["wall"] - 1.0
    return out
