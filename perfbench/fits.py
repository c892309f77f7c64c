"""The fits_p2_exact analysis bundle and its reference checks.

One bundle is a set of single-dataset analyses drawn from one seed: the
deepest location (exact p = 2 path), the deepest regression with an
intercept (exact regression depth), the joint location-scale fit, the
point-mass scatter depth off the eigenvectors (search path), all six
max-bias curves and the location-scale breakdown point.

The analyses are called through their module attributes, so a tracer that
rebinds them sees the calls.  The checks use references bound at import,
which the tracer does not touch, and run outside the timed region.
"""

from __future__ import annotations

import math
import time

import numpy as np

from depthlab import deepest, depth, maxbias
from depthlab.deepest import SearchConfig, deepest_locscale1
from depthlab.depth import ls_depth2 as ref_ls_depth2
from depthlab.depth import regression_depth as ref_regression_depth
from depthlab.depth import tukey_depth as ref_tukey_depth
from depthlab.numerics import RngStream, SpdMatrix

BREAKDOWN = {"tukey": 1 / 3, "univ-median": 1 / 2, "scatter-envelope": 1 / 3,
             "scatter-excess": 1 / 3, "scatter-implosion": 1 / 3,
             "regression": 1 / 3}
LS2_BREAKDOWN = 0.2124      # fixed point of the location-scale gain function


def make_inputs(seed, sizes):
    """Datasets and curve grid of one bundle, drawn from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(sizes["regression_n"])
    gamma = rng.standard_normal((2, 2))
    gamma = SpdMatrix.from_matrix(gamma @ gamma.T + 0.5 * np.eye(2))
    v1 = gamma.eigenvectors[:, 0]
    # A direction 30-60 degrees off the top eigenvector takes the search path.
    angle = math.atan2(v1[1], v1[0]) + rng.uniform(math.pi / 6, math.pi / 3)
    return {
        "tukey_x": rng.standard_normal((sizes["tukey_n"], 2)),
        "reg_x": np.column_stack([np.ones_like(z), z]),
        "reg_y": 1.0 + 2.0 * z + rng.standard_t(3, z.size),
        "ls_y": rng.standard_normal((sizes["locscale_n"], 1)),
        "gamma": gamma,
        "e": np.array([math.cos(angle), math.sin(angle)]),
        "eps": float(rng.uniform(0.05, 0.3)),
        "r": float(rng.uniform(1.0, 5.0)),
        "grid": np.sort(rng.uniform(0.01, 0.30, 12)),
        "cfg": SearchConfig(rng=RngStream(seed)),
    }


def run_bundle(inp):
    """Run the analyses; returns (outputs, seconds, calls, raised calls)."""
    calls = [
        ("tukey_median", lambda: deepest.tukey_median(inp["tukey_x"],
                                                      inp["cfg"])),
        ("deepest_regression", lambda: deepest.deepest_regression(
            inp["reg_x"], inp["reg_y"], inp["cfg"])),
        ("deepest_locscale2", lambda: deepest.deepest_locscale2(inp["ls_y"])),
        ("pointmass", lambda: depth.scatter_depth_pointmass(
            inp["gamma"], inp["eps"], inp["r"], inp["e"])),
    ]
    calls += [(f"curve:{c}", lambda c=c: maxbias.curve_table(c, inp["grid"]))
              for c in BREAKDOWN]
    calls.append(("ls2_breakdown", maxbias.ls2_breakdown))
    out = {}
    raised = []
    t0 = time.perf_counter()
    for name, call in calls:
        try:
            out[name] = call()
        except Exception as exc:  # counted as a failed call, reported below
            raised.append(f"{name}: {type(exc).__name__}: {exc}")
    return out, time.perf_counter() - t0, len(calls), raised


def check_bundle(inp, out):
    """Reference checks of one bundle's outputs; returns failure messages."""
    bad = []

    def need(ok, message):
        if not ok:
            bad.append(message)

    x = inp["tukey_x"]
    if "tukey_median" in out:
        need(ref_tukey_depth(out["tukey_median"], x)
             >= ref_tukey_depth(np.median(x, axis=0), x),
             "tukey_median is shallower than the coordinatewise median")
    if "deepest_regression" in out:
        rx, ry = inp["reg_x"], inp["reg_y"]
        need(ref_regression_depth(out["deepest_regression"], rx, ry)
             >= ref_regression_depth([np.median(ry), 0.0], rx, ry),
             "deepest_regression is shallower than the median fit")
    if "deepest_locscale2" in out:
        y = inp["ls_y"]
        need(ref_ls_depth2(*out["deepest_locscale2"], y)
             >= ref_ls_depth2(*deepest_locscale1(y), y),
             "deepest_locscale2 is shallower than (median, MAD)")
    if "pointmass" in out:
        need(0.0 <= out["pointmass"] <= 1.0,
             f"point-mass depth {out['pointmass']} outside [0, 1]")
    for curve, breakdown in BREAKDOWN.items():
        table = out.get(f"curve:{curve}")
        if table is None:
            continue
        need(abs(table.breakdown - breakdown) < 1e-12,
             f"{curve} breakdown {table.breakdown} != {breakdown}")
        need(bool(np.all(np.isfinite(table.values))),
             f"{curve} curve has non-finite values")
    if "ls2_breakdown" in out:
        b = out["ls2_breakdown"]
        need(0.2 < b < 0.25 and abs(b - LS2_BREAKDOWN) < 5e-4,
             f"ls2_breakdown {b} not near {LS2_BREAKDOWN} in (1/5, 1/4)")
    return bad
