"""Flagged estimators of each pass of a benchmark grid workload.

    python3 scripts/flag_scan.py --workload grid_p2_n20 --seeds 1-10 \\
        --passes 0-7

Pass i of a perfbench run with seed s simulates the config
``grid_config(w, pass_seed(s, i))`` of perfbench/workloads.py, which this
script imports and does not change.  For every seed and pass in the given
ranges it runs ``depthlab simulate`` on that config, serially and from this
checkout's ``src/``, and prints one line per pass: the flagged estimators
with their row counts, or ``none``.  A faster change reaches later passes
than its parent in a timed run, so a pass that flags rows at either commit
tells a new flag apart from a pass that only one side reached.
Under a pass with flags, one indented line per flagged row says why it
flagged: the cell (epsilon, k), the replicate, how many rows sit on the
point mass, and either the message of the exception the fit raised or the
fit's ``converged``, ``singular`` and smallest eigenvalue lambda_p.  These
come from re-fitting that replicate with its simlab stream, as
``simlab._one_replicate`` does.  ``DEPTHLAB_SEED`` is ignored, as in
perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from depthlab import cli  # noqa: E402
from depthlab.estimators import run_estimator  # noqa: E402
from depthlab.numerics import RngStream  # noqa: E402
from depthlab.simlab import (ContaminationSpec, _estimator_stream_key,  # noqa: E402
                             bias_measures, gen_contaminated,
                             read_records_csv, replicate_seed)

# Loaded by path, so perfbench's module names stay off sys.path.
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


def parse_range(text):
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def flagged(path):
    """Flagged rows of a records CSV per estimator, in order of first
    appearance: ``{estimator: count}``."""
    counts = {}
    for rec in read_records_csv(path):
        if rec.flag:
            counts[rec.estimator] = counts.get(rec.estimator, 0) + 1
    return counts


def describe(counts):
    """One pass's flags as printed: ``"MCD 1, SE 1"`` or ``"none"``."""
    return ", ".join(f"{e} {c}" for e, c in counts.items()) or "none"


def explain(rec, config_seed):
    """Why the flagged record ``rec`` of a run with ``config_seed``
    flagged, from a re-fit of its replicate: one line giving the cell, the
    replicate, the rows on the point mass and the reason."""
    spec = ContaminationSpec(p=rec.p, n=rec.n, epsilon=rec.epsilon, k=rec.k,
                             seed=config_seed)
    rspec = replace(spec, seed=replicate_seed(spec, rec.replicate))
    x = gen_contaminated(rspec)
    on_mass = int(np.all(x == float(rec.k), axis=1).sum())
    stream = RngStream(rspec.seed).child(_estimator_stream_key(rec.estimator))
    try:
        res = run_estimator(rec.estimator, x, stream)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        lamp = bias_measures(res).lambdap
        reason = (f"converged {res.converged}, singular {res.singular}, "
                  f"lambda_p {lamp:.6g}")
    return (f"{rec.estimator}: p {rec.p}, n {rec.n}, eps {rec.epsilon:g}, "
            f"k {rec.k}, replicate {rec.replicate}, {on_mass} of {rec.n} "
            f"rows on the mass; {reason}")


def reasons(path, config_seed):
    """:func:`explain` of every flagged row of a records CSV, in row order."""
    return [explain(rec, config_seed) for rec in read_records_csv(path)
            if rec.flag]


def scan_pass(workload, seed, index, workdir):
    """Flagged rows of one pass, from a fresh ``depthlab simulate``."""
    cfg = os.path.join(workdir, "pass.cfg")
    out = os.path.join(workdir, "records.csv")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(workloads.grid_config(workload,
                                       workloads.pass_seed(seed, index)))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", cfg, "--out", out,
                         "--threads", "1"])
    if code != 0:
        raise SystemExit(f"error: depthlab simulate exited with {code} on "
                         f"seed {seed} pass {index}")
    return flagged(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    grids = sorted(w.name for w in workloads.WORKLOADS.values()
                   if w.kind == "grid")
    ap.add_argument("--workload", required=True, choices=grids)
    ap.add_argument("--seeds", required=True, type=parse_range,
                    help="perfbench seeds, e.g. 1-10 or 2,4")
    ap.add_argument("--passes", required=True, type=parse_range,
                    help="pass indices, e.g. 0-7")
    args = ap.parse_args(argv)
    os.environ.pop("DEPTHLAB_SEED", None)
    workload = workloads.WORKLOADS[args.workload]
    hits = 0
    with tempfile.TemporaryDirectory(prefix="flag_scan_") as tmp:
        for seed in args.seeds:
            for index in args.passes:
                counts = scan_pass(workload, seed, index, tmp)
                hits += bool(counts)
                print(f"seed {seed} pass {index}: {describe(counts)}",
                      flush=True)
                if counts:
                    for line in reasons(os.path.join(tmp, "records.csv"),
                                        workloads.pass_seed(seed, index)):
                        print(f"    {line}", flush=True)
    print(f"{hits} of {len(args.seeds) * len(args.passes)} passes hold "
          f"flagged rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
