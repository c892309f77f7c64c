"""One workload run in a fresh interpreter (started by run.py).

Times set-up (importing depthlab plus the workload's warm-up), then either
stops (``--setup-only``) or runs the workload's passes: for grid workloads
one pass is one ``depthlab simulate`` over the workload's cells, for
fits_p2_exact one analysis bundle.  With ``--trace 1`` pass 0 runs once
untraced and once traced, and the per-module metrics come from the traced
pass.  With ``--pool`` there is no warm-up, and pass 0 runs once on the
workload's process pool and then once serially.  The last line of standard
output is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import depthlab  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
from depthlab import cli, estimators, simlab  # noqa: E402
from depthlab.numerics import RngStream  # noqa: E402

import fits  # noqa: E402
import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (BUNDLE_SIZES, ESTIMATORS, WARM_BUNDLE_SIZES,  # noqa: E402
                       WORKLOADS, grid_config, pass_seed)


class LineStamps(io.TextIOBase):
    """Stdout stand-in that timestamps the "cell ... done" progress lines."""

    def __init__(self):
        self._pending = ""
        self.cell_done = []

    def writable(self):
        return True

    def write(self, s):
        self._pending += s
        *lines, self._pending = self._pending.split("\n")
        now = time.perf_counter()
        self.cell_done += [now for ln in lines
                           if ln.startswith("cell ") and ln.endswith(" done")]
        return len(s)


def warm_up(workload):
    """Fill the lazy caches a user's first fits would fill."""
    if workload.kind == "fits":
        inp = fits.make_inputs(0, WARM_BUNDLE_SIZES)
        fits.run_bundle(inp)
        return
    for p in workload.p:
        data = RngStream(0).generator().standard_normal((10 * p, p))
        for eid in ("SE", "ROCKE", "MM"):
            estimators.run_estimator(eid, data, RngStream(0))


def check_records(path, workload):
    """Output checks of one records CSV; returns the pass summary.

    Until the records are read, every fit of the pass counts as failed.
    """
    expected = workload.cells * workload.replicates * len(ESTIMATORS)
    res = {"problems": [], "fits": expected, "failed": expected,
           "flagged": {}, "sha256": ""}
    if not os.path.exists(path):
        res["problems"].append("no records written")
        return res
    with open(path, "rb") as fh:
        raw = fh.read()
    res["sha256"] = hashlib.sha256(raw).hexdigest()
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    if not rows or tuple(rows[0]) != tuple(simlab.RECORD_HEADER):
        res["problems"].append(f"records header {rows[:1]} != RECORD_HEADER")
        return res
    col = {name: i for i, name in enumerate(rows[0])}
    recs = rows[1:]
    if len(recs) != expected:
        res["problems"].append(f"{len(recs)} records, expected {expected}")
    flagged = {eid: 0 for eid in ESTIMATORS}
    for r in recs:
        if r[col["estimator"]] not in flagged:
            res["problems"].append(f"record of an unknown estimator: {r}")
        elif r[col["flag"]] == "1":
            flagged[r[col["estimator"]]] += 1
        elif not math.isfinite(float(r[col["b"]])):
            res["problems"].append(f"unflagged record with b = "
                                   f"{r[col['b']]}: {r}")
    missing = max(0, expected - len(recs))
    res.update(failed=sum(flagged.values()) + missing, flagged=flagged)
    return res


def grid_pass(workload, seed, index, workdir, threads):
    cfg_path = os.path.join(workdir, "pass.cfg")
    out = os.path.join(workdir, "records.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(grid_config(workload, pass_seed(seed, index)))
    stamps = LineStamps()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stamps):
        code = cli.main(["simulate", "--config", cfg_path, "--out", out,
                         "--threads", str(threads)])
    wall = time.perf_counter() - start
    res = check_records(out, workload)
    if code != 0:
        res["problems"].append(f"depthlab simulate exited with {code}")
    if len(stamps.cell_done) != workload.cells:
        res["problems"].append(f"{len(stamps.cell_done)} cell lines, "
                               f"expected {workload.cells}")
    times = [start] + stamps.cell_done
    res.update(wall=wall, units=workload.cells * workload.replicates,
               task_s=[b - a for a, b in zip(times, times[1:])])
    return res


def fits_pass(seed, index):
    inp = fits.make_inputs(pass_seed(seed, index), BUNDLE_SIZES)
    out, wall, calls, raised = fits.run_bundle(inp)
    bad = fits.check_bundle(inp, out)
    return {"problems": raised + bad, "fits": calls,
            "failed": len(raised) + len(bad), "flagged": {}, "wall": wall,
            "units": 1, "task_s": [wall], "sha256": ""}


def run_pass(workload, seed, index, workdir, threads=1):
    if workload.kind == "fits":
        return fits_pass(seed, index)
    return grid_pass(workload, seed, index, workdir, threads)


def machine_facts():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # ru_maxrss is in KiB on Linux


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pool", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    if not args.pool:
        warm_up(workload)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s,
              "depthlab_file": os.path.abspath(depthlab.__file__)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    os.makedirs(args.workdir, exist_ok=True)
    passes = []
    if args.pool:
        # Pool first: its forked workers must not inherit warm caches.
        passes.append(run_pass(workload, args.seed, 0, args.workdir,
                               threads=workload.pool_threads))
        passes.append(run_pass(workload, args.seed, 0, args.workdir))
    elif args.trace:
        passes.append(run_pass(workload, args.seed, 0, args.workdir))
        tracer = Tracer(args.workdir)
        tracer.install()
        try:
            traced = run_pass(workload, args.seed, 0, args.workdir)
        finally:
            tracer.uninstall()
        spans = tracer.collect()
        passes.append(traced)
        result["per_layer"] = metrics.per_layer(
            spans, traced, untraced=passes[0])
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(workload, args.seed, len(passes),
                                   args.workdir))
    result.update(passes=passes, peak_rss_mb=peak_rss_mb(),
                  machine=machine_facts())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
