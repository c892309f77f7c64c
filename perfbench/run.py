"""depthlab benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_p2_n20 --seed 1 --seconds 15 \
        --trace 0

Each measurement runs in a fresh interpreter (perfbench/measure.py) with a
fixed environment: ``DEPTHLAB_SEED`` unset (it would override the workload
seed), BLAS and OpenMP limited to one thread, and ``src/`` of this checkout
first on the path.  With ``--trace 0`` the run sets up three times (twice
set-up only, once before measuring) and reports the end-to-end metrics; with
``--trace 1`` it reports the per-module metrics of one traced pass, and on a
workload with ``pool_threads`` it then times pass 0 on a process pool in a
second, cold interpreter.  The outputs are checked; the last line of standard output is one JSON object,
and the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKDIR = os.path.join(HERE, ".work", str(os.getpid()))
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k != "DEPTHLAB_SEED" and not k.startswith("PYTHON")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, deadline, extra=()):
    """Run measure.py in a new session; kill the whole group on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR,
           *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: {args.workload} did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: measurement exited with {proc.returncode}")
    result = json.loads(lines[-1])
    src = os.path.join(ROOT, "src") + os.sep
    if not result["depthlab_file"].startswith(src):
        raise SystemExit(f"error: imported {result['depthlab_file']}, "
                         f"not the checkout's src/")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "depthlab",
                                       "__init__.py")):
        print(f"error: no depthlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.time() + DEADLINE_S
    # Turn SIGTERM into SystemExit, so run_child still stops its child group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workload = WORKLOADS[args.workload]

    setup = []
    pool = None
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_child(args, deadline,
                                       ["--setup-only"])["setup_s"])
        res = run_child(args, deadline)
        if args.trace and workload.pool_threads:
            pool = run_child(args, deadline, ["--pool"])["passes"]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            os.rmdir(os.path.dirname(WORKDIR))
    setup.append(res["setup_s"])
    passes = res["passes"] + (pool or [])

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(res["machine"]))
    problems = [p for ps in passes for p in ps["problems"]]
    digests = [ps["sha256"] for ps in passes]
    if args.trace:
        labels = ["pass0", "pass0_traced"] + (
            [f"pass0_threads{workload.pool_threads}", "pass0_serial_cold"]
            if pool else [])
    else:
        labels = [f"pass{i}" for i in range(len(passes))]
    if workload.kind == "grid":
        for label, d in zip(labels, digests):
            print(f"records_sha256 {label} {d}")
        if args.trace and len(set(digests)) != 1:
            problems.append("records differ between the runs of pass 0: "
                            + ", ".join(labels))
    for p in problems:
        print(f"check failed: {p}")
    attempted = sum(ps["fits"] for ps in passes)
    failed = sum(ps["failed"] for ps in passes)

    if args.trace:
        values = dict(res["per_layer"])
        values["simlab.parallel_efficiency"] = metrics.parallel_efficiency(
            workload, pool)
        spec = [(name, unit) for name, unit, _ in metrics.PER_LAYER]
    else:
        values = metrics.end_to_end(passes, setup, res["peak_rss_mb"])
        spec = [(name, unit) for name, unit, _, _ in metrics.END_TO_END]
        tasks = sum(len(ps["task_s"]) for ps in passes)
        grid = workload.kind == "grid"
        print(f"{'replicates_per_s' if grid else 'analyses_per_s'} = "
              f"{values['throughput_per_s']:.6g} 1/s over {len(passes)} "
              f"pass(es)")
        print(f"{'cell_p50_s' if grid else 'analysis_p50_s'} = "
              f"{values['task_p50_s']:.6g} s over {tasks} "
              f"{'cells' if grid else 'bundles'}")
        print(f"setup_s = {values['setup_s']:.6g} s, median of "
              f"{[round(s, 4) for s in setup]}")
        print(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB")
        print(f"failed_share = {failed / attempted:.6g} "
              f"({failed} of {attempted} {'fits' if grid else 'calls'})")
    for name, unit in spec:
        print(f"metric {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in spec},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
