"""Benchmark the working tree against a parent commit, in alternating pairs.

    python3 scripts/bench_pair.py --parent 94ebf77 --out BENCH_18.json \\
        --seeds fits_p2_exact=1,2,3,41,42,43,44,45,46,47,48,49 \\
        --seeds grid_p2_n20=1,2,3 --seeds grid_p5=1,2,3 \\
        --trace fits_p2_exact=1,2,3

The committed files of the ``--parent`` revision are exported with
``git archive`` into a temporary directory, so the parent side measures
exactly what that commit holds and the repository gains no worktree entry.
``perfbench/run.py`` then runs from each tree with the same arguments and
the ``run_seconds`` of BENCHMARK.json, one run at a time.  For the i-th
seed of a workload the parent runs first when i is even and the working
tree runs first when i is odd.

The output file has the layout of BENCH_14.json: ``what``, ``command``,
``machine`` (from the first run), ``summary`` and ``runs``.  Per workload
the summary gives, for every end-to-end metric of BENCHMARK.json, each
side's median and quartiles (``statistics.quantiles``, inclusive) and how
many pairs the change won, ties counting for neither; each side's failed
share (``failed`` of ``attempted`` fits or calls, summed over those seeds);
for grid workloads how many passes both sides ran with equal
``records_sha256``, each side's pass count per seed (a faster side
reaches later passes, whose datasets the other side never fits) and the
(seed, pass) pairs of common seeds that only one side reached, the passes
to give ``scripts/flag_scan.py``; and for traced runs the per-module
metrics that are nonzero on either side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_seeds(items):
    """``["w=1,2", ...]`` -> ``{"w": [1, 2], ...}``."""
    out = {}
    for item in items:
        name, _, seeds = item.partition("=")
        if not name or not seeds:
            raise SystemExit(f"error: expected WORKLOAD=S1,S2,..., got {item!r}")
        out[name] = [int(s) for s in seeds.split(",")]
    return out


def export_tree(rev, dest):
    """Write the committed files of ``rev`` under ``dest``."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=fh,
                       check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return tree


def run_one(tree, workload, seed, seconds, trace):
    """One perfbench run from ``tree``: its exit code, the machine line,
    the ``records_sha256`` lines and the last-line JSON result (None when
    the run printed none)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine, digests, result = None, {}, None
    for line in lines:
        if line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
        elif line.startswith("records_sha256 "):
            _, label, digest = line.split()
            digests[label] = digest
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    else:
        sys.stderr.write(proc.stderr)
    return proc.returncode, machine, digests, result


def spread(values):
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4), "runs": len(values)}


def summarize(runs, end_to_end):
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        timed = [r for r in mine if r["trace"] == 0 and r["result"]]
        seeds = list(dict.fromkeys(r["seed"] for r in timed))
        done = {side: {r["seed"]: r for r in timed if r["side"] == side}
                for side in SIDES}
        common = [s for s in seeds if s in done["parent"] and s in done["change"]]
        entry = {}
        if common:
            for metric in end_to_end:
                name = metric["name"]
                values = {side: [done[side][s]["result"]["metrics"][name]
                                 ["value"] for s in common] for side in SIDES}
                sign = 1.0 if metric["better"] == "higher" else -1.0
                wins = sum(sign * (c - p) > 0
                           for p, c in zip(values["parent"], values["change"]))
                entry[name] = {side: spread(values[side]) for side in SIDES}
                entry[name]["change_wins"] = f"{wins} of {len(common)}"
            entry["failed_share"] = {}
            for side in SIDES:
                failed, attempted = (sum(done[side][s]["result"][k]
                                         for s in common)
                                     for k in ("failed", "attempted"))
                entry["failed_share"][side] = {
                    "failed": failed, "attempted": attempted,
                    "share": round(failed / attempted, 6)}
        if any(r["records_sha256"] for r in timed):
            equal = total = 0
            for s in common:
                digests = [done[side][s]["records_sha256"] for side in SIDES]
                for label in digests[0].keys() & digests[1].keys():
                    total += 1
                    equal += digests[0][label] == digests[1][label]
            entry["records_equal_on_common_passes"] = \
                f"{equal} of {total} passes"
            entry["passes_one_side_only"] = {
                side: [[s, int(label[len("pass"):])] for s in common
                       for label in done[side][s]["records_sha256"]
                       if label not in done[other][s]["records_sha256"]]
                for side, other in zip(SIDES, SIDES[::-1])}
            entry["passes_per_seed"] = {
                side: {str(s): len(r["records_sha256"])
                       for s, r in done[side].items()} for side in SIDES}
        entry["correct"] = all(r["result"] and r["result"]["correct"]
                               for r in mine)
        entry["seeds"] = seeds
        traced = {}
        for r in (r for r in mine if r["trace"] == 1 and r["result"]):
            traced.setdefault(f"seed_{r['seed']}", {})[r["side"]] = {
                k: round(v["value"], 4)
                for k, v in r["result"]["metrics"].items()}
        for per_seed in traced.values():
            keep = {k for side in per_seed.values()
                    for k, v in side.items() if v != 0.0}
            for side in per_seed:
                per_seed[side] = {k: v for k, v in per_seed[side].items()
                                  if k in keep}
        if traced:
            entry["traced"] = traced
        summary[workload] = entry
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output JSON file")
    ap.add_argument("--parent", required=True,
                    help="git revision the working tree is compared with")
    ap.add_argument("--seeds", action="append", default=[],
                    metavar="WORKLOAD=S1,S2", help="untraced pairs")
    ap.add_argument("--trace", action="append", default=[],
                    metavar="WORKLOAD=S1,S2", help="traced pairs")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    plan = [(w, s, 0) for w, seeds in parse_seeds(args.seeds).items()
            for s in seeds]
    plan += [(w, s, 1) for w, seeds in parse_seeds(args.trace).items()
             for s in seeds]
    if not plan:
        raise SystemExit("error: no --seeds or --trace given")
    parent_rev = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short", args.parent],
        capture_output=True, text=True, check=True).stdout.strip()

    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"parent": export_tree(parent_rev, tmp), "change": ROOT}
        index = {}
        for workload, seed, trace in plan:
            i = index[workload, trace] = index.get((workload, trace), -1) + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for k, side in enumerate(order):
                code, mach, digests, result = run_one(
                    trees[side], workload, seed, seconds, trace)
                machine = machine or mach
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "side": side,
                             "ran_first": k == 0, "records_sha256": digests,
                             "result": result, "exit": code})
                value = (result or {}).get("metrics", {}).get(
                    "throughput_per_s", {}).get("value")
                print(f"{workload} seed {seed} trace {trace} {side}: "
                      f"exit {code}, throughput {value}", flush=True)

    out = {
        "what": (f"perfbench/run.py last-line JSON objects for the parent "
                 f"commit {parent_rev} (git archive) and for the working "
                 f"tree, same seeds, alternating which side ran first "
                 f"(even-indexed seeds parent first); --seconds {seconds:g}, "
                 f"one run at a time.  records_sha256 lines are copied from "
                 f"the same runs.  Quartiles: statistics.quantiles("
                 f"method='inclusive'); change_wins counts pairs, ties for "
                 f"neither."),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "machine": machine,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
