"""Workload definitions of the depthlab benchmark.

Each workload is generated from the ``--seed`` argument alone: the grid
workloads write a ``depthlab simulate`` config whose seed is derived from
it, and ``fits_p2_exact`` draws its datasets from it.  The program sees only
those configs and datasets.  The ``why`` of each workload says which module
it stresses and which it bypasses, so a later change can name the workload
on which it predicts a gain and the one on which it predicts no change.
"""

from __future__ import annotations

from dataclasses import dataclass

ESTIMATORS = ("SCOV", "MVE", "MCD", "SE", "ROCKE", "MM", "SD", "MDEPTH")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "grid" (depthlab simulate) or "fits"
    why: str
    p: tuple = ()
    n: tuple = ()
    epsilon: tuple = ()
    k: tuple = ()
    replicates: int = 1         # per cell and pass
    pool_threads: int = 0       # traced run also times pass 0 on this pool

    @property
    def cells(self):
        return len(self.p) * len(self.n) * len(self.epsilon) * len(self.k)


P2_TABLE_ROW = dict(p=(2,), n=(20,), epsilon=(0.1, 0.2),
                    k=(0, 1, 5, 10, 15, 20, 25))

WORKLOADS = {w.name: w for w in [
    # Why: the cost is spread over the subset-search and S-estimator chain
    # (ms per replicate: MCD 134, SE 94, MDEPTH 80, ROCKE 70, MM 52, MVE 43).
    # MVE is fitted 4 times and bisquare S twice per replicate.  The location
    # search uses the exact p = 2 depth at n = 20, so the sampled
    # projection-count kernel does little work here.
    #
    # Its traced run also times pass 0 with --threads 2 from a cold
    # interpreter (no warm-up, so forked workers refill the lazy constants as
    # a user's run would; run_grid builds a new ProcessPoolExecutor for every
    # cell) and serially in that same interpreter, for
    # simlab.parallel_efficiency, and checks that both give the records of
    # the serial pass.  A two-worker run is not an end-to-end workload: on a
    # 2-core shared host it measures the scheduler more than the program
    # (its throughput spread past a 25% bound between runs of the same code).
    Workload(
        name="grid_p2_n20", kind="grid", replicates=2, pool_threads=2,
        **P2_TABLE_ROW,
        why="serial simulate of the p=2, n=20 table row: subset search and "
            "the MVE->S->MM chain dominate; projection counting is idle"),
    # Why: MDEPTH's sampled projection counting takes about 70% of a
    # replicate (1.1 of 1.6 s at n = 50; 1.75 of 2.6 s at n = 200) and MCD
    # concentration steps take 0.19-0.48 s.  One central, one moderate and
    # one far contamination distance from the p = 5 rows of desk.cfg.  The
    # cold Rocke constant at p = 5 lands in setup_s.
    Workload(
        name="grid_p5", kind="grid", replicates=1,
        p=(5,), n=(50, 200), epsilon=(0.2,), k=(0, 5, 25),
        why="serial simulate at p=5, n in {50,200}: sampled projection "
            "counting (MDEPTH) and MCD C-steps dominate; cold Rocke constant "
            "is in setup"),
    # Why: the exact O(n^2) bivariate kernels dominate (tukey_median at
    # n = 400 on the exact path, exact regression depth at n = 200).  The
    # grid workloads use them only at n = 20, so a faster sweep should move
    # this workload and leave grid_p2_n20 flat.  Uses neither simlab nor
    # the estimators.
    Workload(
        name="fits_p2_exact", kind="fits",
        why="single-dataset p=2 analyses on exact O(n^2) depth kernels and "
            "the max-bias curves; bypasses simlab and the estimators"),
]}

# Sizes of one fits_p2_exact analysis bundle (the warm-up bundle is smaller).
BUNDLE_SIZES = dict(tukey_n=400, regression_n=200, locscale_n=1000)
WARM_BUNDLE_SIZES = dict(tukey_n=30, regression_n=20, locscale_n=50)


def pass_seed(seed, index):
    """Seed of pass ``index`` of a run: distinct passes get distinct data."""
    return seed * 1000 + index


def grid_config(workload, seed):
    """Text of the ``depthlab simulate`` config of one grid pass (the
    records path is given on the command line)."""
    def lst(values):
        return "[" + ", ".join(str(v) for v in values) + "]"

    return "\n".join([
        f"seed = {seed}",
        f"p = {lst(workload.p)}",
        f"n = {lst(workload.n)}",
        f"epsilon = {lst(workload.epsilon)}",
        f"k = {lst(workload.k)}",
        f"replicates = {workload.replicates}",
        f"estimators = {lst(ESTIMATORS)}",
        "location_measure = median",
        "",
    ])
