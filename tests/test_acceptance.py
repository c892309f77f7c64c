"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The desk-scale benchmark (criteria 6-8) reuses a single grid
run, so the whole module stays within its runtime budget.
"""

import hashlib
import math

import numpy as np
import pytest

from depthlab.deepest import SearchConfig, deepest_scatter
from depthlab.depth import (
    default_mvreg_candidates,
    ls_depth1,
    ls_depth2,
    mvreg_depth,
    mvreg_depth_residual,
    scatter_depth_gaussian,
    scatter_depth_pointmass,
    tukey_depth,
)
from depthlab.maxbias import (
    BETA,
    deepest_restricted_radius,
    ls2_breakdown,
    ls2_gain,
    pointmass_depth_limit,
    regdepth_maxbias,
    scatter_eigen_bounds,
    scatter_maxbias,
    tukey_median_maxbias,
)
from depthlab.numerics import RngStream, SpdMatrix, std_normal_cdf
from depthlab.simlab import (
    ContaminationSpec,
    aggregate,
    efficiency,
    run_grid,
    write_records_csv,
)
from tests.test_depth import (
    halfspace_depth_bruteforce,
    ls1_bruteforce,
    ls2_bruteforce,
)

SEED = 1

# sha256 of the desk grid's records CSV, which is also what `depthlab
# simulate` writes for configs/table_p2_n20.cfg.  A change that alters
# records on purpose updates it and gives the old and new digests in
# CHANGES.md.
DESK_GRID_SHA256 = (
    "7f2ef60bce04db65e5d62be2a4b9ad416a6708c5e30c0744c275f94151936670")


def _quantile_oracle(q):
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


class TestCriterion1ClosedFormCurves:
    def test_curve_suite(self):
        # Location curve examples.
        assert tukey_median_maxbias(0.0) == 0.0
        assert tukey_median_maxbias(0.1) == pytest.approx(
            _quantile_oracle(1.1 / 1.8), abs=1e-9)
        # Eigen bounds examples.
        pair0 = scatter_eigen_bounds(0.0)
        assert pair0.l1 == pytest.approx(BETA, abs=1e-12)
        assert pair0.lp == pytest.approx(BETA, abs=1e-12)
        pair = scatter_eigen_bounds(0.1)
        assert pair.l1 == pytest.approx(_quantile_oracle(2.9 / 3.6) ** 2,
                                        abs=1e-9)
        assert pair.lp == pytest.approx(_quantile_oracle(2.5 / 3.6) ** 2,
                                        abs=1e-9)
        # Scatter envelope examples.
        assert scatter_maxbias(0.0) == pytest.approx(1.0, abs=1e-12)
        assert scatter_maxbias(0.1) == pytest.approx(1.3264613359406823,
                                                     abs=1e-10)
        assert scatter_maxbias(0.3) > 5.0
        # Regression curve examples (orthant-law oracle).
        assert regdepth_maxbias(0.0) == 0.0
        for eps in (0.1, 0.2):
            b = regdepth_maxbias(eps)
            rho = b / math.sqrt(1 + b * b)
            assert 0.5 + math.asin(rho) / math.pi == pytest.approx(
                (1 + eps) / (2 * (1 - eps)), abs=1e-6)
        # Joint location-scale breakdown.
        eps0 = ls2_breakdown()
        assert 0.2 < eps0 < 0.25
        assert abs(ls2_gain(eps0) - eps0) < 1e-9
        # Divergence near the scatter breakdown point.
        assert scatter_maxbias(1 / 3 - 1e-6) > 1e3
        _report(1, f"curve suite exact; ls2 breakdown {eps0:.6f} in (0.2, 0.25)")


class TestCriterion2BreakdownVerifier:
    def test_pointmass_depth_limit(self):
        for eps in (0.1, 0.2, 0.4):
            limit = pointmass_depth_limit(eps)
            assert limit == pytest.approx(min(eps, 1 - eps), abs=1e-3)
        _report(2, "exploding-sequence depth limits match min(eps, 1-eps)")


class TestCriterion3DeepestInClass:
    def test_extreme_matrix_depth(self):
        for eps in (0.05, 0.1, 0.2):
            pair = scatter_eigen_bounds(eps)
            r = deepest_restricted_radius(eps)
            assert r > math.sqrt(pair.l1)
            gamma = SpdMatrix.from_diagonal([pair.l1, pair.lp, pair.lp])
            e = np.array([1.0, 0.0, 0.0])
            d = scatter_depth_pointmass(gamma, eps, r, e)
            assert d == pytest.approx((1 - eps) / 2, abs=1e-10)
        _report(3, "extreme-eigenvalue matrices attain depth (1-eps)/2")


class TestCriterion4DepthEquivalences:
    def test_locscale_closed_forms(self):
        # Continuous draws: the closed forms equal the competitor-form
        # infima whenever no observation coincides exactly with mu (an atom
        # at mu satisfies every competitor event, which the closed form's
        # continuity-based cancellation drops by contract).
        gen = np.random.default_rng(SEED)
        for _ in range(100):
            n = int(gen.integers(4, 21))
            y = gen.standard_normal(n) * 2
            mu = float(gen.standard_normal())
            sigma = float(gen.uniform(0.1, 3.0))
            assert ls_depth1(mu, sigma, y) == pytest.approx(
                ls1_bruteforce(mu, sigma, y), abs=1e-12)
            assert ls_depth2(mu, sigma, y) == pytest.approx(
                ls2_bruteforce(mu, sigma, y), abs=1e-12)
        _report(4, "(a) location-scale closed forms match brute force")

    def test_mvreg_residual_equivalence(self):
        gen = np.random.default_rng(SEED + 1)
        for i in range(50):
            n = int(gen.integers(4, 9))
            p = int(gen.integers(1, 3))
            m = int(gen.integers(1, 3))
            x = gen.standard_normal((n, p))
            y = gen.standard_normal((n, m))
            b = 0.5 * gen.standard_normal((p, m))
            u = default_mvreg_candidates(x, y, b, RngStream(SEED + i),
                                         per_cell=50)
            d_sign = mvreg_depth(b, x, y, u)
            d_res = mvreg_depth_residual(b, x, y, u,
                                         t_grid=2.0 ** np.arange(-30, 4))
            assert d_res >= d_sign - 1e-12
            assert d_res == pytest.approx(d_sign, abs=1e-9)
        _report(4, "(b) residual-smallness depth meets the sign form")

    def test_exact_halfspace_depth(self):
        gen = np.random.default_rng(SEED + 2)
        for _ in range(100):
            n = int(gen.integers(3, 17))
            x = np.round(gen.standard_normal((n, 2)) * 3, 1)
            theta = np.round(gen.standard_normal(2), 1)
            assert tukey_depth(theta, x) == pytest.approx(
                halfspace_depth_bruteforce(theta, x), abs=1e-12)
        _report(4, "(c) exact p=2 halfspace depth matches brute force")


class TestCriterion5GaussianConsistency:
    def test_deepest_scatter_consistency(self):
        gen = np.random.default_rng(SEED)
        x = gen.standard_normal((5000, 2))
        cfg = SearchConfig(rng=RngStream(SEED))
        gamma, info = deepest_scatter(x, np.zeros(2), cfg, return_info=True)
        dist = np.linalg.norm(gamma.entries / BETA - np.eye(2), ord=2)
        assert dist <= 0.15
        depth = scatter_depth_gaussian(gamma)
        assert depth >= 0.45
        _report(5, f"op-norm distance {dist:.4f} <= 0.15, "
                   f"model depth {depth:.4f} >= 0.45")


@pytest.fixture(scope="module")
def desk_grid(tmp_path_factory):
    cells = [ContaminationSpec(p=2, n=20, epsilon=eps, k=k, seed=SEED)
             for eps in (0.1, 0.2) for k in (0, 1, 5, 10, 15, 20, 25)]
    records = run_grid(cells, replicates=50)
    return records


@pytest.fixture(scope="module")
def desk_logb(desk_grid):
    rows = aggregate(desk_grid, measure="median")
    return {(r.estimator, r.epsilon): r.b_hat_log for r in rows}


class TestCriterion6TableReproduction:
    def test_scov_level(self, desk_logb):
        targets = {0.1: 4.77, 0.2: 5.35}
        for eps, t in targets.items():
            got = desk_logb[("SCOV", eps)]
            assert got == pytest.approx(t, abs=0.4)
            # Analytic mixture-covariance oracle at the worst k = 25.
            oracle = math.log((1 - eps) * (1 + eps * 2 * 625))
            assert got == pytest.approx(oracle, abs=0.4)
        _report(6, "(a) SCOV worst-case log bias at the table level")

    def test_mm_is_best(self, desk_logb):
        for eps in (0.1, 0.2):
            mm_val = desk_logb[("MM", eps)]
            others = [v for (est, e), v in desk_logb.items()
                      if e == eps and est != "MM"]
            assert mm_val < min(others)
        _report(6, "(b) MM attains the smallest worst-case log bias")

    def test_robust_separation(self, desk_logb):
        for eps in (0.1, 0.2):
            scov_val = desk_logb[("SCOV", eps)]
            for est in ("MVE", "MCD", "SE", "ROCKE", "MM", "SD", "MDEPTH"):
                assert desk_logb[(est, eps)] <= scov_val - 2.5, (est, eps)
        _report(6, "(c) every robust estimator at least 2.5 below SCOV")


class TestCriterion7Efficiency:
    def test_efficiency_ordering(self):
        cells = [ContaminationSpec(p=2, n=50, epsilon=0.0, k=0, seed=SEED)]
        records = run_grid(cells, replicates=50)
        eff_mm = efficiency(records, "MM")
        eff_mve = efficiency(records, "MVE")
        assert eff_mm >= 0.80
        assert eff_mm > eff_mve
        _report(7, f"Eff(MM) = {eff_mm:.3f} >= 0.80 > Eff(MVE) = {eff_mve:.3f}")


class TestCriterion8Determinism:
    def test_desk_grid_records_digest(self, desk_grid, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(desk_grid, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_GRID_SHA256
        _report(8, "desk grid records match the pinned sha256")

    def test_pipeline_byte_identical(self, tmp_path):
        cells = [ContaminationSpec(p=2, n=20, epsilon=0.1, k=k, seed=SEED)
                 for k in (0, 25)]
        paths = []
        for tag in ("one", "two"):
            rec_path = tmp_path / f"records_{tag}.csv"
            agg_path = tmp_path / f"aggregate_{tag}.csv"
            records = run_grid(cells, replicates=5, csv_path=str(rec_path))
            with open(agg_path, "w", newline="", encoding="utf-8") as fh:
                from depthlab.simlab import write_aggregate_csv

                write_aggregate_csv(aggregate(records), fh)
            paths.append((rec_path, agg_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
        _report(8, "simulate + report pipeline is byte-identical")
