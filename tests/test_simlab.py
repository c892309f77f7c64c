import numpy as np
import pytest

from depthlab import simlab
from depthlab.estimators import ESTIMATOR_IDS, EstimatorResult
from depthlab.simlab import (
    AggregateRow,
    BiasRecord,
    ContaminationSpec,
    aggregate,
    bias_measures,
    boxplot_stats,
    efficiency,
    gen_contaminated,
    read_records_csv,
    replicate_seed,
    run_grid,
    write_records_csv,
)


def make_result(diag, converged=True, singular=False):
    p = len(diag)
    return EstimatorResult("SCOV", np.zeros(p), np.diag(np.asarray(diag, float)),
                           converged=converged, singular=singular)


class TestContaminationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContaminationSpec(p=2, n=3, epsilon=0.1, k=0, seed=1)
        with pytest.raises(ValueError):
            ContaminationSpec(p=2, n=20, epsilon=0.5, k=0, seed=1)
        with pytest.raises(ValueError):
            ContaminationSpec(p=2, n=20, epsilon=0.1, k=-1, seed=1)


class TestGenContaminated:
    def test_no_contamination_is_gaussian(self):
        spec = ContaminationSpec(p=3, n=500, epsilon=0.0, k=25, seed=7)
        x = gen_contaminated(spec)
        assert x.shape == (500, 3)
        assert not np.any(np.all(x == 25.0, axis=1))
        assert abs(x.mean()) < 0.1

    def test_contaminated_rows_are_constant(self):
        spec = ContaminationSpec(p=2, n=400, epsilon=0.3, k=10, seed=8)
        x = gen_contaminated(spec)
        bad = np.all(x == 10.0, axis=1)
        assert bad.sum() > 0
        assert np.allclose(x[bad], 10.0)

    def test_binomial_count(self):
        spec = ContaminationSpec(p=2, n=10_000, epsilon=0.1, k=5, seed=9)
        x = gen_contaminated(spec)
        count = int(np.sum(np.all(x == 5.0, axis=1)))
        sd = np.sqrt(10_000 * 0.1 * 0.9)
        assert abs(count - 1000) <= 4 * sd

    def test_deterministic(self):
        spec = ContaminationSpec(p=2, n=50, epsilon=0.2, k=3, seed=10)
        assert np.array_equal(gen_contaminated(spec), gen_contaminated(spec))

    def test_clean_part_shared_across_epsilon(self):
        # Disjoint sub-streams: the Gaussian rows do not shift with epsilon.
        a = gen_contaminated(ContaminationSpec(p=2, n=50, epsilon=0.0, k=9, seed=11))
        b = gen_contaminated(ContaminationSpec(p=2, n=50, epsilon=0.2, k=9, seed=11))
        clean = ~np.all(b == 9.0, axis=1)
        assert np.array_equal(a[clean], b[clean])


class TestBiasMeasures:
    def test_identity(self):
        rec = bias_measures(make_result([1.0, 1.0]))
        assert rec.b == 1.0 and rec.cn == 1.0 and not rec.flag

    def test_explosion(self):
        rec = bias_measures(make_result([4.0, 1.0]))
        assert rec.b == pytest.approx(4.0) and rec.cn == pytest.approx(4.0)

    def test_implosion(self):
        rec = bias_measures(make_result([0.1, 0.1]))
        assert rec.b == pytest.approx(10.0) and rec.cn == pytest.approx(1.0)

    def test_truth_standardization(self):
        rec = bias_measures(make_result([8.0, 2.0]), truth=np.diag([2.0, 2.0]))
        assert rec.b == pytest.approx(4.0)

    def test_flagging(self):
        rec = bias_measures(make_result([1.0, 0.0], singular=True))
        assert rec.flag and np.isinf(rec.b)
        rec = bias_measures(make_result([1.0, 1.0], converged=False))
        assert rec.flag


def small_cells(eps=(0.1,), ks=(0, 25), seed=999):
    return [ContaminationSpec(p=2, n=20, epsilon=e, k=k, seed=seed)
            for e in eps for k in ks]


class TestRunGrid:
    def test_record_count(self):
        recs = run_grid(small_cells(ks=(0,)), estimator_ids=["SCOV", "MM"],
                        replicates=3)
        assert len(recs) == 3 * 2

    def test_csv_roundtrip_and_determinism(self, tmp_path):
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        run_grid(small_cells(), estimator_ids=["SCOV", "MVE"], replicates=3,
                 csv_path=str(f1))
        run_grid(small_cells(), estimator_ids=["SCOV", "MVE"], replicates=3,
                 csv_path=str(f2))
        assert f1.read_bytes() == f2.read_bytes()
        back = read_records_csv(f1)
        assert len(back) == 12
        assert back[0].estimator == "SCOV"

    def test_resume_no_new_rows(self, tmp_path):
        f = tmp_path / "r.csv"
        recs = run_grid(small_cells(ks=(0,)), estimator_ids=["SCOV"],
                        replicates=3, csv_path=str(f))
        before = f.read_bytes()
        recs2 = run_grid(small_cells(ks=(0,)), estimator_ids=["SCOV"],
                         replicates=3, csv_path=str(f), resume=True)
        assert f.read_bytes() == before
        assert len(recs2) == len(recs)

    def test_threads_do_not_change_records(self, tmp_path):
        f1 = tmp_path / "t1.csv"
        f2 = tmp_path / "t2.csv"
        run_grid(small_cells(ks=(0,)), estimator_ids=["SCOV", "MM"],
                 replicates=4, csv_path=str(f1), threads=1)
        run_grid(small_cells(ks=(0,)), estimator_ids=["SCOV", "MM"],
                 replicates=4, csv_path=str(f2), threads=2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_replicate_seeds_differ(self):
        spec = small_cells()[0]
        assert replicate_seed(spec, 0) != replicate_seed(spec, 1)

    def test_registry_order_fixes_stream_keys(self):
        # Each estimator draws from stream key 1000 + its registry position,
        # so this order is part of the records format.
        assert ESTIMATOR_IDS == ("SCOV", "MVE", "MCD", "SE", "ROCKE", "MM",
                                 "SD", "MDEPTH")
        keys = [simlab._estimator_stream_key(e) for e in ESTIMATOR_IDS]
        assert keys == list(range(1000, 1008))
        assert simlab._estimator_stream_key("mdepth") == 1007

    def test_numerical_failure_flags_programming_error_propagates(
            self, monkeypatch, tmp_path):
        def raising(exc):
            def fit(eid, data, rng):
                raise exc
            return fit

        f = tmp_path / "f.csv"
        monkeypatch.setattr(simlab, "run_estimator",
                            raising(np.linalg.LinAlgError("singular matrix")))
        run_grid(small_cells(ks=(0,)), estimator_ids=["MCD"], replicates=1,
                 csv_path=str(f))
        assert f.read_text().splitlines()[1] == "MCD,2,20,0.1,0,0,nan,nan,inf,inf,1"
        monkeypatch.setattr(simlab, "run_estimator", raising(TypeError("bug")))
        with pytest.raises(TypeError):
            run_grid(small_cells(ks=(0,)), estimator_ids=["MCD"], replicates=1)


class TestAggregate:
    def test_single_record(self):
        rec = BiasRecord("SCOV", 2, 20, 0.1, 0, 0, 4.0, 1.0, 4.0, 4.0, False)
        row = aggregate([rec])[0]
        assert row.b_hat_log == pytest.approx(np.log(4.0))
        assert row.failures == 0

    def test_median_vs_mean(self):
        recs = [BiasRecord("SCOV", 2, 20, 0.1, 0, r, b, 1.0, b, b, False)
                for r, b in enumerate([1.0, 100.0, 1.0])]
        med = aggregate(recs, measure="median")[0]
        mean = aggregate(recs, measure="mean")[0]
        assert med.b_hat_log == pytest.approx(np.log(1.0))
        assert mean.b_hat_log == pytest.approx(np.log(34.0))

    def test_max_over_k(self):
        recs = [BiasRecord("SCOV", 2, 20, 0.1, k, 0, b, 1.0, b, b, False)
                for k, b in [(0, 2.0), (5, 8.0), (25, 3.0)]]
        row = aggregate(recs)[0]
        assert row.b_hat_log == pytest.approx(np.log(8.0))

    def test_median_stable_under_single_flagged(self):
        recs = [BiasRecord("SCOV", 2, 20, 0.1, 0, r, 2.0, 0.5, 2.0, 4.0, False)
                for r in range(5)]
        spoiled = recs + [BiasRecord("SCOV", 2, 20, 0.1, 0, 5, np.inf, 0.0,
                                     np.inf, np.inf, True)]
        assert aggregate(recs)[0].b_hat_log == pytest.approx(
            aggregate(spoiled)[0].b_hat_log)
        assert aggregate(spoiled)[0].failures == 1

    def test_scov_population_oracle(self):
        # Mixture covariance at p=2, eps=0.1, k=25: top eigenvalue
        # 0.9 + 0.09 * 1250 = 113.4; the empirical median log b at n=1000
        # must sit within 0.15 of its log.
        cells = [ContaminationSpec(p=2, n=1000, epsilon=0.1, k=25, seed=123)]
        recs = run_grid(cells, estimator_ids=["SCOV"], replicates=20)
        med = np.median([r.b for r in recs])
        assert np.log(med) == pytest.approx(np.log(113.4), abs=0.15)


class TestEfficiency:
    def test_scov_is_one(self):
        recs = [BiasRecord("SCOV", 2, 50, 0.0, 0, r, 1.5, 0.9, 1.67, 1.67,
                           False) for r in range(5)]
        assert efficiency(recs, "SCOV") == 1.0

    def test_ratio(self):
        recs = []
        for r in range(6):
            recs.append(BiasRecord("SCOV", 2, 50, 0.0, 0, r, 4.0, 1.0, 4.0,
                                   4.0, False))
            recs.append(BiasRecord("MM", 2, 50, 0.0, 0, r, 2.0, 1.0, 2.0, 2.0,
                                   False))
        assert efficiency(recs, "MM") == pytest.approx(2.0)


class TestEfficiencyAcrossDimensions:
    def test_bisquare_s_efficiency_grows_with_dimension(self):
        # In higher dimension the bisquare S weights flatten and the
        # estimator approaches the sample covariance.
        effs = {}
        for p in (2, 10):
            cells = [ContaminationSpec(p=p, n=50, epsilon=0.0, k=0, seed=1)]
            recs = run_grid(cells, estimator_ids=["SCOV", "SE"],
                            replicates=25)
            effs[p] = efficiency(recs, "SE")
        assert effs[10] > effs[2]


class TestBoxplotStats:
    def test_degenerate(self):
        s = boxplot_stats([3.0] * 7)
        assert s["median"] == s["q1"] == s["q3"] == 3.0
        assert s["whisker_low"] == s["whisker_high"] == 3.0
        assert s["outliers"] == []

    def test_interpolated_quartiles(self):
        s = boxplot_stats(list(range(1, 10)))
        assert s["median"] == 5.0
        assert s["q1"] == 3.0
        assert s["q3"] == 7.0

    def test_symmetric(self):
        s = boxplot_stats([-3, -2, -1, 0, 1, 2, 3])
        assert s["median"] == 0.0
        assert s["q1"] == -s["q3"]

    def test_outliers(self):
        s = boxplot_stats([1, 2, 3, 4, 100])
        assert 100.0 in s["outliers"]
        assert s["whisker_high"] <= 4.0
