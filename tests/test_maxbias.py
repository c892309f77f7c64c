import io
import math

import numpy as np
import pytest

from depthlab.maxbias import (
    BETA,
    CURVES,
    SQRT_BETA,
    DivergenceError,
    curve_table,
    g_function,
    ls2_aux_h,
    ls2_breakdown,
    ls2_contaminated_quantile,
    ls2_gain,
    ls2_peak_location,
    pointmass_depth_limit,
    regdepth_maxbias,
    scatter_breakdown,
    scatter_eigen_bounds,
    scatter_explosion_excess,
    scatter_implosion_deficit,
    scatter_maxbias,
    tukey_median_maxbias,
    univ_median_maxbias,
    write_curve_csv,
)
from depthlab.numerics import std_normal_cdf


def quantile_oracle(q):
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLocationCurves:
    def test_zero_contamination(self):
        assert tukey_median_maxbias(0.0) == 0.0
        assert univ_median_maxbias(0.0) == 0.0

    def test_tukey_at_ten_percent(self):
        expected = quantile_oracle(1.1 / 1.8)
        assert tukey_median_maxbias(0.1) == pytest.approx(expected, abs=1e-10)
        assert tukey_median_maxbias(0.1) == pytest.approx(0.2822, abs=5e-4)

    def test_tukey_divergence(self):
        assert tukey_median_maxbias(1 / 3 - 1e-6) > 4.0
        with pytest.raises(DivergenceError):
            tukey_median_maxbias(1 / 3)
        with pytest.raises(DivergenceError):
            tukey_median_maxbias(0.4)

    def test_univ_median_at_twenty_percent(self):
        expected = quantile_oracle(0.625)
        assert univ_median_maxbias(0.2) == pytest.approx(expected, abs=1e-10)
        assert univ_median_maxbias(0.2) == pytest.approx(0.3186, abs=5e-4)

    def test_univ_median_domain(self):
        with pytest.raises(DivergenceError):
            univ_median_maxbias(0.5)

    def test_median_bound_below_tukey_bound(self):
        for eps in np.linspace(0.01, 0.33, 12):
            assert univ_median_maxbias(eps) < tukey_median_maxbias(eps)


class TestScatterCurves:
    def test_eigen_bounds_at_zero(self):
        pair = scatter_eigen_bounds(0.0)
        assert pair.l1 == pytest.approx(BETA, abs=1e-12)
        assert pair.lp == pytest.approx(BETA, abs=1e-12)
        assert pair.beta == pytest.approx(0.6744897501960817 ** 2, abs=1e-15)

    def test_eigen_bounds_at_ten_percent(self):
        pair = scatter_eigen_bounds(0.1)
        assert pair.l1 == pytest.approx(quantile_oracle(2.9 / 3.6) ** 2, abs=1e-9)
        assert pair.lp == pytest.approx(quantile_oracle(2.5 / 3.6) ** 2, abs=1e-9)

    def test_eigen_bounds_ordering(self):
        for eps in np.linspace(0.0, 0.33, 15):
            pair = scatter_eigen_bounds(eps)
            assert pair.lp <= pair.beta <= pair.l1

    def test_implosion_at_breakdown(self):
        assert scatter_eigen_bounds(1 / 3 - 1e-9).lp < 1e-15

    def test_envelope_anchor_and_growth(self):
        assert scatter_maxbias(0.0) == pytest.approx(1.0, abs=1e-12)
        # Frozen from the quantile oracle: max(0.86163/0.67449, 0.67449/0.50841).
        assert scatter_maxbias(0.1) == pytest.approx(1.3264613359406823, abs=1e-10)
        assert scatter_maxbias(0.3) > 5.0

    def test_envelope_equals_eigen_ratio_identity(self):
        for eps in np.linspace(0.0, 0.32, 20):
            pair = scatter_eigen_bounds(eps)
            expected = max(math.sqrt(pair.l1) / SQRT_BETA,
                           SQRT_BETA / math.sqrt(pair.lp))
            assert scatter_maxbias(eps) == expected

    def test_excess_curves_zero_at_origin(self):
        assert scatter_explosion_excess(0.0) == pytest.approx(0.0, abs=1e-12)
        assert scatter_implosion_deficit(0.0) == pytest.approx(0.0, abs=1e-12)
        assert scatter_implosion_deficit(0.2) <= scatter_explosion_excess(0.2)

    def test_divergence_near_one_third(self):
        assert scatter_maxbias(1 / 3 - 1e-6) > 1e3
        with pytest.raises(DivergenceError):
            scatter_maxbias(1 / 3)

    def test_breakdown_point(self):
        assert scatter_breakdown() == pytest.approx(1 / 3, abs=0)

    def test_pointmass_depth_limit(self):
        for eps in (0.1, 0.2, 0.4):
            assert pointmass_depth_limit(eps) == pytest.approx(
                min(eps, 1 - eps), abs=1e-3)
        # eps = 0.4 already exceeds the deepest-possible cap (1-eps)/2 = 0.3,
        # so exploding fits are depth-competitive: breakdown at 1/3.
        assert pointmass_depth_limit(0.4) > (1 - 0.4) / 2


class TestGFunction:
    def test_at_zero(self):
        assert g_function(0.0) == 0.5

    def test_monte_carlo_oracle(self):
        gen = np.random.default_rng(123)
        z = np.abs(gen.standard_normal(10_000_000))
        mc = float(np.mean(std_normal_cdf(1.0 * z)))
        assert g_function(1.0) == pytest.approx(mc, abs=1e-3)
        assert g_function(1.0) == pytest.approx(0.75, abs=1e-3)

    def test_saturation(self):
        assert g_function(1e6) == pytest.approx(1.0, abs=1e-6)

    def test_monotone(self):
        ts = np.linspace(0, 5, 30)
        vals = [g_function(t) for t in ts]
        assert np.all(np.diff(vals) > 0)

    def test_arcsine_identity(self):
        # Sign-agreement probability of a correlated Gaussian pair:
        # g(t) = 1/2 + arcsin(t / sqrt(1 + t^2)) / pi.
        for t in (0.2, 0.7, 1.5, 4.0, 1e3, 1e4):
            expected = 0.5 + math.asin(t / math.sqrt(1 + t * t)) / math.pi
            assert g_function(t) == pytest.approx(expected, abs=1e-10)


class TestRegressionMaxbias:
    def test_zero(self):
        assert regdepth_maxbias(0.0) == 0.0

    def test_orthant_oracle(self):
        # b solves sign-agreement target with rho = b / sqrt(1 + b^2).
        for eps in (0.05, 0.1, 0.2, 0.3):
            target = (1 + eps) / (2 * (1 - eps))
            b = regdepth_maxbias(eps)
            rho = b / math.sqrt(1 + b * b)
            assert 0.5 + math.asin(rho) / math.pi == pytest.approx(target, abs=1e-6)

    def test_monotone(self):
        assert regdepth_maxbias(0.2) > regdepth_maxbias(0.1)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            regdepth_maxbias(1 / 3)

    def test_near_breakdown(self):
        # arctan(b) = pi eps / (1 - eps) reaches pi/2 at eps = 1/3, so
        # b (9 pi / 4) (1/3 - eps) -> 1 and the curve keeps rising.
        eps = [1 / 3 - 10.0 ** -k for k in range(1, 13)]
        b = [regdepth_maxbias(e) for e in eps]
        assert all(lo < hi for lo, hi in zip(b, b[1:]))
        for k in range(4, 9):
            ratio = b[k - 1] * (9 * math.pi / 4) * 10.0 ** -k
            assert ratio == pytest.approx(1.0, abs=1e-3)


class TestLocScaleBreakdown:
    def test_aux_h_vanishes_on_diagonal(self):
        for v in (-1.0, 0.0, 2.0):
            assert ls2_aux_h(v, v) == pytest.approx(0.0, abs=1e-15)

    def test_peak_location_matches_golden_section(self):
        # Extended precision sidesteps the sqrt(eps) plateau of
        # derivative-free maximization near a smooth peak.
        import mpmath

        mpmath.mp.dps = 30

        def golden_max(f, lo, hi, iters=150):
            phi = (mpmath.sqrt(5) - 1) / 2
            a, b = mpmath.mpf(lo), mpmath.mpf(hi)
            c, d = b - phi * (b - a), a + phi * (b - a)
            for _ in range(iters):
                if f(c) > f(d):
                    b, d = d, c
                    c = b - phi * (b - a)
                else:
                    a, c = c, d
                    d = a + phi * (b - a)
            return float((a + b) / 2)

        for y0 in (-2.0, -1.0, -0.3):
            oracle = golden_max(
                lambda x: mpmath.ncdf(x) - mpmath.ncdf((y0 + x) / 2), 0.0, 10.0)
            assert ls2_peak_location(y0) == pytest.approx(oracle, abs=1e-8)

    def test_peak_value_symbolic_substitution(self):
        six_ln2 = 6 * math.log(2)
        for y0 in (-2.0, -0.8):
            root = math.sqrt(y0 * y0 + six_ln2)
            direct = (std_normal_cdf(y0 / 3 + 2 / 3 * root)
                      - std_normal_cdf(2 / 3 * y0 + 1 / 3 * root))
            assert ls2_aux_h(ls2_peak_location(y0), y0) == pytest.approx(
                direct, abs=1e-12)

    def test_gain_strictly_decreasing(self):
        grid = np.arange(0.05, 0.305, 0.025)
        vals = [ls2_gain(d) for d in grid]
        assert np.all(np.diff(vals) < 0)

    def test_fixed_point(self):
        eps0 = ls2_breakdown()
        assert 0.2 < eps0 < 0.25
        assert abs(ls2_gain(eps0) - eps0) < 1e-9

    def test_fixed_point_against_mpmath_oracle(self):
        import mpmath

        mpmath.mp.dps = 30

        def gain(d):
            y = mpmath.sqrt(2) * mpmath.erfinv(2 * (d / (1 - d)) - 1)
            m = (y + 2 * mpmath.sqrt(y * y + 6 * mpmath.log(2))) / 3
            h = mpmath.ncdf(m) - mpmath.ncdf((y + m) / 2)
            return (1 - d) * h

        lo, hi = mpmath.mpf("0.01"), mpmath.mpf(1) / 3 - mpmath.mpf("0.001")
        for _ in range(80):
            mid = (lo + hi) / 2
            if gain(mid) > mid:
                lo = mid
            else:
                hi = mid
        assert ls2_breakdown() == pytest.approx(float((lo + hi) / 2), abs=1e-9)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            ls2_contaminated_quantile(0.5)


class TestCurveTables:
    def test_tukey_grid(self):
        curve = curve_table("tukey", np.arange(0.0, 0.301, 0.05))
        assert curve.values.shape == (7,)
        assert np.all(np.isfinite(curve.values))
        assert np.all(np.diff(curve.values) >= 0)

    def test_scatter_anchor(self):
        curve = curve_table("scatter-envelope", np.array([0.0, 0.1]))
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_outside_domain(self):
        with pytest.raises(DivergenceError):
            curve_table("scatter-envelope", np.arange(0.0, 0.351, 0.05))

    def test_known_curve_ids(self):
        assert {"tukey", "univ-median", "scatter-envelope", "scatter-excess",
                "regression"} <= set(CURVES)
        with pytest.raises(KeyError):
            curve_table("nope", np.array([0.1]))

    def test_csv_roundtrip(self):
        curve = curve_table("regression", np.array([0.05, 0.1, 0.2]))
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "epsilon,value,curve_id"
        assert lines[-1].startswith("# breakdown=")
        assert len(lines) == 5
        eps, val, cid = lines[1].split(",")
        assert cid == "regression"
        assert float(val) == pytest.approx(curve.values[0], rel=1e-9)
