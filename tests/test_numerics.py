import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab.estimators import rho_rocke, rocke_gamma
from depthlab.numerics import (
    RngStream,
    SpdMatrix,
    m_scale,
    mahalanobis_sq,
    std_normal_cdf,
    std_normal_quantile,
    sym_eigen,
    unit_directions,
)


def quantile_by_bisection(q, lo=-40.0, hi=40.0):
    """Independent oracle: bisection on the CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_third_quartile(self):
        # Phi(0.6745) should be 3/4 to the precision of the rounded quantile.
        assert std_normal_cdf(0.6745) == pytest.approx(0.75, abs=1e-4)

    def test_against_high_precision_erf(self):
        import mpmath

        mpmath.mp.dps = 40
        x = 1.959964
        expected = float(0.5 * (1 + mpmath.erf(x / mpmath.sqrt(2))))
        assert std_normal_cdf(x) == pytest.approx(expected, abs=1e-14)
        assert std_normal_cdf(x) == pytest.approx(0.975, abs=2e-8)

    @given(st.floats(min_value=-8, max_value=8))
    def test_reflection(self, x):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-14)

    def test_monotone_and_saturating(self):
        xs = np.linspace(-45, 45, 301)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_third_quartile(self):
        assert std_normal_quantile(0.75) == pytest.approx(0.6745, abs=5e-5)

    def test_against_bisection_oracle(self):
        assert std_normal_quantile(0.975) == pytest.approx(
            quantile_by_bisection(0.975), abs=1e-12)
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    @given(st.floats(min_value=1e-10, max_value=1 - 1e-10))
    @settings(max_examples=200)
    def test_roundtrip(self, q):
        assert std_normal_cdf(std_normal_quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_odd_around_half(self):
        for q in (0.6, 0.9, 0.999):
            assert std_normal_quantile(q) == pytest.approx(
                -std_normal_quantile(1 - q), abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.4, float("nan")])
    def test_domain_errors(self, q):
        with pytest.raises(ValueError):
            std_normal_quantile(q)


class TestSymEigen:
    def test_identity(self):
        vals, _ = sym_eigen(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])

    def test_diagonal(self):
        vals, vecs = sym_eigen(np.diag([4.0, 1.0]))
        assert np.allclose(vals, [4.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_two_by_two_hand_solution(self):
        # Characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0.
        vals, vecs = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(vals, [3.0, 1.0])
        s = 1 / math.sqrt(2)
        assert np.allclose(np.abs(vecs[:, 0]), [s, s])
        assert np.allclose(np.abs(vecs[:, 1]), [s, s])
        assert vecs[0, 1] * vecs[1, 1] < 0

    def test_residual_and_invariants_random_spd(self):
        gen = np.random.default_rng(42)
        for p in (2, 5, 9, 15):
            a = gen.standard_normal((p, p))
            spd = a @ a.T + 0.5 * np.eye(p)
            vals, vecs = sym_eigen(spd)
            assert np.all(np.diff(vals) <= 0)
            resid = spd @ vecs - vecs * vals
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(spd)
            assert np.trace(spd) == pytest.approx(vals.sum(), rel=1e-8)
            assert np.linalg.det(spd) == pytest.approx(np.prod(vals), rel=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestMahalanobis:
    def test_zero_at_center(self):
        assert mahalanobis_sq([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0

    def test_unit_sphere(self):
        assert mahalanobis_sq([1.0, 0.0], [0.0, 0.0], np.eye(2)) == pytest.approx(1.0)

    def test_diagonal_weights(self):
        # 4/4 + 4/1
        d = mahalanobis_sq([2.0, 2.0], [0.0, 0.0], np.diag([4.0, 1.0]))
        assert d == pytest.approx(5.0, rel=1e-12)

    def test_affine_invariance(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal(3)
        mu = gen.standard_normal(3)
        a = gen.standard_normal((3, 3)) + 3 * np.eye(3)
        b = gen.standard_normal(3)
        sigma = np.eye(3) * 2.0
        d1 = mahalanobis_sq(x, mu, sigma)
        d2 = mahalanobis_sq(a @ x + b, a @ mu + b, a @ sigma @ a.T)
        assert d1 == pytest.approx(d2, rel=1e-8)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            mahalanobis_sq([1.0, 0.0], [0.0, 0.0], np.diag([1.0, 0.0]))


def rho_bisquare(t):
    t = np.asarray(t, dtype=float)
    return np.where(t >= 1.0, 1.0, 1.0 - (1.0 - np.minimum(t, 1.0)) ** 3)


class TestMScale:
    def test_constant_residuals_scalar_equation(self):
        # All d_i = c: the equation collapses to rho(c / s) = delta.
        c, delta = 2.0, 0.3
        t = 1.0 - (1.0 - delta) ** (1.0 / 3.0)  # rho^{-1}(delta) for bisquare
        s = m_scale(np.full(7, c), rho_bisquare, delta)
        assert s == pytest.approx(c / t, rel=1e-10)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, t):
        gen = np.random.default_rng(11)
        d = gen.chisquare(3, size=40)
        s1 = m_scale(d, rho_bisquare, 0.5)
        s2 = m_scale(t * d, rho_bisquare, 0.5)
        assert s2 == pytest.approx(t * s1, rel=1e-9)

    def test_residual_of_solution(self):
        d = np.ones(13)
        s = m_scale(d, rho_bisquare, 0.5)
        assert abs(np.mean(rho_bisquare(d / s)) - 0.5) <= 1e-10

    def test_too_many_zeros(self):
        d = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            m_scale(d, rho_bisquare, 0.5)


def m_scale_reference(d, rho, delta):
    """:func:`m_scale` evaluating f at every bracket step and every
    midpoint: the reference of its settled-sign shortcut."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("d must be a nonempty 1-d array")
    if np.any(d < 0.0) or np.any(~np.isfinite(d)):
        raise ValueError("residuals must be finite and nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    n = d.size
    nonzero = d[d > 0.0]
    if nonzero.size / n <= delta:
        raise ValueError(
            "m_scale has no root: fraction of zero residuals >= 1 - delta"
        )

    def f(s):
        return float(np.mean(rho(d / s))) - delta

    s_lo = s_hi = float(np.median(nonzero))
    if s_lo <= 0.0:
        s_lo = s_hi = float(np.mean(nonzero))
    for _ in range(200):
        if f(s_lo) > 0.0:
            break
        s_lo *= 0.5
    for _ in range(200):
        if f(s_hi) < 0.0:
            break
        s_hi *= 2.0
    if not (f(s_lo) > 0.0 > f(s_hi)):
        raise ValueError("m_scale failed to bracket a root")
    for _ in range(200):
        s_mid = 0.5 * (s_lo + s_hi)
        if f(s_mid) > 0.0:
            s_lo = s_mid
        else:
            s_hi = s_mid
        if (s_hi - s_lo) <= 1e-12 * s_hi:
            break
    return 0.5 * (s_lo + s_hi)


class CountingRho:
    def __init__(self, rho):
        self.rho, self.calls = rho, 0

    def __call__(self, t):
        self.calls += 1
        return self.rho(t)


def rho_rocke_at(p):
    gamma = rocke_gamma(p)
    return lambda t: rho_rocke(t, gamma)


def m_scale_cases(seed):
    """Residuals at n = 20, 50, 200 and scales 1e-3 to 1e3: chi-square
    draws at p = 2 and 5, with zeros, a point mass, or integer ties."""
    gen = np.random.default_rng(seed)
    for n in (20, 50, 200):
        for p in (2, 5):
            for scale in 10.0 ** np.arange(-3, 4):
                d = gen.chisquare(p, size=n)
                yield d * scale
                zeros = d.copy()
                zeros[: int(gen.uniform(0.1, 0.55) * n)] = 0.0
                yield zeros * scale
                mass = d.copy()
                mass[: int(0.4 * n)] = gen.uniform(2.0, 50.0) * p
                yield mass * scale
                yield np.round(d) * scale


class TestMScaleExact:
    RHOS = {"bisquare": rho_bisquare, "rocke2": rho_rocke_at(2),
            "rocke5": rho_rocke_at(5),
            # Non-monotone below the settle margin of 1e-12: the wiggle
            # turns over each time t moves by about 1e-13.
            "wiggly": lambda t: rho_bisquare(t) + 1e-13 * np.sin(1e13 * t)}

    @staticmethod
    def outcome(solver, d, rho, delta):
        try:
            return solver(d, rho, delta)
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("name", sorted(RHOS))
    def test_equals_reference(self, name):
        fast, full = CountingRho(self.RHOS[name]), CountingRho(self.RHOS[name])
        raised = 0
        for d in m_scale_cases(len(name)):
            want = self.outcome(m_scale_reference, d, full, 0.5)
            assert self.outcome(m_scale, d, fast, 0.5) == want
            raised += isinstance(want, str)
        assert 0 < raised < 100
        # The shortcut is why the solver exists: under half the evaluations.
        assert fast.calls < 0.5 * full.calls

    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.7])
    def test_other_breakdown_points(self, delta):
        for d in m_scale_cases(7):
            assert (self.outcome(m_scale, d, rho_bisquare, delta)
                    == self.outcome(m_scale_reference, d, rho_bisquare, delta))


class TestDirections:
    def test_one_dimensional_signs(self):
        u = unit_directions(64, 1, RngStream(5))
        assert set(np.round(u[:, 0], 12)) <= {1.0, -1.0}

    def test_unit_norms(self):
        u = unit_directions(1000, 3, RngStream(6))
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = unit_directions(100, 4, RngStream(7, (1, 2)))
        b = unit_directions(100, 4, RngStream(7, (1, 2)))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = unit_directions(100, 4, RngStream(7).child(1))
        b = unit_directions(100, 4, RngStream(7).child(2))
        assert not np.array_equal(a, b)

    def test_mean_direction_concentration(self):
        # E ||mean|| ~ 1/sqrt(count); 5/sqrt(count) is a ~5 sigma bound.
        count = 1000
        fails = 0
        for seed in range(50):
            u = unit_directions(count, 3, RngStream(seed))
            if np.linalg.norm(u.mean(axis=0)) > 5.0 / math.sqrt(count):
                fails += 1
        assert fails == 0


class TestSpdMatrix:
    def test_reconstruction(self):
        gen = np.random.default_rng(9)
        a = gen.standard_normal((4, 4))
        spd = SpdMatrix.from_matrix(a @ a.T + 0.1 * np.eye(4))
        rebuilt = (spd.eigenvectors * spd.eigenvalues) @ spd.eigenvectors.T
        err = np.linalg.norm(rebuilt - spd.entries) / np.linalg.norm(spd.entries)
        assert err <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SpdMatrix.from_matrix(np.diag([1.0, -0.5]))
