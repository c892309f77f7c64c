import importlib.util
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from depthlab import estimators
from depthlab.estimators import (
    _CSTEPS,
    _SUBSETS,
    ESTIMATOR_IDS,
    EstimatorResult,
    _bisquare_scale_constant,
    _chi2_reweight,
    _chol_gate,
    _is_singular,
    _mean_cov,
    _median_distance_rescale,
    _rocke_scale_constant,
    mcd,
    mdepth_estimator,
    mm,
    mve,
    rho_bisquare,
    rho_rocke,
    rho_shr,
    rocke,
    rocke_gamma,
    run_estimator,
    s_bisquare,
    scov,
    shr_mid_polynomial,
    stahel_donoho,
    weight_rocke,
    weight_shr,
)
from depthlab.deepest import SearchConfig, deepest_scatter
from depthlab.maxbias import BETA, scatter_eigen_bounds
from depthlab.numerics import RngStream, _mahal_sq, _mahal_sq_stack
from depthlab.simlab import (ContaminationSpec, _estimator_stream_key,
                             _one_replicate, gen_contaminated, replicate_seed)


def bias_b(result):
    vals = np.linalg.eigvalsh(result.scatter)
    return max(vals[-1], 1.0 / vals[0])


def quad_mean_rho(rho, p, s, lo, hi):
    """E rho(chi2_p / s) for rho = 0 below the band (lo, hi] and 1 above it,
    by tight adaptive quadrature over the band."""
    band, _ = quad(lambda d: float(rho(d / s)) * stats.chi2.pdf(d, p),
                   s * lo, s * hi, epsabs=1e-15, epsrel=1e-13, limit=200)
    return band + stats.chi2.sf(s * hi, p)


def scale_constant_reference(p, lo, hi, coefs):
    """The consistency constant of :func:`estimators._scale_constant`, with
    all 200 halvings run: the reference of its stop at a fixed point."""
    def mean_rho(s):
        a, b = s * lo, s * hi
        total = 0.0
        for k, c in enumerate(coefs):
            prod = math.prod(range(p, p + 2 * k, 2))
            mass = stats.chi2.cdf(b, p + 2 * k) - stats.chi2.cdf(a, p + 2 * k)
            total += c * (prod * mass) / s ** k
        return total + (1.0 - stats.chi2.cdf(b, p))

    s_lo, s_hi = 1e-6, 10.0 * p
    while mean_rho(s_hi) > 0.5:
        s_hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (s_lo + s_hi)
        if mean_rho(mid) > 0.5:
            s_lo = mid
        else:
            s_hi = mid
    return 0.5 * (s_lo + s_hi)


class TestConsistencyConstants:
    @pytest.mark.parametrize("p", range(1, 16))
    def test_equal_full_bisection(self, monkeypatch, p):
        got = (_bisquare_scale_constant(p), _rocke_scale_constant(p))
        monkeypatch.setattr(estimators, "_scale_constant",
                            scale_constant_reference)
        assert (_bisquare_scale_constant(p), _rocke_scale_constant(p)) == got

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 15])
    def test_constants_solve_half(self, p):
        s = _bisquare_scale_constant(p)
        assert abs(quad_mean_rho(rho_bisquare, p, s, 0.0, 1.0) - 0.5) <= 1e-12
        g = rocke_gamma(p)
        s = _rocke_scale_constant(p)
        assert abs(quad_mean_rho(lambda t: rho_rocke(t, g), p, s,
                                 1.0 - g, 1.0 + g) - 0.5) <= 1e-12


class TestScov:
    def test_two_points(self):
        res = scov(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(res.location, [1.0, 0.0])
        assert np.allclose(res.scatter, np.diag([1.0, 0.0]))
        assert res.singular

    def test_shift_invariance(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((50, 3))
        a = scov(x).scatter
        b = scov(x + np.array([5.0, -2.0, 9.0])).scatter
        assert np.allclose(a, b, atol=1e-12)

    def test_gaussian_consistency(self):
        gen = np.random.default_rng(1)
        x = gen.standard_normal((10_000, 2))
        res = scov(x)
        assert np.linalg.norm(res.scatter - np.eye(2), ord=2) <= 0.1


class TestMve:
    def test_scale_and_shape_recovery(self):
        # Elliptically shaped Gaussian data: the minimum half-mass ellipsoid
        # is uniquely the Mahalanobis ball, so the covering volume is
        # recovered within 10 percent.  The shape itself carries the
        # n^{-1/3} noise of the volume criterion, so it only gets a loose
        # bound.  (Data exactly on a ring are not identifiable: half the
        # ring fits in an arbitrarily thin sliver.)
        a = np.array([[3.0, 0.0], [0.0, 1.0]])
        target = a @ a.T / np.linalg.det(a @ a.T) ** 0.5
        for seed in range(4):
            gen = np.random.default_rng(100 + seed)
            x = gen.standard_normal((2000, 2)) @ a.T
            res = mve(x, rng=RngStream(seed))
            vol_ratio = (np.linalg.det(res.scatter) / np.linalg.det(a @ a.T)) ** 0.5
            assert 0.9 <= vol_ratio <= 1.1
            shape = res.scatter / np.linalg.det(res.scatter) ** 0.5
            err = np.linalg.norm(shape - target, ord=2) / np.linalg.norm(
                target, ord=2)
            assert err <= 0.4

    def test_h_coverage(self):
        from scipy import stats

        gen = np.random.default_rng(4)
        x = gen.standard_normal((60, 2))
        res = mve(x, rng=RngStream(5))
        d = _mahal_sq(x, res.location, res.scatter)
        c2 = stats.chi2.ppf(res.extras["h"] / 60, 2)
        assert np.sum(d <= c2 * (1 + 1e-9)) >= res.extras["h"]

    def test_translation_equivariance_matched_seed(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((40, 2))
        shift = np.array([100.0, -50.0])
        r1 = mve(x, rng=RngStream(7))
        r2 = mve(x + shift, rng=RngStream(7))
        assert np.allclose(r1.location + shift, r2.location, atol=1e-8)
        assert np.allclose(r1.scatter, r2.scatter, atol=1e-8)


def mve_reference(data, rng):
    """MVE with each start scored in a loop of its own: the reference of the
    stacked elemental stage of :func:`mve`."""
    x = np.asarray(data, dtype=float)
    n, p = x.shape
    if n <= p + 1:
        raise ValueError("need n > p + 1")
    gen = rng.generator()
    h = (n + p + 1) // 2
    c2 = stats.chi2.ppf(h / n, p)

    def coverage(mu, cov):
        chol = _chol_gate(cov)
        if chol is None:
            return None
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        d = _mahal_sq(x, mu, cov)
        if d is None:
            return None
        m2 = float(np.partition(d, h - 1)[h - 1])
        if m2 <= 0.0:
            return None
        return logdet + p * np.log(m2), m2, d

    cands = []
    for _ in range(_SUBSETS):
        idx = gen.choice(n, size=p + 1, replace=False)
        mu, cov = _mean_cov(x[idx])
        got = coverage(mu, cov)
        if got is None:
            continue
        cands.append((got[0], got[1], mu, cov, got[2]))
    if not cands:
        raise ValueError("all elemental subsets were degenerate")
    cands.sort(key=lambda c: c[0])
    best = None
    for logvol, m2, mu, cov, d in cands[:10]:
        steps = 0
        for _ in range(10):
            keep = np.argpartition(d, h - 1)[:h]
            mu_new, cov_new = _mean_cov(x[keep])
            got = coverage(mu_new, cov_new)
            if got is None or got[0] >= logvol - 1e-12:
                break
            logvol, m2, d = got
            mu, cov = mu_new, cov_new
            steps += 1
        if best is None or logvol < best[0]:
            best = (logvol, mu, cov * (m2 / c2), steps)
    _, mu, cov, steps = best
    cov = _median_distance_rescale(x, mu, cov)
    mu, cov = _chi2_reweight(x, mu, cov)
    return EstimatorResult("MVE", mu, 0.5 * (cov + cov.T), iterations=_SUBSETS,
                           singular=_is_singular(cov),
                           extras={"h": h, "kept": len(cands),
                                   "refine_steps": steps})


def assert_mve_matches_reference(x, rng):
    """Every output of :func:`mve` equals the reference's, or both raise the
    same error; returns the fit."""
    def outcome(fit):
        try:
            return fit(x, rng=rng)
        except ValueError as exc:
            return str(exc)

    want, got = outcome(mve_reference), outcome(mve)
    if isinstance(want, str):
        assert got == want
        return None
    assert not isinstance(got, str), got
    assert np.array_equal(got.location, want.location)
    assert np.array_equal(got.scatter, want.scatter)
    assert (got.singular, got.iterations, got.converged) == (
        want.singular, want.iterations, want.converged)
    assert got.extras == want.extras
    return got


class TestMveLockstep:
    def test_singular_start_dataset(self):
        # Replicate 1 of config seed 2001, eps 0.2, k 1: the MVE start that
        # flags MVE, SE, ROCKE and MM.  Each estimator draws its MVE from its
        # own stream: SE and ROCKE through child(1), MM through its S start.
        streams = {}
        for eid in ("MVE", "SE", "ROCKE", "MM"):
            x, streams[eid] = grid_replicate(2001, 1, eid, replicate=1)
        streams["SE"] = streams["SE"].child(1)
        streams["ROCKE"] = streams["ROCKE"].child(1)
        streams["MM"] = streams["MM"].child(1).child(1)
        fits = {eid: assert_mve_matches_reference(x, rng)
                for eid, rng in streams.items()}
        assert _is_singular(fits["MVE"].scatter)
        assert all(fit.extras["kept"] < _SUBSETS for fit in fits.values())

    @pytest.mark.parametrize("eid", ["SE", "MM"])
    def test_streams_inside_s_and_mm(self, eid):
        # Replicate 0 of config seed 2004, eps 0.2, k 15 (seed 2, pass 4).
        x, rng = grid_replicate(2004, 15, eid)
        rng = rng.child(1) if eid == "SE" else rng.child(1).child(1)
        assert_mve_matches_reference(x, rng)

    @pytest.mark.parametrize("p,n,eps", [(2, 4, 0.0), (2, 20, 0.45),
                                         (2, 2000, 0.1), (3, 5, 0.0),
                                         (3, 30, 0.2), (5, 7, 0.0),
                                         (5, 50, 0.3), (5, 200, 0.2),
                                         (10, 12, 0.0), (10, 60, 0.2)])
    def test_matches_reference(self, p, n, eps):
        gen = np.random.default_rng(10 * p + n)
        x = gen.standard_normal((n, p))
        x[: int(eps * n)] = 5.0
        assert_mve_matches_reference(x, RngStream(n))

    @pytest.mark.parametrize("p,n", [(2, 20), (3, 40), (5, 50)])
    def test_integer_ties(self, p, n):
        gen = np.random.default_rng(p + n)
        x = np.round(1.5 * gen.standard_normal((n, p)))
        x[: n // 5] = 2.0
        assert_mve_matches_reference(x, RngStream(p))

    @pytest.mark.parametrize("starts", [1, 7, 64])
    def test_blocks_leave_outputs_unchanged(self, monkeypatch, starts):
        x, rng = grid_replicate(1, 5, "MVE", p=3, n=30)
        monkeypatch.setattr(estimators, "_STACK_BYTES", 8 * 30 * 3 * starts)
        assert_mve_matches_reference(x, rng)

    @pytest.mark.parametrize("x", [np.ones((20, 3)), np.zeros((10, 2)),
                                   np.tile([[0.0, 1.0], [1.0, 2.0]], (6, 1))])
    def test_degenerate_data_raise_alike(self, x):
        with pytest.raises(ValueError, match="all elemental subsets"):
            mve(x, rng=RngStream(3))
        assert_mve_matches_reference(x, RngStream(3))


def mcd_reference(data, rng):
    """Fast-MCD with each start's concentration steps in a loop of its own:
    the reference of the lockstep steps of :func:`mcd`."""
    x = np.asarray(data, dtype=float)
    n, p = x.shape
    if n <= p + 1:
        raise ValueError("need n > p + 1")
    gen = rng.generator()
    h = (n + p + 1) // 2
    best = None
    for _ in range(_SUBSETS):
        size = p + 1
        idx = gen.choice(n, size=size, replace=False)
        mu, cov = _mean_cov(x[idx])
        while _chol_gate(cov) is None and size < min(n, 4 * (p + 1)):
            size += p
            idx = gen.choice(n, size=min(size, n), replace=False)
            mu, cov = _mean_cov(x[idx])
        if _chol_gate(cov) is None:
            continue
        old_det = np.inf
        trace = []
        it = 0
        for it in range(_CSTEPS):
            d = _mahal_sq(x, mu, cov)
            if d is None:
                break
            keep = np.argpartition(d, h - 1)[:h]
            mu, cov = _mean_cov(x[keep])
            chol = _chol_gate(cov)
            if chol is None:
                break
            det = 2.0 * float(np.sum(np.log(np.diag(chol))))
            trace.append(det)
            if det >= old_det - 1e-12:
                old_det = min(det, old_det)
                break
            old_det = det
        if old_det == np.inf:
            continue
        if best is None or old_det < best[0]:
            best = (old_det, mu, cov, it + 1, trace)
    if best is None:
        raise ValueError("all MCD starts were degenerate")
    _, mu, cov, iters, det_trace = best
    alpha = h / n
    factor = stats.chi2.cdf(stats.chi2.ppf(alpha, p), p + 2) / alpha
    cov = _median_distance_rescale(x, mu, cov / factor)
    mu, cov = _chi2_reweight(x, mu, cov)
    return EstimatorResult("MCD", mu, 0.5 * (cov + cov.T), iterations=iters,
                           singular=_is_singular(cov),
                           extras={"h": h, "logdet_trace": det_trace})


def assert_mcd_matches_reference(x, rng):
    """Every output of :func:`mcd` equals the reference's, or both raise the
    same error."""
    def outcome(fit):
        try:
            res = fit(x, rng=rng)
        except ValueError as exc:
            return str(exc)
        return (res.location, res.scatter, res.iterations,
                res.extras["logdet_trace"])

    want, got = outcome(mcd_reference), outcome(mcd)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


def grid_replicate(seed, k, estimator_id="MCD", p=2, n=20, epsilon=0.2,
                   replicate=0):
    """One replicate of a simulate cell and the estimator's stream, as
    :func:`simlab._one_replicate` builds them."""
    spec = ContaminationSpec(p=p, n=n, epsilon=epsilon, k=k, seed=seed)
    rspec = replace(spec, seed=replicate_seed(spec, replicate))
    return gen_contaminated(rspec), RngStream(rspec.seed).child(
        _estimator_stream_key(estimator_id))


# Replicate 0 of the two grid_p2_n20 benchmark cells with a flagged MCD row:
# pass 4 of seed 2 (config seed 2004) at k = 15 and pass 2 of seed 4 (4002)
# at k = 25, both at epsilon = 0.2.
FLAGGED_MCD_CELLS = [(2004, 15), (4002, 25)]


class TestMcdLockstep:
    @pytest.mark.parametrize("seed,k", FLAGGED_MCD_CELLS)
    def test_flagged_benchmark_rows(self, seed, k):
        x, rng = grid_replicate(seed, k)
        (rec,) = _one_replicate((ContaminationSpec(2, 20, 0.2, k, seed),
                                 ["MCD"], 0))
        assert rec.flag
        assert_mcd_matches_reference(x, rng)

    @pytest.mark.parametrize("p,n,eps", [(2, 8, 0.0), (2, 20, 0.45),
                                         (3, 30, 0.2), (5, 50, 0.2),
                                         (10, 25, 0.2), (10, 60, 0.0)])
    def test_matches_reference(self, p, n, eps):
        gen = np.random.default_rng(100 * p + n)
        x = gen.standard_normal((n, p))
        x[: int(eps * n)] = 5.0
        assert_mcd_matches_reference(x, RngStream(n))

    @pytest.mark.parametrize("p,n", [(2, 20), (3, 40), (5, 50)])
    def test_integer_ties(self, p, n):
        gen = np.random.default_rng(p + n)
        x = np.round(1.5 * gen.standard_normal((n, p)))
        x[: n // 5] = 2.0
        assert_mcd_matches_reference(x, RngStream(p))

    @pytest.mark.parametrize("x", [np.ones((20, 3)), np.zeros((10, 2)),
                                   np.tile([[0.0, 1.0], [1.0, 2.0]], (6, 1))])
    def test_degenerate_data_raise_alike(self, x):
        with pytest.raises(ValueError, match="all MCD starts were degenerate"):
            mcd(x, rng=RngStream(3))
        assert_mcd_matches_reference(x, RngStream(3))

    def test_singular_stack_falls_back(self, monkeypatch):
        # Replicate 0 of seed 1, k = 1: one stacked solve meets an exactly
        # singular scatter and is redone one start at a time.
        raised = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(a.ndim)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        x, rng = grid_replicate(1, 1)
        assert_mcd_matches_reference(x, rng)
        assert 3 in raised

    @pytest.mark.parametrize("starts", [1, 7, 64])
    def test_blocks_leave_outputs_unchanged(self, monkeypatch, starts):
        # Blocks of 1, 7 and 64 starts: 500 starts leave a last block of 3
        # or 52 that is not full.
        x, rng = grid_replicate(1, 5, p=3, n=30)
        monkeypatch.setattr(estimators, "_STACK_BYTES", 8 * 30 * 3 * starts)
        assert_mcd_matches_reference(x, rng)

    @pytest.mark.xfail(strict=True, reason="a C-step whose covariance fails "
                       "the gate stops after overwriting the start's mean "
                       "and covariance, so the best start pairs that "
                       "rejected h-subset with the previous determinant")
    @pytest.mark.parametrize("seed,k", FLAGGED_MCD_CELLS)
    def test_raw_best_passes_gate(self, monkeypatch, seed, k):
        x, rng = grid_replicate(seed, k)
        blocks = []
        concentrate = estimators._concentrate

        def spy(*args):
            blocks.append(concentrate(*args))
            return blocks[-1]

        monkeypatch.setattr(estimators, "_concentrate", spy)
        mcd(x, rng=rng)
        best = min((b for b in blocks if b is not None), key=lambda b: b[0])
        assert _chol_gate(best[2]) is not None


def test_stacked_distances_fall_back_on_singular_scatter():
    # An exactly singular scatter makes the stacked solve raise; the others'
    # distances still equal _mahal_sq's, and the singular one is masked.
    gen = np.random.default_rng(41)
    x = gen.standard_normal((30, 3))
    mu = gen.standard_normal((4, 3))
    cov = np.stack([np.cov(gen.standard_normal((10, 3)).T) for _ in range(4)])
    cov[2] = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(cov, (x - mu[:, None, :]).transpose(0, 2, 1))
    d, ok = _mahal_sq_stack(x, mu, cov)
    assert ok.tolist() == [True, True, False, True]
    assert _mahal_sq(x, mu[2], cov[2]) is None
    for b in (0, 1, 3):
        assert np.array_equal(d[b], _mahal_sq(x, mu[b], cov[b]))
    d_ok, ok_all = _mahal_sq_stack(x, mu[ok], cov[ok])
    assert ok_all.all() and np.array_equal(d_ok, d[ok])


class TestMcd:
    def test_determinant_non_increasing(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal((80, 3))
        res = mcd(x, rng=RngStream(9))
        trace = res.extras["logdet_trace"]
        assert len(trace) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_clean_consistency(self):
        gen = np.random.default_rng(10)
        x = gen.standard_normal((1000, 2))
        res = mcd(x, rng=RngStream(11))
        assert np.linalg.norm(res.scatter - np.eye(2), ord=2) <= 0.25

    def test_ignores_far_cluster(self):
        gen = np.random.default_rng(12)
        x = gen.standard_normal((100, 2))
        x[:20] = 25.0
        res = mcd(x, rng=RngStream(13))
        assert np.linalg.eigvalsh(res.scatter)[-1] <= 2.0


class TestSBisquare:
    def test_scale_non_increasing(self):
        gen = np.random.default_rng(14)
        x = gen.standard_normal((120, 3))
        res = s_bisquare(x, rng=RngStream(15))
        trace = res.extras["scale_trace"]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(trace, trace[1:]))

    def test_clean_model_improves_on_start(self):
        gen = np.random.default_rng(16)
        x = gen.standard_normal((200, 5))
        start = mve(x, rng=RngStream(17).child(1))
        res = s_bisquare(x, rng=RngStream(17))
        d_start = np.linalg.norm(start.scatter - np.eye(5), ord=2)
        d_s = np.linalg.norm(res.scatter - np.eye(5), ord=2)
        assert d_s < d_start

    def test_bounded_under_heavy_replacement(self):
        # 45 percent replacement at n = 100 stays bounded (delta = 1/2).
        gen = np.random.default_rng(18)
        x = gen.standard_normal((100, 2))
        x[:45] = 1000.0
        res = s_bisquare(x, rng=RngStream(19))
        b = bias_b(res)
        assert np.isfinite(b) and b < 100.0


class TestRocke:
    def test_gamma_formula(self):
        # chi2_{10, 0.9} = 15.9872 from standard tables.
        assert rocke_gamma(10) == pytest.approx(15.9872 / 10 - 1, abs=5e-4)

    def test_weight_support(self):
        gamma = 0.6
        t = np.array([0.39, 0.41, 1.0, 1.59, 1.61])
        w = weight_rocke(t, gamma)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert np.all(w[1:4] > 0)
        assert w[2] == pytest.approx(1.0)

    def test_rho_anchored_at_median(self):
        for gamma in (0.3, 0.6, 1.0):
            assert rho_rocke(1.0, gamma) == pytest.approx(0.5, abs=1e-12)
            assert rho_rocke(0.0, gamma) == 0.0
            assert rho_rocke(5.0, gamma) == 1.0

    def test_high_dimension_beats_bisquare_under_contamination(self):
        gen = np.random.default_rng(20)
        n, p = 200, 10
        bias_r, bias_s = [], []
        for rep in range(3):
            x = gen.standard_normal((n, p))
            x[: int(0.2 * n)] = 8.0
            bias_r.append(bias_b(rocke(x, rng=RngStream(21 + rep))))
            bias_s.append(bias_b(s_bisquare(x, rng=RngStream(21 + rep))))
        assert np.median(bias_r) < np.median(bias_s)

    def test_slow_fit_converges_before_cap(self):
        # Replicate 0 of the cell eps = 0.1, k = 1 at seed 3000 (p = 2,
        # n = 20): the M-scale falls monotonically but contracts by only
        # about 0.94 per step, so the fit needs 216 iterations.
        spec = ContaminationSpec(p=2, n=20, epsilon=0.1, k=1, seed=3000)
        (rec,) = _one_replicate((spec, ["ROCKE"], 0))
        rspec = replace(spec, seed=replicate_seed(spec, 0))
        res = run_estimator("ROCKE", gen_contaminated(rspec),
                            RngStream(rspec.seed).child(
                                _estimator_stream_key("ROCKE")))
        assert res.converged and res.iterations > 200
        assert np.all(np.diff(res.extras["scale_trace"]) <= 0.0)
        assert not rec.flag


class TestMm:
    def test_shr_transcription(self):
        # Frozen values of the published quartic bridge; the rho is only
        # approximately continuous (3.950 vs 4 at d=4, 6.450 vs 6.494 at 9).
        assert shr_mid_polynomial(4.0) == pytest.approx(3.950, abs=1e-12)
        assert shr_mid_polynomial(9.0) == pytest.approx(6.450, abs=1e-12)
        assert abs(shr_mid_polynomial(4.0) - 4.0) <= 0.06
        assert abs(shr_mid_polynomial(9.0) - 6.494) <= 0.06

    def test_shr_weight_continuity(self):
        # The derivative is exactly continuous: s'(4) = 1, s'(9) = 0.
        assert weight_shr(4.0 - 1e-12) == pytest.approx(weight_shr(4.0 + 1e-12),
                                                        abs=1e-9)
        assert weight_shr(9.0) == pytest.approx(0.0, abs=1e-12)
        assert rho_shr(20.0) == 1.0

    def test_objective_non_increasing(self):
        gen = np.random.default_rng(22)
        x = gen.standard_normal((150, 2))
        res = mm(x, rng=RngStream(23))
        trace = res.extras["objective_trace"]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(trace, trace[1:]))

    def test_extras_record_s_start(self):
        gen = np.random.default_rng(27)
        clean = gen.standard_normal((60, 2))
        dirty = clean.copy()
        dirty[:12] = [6.0, -6.0]
        for x in (clean, dirty):
            rng = RngStream(28)
            start = s_bisquare(x, rng=rng.child(1))
            extras = mm(x, rng=rng).extras
            assert extras["s_start_converged"] is start.converged
            assert extras["s_start_iterations"] == start.iterations

    def test_clean_model_efficiency(self):
        # Quick version of the benchmark efficiency at p=2, n=50.
        gen = np.random.default_rng(24)
        logs_scov, logs_mm = [], []
        for rep in range(40):
            x = gen.standard_normal((50, 2))
            vals = np.linalg.eigvalsh(scov(x).scatter)
            logs_scov.append(np.log(vals[-1] / vals[0]))
            vals = np.linalg.eigvalsh(mm(x, rng=RngStream(600 + rep)).scatter)
            logs_mm.append(np.log(vals[-1] / vals[0]))
        eff = np.mean(logs_scov) / np.mean(logs_mm)
        assert eff >= 0.85


class TestStahelDonoho:
    def test_gross_outlier_weight(self):
        gen = np.random.default_rng(25)
        x = gen.standard_normal((50, 2))
        x[0] = [1e6, 1e6]
        res = stahel_donoho(x, rng=RngStream(26))
        assert res.extras["weights"][0] <= 1e-6

    def test_clean_close_to_scov(self):
        gen = np.random.default_rng(27)
        x = gen.standard_normal((1000, 2))
        res = stahel_donoho(x, rng=RngStream(28))
        assert np.all(res.extras["weights"] <= 1.0)
        assert np.all(res.extras["weights"] > 0.0)
        assert np.linalg.norm(res.scatter - scov(x).scatter, ord=2) <= 0.2

    def test_outlyingness_monotone_in_directions(self):
        gen = np.random.default_rng(29)
        x = gen.standard_normal((120, 3))
        t_small = stahel_donoho(x, dirs=100, rng=RngStream(30)).extras[
            "outlyingness"]
        t_large = stahel_donoho(x, dirs=3000, rng=RngStream(30)).extras[
            "outlyingness"]
        # The larger pool contains the smaller one's seeded prefix.
        assert np.all(t_large >= t_small - 1e-12)


class TestMdepth:
    def test_clean_consistency(self):
        gen = np.random.default_rng(31)
        x = gen.standard_normal((1200, 2))
        res = mdepth_estimator(x, rng=RngStream(32))
        assert np.linalg.norm(res.scatter - np.eye(2), ord=2) <= 0.25
        assert res.extras["normalization"] == pytest.approx(BETA)

    def test_contaminated_explosion_within_envelope(self):
        eps = 0.2
        gen = np.random.default_rng(33)
        n = 500
        x = gen.standard_normal((n, 2))
        x[: int(eps * n)] = 25.0
        res = mdepth_estimator(x, rng=RngStream(34))
        lam1 = np.linalg.eigvalsh(res.scatter)[-1]
        bound = scatter_eigen_bounds(eps).l1 / BETA
        assert lam1 <= bound + 0.5

    def test_extras_carry_scatter_ascent_stop_and_counts(self):
        gen = np.random.default_rng(35)
        x = gen.standard_normal((60, 3))
        res = mdepth_estimator(x, rng=RngStream(36))
        _, info = deepest_scatter(x, res.location, SearchConfig(RngStream(36)),
                                  return_info=True)
        for key in ("stop", "counted", "screened"):
            assert res.extras[key] == info[key]
        assert res.extras["stop"] in ("no_step", "cap")
        assert res.converged


class TestSuiteProperties:
    def test_translation_equivariance_all(self):
        gen = np.random.default_rng(35)
        x = gen.standard_normal((80, 2))
        shift = np.array([40.0, -15.0])
        for eid in ESTIMATOR_IDS:
            r1 = run_estimator(eid, x, RngStream(36))
            r2 = run_estimator(eid, x + shift, RngStream(36))
            assert np.allclose(r1.location + shift, r2.location,
                               atol=1e-7), eid
            assert np.allclose(r1.scatter, r2.scatter, atol=1e-7), eid

    def test_determinism(self):
        gen = np.random.default_rng(37)
        x = gen.standard_normal((60, 2))
        for eid in ESTIMATOR_IDS:
            r1 = run_estimator(eid, x, RngStream(38).child(7))
            r2 = run_estimator(eid, x, RngStream(38).child(7))
            assert np.array_equal(r1.scatter, r2.scatter), eid
            assert np.array_equal(r1.location, r2.location), eid

    def test_robust_separation_from_scov(self):
        # 20 percent point mass at (25, 25), p=2, n=80: every robust
        # estimator's log bias sits at least 3 below the sample covariance.
        gen = np.random.default_rng(39)
        logs = {eid: [] for eid in ESTIMATOR_IDS}
        for rep in range(3):
            x = gen.standard_normal((80, 2))
            mask = gen.random(80) < 0.2
            x[mask] = 25.0
            for eid in ESTIMATOR_IDS:
                res = run_estimator(eid, x, RngStream(40 + rep).child(1))
                logs[eid].append(np.log(bias_b(res)))
        scov_log = np.median(logs["SCOV"])
        for eid in ESTIMATOR_IDS[1:]:
            assert np.median(logs[eid]) <= scov_log - 3.0, eid


def test_calibrate_mm_script_imports():
    # The script imports private estimator helpers (_mm_refine, _unit_det);
    # loading it fails if they move or are renamed.
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "calibrate_mm.py"
    spec = importlib.util.spec_from_file_location("calibrate_mm", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.calibrate) and callable(module.main)
