import math
from dataclasses import replace

import numpy as np
import pytest

import depthlab.deepest as deepest_mod
import depthlab.depth as depth_mod
from depthlab.deepest import (
    SearchConfig,
    deepest_locscale1,
    deepest_locscale2,
    deepest_regression,
    deepest_scatter,
    lower_median,
    tukey_median,
)
from depthlab.depth import ls_depth2, regression_depth, scatter_depth, tukey_depth
from depthlab.maxbias import BETA, regdepth_maxbias
from depthlab.numerics import RngStream, SpdMatrix
from depthlab.simlab import (ContaminationSpec, _estimator_stream_key,
                             gen_contaminated, replicate_seed)


def cfg_with_seed(seed):
    return SearchConfig(rng=RngStream(seed))


class TestTukeyMedian:
    def test_univariate_median(self):
        assert tukey_median([[3.0], [1.0], [2.0]])[0] == 2.0

    def test_even_n_lower_middle(self):
        assert tukey_median([[1.0], [2.0], [3.0], [4.0]])[0] == 2.0

    def test_unit_square_attains_half(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        theta = tukey_median(x, cfg_with_seed(1))
        assert tukey_depth(theta, x) == pytest.approx(0.5)

    def test_gaussian_recovery(self):
        gen = np.random.default_rng(99)
        theta0 = np.array([1.5, -2.0])
        x = theta0 + gen.standard_normal((2000, 2))
        theta = tukey_median(x, cfg_with_seed(2))
        assert np.linalg.norm(theta - theta0) <= 0.15

    def test_translation_equivariance_matched_seed(self):
        gen = np.random.default_rng(5)
        x = gen.standard_normal((60, 2))
        shift = np.array([10.0, -3.0])
        t1 = tukey_median(x, cfg_with_seed(3))
        t2 = tukey_median(x + shift, cfg_with_seed(3))
        assert np.allclose(t1 + shift, t2, atol=1e-8)


class TestDeepestScatter:
    def test_symmetric_four_points_reach_cap(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        _, info = deepest_scatter(x, np.zeros(2), cfg_with_seed(4),
                                  return_info=True)
        assert info["depth"] == pytest.approx(0.5)

    def test_ascent_and_start_dominance(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((300, 2)) @ np.array([[1.5, 0.4], [0.0, 0.7]])
        _, info = deepest_scatter(x, np.zeros(2), cfg_with_seed(7),
                                  return_info=True)
        trace = info["trace"]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert info["depth"] >= trace[0] - 1e-12

    def test_gaussian_consistency_moderate_n(self):
        gen = np.random.default_rng(8)
        x = gen.standard_normal((1500, 2))
        gamma = deepest_scatter(x, np.zeros(2), cfg_with_seed(9))
        normalized = gamma.entries / BETA
        assert np.linalg.norm(normalized - np.eye(2), ord=2) <= 0.2

    def test_scaling_equivariance_matched_seed(self):
        gen = np.random.default_rng(10)
        x = gen.standard_normal((200, 2))
        t = 3.0
        d = np.diag([t, 1.0])
        g1 = deepest_scatter(x, np.zeros(2), cfg_with_seed(11))
        g2 = deepest_scatter(x @ d, np.zeros(2), cfg_with_seed(11))
        assert np.allclose(d @ g1.entries @ d, g2.entries, atol=1e-8)

    def test_same_fit_on_both_count_paths(self, monkeypatch):
        # Bisection and comparing every value give equal counts, so the
        # ascent takes the same steps either way.
        gen = np.random.default_rng(13)
        x = gen.integers(-4, 5, size=(60, 3)).astype(float)
        x[:12] = 3.0
        bisect = deepest_scatter(x, np.zeros(3), cfg_with_seed(14))
        monkeypatch.setattr(depth_mod, "_SORTED_MIN_N", 10 ** 6)
        compare = deepest_scatter(x, np.zeros(3), cfg_with_seed(14))
        assert np.array_equal(bisect.entries, compare.entries)

    def test_rejects_degenerate_data(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]])
        with pytest.raises(ValueError):
            deepest_scatter(x, np.zeros(2), cfg_with_seed(12))


def deepest_scatter_reference(data, center, cfg):
    """The deepest-scatter ascent counting every candidate over the whole
    pool (the search deepest_scatter screens with a probe set)."""
    x = np.asarray(data, dtype=float)
    n, p = x.shape
    center = np.asarray(center, dtype=float)
    xc = x - center
    if np.linalg.matrix_rank(xc) < p:
        raise ValueError("data lie in a lower-dimensional subspace; "
                         "scatter depth is unbounded toward singular matrices")
    mad = np.median(np.abs(xc), axis=0)
    if np.any(mad <= 0.0):
        raise ValueError("a coordinate has zero median absolute deviation; "
                         "deepest scatter is not identified")
    gamma = np.diag(mad * mad)
    gamma0 = SpdMatrix.from_matrix(gamma)

    u = deepest_mod._scatter_pool(xc, gamma0, cfg.rng)
    sorted_sq = np.sort((xc @ u.T) ** 2, axis=0)
    targets = sorted_sq[(n - 1) // 2, :]
    n_tail = min(32, u.shape[0])
    kernel = depth_mod._SortedCounts(sorted_sq)

    def eval_depth(g):
        t = np.einsum("kj,jl,kl->k", u, g, u)
        per_dir = kernel.counts(t, 1e-12 * np.maximum(1.0, t)) / n
        order = np.argsort(per_dir)
        score = (float(per_dir[order[0]]),
                 float(per_dir[order[:n_tail]].mean()),
                 float(per_dir.mean()))
        return score, order, t

    score, order, t = eval_depth(gamma)
    trace = [score[0]]
    for _ in range(deepest_mod._MAX_ITERATIONS):
        improved = False
        for k in order[:5]:
            q = t[k]
            ratio = targets[k] / q if q > 0 else 2.0
            if ratio == 1.0:
                continue
            w = gamma @ u[k]
            delta_dir = np.outer(w, w) / q
            eta = 1.0
            while eta >= deepest_mod._TOLERANCE:
                delta = np.clip(eta * (ratio - 1.0), -0.95, 9.0)
                cand = gamma + delta * delta_dir
                cand_score, cand_order, cand_t = eval_depth(cand)
                if cand_score > score:
                    gamma = cand
                    score, order, t = cand_score, cand_order, cand_t
                    improved = True
                    break
                eta *= deepest_mod._STEP_SHRINK
            if improved:
                break
        trace.append(score[0])
        if not improved:
            break
    return SpdMatrix.from_matrix(gamma), {"depth": score[0], "trace": trace}


def grid_p5_mdepth_inputs():
    """(data, location, config) of the MDEPTH fits of one grid_p5 pass:
    config seed 1000, one replicate of each (n, k) cell."""
    out = []
    for n in (50, 200):
        for k in (0, 5, 25):
            spec = ContaminationSpec(p=5, n=n, epsilon=0.2, k=k, seed=1000)
            rspec = replace(spec, seed=replicate_seed(spec, 0))
            x = gen_contaminated(rspec)
            rng = RngStream(rspec.seed).child(_estimator_stream_key("MDEPTH"))
            theta = tukey_median(x, SearchConfig(rng=rng))
            out.append((x, theta, rng))
    return out


class TestScatterScreen:
    """The probe-set screen rejects only candidates that cannot score
    higher, so the fits equal those of counting every candidate."""

    @staticmethod
    def assert_same_fit(x, center, seed):
        rng = seed if isinstance(seed, RngStream) else RngStream(seed)
        try:
            ref, ref_info = deepest_scatter_reference(
                x, center, SearchConfig(rng=rng))
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)[:40]):
                deepest_scatter(x, center, SearchConfig(rng=rng))
            return None
        got, info = deepest_scatter(x, center, SearchConfig(rng=rng),
                                    return_info=True)
        assert np.array_equal(got.entries, ref.entries)
        assert info["depth"] == ref_info["depth"]
        assert info["trace"] == ref_info["trace"]
        return info

    @staticmethod
    def gaussian_case(p, n):
        gen = np.random.default_rng(100 * p + n)
        x = gen.standard_normal((n, p)) * np.linspace(0.5, 3.0, p)
        return x, np.median(x, axis=0), 7 * p + n

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("n_kind", ["p+3", 29, 30, 200])
    def test_gaussian(self, p, n_kind):
        n = p + 3 if n_kind == "p+3" else n_kind
        self.assert_same_fit(*self.gaussian_case(p, n))

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("n", [30, 200])
    def test_gaussian_comparing_every_value(self, p, n, monkeypatch):
        # Below _SORTED_MIN_N the kernel compares every value instead of
        # bisecting; probe columns must count the same way on that path.
        monkeypatch.setattr(depth_mod, "_SORTED_MIN_N", 10 ** 6)
        self.assert_same_fit(*self.gaussian_case(p, n))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [29, 30, 120])
    def test_integer_ties(self, p, n):
        gen = np.random.default_rng(17 * p + n)
        x = gen.integers(-3, 4, size=(n, p)).astype(float)
        self.assert_same_fit(x, np.median(x, axis=0), p + n)

    @pytest.mark.parametrize("p", [2, 5, 10])
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("k", [0, 5, 25])
    def test_point_mass(self, p, eps, k):
        gen = np.random.default_rng(int(1000 * eps) + 31 * k + p)
        n = 60
        x = gen.standard_normal((n, p))
        x[gen.random(n) < eps] = float(k)
        self.assert_same_fit(x, np.median(x, axis=0), k + p)

    def test_one_round_cap(self, monkeypatch):
        monkeypatch.setattr(deepest_mod, "_MAX_ITERATIONS", 1)
        gen = np.random.default_rng(3)
        x = gen.standard_normal((80, 5))
        info = self.assert_same_fit(x, np.zeros(5), 3)
        assert info["stop"] == "cap"
        assert len(info["trace"]) == 2

    def test_grid_p5_pass(self):
        # (counted, screened) of each fit when every step is screened on its
        # own.  Screening a direction's ladder as one batch must keep both,
        # since MDEPTH's extras carry them.
        recorded = [(70, 273), (108, 227), (57, 108),
                    (18, 99), (27, 100), (42, 112)]
        got = []
        for x, theta, rng in grid_p5_mdepth_inputs():
            info = self.assert_same_fit(x, theta, rng)
            assert info["stop"] == "no_step"
            got.append((info["counted"], info["screened"]))
        assert got == recorded

    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("k", [64, 128, 3000])
    def test_stacked_ladder_product(self, p, k):
        # The screen forms the thresholds of a whole step ladder in one
        # stacked product; each row must equal its candidate's own product.
        gen = np.random.default_rng(p * k)
        u = gen.standard_normal((k, p))
        u /= np.linalg.norm(u, axis=1)[:, None]
        ladder = 0.5 ** np.arange(10)
        for _ in range(20):
            a = gen.standard_normal((p, p))
            g = a @ a.T + 0.1 * np.eye(p)
            w = g @ u[gen.integers(k)]
            ratio = gen.lognormal(0.0, 2.0)
            deltas = np.clip(ladder * (ratio - 1.0), -0.95, 9.0)
            cands = g + deltas[:, None, None] * (np.outer(w, w) / 0.7)
            stacked = np.einsum("kj,cjl,kl->ck", u, cands, u)
            for row, cand in zip(stacked, cands):
                assert np.array_equal(row, np.einsum("kj,jl,kl->k", u, cand, u))

    @pytest.mark.parametrize("p", [2, 5, 15])
    @pytest.mark.parametrize("k", [100, 2600, 8000])
    def test_row_subset_product(self, p, k):
        # The screen counts a probe subset of rows of this product; it
        # must equal the same rows of the product over the whole pool.
        gen = np.random.default_rng(p * k)
        u = gen.standard_normal((k, p))
        u /= np.linalg.norm(u, axis=1)[:, None]
        a = gen.standard_normal((p, p))
        g = a @ a.T + 0.1 * np.eye(p)
        full = np.einsum("kj,jl,kl->k", u, g, u)
        for _ in range(5):
            idx = np.union1d(gen.choice(k, min(k, 64), replace=False),
                             np.linspace(0, k - 1, min(k, 64)).astype(int))
            sub = u[idx]
            assert np.array_equal(np.einsum("kj,jl,kl->k", sub, g, sub),
                                  full[idx])


class TestDeepestLocScale1:
    def test_hand_example(self):
        assert deepest_locscale1([[1.0], [2.0], [3.0]]) == (2.0, 1.0)

    def test_degenerate_mad(self):
        with pytest.raises(ValueError):
            deepest_locscale1([[5.0], [5.0], [5.0], [9.0]])

    def test_shift_equivariance(self):
        gen = np.random.default_rng(13)
        y = gen.standard_normal(15)
        mu, sig = deepest_locscale1(y)
        mu2, sig2 = deepest_locscale1(y + 7.5)
        assert mu2 == pytest.approx(mu + 7.5, abs=1e-12)
        assert sig2 == pytest.approx(sig, abs=1e-12)


def locscale2_enumeration(y):
    """Joint-depth deepest location-scale fit by scanning every scale of
    every candidate location (the count deepest_locscale2 bisects)."""
    y = np.sort(np.asarray(y, dtype=float).ravel())
    n = y.size
    med = lower_median(y)
    distinct = np.unique(y)
    mus = np.concatenate([distinct, 0.5 * (distinct[:-1] + distinct[1:])])
    tol = depth_mod._ls_tol(y)
    best = (np.inf, np.inf, np.inf, np.inf)  # (-depth, sigma, |mu - med|, mu)
    best_fit = None
    for mu in mus:
        z = np.unique(np.abs(y - mu))
        z = z[z > tol]
        if z.size == 0:
            continue
        lo = mu - z
        hi = mu + z
        r_mu = np.searchsorted(y, mu + tol, side="right")
        l_mu = np.searchsorted(y, mu - tol, side="left")
        c1 = r_mu - np.searchsorted(y, lo - tol, side="left")
        c2 = np.searchsorted(y, hi + tol, side="right") - l_mu
        c3 = np.searchsorted(y, lo + tol, side="right")
        c4 = n - np.searchsorted(y, hi - tol, side="left")
        depth = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4)) / n
        j = int(np.lexsort((z, -depth))[0])   # max depth, then min sigma
        key = (-depth[j], z[j], abs(mu - med), mu)
        if key < best:
            best = key
            best_fit = (float(mu), float(z[j]))
    if best_fit is None:
        raise ValueError("no admissible scale candidate (degenerate data)")
    return best_fit


def locscale_cases(kind, gen):
    """Univariate samples with ties of every kind deepest_locscale2 meets."""
    n = int(gen.integers(4, 61))
    if kind == "integer ties":
        return gen.integers(-3, 4, n).astype(float)
    if kind == "point mass":
        y = gen.standard_normal(n)
        y[: n // 3] = 2.5
        return y
    if kind == "heavy tails":
        return 1e3 * gen.standard_cauchy(n)
    if kind == "n = 4":
        return np.round(gen.standard_normal(4), 1)
    if kind == "adjacent floats":   # midpoints round onto data values
        base = gen.integers(-2, 3, n) + 0.1 * gen.integers(0, 3)
        return base + gen.integers(0, 3, n) * np.spacing(base)
    if kind == "shifted":
        return 1e3 + 1e-8 * gen.standard_normal(n)
    raise ValueError(kind)


class TestDeepestLocScale2:
    def grid_oracle(self, y):
        """Max ls_depth2 over the candidate grid and its first (mu, sigma)
        by smallest sigma, then |mu - median|, then mu."""
        y = np.asarray(y, dtype=float)
        med = lower_median(y)
        tol = depth_mod._ls_tol(y)
        grid = []
        mus = np.unique(np.concatenate([y, 0.5 * (np.sort(y)[:-1] + np.sort(y)[1:])]))
        for mu in mus:
            for sig in np.unique(np.abs(y - mu)):
                if sig > tol:
                    grid.append((-ls_depth2(mu, sig, y), sig, abs(mu - med), mu))
        key = min(grid)
        return -key[0], (float(key[3]), float(key[1]))

    def test_matches_grid_maximum(self):
        gen = np.random.default_rng(14)
        for _ in range(15):
            y = np.round(gen.standard_normal(int(gen.integers(5, 14))), 2)
            if np.unique(y).size < 3:
                continue
            mu, sig = deepest_locscale2(y)
            oracle_depth, oracle_fit = self.grid_oracle(y)
            assert ls_depth2(mu, sig, y) == pytest.approx(oracle_depth, abs=1e-12)
            assert (mu, sig) == oracle_fit

    def test_shifted_data_attains_grid_maximum(self):
        # ls_depth2's tie tolerance is relative to max|y| (1e-9 near 1e3);
        # a fit enumerated with a span-relative 1e-12 disagreed with it.
        gen = np.random.default_rng(49)
        for shift, spread in ((1e3, 1e-8), (1e6, 1e-5)):
            for n in (6, 25, 60):
                y = shift + spread * gen.standard_normal(n)
                mu, sig = deepest_locscale2(y)
                oracle_depth, oracle_fit = self.grid_oracle(y)
                assert ls_depth2(mu, sig, y) == oracle_depth
                assert (mu, sig) == oracle_fit

    @pytest.mark.parametrize("kind", ["integer ties", "point mass",
                                      "heavy tails", "n = 4",
                                      "adjacent floats", "shifted"])
    def test_matches_enumeration(self, kind):
        gen = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(40):
            y = locscale_cases(kind, gen)
            assert deepest_locscale2(y) == locscale2_enumeration(y)

    def test_constant_data_raises_like_enumeration(self):
        y = np.full(7, 3.0)
        with pytest.raises(ValueError, match="no admissible scale") as enum:
            locscale2_enumeration(y)
        with pytest.raises(ValueError) as fit:
            deepest_locscale2(y)
        assert str(fit.value) == str(enum.value)

    def test_gaussian_consistency(self):
        gen = np.random.default_rng(15)
        y = gen.standard_normal(5000)
        mu, sig = deepest_locscale2(y)
        assert abs(mu) <= 0.1
        assert sig == pytest.approx(0.6744897501960817, abs=0.1)

    def test_exactness_guard_raises(self, monkeypatch):
        y = np.random.default_rng(48).standard_normal(30)
        mu, sigma = deepest_locscale2(y)
        depth = float(ls_depth2(mu, sigma, y))
        monkeypatch.setattr(deepest_mod, "ls_depth2",
                            lambda *args: depth - 1 / 30)
        with pytest.raises(RuntimeError, match=f"enumerated depth {depth!r} "
                           f"!= closed-form ls_depth2 {depth - 1 / 30!r}"):
            deepest_locscale2(y)

    def test_deterministic_on_duplicates(self):
        y = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 5.0, 5.0])
        assert deepest_locscale2(y) == deepest_locscale2(y)


class TestDeepestRegression:
    def test_exact_fit_recovered(self):
        gen = np.random.default_rng(16)
        x = gen.standard_normal((20, 2))
        beta0 = np.array([2.0, -1.0])
        y = x @ beta0
        beta = deepest_regression(x, y, cfg_with_seed(17))
        assert np.allclose(beta, beta0, atol=1e-9)
        assert regression_depth(beta, x, y) == 1.0

    def test_three_point_instance(self):
        x = np.ones((3, 1))
        y = np.array([1.0, -1.0, 0.0])
        beta = deepest_regression(x, y, cfg_with_seed(18))
        assert regression_depth(beta, x, y) == pytest.approx(2 / 3)

    def test_contaminated_bias_within_maxbias_envelope(self):
        gen = np.random.default_rng(19)
        n, eps, beta0 = 500, 0.1, 2.0
        x = gen.standard_normal((n, 1))
        y = beta0 * x[:, 0] + gen.standard_normal(n)
        bad = gen.random(n) < eps
        x[bad, 0] = 3.0
        y[bad] = 3.0 * (beta0 + 1.5)  # leverage cluster pulling the slope up
        beta = deepest_regression(x, y, cfg_with_seed(20))
        assert abs(beta[0] - beta0) <= regdepth_maxbias(eps) + 0.1

    def test_rejects_degenerate_design(self):
        x = np.zeros((5, 1))
        y = np.arange(5.0)
        with pytest.raises(ValueError):
            deepest_regression(x, y, cfg_with_seed(21))


class TestReplacementBreakdown:
    def test_median_and_mad_tolerate_half_replacement(self):
        # Finite-sample proxy for the 1/2 breakdown of the separate-depth
        # location-scale fit: with n = 100, up to ceil(n/2) - 1 = 49
        # replaced points leave both components bounded.
        gen = np.random.default_rng(50)
        y = gen.standard_normal(100)
        clean_mu, clean_sig = deepest_locscale1(y)
        for m in (10, 30, 49):
            z = y.copy()
            z[:m] = 1e9
            mu, sig = deepest_locscale1(z)
            assert abs(mu) <= np.abs(y).max()
            assert sig <= 2 * np.abs(y).max()
        assert abs(clean_mu) < 0.5 and 0.4 < clean_sig < 1.1


class TestHelpers:
    def test_lower_median_even(self):
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0
