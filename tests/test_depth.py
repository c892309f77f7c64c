import math

import numpy as np
import pytest
from scipy.special import ndtr

import depthlab.deepest as deepest_mod
import depthlab.depth as depth_mod
from depthlab.deepest import (SearchConfig, _subset_fits, deepest_regression,
                              tukey_median)
from depthlab.depth import (
    _DIRECTIONS_PER_DIM,
    _ProjectionDepth,
    _RegressionSigns,
    _SortedCounts,
    _fit_residuals,
    _tukey_sweep,
    _two_sided_counts,
    build_directions,
    default_mvreg_candidates,
    ls_depth1,
    ls_depth2,
    mvreg_depth,
    mvreg_depth_residual,
    read_dataset,
    regression_depth,
    scatter_depth,
    scatter_depth_gaussian,
    scatter_depth_pointmass,
    tukey_depth,
    tukey_depth_1d,
)
from depthlab.maxbias import exploding_aligned_family, scatter_eigen_bounds, \
    deepest_restricted_radius
from depthlab.numerics import RngStream, SpdMatrix, std_normal_cdf, unit_directions


def halfspace_depth_bruteforce(theta, x):
    """Independent oracle: plain-python sweep over every combinatorially
    distinct closed halfplane (normals from point pairs and point-theta
    differences, plus arc midpoints)."""
    n = len(x)
    vecs = []
    for i in range(n):
        v = (x[i][0] - theta[0], x[i][1] - theta[1])
        if abs(v[0]) + abs(v[1]) > 1e-12:
            vecs.append(v)
        for j in range(i + 1, n):
            w = (x[i][0] - x[j][0], x[i][1] - x[j][1])
            if abs(w[0]) + abs(w[1]) > 1e-12:
                vecs.append(w)
    angles = set()
    for (a, b) in vecs:
        base = math.atan2(b, a)
        for off in (0.5 * math.pi, -0.5 * math.pi):
            angles.add((base + off) % (2 * math.pi))
    angles = sorted(angles)
    cands = list(angles)
    for k in range(len(angles)):
        nxt = angles[(k + 1) % len(angles)] + (2 * math.pi if k + 1 == len(angles) else 0)
        cands.append(0.5 * (angles[k] + nxt))
    best = n
    for alpha in cands:
        u = (math.cos(alpha), math.sin(alpha))
        count = 0
        for pt in x:
            s = u[0] * (pt[0] - theta[0]) + u[1] * (pt[1] - theta[1])
            if s <= 1e-12 * max(1.0, abs(pt[0]) + abs(pt[1]) + abs(theta[0]) + abs(theta[1])):
                count += 1
        best = min(best, count)
    return best / n


# Integer directions: with integer data every projection is exact, so
# boundary ties are true ties.
INTEGER_DIRS = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                         [1, -1, 2], [0, 2, -1], [3, 1, 1]], dtype=float)


def dot(a, b):
    return sum(ai * bi for ai, bi in zip(a, b))


def loop_two_sided_depth(x, dirs, value, threshold):
    """Plain-python oracle: min over directions u of
    min(#{value(u, x_i) <= threshold(u)}, #{value(u, x_i) >= threshold(u)}) / n."""
    best = len(x)
    for u in dirs.tolist():
        t = threshold(u)
        vals = [value(u, row) for row in x.tolist()]
        best = min(best, sum(v <= t for v in vals), sum(v >= t for v in vals))
    return best / len(x)


class TestTukeyDepth:
    def test_univariate_counts(self):
        assert tukey_depth_1d(2.0, [1.0, 2.0, 3.0]) == pytest.approx(2 / 3)

    def test_below_all_points(self):
        assert tukey_depth_1d(0.0, [1.0, 2.0, 3.0]) == 0.0

    def test_median_depth_at_least_half(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            x = gen.standard_normal(11)
            assert tukey_depth_1d(np.median(x), x) >= 0.5

    def test_p1_reduction(self):
        x = np.array([[1.0], [2.0], [3.0]])
        assert tukey_depth([2.0], x) == tukey_depth_1d(2.0, x)

    def test_outside_hull_is_zero(self):
        gen = np.random.default_rng(1)
        x = gen.standard_normal((25, 2))
        assert tukey_depth([50.0, 50.0], x) == 0.0

    def test_unit_square_center(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert tukey_depth([0.5, 0.5], x) == pytest.approx(0.5)

    def test_exact_matches_bruteforce(self):
        gen = np.random.default_rng(2)
        for _ in range(30):
            n = int(gen.integers(3, 16))
            x = np.round(gen.standard_normal((n, 2)) * 3, 1)
            theta = np.round(gen.standard_normal(2), 1)
            assert tukey_depth(theta, x) == pytest.approx(
                halfspace_depth_bruteforce(theta, x), abs=1e-12)

    def test_affine_invariance_exact(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((30, 2))
        theta = np.array([0.1, -0.2])
        a = np.array([[2.0, 1.0], [0.5, -1.5]])
        b = np.array([3.0, -7.0])
        d1 = tukey_depth(theta, x)
        d2 = tukey_depth(a @ theta + b, x @ a.T + b)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_sampled_upper_bounds_exact(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((40, 2))
        theta = np.array([0.3, 0.0])
        exact = tukey_depth(theta, x)
        small = tukey_depth(theta, x, dirs=unit_directions(20, 2, RngStream(1)))
        large = tukey_depth(theta, x, dirs=unit_directions(400, 2, RngStream(1)))
        assert small >= large >= exact - 1e-12

    def test_sampled_counts_match_loop_with_ties(self):
        # Integer data and integer directions make every projection exact,
        # so points on a boundary hyperplane are true ties and must count on
        # both sides.
        gen = np.random.default_rng(5)
        x = gen.integers(-3, 4, size=(25, 3)).astype(float)
        dirs = INTEGER_DIRS
        thetas = np.vstack([x, gen.integers(-3, 4, size=(15, 3)),
                            [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]]).astype(float)

        def loop_depth(theta):
            return loop_two_sided_depth(x, dirs, lambda u, row: dot(u, row),
                                        lambda u: dot(u, theta))

        expected = [loop_depth(t) for t in thetas.tolist()]
        assert _ProjectionDepth(x, dirs).depths(thetas).tolist() == expected
        got = [tukey_depth(t, x, dirs=dirs) for t in thetas]
        assert got == expected


def pair_midpoints(x):
    i, j = np.triu_indices(x.shape[0], k=1)
    return 0.5 * (x[i] + x[j])


def _tukey_exact_2d(theta, x):
    """Exact p = 2 halfspace depth of one point, one projection per point
    and critical direction (the count the angular sweep replaces)."""
    z = x - theta
    norms = np.linalg.norm(z, axis=1)
    at_theta = norms <= 1e-12 * max(1.0, norms.max(initial=0.0))
    zz = z[~at_theta]
    if zz.shape[0] == 0:
        return 1.0
    cand = depth_mod._candidate_angles(np.arctan2(zz[:, 1], zz[:, 0]))
    proj = zz @ np.stack([np.cos(cand), np.sin(cand)], axis=1).T
    tol = 1e-12 * np.linalg.norm(zz, axis=1)[:, None]
    counts = np.sum(proj <= tol, axis=0) + np.sum(at_theta)
    return float(counts.min()) / x.shape[0]


def tukey_candidates_loop(x):
    """The first batch of the exact p = 2 location search, built by loops:
    the coordinatewise median, the mean, the first 200 rows and, up to
    n = 60, every pairwise midpoint."""
    n = x.shape[0]
    cands = [np.median(x, axis=0), x.mean(axis=0)]
    cands.extend(x[i] for i in range(min(n, 200)))
    if n <= deepest_mod._MIDPOINT_MAX_N:
        for i in range(n):
            for j in range(i + 1, n):
                cands.append(0.5 * (x[i] + x[j]))
    return np.array(cands)


def assert_sweep_is_exact(thetas, x):
    expected = [_tukey_exact_2d(t, x) for t in thetas]
    assert _tukey_sweep(thetas, x).tolist() == expected


class TestTukeySweep:
    def test_random_data(self):
        gen = np.random.default_rng(40)
        for n in (1, 2, 5, 40, 200):
            x = gen.standard_normal((n, 2))
            thetas = np.vstack([gen.standard_normal((30, 2)), x[:20],
                                x.mean(axis=0), [[40.0, -3.0]]])
            assert_sweep_is_exact(thetas, x)
            assert [tukey_depth(t, x) for t in thetas] == \
                [_tukey_exact_2d(t, x) for t in thetas]

    def test_integer_ties(self):
        # Integer points through integer and half-integer centres: many
        # points are collinear with theta, on the same and on opposite sides.
        gen = np.random.default_rng(41)
        for _ in range(10):
            x = gen.integers(-3, 4, size=(30, 2)).astype(float)
            thetas = np.vstack([gen.integers(-4, 5, size=(30, 2)),
                                0.5 * gen.integers(-7, 8, size=(30, 2))])
            assert_sweep_is_exact(thetas.astype(float), x)

    def test_point_mass_duplicates(self):
        gen = np.random.default_rng(42)
        x = gen.standard_normal((40, 2))
        x[gen.random(40) < 0.3] = [5.0, 5.0]
        thetas = np.vstack([x, pair_midpoints(x)[::7],
                            [5.0, 5.0] + 1e-3 * gen.standard_normal((20, 2))])
        assert_sweep_is_exact(thetas, x)

    def test_theta_at_data_point(self):
        gen = np.random.default_rng(43)
        x = np.vstack([gen.standard_normal((25, 2)),
                       gen.integers(-2, 3, size=(25, 2))])
        thetas = np.vstack([x, x[:10]])
        assert_sweep_is_exact(thetas, x)
        # Every row at theta: depth 1, as the one-shot function says.
        same = np.ones((4, 2))
        assert _tukey_sweep(same[:1], same).tolist() == [1.0]

    def test_midpoints_of_collinear_pairs(self):
        # The two ends of each pair sit on one line through theta, at angles
        # pi apart up to rounding; both must count in the closed halfplane.
        x = np.array([[0, 0], [2, 0], [4, 0], [1, 1], [3, 3], [-1, -1],
                      [0, 2], [2, 4], [-2, 1], [2, -1], [1, 3], [3, 1]],
                     dtype=float)
        assert_sweep_is_exact(pair_midpoints(x), x)
        gen = np.random.default_rng(44)
        z = gen.standard_normal((30, 2))
        assert_sweep_is_exact(pair_midpoints(z), z)

    @pytest.mark.parametrize("n", [20, 60, 61, 80, 200, 400])
    def test_tukey_median_unchanged_by_sweep(self, n, monkeypatch):
        # Rounded data put many points on lines through the data-point
        # candidates, on both sides of them.
        gen = np.random.default_rng(n)
        x = np.round(3.0 * gen.standard_normal((n, 2)))
        x[gen.random(n) < 0.2] = [4.0, -4.0]
        cfg = SearchConfig(rng=RngStream(8))
        swept = tukey_median(x, cfg)
        monkeypatch.setattr(deepest_mod, "_tukey_sweep", lambda thetas, data: [
            _tukey_exact_2d(t, data) for t in thetas])
        assert np.array_equal(swept, tukey_median(x, cfg))

    def test_sweep_counts_every_exact_search(self, monkeypatch):
        # Up to n = 400 the sweep counts every candidate, midpoints included
        # (n <= 60) and in the order of the loops; above it the sampled pool
        # does.
        def fail(*args):
            raise AssertionError("wrong p = 2 location count")

        swept = []

        def sweep(thetas, data):
            swept.append(thetas.copy())
            return _tukey_sweep(thetas, data)

        gen = np.random.default_rng(47)
        monkeypatch.setattr(depth_mod, "tukey_depth", fail)
        monkeypatch.setattr(deepest_mod, "tukey_depth", fail, raising=False)
        with monkeypatch.context() as m:
            m.setattr(deepest_mod, "_tukey_sweep", sweep)
            m.setattr(deepest_mod, "_ProjectionDepth", fail)
            for n in (20, 60, 61, 400):
                swept.clear()
                x = gen.standard_normal((n, 2))
                tukey_median(x)
                assert np.array_equal(swept[0], tukey_candidates_loop(x))
        monkeypatch.setattr(deepest_mod, "_tukey_sweep", fail)
        tukey_median(gen.standard_normal((401, 2)))


def regression_depth_bruteforce(beta, x, y):
    """Plain-python oracle of exact p = 2 regression depth for integer
    designs and fits with exact residuals.

    Directions are the integer normals +-(-x_k2, x_k1) of the nonzero rows
    (the critical angles, where u'x_k is exactly 0) and the midpoint of
    every arc between consecutive ones; a direction counts the points whose
    score (u'x_i) r_i is >= 0.
    """
    rows = [tuple(r) for r in x.tolist()]
    resid = [yi - (r[0] * beta[0] + r[1] * beta[1])
             for r, yi in zip(rows, y.tolist())]
    normals = set()
    for a, b in rows:
        if (a, b) != (0.0, 0.0):
            g = math.gcd(int(a), int(b))
            normals.update({(-b / g, a / g), (b / g, -a / g)})
    angles = sorted(math.atan2(b, a) for a, b in normals)
    dirs = list(normals)
    for k, lo in enumerate(angles):
        hi = angles[k + 1] if k + 1 < len(angles) else angles[0] + 2 * math.pi
        dirs.append((math.cos(0.5 * (lo + hi)), math.sin(0.5 * (lo + hi))))
    if not normals:
        dirs = [(1.0, 0.0)]
    best = len(rows)
    for u in dirs:
        count = sum((u[0] * r[0] + u[1] * r[1]) * e >= 0
                    for r, e in zip(rows, resid))
        best = min(best, count)
    return best / len(rows)


def regression_depth_directions(beta, x, y):
    """Exact p = 2 regression depth of one fit, one score per point and
    critical direction (the count the sign tables replace)."""
    resid = y - x @ beta
    tol_r = 1e-12 * max(1.0, np.abs(resid).max(initial=0.0))
    resid = np.where(np.abs(resid) <= tol_r, 0.0, resid)
    norms = np.linalg.norm(x, axis=1)
    nz = norms > 1e-12 * max(1.0, norms.max(initial=0.0))
    cand = depth_mod._candidate_angles(np.arctan2(x[nz, 1], x[nz, 0]))
    xu = x @ np.stack([np.cos(cand), np.sin(cand)], axis=1).T
    xu = np.where(np.abs(xu) <= 1e-12 * norms[:, None], 0.0, xu)
    return float(np.sum(xu * resid[:, None] >= 0.0, axis=0).min()) / x.shape[0]


def integer_regression_cases(seed):
    """Integer designs with zero rows and integer responses; fits through
    point pairs (often perfect for several points), integer and half-integer
    fits, and one perfect fit of every point."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 14))
    x = gen.integers(-3, 4, size=(n, 2)).astype(float)
    x[gen.random(n) < 0.15] = 0.0
    beta_true = gen.integers(-2, 3, size=2).astype(float)
    y = x @ beta_true + gen.integers(-2, 3, size=n) * (gen.random(n) < 0.6)
    betas = [beta_true, np.zeros(2)]
    betas += list(0.5 * gen.integers(-4, 5, size=(12, 2)))
    for _ in range(6):
        i, j = gen.choice(n, size=2, replace=False)
        try:
            b = np.linalg.solve(x[[i, j]], y[[i, j]])
        except np.linalg.LinAlgError:
            continue
        if np.allclose(b, np.round(2 * b) / 2):
            betas.append(np.round(2 * b) / 2)
    return x, y, np.array(betas), x @ beta_true


def near_parallel_case(gen, delta, angle=0.7):
    """Rows at ``angle``, ``angle + delta`` and ``angle + 2 delta``, a row
    1e-13 rad from the negative of the first, and (with ``gen``) 2 to 11
    Gaussian rows; a fit through the second and fourth rows, with residuals
    +1 and -1 on the first and third."""
    def at(a):
        return np.array([np.cos(a), np.sin(a)])

    rows = [at(angle), 2.0 * at(angle + delta), 0.5 * at(angle + 2 * delta),
            -1.3 * at(angle + 1e-13)]
    if gen is not None:
        rows += list(gen.standard_normal((int(gen.integers(2, 12)), 2)))
    x = np.array(rows)
    beta = np.array([0.3, -0.2])
    y = x @ beta
    y[[0, 2]] += [1.0, -1.0]
    if gen is not None:
        y[4:] += gen.standard_normal(x.shape[0] - 4)
    return x, y, beta


class TestRegressionDepthP2:
    def test_matches_bruteforce_on_integer_ties(self):
        for seed in range(60):
            x, y, betas, y_perfect = integer_regression_cases(seed)
            expected = [regression_depth_bruteforce(b, x, y) for b in betas]
            assert [regression_depth(b, x, y) for b in betas] == expected
            assert _RegressionSigns(x, y).depths(betas).tolist() == expected
            assert regression_depth(betas[0], x, y_perfect) == 1.0

    def test_zero_rows_count_for_every_fit(self):
        # Residuals +1, -1, +3 on the nonzero rows: u = (-1, 0.5) has every
        # score negative, so only the two zero rows count.
        x = np.array([[0, 0], [1, 0], [0, 1], [0, 0], [1, 1]], dtype=float)
        y = np.array([9.0, 2.0, 0.0, -9.0, 5.0])
        assert regression_depth([1.0, 1.0], x, y) == \
            regression_depth_bruteforce([1.0, 1.0], x, y) == 2 / 5
        assert regression_depth([0.0, 0.0], np.zeros((3, 2)), np.ones(3)) == 1.0

    def test_perfect_fit_has_depth_one(self):
        gen = np.random.default_rng(45)
        x = np.column_stack([np.ones(30), gen.standard_normal(30)])
        beta = np.array([0.7, -1.3])
        assert regression_depth(beta, x, x @ beta) == 1.0

    def test_batch_equals_one_shot(self):
        gen = np.random.default_rng(46)
        for n in (5, 40, 200):
            z = gen.standard_normal(n)
            x = np.column_stack([np.ones(n), z])
            y = 1.0 + 2.0 * z + gen.standard_t(3, n)
            pairs = [gen.choice(n, size=2, replace=False) for _ in range(40)]
            betas = [np.linalg.solve(x[idx], y[idx]) for idx in pairs]
            betas += list(gen.standard_normal((20, 2)))
            batch = _RegressionSigns(x, y).depths(betas).tolist()
            assert batch == [regression_depth(b, x, y) for b in betas]
            assert batch == [regression_depth_directions(b, x, y) for b in betas]

    @pytest.mark.parametrize("delta", [1e-13, 1e-12, 1.5e-12, 1.9e-12])
    def test_near_parallel_and_antipodal_rows(self, delta):
        # Critical angles closer than the 1e-12 rad row tolerance on either
        # side: near-parallel rows, and a row next to the negative of another.
        for seed in range(10):
            gen = np.random.default_rng(seed)
            x, y, beta = near_parallel_case(gen, delta)
            pairs = np.column_stack(np.triu_indices(x.shape[0], k=1))
            betas = np.vstack([beta, _subset_fits(x, y, pairs),
                               gen.standard_normal((10, 2))])
            assert _RegressionSigns(x, y).depths(betas).tolist() == [
                regression_depth_directions(b, x, y) for b in betas]

    def test_critical_column_alone_can_set_the_minimum(self, monkeypatch):
        # Rows 1.5e-12 rad apart and a fit through the middle one: at the
        # middle row's normal the outer two rows score on opposite sides,
        # while every arc midpoint has one of them inside the tolerance.
        x, y, beta = near_parallel_case(None, 1.5e-12)
        assert _RegressionSigns(x, y).depths(beta[None]).tolist() == \
            [regression_depth_directions(beta, x, y)] == [2 / 4]
        angles = depth_mod._candidate_angles
        monkeypatch.setattr(depth_mod, "_candidate_angles",
                            lambda a: angles(a)[len(angles(a)) // 2:])
        assert regression_depth_directions(beta, x, y) == 3 / 4

    @pytest.mark.parametrize("n", [20, 60, 61, 200])
    def test_deepest_regression_unchanged_by_sign_tables(self, n):
        x, y = regression_search_case(n, 2)
        cfg = SearchConfig(rng=RngStream(9))
        expected = deepest_regression_reference(x, y, cfg, lambda betas: [
            regression_depth_directions(b, x, y) for b in betas])
        assert np.array_equal(deepest_regression(x, y, cfg), expected)


def regression_search_case(n, p):
    """A design with an intercept and p - 1 Gaussian covariates, t3 noise
    and a point mass of about 20% of the responses at 15."""
    gen = np.random.default_rng(n)
    z = gen.standard_normal((n, p - 1))
    x = np.column_stack([np.ones(n), z])
    y = 1.0 + z @ [2.0, -1.0][:p - 1] + gen.standard_t(3, n)
    y[gen.random(n) < 0.2] = 15.0
    return x, y


def deepest_regression_reference(x, y, cfg, depths):
    """``deepest_regression`` at p >= 2 as one exhaustive count per batch:
    the pairs from loops (p = 2, n <= 60) or successive ``gen.choice``
    calls, one solve per subset, and every candidate of the subset batch
    and of each ascent round counted by ``depths(betas)``, whose first
    maximum wins."""
    n, p = x.shape
    gen = cfg.rng.child(32).generator()
    if p == 2 and n <= 60:
        subsets = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        subsets = [gen.choice(n, size=p, replace=False)
                   for _ in range(300 if n <= 60 else 1000)]
    cands = np.vstack([np.linalg.lstsq(x, y, rcond=None)[0],
                       subset_fits_loop(x, y, subsets)])

    def best_above(betas, floor):
        return deepest_mod._first_max_above(np.asarray(depths(betas)), floor)

    best_idx, best_val = best_above(cands, -np.inf)
    best = cands[best_idx].copy()
    if best_val >= 1.0:
        return best
    return deepest_mod._perturbation_ascent(
        best_above, best, best_val, max(np.linalg.norm(best), 1.0), 0.5, 16,
        gen)


def regression_depth_sampled(beta, x, y, dirs):
    """Sampled regression depth of one fit, one score per point and pool
    direction: min over u of min(#{score <= 0}, #{score >= 0}) (the count
    the pool sign tables replace)."""
    resid = y - x @ beta
    tol_r = 1e-12 * max(1.0, np.abs(resid).max(initial=0.0))
    resid = np.where(np.abs(resid) <= tol_r, 0.0, resid)
    xu = x @ np.asarray(dirs, dtype=float).T
    tol = 1e-12 * np.maximum(1.0, np.abs(xu).max(axis=0))
    xu = np.where(np.abs(xu) <= tol, 0.0, xu)
    scores = xu * resid[:, None]
    return float(_two_sided_counts(scores, 0.0, 0.0).min()) / x.shape[0]


def subset_fits_loop(x, y, subsets):
    """One solve per subset, skipping singular and non-finite fits (the loop
    the stacked solve replaces)."""
    fits = []
    for idx in subsets:
        try:
            sol = np.linalg.solve(x[list(idx)], y[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            fits.append(sol)
    return np.reshape(fits, (-1, x.shape[1]))


def integer_pool_cases(seed, p):
    """Integer designs with duplicate rows, zero rows and rows shrunk to
    1e-13 (inside the per-direction tolerance, outside a per-row one),
    responses with zero residuals and a point mass at 7; fits through
    p-subsets, integer and half-integer fits; a pool of sampled directions
    plus integer directions on which some u'x_i are exactly 0."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(p + 2, 30))
    x = gen.integers(-2, 3, size=(n, p)).astype(float)
    x[gen.random(n) < 0.1] = 0.0
    x[gen.random(n) < 0.1] *= 1e-13
    beta_true = gen.integers(-2, 3, size=p).astype(float)
    y = x @ beta_true + gen.integers(-1, 2, size=n) * (gen.random(n) < 0.5)
    y[gen.random(n) < 0.25] = 7.0
    subsets = np.array([gen.choice(n, size=p, replace=False) for _ in range(8)])
    betas = np.vstack([beta_true, np.zeros(p),
                       0.5 * gen.integers(-4, 5, size=(10, p)),
                       _subset_fits(x, y, subsets)])
    ints = gen.integers(-1, 2, size=(6, p)).astype(float)
    ints = ints[np.any(ints != 0.0, axis=1)]
    dirs = np.vstack([unit_directions(40, p, RngStream(seed)),
                      ints / np.linalg.norm(ints, axis=1)[:, None]])
    return x, y, betas, dirs


class TestRegressionSignsSampled:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_per_fit_count_on_integer_ties(self, p):
        for seed in range(30):
            x, y, betas, dirs = integer_pool_cases(seed, p)
            expected = [regression_depth_sampled(b, x, y, dirs) for b in betas]
            assert _RegressionSigns(x, y, dirs).depths(betas).tolist() == expected
            assert [regression_depth(b, x, y, dirs=dirs)
                    for b in betas] == expected

    @pytest.mark.parametrize("n", [30, 80])
    def test_deepest_regression_p3_unchanged_by_sign_tables(self, n):
        x, y = regression_search_case(n, 3)
        cfg = SearchConfig(rng=RngStream(9))
        dirs = unit_directions(_DIRECTIONS_PER_DIM * 3, 3, cfg.rng.child(31))
        expected = deepest_regression_reference(x, y, cfg, lambda betas: [
            regression_depth_sampled(b, x, y, dirs) for b in betas])
        assert np.array_equal(deepest_regression(x, y, cfg), expected)

    def test_float64_tables_beyond_float32_exact_counts(self, monkeypatch):
        # Designs with more rows than float32 counts exactly get float64
        # tables and the same depths; the bound is lowered to reach them.
        for seed, p in ((0, 2), (1, 3)):
            x, y, betas, dirs = integer_pool_cases(seed, p)
            pool = None if p == 2 else dirs
            single = _RegressionSigns(x, y, pool)
            monkeypatch.setattr(depth_mod, "_F32_EXACT", x.shape[0] - 1)
            double = _RegressionSigns(x, y, pool)
            monkeypatch.undo()
            assert single.table.dtype == np.float32
            assert double.table.dtype == np.float64
            assert np.array_equal(single.depths(betas), double.depths(betas))

    def test_rejects_mismatched_beta_and_missing_pool(self):
        x = np.ones((4, 3))
        with pytest.raises(ValueError):
            regression_depth([1.0, 2.0], x, np.zeros(4), dirs=np.eye(3))
        with pytest.raises(ValueError):
            regression_depth([1.0, 2.0, 3.0], x, np.zeros(4))


def regression_best_reference(signs, betas, floor):
    """``_RegressionSigns.best`` without its screen: every fit counted in
    full, and the first maximum wins."""
    return deepest_mod._first_max_above(signs.depths(betas), floor)


def regression_best_cases():
    """(x, y, fits, pool) of screened regression searches: p = 2 designs
    with t3 noise and a point mass in y around the pair-listing cutoff
    n = 60, fits through pairs and around the deepest of them; a perfect
    fit of every row (depth 1); integer-tie designs; p = 3 with a pool."""
    cases = []
    for n in (20, 60, 61, 200):
        x, y = regression_search_case(n, 2)
        gen = np.random.default_rng(n + 1)
        pairs = np.array([gen.choice(n, size=2, replace=False)
                          for _ in range(300)])
        fits = _subset_fits(x, y, pairs)
        top = fits[np.argmax(_RegressionSigns(x, y).depths(fits))]
        fits = np.vstack([fits, top + 0.05 * gen.standard_normal((40, 2))])
        cases.append((x, y, fits, None))
    gen = np.random.default_rng(5)
    x = np.column_stack([np.ones(50), gen.standard_normal(50)])
    cases.append((x, x @ [0.5, -1.0], np.vstack([gen.standard_normal((30, 2)),
                                                 [0.5, -1.0]]), None))
    for seed in range(12):
        x, y, betas, _ = integer_regression_cases(seed)
        cases.append((x, y, betas, None))
    for seed in range(6):
        cases.append(integer_pool_cases(seed, 3))
    x, y = regression_search_case(80, 3)
    gen = np.random.default_rng(3)
    triples = np.array([gen.choice(80, size=3, replace=False)
                        for _ in range(200)])
    cases.append((x, y, _subset_fits(x, y, triples),
                  unit_directions(_DIRECTIONS_PER_DIM * 3, 3, RngStream(4))))
    return cases


class TestRegressionSignsBest:
    @pytest.mark.parametrize("case", range(len(regression_best_cases())))
    def test_matches_first_maximum_of_depths(self, case):
        # One evaluator serves every floor, so later calls probe the worst
        # columns of an earlier winner; the floors include the top depth,
        # which no fit beats, and the depth just below it.
        x, y, fits, dirs = regression_best_cases()[case]
        signs = _RegressionSigns(x, y, dirs)
        depths = signs.depths(fits)
        n = x.shape[0]
        top = depths.max()
        below = depths[depths < top]
        floors = [-np.inf, top - 1 / n, top, top + 1 / n, 0.0,
                  below.max() if below.size else -1.0]
        for floor in floors:
            for batch in (fits, fits[::-1], fits[: len(fits) // 3]):
                assert signs.best(batch, floor) == \
                    regression_best_reference(signs, batch, floor)
        assert signs.best(fits, top) is None
        if case == 4:
            assert top == 1.0 and signs.best(fits, -np.inf) == (len(fits) - 1,
                                                                1.0)

    @pytest.mark.parametrize("n, p", [(20, 2), (200, 2), (80, 3)])
    def test_every_call_of_a_search_matches_reference(self, n, p,
                                                      monkeypatch):
        real = _RegressionSigns.best
        focused = []

        def best(self, betas, floor):
            want = regression_best_reference(self, betas, floor)
            focused.append(len(self.screen.cols) > len(self.screen.spread))
            got = real(self, betas, floor)
            assert got == want
            return got

        monkeypatch.setattr(_RegressionSigns, "best", best)
        x, y = regression_search_case(n, p)
        deepest_regression(x, y, SearchConfig(rng=RngStream(n)))
        assert not focused[0] and all(focused[1:]) and len(focused) > 1


class TestFitResiduals:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_equals_per_fit_product(self, p):
        gen = np.random.default_rng(60 + p)
        for intercept in (True, False):
            n = 150
            x = gen.standard_normal((n, p)) * 10.0 ** gen.uniform(-3, 3)
            if intercept:
                x[:, 0] = 1.0
            y = gen.standard_normal(n) * 10.0 ** gen.uniform(-3, 3)
            betas = gen.standard_normal((300, p)) * 10.0 ** gen.uniform(
                -3, 3, (1, p))
            expected = np.array([y - x @ b for b in betas])
            assert np.array_equal(_fit_residuals(x, y, betas), expected)


class TestSubsetFits:
    @pytest.mark.parametrize("p", [2, 3])
    def test_stacked_solve_equals_per_subset_solve(self, p):
        gen = np.random.default_rng(70 + p)
        for intercept in (True, False):
            n = 120
            x = gen.standard_normal((n, p))
            if intercept:
                x[:, 0] = 1.0
            y = x @ gen.standard_normal(p) + gen.standard_t(3, n)
            subsets = np.array([gen.choice(n, size=p, replace=False)
                                for _ in range(500)])
            fits = _subset_fits(x, y, subsets)
            assert fits.shape == (500, p)
            assert np.array_equal(fits, subset_fits_loop(x, y, subsets))

    @pytest.mark.parametrize("p", [2, 3])
    def test_singular_subsets_fall_back_to_the_loop(self, p):
        gen = np.random.default_rng(80 + p)
        n = 25
        x = np.column_stack([np.ones(n), gen.integers(-2, 3, (n, p - 1))])
        y = gen.integers(-3, 4, n).astype(float)
        subsets = np.array([gen.choice(n, size=p, replace=False)
                            for _ in range(300)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(x[subsets], y[subsets][..., None])
        fits = _subset_fits(x, y, subsets)
        expected = subset_fits_loop(x, y, subsets)
        assert 0 < len(expected) < len(subsets)
        assert np.array_equal(fits, expected)


def sorted_counts(vals, path, monkeypatch):
    """A kernel over ``vals`` on the bisection ("sorted") or the comparing
    ("compare") path, whatever the size of ``vals``."""
    n = vals.shape[0]
    monkeypatch.setattr(depth_mod, "_SORTED_MIN_N",
                        1 if path == "sorted" else n + 1)
    kernel = _SortedCounts(np.sort(vals, axis=0))
    assert (kernel.flat is None) == (path == "compare")
    return kernel


def near_thresholds(vals, gen):
    """Thresholds on, next to and within 1e-13 relative of data values."""
    v = vals[gen.integers(0, vals.shape[0], size=vals.shape[1]),
             np.arange(vals.shape[1])]
    return np.stack([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf),
                     v * (1 + 1e-13), v * (1 - 1e-13), v + 1e-13, v - 0.5])


class TestSortedCounts:
    @pytest.mark.parametrize("path", ["sorted", "compare"])
    @pytest.mark.parametrize("n", [1, 7, 15, 31, 200])
    def test_equals_two_sided_counts(self, n, path, monkeypatch):
        gen = np.random.default_rng(n)
        ints = gen.integers(-3, 4, size=(n, 40)).astype(float)
        reals = gen.standard_normal((n, 40))
        for vals in (ints, reals):
            kernel = sorted_counts(vals, path, monkeypatch)
            t = near_thresholds(vals, gen)                  # (7, 40)
            for tol in (0.0, 1e-12, 1e-12 * np.maximum(1.0, np.abs(t))):
                expected = _two_sided_counts(vals[:, None, :], t, tol)
                assert np.array_equal(kernel.counts(t, tol), expected)
                for i, row in enumerate(t):
                    tol_row = tol if np.isscalar(tol) else tol[i]
                    assert np.array_equal(kernel.counts(row, tol_row),
                                          expected[i])
                cols = np.array([0, 3, 17, 39])
                tol_cols = tol if np.isscalar(tol) else tol[:, cols]
                assert np.array_equal(kernel.counts(t[:, cols], tol_cols, cols),
                                      expected[:, cols])

    def test_integer_ties_counted_on_both_sides(self, monkeypatch):
        vals = np.array([[0.0], [1.0], [1.0], [1.0], [2.0], [3.0], [3.0]])
        kernel = sorted_counts(vals, "sorted", monkeypatch)
        # t = 1: four at or below, five at or above; t = 3: seven and two.
        assert kernel.counts(np.array([[1.0], [3.0], [2.5]]), 0.0).tolist() \
            == [[4], [2], [2]]

    def test_crossover_selects_path(self):
        small = _SortedCounts(np.zeros((depth_mod._SORTED_MIN_N - 1, 3)))
        large = _SortedCounts(np.zeros((depth_mod._SORTED_MIN_N, 3)))
        assert small.flat is None and large.flat is not None


def projection_best_reference(evaluator, thetas, floor):
    """``_ProjectionDepth.best`` without its screen: every candidate is
    counted over the whole pool (from the batch's one product) and the
    first maximum wins."""
    t = np.atleast_2d(thetas) @ evaluator.u.T
    counts = np.concatenate([
        evaluator.kernel.counts(t[lo:lo + 128], evaluator.tol).min(axis=1)
        for lo in range(0, len(t), 128)])
    j = int(np.argmax(counts))
    depth = counts[j] / evaluator.n
    return (j, depth) if depth > floor else None


def checked_best(monkeypatch):
    """Make every ``_ProjectionDepth.best`` call also run the reference and
    assert the two agree; the returned list counts the calls whose probe
    held an incumbent's worst columns."""
    real = _ProjectionDepth.best
    focused = []

    def best(self, thetas, floor):
        want = projection_best_reference(self, thetas, floor)
        focused.append(len(self.screen.cols) > len(self.screen.spread))
        got = real(self, thetas, floor)
        assert got == want
        return got

    monkeypatch.setattr(_ProjectionDepth, "best", best)
    return focused


def projection_best_cases():
    """(data, seed) of sampled tukey_median fits on either side of
    ``_SORTED_MIN_N``: Gaussian, integer ties and point masses."""
    cases = []
    for p in (3, 5, 10):
        for n in (29, 30, 50, 200):
            gen = np.random.default_rng(10 * n + p)
            cases.append((gen.standard_normal((n, p)), n + p))
    for p, n in ((3, 30), (5, 50)):
        gen = np.random.default_rng(n + p)
        cases.append((gen.integers(-2, 3, size=(n, p)).astype(float), p))
    for n, k in ((50, 5), (200, 25), (29, 0)):
        gen = np.random.default_rng(n + k)
        x = gen.standard_normal((n, 5))
        x[gen.random(n) < 0.3] = float(k)
        cases.append((x, k))
    return cases


class TestProjectionDepthBest:
    @pytest.mark.parametrize("path", ["sorted", "compare"])
    def test_matches_brute_force_argmax(self, path, monkeypatch):
        monkeypatch.setattr(depth_mod, "_SORTED_MIN_N",
                            1 if path == "sorted" else 10 ** 6)
        # Integer data and candidates tie often, so the first maximiser is
        # often reached after a later one with a higher bound.  One
        # evaluator serves every floor, so later calls probe the worst
        # columns of an earlier winner.
        dirs = np.vstack([INTEGER_DIRS, unit_directions(300, 3, RngStream(2))])
        for seed in range(40):
            gen = np.random.default_rng(seed)
            x = gen.integers(-3, 4, size=(40, 3)).astype(float)
            thetas = np.vstack([x[:20], gen.integers(-3, 4, size=(40, 3)),
                                0.5 * gen.integers(-5, 6, size=(20, 3))])
            evaluator = _ProjectionDepth(x, dirs)
            depths = evaluator.depths(thetas)
            top = depths.max()
            below = depths[depths < top]
            floors = [-np.inf, top - 1 / 40, top, top + 1 / 40, 0.0]
            if below.size:
                floors.append(below.max())
            for floor in floors:
                assert evaluator.best(thetas, floor) == \
                    projection_best_reference(evaluator, thetas, floor)

    @pytest.mark.parametrize("n", [50, 200])
    def test_tukey_median_unchanged_by_pruning(self, n, monkeypatch):
        gen = np.random.default_rng(n)
        x = gen.standard_normal((n, 5))
        x[gen.random(n) < 0.2] = 5.0
        cfg = SearchConfig(rng=RngStream(7))
        pruned = tukey_median(x, cfg)
        monkeypatch.setattr(_ProjectionDepth, "best", projection_best_reference)
        assert np.array_equal(pruned, tukey_median(x, cfg))

    @pytest.mark.parametrize("case", range(len(projection_best_cases())))
    def test_every_call_of_an_ascent_matches_reference(self, case, monkeypatch):
        x, seed = projection_best_cases()[case]
        focused = checked_best(monkeypatch)
        tukey_median(x, SearchConfig(rng=RngStream(seed)))
        assert not focused[0] and any(focused)

    def test_grid_p5_ascents_match_reference(self, monkeypatch):
        from tests.test_deepest import grid_p5_mdepth_inputs

        focused = checked_best(monkeypatch)
        grid_p5_mdepth_inputs()                 # six tukey_median ascents
        assert sum(focused) > 6


class TestBuildDirections:
    def test_gaussian_then_data_directions(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((30, 3))
        center = np.array([0.5, -0.5, 1.0])
        x[[4, 9]] = center                        # rows at the center drop out
        u = build_directions(x, center=center, rng=RngStream(3))
        assert u.shape == (500 * 3 + 28, 3)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(u[:1500], unit_directions(1500, 3, RngStream(3)))
        z = np.delete(x, [4, 9], axis=0) - center
        assert np.allclose(u[1500:], z / np.linalg.norm(z, axis=1)[:, None])

    def test_data_directions_capped_at_500(self):
        x = np.random.default_rng(7).standard_normal((700, 2))
        u = build_directions(x, rng=RngStream(3))
        assert u.shape == (500 * 2 + 500, 2)
        assert np.allclose(u[1000], x[0] / np.linalg.norm(x[0]))
        assert np.allclose(u[-1], x[-1] / np.linalg.norm(x[-1]))

    def test_deterministic_per_stream(self):
        x = np.random.default_rng(8).standard_normal((40, 4))
        a = build_directions(x, rng=RngStream(9).child(11))
        b = build_directions(x, rng=RngStream(9).child(11))
        c = build_directions(x, rng=RngStream(9).child(12))
        assert a.shape == (500 * 4 + 40, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestScatterDepth:
    def test_single_point_at_center(self):
        # The >= branch has no mass when the lone observation sits at the
        # center, so the definition yields 0 for any positive-definite gamma.
        d = scatter_depth(np.array([[1.0]]), [[0.0]], center=[0.0])
        assert d == 0.0

    def test_two_points_on_boundary(self):
        d = scatter_depth(np.array([[1.0]]), [[-1.0], [1.0]], center=[0.0])
        assert d == 1.0

    def test_four_point_split(self):
        data = [[-2.0], [-1.0], [1.0], [2.0]]
        d = scatter_depth(np.array([[2.25]]), data, center=[0.0])
        assert d == pytest.approx(0.5)

    def test_counts_match_loop_with_ties(self):
        # Integer data, center, scatter and directions keep (u'(x-c))^2 and
        # u'Gu exact, so observations on the boundary are true ties and must
        # count on both sides.
        gen = np.random.default_rng(8)
        x = gen.integers(-3, 4, size=(25, 3)).astype(float)
        gammas = [np.diag([1.0, 4.0, 9.0]),
                  np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]),
                  np.array([[5.0, 2.0, 1.0], [2.0, 5.0, 0.0], [1.0, 0.0, 2.0]])]
        ties = 0
        for gamma in gammas:
            for center in ([0, 0, 0], [1, 0, -1], [-2, 1, 1]):
                c = np.array(center, dtype=float)

                def value(u, row):
                    return dot(u, [a - b for a, b in zip(row, center)]) ** 2

                def threshold(u):
                    return dot(u, [dot(g_row, u) for g_row in gamma.tolist()])

                ties += sum(value(u, row) == threshold(u)
                            for u in INTEGER_DIRS.tolist() for row in x.tolist())
                expected = loop_two_sided_depth(x, INTEGER_DIRS, value, threshold)
                assert scatter_depth(gamma, x, center=c,
                                     dirs=INTEGER_DIRS) == expected
        assert ties > 0

    def test_matches_gaussian_model_depth(self):
        gen = np.random.default_rng(5)
        x = gen.standard_normal((5000, 3))
        dirs = unit_directions(2000, 3, RngStream(6))
        for diag in ([1.0, 1.0, 1.0], [0.7, 0.5, 0.4], [1.5, 1.0, 0.6]):
            gamma = SpdMatrix.from_diagonal(diag)
            emp = scatter_depth(gamma, x, center=np.zeros(3), dirs=dirs)
            assert emp == pytest.approx(scatter_depth_gaussian(gamma), abs=0.03)


class TestScatterDepthGaussian:
    def test_calibrated_identity_is_half(self):
        c = 0.6744897501960817 ** 2  # squared third quartile of the normal
        assert scatter_depth_gaussian(np.eye(3) * c) == pytest.approx(0.5, abs=1e-12)

    def test_large_multiple_shrinks(self):
        assert scatter_depth_gaussian(np.eye(2) * 900.0) < 1e-8

    def test_two_eigenvalues(self):
        d = scatter_depth_gaussian(np.diag([1.0, 0.25]))
        # min(2 Phi(0.5) - 1, 2 (1 - Phi(1))) = 0.3173...
        assert d == pytest.approx(0.31731050786291415, abs=1e-12)


def pointmass_depth_over(u, gamma, eps, r, e):
    """Minimum of the point-mass depth over the unit directions ``u``."""
    best = 1.0
    for uu in np.array_split(u, max(1, len(u) // 250000)):
        q = np.einsum("ij,jk,ik->i", uu, gamma.entries, uu)
        pe = (uu @ e) ** 2 * r * r
        g = 2 * ndtr(np.sqrt(q)) - 1
        b1 = (1 - eps) * g + eps * (pe <= q)
        b2 = (1 - eps) * (1 - g) + eps * (pe >= q)
        best = min(best, float(np.minimum(b1, b2).min()))
    return best


def pointmass_depth_bruteforce(gamma, eps, r, e, n_grid=200000):
    ang = np.linspace(0, np.pi, n_grid, endpoint=False)
    u = np.stack([np.cos(ang), np.sin(ang)], 1)
    return pointmass_depth_over(u, gamma, eps, r, e)


def random_rotation(gen, p):
    q, _ = np.linalg.qr(gen.standard_normal((p, p)))
    return q


class TestScatterDepthPointmass:
    def test_no_contamination_reduces_to_gaussian(self):
        gamma = SpdMatrix.from_diagonal([1.3, 0.5])
        e = np.array([1.0, 0.0])
        assert scatter_depth_pointmass(gamma, 0.0, 2.0, e) == pytest.approx(
            scatter_depth_gaussian(gamma), abs=1e-14)

    def test_inside_radius_closed_form(self):
        eps = 0.15
        gamma = SpdMatrix.from_diagonal([1.0, 0.4])
        e = np.array([1.0, 0.0])
        g1 = 2 * std_normal_cdf(1.0) - 1
        gp = 2 * std_normal_cdf(math.sqrt(0.4)) - 1
        expected = min((1 - eps) * gp + eps, (1 - eps) * (1 - g1))
        assert scatter_depth_pointmass(gamma, eps, 0.5, e) == pytest.approx(
            expected, abs=1e-14)

    def test_extreme_eigenvalue_matrix_attains_half_cap(self):
        eps = 0.1
        pair = scatter_eigen_bounds(eps)
        r = deepest_restricted_radius(eps)
        gamma = SpdMatrix.from_diagonal([pair.l1, pair.lp, pair.lp])
        e = np.array([1.0, 0.0, 0.0])
        assert r > math.sqrt(pair.l1)
        d = scatter_depth_pointmass(gamma, eps, r, e)
        assert d == pytest.approx((1 - eps) / 2, abs=1e-12)

    def test_depth_cap_in_aligned_class(self):
        # No eigen-aligned matrix exceeds (1-eps)/2 under point mass.
        gen = np.random.default_rng(8)
        eps = 0.2
        for _ in range(40):
            diag = np.sort(gen.uniform(0.05, 4.0, size=3))[::-1]
            gamma = SpdMatrix.from_diagonal(diag)
            e = np.array([1.0, 0.0, 0.0])
            r = float(gen.uniform(0.2, 5.0))
            d = scatter_depth_pointmass(gamma, eps, r, e)
            assert d <= (1 - eps) / 2 + 1e-12

    def test_aligned_matches_bruteforce(self):
        gen = np.random.default_rng(9)
        for _ in range(8):
            l1 = gen.uniform(0.3, 2.5)
            l2 = gen.uniform(0.05, min(l1, 1.2))
            gamma = SpdMatrix.from_diagonal([max(l1, l2), min(l1, l2)])
            e = np.array([1.0, 0.0])
            eps = gen.uniform(0.05, 0.35)
            r = gen.uniform(0.3, 4.0)
            a = scatter_depth_pointmass(gamma, eps, r, e)
            b = pointmass_depth_bruteforce(gamma, eps, r, e)
            assert a == pytest.approx(b, abs=2e-5)

    def test_general_direction_matches_bruteforce(self):
        gamma = SpdMatrix.from_diagonal([1.8, 0.4])
        th = 0.7
        e = np.array([math.cos(th), math.sin(th)])
        for eps, r in [(0.1, 1.7), (0.25, 0.9)]:
            a = scatter_depth_pointmass(gamma, eps, r, e)
            b = pointmass_depth_bruteforce(gamma, eps, r, e)
            assert a == pytest.approx(b, abs=1e-4)

    def test_exploding_family_depth_tends_to_contamination_level(self):
        # Largest eigenvalue pinned just inside the contamination radius,
        # remaining eigenvalues shrinking: depth converges to eps (<= 1/3).
        for eps in (0.1, 0.2):
            vals = []
            for r in (10.0, 100.0, 1000.0, 10000.0):
                gamma, e = exploding_aligned_family(r, p=2)
                vals.append(scatter_depth_pointmass(gamma, eps, r, e))
            assert vals[-1] == pytest.approx(eps, abs=1e-3)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("rel_gap",
                             [-0.6, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1.8])
    def test_aligned_equals_closed_form(self, p, rel_gap):
        # e is the top eigenvector; r^2 = l1 (1 + rel_gap), exactly l1 when
        # rel_gap = 0.  Gaps within 1e-10 count as on the quadric.
        gen = np.random.default_rng(40 + p)
        lam = [0.25, 0.16, 0.09][:p]
        rot = random_rotation(gen, p)
        gamma = SpdMatrix.from_matrix(rot @ np.diag(lam) @ rot.T)
        e = -rot[:, 0]
        r = 0.5 * math.sqrt(1.0 + rel_gap)
        eps = 0.15
        l1, l2, lp = lam[0], lam[min(1, p - 1)], lam[-1]
        r2 = r * r

        def g(q):
            return 2 * std_normal_cdf(math.sqrt(q)) - 1

        g1, gp = g(l1), g(lp)
        if p == 1:
            inside, outside = rel_gap <= 1e-10, rel_gap >= -1e-10
            expected = min((1 - eps) * g1 + eps * inside,
                           (1 - eps) * (1 - g1) + eps * outside)
        elif rel_gap <= 1e-10:
            expected = min((1 - eps) * gp + eps, (1 - eps) * (1 - g1))
        else:
            c_min = r2 * lp / (r2 + lp - l1)
            c_max = r2 * l2 / (r2 + l2 - l1)
            expected = min((1 - eps) * (1 - g1) + eps, (1 - eps) * gp + eps,
                           (1 - eps) * g(c_min), (1 - eps) * (1 - g(c_max)))
        assert scatter_depth_pointmass(gamma, eps, r, e) == pytest.approx(
            expected, abs=1e-14)

    def test_general_direction_p2_dense_grid(self):
        gen = np.random.default_rng(12)
        ang = np.linspace(0, np.pi, 2_000_000, endpoint=False)
        u = np.stack([np.cos(ang), np.sin(ang)], 1)
        for _ in range(6):
            rot = random_rotation(gen, 2)
            lam = np.sort(gen.uniform(0.05, 4.0, 2))[::-1]
            gamma = SpdMatrix.from_matrix(rot @ np.diag(lam) @ rot.T)
            th = gen.uniform(0, 2 * np.pi)
            e = np.array([math.cos(th), math.sin(th)])
            eps, r = gen.uniform(0.02, 0.45), gen.uniform(0.2, 4.0)
            d = scatter_depth_pointmass(gamma, eps, r, e)
            grid = pointmass_depth_over(u, gamma, eps, r, e)
            assert grid - 1e-4 <= d <= grid + 1e-12

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_general_direction_below_sampled_directions(self, p):
        gen = np.random.default_rng(30 + p)
        u = gen.standard_normal((100_000, p))
        u /= np.linalg.norm(u, axis=1)[:, None]
        for _ in range(4):
            rot = random_rotation(gen, p)
            lam = np.sort(gen.uniform(0.05, 4.0, p))[::-1]
            gamma = SpdMatrix.from_matrix(rot @ np.diag(lam) @ rot.T)
            e = gen.standard_normal(p)
            e /= np.linalg.norm(e)
            eps, r = gen.uniform(0.02, 0.45), gen.uniform(0.2, 4.0)
            d = scatter_depth_pointmass(gamma, eps, r, e)
            assert d <= pointmass_depth_over(u, gamma, eps, r, e) + 1e-12

    def test_rejects_bad_arguments(self):
        gamma = SpdMatrix.from_diagonal([1.0, 1.0])
        with pytest.raises(ValueError):
            scatter_depth_pointmass(gamma, 0.1, -1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            scatter_depth_pointmass(gamma, 0.1, 1.0, np.array([2.0, 0.0]))


class TestRegressionDepth:
    def test_perfect_fit(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = 2.0 * x[:, 0]
        assert regression_depth([2.0], x, y) == 1.0

    def test_three_point_enumeration(self):
        x = np.ones((3, 1))
        y = np.array([1.0, -1.0, 0.0])
        assert regression_depth([0.0], x, y) == pytest.approx(2 / 3)

    def test_all_positive_residuals_zero_depth(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = 5.0 + x[:, 0]
        assert regression_depth([0.0], x, y) == 0.0


class TestMvregDepth:
    def test_reduces_to_regression_depth(self):
        gen = np.random.default_rng(10)
        x = gen.standard_normal((9, 2))
        y = gen.standard_normal(9)
        beta = np.array([0.4, -0.3])
        dirs = unit_directions(300, 2, RngStream(11))
        u = dirs[:, :, None]
        d_mv = mvreg_depth(beta[:, None], x, y[:, None], u)
        d_reg = regression_depth(beta, x, y, dirs=dirs)
        assert d_mv == pytest.approx(d_reg, abs=1e-12)

    def test_perfect_fit(self):
        gen = np.random.default_rng(12)
        x = gen.standard_normal((8, 2))
        b = np.array([[1.0, -1.0], [0.5, 2.0]])
        y = x @ b
        u = default_mvreg_candidates(x, y, b, RngStream(13))
        assert mvreg_depth(b, x, y, u) == 1.0

    def test_refinement_is_monotone(self):
        gen = np.random.default_rng(14)
        x = gen.standard_normal((5, 2))
        y = gen.standard_normal((5, 2))
        b = np.zeros((2, 2))
        small = default_mvreg_candidates(x, y, b, RngStream(15), per_cell=50)
        # Brute-force oracle: 1e5 sampled competitors can only lower the inf.
        large = np.concatenate(
            [small, default_mvreg_candidates(x, y, b, RngStream(16), per_cell=25000)])
        d_small = mvreg_depth(b, x, y, small)
        d_large = mvreg_depth(b, x, y, large)
        assert d_large <= d_small
        # On a 5-point instance depths are multiples of 1/5; the default
        # candidate set should already find the brute-force level.
        assert d_small - d_large <= 1e-12

    def test_residual_form_bounds_sign_form(self):
        gen = np.random.default_rng(17)
        for _ in range(10):
            n = int(gen.integers(4, 9))
            x = gen.standard_normal((n, 2))
            y = gen.standard_normal((n, 2))
            b = 0.3 * gen.standard_normal((2, 2))
            u = default_mvreg_candidates(x, y, b, RngStream(18), per_cell=60)
            d_sign = mvreg_depth(b, x, y, u)
            d_res = mvreg_depth_residual(b, x, y, u)
            assert d_res >= d_sign - 1e-12
            fine = mvreg_depth_residual(b, x, y, u,
                                        t_grid=2.0 ** np.arange(-30, 4))
            coarse = mvreg_depth_residual(b, x, y, u,
                                          t_grid=2.0 ** np.arange(-2, 4))
            assert fine <= coarse + 1e-12
            assert fine == pytest.approx(d_sign, abs=1e-9)

    def test_residual_form_perfect_fit(self):
        gen = np.random.default_rng(19)
        x = gen.standard_normal((6, 2))
        b = gen.standard_normal((2, 2))
        y = x @ b
        u = default_mvreg_candidates(x, y, b, RngStream(20), per_cell=50)
        assert mvreg_depth_residual(b, x, y, u) == 1.0


def ls1_bruteforce(mu, sigma, y):
    """Inf-form oracle over the exact competitor breakpoints."""
    y = np.asarray(y, dtype=float)
    n = y.size
    span = max(1.0, y.max() - y.min())
    lams = np.concatenate([y, 0.5 * (mu + y),
                           [mu + 3 * span, mu - 3 * span,
                            mu - 1e-9 * span, mu + 1e-9 * span]])
    best_loc = 1.0
    for lam in lams:
        for lam_eps in (lam - 1e-9 * span, lam, lam + 1e-9 * span):
            if lam_eps == mu:
                continue
            best_loc = min(best_loc, np.mean(np.abs(y - mu) <= np.abs(y - lam_eps)))
    z = np.abs(y - mu)
    gammas = np.concatenate([z[z > 0], [sigma, 1e-9 * span, 6 * span]])
    best_sca = 1.0
    for gam in gammas:
        for ge in (gam * (1 - 1e-9), gam, gam * (1 + 1e-9)):
            if ge <= 0 or ge == sigma:
                continue
            best_sca = min(best_sca, np.mean(
                np.abs(z / sigma - 1.0) <= np.abs(z / ge - 1.0)))
    return min(best_loc, best_sca)


def ls2_bruteforce(mu, sigma, y):
    y = np.asarray(y, dtype=float)
    span = max(1.0, y.max() - y.min())
    lams = np.concatenate([y, 0.5 * (mu + y),
                           [mu + 3 * span, mu - 3 * span,
                            mu - 1e-9 * span, mu + 1e-9 * span]])
    z = np.abs(y - mu)
    gammas = np.concatenate([z[z > 0], [sigma, 1e-9 * span, 6 * span]])
    best = 1.0
    for lam in lams:
        for lam_eps in (lam - 1e-9 * span, lam, lam + 1e-9 * span):
            if lam_eps == mu:
                continue
            e1 = np.abs(y - mu) <= np.abs(y - lam_eps)
            for gam in gammas:
                for ge in (gam * (1 - 1e-9), gam * (1 + 1e-9)):
                    if ge <= 0 or ge == sigma:
                        continue
                    e2 = np.abs(z / sigma - 1.0) <= np.abs(z / ge - 1.0)
                    best = min(best, np.mean(e1 & e2))
    return best


class TestLocationScaleDepths:
    def test_ls1_hand_counts(self):
        assert ls_depth1(2.0, 1.0, [1.0, 2.0, 3.0]) == pytest.approx(2 / 3)

    def test_ls1_median_mad_at_least_half(self):
        gen = np.random.default_rng(21)
        for _ in range(20):
            y = gen.standard_normal(11)
            mu = np.sort(y)[5]
            sig = np.sort(np.abs(y - mu))[5]
            assert ls_depth1(mu, sig, y) >= 0.5

    def test_ls1_far_location_zero(self):
        assert ls_depth1(-100.0, 1.0, [1.0, 2.0, 3.0]) == 0.0

    def test_ls2_hand_counts(self):
        assert ls_depth2(2.0, 1.0, [1.0, 2.0, 3.0]) == pytest.approx(1 / 3)

    def test_ls2_huge_scale_zero(self):
        assert ls_depth2(0.0, 1e9, [1.0, 2.0, 3.0]) == 0.0

    def test_closed_forms_match_bruteforce(self):
        # Continuous draws; with an atom exactly at mu the competitor form
        # exceeds the closed form by that atom's mass (see the dedicated
        # test below).
        gen = np.random.default_rng(22)
        for _ in range(25):
            n = int(gen.integers(4, 21))
            y = gen.standard_normal(n) * 2
            mu = float(gen.standard_normal())
            sigma = float(gen.uniform(0.1, 3.0))
            assert ls_depth1(mu, sigma, y) == pytest.approx(
                ls1_bruteforce(mu, sigma, y), abs=1e-12)
            assert ls_depth2(mu, sigma, y) == pytest.approx(
                ls2_bruteforce(mu, sigma, y), abs=1e-12)


class TestLocationScaleAtomAtMu:
    def test_atom_at_mu_is_dropped_by_contract(self):
        # An observation exactly at mu satisfies every scale-competitor
        # event, so the raw competitor infimum is 1/3 + 0 here while the
        # four-cell closed form counts the outer cells without the atom.
        y = [1.0, 2.0, 3.0]
        assert ls_depth2(2.0, 1.0, y) == pytest.approx(1 / 3)
        assert ls2_bruteforce(2.0, 1.0, y) == pytest.approx(2 / 3)


class TestReadDataset:
    def test_header_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        x = read_dataset(f)
        assert x.shape == (2, 2)
        assert x[1, 1] == 4.0

    def test_single_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1\n2\n3\n")
        assert read_dataset(f).shape == (3, 1)
