"""Depth functions for location, scatter, regression, and location-scale fits.

Empirical depths are computed against a dataset (rows = observations).  For
p <= 2 the Tukey and regression depths have an exact combinatorial mode; in
higher dimension the infimum over the sphere is approximated by seeded
direction sampling, which always upper-bounds the exact value.  At p = 2
the exact Tukey depth, of one point or of the deepest-location search's
whole batch of candidates, comes from one angular sweep (Rousseeuw & Ruts,
Applied Statistics 1996).  Regression depth at every p >= 2, exact or
sampled, one fit or a batch, is counted against float32 sign tables of the
design.

Tie handling follows the non-strict inequalities of the definitions: points
sitting exactly on a boundary are counted on both sides.  Comparisons use a
tiny scale-aware tolerance so that affinely transformed integer datasets
keep their combinatorial structure in floating point.

The analytic depths (`scatter_depth_gaussian`, `scatter_depth_pointmass`)
evaluate a candidate scatter matrix against the standard Gaussian model,
optionally contaminated by a point mass at ``r * e``; both are exact, the
point-mass depth for every direction ``e``.
"""

from __future__ import annotations

import numpy as np

from .numerics import RngStream, SpdMatrix, std_normal_cdf, unit_directions

__all__ = [
    "as_dataset",
    "read_dataset",
    "build_directions",
    "tukey_depth_1d",
    "tukey_depth",
    "scatter_depth",
    "scatter_depth_gaussian",
    "scatter_depth_pointmass",
    "regression_depth",
    "mvreg_depth",
    "mvreg_depth_residual",
    "default_mvreg_candidates",
    "residual_competitor_grid",
    "ls_depth1",
    "ls_depth2",
]

_TIE_RTOL = 1e-12
_QUADRIC_RTOL = 1e-10         # point-mass depth: on the quadric v'Av = 0
_INVPHI = (5 ** 0.5 - 1) / 2
_GOLDEN_STEPS = 100
_DIRECTIONS_PER_DIM = 500     # sampled directions per dimension in a pool
_SORTED_MIN_N = 30            # from this n on, bisection beats comparing all
_PROBE_COLUMNS = 64           # pool columns of the upper bound in pruning
_ARC_TOL = 2e-12              # sweep: 1e-12 rad of tolerance at each end of an arc
_FIT_BLOCK = 128              # regression fits counted per product
_F32_EXACT = 2 ** 24          # float32 holds every integer up to this


def as_dataset(data):
    """Coerce to a finite (n, p) float array; 1-d input becomes one column."""
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"dataset must be a nonempty 2-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("dataset contains non-finite values")
    return x


def read_dataset(path):
    """Load a CSV dataset, one observation per row.

    A single leading non-numeric header line is skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty dataset file: {path}")

    def parse(ln):
        return [float(tok) for tok in ln.replace(",", " ").split()]

    try:
        parse(lines[0])
        start = 0
    except ValueError:
        start = 1
    if start == len(lines):
        raise ValueError(f"no numeric rows in dataset file: {path}")
    rows = [parse(ln) for ln in lines[start:]]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in dataset file: {path}")
    return as_dataset(np.array(rows))


def _data_directions(z):
    """Rows of ``z`` as unit directions: zero rows are dropped and at most
    500 rows, evenly spaced in the original order, are kept."""
    norms = np.linalg.norm(z, axis=1)
    z = z[norms > 1e-12 * max(1.0, norms.max(initial=0.0))]
    if z.shape[0] > 500:
        z = z[np.linspace(0, z.shape[0] - 1, 500).astype(int)]
    return z / np.linalg.norm(z, axis=1)[:, None]


def build_directions(data, center=None, rng=None):
    """Direction pool for sampled depths: seeded Gaussians plus data directions.

    ``500 p`` sampled unit vectors followed by the normalized
    observations centered at ``center`` (the origin by default), as thinned
    by :func:`_data_directions`.
    """
    x = as_dataset(data)
    p = x.shape[1]
    rng = rng if rng is not None else RngStream(0)
    c = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    return np.vstack([unit_directions(_DIRECTIONS_PER_DIM * p, p, rng),
                      _data_directions(x - c)])


# ---------------------------------------------------------------------------
# Tukey (halfspace) depth
# ---------------------------------------------------------------------------

def tukey_depth_1d(theta, data):
    """Exact univariate halfspace depth min(#{x <= t}, #{x >= t}) / n."""
    x = as_dataset(data)
    if x.shape[1] != 1:
        raise ValueError("tukey_depth_1d requires univariate data")
    x = x[:, 0]
    t = float(theta)
    n = x.size
    return min(np.sum(x <= t), np.sum(x >= t)) / n


def _candidate_angles(angles):
    """Regression depth's critical directions at p = 2: the normals to the
    design rows at ``angles`` plus the midpoints of every open arc."""
    crit = np.concatenate([angles + 0.5 * np.pi, angles - 0.5 * np.pi])
    crit = np.sort(np.mod(crit, 2.0 * np.pi))
    crit = np.unique(crit)
    if crit.size == 0:
        return np.array([0.0])
    nxt = np.roll(crit, -1).copy()
    nxt[-1] += 2.0 * np.pi
    mids = 0.5 * (crit + nxt)
    return np.concatenate([crit, mids])


def _tukey_sweep(thetas, x):
    """Exact p = 2 halfspace depths of the rows of ``thetas``, in
    O(n log n) per candidate.

    Rows within 1e-12 max(1, max_i |x_i - theta|) of theta are dropped and
    count in every halfplane; when every row is dropped the depth is 1.
    Around theta the others sit at angles a; a closed halfplane through
    theta holds the points of an arc of length pi, and the fewest it can
    hold is min over j of #{a_i in (a_j, a_j + pi]}, found by sorting the
    angles once and searching the doubled circle.  The arc is closed by
    ``_ARC_TOL`` past pi, as the projection tolerance counts points within
    1e-12 rad of the boundary line on both sides.
    """
    z = x[None, :, :] - thetas[:, None, :]            # (C, n, 2)
    norms = np.linalg.norm(z, axis=2)
    scale = np.maximum(1.0, norms.max(axis=1))
    at_theta = norms <= _TIE_RTOL * scale[:, None]
    angles = np.where(at_theta, np.inf, np.arctan2(z[..., 1], z[..., 0]))
    angles.sort(axis=1)                               # dropped rows go last
    n = x.shape[0]
    n_zero = at_theta.sum(axis=1)
    depths = np.ones(thetas.shape[0])
    for c in np.flatnonzero(n_zero < n):
        a = angles[c, :n - n_zero[c]]
        circle = np.concatenate([a, a + 2.0 * np.pi])
        inside = (np.searchsorted(circle, a + (np.pi + _ARC_TOL), side="right")
                  - np.searchsorted(circle, a, side="right"))
        depths[c] = (n_zero[c] + inside.min()) / n
    return depths


def _two_sided_counts(vals, t, tol):
    """Per column k of ``vals``: min(#{v <= t_k + tol_k}, #{v >= t_k - tol_k}).

    Values within the tolerance of the threshold count on both sides; each
    caller passes its own tolerance (scalar or per column).
    """
    below = np.sum(vals <= t + tol, axis=0)
    above = np.sum(vals >= t - tol, axis=0)
    return np.minimum(below, above)


class _SortedCounts:
    """:func:`_two_sided_counts` against fixed columns, for callers that
    count many threshold vectors against one dataset.

    ``sorted_vals`` is (n, K) with every column sorted ascending.  From
    ``_SORTED_MIN_N`` rows on, each column is padded with +inf to width
    2^r, r = ceil(log2(n + 1)), and the columns are stored back to back;
    :meth:`counts` then runs r branchless bisection rounds over all
    thresholds at once.  For finite v, v < b exactly when
    v <= nextafter(b, -inf), so the counts equal :func:`_two_sided_counts`
    exactly.  Below that size comparing every value is faster.
    """

    def __init__(self, sorted_vals):
        n, k = sorted_vals.shape
        self.n = n
        self.vals = self.flat = None
        if n < _SORTED_MIN_N:
            self.vals = sorted_vals
            return
        width = 1 << n.bit_length()             # 2^ceil(log2(n + 1))
        padded = np.full((k, width), np.inf)
        padded[:, :n] = sorted_vals.T
        self.flat = padded.ravel()
        self.starts = np.arange(k) * width
        self.steps = [width >> i for i in range(1, n.bit_length() + 1)]

    def counts(self, t, tol, cols=None):
        """Per column: min(#{v <= t + tol}, #{v >= t - tol}).

        ``t`` is (..., K) or, with ``cols``, (..., len(cols)) for those
        columns only; ``tol`` broadcasts against it.
        """
        if self.flat is None:
            vals = self.vals if cols is None else self.vals[:, cols]
            return _two_sided_counts(vals.reshape(self.n, *(1,) * (t.ndim - 1),
                                                  -1), t, tol)
        bounds = np.stack([t + tol, np.nextafter(t - tol, -np.inf)])
        starts = self.starts if cols is None else self.starts[cols]
        idx = np.broadcast_to(starts, bounds.shape).copy()
        for step in self.steps:
            idx += (self.flat[idx + (step - 1)] <= bounds) * step
        idx -= starts
        return np.minimum(idx[0], self.n - idx[1])


class _ProbeScreen:
    """Probe set of a screened depth search: the columns over which a batch
    of candidates is counted before any of them is counted in full.

    A depth that is a minimum of counts over columns (pool directions, or
    the critical directions of a sign table) is bounded from above by the
    counts over any subset of them.  The probe set is ``_PROBE_COLUMNS``
    evenly spaced columns joined with the incumbent's worst columns, where
    a candidate near the incumbent is most likely to count low too.
    :meth:`focus` moves the set to a new incumbent; the caller compares the
    probe counts with that incumbent's score.  Which columns are probed
    changes only how many candidates the bound rules out, never which one a
    search keeps.
    """

    def __init__(self, k):
        self.spread = np.linspace(0, k - 1, min(k, _PROBE_COLUMNS)).astype(int)
        self.cols = self.spread

    def focus(self, worst):
        """Probe ``worst``, the incumbent's worst columns, and the spread."""
        self.cols = np.union1d(worst, self.spread)

    def first_deepest(self, bound, count, n, floor):
        """``(index, depth)`` of the first deepest candidate, or None when
        no candidate is deeper than ``floor``; then the probe moves to the
        winner's ``_PROBE_COLUMNS`` worst columns.

        ``bound`` holds each candidate's probe count, an integer upper
        bound on its depth count (depth times ``n``), and ``count(i)`` the
        counts of candidate i over all columns, whose minimum is its depth
        count.  Candidates are counted from the highest bound down, ties in
        index order, until the bound falls below the best count so far:
        the rest cannot reach it.  A later candidate of equal count wins
        only with a smaller index, so the result is the first maximum an
        exhaustive count gives.
        """
        best_i, best_c, best_counts = None, -1, None
        for i in np.argsort(-bound, kind="stable"):
            if bound[i] < best_c or bound[i] / n <= floor:
                break
            c = count(i)
            c_min = c.min()
            if c_min > best_c or (c_min == best_c and i < best_i):
                best_i, best_c, best_counts = int(i), int(c_min), c
        if best_i is None or best_c / n <= floor:
            return None
        self.focus(np.argsort(best_counts, kind="stable")[:_PROBE_COLUMNS])
        return best_i, best_c / n


class _ProjectionDepth:
    """Sampled halfspace depth of many candidate points against one pool.

    Per direction, points within a tolerance of the boundary (scaled by the
    largest projection) count on both sides, as in :func:`tukey_depth`.
    The projections are sorted once and counted through
    :class:`_SortedCounts`.  :meth:`best` prunes with an upper bound: the
    depth is a minimum over directions, so the minimum over the columns of
    a :class:`_ProbeScreen` bounds it from above.
    """

    def __init__(self, x, dirs):
        self.u = np.asarray(dirs, dtype=float)
        self.n = x.shape[0]
        proj = x @ self.u.T                            # (n, K)
        proj.sort(axis=0)
        self.tol = _TIE_RTOL * np.maximum(
            1.0, np.maximum(np.abs(proj[0]), np.abs(proj[-1])))
        self.kernel = _SortedCounts(proj)
        self.screen = _ProbeScreen(self.u.shape[0])

    def depths(self, thetas):
        t = np.atleast_2d(thetas) @ self.u.T           # (C, K)
        return self.kernel.counts(t, self.tol).min(axis=1) / self.n

    def best(self, thetas, floor):
        """``(index, depth)`` of the first deepest candidate, or None when
        no candidate is deeper than ``floor``.

        Each candidate's bound is its minimum count over the probe set:
        the spread columns and, once a call has found a winner, the 64
        worst columns of the last winner, which a caller's ascent keeps as
        its incumbent (:meth:`_ProbeScreen.first_deepest`).  The product
        with the pool is formed once for the whole batch: a product of a
        sub-batch may round differently.
        """
        t = np.atleast_2d(thetas) @ self.u.T           # (C, K)
        cols = self.screen.cols
        bound = self.kernel.counts(t[:, cols], self.tol[cols],
                                   cols=cols).min(axis=1)
        return self.screen.first_deepest(
            bound, lambda i: self.kernel.counts(t[i], self.tol), self.n, floor)


def tukey_depth(theta, data, dirs=None):
    """Halfspace depth of ``theta``: inf over directions of P(u'X <= u'theta).

    For p <= 2 without a direction pool the exact infimum is returned, at
    p = 2 as a batch of one for :func:`_tukey_sweep`; otherwise the minimum
    over the supplied pool ``dirs``, with each direction evaluated along
    both u and -u.
    """
    x = as_dataset(data)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p = x.shape[1]
    if theta.shape != (p,):
        raise ValueError("theta dimension does not match data")
    if p == 1:
        return tukey_depth_1d(theta[0], x)
    if p == 2 and dirs is None:
        return float(_tukey_sweep(theta[None], x)[0])
    if dirs is None or len(dirs) == 0:
        raise ValueError("sampled halfspace depth needs a nonempty direction pool")
    u = np.asarray(dirs, dtype=float)
    proj = x @ u.T
    tol = _TIE_RTOL * np.maximum(1.0, np.abs(proj).max(axis=0))
    return float(_two_sided_counts(proj, theta @ u.T, tol).min()) / x.shape[0]


# ---------------------------------------------------------------------------
# Scatter depth
# ---------------------------------------------------------------------------

def _as_spd(gamma):
    return gamma if isinstance(gamma, SpdMatrix) else SpdMatrix.from_matrix(gamma)


def scatter_depth(gamma, data, center=None, dirs=None):
    """Empirical scatter depth of ``gamma`` around ``center``.

    min over directions of min( #{(u'(x-c))^2 <= u'Gu}, #{... >= ...} ) / n;
    boundary points count on both sides.
    """
    gamma = _as_spd(gamma)
    x = as_dataset(data)
    n, p = x.shape
    if gamma.dim != p:
        raise ValueError("scatter dimension does not match data")
    c = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    if dirs is None:
        if p == 1:
            dirs = np.array([[1.0]])
        else:
            raise ValueError("scatter_depth needs a direction pool for p >= 2")
    u = np.asarray(dirs, dtype=float)
    proj = (x - c) @ u.T
    sq = proj * proj
    t = np.einsum("ij,jk,ik->i", u, gamma.entries, u)
    tol = _TIE_RTOL * np.maximum(1.0, np.maximum(sq.max(axis=0), t))
    return float(_two_sided_counts(sq, t, tol).min()) / n


def scatter_depth_gaussian(gamma):
    """Scatter depth of ``gamma`` under the standard Gaussian model.

    Only the extreme eigenvalues matter:
    min( 2*Phi(sqrt(l_p)) - 1, 2*(1 - Phi(sqrt(l_1))) ).
    """
    gamma = _as_spd(gamma)
    l1 = gamma.eigenvalues[0]
    lp = gamma.eigenvalues[-1]
    return min(2.0 * std_normal_cdf(np.sqrt(lp)) - 1.0,
               2.0 * (1.0 - std_normal_cdf(np.sqrt(l1))))


def _g_of_quad(q):
    """Central mass 2*Phi(sqrt(q)) - 1 for a claimed directional variance q."""
    return 2.0 * std_normal_cdf(np.sqrt(np.maximum(q, 0.0))) - 1.0


def _dual_min(q, c):
    """min v'Qv over unit vectors v with v'Cv >= 0 (C must be positive
    somewhere on the sphere).

    Computed as the S-lemma dual: max over nu >= 0 of lambda_min(Q - nu C)
    (Polik & Terlaky, SIAM Review 2007).  It equals the minimum for every
    p >= 2: the joint range of (v'Qv, v'Cv) is convex for p >= 3 (Brickman),
    and at p = 2 a linear objective over its hull, cut by a half-plane, is
    still minimized at points of the range.  The dual is concave in nu: its
    bracket [0, b] doubles until it stops rising, then a golden-section
    search closes it.  Each evaluation is a lower bound on the minimum.
    """
    c = c * (np.abs(q).max() / np.abs(c).max())      # nu on the scale of Q

    def h(nu):
        return np.linalg.eigvalsh(q - nu * c)[0]

    b, hb = 1.0, h(1.0)
    while (hb2 := h(2.0 * b)) > hb:
        b, hb = 2.0 * b, hb2
    lo, hi = 0.0, 2.0 * b
    x1, x2 = hi - _INVPHI * hi, _INVPHI * hi
    h1, h2 = h(x1), h(x2)
    for _ in range(_GOLDEN_STEPS):
        if h1 < h2:
            lo, x1, h1 = x1, x2, h2
            x2 = lo + _INVPHI * (hi - lo)
            h2 = h(x2)
        else:
            hi, x2, h2 = x2, x1, h1
            x1 = hi - _INVPHI * (hi - lo)
            h1 = h(x1)
    return max(h1, h2)


def scatter_depth_pointmass(gamma, epsilon, r, e):
    """Depth of ``gamma`` under (1-eps) N(0, I) + eps * delta_{r e}, exact
    for every direction ``e``.

    With A = G - r^2 ee' the sphere splits into the side {v'Av >= 0}, where
    the point mass falls inside the claimed spread v'Gv, and the side
    {v'Av < 0}, where it falls outside.  On each side the depth is monotone
    in q = v'Gv, so the infimum needs only the extremes of q on the two
    sides, each one S-lemma dual (:func:`_dual_min`); the duals bound the
    extremes from outside, so rounding aside the result is never above the
    depth.  The second side counts only when it has interior, lambda_min(A)
    below -1e-10 max(l1, r^2); the same tolerance puts the single direction
    of p = 1 on the quadric.
    """
    gamma = _as_spd(gamma)
    e = np.asarray(e, dtype=float)
    if e.shape != (gamma.dim,):
        raise ValueError("contamination direction has wrong dimension")
    nrm = np.linalg.norm(e)
    if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-9:
        raise ValueError("contamination direction must be a unit vector")
    if not (np.isfinite(r) and r > 0.0):
        raise ValueError("contamination radius must be positive")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    if epsilon == 0.0:
        return scatter_depth_gaussian(gamma)
    eps = epsilon
    gm = gamma.entries
    a = gm - r * r * np.outer(e, e)
    tol = _QUADRIC_RTOL * max(gamma.eigenvalues[0], r * r)
    if gamma.dim == 1:
        # One direction: the point mass is inside, outside or on the boundary.
        g1 = _g_of_quad(gm[0, 0])
        return float(min((1 - eps) * g1 + eps * (a[0, 0] >= -tol),
                         (1 - eps) * (1 - g1) + eps * (a[0, 0] <= tol)))
    terms = [(1 - eps) * (1 - _g_of_quad(-_dual_min(-gm, a))),
             (1 - eps) * _g_of_quad(_dual_min(gm, a)) + eps]
    if np.linalg.eigvalsh(a)[0] < -tol:
        terms += [(1 - eps) * _g_of_quad(_dual_min(gm, -a)),
                  (1 - eps) * (1 - _g_of_quad(-_dual_min(-gm, -a))) + eps]
    return float(min(terms))


# ---------------------------------------------------------------------------
# Regression depth
# ---------------------------------------------------------------------------

def _check_regression(x, y):
    x = as_dataset(x)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != x.shape[0]:
        raise ValueError("x and y must have the same number of rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("responses contain non-finite values")
    return x, y


def _fit_residuals(x, y, betas):
    """Residuals of the fits ``betas`` (one per row) as a (fits, n) array.

    The stacked product runs one matrix-vector product per fit, the one
    that ``y - x @ beta`` runs, so every value equals it bit for bit; a
    single matrix product (``betas @ x.T`` or an einsum) rounds differently.
    """
    return y - (x @ betas[:, :, None])[..., 0]


class _RegressionSigns:
    """Regression depth of many fits against one design: exact at p = 2
    without a direction pool, and the minimum over the pool ``dirs`` at
    every p.

    The score (u'x_i) r_i is negative exactly when the residual r_i has the
    sign opposite to u'x_i.  The signs of x'u beyond the tolerance depend
    only on the design, so the 0/1 tables P = [x'u > tol] and
    N = [x'u < -tol] are built once.  Per direction n - (R+ N + R- P)
    scores are nonnegative, where R+ and R- are the 0/1 rows of positive
    and negative residuals; one product [R+ R-] [N; P] gives both terms.

    Without a pool (p = 2) the directions are the critical ones, the
    normals to the rows of x and the midpoints of the arcs between them,
    with a tolerance of 1e-12 |x_i| per row.  With a pool the tolerance is
    1e-12 max(1, max_i |u'x_i|) per direction, and each direction u counts
    min(#{score <= 0}, #{score >= 0}), an upper bound on the exact depth:
    the tables of -u are those of u with N and P swapped, so the swapped
    rows [R- R+] against the same table count the scores of -u.

    Residuals come from :func:`_fit_residuals`, equal to y - x @ beta, and
    those within 1e-12 max(1, max_i |r_i|) of 0 count on both sides.  Tables
    and sign rows are float32 up to n = 2^24 (every partial sum of the
    product is an integer of at most n, which float32 holds exactly) and
    float64 beyond.
    """

    def __init__(self, x, y, dirs=None):
        self.x, self.y = x, y
        self.pool = dirs is not None
        if dirs is None:
            norms = np.linalg.norm(x, axis=1)
            scale = max(1.0, norms.max(initial=0.0))
            nz = norms > _TIE_RTOL * scale
            cand = _candidate_angles(np.arctan2(x[nz, 1], x[nz, 0]))
            xu = x @ np.stack([np.cos(cand), np.sin(cand)], axis=1).T  # (n, K)
            tol = _TIE_RTOL * norms[:, None]
        else:
            xu = x @ np.asarray(dirs, dtype=float).T
            tol = _TIE_RTOL * np.maximum(1.0, np.abs(xu).max(axis=0))
        dtype = np.float32 if x.shape[0] <= _F32_EXACT else np.float64
        self.table = np.vstack([xu < -tol, xu > tol]).astype(dtype)  # [N; P]
        self.screen = _ProbeScreen(self.table.shape[1])

    def _wrong(self, betas, table):
        """Per fit and column of ``table``, the number of wrong-signed
        scores: the larger of u's and -u's with a pool."""
        r = _fit_residuals(self.x, self.y, betas)
        tol = _TIE_RTOL * np.maximum(1.0, np.abs(r).max(axis=1))[:, None]
        pos, neg = r > tol, r < -tol
        signs = np.hstack([pos, neg])                            # [R+ R-]
        if self.pool:
            signs = np.vstack([signs, np.hstack([neg, pos])])    # and -u
        wrong = signs.astype(table.dtype) @ table
        return wrong.reshape(-1, len(r), table.shape[1]).max(axis=0)

    def depths(self, betas):
        """Depths of the fits ``betas`` (one per row), counted
        ``_FIT_BLOCK`` at a time to bound the memory of the (fits,
        directions) counts."""
        betas = np.asarray(betas, dtype=float)
        n = self.x.shape[0]
        out = np.empty(len(betas))
        for lo in range(0, len(betas), _FIT_BLOCK):
            wrong = self._wrong(betas[lo:lo + _FIT_BLOCK], self.table)
            out[lo:lo + len(wrong)] = (n - wrong.max(axis=1).astype(float)) / n
        return out

    def best(self, betas, floor):
        """``(index, depth)`` of the first deepest fit, or None when no fit
        is deeper than ``floor``: the first maximum of :meth:`depths`.

        Each fit's bound is n minus its largest wrong count over the
        columns of a :class:`_ProbeScreen`, 64 evenly spaced columns and,
        once a call has found a winner, that winner's 64 worst; fits are
        counted in full from the highest bound down
        (:meth:`_ProbeScreen.first_deepest`).  The counts are integers, so
        any split of the columns or fits counts the same.
        """
        betas = np.asarray(betas, dtype=float)
        n = self.x.shape[0]
        probe = self.table[:, self.screen.cols]
        bound = np.concatenate([
            n - self._wrong(betas[lo:lo + _FIT_BLOCK], probe).max(axis=1)
            for lo in range(0, len(betas), _FIT_BLOCK)]).astype(int)
        return self.screen.first_deepest(
            bound, lambda i: n - self._wrong(betas[i:i + 1], self.table)[0],
            n, floor)


def regression_depth(beta, x, y, dirs=None):
    """Univariate-response regression depth of the fit ``beta``.

    inf over nonzero u of P( (u'x_i) * (y_i - beta'x_i) >= 0 ); exact
    enumeration for p <= 2 without a direction pool, otherwise the minimum
    over the sampled directions ``dirs``.  Every p >= 2 and every pool is a
    batch of one for :class:`_RegressionSigns`.
    """
    x, y = _check_regression(x, y)
    if y.shape[1] != 1:
        raise ValueError("regression_depth expects a single response column")
    y = y[:, 0]
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    n, p = x.shape
    if beta.shape != (p,):
        raise ValueError("beta dimension does not match x")
    if dirs is None and p == 1:
        resid = y - x @ beta
        tol = _TIE_RTOL * max(1.0, np.abs(resid).max(initial=0.0))
        s = x[:, 0] * np.where(np.abs(resid) <= tol, 0.0, resid)
        tol = _TIE_RTOL * max(1.0, np.abs(s).max(initial=0.0))
        return min(np.sum(s >= -tol), np.sum(-s >= -tol)) / n
    if (dirs is None and p > 2) or (dirs is not None and len(dirs) == 0):
        raise ValueError("sampled regression depth needs a direction pool")
    return float(_RegressionSigns(x, y, dirs).depths(beta[None])[0])


def default_mvreg_candidates(x, y, b, rng, per_cell=200):
    """Competitor directions for multivariate regression depth.

    ``per_cell * p * m`` Gaussian matrices normalized to unit Frobenius norm
    plus the rank-one data-driven candidates x_j (y_j - B'x_j)'.
    """
    x, y = _check_regression(x, y)
    p, m = x.shape[1], y.shape[1]
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    count = per_cell * p * m
    mats = gen.standard_normal((count, p, m))
    norms = np.linalg.norm(mats.reshape(count, -1), axis=1)
    mats /= np.maximum(norms, 1e-300)[:, None, None]
    cands = [mats]
    resid = y - x @ np.asarray(b, dtype=float).reshape(p, m)
    data_u = x[:, :, None] * resid[:, None, :]
    nrm = np.linalg.norm(data_u.reshape(x.shape[0], -1), axis=1)
    keep = nrm > 1e-12 * max(1.0, nrm.max(initial=0.0))
    if np.any(keep):
        cands.append(data_u[keep] / nrm[keep][:, None, None])
    return np.concatenate(cands, axis=0)


def mvreg_depth(b, x, y, u_samples):
    """Multivariate regression depth: inf over U of P(<U'x, y - B'x> >= 0)."""
    x, y = _check_regression(x, y)
    p, m = x.shape[1], y.shape[1]
    b = np.asarray(b, dtype=float).reshape(p, m)
    u = np.asarray(u_samples, dtype=float)
    if u.ndim != 3 or u.shape[1:] != (p, m) or u.shape[0] == 0:
        raise ValueError("u_samples must be a nonempty stack of (p, m) matrices")
    if np.any(np.linalg.norm(u.reshape(u.shape[0], -1), axis=1) == 0.0):
        raise ValueError("u_samples must not contain the zero matrix")
    resid = y - x @ b
    # scores[i, k] = <U_k' x_i, resid_i>
    scores = np.einsum("ip,kpm,im->ik", x, u, resid)
    tol = _TIE_RTOL * np.maximum(1.0, np.abs(scores).max(axis=0))
    counts = np.sum(scores >= -tol, axis=0)
    return float(counts.min()) / x.shape[0]


def residual_competitor_grid():
    """Step sizes for the residual-smallness competitors B - t V / 2."""
    return 2.0 ** np.arange(-10, 4)


def mvreg_depth_residual(b, x, y, u_samples, t_grid=None):
    """Residual-smallness form of multivariate regression depth.

    inf over competitors U of P( ||y - B'x|| <= ||y - U'x|| ), with
    competitors B - t V / 2 over the sampled directions V and a geometric
    grid of t > 0.  Converges to :func:`mvreg_depth` from above as the grid
    refines toward t = 0.
    """
    x, y = _check_regression(x, y)
    p, m = x.shape[1], y.shape[1]
    b = np.asarray(b, dtype=float).reshape(p, m)
    v = np.asarray(u_samples, dtype=float)
    if v.ndim != 3 or v.shape[1:] != (p, m) or v.shape[0] == 0:
        raise ValueError("u_samples must be a nonempty stack of (p, m) matrices")
    t_grid = residual_competitor_grid() if t_grid is None else np.asarray(t_grid, float)
    resid = y - x @ b                                   # (n, m)
    base = np.sum(resid * resid, axis=1)
    # ||y - U'x||^2 with U = B - tV/2 equals ||r + (t/2) V'x||^2.
    vx = np.einsum("ip,kpm->kim", x, v)                 # (K, n, m)
    cross = np.einsum("im,kim->ki", resid, vx)          # <r_i, V_k'x_i>
    sq = np.sum(vx * vx, axis=2)                        # ||V_k'x_i||^2
    best = 1.0
    n = x.shape[0]
    tol = _TIE_RTOL * max(1.0, float(base.max(initial=0.0)))
    for t in t_grid:
        rhs = base + t * cross + 0.25 * t * t * sq
        counts = np.sum(base <= rhs + tol, axis=1)
        best = min(best, float(counts.min()) / n)
    return best


# ---------------------------------------------------------------------------
# Location-scale depths (univariate)
# ---------------------------------------------------------------------------

def _univariate(data):
    x = as_dataset(data)
    if x.shape[1] != 1:
        raise ValueError("location-scale depth requires univariate data")
    return x[:, 0]


def _ls_tol(y):
    """Tie tolerance of the location-scale depths of ``y``: a cell boundary
    mu -/+ sigma at a data point is rounded relative to that point, which is
    at most max|y|.  One value per dataset keeps every count monotone in mu
    and sigma (deepest_locscale2 relies on it)."""
    return _TIE_RTOL * max(1.0, float(np.abs(y).max(initial=0.0)))


def ls_depth1(mu, sigma, data):
    """Separate-parameters location-scale depth (closed empirical form).

    min over the location pair {P(y <= mu), P(y >= mu)} and the scale pair
    {P(|y - mu| <= sigma), P(|y - mu| >= sigma)}.  Comparisons allow the
    dataset's tie tolerance 1e-12 max(1, max|y|).
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    y = _univariate(data)
    n = y.size
    tol = _ls_tol(y)
    z = np.abs(y - mu)
    loc = min(np.sum(y <= mu + tol), np.sum(y >= mu - tol))
    sca = min(np.sum(z <= sigma + tol), np.sum(z >= sigma - tol))
    return min(loc, sca) / n


def ls_depth2(mu, sigma, data):
    """Joint location-scale depth (closed empirical form).

    min of the four cell probabilities P(mu-sigma <= y <= mu),
    P(mu <= y <= mu+sigma), P(y <= mu-sigma), P(y >= mu+sigma); boundary
    points, within the dataset's tie tolerance 1e-12 max(1, max|y|), count
    in both adjacent cells.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    y = _univariate(data)
    n = y.size
    tol = _ls_tol(y)
    lo, hi = mu - sigma, mu + sigma
    cells = (
        np.sum((y >= lo - tol) & (y <= mu + tol)),
        np.sum((y >= mu - tol) & (y <= hi + tol)),
        np.sum(y <= lo + tol),
        np.sum(y >= hi - tol),
    )
    return min(cells) / n
