"""Maximizers of the depth functions: deepest location, scatter, regression,
and location-scale fits of a dataset.

Exact search is used wherever the empirical objective is piecewise constant
over a known finite candidate set (univariate medians, the joint
location-scale fit, whose monotone cell counts are bisected over each
location's sorted distances); elsewhere a deterministic seeded ascent over
data-driven candidates with shrinking perturbations is used.  Accepted steps
never decrease the (sampled or exact) depth, so the returned fit is always
at least as deep as the initialization.

Ties are broken deterministically: first by depth, then by the documented
secondary keys (smallest scale, closeness to the coordinatewise median,
candidate order).

The searches evaluate many candidates against one dataset, so they count a
whole batch at once.  The sampled searches sort its projections once and
count by bisection (:class:`~depthlab.depth._SortedCounts`).  The sampled
searches and the regression search are also bounded by one probe screen
(:class:`~depthlab.depth._ProbeScreen`): a candidate's counts over a probe
set of columns (pool directions, or the critical directions of the
regression sign tables), evenly spaced ones and the incumbent's worst
ones, bound its depth from above, and a candidate is counted in full only
when that bound does not already show it cannot beat the incumbent.  The
location and regression searches bound a batch of proposals; the scatter
ascent bounds a direction's whole ladder of step sizes and walks it in
order.  At p = 2 the exact location depths of a batch come from an angular
sweep, the regression depths at every p >= 2 from sign tables of the
design, and the joint location-scale search bisects the scales of every
candidate location at once.  All give the fits of a count of one candidate
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .depth import (_DIRECTIONS_PER_DIM, _PROBE_COLUMNS, _data_directions,
                    _ls_tol, _ProbeScreen, _ProjectionDepth, _RegressionSigns,
                    _SortedCounts, _tukey_sweep, as_dataset, build_directions,
                    ls_depth2, regression_depth)
from .numerics import RngStream, SpdMatrix, draw_subsets, unit_directions

__all__ = [
    "SearchConfig",
    "tukey_median",
    "deepest_scatter",
    "deepest_locscale1",
    "deepest_locscale2",
    "deepest_regression",
    "lower_median",
]


# Every ascent runs at most 100 rounds, halves its step (or rescaling
# factor) after a round without progress, and stops below a step of 1e-3.
_MAX_ITERATIONS = 100
_STEP_SHRINK = 0.5
_TOLERANCE = 1e-3

# Up to this n the location search also tries every pairwise midpoint.
_MIDPOINT_MAX_N = 60


@dataclass(frozen=True)
class SearchConfig:
    """Random stream of the stochastic depth-ascent searches."""

    rng: RngStream = field(default_factory=lambda: RngStream(2024))


def lower_median(values):
    """Lower-middle order statistic; equals the usual median for odd n."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[(v.size - 1) // 2])


# ---------------------------------------------------------------------------
# Halfspace-deepest location
# ---------------------------------------------------------------------------

def tukey_median(data, cfg=None):
    """Deepest location: maximizer of the halfspace depth over candidates.

    p = 1 returns the exact sample median (lower-middle convention for even
    n).  Otherwise the search starts from the coordinatewise median and
    ascends through data points, pairwise midpoints (n <= 60), and shrinking
    Gaussian perturbations.  Each batch moves to its first deepest
    candidate, and an ascent round only when that candidate is strictly
    deeper than the incumbent.  At p = 2 and n <= 400 the depth is exact,
    counted for the whole batch by one angular sweep
    (:func:`~depthlab.depth._tukey_sweep`).  With sampled depth,
    :meth:`~depthlab.depth._ProjectionDepth.best` skips the candidates whose
    upper bound rules them out, so the result is the one an exhaustive
    argmax gives.
    """
    x = as_dataset(data)
    n, p = x.shape
    cfg = cfg or SearchConfig()
    if p == 1:
        return np.array([lower_median(x[:, 0])])

    if p == 2 and n <= 400:
        def best_above(cands, floor):
            return _first_max_above(_tukey_sweep(cands, x), floor)
    else:
        dirs = build_directions(x, center=np.median(x, axis=0),
                                rng=cfg.rng.child(11))
        best_above = _ProjectionDepth(x, dirs).best

    cands = np.vstack([np.median(x, axis=0), x.mean(axis=0), x[:200]])
    if n <= _MIDPOINT_MAX_N:
        i, j = np.triu_indices(n, k=1)
        cands = np.vstack([cands, 0.5 * (x[i] + x[j])])
    best_idx, best_val = best_above(cands, -np.inf)
    best = cands[best_idx].copy()

    scale = np.median(np.abs(x - np.median(x, axis=0)), axis=0)
    scale = np.where(scale > 0, scale, np.std(x, axis=0))
    scale = np.where(scale > 0, scale, 1.0)
    return _perturbation_ascent(best_above, best, best_val, scale, 1.0, 24,
                                cfg.rng.child(12).generator())


def _first_max_above(vals, floor):
    """``(index, value)`` of the first maximum of ``vals``, or None when it
    is not above ``floor``."""
    j = int(np.argmax(vals))
    return (j, float(vals[j])) if vals[j] > floor else None


def _perturbation_ascent(best_above, best, best_val, scale, step, count, gen):
    """Shrinking-step random ascent from ``best``.

    Each round draws ``count`` Gaussian proposals around the incumbent with
    per-coordinate spread ``step * scale`` and moves to the first deepest of
    them if it is strictly deeper; otherwise the step shrinks, and the
    search stops once it falls below the tolerance.  ``best_above(props,
    floor)`` returns that proposal's index and depth, or None when no
    proposal is deeper than ``floor``.
    """
    for _ in range(_MAX_ITERATIONS):
        props = best + step * scale * gen.standard_normal((count, best.size))
        hit = best_above(props, best_val)
        if hit is not None:
            best, best_val = props[hit[0]].copy(), hit[1]
        else:
            step *= _STEP_SHRINK
            if step < _TOLERANCE:
                break
    return best


# ---------------------------------------------------------------------------
# Deepest scatter
# ---------------------------------------------------------------------------

def _scatter_pool(xc, gamma0, rng):
    """Direction pool in the metric of the start matrix.

    Sampling through the start's Cholesky factor keeps matched-seed runs
    equivariant under diagonal rescalings of the data.
    """
    n, p = xc.shape
    if p == 1:
        return np.array([[1.0]])
    l0 = np.linalg.cholesky(gamma0.entries)
    g = unit_directions(_DIRECTIONS_PER_DIM * p, p, rng.child(21))
    u = np.linalg.solve(l0.T, g.T).T
    u /= np.linalg.norm(u, axis=1)[:, None]
    w = np.linalg.solve(gamma0.entries, xc.T).T
    return np.vstack([u, np.eye(p), _data_directions(w)])


def deepest_scatter(data, center, cfg=None, return_info=False):
    """Deepest scatter matrix around a known ``center``.

    Starts from the diagonal of squared coordinatewise median absolute
    deviations (consistent, up to the depth calibration constant, with the
    covariance at the Gaussian model) and ascends the sampled scatter depth
    by rank-one rescaling along the currently worst direction, accepting
    only depth-non-decreasing steps.  The raw maximizer targets
    ``[Phi^{-1}(3/4)]^2 Sigma`` at the Gaussian model; callers wanting
    ``Sigma`` itself divide by that constant.

    A candidate is accepted when its score (depth, mean depth over the 32
    worst directions, mean depth) is higher than the incumbent's.  Before
    it is counted over the whole pool, it is counted over a probe set
    (:class:`~depthlab.depth._ProbeScreen`): the incumbent's 64 worst
    directions and 64 evenly spaced pool columns, rebuilt each round.  Its
    minimum count over the pool is at most the probe minimum, and its 32
    smallest counts sum to at most the probe's 32 smallest, so a candidate
    whose probe pair (minimum, sum) is below the incumbent's cannot score
    higher and is rejected uncounted.  The probe counts of a direction's
    whole ladder of step sizes (eta = 1, 1/2, ... down to the tolerance)
    come from one stacked product and one count; the ladder is then walked
    in order, counting in full only the steps the probe does not rule out,
    up to the first accepted one.  The accepted steps, ``counted`` and
    ``screened`` are those of screening one step at a time, and the steps
    those of counting every candidate in full.

    With ``return_info`` the second value is a dict of ``depth``,
    ``trace`` (the depth after each round, the start first), ``start``,
    ``directions`` (the pool size), ``stop`` (``"no_step"`` when a round
    found no step, ``"cap"`` after ``_MAX_ITERATIONS`` rounds), ``counted``
    (candidates counted over the whole pool) and ``screened`` (candidates
    rejected by the probe set).
    """
    x = as_dataset(data)
    n, p = x.shape
    cfg = cfg or SearchConfig()
    center = np.asarray(center, dtype=float)
    if center.shape != (p,):
        raise ValueError("center has wrong dimension")
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

    u = _scatter_pool(xc, gamma0, cfg.rng)
    k_dirs = u.shape[0]
    sq = xc @ u.T                                       # (n, K)
    np.square(sq, out=sq)
    sq.sort(axis=0)
    targets = sq[(n - 1) // 2].copy()                   # per-direction balance point
    kernel = _SortedCounts(sq)
    del sq              # from _SORTED_MIN_N rows on the kernel keeps a padded copy

    n_tail = min(32, k_dirs)
    screen = _ProbeScreen(k_dirs)
    ladder = []                                         # eta = 1, 1/2, ...
    eta = 1.0
    while eta >= _TOLERANCE:
        ladder.append(eta)
        eta *= _STEP_SHRINK
    ladder = np.array(ladder)

    def eval_depth(g):
        t = np.einsum("kj,jl,kl->k", u, g, u)
        c = kernel.counts(t, 1e-12 * np.maximum(1.0, t))
        per_dir = c / n
        order = np.argsort(per_dir)
        # Lexicographic score: overall depth first, then the mean over the
        # worst directions, then the grand mean, so repairing some of many
        # tied-worst directions still counts as progress.
        score = (float(per_dir[order[0]]),
                 float(per_dir[order[:n_tail]].mean()),
                 float(per_dir.mean()))
        worst = c[order[:n_tail]]
        return score, order, t, (worst[0], worst.sum())

    score, order, t, key = eval_depth(gamma)
    trace = [score[0]]
    counted = screened = 0
    stop = "cap"
    for _ in range(_MAX_ITERATIONS):
        screen.focus(order[:_PROBE_COLUMNS])
        u_probe = u[screen.cols]
        improved = False
        for k in order[:5]:
            q = t[k]
            ratio = targets[k] / q if q > 0 else 2.0
            if ratio == 1.0:
                continue
            w = gamma @ u[k]
            delta_dir = np.outer(w, w) / q
            deltas = np.clip(ladder * (ratio - 1.0), -0.95, 9.0)
            cands = gamma + deltas[:, None, None] * delta_dir
            # The rows of these products for a row subset of u equal those
            # of the product for all of u, so probe counts are pool counts;
            # each candidate's row equals its own product.
            tp = np.einsum("kj,cjl,kl->ck", u_probe, cands, u_probe)
            low = np.sort(kernel.counts(tp, 1e-12 * np.maximum(1.0, tp),
                                        cols=screen.cols), axis=1)[:, :n_tail]
            for cand, lo in zip(cands, low):
                if (lo[0], lo.sum()) < key:
                    screened += 1
                    continue
                counted += 1
                cand_eval = eval_depth(cand)
                if cand_eval[0] > score:
                    gamma = cand
                    score, order, t, key = cand_eval
                    improved = True
                    break
            if improved:
                break
        trace.append(score[0])
        if not improved:
            stop = "no_step"
            break
    depth = score[0]
    result = SpdMatrix.from_matrix(gamma)
    if return_info:
        info = {"depth": depth, "trace": trace, "start": gamma0,
                "directions": k_dirs, "stop": stop, "counted": counted,
                "screened": screened}
        return result, info
    return result


# ---------------------------------------------------------------------------
# Location-scale
# ---------------------------------------------------------------------------

def deepest_locscale1(data):
    """Separate-depth deepest location-scale fit: (median, MAD).

    Lower-middle convention for even n.  Raises when the MAD is zero
    (more than half the points coincide).
    """
    x = as_dataset(data)
    if x.shape[1] != 1 or x.shape[0] < 2:
        raise ValueError("requires univariate data with n >= 2")
    y = x[:, 0]
    mu = lower_median(y)
    sigma = lower_median(np.abs(y - mu))
    if sigma <= 0.0:
        raise ValueError("MAD is zero; scale is not identified")
    return mu, sigma


def _first_true(pred, lo, hi):
    """Per row, the first k in [lo, hi) where ``pred(k)`` holds, else hi.

    ``pred`` maps an index array to a boolean array and must be monotone
    (false, then true) on each row's range; it may see any index in
    [lo, hi] and its values outside [lo, hi) are ignored.
    """
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        ok = pred(mid)
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid + 1, lo)


def deepest_locscale2(data):
    """Joint-depth deepest location-scale fit, exact.

    The empirical objective is piecewise constant: candidate locations are
    the data values and midpoints of consecutive distinct values, and for
    each location the four cell counts change only where sigma crosses some
    |x_i - mu| above the tie tolerance of :func:`~depthlab.depth.ls_depth2`.
    Ties are broken by smallest sigma, then smallest distance of mu to the
    sample median, then smallest mu.

    No location scans all its scales.  At a fixed mu the inner count
    A = min(#[mu-sigma, mu], #[mu, mu+sigma]) never decreases in sigma and
    the outer count B = min(#(-inf, mu-sigma], #[mu+sigma, inf)) never
    increases, also in floating point (mu -/+ sigma, the tolerance shifts
    and the counts are all monotone).  So along sorted distances z, with k
    the first index where A >= B, the best count is
    max(A(z[k-1]), B(z[k])); its smallest scale is z[k] when
    B(z[k]) > A(z[k-1]), else the first z where A reaches A(z[k-1]).  Both
    indices are found by bisection.  The data are sorted, so the distances
    on each side of mu are sorted already: every location bisects its two
    sides, all locations at once, and the best (location, side) row wins.
    """
    x = as_dataset(data)
    if x.shape[1] != 1 or x.shape[0] < 4:
        raise ValueError("requires univariate data with n >= 4")
    y = np.sort(x[:, 0])
    n = y.size
    med = lower_median(y)
    distinct = np.unique(y)
    mus = np.concatenate([distinct, 0.5 * (distinct[:-1] + distinct[1:])])
    tol = _ls_tol(y)

    # Row r holds the distances |y[start + step * k] - mu|, k < size, of the
    # points on one side of its location, in increasing order.
    below = np.searchsorted(y, mus, side="left")
    above = np.searchsorted(y, mus, side="right")
    mu = np.concatenate([mus, mus])
    start = np.concatenate([below - 1, above])
    step = np.repeat([-1, 1], mus.size)
    size = np.concatenate([below, n - above])
    r_mu = np.searchsorted(y, mu + tol, side="right")
    l_mu = np.searchsorted(y, mu - tol, side="left")

    def dist(k):
        return np.abs(y[np.clip(start + step * k, 0, n - 1)] - mu)

    def counts(k):                      # (A, B) at scale dist(k)
        z = dist(k)
        lo, hi = mu - z, mu + z
        inner = np.minimum(r_mu - np.searchsorted(y, lo - tol, side="left"),
                           np.searchsorted(y, hi + tol, side="right") - l_mu)
        outer = np.minimum(np.searchsorted(y, lo + tol, side="right"),
                           n - np.searchsorted(y, hi - tol, side="left"))
        return inner, outer

    k0 = _first_true(lambda k: dist(k) > tol, np.zeros_like(size), size)
    k_cross = _first_true(lambda k: np.greater_equal(*counts(k)), k0, size)
    a_last = np.where(k_cross > k0, counts(k_cross - 1)[0], -1)
    b_first = np.where(k_cross < size, counts(k_cross)[1], -1)
    k_a = _first_true(lambda k: counts(k)[0] >= a_last, k0, k_cross)
    k_best = np.where(b_first > a_last, k_cross, k_a)
    count = np.maximum(a_last, b_first)          # -1: no scale above tol
    if count.max() < 0:
        raise ValueError("no admissible scale candidate (degenerate data)")
    sigma = dist(k_best)
    # Max count, then min sigma, |mu - med| and mu (rows tied on all four
    # hold the same fit).
    r = int(np.lexsort((mu, np.abs(mu - med), sigma, -count))[0])
    best_fit = (float(mu[r]), float(sigma[r]))
    depth = count[r] / n
    # Exactness guard: the enumerated value must match the closed form.
    closed = ls_depth2(best_fit[0], best_fit[1], x)
    if abs(closed - depth) >= 1e-12:
        raise RuntimeError(f"deepest_locscale2: enumerated depth "
                           f"{float(depth)!r} != closed-form ls_depth2 "
                           f"{float(closed)!r}")
    return best_fit


# ---------------------------------------------------------------------------
# Deepest regression (single response)
# ---------------------------------------------------------------------------

def _subset_fits(x, y, subsets):
    """Exact fits through the rows of each p-subset, in subset order;
    subsets with a singular or non-finite solve are skipped.

    One stacked solve gives, fit for fit, the values of a solve per subset.
    A single singular system makes the stack raise; then each subset is
    solved alone, so the skips are those of the per-subset loop.
    """
    a, b = x[subsets], y[subsets]
    try:
        fits = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        fits = []
        for ai, bi in zip(a, b):
            try:
                fits.append(np.linalg.solve(ai, bi))
            except np.linalg.LinAlgError:
                continue
        fits = np.reshape(fits, (-1, x.shape[1]))
    return fits[np.all(np.isfinite(fits), axis=1)]


def deepest_regression(x, y, cfg=None):
    """Deepest regression fit for a single response.

    Candidates are the least-squares fit, exact fits through p-subsets of
    observations (every pair at p = 2 and n <= 60, else seeded draws), and
    shrinking perturbations around the incumbent; the depth of each
    candidate is exact for p <= 2 and direction-sampled otherwise.  The
    seeded subsets are those of successive ``gen.choice`` calls, drawn in
    one call (:func:`~depthlab.numerics.draw_subsets`), and their fits come
    from one stacked solve.  At every p >= 2 the subset batch and each
    ascent round are counted against sign tables of the design built once
    (:class:`~depthlab.depth._RegressionSigns`; float32, with exact counts,
    up to n = 2^24), which give the depths of
    :func:`~depthlab.depth.regression_depth`.  Each batch is bounded first
    by its counts over a probe set of table columns, and only the fits
    whose bound can still reach the best are counted in full
    (:meth:`~depthlab.depth._RegressionSigns.best`), so the fit and the
    stream the ascent continues from are those of counting every
    candidate.
    """
    x = as_dataset(x)
    yv = np.asarray(y, dtype=float).reshape(-1)
    n, p = x.shape
    if yv.shape[0] != n:
        raise ValueError("x and y must have the same number of rows")
    if n < p:
        raise ValueError("need at least p observations")
    if np.linalg.matrix_rank(x) < p:
        raise ValueError("degenerate design: covariates lie in a hyperplane through 0")
    cfg = cfg or SearchConfig()

    if p == 1:
        def best_above(betas, floor):
            return _first_max_above([regression_depth(b, x, yv) for b in betas],
                                    floor)
    else:
        dirs = None if p == 2 else unit_directions(
            _DIRECTIONS_PER_DIM * p, p, cfg.rng.child(31))
        best_above = _RegressionSigns(x, yv, dirs).best

    cands = [np.linalg.lstsq(x, yv, rcond=None)[0]]
    gen = cfg.rng.child(32).generator()
    if p == 1:
        nz = np.abs(x[:, 0]) > 1e-12
        cands.extend(np.array([yv[i] / x[i, 0]]) for i in np.where(nz)[0][:400])
    else:
        if p == 2 and n <= 60:
            subsets = np.column_stack(np.triu_indices(n, k=1))
        else:
            subsets = draw_subsets(gen, n, p, 300 if n <= 60 else 1000)
        cands.extend(_subset_fits(x, yv, subsets))
    cands = np.array(cands)

    best_idx, best_val = best_above(cands, -np.inf)
    best = cands[best_idx].copy()
    if best_val >= 1.0:
        return best
    return _perturbation_ascent(best_above, best, best_val,
                                max(np.linalg.norm(best), 1.0), 0.5, 16, gen)
