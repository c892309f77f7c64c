"""Location-scatter estimator suite for the contamination benchmark.

Eight estimators, each a pure function of the dataset (and an explicit
random stream where subsampling is involved): the sample covariance
benchmark and seven robust alternatives (minimum volume ellipsoid, minimum
covariance determinant, bisquare S, Rocke S, SHR-based MM, Stahel-Donoho,
and the deepest-scatter estimator with estimated location).

All robust estimators are calibrated to target the identity matrix at the
standard Gaussian model: subset-based methods carry chi-square consistency
factors, M-scales are divided by the corresponding Gaussian scale constant,
and the depth estimator divides out its quantile calibration.  Subset and
direction selection is index-based, so matched-seed runs are exactly
translation equivariant.

The canonical algorithms are implemented directly with one fixed design,
the one the benchmark compares (Maronna & Yohai, CSDA 2017):

* 500 elemental starts for MVE and MCD, at most 20 concentration steps;
* S-estimators with breakdown delta = 1/2, Rocke's band from alpha = 0.1
  (Rocke, Ann. Statist. 1996), started from MVE; MM starts from bisquare S;
* two hard-rejection reweighting passes at 97.5 percent chi-square coverage
  after MVE and MCD;
* 500 iterations at 1e-9 tolerance for the iterative estimators, 1000 p
  directions plus pair differences for Stahel-Donoho.

The 500 MVE starts are scored, and the MCD starts concentrated, as blocked
stacks of at most _STACK_BYTES, with every number equal to that of running
the starts one by one; the per-start loops are the test references.  The
S-type fits solve their M-scale with :func:`~depthlab.numerics.m_scale`,
whose result equals a plain bisection's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg
from scipy import stats

from .deepest import SearchConfig, deepest_scatter, tukey_median
from .depth import as_dataset
from .maxbias import BETA, SQRT_BETA
from .numerics import (RngStream, _mahal_sq, _mahal_sq_stack,
                       _singular_spectrum, m_scale, unit_directions)

__all__ = [
    "ESTIMATOR_IDS",
    "EstimatorResult",
    "rho_bisquare",
    "weight_bisquare",
    "rho_shr",
    "weight_shr",
    "shr_mid_polynomial",
    "rocke_gamma",
    "rho_rocke",
    "weight_rocke",
    "scov",
    "mve",
    "mcd",
    "s_bisquare",
    "rocke",
    "mm",
    "stahel_donoho",
    "mdepth_estimator",
    "run_estimator",
]

_MAX_ITER = 500
_ITER_TOL = 1e-9

_SUBSETS = 500                # elemental starts of MVE and MCD
_CSTEPS = 20                  # concentration steps per MCD start
_STACK_BYTES = 1 << 18        # one (starts, n, p) float64 stack of starts
_DELTA = 0.5                  # S-estimator breakdown point
_ROCKE_ALPHA = 0.1            # tail probability that sets Rocke's band
_REWEIGHT_PASSES = 2
_REWEIGHT_COVERAGE = 0.975
_CHOL_RTOL = 1e-7             # smallest/largest Cholesky diagonal ratio


@dataclass
class EstimatorResult:
    estimator_id: str
    location: np.ndarray
    scatter: np.ndarray
    iterations: int = 0
    converged: bool = True
    singular: bool = False
    extras: dict = field(default_factory=dict)


def _is_singular(cov):
    vals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    return _singular_spectrum(vals[0], vals[-1])


# ---------------------------------------------------------------------------
# rho / weight functions (arguments are squared-distance ratios)
# ---------------------------------------------------------------------------

def rho_bisquare(t):
    t = np.asarray(t, dtype=float)
    return np.where(t >= 1.0, 1.0, 1.0 - (1.0 - np.minimum(t, 1.0)) ** 3)


def weight_bisquare(t):
    t = np.asarray(t, dtype=float)
    return np.where(t >= 1.0, 0.0, 3.0 * (1.0 - np.minimum(t, 1.0)) ** 2)


_SHR_TOP = 6.494


def shr_mid_polynomial(d):
    """Quartic bridge of the smoothed-hard-rejection rho on 4 < d <= 9."""
    d = np.asarray(d, dtype=float)
    return 3.534 - 1.944 * d + 0.864 * d ** 2 - 0.104 * d ** 3 + 0.004 * d ** 4


def rho_shr(d):
    d = np.asarray(d, dtype=float)
    out = np.where(d <= 4.0, d, np.where(d <= 9.0, shr_mid_polynomial(d), _SHR_TOP))
    return out / _SHR_TOP


def weight_shr(d):
    d = np.asarray(d, dtype=float)
    mid = -1.944 + 1.728 * d - 0.312 * d ** 2 + 0.016 * d ** 3
    out = np.where(d <= 4.0, 1.0, np.where(d <= 9.0, mid, 0.0))
    return out / _SHR_TOP


def rocke_gamma(p):
    """Band half-width of the translated biflat weight."""
    return min(1.0, stats.chi2.ppf(1.0 - _ROCKE_ALPHA, p) / p - 1.0)


def weight_rocke(t, gamma):
    t = np.asarray(t, dtype=float)
    inside = (t > 1.0 - gamma) & (t < 1.0 + gamma)
    w = 1.0 - ((t - 1.0) / gamma) ** 2
    return np.where(inside, np.maximum(w, 0.0), 0.0)


def rho_rocke(t, gamma):
    """Normalized integral of the biflat weight: 0 below the band, 1 above,
    and rho(1) = 1/2 by symmetry."""
    t = np.asarray(t, dtype=float)
    lo = 1.0 - gamma
    z = np.clip(t, lo, 1.0 + gamma)
    area = (z - lo) - ((z - 1.0) ** 3 + gamma ** 3) / (3.0 * gamma ** 2)
    out = np.clip(area / (4.0 * gamma / 3.0), 0.0, 1.0)
    return np.where(t <= lo, 0.0, np.where(t >= 1.0 + gamma, 1.0, out))


# ---------------------------------------------------------------------------
# Gaussian consistency constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _scale_constant(p, lo, hi, coefs):
    """s solving E rho(chi2_p / s) = 1/2 for rho(t) = 0 on t <= lo,
    sum_k coefs[k] t^k on lo < t <= hi and 1 above, by bisection.

    Closed form through the chi-square partial moments
    E[d^k; a < d <= b] = p (p + 2) ... (p + 2k - 2) (F_{p+2k}(b) - F_{p+2k}(a)).
    """
    def mean_rho(s):
        a, b = s * lo, s * hi
        total = 0.0
        for k, c in enumerate(coefs):
            prod = math.prod(range(p, p + 2 * k, 2))
            mass = stats.chi2.cdf(b, p + 2 * k) - stats.chi2.cdf(a, p + 2 * k)
            total += c * (prod * mass) / s ** k
        return total + (1.0 - stats.chi2.cdf(b, p))

    s_lo, s_hi = 1e-6, 10.0 * p
    while mean_rho(s_hi) > _DELTA:
        s_hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (s_lo + s_hi)
        if mid in (s_lo, s_hi):
            # Fixed point: each end holds the sign of its own evaluation
            # (mean rho(1e-6) is about 1), so every further halving would
            # set that end to itself.
            break
        if mean_rho(mid) > _DELTA:
            s_lo = mid
        else:
            s_hi = mid
    return 0.5 * (s_lo + s_hi)


def _bisquare_scale_constant(p):
    """s solving E rho_bisquare(chi2_p / s) = 1/2: rho(t) = 3t - 3t^2 + t^3."""
    return _scale_constant(p, 0.0, 1.0, (0.0, 3.0, -3.0, 1.0))


def _rocke_scale_constant(p):
    """s solving E rho_rocke(chi2_p / s) = 1/2: :func:`rho_rocke` expanded
    as a cubic in t on its band (1 - gamma, 1 + gamma)."""
    g = rocke_gamma(p)
    k = 3.0 / (4.0 * g)
    coefs = (k * (g - 1.0 - (g ** 3 - 1.0) / (3.0 * g * g)),
             k * (1.0 - 1.0 / (g * g)), k / (g * g), -k / (3.0 * g * g))
    return _scale_constant(p, 1.0 - g, 1.0 + g, coefs)


def _mm_tuning_constant(p):
    from ._mm_constants import MM_TUNING

    if p in MM_TUNING:
        return MM_TUNING[p]
    keys = sorted(MM_TUNING)
    if p < keys[0]:
        return MM_TUNING[keys[0]]
    if p > keys[-1]:
        # Tail growth is close to linear in p.
        k0, k1 = keys[-2], keys[-1]
        slope = (MM_TUNING[k1] - MM_TUNING[k0]) / (k1 - k0)
        return MM_TUNING[k1] + slope * (p - k1)
    lo = max(k for k in keys if k <= p)
    hi = min(k for k in keys if k >= p)
    if lo == hi:
        return MM_TUNING[lo]
    w = (p - lo) / (hi - lo)
    return (1 - w) * MM_TUNING[lo] + w * MM_TUNING[hi]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _chol_gates(cov):
    """Cholesky factors of a matrix or a stack of matrices, and which of them
    are trustworthy SPD: factorable, with a smallest/largest diagonal ratio
    above _CHOL_RTOL.  Where ``np.linalg.cholesky`` would raise, the factor
    is NaN, so one bad matrix does not stop the stack."""
    with np.errstate(invalid="ignore"):
        chol = _umath_linalg.cholesky_lo(cov)
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    return chol, diag.min(axis=-1) > _CHOL_RTOL * diag.max(axis=-1)


def _chol_gate(cov):
    """Cholesky factor of a trustworthy SPD matrix, else None."""
    chol, ok = _chol_gates(cov)
    return chol if ok else None


def _mean_cov(rows):
    """Mean and 1/len(rows) covariance of the rows of a data matrix, or of
    each matrix in a stack ``(starts, rows, p)``."""
    mu = rows.mean(axis=-2)
    z = rows - mu[..., None, :]
    return mu, np.swapaxes(z, -1, -2) @ z / rows.shape[-2]


def _median_distance_rescale(x, mu, cov):
    """Rescale so the median squared distance matches the chi-square median.

    The standard data-driven finite-sample correction for subset-based
    estimators: under the clean Gaussian model the factor is close to 1,
    while an imploded estimate (e.g. under central point-mass contamination)
    is inflated back to a consistent scale.  Breakdown point 1/2.
    """
    d = _mahal_sq(x, mu, cov)
    if d is None:
        return cov
    p = cov.shape[0]
    factor = float(np.median(d)) / stats.chi2.ppf(0.5, p)
    if np.isfinite(factor) and factor > 0.0:
        return cov * factor
    return cov


def _chi2_reweight(x, mu, cov):
    """Hard-rejection reweighting at the chi-square coverage cutoff.

    Each pass recomputes the trimmed mean and covariance from the points
    inside the cutoff, restores Gaussian consistency, and re-anchors the
    scale on the median distance; a second pass lets the shape recover from
    a distorted raw subset estimate.
    """
    n, p = x.shape
    cutoff = stats.chi2.ppf(_REWEIGHT_COVERAGE, p)
    factor = stats.chi2.cdf(cutoff, p + 2) / _REWEIGHT_COVERAGE
    for _ in range(_REWEIGHT_PASSES):
        d = _mahal_sq(x, mu, cov)
        if d is None:
            break
        keep = d <= cutoff
        if keep.sum() <= p + 1:
            break
        mu_new, cov_new = _mean_cov(x[keep])
        cov_new = _median_distance_rescale(x, mu_new, cov_new / factor)
        if _chol_gate(cov_new) is None:
            break
        mu, cov = mu_new, cov_new
    return mu, cov


def _weighted_moments(x, w):
    sw = float(w.sum())
    mu = (w[:, None] * x).sum(axis=0) / sw
    z = x - mu
    cov = (w[:, None] * z).T @ z / sw
    return mu, 0.5 * (cov + cov.T)


def _unit_det(cov):
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0.0 or not np.isfinite(logdet):
        return None
    p = cov.shape[0]
    return cov / np.exp(logdet / p)


# ---------------------------------------------------------------------------
# 1. Sample covariance
# ---------------------------------------------------------------------------

def scov(data):
    """Sample mean and 1/n covariance; rank deficiency is flagged, not fatal."""
    x = as_dataset(data)
    n, p = x.shape
    if n < 2:
        raise ValueError("need at least two observations")
    mu, cov = _mean_cov(x)
    cov = 0.5 * (cov + cov.T)
    return EstimatorResult("SCOV", mu, cov, iterations=0, converged=True,
                           singular=_is_singular(cov))


# ---------------------------------------------------------------------------
# 2. Minimum volume ellipsoid
# ---------------------------------------------------------------------------

def mve(data, rng=None):
    """Best of 500 elemental ellipsoids inflated to cover h points.

    Each random (p+1)-subset defines a center and shape; the candidate
    volume is det(shape) * (h-th smallest shape distance)^p.  The winner is
    rescaled so that the covering radius matches the chi-square quantile at
    coverage level h/n, which makes the estimator consistent at the
    Gaussian model.

    The starts are drawn one after another and none is regrown.  Their
    volumes are then computed as one stack: the Cholesky gate, the
    distances in blocks of starts whose ``(starts, n, p)`` stack stays
    within _STACK_BYTES, and the h-th smallest distance.  The ten smallest
    volumes, the first drawn among ties, are refined one by one.  Every
    number equals that of scoring the starts one by one, whatever the
    block size.

    ``iterations`` is the number of starts drawn and ``converged`` is
    always true, as MVE has no stop rule.  ``extras`` hold ``h``, ``kept``
    (the starts that passed every gate) and ``refine_steps`` (the accepted
    refinement steps of the winner).
    """
    x = as_dataset(data)
    n, p = x.shape
    if n <= p + 1:
        raise ValueError("need n > p + 1")
    rng = rng if rng is not None else RngStream(0)
    gen = rng.generator()
    h = (n + p + 1) // 2
    c2 = stats.chi2.ppf(h / n, p)

    idx = np.array([gen.choice(n, size=p + 1, replace=False)
                    for _ in range(_SUBSETS)])
    mus, covs = _mean_cov(x[idx])
    chol, ok = _chol_gates(covs)
    m2 = np.zeros(_SUBSETS)
    gated = np.flatnonzero(ok)
    block = max(1, _STACK_BYTES // (8 * n * p))
    for lo in range(0, len(gated), block):
        sel = gated[lo:lo + block]
        d, solved = _mahal_sq_stack(x, mus[sel], covs[sel])
        m2[sel[solved]] = np.partition(d[solved], h - 1, axis=1)[:, h - 1]
    kept = np.flatnonzero(m2 > 0.0)
    if not kept.size:
        raise ValueError("all elemental subsets were degenerate")
    logdet = 2.0 * np.log(np.diagonal(chol[kept], axis1=1, axis2=2)).sum(axis=1)
    logvols = logdet + p * np.log(m2[kept])

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

    # Concentration refinement of the best candidates: recenter on the h
    # covered points while the covering volume keeps shrinking.
    best = None
    for c in np.argsort(logvols, kind="stable")[:10]:
        b = kept[c]
        logvol, m2_b, mu, cov = logvols[c], m2[b], mus[b], covs[b]
        d = _mahal_sq(x, mu, cov)
        steps = 0
        for _ in range(10):
            keep = np.argpartition(d, h - 1)[:h]
            mu_new, cov_new = _mean_cov(x[keep])
            got = coverage(mu_new, cov_new)
            if got is None or got[0] >= logvol - 1e-12:
                break
            logvol, m2_b, d = got
            mu, cov = mu_new, cov_new
            steps += 1
        if best is None or logvol < best[0]:
            best = (logvol, mu, cov * (m2_b / c2), steps)
    _, mu, cov, steps = best
    cov = _median_distance_rescale(x, mu, cov)
    mu, cov = _chi2_reweight(x, mu, cov)
    return EstimatorResult("MVE", mu, 0.5 * (cov + cov.T), iterations=_SUBSETS,
                           converged=True, singular=_is_singular(cov),
                           extras={"h": h, "kept": int(kept.size),
                                   "refine_steps": steps})


# ---------------------------------------------------------------------------
# 3. Minimum covariance determinant (fast-MCD)
# ---------------------------------------------------------------------------

def mcd(data, rng=None):
    """Fast-MCD: random elemental starts refined by concentration steps.

    Each step keeps the h observations with smallest Mahalanobis distance
    and recomputes mean and covariance; the determinant never increases.
    The h-subset covariance is rescaled by the standard chi-square
    consistency factor for coverage h/n.

    The starts are drawn one after another, each degenerate start regrown
    from the same stream.  Their concentration steps then run in lockstep
    (:func:`_concentrate`), in blocks of starts whose ``(starts, n, p)``
    stack stays within _STACK_BYTES, so memory is bounded at every size.
    The winner is the first start, in draw order, with the smallest
    determinant: every number equals that of running the starts one by
    one, whatever the block size.
    """
    x = as_dataset(data)
    n, p = x.shape
    if n <= p + 1:
        raise ValueError("need n > p + 1")
    rng = rng if rng is not None else RngStream(0)
    gen = rng.generator()
    h = (n + p + 1) // 2

    mus, covs = [], []
    for _ in range(_SUBSETS):
        size = p + 1
        idx = gen.choice(n, size=size, replace=False)
        mu, cov = _mean_cov(x[idx])
        ok = _chol_gate(cov) is not None
        # Grow degenerate starts until the covariance is trustworthy.
        while not ok and size < min(n, 4 * (p + 1)):
            size += p
            idx = gen.choice(n, size=min(size, n), replace=False)
            mu, cov = _mean_cov(x[idx])
            ok = _chol_gate(cov) is not None
        if ok:
            mus.append(mu)
            covs.append(cov)
    best = None
    block = max(1, _STACK_BYTES // (8 * n * p))
    for lo in range(0, len(mus), block):
        got = _concentrate(x, np.array(mus[lo:lo + block]),
                           np.array(covs[lo:lo + block]), h)
        if got is not None and (best is None or got[0] < best[0]):
            best = got
    if best is None:
        raise ValueError("all MCD starts were degenerate")
    _, mu, cov, iters, det_trace = best
    alpha = h / n
    factor = stats.chi2.cdf(stats.chi2.ppf(alpha, p), p + 2) / alpha
    cov = cov / factor
    cov = _median_distance_rescale(x, mu, cov)
    mu, cov = _chi2_reweight(x, mu, cov)
    return EstimatorResult("MCD", mu, 0.5 * (cov + cov.T), iterations=iters,
                           converged=True, singular=_is_singular(cov),
                           extras={"h": h, "logdet_trace": det_trace})


def _concentrate(x, mu, cov, h):
    """Concentration steps of a block of MCD starts, all in one stack.

    A start stops when its distances cannot be solved, when its new h-subset
    covariance fails :func:`_chol_gate` (keeping that subset's mean and
    covariance, but the previous log-determinant), when its log-determinant
    stops falling, or after _CSTEPS steps.  Returns the block's first start
    with the smallest final log-determinant as ``(logdet, mu, cov, steps,
    logdet trace)``, or None when no start passed a step.
    """
    m = len(mu)
    old = np.full(m, np.inf)
    dets = np.full((m, _CSTEPS), np.nan)
    steps = np.full(m, _CSTEPS)
    live = np.arange(m)
    for it in range(_CSTEPS):
        d, ok = _mahal_sq_stack(x, mu[live], cov[live])
        steps[live[~ok]] = it + 1
        live, d = live[ok], d[ok]
        mean, scatter = _mean_cov(x[np.argpartition(d, h - 1, axis=1)[:, :h]])
        mu[live], cov[live] = mean, scatter
        chol, ok = _chol_gates(scatter)
        steps[live[~ok]] = it + 1
        live, chol = live[ok], chol[ok]
        det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        dets[live, it] = det
        stop = det >= old[live] - 1e-12
        old[live] = np.where(stop, np.minimum(det, old[live]), det)
        steps[live[stop]] = it + 1
        live = live[~stop]
        if not live.size:
            break
    b = int(np.argmin(old))
    if old[b] == np.inf:
        return None
    trace = dets[b]
    return (old[b], mu[b].copy(), cov[b].copy(), int(steps[b]),
            trace[~np.isnan(trace)].tolist())


# ---------------------------------------------------------------------------
# 4/5. S-estimators (bisquare and Rocke weights)
# ---------------------------------------------------------------------------

def _s_iterations(x, mu, shape, rho, weight_fn, scale_constant, est_id):
    """Shared fixed-point loop for S-type estimators.

    ``shape`` has unit determinant throughout; the M-scale of squared
    distances is tracked and must not increase across accepted iterations.
    """
    n, p = x.shape
    s_prev = np.inf
    mu_best, shape_best, s_best = mu, shape, None
    converged = False
    scale_trace = []
    it = 0
    for it in range(_MAX_ITER):
        d = _mahal_sq(x, mu, shape)
        if d is None:
            break
        try:
            s = m_scale(d, rho, _DELTA)
        except ValueError:
            break
        if s_best is None or s < s_best:
            mu_best, shape_best, s_best = mu, shape, s
        if abs(s - s_prev) <= _ITER_TOL * s:
            scale_trace.append(s)
            converged = True
            break
        if s > s_prev * (1.0 + 1e-12):
            # Fixed point overshoot: keep the best iterate, do not accept.
            converged = True
            break
        scale_trace.append(s)
        s_prev = s
        t = d / s
        w = weight_fn(t)
        if w.sum() <= 0.0 or np.count_nonzero(w) <= p:
            break
        mu_new, cov = _weighted_moments(x, w)
        shape_new = _unit_det(cov)
        if shape_new is None:
            break
        mu, shape = mu_new, shape_new
    if s_best is None:
        raise ValueError(f"{est_id}: scale iteration collapsed")
    cov = (s_best / scale_constant) * shape_best
    return EstimatorResult(est_id, mu_best, 0.5 * (cov + cov.T),
                           iterations=it + 1, converged=converged,
                           singular=_is_singular(cov),
                           extras={"m_scale": s_best,
                                   "scale_constant": scale_constant,
                                   "scale_trace": scale_trace})


def s_bisquare(data, rng=None):
    """Bisquare S-estimator of multivariate location and scatter.

    Iterative reweighting from an MVE start; the bisquare rho acts on
    squared-distance ratios and delta = 1/2 gives maximal breakdown.  The
    final scatter is the unit-determinant shape times the M-scale, divided
    by the Gaussian scale constant so the estimator targets the true
    covariance at the normal model.
    """
    x = as_dataset(data)
    n, p = x.shape
    if n <= 2 * p:
        raise ValueError("need n > 2p")
    rng = rng if rng is not None else RngStream(0)
    start = mve(x, rng=rng.child(1))
    shape = _unit_det(start.scatter)
    if shape is None:
        raise ValueError("degenerate MVE start")
    return _s_iterations(x, start.location, shape, rho_bisquare,
                         weight_bisquare, _bisquare_scale_constant(p), "SE")


def rocke(data, rng=None):
    """Rocke's S-estimator with the translated biflat weight.

    Same fixed-point scheme as the bisquare S-estimator, with weights
    supported on the band (1 - gamma, 1 + gamma) around the normalized
    squared distance 1; the M-scale equation with the integrated-biflat rho
    anchors the median distance ratio at 1.
    """
    x = as_dataset(data)
    n, p = x.shape
    if n <= 2 * p:
        raise ValueError("need n > 2p")
    rng = rng if rng is not None else RngStream(0)
    gamma = rocke_gamma(p)
    start = mve(x, rng=rng.child(1))
    shape = _unit_det(start.scatter)
    if shape is None:
        raise ValueError("degenerate MVE start")
    res = _s_iterations(x, start.location, shape,
                        lambda t: rho_rocke(t, gamma),
                        lambda t: weight_rocke(t, gamma),
                        _rocke_scale_constant(p), "ROCKE")
    res.extras["gamma"] = gamma
    return res


# ---------------------------------------------------------------------------
# 6. MM-estimator with the SHR rho
# ---------------------------------------------------------------------------

def _mm_refine(x, mu, shape, sigma0):
    """SHR shape refinement at fixed cutoff scale; objective never rises."""
    p = x.shape[1]

    def objective(m, sh):
        d = _mahal_sq(x, m, sh)
        if d is None:
            return None, None
        return float(np.mean(rho_shr(d / sigma0))), d

    obj, d = objective(mu, shape)
    if obj is None:
        raise ValueError("degenerate MM start")
    converged = False
    obj_trace = [obj]
    it = 0
    for it in range(_MAX_ITER):
        w = weight_shr(d / sigma0)
        if w.sum() <= 0.0 or np.count_nonzero(w) <= p:
            break
        mu_new, cov = _weighted_moments(x, w)
        shape_new = _unit_det(cov)
        if shape_new is None:
            break
        obj_new, d_new = objective(mu_new, shape_new)
        if obj_new is None or obj_new > obj * (1.0 + 1e-12):
            converged = True
            break
        delta_rel = abs(obj - obj_new) / max(obj, 1e-300)
        mu, shape, obj, d = mu_new, shape_new, obj_new, d_new
        obj_trace.append(obj)
        if delta_rel <= _ITER_TOL:
            converged = True
            break
    return mu, shape, obj, it + 1, converged, obj_trace


def mm(data, rng=None):
    """MM-estimator: S-bisquare start, then SHR shape refinement.

    The smoothed-hard-rejection rho is applied to squared distances divided
    by c * S0, where S0 is the S-step scale and c is the per-dimension
    tuning constant calibrated (once, by seeded simulation) for 95
    percent Gaussian efficiency.  The objective never increases across
    accepted iterations, and the final scatter is S0 times the refined
    unit-determinant shape.  ``extras`` records whether the S start
    converged and how many iterations it took; the MM flags describe the
    refinement only.
    """
    x = as_dataset(data)
    n, p = x.shape
    if n <= 2 * p:
        raise ValueError("need n > 2p")
    rng = rng if rng is not None else RngStream(0)
    s_res = s_bisquare(x, rng=rng.child(1))
    sign, logdet = np.linalg.slogdet(s_res.scatter)
    if sign <= 0.0 or not np.isfinite(logdet):
        raise ValueError("degenerate S-start scale")
    s0 = float(np.exp(logdet / p))
    c = _mm_tuning_constant(p)
    mu, shape, obj, iters, converged, obj_trace = _mm_refine(
        x, s_res.location, s_res.scatter / s0, c * s0)
    cov = s0 * shape
    return EstimatorResult("MM", mu, 0.5 * (cov + cov.T), iterations=iters,
                           converged=converged, singular=_is_singular(cov),
                           extras={"tuning": c, "s_scale": s0,
                                   "s_start_converged": s_res.converged,
                                   "s_start_iterations": s_res.iterations,
                                   "objective": obj,
                                   "objective_trace": obj_trace})


# ---------------------------------------------------------------------------
# 7. Stahel-Donoho
# ---------------------------------------------------------------------------

def _column_medians(a):
    """``np.median(a, axis=0)`` of a 2-d array, by sorting a transposed copy.

    ``np.median`` partitions a copy around its two middle positions, which
    at SD's sizes is several times slower than sorting each column as a
    contiguous row.  The middle order statistic, or ``(a + b) / 2`` of the
    two middle ones, is the value ``np.median`` returns.
    """
    s = a.T.copy()
    s.sort(axis=1)
    h = s.shape[1] // 2
    if s.shape[1] % 2:
        return s[:, h].copy()
    return (s[:, h - 1] + s[:, h]) / 2


def stahel_donoho(data, dirs=None, rng=None):
    """Stahel-Donoho projection-pursuit estimator.

    Outlyingness is the worst standardized projection over sampled
    directions (1000 per dimension, plus all pair differences for
    n <= 100), with median location and quartile-calibrated MAD scale.
    Weights are the squared-cutoff Huber type min(1, (c/t)^2) with
    c = sqrt(chi2_{p, 0.95}); the same weights feed the location and the
    scatter.  The medians of the projections and of their absolute
    deviations come from :func:`_column_medians`, which sorts instead of
    partitioning and returns the values of ``np.median``.
    """
    x = as_dataset(data)
    n, p = x.shape
    if n <= 2 * p:
        raise ValueError("need n > 2p")
    rng = rng if rng is not None else RngStream(0)
    count = 1000 * p if dirs is None else int(dirs)
    u = [unit_directions(count, p, rng.child(1))]
    if n <= 100:
        diffs = x[:, None, :] - x[None, :, :]
        iu = np.triu_indices(n, k=1)
        d = diffs[iu]
        nrm = np.linalg.norm(d, axis=1)
        keep = nrm > 1e-12 * max(1.0, nrm.max(initial=0.0))
        if np.any(keep):
            u.append(d[keep] / nrm[keep][:, None])
    u = np.vstack(u)

    proj = x @ u.T                                     # (n, K)
    med = _column_medians(proj)
    dev = np.abs(proj - med)
    del proj
    mad = _column_medians(dev) / SQRT_BETA
    ok = mad > 1e-12 * np.maximum(1.0, np.abs(med))
    if not np.any(ok):
        raise ValueError("every projection direction has zero scale")
    t = np.max(dev[:, ok] / mad[ok], axis=1)
    c = np.sqrt(stats.chi2.ppf(0.95, p))
    w = np.where(t <= c, 1.0, (c / np.maximum(t, c)) ** 2)
    mu, cov = _weighted_moments(x, w)
    return EstimatorResult("SD", mu, cov, iterations=1, converged=True,
                           singular=_is_singular(cov),
                           extras={"directions": int(u.shape[0]),
                                   "cutoff": float(c),
                                   "outlyingness": t, "weights": w})


# ---------------------------------------------------------------------------
# 8. Deepest estimator
# ---------------------------------------------------------------------------

def mdepth_estimator(data, rng=None):
    """Deepest location (halfspace) and deepest scatter around it.

    The raw deepest scatter targets the squared normal third quartile times
    the covariance; that calibration constant is divided out so the clean
    Gaussian model is matched, and is recorded in the diagnostics.  The
    diagnostics also carry the scatter ascent's ``stop``, ``counted`` and
    ``screened`` (see :func:`~depthlab.deepest.deepest_scatter`);
    ``converged`` is always true.
    """
    x = as_dataset(data)
    n, p = x.shape
    if n < p + 1:
        raise ValueError("need n >= p + 1")
    cfg = SearchConfig(rng=rng if rng is not None else RngStream(0))
    theta = tukey_median(x, cfg)
    gamma, info = deepest_scatter(x, theta, cfg, return_info=True)
    cov = gamma.entries / BETA
    return EstimatorResult("MDEPTH", theta, cov, iterations=len(info["trace"]),
                           converged=True, singular=_is_singular(cov),
                           extras={"normalization": BETA,
                                   "depth": info["depth"],
                                   "stop": info["stop"],
                                   "counted": info["counted"],
                                   "screened": info["screened"]})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# The order is part of the records format: simlab seeds the estimator at
# position i from stream key 1000 + i, so reordering or inserting an entry
# changes every record.  Entries look the estimators up by their global names
# at call time, so rebinding a name (tracing, monkeypatching) reaches them.
_REGISTRY = {
    "SCOV": lambda data, rng: scov(data),
    "MVE": lambda data, rng: mve(data, rng=rng),
    "MCD": lambda data, rng: mcd(data, rng=rng),
    "SE": lambda data, rng: s_bisquare(data, rng=rng),
    "ROCKE": lambda data, rng: rocke(data, rng=rng),
    "MM": lambda data, rng: mm(data, rng=rng),
    "SD": lambda data, rng: stahel_donoho(data, rng=rng),
    "MDEPTH": lambda data, rng: mdepth_estimator(data, rng=rng),
}
ESTIMATOR_IDS = tuple(_REGISTRY)


def run_estimator(estimator_id, data, rng):
    """Uniform dispatch used by the simulation engine."""
    fit = _REGISTRY.get(estimator_id.upper())
    if fit is None:
        raise KeyError(f"unknown estimator id {estimator_id!r}; "
                       f"known: {ESTIMATOR_IDS}")
    return fit(data, rng)
