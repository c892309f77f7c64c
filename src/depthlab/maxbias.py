"""Closed-form maximum-bias curves and breakdown points for deepest fits.

The curves measure worst-case estimator movement over an
epsilon-contamination neighborhood of the standard Gaussian model:

* halfspace-deepest location: ``Phi^{-1}((1+eps) / (2(1-eps)))``,
  breakdown 1/3 (the univariate median bound
  ``Phi^{-1}(1 / (2(1-eps)))`` with breakdown 1/2 is also provided);
* deepest scatter: the envelope
  ``max{ Phi^{-1}(a(eps))/sqrt(beta), sqrt(beta)/Phi^{-1}(b(eps)) }`` with
  ``a = (3-eps)/(4(1-eps))``, ``b = (3-5 eps)/(4(1-eps))`` and
  ``sqrt(beta) = Phi^{-1}(3/4)``, breakdown exactly 1/3;
* deepest regression slope: ``tan(pi eps / (1-eps))``, the root t of
  ``E Phi(t |Z|) = 1/2 + arctan(t)/pi = (1+eps)/(2(1-eps))``, breakdown 1/3;
* joint location-scale deepest fit: breakdown at the fixed point of a
  strictly decreasing gain function, which lands in (1/5, 1/4).

Scale convention: scatter biases are ratios of square-rooted eigenvalues
(operator-norm scale of the matrix square root), so every explosion curve
equals 1 at eps = 0.  Curves raise :class:`DivergenceError` at or beyond
their breakdown point instead of returning infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth import scatter_depth_pointmass
from .numerics import SpdMatrix, std_normal_cdf, std_normal_quantile

__all__ = [
    "DivergenceError",
    "EigenPair",
    "MaxBiasCurve",
    "tukey_median_maxbias",
    "univ_median_maxbias",
    "scatter_eigen_bounds",
    "scatter_maxbias",
    "scatter_explosion_excess",
    "scatter_implosion_deficit",
    "scatter_breakdown",
    "g_function",
    "regdepth_maxbias",
    "ls2_aux_h",
    "ls2_peak_location",
    "ls2_contaminated_quantile",
    "ls2_gain",
    "ls2_breakdown",
    "pointmass_depth_limit",
    "deepest_restricted_radius",
    "exploding_aligned_family",
    "CURVES",
    "curve_table",
    "write_curve_csv",
]

SQRT_BETA = 0.6744897501960817  # Phi^{-1}(3/4)
BETA = SQRT_BETA * SQRT_BETA


class DivergenceError(ValueError):
    """Raised when a curve is evaluated at or beyond its breakdown point."""

    def __init__(self, curve_id, epsilon, breakdown):
        self.curve_id = curve_id
        self.epsilon = epsilon
        self.breakdown = breakdown
        super().__init__(
            f"curve {curve_id!r} diverges: epsilon={epsilon:g} is at or beyond "
            f"its breakdown point {breakdown:g}"
        )


def _check_eps(curve_id, epsilon, breakdown):
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be a finite nonnegative real, got {epsilon!r}")
    if epsilon >= breakdown:
        raise DivergenceError(curve_id, epsilon, breakdown)


# ---------------------------------------------------------------------------
# Location
# ---------------------------------------------------------------------------

def tukey_median_maxbias(epsilon):
    """Worst-case shift of the halfspace-deepest location, Gaussian model."""
    _check_eps("tukey", epsilon, 1.0 / 3.0)
    if epsilon == 0.0:
        return 0.0
    return std_normal_quantile((1.0 + epsilon) / (2.0 * (1.0 - epsilon)))


def univ_median_maxbias(epsilon):
    """Worst-case shift of the univariate median (breakdown 1/2)."""
    _check_eps("univ-median", epsilon, 0.5)
    if epsilon == 0.0:
        return 0.0
    return std_normal_quantile(1.0 / (2.0 * (1.0 - epsilon)))


# ---------------------------------------------------------------------------
# Scatter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenPair:
    """Extreme eigenvalues attainable by a deepest scatter matrix under
    point-mass contamination, plus the Gaussian-model calibration constant."""

    l1: float
    lp: float
    beta: float = BETA


def scatter_eigen_bounds(epsilon) -> EigenPair:
    """Largest/smallest deepest-scatter eigenvalues at contamination level eps."""
    _check_eps("scatter-envelope", epsilon, 1.0 / 3.0)
    a = (3.0 - epsilon) / (4.0 * (1.0 - epsilon))
    b = (3.0 - 5.0 * epsilon) / (4.0 * (1.0 - epsilon))
    l1 = std_normal_quantile(a) ** 2
    lp = std_normal_quantile(b) ** 2
    return EigenPair(l1=l1, lp=lp)


def scatter_maxbias(epsilon):
    """Maximum-bias envelope of the deepest scatter matrix.

    max of the explosion ratio sqrt(l1)/sqrt(beta) and the implosion ratio
    sqrt(beta)/sqrt(lp); equals 1 at eps = 0 and diverges at eps = 1/3.
    """
    pair = scatter_eigen_bounds(epsilon)
    return max(math.sqrt(pair.l1) / SQRT_BETA, SQRT_BETA / math.sqrt(pair.lp))


def scatter_explosion_excess(epsilon):
    """Explosion excess sqrt(l1)/sqrt(beta) - 1 (zero at eps = 0)."""
    pair = scatter_eigen_bounds(epsilon)
    return math.sqrt(pair.l1) / SQRT_BETA - 1.0


def scatter_implosion_deficit(epsilon):
    """Implosion deficit 1 - sqrt(lp)/sqrt(beta) (zero at eps = 0)."""
    pair = scatter_eigen_bounds(epsilon)
    return 1.0 - math.sqrt(pair.lp) / SQRT_BETA


def scatter_breakdown():
    """Asymptotic breakdown point of the deepest scatter matrix."""
    return 1.0 / 3.0


def exploding_aligned_family(r, p=2):
    """Scatter matrix from the exploding family used by the breakdown check.

    Top eigenvalue r^2 (1 - l/beta) pinned just inside the contamination
    radius, remaining eigenvalues l = 1/r shrinking to zero; the boundary
    quadric then carries directional variance beta r^2/(beta + r^2) -> beta,
    which keeps every intermediate direction depth-supported.  Returns
    ``(gamma, e)`` with ``e`` the top eigenvector.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if r <= 1.0 / BETA:
        raise ValueError("radius too small for the exploding family")
    if p == 1:
        gamma = SpdMatrix.from_diagonal([r * r])
        return gamma, np.array([1.0])
    low = 1.0 / r
    l1 = r * r * (1.0 - low / BETA)
    diag = np.full(p, low)
    diag[0] = l1
    gamma = SpdMatrix.from_diagonal(diag)
    e = np.zeros(p)
    e[0] = 1.0
    return gamma, e


def pointmass_depth_limit(epsilon):
    """Depth limit of an exploding scatter sequence under matched point mass.

    Evaluates the analytic point-mass depth of the scalar family
    ``gamma_r = r^2`` with contamination at ``r``, far out at r = 1e4.  The
    sequence converges to the contamination level ``epsilon`` (i.e.
    ``min(epsilon, 1 - epsilon)`` for eps <= 1/2): once the
    estimator's spread matches the contamination radius, the point mass is
    the only support of the tail side and the Gaussian contribution
    vanishes.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    r = 10000.0
    gamma, e = exploding_aligned_family(r, p=1)
    return scatter_depth_pointmass(gamma, epsilon, r, e)


def deepest_restricted_radius(epsilon):
    """Contamination radius at which the extreme-eigenvalue matrix is deepest.

    For the eigen-aligned matrix carrying both bounds of
    :func:`scatter_eigen_bounds`, the four point-mass depth terms balance at
    ``r* = sqrt(beta (l1 - lp) / (beta - lp))`` (the boundary quadric then
    carries directional variance exactly beta), where the depth equals
    ``(1 - eps)/2``.  Always exceeds ``sqrt(l1)``.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    pair = scatter_eigen_bounds(epsilon)
    return math.sqrt(BETA * (pair.l1 - pair.lp) / (BETA - pair.lp))


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------

def g_function(t):
    """E Phi(t |Z|) for standard normal Z: 1/2 + arctan(t)/pi (Sheppard 1899).

    It is P(W <= t |Z|) for independent standard normals W and Z, the share
    pi + 2 arctan(t) of the plane's 2 pi taken by the cone {w <= t |z|}.
    """
    if t < 0.0 or not np.isfinite(t):
        raise ValueError("t must be a finite nonnegative real")
    return 0.5 + math.atan(t) / math.pi


def regdepth_maxbias(epsilon):
    """Maximum bias of the deepest regression slope: tan(pi eps / (1 - eps)).

    Solves g(b) = (1+eps)/(2(1-eps)) for g of :func:`g_function`, so
    arctan(b) = pi eps/(1-eps); that angle reaches pi/2, and b diverges,
    exactly at the breakdown point eps = 1/3; near it b ~ 4/(9 pi (1/3 - eps)).
    """
    _check_eps("regression", epsilon, 1.0 / 3.0)
    return math.tan(math.pi * epsilon / (1.0 - epsilon))


# ---------------------------------------------------------------------------
# Joint location-scale breakdown
# ---------------------------------------------------------------------------

_SIX_LN2 = 6.0 * math.log(2.0)


def ls2_aux_h(x, y):
    """Central-cell mass gap Phi(x) - Phi((y + x)/2)."""
    return std_normal_cdf(x) - std_normal_cdf(0.5 * (y + x))


def ls2_peak_location(y0):
    """Maximizer over x > 0 of x -> ls2_aux_h(x, y0)."""
    return (y0 + 2.0 * math.sqrt(y0 * y0 + _SIX_LN2)) / 3.0


def ls2_contaminated_quantile(delta):
    """Normal quantile y_delta = Phi^{-1}(delta / (1 - delta)), delta < 1/2."""
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    return std_normal_quantile(delta / (1.0 - delta))


def ls2_gain(delta):
    """Gain function (1 - delta) * h(M(y_delta), y_delta), strictly decreasing
    on (0, 1/3)."""
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValueError("delta must lie in (0, 1/3)")
    y = ls2_contaminated_quantile(delta)
    return (1.0 - delta) * ls2_aux_h(ls2_peak_location(y), y)


def ls2_breakdown():
    """Breakdown point of the joint location-scale deepest fit.

    The unique fixed point of :func:`ls2_gain` on (0, 1/3), found by
    bisection on ``delta - gain(delta)`` to 1e-10; lies in (1/5, 1/4).
    """
    lo, hi = 1e-6, 1.0 / 3.0 - 1e-6

    def f(d):
        return ls2_gain(d) - d

    if not (f(lo) > 0.0 > f(hi)):
        raise RuntimeError("fixed-point bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Curve tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxBiasCurve:
    curve_id: str
    epsilon_grid: np.ndarray
    values: np.ndarray
    breakdown: float


CURVES = {
    "tukey": (tukey_median_maxbias, 1.0 / 3.0),
    "univ-median": (univ_median_maxbias, 0.5),
    "scatter-envelope": (scatter_maxbias, 1.0 / 3.0),
    "scatter-excess": (scatter_explosion_excess, 1.0 / 3.0),
    "scatter-implosion": (scatter_implosion_deficit, 1.0 / 3.0),
    "regression": (regdepth_maxbias, 1.0 / 3.0),
}


def curve_table(curve_id, epsilon_grid) -> MaxBiasCurve:
    """Sample a named curve on an increasing grid inside its domain."""
    if curve_id not in CURVES:
        raise KeyError(f"unknown curve id {curve_id!r}; known: {sorted(CURVES)}")
    fn, breakdown = CURVES[curve_id]
    grid = np.asarray(epsilon_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("epsilon grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("epsilon grid must be strictly increasing")
    values = np.array([fn(e) for e in grid])
    return MaxBiasCurve(curve_id=curve_id, epsilon_grid=grid, values=values,
                        breakdown=breakdown)


def write_curve_csv(curve: MaxBiasCurve, fh):
    """Emit the curve CSV: header, finite rows, breakdown footer comment."""
    fh.write("epsilon,value,curve_id\n")
    for e, v in zip(curve.epsilon_grid, curve.values):
        fh.write(f"{e:.10g},{v:.12g},{curve.curve_id}\n")
    fh.write(f"# breakdown={curve.breakdown:.12g}\n")
