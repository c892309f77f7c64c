"""Shared numerical kernels.

Standard normal distribution functions, a symmetric eigensolver with a
descending-eigenvalue convention, Mahalanobis distances, the implicit
M-scale solver used by S-estimators, and reproducible direction sampling
on the unit sphere.

Everything here is pure: no global state, no hidden RNGs.  Randomness is
always threaded through an explicit :class:`RngStream`, which is a value
(seed plus stream path) rather than a mutable generator, so replicates can
be evaluated from any number of workers in any order and still reproduce
bit-identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "SQRT2",
    "RngStream",
    "SpdMatrix",
    "std_normal_cdf",
    "std_normal_quantile",
    "sym_eigen",
    "mahalanobis_sq",
    "m_scale",
    "unit_directions",
]

SQRT2 = math.sqrt(2.0)

# Relative tolerance below which the smallest eigenvalue is treated as zero
# (singular scatter matrix).
_SINGULAR_RTOL = 1e-12

# m_scale: |mean rho - delta| above which one evaluation settles a side,
# regula-falsi steps before the halvings, and the relative offset of the
# two guard points around their estimate.
_SETTLE = 1e-12
_FALSI_STEPS = 10
_GUARD = 2e-11


def std_normal_cdf(x):
    """Standard normal CDF, accurate to full double precision.

    Uses ``erfc`` so the lower tail does not lose accuracy to cancellation;
    the absolute error is below 1e-15 everywhere.  Saturates at 0/1 for
    extreme arguments instead of raising.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return 0.5 * math.erfc(-float(x) / SQRT2)
    return 0.5 * _erfc_vec(-x / SQRT2)


_erfc_vec = np.vectorize(math.erfc, otypes=[float])


def std_normal_quantile(q):
    """Inverse standard normal CDF.

    Raises ``ValueError`` outside the open interval (0, 1).  The rational
    approximation in ``scipy.special.ndtri`` round-trips through
    :func:`std_normal_cdf` to better than 1e-12 over (1e-10, 1 - 1e-10).
    """
    qa = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(qa)) or np.any(qa <= 0.0) or np.any(qa >= 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {q!r}")
    out = ndtri(qa)
    if out.ndim == 0:
        return float(out)
    return out


def sym_eigen(m):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as the corresponding columns.  Input
    whose asymmetry exceeds a small relative tolerance is rejected.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite matrix with cached eigendecomposition.

    ``eigenvalues`` are descending; ``eigenvectors`` holds the matching
    orthonormal columns.  Construct through :meth:`from_matrix`, which
    enforces symmetry and positive definiteness.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, m) -> "SpdMatrix":
        a = np.asarray(m, dtype=float)
        vals, vecs = sym_eigen(a)
        if vals[-1] <= 0.0:
            raise ValueError(
                f"matrix is not positive definite (smallest eigenvalue {vals[-1]:g})"
            )
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return cls(entries=a, eigenvalues=vals, eigenvectors=vecs)

    @classmethod
    def from_diagonal(cls, diag) -> "SpdMatrix":
        return cls.from_matrix(np.diag(np.asarray(diag, dtype=float)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_singular(self) -> bool:
        return _singular_spectrum(self.eigenvalues[-1], self.eigenvalues[0])


def _singular_spectrum(smallest, largest):
    """Singularity test of a symmetric matrix from its extreme eigenvalues."""
    return bool(smallest <= _SINGULAR_RTOL * max(1.0, largest))


def _mahal_sq(x, mu, cov):
    """Squared Mahalanobis distances of the rows of ``x`` by a linear solve;
    ``None`` when ``cov`` is exactly singular."""
    z = x - mu
    try:
        sol = np.linalg.solve(cov, z.T)
    except np.linalg.LinAlgError:
        return None
    return np.maximum(np.einsum("ij,ji->i", z, sol), 0.0)


def _mahal_sq_stack(x, mu, cov):
    """:func:`_mahal_sq` for a stack of locations ``(m, p)`` and scatters
    ``(m, p, p)``: the distances ``(m, n)`` and a mask of the scatters that
    were solvable.  Rows outside the mask are zero.

    One exactly singular scatter makes the stacked solve raise for all of
    them, so the stack is then redone one scatter at a time.
    """
    z = x - mu[:, None, :]
    try:
        sol = np.linalg.solve(cov, z.transpose(0, 2, 1))
    except np.linalg.LinAlgError:
        d = np.zeros((len(mu), len(x)))
        ok = np.zeros(len(mu), dtype=bool)
        for b in range(len(mu)):
            row = _mahal_sq(x, mu[b], cov[b])
            if row is not None:
                d[b], ok[b] = row, True
        return d, ok
    d = np.maximum(np.einsum("bij,bji->bi", z, sol), 0.0)
    return d, np.ones(len(d), dtype=bool)


def mahalanobis_sq(x, mu, sigma):
    """Squared Mahalanobis distance ``(x - mu)' Sigma^{-1} (x - mu)``.

    ``sigma`` may be an :class:`SpdMatrix` or a plain symmetric PD array.
    Accepts a single vector or a stack of row vectors; near-singular
    ``sigma`` is rejected.
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix.from_matrix(sigma)
    if sigma.is_singular():
        raise ValueError("scatter matrix is numerically singular")
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    single = x.ndim == 1
    d = _mahal_sq(np.atleast_2d(x), mu, sigma.entries)
    if d is None:
        raise ValueError("scatter matrix is numerically singular")
    return float(d[0]) if single else d


def m_scale(d, rho, delta):
    """Solve ``mean(rho(d_i / s)) = delta`` for the scale ``s > 0``.

    ``rho`` must be nondecreasing with ``rho(0) = 0`` and ``sup rho = 1``;
    ``d`` holds nonnegative residual magnitudes (S-estimators of scatter
    pass squared Mahalanobis distances).  Solved by monotone bracketing and
    bisection (at most 200 halvings, to a relative bracket width of 1e-12);
    the mean-rho residual of the result is below 1e-10.

    The result depends only on the signs of f(s) = mean rho(d / s) - delta
    at the bisection's midpoints, and f does not increase in s.  So the
    bisection evaluates f only at midpoints that are not settled yet.  An
    evaluation settles a side only when |f(s)| > _SETTLE = 1e-12: then f
    has that sign at every s beyond it on that side.  The computed mean rho
    is within about 1e-15 of its exact value, so this holds even where the
    float rho is not monotone.  Before the halvings, up to
    _FALSI_STEPS = 10 Illinois regula-falsi steps (Dowell & Jarratt, BIT
    1971) and two guard points at 2e-11 relative around their estimate
    settle a narrow interval, so about 20 evaluations replace about 45.
    The result is that of evaluating f at every midpoint.

    Raises ``ValueError`` when no root exists, i.e. the fraction of zero
    residuals is at least ``1 - delta``.
    """
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

    # Bracket by doubling outward from the median positive residual.
    s_lo = s_hi = float(np.median(nonzero))
    if s_lo <= 0.0:
        s_lo = s_hi = float(np.mean(nonzero))
    f_lo = f_hi = f(s_lo)
    for _ in range(200):
        if f_lo > 0.0:
            break
        s_lo *= 0.5
        f_lo = f(s_lo)
    for _ in range(200):
        if f_hi < 0.0:
            break
        s_hi *= 2.0
        f_hi = f(s_hi)
    if not (f_lo > 0.0 > f_hi):
        raise ValueError("m_scale failed to bracket a root")

    # f > 0 at every s <= a and f <= 0 at every s >= b.  No midpoint lies
    # outside [s_lo, s_hi], so the bracket ends hold before they settle.
    a, fa, b, fb = s_lo, f_lo, s_hi, f_hi
    x, side = None, 0
    for _ in range(_FALSI_STEPS):
        if b - a <= 2.0 * _GUARD * b:
            break
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            break
        fx = f(x)
        if abs(fx) <= _SETTLE:
            break
        if fx > 0.0:
            a, fa = x, fx
            if side > 0:
                fb *= 0.5       # Illinois: halve the end that stayed
            side = 1
        else:
            b, fb = x, fx
            if side < 0:
                fa *= 0.5
            side = -1
    if x is not None:
        for g in (x * (1.0 - _GUARD), x * (1.0 + _GUARD)):
            if a < g < b:
                fg = f(g)
                if fg > _SETTLE:
                    a = g
                elif fg < -_SETTLE:
                    b = g

    for _ in range(200):
        s_mid = 0.5 * (s_lo + s_hi)
        if s_mid <= a or (s_mid < b and f(s_mid) > 0.0):
            s_lo = s_mid
        else:
            s_hi = s_mid
        if (s_hi - s_lo) <= 1e-12 * s_hi:
            break
    return 0.5 * (s_lo + s_hi)


@dataclass(frozen=True)
class RngStream:
    """Value-semantics random stream: a seed plus a stream path.

    Backed by the counter-based Philox generator, so identical
    ``(seed, path)`` pairs reproduce identical draw sequences regardless of
    process, thread schedule, or call order.  Derive independent
    sub-streams with :meth:`child`.
    """

    seed: int
    path: tuple = field(default=())

    def child(self, *key: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(k) & 0xFFFFFFFF for k in key))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed) & (2**64 - 1),
                                    spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def unit_directions(count, p, rng):
    """Sample ``count`` i.i.d. uniform directions on the unit sphere in R^p.

    Normalized standard Gaussian vectors; deterministic for a fixed
    :class:`RngStream`.  Returns a ``(count, p)`` array whose rows have unit
    Euclidean norm.
    """
    if count < 1 or p < 1:
        raise ValueError("count and p must be >= 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    g = gen.standard_normal((count, p))
    norms = np.linalg.norm(g, axis=1)
    # A zero draw has probability 0; replace defensively.
    bad = norms < 1e-300
    if np.any(bad):
        g[bad] = 1.0
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]
