"""Penalized cubic regression splines shared by the statistical models.

A basis is a clamped cubic B-spline on [lo, hi] with a handful of interior
knots; inputs outside the range are clamped, which makes the fitted curve
extrapolate as a constant. Smoothing uses a second-difference penalty on the
coefficients with the smoothing weight chosen by generalized cross validation
over a fixed log-spaced grid.
"""

import contextlib
import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_QUANTILES = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-6.0, 2.0, 10))
RIDGE_EPS = 1e-6


class SplineError(ValueError):
    pass


@dataclass
class CubicSplineBasis:
    """Cubic B-spline basis with clamped boundary knots at [lo, hi]."""

    lo: float
    hi: float
    interior: np.ndarray

    def __post_init__(self):
        self.interior = np.asarray(self.interior, dtype=float)
        if not np.isfinite([self.lo, self.hi]).all() or not np.isfinite(self.interior).all():
            raise SplineError("non-finite knot locations")
        if self.lo >= self.hi:
            raise SplineError("empty knot range")
        inside = (self.interior > self.lo) & (self.interior < self.hi)
        self.interior = np.unique(self.interior[inside])
        self.knots = np.concatenate(
            [np.repeat(self.lo, 4), self.interior, np.repeat(self.hi, 4)]
        )

    @property
    def dim(self):
        return len(self.interior) + 4

    @classmethod
    def from_quantiles(cls, x):
        """Interior knots at the DEFAULT_QUANTILES of the observed values."""
        x = np.asarray(x, dtype=float)
        if x.size == 0 or not np.isfinite(x).all():
            raise SplineError("need finite observations to place knots")
        lo, hi = float(np.min(x)), float(np.max(x))
        if hi - lo < 1e-9:
            # degenerate spread: widen artificially so the basis stays valid
            lo, hi = lo - 0.5, hi + 0.5
            interior = np.linspace(lo, hi, len(DEFAULT_QUANTILES) + 2)[1:-1]
        else:
            interior = np.quantile(x, DEFAULT_QUANTILES)
        return cls(lo, hi, interior)

    @classmethod
    def from_uniform(cls, x, n_interior=5):
        """Interior knots equally spaced over the observed range."""
        x = np.asarray(x, dtype=float)
        if x.size == 0 or not np.isfinite(x).all():
            raise SplineError("need finite observations to place knots")
        lo, hi = float(np.min(x)), float(np.max(x))
        if hi - lo < 1e-9:
            lo, hi = lo - 0.5, hi + 0.5
        interior = np.linspace(lo, hi, n_interior + 2)[1:-1]
        return cls(lo, hi, interior)

    def design(self, x):
        """Evaluate the basis at x (clamped to [lo, hi]); returns (n, dim)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(x).all():
            raise SplineError("non-finite evaluation points")
        xc = np.clip(x, self.lo, self.hi)
        return _design_matrix(xc, self.knots, 3)

    def second_difference_penalty(self):
        """D2' D2 where D2 is the second-difference operator on coefficients."""
        p = self.dim
        if p < 3:
            return np.zeros((p, p))
        d2 = np.zeros((p - 2, p))
        for i in range(p - 2):
            d2[i, i : i + 3] = (1.0, -2.0, 1.0)
        return d2.T @ d2


def _design_matrix(x, t, k):
    """Dense (m, len(t) - k - 1) design of the degree-k B-splines on knots t at x.

    Every x lies in [t[k], t[-k-1]] and the knots strictly increase between
    them. Each row holds the k + 1 non-zero values on x's knot interval
    t[ell] <= x < t[ell + 1] (x == t[-k-1] takes the last interval), from de
    Boor's recurrence (de Boor 1972, "On calculating with B-splines") run for
    all points at once with the operations of the compiled FITPACK-style
    routine in the same order; tests/test_splines.py pins the matrix bit for
    bit to that routine's.
    """
    m, n = len(x), len(t) - k - 1
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    # row r holds t[ell + r + 1 - k]; since t[ell] < t[ell + 1], no knot
    # difference below is zero
    tk = t[ell + np.arange(1 - k, k + 1)[:, None]]
    right = tk[k:] - x          # t[ell + i] - x for i = 1..k
    left = x - tk[:k]           # x - t[ell + i - k] for i = 1..k
    # row i of h is the value of basis function ell - j + i after step j
    h = np.ones((1, m))
    for j in range(1, k + 1):
        w = h / (tk[k:k + j] - tk[k - j:k])
        h = np.empty((j + 1, m))
        h[0] = 0.0
        h[1:] = w * left[k - j:]
        h[:j] += w * right[:j]
    out = np.zeros((m, n))
    out.reshape(-1)[np.arange(0, m * n, n) + ell - k + np.arange(k + 1)[:, None]] = h
    return out


@functools.lru_cache(maxsize=None)
def constant_complement(p):
    """Orthonormal (p, p-1) basis of the complement of the all-ones direction.

    Computed once per p and shared, so the array is read-only.
    """
    q = np.linalg.qr(np.ones((p, 1)), mode="complete")[0][:, 1:]
    q.setflags(write=False)
    return q


@dataclass
class CenteredSplineBlock:
    """Spline design centered over the training data.

    B-spline columns sum to one across each row, so after subtracting the
    column means the all-ones coefficient direction is an exact null vector
    of both the design and the second-difference penalty; any model that
    also carries an intercept (or indicators spanning it) would be singular
    at every lambda. The centering is therefore absorbed as a sum-to-zero
    constraint: the block is reparameterized onto the orthogonal complement
    of that direction, dropping one coefficient.
    """

    basis: CubicSplineBasis
    center: np.ndarray

    def __post_init__(self):
        self.z = constant_complement(self.basis.dim)

    @classmethod
    def fit(cls, basis, x):
        """Build the block from training inputs; returns (block, design)."""
        raw = basis.design(x)
        block = cls(basis, raw.mean(axis=0))
        return block, (raw - block.center) @ block.z

    @property
    def dim(self):
        return self.basis.dim - 1

    def design(self, x):
        return (self.basis.design(x) - self.center) @ self.z

    def penalty(self):
        s = self.basis.second_difference_penalty()
        return self.z.T @ s @ self.z


@dataclass
class PenalizedFit:
    """Result of penalized_lstsq; coef, lam, gcv and edof gain a trailing
    response axis when several responses were fitted together."""

    coef: np.ndarray
    lam: float
    gcv: np.ndarray
    lam_grid: np.ndarray
    edof: float
    ridge_used: bool
    block_slices: list = field(default_factory=list)

    def block_coef(self, index):
        return self.coef[self.block_slices[index]]


def matvec_rows(a, rows):
    """a (n, k) @ rows[j] for every row of rows (m, k); returns (m, n).

    Each product goes through the same one-vector kernel as a lone
    `a @ rows[j]`, so row j is bit-identical to it whatever m is; a single
    matrix product would round differently per column.
    """
    return (a @ rows[..., None])[..., 0]


def _solve_grid(a, rhs):
    """Solve a[l] b = rhs[j] for every lambda l of a (L, p, p) and row j of rhs (m, p).

    Returns (L, m, p). Each (l, j) solve is a lone one-vector LAPACK call, so
    b does not depend on the other lambdas or rows. Both operands are 4-d,
    so numpy < 2 also reads the right-hand sides as (p, 1) matrices.
    """
    return np.linalg.solve(a[:, None], rhs[None, :, :, None])[..., 0]


def _solve_grid_or_nan(a, rhs):
    """_solve_grid with NaN rows for each singular a[l]. One singular lambda
    makes the stacked call raise; then each lambda is solved on its own."""
    try:
        return _solve_grid(a, rhs)
    except np.linalg.LinAlgError:
        out = np.full((len(a),) + rhs.shape, np.nan)
        for l in range(len(a)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[l] = _solve_grid(a[l:l + 1], rhs)[0]
        return out


def penalized_lstsq(blocks, penalties, y, lam_grid=None):
    """Penalized least squares with GCV selection of the lambda.

    Parameters
    ----------
    blocks : list of (n, p_i) design blocks, concatenated column-wise.
    penalties : list matching blocks; each entry a (p_i, p_i) penalty or None
        for unpenalized (parametric) columns. One lambda multiplies them all.
    y : (n,) response, or (n, m) responses that share the design.
    lam_grid : candidate lambdas; defaults to the module grid.

    Returns a PenalizedFit. GCV(lam) = n * RSS / (n - edof)^2 with
    edof = tr((X'X + lam*S)^-1 X'X); lambda with n - edof <= 0 scores inf.
    X'X is formed once and the grid's X'X + lam*S matrices are stacked: one
    solve call gives the coefficients of every lambda and column, one more
    the edof traces, and only a lambda whose matrix is singular (or whose
    solution is not finite) gets a small ridge and is solved again, with one
    warning per call. RSS and GCV are then computed one lambda at a time.
    With (n, m) responses edof per lambda and the ridge fallback are shared,
    while RSS, GCV and the chosen lambda are per column, so coef is (p, m),
    lam and edof are (m,) and gcv is (len(lam_grid), m). Every result is
    bit-identical to solving each lambda on its own, and column j to the fit
    of y[:, j] alone.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    y = np.asarray(y, dtype=float)
    x = np.hstack(blocks)
    n, p = x.shape
    if y.ndim not in (1, 2) or y.shape[0] != n:
        raise SplineError("response length does not match the design")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SplineError("non-finite values in the regression inputs")
    # one contiguous row per response, so every per-response kernel sees the
    # same memory layout as a lone 1-d fit
    rows = np.ascontiguousarray(y.reshape(n, -1).T)
    m = rows.shape[0]

    slices = []
    start = 0
    for b in blocks:
        slices.append(slice(start, start + b.shape[1]))
        start += b.shape[1]

    s = np.zeros((p, p))
    for sl, pen in zip(slices, penalties):
        if pen is not None:
            pen = np.asarray(pen, dtype=float)
            if pen.shape != (sl.stop - sl.start, sl.stop - sl.start):
                raise SplineError("penalty shape does not match its block")
            s[sl, sl] = pen

    lam_grid = np.asarray(
        DEFAULT_LAMBDA_GRID if lam_grid is None else lam_grid, dtype=float
    )
    xtx = x.T @ x
    xty = matvec_rows(x.T, rows)

    a = xtx + lam_grid[:, None, None] * s
    coefs = _solve_grid_or_nan(a, xty)
    ridged = ~np.isfinite(coefs).all(axis=(1, 2))
    any_ridge = bool(ridged.any())
    if any_ridge:
        warnings.warn("singular penalized design; ridge fallback engaged")
        a[ridged] += RIDGE_EPS * np.eye(p)
        coefs[ridged] = _solve_grid(a[ridged], xty)
    # a contiguous copy of each diagonal sums as np.trace sums a lone one
    hat = np.linalg.solve(a, np.broadcast_to(xtx, a.shape))
    edofs = np.ascontiguousarray(np.diagonal(hat, axis1=1, axis2=2)).sum(axis=1)

    gcv = np.full((len(lam_grid), m), np.inf)
    for j in range(len(lam_grid)):
        resid = rows - matvec_rows(x, coefs[j])
        # a stack of dot products, each rounded like a lone resid @ resid
        rss = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
        denom = n - edofs[j]
        if denom > 0:
            gcv[j] = n * rss / denom**2

    best = np.argmin(gcv, axis=0)
    coef, lam, edof = coefs[best, np.arange(m)].T, lam_grid[best], edofs[best]
    if y.ndim == 1:
        coef, lam, gcv, edof = coef[:, 0], float(lam[0]), gcv[:, 0], float(edof[0])
    return PenalizedFit(
        coef=coef,
        lam=lam,
        gcv=gcv,
        lam_grid=lam_grid,
        edof=edof,
        ridge_used=any_ridge,
        block_slices=slices,
    )
