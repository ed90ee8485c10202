"""Penalized cubic regression splines shared by the statistical models.

A basis is a clamped cubic B-spline on [lo, hi] with a handful of interior
knots; inputs outside the range are clamped, which makes the fitted curve
extrapolate as a constant. Smoothing uses a second-difference penalty on the
coefficients with the smoothing weight chosen by generalized cross validation
over a fixed log-spaced grid.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

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
        return BSpline.design_matrix(xc, self.knots, 3).toarray()

    def second_difference_penalty(self):
        """D2' D2 where D2 is the second-difference operator on coefficients."""
        p = self.dim
        if p < 3:
            return np.zeros((p, p))
        d2 = np.zeros((p - 2, p))
        for i in range(p - 2):
            d2[i, i : i + 3] = (1.0, -2.0, 1.0)
        return d2.T @ d2


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


def _solve_each(a, rhs):
    """Solve a b_j = rhs[j] for every row of rhs (m, p), one right-hand side at a time.

    b_j then does not depend on the other rows.
    """
    return np.linalg.solve(np.broadcast_to(a, rhs.shape + a.shape[1:]), rhs[..., None])[..., 0]


def _solve_penalized(xtx, xty, penalty, lam):
    """Solve (X'X + lam*S) b_j = X'y_j for each row of xty, with a small ridge fallback."""
    a = xtx + lam * penalty
    ridge = False
    try:
        coef = _solve_each(a, xty)
    except np.linalg.LinAlgError:
        coef = None
    if coef is None or not np.isfinite(coef).all():
        ridge = True
        a = a + RIDGE_EPS * np.eye(a.shape[0])
        coef = _solve_each(a, xty)
    return coef, a, ridge


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
    With (n, m) responses X'X is formed once and each lambda makes one solve
    call for all columns: edof per lambda and the ridge fallback are shared,
    while RSS, GCV and the chosen lambda are per column, so coef is (p, m),
    lam and edof are (m,) and gcv is (len(lam_grid), m). Column j is
    bit-identical to the fit of y[:, j] alone.
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

    gcv = np.full((len(lam_grid), m), np.inf)
    coefs = np.empty((len(lam_grid), m, p))
    edofs = np.empty(len(lam_grid))
    any_ridge = False
    for j, lam in enumerate(lam_grid):
        coefs[j], a, ridge = _solve_penalized(xtx, xty, s, lam)
        any_ridge = any_ridge or ridge
        edofs[j] = np.trace(np.linalg.solve(a, xtx))
        resid = rows - matvec_rows(x, coefs[j])
        # a stack of dot products, each rounded like a lone resid @ resid
        rss = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
        denom = n - edofs[j]
        if denom > 0:
            gcv[j] = n * rss / denom**2

    if any_ridge:
        warnings.warn("singular penalized design; ridge fallback engaged")
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
