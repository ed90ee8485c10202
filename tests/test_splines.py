import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from drsim import splines


def test_knot_vector_layout():
    basis = splines.CubicSplineBasis(lo=0.0, hi=1.0, interior=np.array([0.25, 0.5, 0.75]))
    assert list(basis.knots[:4]) == [0.0] * 4
    assert list(basis.knots[-4:]) == [1.0] * 4
    assert list(basis.knots[4:-4]) == [0.25, 0.5, 0.75]
    # n_interior + order basis functions for a clamped cubic basis
    assert basis.dim == 3 + 4


def test_from_quantiles_places_interior_knots():
    x = np.random.default_rng(3).normal(size=500)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    expected = np.quantile(x, (0.1, 0.3, 0.5, 0.7, 0.9))
    np.testing.assert_allclose(basis.interior, expected)
    assert basis.lo == x.min() and basis.hi == x.max()


def test_from_quantiles_degenerate_spread():
    basis = splines.CubicSplineBasis.from_quantiles(np.full(40, 3.0))
    assert basis.lo < basis.hi
    d = basis.design(np.full(5, 3.0))
    assert np.isfinite(d).all()


def test_from_uniform_equally_spaced():
    x = np.array([2.0, 10.0])
    basis = splines.CubicSplineBasis.from_uniform(x, n_interior=3)
    np.testing.assert_allclose(basis.interior, [4.0, 6.0, 8.0])


def scipy_design(basis, x):
    return BSpline.design_matrix(np.clip(x, basis.lo, basis.hi), basis.knots, 3).toarray()


def test_design_matches_scipy_inside_range():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 5.0, size=300)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    assert np.array_equal(basis.design(x), scipy_design(basis, x))


@given(
    st.sampled_from(["quantiles", "uniform", "no_interior", "degenerate"]),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_design_is_bit_equal_to_scipy(kind, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.uniform(-30.0, 30.0), rng.uniform(0.01, 20.0), size=n)
    if kind == "quantiles":
        basis = splines.CubicSplineBasis.from_quantiles(x)
    elif kind == "uniform":
        basis = splines.CubicSplineBasis.from_uniform(x, n_interior=int(rng.integers(0, 10)))
    elif kind == "no_interior":
        # knots on the ends or outside them: none is left between lo and hi
        lo = float(x[0])
        hi = lo + rng.uniform(0.01, 20.0)
        basis = splines.CubicSplineBasis(lo, hi, [lo, hi, hi + 1.0, lo - 2.0, hi])
        assert basis.interior.size == 0
    else:
        basis = splines.CubicSplineBasis.from_quantiles(np.full(n, x[0]))
    knots = np.concatenate([[basis.lo, basis.hi], basis.interior])
    span = basis.hi - basis.lo
    points = np.concatenate([
        knots,
        np.nextafter(knots, -np.inf),
        np.nextafter(knots, np.inf),
        [basis.lo - span, basis.lo - 1e-300, basis.hi + 1e-9, basis.hi + 3.0 * span],
        x,
    ])
    rng.shuffle(points)
    assert np.array_equal(basis.design(points), scipy_design(basis, points))


def test_design_constant_extrapolation():
    x = np.linspace(0.0, 1.0, 50)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    low = basis.design(np.array([-5.0, 0.0]))
    high = basis.design(np.array([1.0, 99.0]))
    np.testing.assert_array_equal(low[0], low[1])
    np.testing.assert_array_equal(high[0], high[1])


def test_partition_of_unity():
    x = np.linspace(-1.0, 2.0, 200)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    sums = basis.design(np.linspace(-3.0, 4.0, 97)).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@given(st.integers(min_value=7, max_value=12), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_penalty_is_sum_of_squared_second_differences(dim, seed):
    interior = np.linspace(0.2, 0.8, dim - 4)
    basis = splines.CubicSplineBasis(lo=0.0, hi=1.0, interior=interior)
    s = basis.second_difference_penalty()
    coef = np.random.default_rng(seed).normal(size=basis.dim)
    expected = float(np.sum(np.diff(coef, n=2) ** 2))
    assert coef @ s @ coef == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_penalty_annihilates_constants_and_lines():
    basis = splines.CubicSplineBasis(lo=0.0, hi=1.0, interior=np.array([0.5]))
    s = basis.second_difference_penalty()
    ones = np.ones(basis.dim)
    line = np.arange(basis.dim, dtype=float)
    assert ones @ s @ ones == pytest.approx(0.0, abs=1e-14)
    assert line @ s @ line == pytest.approx(0.0, abs=1e-12)


def test_constant_complement_is_orthonormal():
    for p in (2, 5, 9):
        z = splines.constant_complement(p)
        assert z.shape == (p, p - 1)
        np.testing.assert_allclose(z.T @ z, np.eye(p - 1), atol=1e-13)
        np.testing.assert_allclose(np.ones(p) @ z, 0.0, atol=1e-13)


def test_centered_block_has_zero_column_means_at_fit_points():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 10.0, size=120)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    block, design = splines.CenteredSplineBlock.fit(basis, x)
    assert design.shape == (120, basis.dim - 1)
    np.testing.assert_allclose(design.mean(axis=0), 0.0, atol=1e-13)
    np.testing.assert_array_equal(block.design(x), design)


def test_centered_block_rebuilds_same_transform():
    x = np.linspace(0.0, 1.0, 60)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    block, _ = splines.CenteredSplineBlock.fit(basis, x)
    # reconstruction from stored pieces (as save/load does) must be exact
    rebuilt = splines.CenteredSplineBlock(basis, block.center)
    np.testing.assert_array_equal(rebuilt.z, block.z)
    np.testing.assert_array_equal(rebuilt.design(x), block.design(x))


def test_centered_block_penalty_shape_and_psd():
    x = np.linspace(0.0, 1.0, 80)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    block, _ = splines.CenteredSplineBlock.fit(basis, x)
    s = block.penalty()
    assert s.shape == (block.dim, block.dim)
    assert np.linalg.eigvalsh(s).min() > -1e-12


def test_penalized_lstsq_unpenalized_matches_lstsq():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    fit = splines.penalized_lstsq([x], [None], y, lam_grid=np.array([1e-8]))
    oracle = np.linalg.lstsq(x, y, rcond=None)[0]
    np.testing.assert_allclose(fit.coef, oracle, atol=1e-8)


def test_penalized_lstsq_block_slices_and_block_coef():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(50, 3))
    b = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    fit = splines.penalized_lstsq([a, b], [None, None], y)
    assert [s.stop - s.start for s in fit.block_slices] == [3, 2]
    np.testing.assert_array_equal(
        np.concatenate([fit.block_coef(0), fit.block_coef(1)]), fit.coef
    )


def test_gcv_smooths_noise_and_tracks_signal():
    rng = np.random.default_rng(19)
    x = np.sort(rng.uniform(0.0, 1.0, size=400))
    basis = splines.CubicSplineBasis.from_quantiles(x)
    block, design = splines.CenteredSplineBlock.fit(basis, x)
    penalties = [block.penalty(), None]
    ones = np.ones((400, 1))

    truth = np.sin(2 * np.pi * x)
    y = truth + 0.1 * rng.normal(size=400)
    fit = splines.penalized_lstsq([design, ones], penalties, y)
    pred = design @ fit.block_coef(0) + fit.block_coef(1)[0]
    assert np.sqrt(np.mean((pred - truth) ** 2)) < 0.05

    noise = rng.normal(size=400)
    noise_fit = splines.penalized_lstsq([design, ones], penalties, noise)
    # pure noise should drive the smoother toward heavy penalization
    assert noise_fit.lam > fit.lam
    assert noise_fit.edof < fit.edof


def test_gcv_lam_grid_recorded_and_default():
    x = np.linspace(0.0, 1.0, 100)
    basis = splines.CubicSplineBasis.from_quantiles(x)
    block, design = splines.CenteredSplineBlock.fit(basis, x)
    y = np.cos(x)
    fit = splines.penalized_lstsq([design], [block.penalty()], y)
    assert len(fit.lam_grid) == 10
    np.testing.assert_allclose(fit.lam_grid, np.logspace(-6, 2, 10))
    assert fit.lam in fit.lam_grid


def test_ridge_fallback_on_singular_design_warns():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3))
    x[:, 2] = 0.0  # exactly singular normal equations
    y = rng.normal(size=30)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = splines.penalized_lstsq([x], [None], y)
    assert fit.ridge_used
    assert any("ridge" in str(w.message) for w in caught)
    assert np.isfinite(fit.coef).all()


def test_penalized_lstsq_length_mismatch_raises():
    with pytest.raises(splines.SplineError):
        splines.penalized_lstsq([np.ones((5, 1))], [None], np.ones(6))


def _shared_design_problem(seed=23, n=90, m=7):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    basis = splines.CubicSplineBasis.from_quantiles(x)
    block, design = splines.CenteredSplineBlock.fit(basis, x)
    ones = np.ones((n, 1))
    # columns from pure noise to a smooth signal, so GCV picks different lambdas
    signal = np.sin(2 * np.pi * x)[:, None] * np.linspace(0.0, 3.0, m)
    y = 1.0 + signal + 0.2 * rng.normal(size=(n, m))
    return [design, ones], [block.penalty(), None], y


def test_penalized_lstsq_columns_equal_one_dimensional_fits():
    blocks, penalties, y = _shared_design_problem()
    fit = splines.penalized_lstsq(blocks, penalties, y)
    m = y.shape[1]
    assert fit.coef.shape == (blocks[0].shape[1] + 1, m)
    assert fit.lam.shape == fit.edof.shape == (m,)
    assert fit.gcv.shape == (len(fit.lam_grid), m)
    assert len(set(fit.lam)) > 1
    for j in range(m):
        single = splines.penalized_lstsq(blocks, penalties, y[:, j])
        np.testing.assert_allclose(fit.coef[:, j], single.coef, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fit.gcv[:, j], single.gcv, rtol=1e-12)
        assert fit.lam[j] == single.lam
        assert fit.edof[j] == pytest.approx(single.edof, rel=1e-12)
        np.testing.assert_allclose(fit.block_coef(1)[:, j], single.block_coef(1), rtol=1e-12)


def test_penalized_lstsq_columns_are_bit_identical_to_lone_fits():
    # every per-column product and solve runs through the one-vector kernels
    blocks, penalties, y = _shared_design_problem(seed=29, n=91, m=5)
    fit = splines.penalized_lstsq(blocks, penalties, y)
    for j in range(y.shape[1]):
        single = splines.penalized_lstsq(blocks, penalties, y[:, j])
        np.testing.assert_array_equal(fit.coef[:, j], single.coef)
        np.testing.assert_array_equal(fit.gcv[:, j], single.gcv)


def test_penalized_lstsq_single_column_matrix_keeps_the_axis():
    blocks, penalties, y = _shared_design_problem(m=1)
    fit = splines.penalized_lstsq(blocks, penalties, y)
    single = splines.penalized_lstsq(blocks, penalties, y[:, 0])
    assert fit.coef.shape == (single.coef.shape[0], 1) and fit.lam.shape == (1,)
    np.testing.assert_array_equal(fit.coef[:, 0], single.coef)
    assert isinstance(single.lam, float) and isinstance(single.edof, float)


def test_ridge_fallback_with_several_columns_warns_once():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3))
    x[:, 2] = 0.0
    y = rng.normal(size=(30, 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = splines.penalized_lstsq([x], [None], y)
    assert type(fit.ridge_used) is bool and fit.ridge_used
    assert sum("ridge" in str(w.message) for w in caught) == 1
    assert np.isfinite(fit.coef).all()
    for j in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            single = splines.penalized_lstsq([x], [None], y[:, j])
        np.testing.assert_allclose(fit.coef[:, j], single.coef, rtol=1e-12, atol=1e-12)


def test_penalized_lstsq_rejects_a_three_dimensional_response():
    with pytest.raises(splines.SplineError):
        splines.penalized_lstsq([np.ones((5, 1))], [None], np.ones((5, 2, 2)))
