import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikno.errors import BadRangeError, DimMismatchError, DuplicatePointsWarning
from ikno.kernels import (
    AxisKernelParams,
    LatentGrid,
    LinearWindowKernel,
    PointCloud,
    axis_gram,
    axis_kernel_eval,
    cross_kernel,
    grid_linspace,
    linear_window_eval,
    product_kernel_eval,
)
from ikno.tensor_linalg import kron_materialize, sym_eig

valid_params = st.builds(
    AxisKernelParams,
    c=st.floats(0.1, 5.0),
    beta=st.floats(0.2, 4.0).flatmap(lambda b: st.sampled_from([b, -b])),
    gamma=st.floats(0.2, 4.0).flatmap(lambda g: st.sampled_from([g, -g])),
)


class TestAxisKernel:
    def test_zero_distance_gives_2c(self):
        p = AxisKernelParams(c=0.7, beta=1.3, gamma=2.1)
        assert np.isclose(axis_kernel_eval(p, 0.4, 0.4), 1.4)

    def test_unit_distance_unit_params(self):
        p = AxisKernelParams(c=1.0, beta=1.0, gamma=1.0)
        assert np.isclose(axis_kernel_eval(p, 1.0, 0.0), 0.735758882, atol=1e-9)

    def test_scalar_arithmetic_oracle(self):
        p = AxisKernelParams(c=0.5, beta=2.0, gamma=4.0)
        ref = 0.5 * (np.exp(-0.25) + np.exp(-1.0))
        assert np.isclose(axis_kernel_eval(p, 0.25, 0.0), ref)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AxisKernelParams(c=0.0, beta=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            AxisKernelParams(c=1.0, beta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            AxisKernelParams(c=1.0, beta=1.0, gamma=0.0)

    @settings(max_examples=60, deadline=None)
    @given(valid_params, st.floats(-3, 3), st.floats(-3, 3))
    def test_symmetric_and_bounded(self, p, x, y):
        a = axis_kernel_eval(p, x, y)
        b = axis_kernel_eval(p, y, x)
        assert a == b  # same floating expression both ways
        assert 0 < a <= 2 * p.c + 1e-12


class TestProductKernel:
    def test_zero_distance_all_half(self):
        axes = [AxisKernelParams(c=0.5, beta=1.0, gamma=1.0)] * 3
        x = np.array([0.1, -0.2, 0.3])
        assert np.isclose(product_kernel_eval(axes, x, x), 1.0)

    def test_factorization_axis2_zero(self):
        axes = [
            AxisKernelParams(c=1.0, beta=2.0, gamma=1.0),
            AxisKernelParams(c=0.3, beta=1.0, gamma=1.0),
        ]
        got = product_kernel_eval(axes, [0.5, 0.7], [0.1, 0.7])
        ref = axis_kernel_eval(axes[0], 0.5, 0.1) * 2 * 0.3
        assert np.isclose(got, ref)

    def test_component_oracle_d3(self):
        rng = np.random.default_rng(0)
        axes = [AxisKernelParams(c=1.1, beta=0.9, gamma=1.7) for _ in range(3)]
        x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        ref = np.prod([axis_kernel_eval(p, a, b) for p, a, b in zip(axes, x, y)])
        assert np.isclose(product_kernel_eval(axes, x, y), ref)

    def test_dim_mismatch(self):
        axes = [AxisKernelParams(c=1.0, beta=1.0, gamma=1.0)]
        with pytest.raises(DimMismatchError):
            product_kernel_eval(axes, [0.0, 1.0], [0.0, 1.0])


class TestLinearWindow:
    def test_zero_distance(self):
        k = LinearWindowKernel(radius=0.2, scale=1.0, alpha=-0.15)
        assert linear_window_eval(k, [0.3, 0.3], [0.3, 0.3]) == 1.0
        x = [0.3, -0.1, 0.7]
        assert linear_window_eval(LinearWindowKernel(scale=2.5), x, x) == 2.5

    def test_half_radius(self):
        k = LinearWindowKernel(radius=0.2, scale=1.0, alpha=-0.15)
        assert np.isclose(linear_window_eval(k, [0.1], [0.0]), 0.5)
        assert np.isclose(linear_window_eval(k, [0.1, 0.0], [0.0, 0.0]), 0.5)
        # separable: a product of per-axis tents, not a tent of the Euclidean distance
        assert np.isclose(linear_window_eval(k, [0.1, 0.1], [0.0, 0.0]), 0.25)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-2, 2), min_size=2, max_size=2),
        st.lists(st.floats(-0.4, 0.4), min_size=2, max_size=2),
    )
    def test_compact_support(self, x, offset):
        k = LinearWindowKernel(radius=0.2, scale=1.0, alpha=-0.15)
        y = [a + o for a, o in zip(x, offset)]
        value = linear_window_eval(k, x, y)
        # the support is the box max_j |x_j - y_j| < r
        if max(abs(a - b) for a, b in zip(x, y)) >= 0.2:
            assert value == 0.0
        else:
            assert 0.0 < value <= 1.0


class TestAxisGram:
    def test_single_point(self):
        p = AxisKernelParams(c=0.8, beta=1.0, gamma=1.0)
        g = axis_gram(p, np.array([0.4]))
        assert np.allclose(g, [[1.6]])

    def test_far_field_limit(self):
        p = AxisKernelParams(c=1.0, beta=1.0, gamma=1.0)
        g = axis_gram(p, np.array([0.0, 1e6]))
        assert np.allclose(g, 2 * np.eye(2), atol=1e-12)

    def test_equispaced_pd(self):
        p = AxisKernelParams(c=1.0, beta=1.0, gamma=1.0)
        g = axis_gram(p, np.linspace(-1, 1, 8))
        assert sym_eig(g).eigenvalues.min() > 0

    def test_duplicates_warn(self):
        p = AxisKernelParams(c=1.0, beta=1.0, gamma=1.0)
        with pytest.warns(DuplicatePointsWarning):
            axis_gram(p, np.array([0.1, 0.1, 0.5]))

    @settings(max_examples=200, deadline=None)
    @given(valid_params, st.integers(1, 16), st.integers(0, 10_000))
    def test_property_strict_pd(self, p, n, seed):
        rng = np.random.default_rng(seed)
        coords = np.sort(rng.uniform(-1, 1, n))
        for i in range(1, n):
            if coords[i] - coords[i - 1] < 1e-4:
                coords[i] = coords[i - 1] + 1e-4
        g = axis_gram(p, coords)
        e = sym_eig(g)
        assert e.eigenvalues.min() > -1e-10 * np.trace(g)


class TestCrossKernelAndGrid:
    def test_single_point_both_sides(self):
        axes = [AxisKernelParams(c=0.5, beta=1.0, gamma=1.0)] * 2
        pt = np.array([[0.2, -0.1]])
        got = cross_kernel(axes, pt, pt)
        assert np.allclose(got, [[1.0]])

    def test_decoder_column_matches_transposed_rows(self):
        axes = [AxisKernelParams(c=1.0, beta=1.5, gamma=0.7)] * 2
        grid = grid_linspace(2, 3)
        q = np.array([[0.25, -0.4]])
        kx = cross_kernel(axes, grid, q)  # k(x) column, grid rows
        kq = cross_kernel(axes, q, grid)  # K_QG row
        assert np.array_equal(kx, kq.T)

    def test_entries_match_pointwise_oracle(self):
        rng = np.random.default_rng(1)
        axes = [AxisKernelParams(c=1.0, beta=1.0, gamma=2.0)] * 2
        grid = grid_linspace(2, 2)
        pts = rng.uniform(-1, 1, (3, 2))
        k = cross_kernel(axes, grid, pts)
        gp = grid.points()
        for r in range(4):
            for c in range(3):
                assert np.isclose(k[r, c], product_kernel_eval(axes, gp[r], pts[c]))

    def test_grid_linspace_d1(self):
        g = grid_linspace(1, 2)
        assert np.allclose(g.per_axis_points[0], [-1, 1])

    def test_grid_lexicographic_order(self):
        g = grid_linspace(2, 3)
        pts = g.points()
        assert g.num_points == 9
        assert np.allclose(pts[0], [-1, -1])
        assert np.allclose(pts[1], [-1, 0])
        assert np.allclose(pts[-1], [1, 1])

    def test_grid_d3_l24(self):
        assert grid_linspace(3, 24).num_points == 13824

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            grid_linspace(1, 1)
        with pytest.raises(BadRangeError):
            grid_linspace(1, 4, lo=1.0, hi=-1.0)

    def test_product_grid_gram_factorizes(self):
        # dense Gram over product-grid points == Kronecker of axis Grams
        axes = [
            AxisKernelParams(c=1.0, beta=1.2, gamma=0.8),
            AxisKernelParams(c=0.6, beta=0.5, gamma=2.0),
            AxisKernelParams(c=1.4, beta=2.2, gamma=1.1),
        ]
        grid = grid_linspace(3, 4)
        pts = grid.points()
        m = grid.num_points
        dense = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                dense[i, j] = product_kernel_eval(axes, pts[i], pts[j])
        axis_grams = [
            axis_gram(p, grid.per_axis_points[j]) for j, p in enumerate(axes)
        ]
        assert np.abs(dense - kron_materialize(axis_grams)).max() <= 1e-12


class TestPointCloud:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.nan, 0.0]]))

    def test_channel_rows_must_match(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)), channels=np.zeros((2, 1)))
