import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikno.errors import IllConditionedError, NonSymmetricError, ShapeMismatchError
from ikno.tensor_linalg import (
    dense_inverse,
    kron_apply,
    kron_materialize,
    mode_apply,
    mode_apply_count,
    reset_mode_apply_count,
    spectral_radius_from_axes,
    sym_eig,
)


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestSymEig:
    def test_identity(self):
        e = sym_eig(np.eye(3))
        assert np.allclose(e.eigenvalues, [1, 1, 1])
        u = e.eigenvectors
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-10 * 3

    def test_analytic_2x2(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        e = sym_eig(a)
        assert np.allclose(e.eigenvalues, [0.5, 1.5])
        s = 1 / np.sqrt(2)
        got = np.abs(e.eigenvectors)
        assert np.allclose(got, [[s, s], [s, s]])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(0)
        a = random_sym(rng, 8)
        e = sym_eig(a)
        rec = e.eigenvectors @ np.diag(e.eigenvalues) @ e.eigenvectors.T
        assert np.abs(rec - a).max() <= 1e-9 * (1 + np.abs(a).max())

    def test_ascending_and_sign_pinned(self):
        rng = np.random.default_rng(1)
        a = random_sym(rng, 6)
        e = sym_eig(a)
        assert np.all(np.diff(e.eigenvalues) >= 0)
        for col in e.eigenvectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_property_reconstruction(self, n, seed):
        a = random_sym(np.random.default_rng(seed), n)
        e = sym_eig(a)
        rec = e.eigenvectors @ np.diag(e.eigenvalues) @ e.eigenvectors.T
        assert np.abs(rec - a).max() <= 1e-9 * (1 + np.abs(a).max())


class TestModeApply:
    def test_identity(self):
        t = np.arange(12.0).reshape(2, 3, 2)
        assert np.array_equal(mode_apply(t, 0, np.eye(2)), t)
        assert np.array_equal(mode_apply(t, 1, np.eye(3)), t)

    def test_permutation_1d(self):
        t = np.array([[1.0], [2.0]])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(mode_apply(t, 0, a), [[2.0], [1.0]])

    def test_dense_kron_oracle_axis2(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((2, 2, 1))
        a = rng.standard_normal((2, 2))
        got = mode_apply(t, 1, a)
        ref = (np.kron(np.eye(2), a) @ t.reshape(4)).reshape(2, 2, 1)
        assert np.abs(got - ref).max() <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mode_apply(np.zeros((2, 3, 1)), 0, np.eye(3))

    @pytest.mark.parametrize("shape", [(5, 3), (4, 5, 3), (3, 4, 5, 2)])
    def test_bit_identical_to_tensordot(self, shape):
        rng = np.random.default_rng(3)
        t = rng.standard_normal(shape)
        for axis in range(len(shape) - 1):
            a = rng.standard_normal((shape[axis], shape[axis]))
            for x in (t, np.asfortranarray(t)):
                for mat in (a, a.T):  # C- and F-ordered factors
                    ref = np.moveaxis(np.tensordot(mat, x, axes=([1], [axis])), 0, axis)
                    got = mode_apply(x, axis, mat)
                    assert got.flags.c_contiguous and np.array_equal(got, ref)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_commutes_across_axes(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((3, 4, 2))
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4))
        ij = mode_apply(mode_apply(t, 0, a), 1, b)
        ji = mode_apply(mode_apply(t, 1, b), 0, a)
        assert np.abs(ij - ji).max() <= 1e-12 * max(1.0, np.abs(ij).max())


class TestKronApply:
    def test_identity(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        assert np.array_equal(kron_apply([np.eye(2), np.eye(2)], t), t)

    def test_rank_one_sum(self):
        ones = np.ones((2, 2))
        t = np.zeros((2, 2, 1))
        t[1, 1, 0] = 1.0
        assert np.array_equal(kron_apply([ones, ones], t), np.ones((2, 2, 1)))

    def test_dense_kron_oracle_d3(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((3, 3)) for _ in range(3)]
        t = rng.standard_normal((3, 3, 3, 2))
        got = kron_apply(mats, t)
        ref = (kron_materialize(mats) @ t.reshape(27, 2)).reshape(t.shape)
        assert np.abs(got - ref).max() <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 10_000),
    )
    def test_property_kron_equivalence(self, d, h, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(2, 7)) for _ in range(d)]
        mats = [rng.standard_normal((n, n)) for n in sizes]
        t = rng.standard_normal(tuple(sizes) + (h,))
        got = kron_apply(mats, t)
        m = int(np.prod(sizes))
        ref = (kron_materialize(mats) @ t.reshape(m, h)).reshape(t.shape)
        assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_slab_product_count(self):
        # d mode products, never an M x M buffer
        reset_mode_apply_count()
        t = np.zeros((4, 5, 6, 2))
        kron_apply([np.eye(4), np.eye(5), np.eye(6)], t)
        assert mode_apply_count() == 3

    def test_mode_products_copy_no_grid_tensor(self):
        """Each mode product reads its input through a C-order view, so at
        its peak a d = 3 apply holds one intermediate and the output: no
        transposed copy of a grid tensor."""
        rng = np.random.default_rng(6)
        t = rng.standard_normal((16, 16, 16, 64))
        mats = [rng.standard_normal((16, 16)) for _ in range(3)]
        reset_mode_apply_count()
        tracemalloc.start()
        try:
            out = kron_apply(mats, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.flags.c_contiguous and mode_apply_count() == 3
        assert peak < 2.5 * t.nbytes


class TestDenseInverse:
    def test_scalar_matrix(self):
        assert np.allclose(dense_inverse(2 * np.eye(4)), 0.5 * np.eye(4))

    def test_closed_form_2x2(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        ref = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
        assert np.abs(dense_inverse(a) - ref).max() <= 1e-12

    def test_residual_oracle(self):
        a = random_spd(np.random.default_rng(4), 16)
        inv = dense_inverse(a)
        assert np.abs(a @ inv - np.eye(16)).max() <= 1e-8 * 16

    def test_ill_conditioned(self):
        a = np.diag([1.0, 1e-14])
        with pytest.raises(IllConditionedError):
            dense_inverse(a)


class TestSpectralRadius:
    def test_zero_alpha(self):
        e = sym_eig(np.eye(2))
        assert spectral_radius_from_axes([e], 0.0) == 0.0

    def test_d1_derived(self):
        e = sym_eig(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.isclose(spectral_radius_from_axes([e], -0.6), 0.9)

    def test_d2_product_rule(self):
        e = sym_eig(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.isclose(spectral_radius_from_axes([e, e], 0.4), 0.4 * 1.5 * 1.5)

    def test_matches_dense_gram(self):
        rng = np.random.default_rng(5)
        mats = [random_spd(rng, n) for n in (3, 4)]
        eigs = [sym_eig(m) for m in mats]
        alpha = -0.37
        dense = kron_materialize(mats)
        rho_ref = np.abs(alpha) * np.abs(np.linalg.eigvalsh(dense)).max()
        assert np.isclose(spectral_radius_from_axes(eigs, alpha), rho_ref)
