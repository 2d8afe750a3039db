import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ikno.errors import (
    CapExceededError,
    NonSymmetricError,
    ShapeMismatchError,
    SingularAxisError,
    SingularDiagonalError,
)
from ikno.kernels import AxisKernelParams, axis_gram
from ikno.resolvent import (
    apply_naive_inverse,
    apply_resolvent,
    build_tp,
    build_truncated,
    build_vanilla,
    inverse_power_partial_sum,
)
from ikno.tensor_linalg import dense_inverse, kron_materialize

K2 = np.array([[1.0, 0.5], [0.5, 1.0]])  # eigenvalues 0.5, 1.5


def random_spd_grams(seed, d, n_max=8):
    rng = np.random.default_rng(seed)
    grams = []
    for _ in range(d):
        n = int(rng.integers(2, n_max + 1))
        coords = np.sort(rng.uniform(-1, 1, n))
        for i in range(1, n):
            if coords[i] - coords[i - 1] < 1e-3:
                coords[i] = coords[i - 1] + 1e-3
        grams.append(
            axis_gram(AxisKernelParams(c=1.0, beta=1.5, gamma=0.8), coords)
        )
    return grams


class TestBuildVanilla:
    def test_alpha_zero_identity(self):
        r = build_vanilla([K2, K2], 0.0)
        assert np.allclose(r.diag_weights, 1.0)
        t = np.arange(8.0).reshape(2, 2, 2)
        assert np.allclose(apply_resolvent(r, t), t)

    def test_scalar_geometric(self):
        r = build_vanilla([np.array([[1.0]])], -0.5)
        assert np.isclose(r.diag_weights[0], 2.0 / 3.0)

    def test_d2_analytic_weights(self):
        r = build_vanilla([K2, K2], 0.4)
        want = sorted(
            1.0 / (1.0 - 0.4 * la * lb)
            for la in (0.5, 1.5)
            for lb in (0.5, 1.5)
        )
        assert np.allclose(sorted(r.diag_weights.ravel()), want)
        assert np.isclose(r.diag_weights.max(), 10.0)

    def test_dense_oracle_d2(self):
        grams = random_spd_grams(7, 2, n_max=3)
        alpha = -0.7
        t = np.random.default_rng(8).standard_normal(
            tuple(g.shape[0] for g in grams) + (2,)
        )
        got = apply_resolvent(build_vanilla(grams, alpha), t)
        ref = apply_naive_inverse(grams, alpha, t)
        assert np.abs(got - ref).max() <= 1e-8

    def test_zero_tensor(self):
        r = build_vanilla([K2], -1.0)
        assert np.array_equal(apply_resolvent(r, np.zeros((2, 3))), np.zeros((2, 3)))

    def test_shape_mismatch(self):
        r = build_vanilla([K2], -1.0)
        with pytest.raises(ShapeMismatchError):
            apply_resolvent(r, np.zeros((3, 1)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_negative_alpha_weights_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        grams = random_spd_grams(seed, int(rng.integers(1, 4)), n_max=5)
        alpha = float(-rng.uniform(0.01, 2.0))
        r = build_vanilla(grams, alpha)
        w = r.diag_weights.ravel()
        assert np.all(w > 0) and np.all(w <= 1.0)

    def test_positive_alpha_beyond_radius_flags_neumann(self):
        # rho(alpha*K) = 3 but no diagonal entry is singular
        r = build_vanilla([np.diag([2.0, 3.0])], 1.0 / 1.0)
        assert not r.neumann_valid


def materialize(r):
    """The M x M matrix of a built operator, one unit impulse per channel."""
    m = int(np.prod(r.axis_sizes))
    return apply_resolvent(r, np.eye(m).reshape(*r.axis_sizes, m)).reshape(m, m)


class TestTP:
    def test_alpha_zero_identity_factors(self):
        r = build_tp([K2, K2], 0.0)
        assert np.allclose(r.diag_weights, 1.0)
        assert np.allclose(materialize(r), np.eye(4))

    def test_d1_matches_vanilla(self):
        grams = random_spd_grams(3, 1)
        alpha = -0.9
        t = np.random.default_rng(4).standard_normal((grams[0].shape[0], 2))
        a = apply_resolvent(build_vanilla(grams, alpha), t)
        b = apply_resolvent(build_tp(grams, alpha), t)
        assert np.abs(a - b).max() <= 1e-10

    def test_d2_closed_form_factors(self):
        r = build_tp([K2, K2], -1.0)
        want = dense_inverse(np.array([[2.0, 0.5], [0.5, 2.0]]))
        assert np.abs(materialize(r) - np.kron(want, want)).max() <= 1e-12

    def test_d2_witness_gap_vs_vanilla(self):
        t = np.zeros((2, 2, 1))
        t[0, 0, 0] = 1.0  # unit impulse
        a = apply_resolvent(build_vanilla([K2, K2], -1.0), t)
        b = apply_resolvent(build_tp([K2, K2], -1.0), t)
        assert np.abs(a - b).max() > 1e-3

    def test_singular_axis_named(self):
        with pytest.raises(SingularAxisError) as err:
            build_tp([K2, np.array([[1.0]])], 1.0)
        assert err.value.axis == 1

    def test_neumann_valid_per_axis(self):
        # rho(alpha*K_j) = 0.9 on each axis, rho(alpha*K) = 1.35 for vanilla
        assert build_tp([K2, K2], 0.6).neumann_valid
        assert not build_vanilla([K2, K2], 0.6).neumann_valid

    def test_matches_dense_kron_of_inverses(self):
        grams = random_spd_grams(11, 3, n_max=4)
        alpha = -1.3
        sizes = tuple(g.shape[0] for g in grams)
        t = np.random.default_rng(12).standard_normal(sizes + (2,))
        axis_inverses = [dense_inverse(np.eye(g.shape[0]) - alpha * g) for g in grams]
        dense = kron_materialize(axis_inverses)
        m = int(np.prod(sizes))
        ref = (dense @ t.reshape(m, 2)).reshape(t.shape)
        r = build_tp(grams, alpha)
        got = apply_resolvent(r, t)
        assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
        for rj, inv in zip(r.axis_resolvents, axis_inverses):
            assert np.abs(rj - inv).max() <= 1e-12 * np.abs(inv).max()


def build_truncated_p2(grams, alpha):
    return build_truncated(grams, alpha, 2)


@pytest.mark.parametrize("build", [build_vanilla, build_tp, build_truncated_p2])
class TestBuildErrors:
    def test_non_symmetric_gram(self, build):
        with pytest.raises(NonSymmetricError):
            build([np.array([[1.0, 0.5], [0.0, 1.0]])], -0.5)

    def test_non_square_gram(self, build):
        with pytest.raises(ShapeMismatchError):
            build([np.ones((2, 3))], -0.5)


@pytest.mark.parametrize("build", [build_vanilla, build_tp, build_truncated_p2])
def test_built_operator_is_read_only(build):
    r = build(random_spd_grams(3, 2), -0.5)
    with pytest.raises(ValueError):
        r.diag_weights *= 2
    arrays = [r.diag_weights, *r.cofactors, *(a for pair in r.pairs or () for a in pair)]
    arrays += [a for e in r.axis_eigs for a in (e.eigenvalues, e.eigenvectors)]
    arrays += r.axis_resolvents or []
    assert not any(a.flags.writeable for a in arrays)
    # only tp, a Kronecker product of per-axis resolvents, carries them
    assert (r.axis_resolvents is not None) == (build is build_tp)


def truncated(grams, alpha, order, t):
    """The order-p partial sum, applied in the axis eigenbasis."""
    return apply_resolvent(build_truncated(grams, alpha, order), t)


class TestTruncated:
    def test_p0_identity(self):
        # D is exactly 1; the two rotations U U^T round in the last bits
        t = np.array([[1.0], [2.0]])
        r = build_truncated([K2], -0.5, 0)
        assert np.array_equal(r.diag_weights, np.ones(2)) and r.pairs == ()
        assert np.abs(apply_resolvent(r, t) - t).max() <= 4 * np.finfo(float).eps

    def test_p1_scalar(self):
        assert np.allclose(truncated([np.array([[1.0]])], -0.5, 1, np.array([[1.0]])), [[0.5]])

    def test_geometric_decay_to_resolvent(self):
        alpha = 0.6  # rho(alpha*K2) = 0.9
        t = np.array([[1.0], [-0.5]])
        ref = apply_resolvent(build_vanilla([K2], alpha), t)
        rho = 0.9
        prev = None
        for p in (10, 50, 150):
            err = np.abs(truncated([K2], alpha, p, t) - ref).max()
            bound = np.linalg.norm(t) * rho ** (p + 1) / (1 - rho)
            assert err <= bound + 1e-12
            if prev is not None:
                assert err < prev
            prev = err
        assert prev <= 1e-6

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_where_vanilla_is_singular(self, order):
        # alpha * lambda = 1 on the top eigenvalue of K2: the partial sum is
        # finite there, with D = p + 1, while the resolvent does not exist
        r = build_truncated([K2], 1.0 / 1.5, order)
        assert np.isclose(r.diag_weights.max(), order + 1, rtol=1e-14, atol=0.0)
        assert not r.neumann_valid
        t = np.array([[1.0], [1.0]])  # the top eigenvector, unnormalized
        assert np.allclose(truncated([K2], 1.0 / 1.5, order, t), (order + 1) * t, rtol=1e-14)
        with pytest.raises(SingularDiagonalError):
            build_vanilla([K2], 1.0 / 1.5)


class TestNaiveInverse:
    def test_alpha_zero(self):
        t = np.arange(4.0).reshape(2, 2)
        assert np.allclose(apply_naive_inverse([K2], 0.0, t), t)

    def test_cap_guard(self):
        grams = [np.eye(30)] * 3  # M = 27000
        with pytest.raises(CapExceededError):
            apply_naive_inverse(grams, -0.5, np.zeros((30, 30, 30, 1)))


class TestInversePower:
    def test_scalar_partial_sums(self):
        k = [np.array([[2.0]])]
        assert np.allclose(inverse_power_partial_sum(k, 1.0, 1), [[-0.5]])
        assert np.allclose(inverse_power_partial_sum(k, 1.0, 2), [[-0.75]])
        assert np.abs(inverse_power_partial_sum(k, 1.0, 40) - (-1.0)).max() <= 1e-10

    def test_tail_bound_when_convergent(self):
        k = np.diag([2.0, 3.0])
        alpha = -1.0
        ref = dense_inverse(np.eye(2) - alpha * k)
        rate = 0.5  # 1 / (|alpha| * lambda_min)
        for n in (5, 10, 20):
            dev = np.linalg.norm(
                inverse_power_partial_sum([k], alpha, n) - ref, 2
            )
            assert dev <= 2.0 * rate**n

    def test_divergence_when_subunit(self):
        k = np.diag([0.5, 1.5])
        norms = [
            np.linalg.norm(inverse_power_partial_sum([k], -1.0, n), 2)
            for n in (1, 5, 10, 20)
        ]
        assert all(b > a for a, b in zip(norms, norms[1:]))


class TestLinearity:
    def test_linearity(self):
        grams = random_spd_grams(5, 2, n_max=4)
        r = build_vanilla(grams, -0.8)
        rng = np.random.default_rng(6)
        sizes = tuple(g.shape[0] for g in grams)
        t1 = rng.standard_normal(sizes + (2,))
        t2 = rng.standard_normal(sizes + (2,))
        lhs = apply_resolvent(r, 2.0 * t1 - 3.0 * t2)
        rhs = 2.0 * apply_resolvent(r, t1) - 3.0 * apply_resolvent(r, t2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
