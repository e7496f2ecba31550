import numpy as np
import pytest

from svperturb.errors import InvalidInputError, InvalidParameterError
from svperturb.matcore import (
    FROBENIUS,
    NUCLEAR,
    OPERATOR,
    NormSpec,
    kyfan,
    singular_values,
)
from svperturb.models import haar_basis
from svperturb.subspace import (
    aligned_distance,
    principal_angles,
    procrustes_align,
    sin_theta_norm,
    two_inf_residual,
)


def pair(seed, n=20, d=4):
    rng = np.random.default_rng(seed)
    return haar_basis(rng, n, d), haar_basis(rng, n, d)


class TestPrincipalAngles:
    def test_identical_subspace(self):
        u, _ = pair(0)
        ang = principal_angles(u, u)
        assert np.allclose(ang, 0.0, atol=1e-7)

    def test_rotation_inside_subspace_gives_zero_angles(self):
        u, _ = pair(1)
        q = haar_basis(np.random.default_rng(2), 4, 4)
        ang = principal_angles(u, u @ q)
        assert np.allclose(ang, 0.0, atol=1e-7)

    def test_orthogonal_subspaces(self):
        u = np.zeros((6, 2))
        u[0, 0] = u[1, 1] = 1.0
        v = np.zeros((6, 2))
        v[2, 0] = v[3, 1] = 1.0
        ang = principal_angles(u, v)
        assert np.allclose(ang, np.pi / 2)

    def test_known_planar_angle(self):
        t = 0.3
        u = np.array([[1.0], [0.0]])
        v = np.array([[np.cos(t)], [np.sin(t)]])
        assert principal_angles(u, v)[0] == pytest.approx(t)

    def test_ascending_order(self):
        u, v = pair(3, n=30, d=6)
        ang = principal_angles(u, v)
        assert np.all(np.diff(ang) >= -1e-12)

    def test_projector_product_oracle(self):
        # singular values of P_u P_v are the angle cosines padded with zeros
        u, v = pair(4, n=15, d=3)
        ang = principal_angles(u, v)
        prod = (u @ u.T) @ (v @ v.T)
        sv = singular_values(prod)
        assert np.allclose(np.sort(sv[:3]), np.sort(np.cos(ang)), atol=1e-9)
        assert np.allclose(sv[3:], 0.0, atol=1e-9)

    def test_projector_difference_oracle(self):
        # singular values of P_u - P_v are the angle sines, each twice
        u, v = pair(5, n=12, d=3)
        ang = principal_angles(u, v)
        diff = u @ u.T - v @ v.T
        sv = np.sort(singular_values(diff))[::-1]
        expect = np.sort(np.concatenate([np.sin(ang), np.sin(ang)]))[::-1]
        assert np.allclose(sv[:6], expect, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        u, _ = pair(6)
        with pytest.raises(InvalidInputError):
            principal_angles(u, u[:, :2])

    def test_ambient_mismatch_rejected(self):
        u, _ = pair(7)
        v, _ = pair(8, n=21)
        with pytest.raises(InvalidInputError):
            principal_angles(u, v)

    def test_non_orthonormal_rejected(self):
        u, v = pair(9)
        with pytest.raises(InvalidInputError):
            principal_angles(2.0 * u, v)


class TestSinThetaNorm:
    def test_matches_complement_compression(self):
        u, v = pair(10, n=18, d=5)
        ang = principal_angles(u, v)
        for spec, reducer in (
            (OPERATOR, np.max),
            (FROBENIUS, lambda s: float(np.sqrt(np.sum(np.square(s))))),
            (NUCLEAR, np.sum),
        ):
            got = sin_theta_norm(u, v, spec)
            assert got == pytest.approx(float(reducer(np.sin(ang))), abs=1e-9)

    def test_complement_projector_oracle(self):
        u, v = pair(11, n=14, d=4)
        p_comp = np.eye(14) - u @ u.T
        direct = singular_values(p_comp @ (v @ v.T))
        assert sin_theta_norm(u, v, OPERATOR) == pytest.approx(direct[0], abs=1e-9)

    def test_kyfan(self):
        u, v = pair(12, n=16, d=4)
        ang = principal_angles(u, v)
        top2 = np.sort(np.sin(ang))[::-1][:2].sum()
        assert sin_theta_norm(u, v, kyfan(2)) == pytest.approx(float(top2), abs=1e-9)

    def test_small_angle_keeps_full_precision(self):
        # arccos of cos(1e-10) == 1.0 would read this angle as 0
        t = 1e-10
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[np.cos(t)], [np.sin(t)], [0.0]])
        assert sin_theta_norm(u, v, OPERATOR) == pytest.approx(np.sin(t), rel=1e-12)

    def test_requires_invariant_norm(self):
        # l2,inf is not a norm kind, so sin_theta_norm never receives it
        u, v = pair(13)
        with pytest.raises(InvalidParameterError):
            sin_theta_norm(u, v, NormSpec("two_inf"))


class TestProcrustes:
    def test_self_alignment_is_identity(self):
        u, _ = pair(14)
        assert np.allclose(procrustes_align(u, u), np.eye(4), atol=1e-9)

    def test_recovers_rotation(self):
        u, _ = pair(15)
        q = haar_basis(np.random.default_rng(16), 4, 4)
        o = procrustes_align(u, u @ q)
        assert np.allclose(o, q, atol=1e-9)

    def test_one_dim_flip(self):
        rng = np.random.default_rng(17)
        x = haar_basis(rng, 8, 1)
        o = procrustes_align(x, -x)
        assert o.shape == (1, 1)
        assert o[0, 0] == pytest.approx(-1.0)

    def test_orthogonal_matrix_output(self):
        u, v = pair(18, n=25, d=5)
        o = procrustes_align(u, v)
        assert np.allclose(o @ o.T, np.eye(5), atol=1e-9)

    def test_minimizes_frobenius_over_random_rotations(self):
        u, v = pair(19, n=10, d=3)
        o = procrustes_align(u, v)
        best = np.linalg.norm(u @ o - v)
        rng = np.random.default_rng(20)
        for _ in range(25):
            q = haar_basis(rng, 3, 3)
            assert best <= np.linalg.norm(u @ q - v) + 1e-10


class TestAlignedDistance:
    def test_spectrum_is_half_angle(self):
        u, v = pair(21, n=17, d=4)
        ang = principal_angles(u, v)
        o = procrustes_align(u, v)
        sv = np.sort(singular_values(u @ o - v))
        expect = np.sort(2.0 * np.sin(ang / 2.0))
        assert np.allclose(sv, expect, atol=1e-9)

    def test_one_dim_formula(self):
        t = 0.4
        u = np.array([[1.0], [0.0]])
        v = np.array([[np.cos(t)], [np.sin(t)]])
        assert aligned_distance(u, v, OPERATOR) == pytest.approx(2.0 * np.sin(t / 2.0))

    def test_orthogonal_one_dim_is_sqrt2(self):
        u = np.array([[1.0], [0.0]])
        v = np.array([[0.0], [1.0]])
        assert aligned_distance(u, v, FROBENIUS) == pytest.approx(np.sqrt(2.0))

    def test_frobenius_sandwich(self):
        for seed in range(22, 30):
            u, v = pair(seed, n=19, d=5)
            sin_f = sin_theta_norm(u, v, FROBENIUS)
            ali = aligned_distance(u, v, FROBENIUS)
            assert sin_f <= ali + 1e-10
            assert ali <= np.sqrt(2.0) * sin_f + 1e-10


class TestTwoInfResidual:
    def test_projector_mode_oracle(self):
        u, v = pair(30, n=13, d=3)
        resid = v - (u @ u.T) @ v
        expect = float(np.max(np.sqrt(np.sum(resid**2, axis=1))))
        assert two_inf_residual(u, v, mode="projector") == pytest.approx(expect)

    def test_aligned_mode_oracle(self):
        u, v = pair(31, n=13, d=3)
        o = procrustes_align(u, v)
        resid = v - u @ o
        expect = float(np.max(np.sqrt(np.sum(resid**2, axis=1))))
        assert two_inf_residual(u, v, mode="aligned") == pytest.approx(expect)

    def test_row_bound_decomposition(self):
        # aligned residual row is controlled by projector residual row plus
        # the squared largest sine times the row mass of u
        for seed in range(32, 40):
            u, v = pair(seed, n=22, d=4)
            ang = principal_angles(u, v)
            ali = two_inf_residual(u, v, mode="aligned")
            proj = two_inf_residual(u, v, mode="projector")
            u_mass = float(np.max(np.sqrt(np.sum(u**2, axis=1))))
            assert ali <= proj + u_mass * np.sin(ang[-1]) ** 2 + 1e-10

    def test_projector_mode_allows_wider_u(self):
        rng = np.random.default_rng(41)
        u = haar_basis(rng, 15, 5)
        w = haar_basis(rng, 15, 2)
        val = two_inf_residual(u, w, mode="projector")
        assert val >= 0.0

    def test_aligned_mode_needs_equal_dims(self):
        rng = np.random.default_rng(42)
        u = haar_basis(rng, 15, 5)
        w = haar_basis(rng, 15, 2)
        with pytest.raises(InvalidInputError):
            two_inf_residual(u, w, mode="aligned")

    def test_unknown_mode(self):
        u, v = pair(43)
        with pytest.raises(InvalidParameterError):
            two_inf_residual(u, v, mode="oblique")
