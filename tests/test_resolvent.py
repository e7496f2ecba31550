import numpy as np
import pytest

from svperturb.errors import (
    EvaluationDomainError,
    InvalidInputError,
    NumericalFailureError,
)
from svperturb.matcore import svd
from svperturb.models import haar_basis
from svperturb.resolvent import (
    dense_resolvent_bilinear,
    linearized_basis,
    linearized_noise,
    local_law_bound,
    local_law_gap,
    min_abs_z,
    phi_values,
    resolvent_bilinear,
    solve_zj,
    uphiu_deviation,
)


def spectrum(seed, n_rows=12, n_cols=8, scale=1.0):
    e = scale * np.random.default_rng(seed).standard_normal((n_rows, n_cols))
    return svd(e), e


def probe(noise, z):
    return phi_values(noise.singulars, *noise.shape, z)


def unit(seed, dim):
    x = np.random.default_rng(seed).standard_normal(dim)
    return x / np.linalg.norm(x)


class TestLinearization:
    def test_dense_eigenvalues_match(self):
        noise, e = spectrum(0)
        lin = linearized_noise(e)
        evals = np.sort(np.linalg.eigvalsh(lin))
        eta = noise.singulars
        expect = np.sort(np.concatenate([eta, -eta, np.zeros(12 - 8)]))
        assert np.allclose(evals, expect, atol=1e-9)

    def test_spectral_norm(self):
        noise, e = spectrum(1)
        assert noise.singulars[0] == pytest.approx(np.linalg.norm(e, 2))


class TestPhi:
    def test_zero_noise_closed_form(self):
        p = phi_values(np.zeros(5), 9, 5, 4.0)
        assert p.phi1 == pytest.approx(4.0 - 5.0 / 4.0)
        assert p.phi2 == pytest.approx(4.0 - 9.0 / 4.0)
        assert p.varphi == pytest.approx(p.phi1 * p.phi2)

    def test_zero_noise_other_orientation(self):
        p = phi_values(np.zeros(4), 4, 11, 6.0)
        assert p.phi1 == pytest.approx(6.0 - 11.0 / 6.0)
        assert p.phi2 == pytest.approx(6.0 - 4.0 / 6.0)

    def test_identity_connecting_both(self):
        noise, _ = spectrum(3, n_rows=10, n_cols=7)
        for z in (min_abs_z(10, 7, 2.0), complex(40.0, 9.0)):
            p = probe(noise, z)
            assert p.phi1 - p.phi2 + (7 - 10) / complex(z) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_square_case_phi_equal(self):
        noise, _ = spectrum(4, n_rows=9, n_cols=9)
        p = probe(noise, 50.0)
        assert p.phi1 == pytest.approx(p.phi2)

    def test_alpha_beta_derived(self):
        noise, _ = spectrum(5)
        p = probe(noise, 60.0)
        assert p.alpha == pytest.approx(0.5 * (1.0 / p.phi1 + 1.0 / p.phi2))
        assert p.beta == pytest.approx(0.5 * (1.0 / p.phi1 - 1.0 / p.phi2))

    def test_monotone_and_crude_bounds_on_event(self):
        noise, _ = spectrum(6, n_rows=20, n_cols=15)
        base = min_abs_z(20, 15, 2.0)
        grid = np.linspace(base, 3.0 * base, 40)
        vals = np.array([probe(noise, z).varphi.real for z in grid])
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals > 0)
        assert np.all(vals < grid**2)

    def test_inside_spectrum_rejected(self):
        noise, _ = spectrum(7)
        with pytest.raises(EvaluationDomainError):
            probe(noise, 0.5 * noise.singulars[0])


class TestBilinear:
    def test_matches_dense_solve_real_z(self):
        noise, e = spectrum(8, n_rows=11, n_cols=6)
        z = min_abs_z(11, 6, 2.0)
        x = unit(1, 17)
        y = unit(2, 17)
        got = resolvent_bilinear(noise, z, x, y)
        expect = dense_resolvent_bilinear(e, z, x, y)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_matches_dense_solve_complex_z(self):
        noise, e = spectrum(9, n_rows=7, n_cols=13)
        z = complex(30.0, 11.0)
        x = unit(3, 20)
        y = unit(4, 20)
        assert resolvent_bilinear(noise, z, x, y) == pytest.approx(
            dense_resolvent_bilinear(e, z, x, y), abs=1e-12
        )

    def test_zero_noise_reduces_to_dot(self):
        noise = svd(np.zeros((6, 4)))
        x = unit(5, 10)
        y = unit(6, 10)
        assert resolvent_bilinear(noise, 3.0, x, y) == pytest.approx(
            complex((x @ y) / 3.0)
        )

    def test_null_block_tall_matrix(self):
        # N > n: vectors supported on the extra left null directions see 1/z
        e = np.random.default_rng(10).standard_normal((9, 3))
        noise = svd(e)
        # direction orthogonal to all left singular vectors
        q = np.linalg.qr(np.hstack([noise.left, unit(7, 9)[:, None]]))[0]
        w = q[:, -1]
        x = np.concatenate([w, np.zeros(3)])
        z = 50.0
        got = resolvent_bilinear(noise, z, x, x)
        assert got == pytest.approx(complex(1.0 / z), abs=1e-12)

    def test_wrong_length_rejected(self):
        noise, _ = spectrum(11)
        with pytest.raises(InvalidInputError):
            resolvent_bilinear(noise, 50.0, np.ones(5), np.ones(20))


class TestLocalLaw:
    def test_bound_formula(self):
        val = local_law_bound(100, 64, 2.0, 1.0, 36.0)
        expect = 5.0 * 4.0 * np.sqrt(2.0 * np.log(164.0)) / 36.0**2
        assert val == pytest.approx(expect, rel=1e-12)

    def test_gap_small_at_moderate_size(self):
        n = 120
        noise, _ = spectrum(12, n_rows=n, n_cols=n)
        z = min_abs_z(n, n, 2.0)
        x = unit(13, 2 * n)
        y = unit(14, 2 * n)
        gap = local_law_gap(noise, probe(noise, z), x, y)
        assert gap <= local_law_bound(n, n, 2.0, 1.0, z)


class TestUPhiU:
    def test_deviation_small_for_haar(self):
        rng = np.random.default_rng(15)
        noise, _ = spectrum(16, n_rows=14, n_cols=9)
        u = haar_basis(rng, 14, 3)
        v = haar_basis(rng, 9, 3)
        u_lin = linearized_basis(u, v)
        base = min_abs_z(14, 9, 2.0)
        assert uphiu_deviation(probe(noise, base), u_lin, 14, 9) < 1e-8

    def test_basis_of_wrong_height_rejected(self):
        rng = np.random.default_rng(15)
        noise, _ = spectrum(16, n_rows=14, n_cols=9)
        u_lin = linearized_basis(haar_basis(rng, 13, 2), haar_basis(rng, 9, 2))
        with pytest.raises(InvalidInputError, match=r"\(23\) x 2r"):
            uphiu_deviation(probe(noise, 60.0), u_lin, 14, 9)

    def test_basis_is_orthonormal(self):
        rng = np.random.default_rng(17)
        u = haar_basis(rng, 10, 2)
        v = haar_basis(rng, 6, 2)
        u_lin = linearized_basis(u, v)
        assert np.allclose(u_lin.T @ u_lin, np.eye(4), atol=1e-10)

    def test_mismatched_ranks_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(InvalidInputError):
            linearized_basis(haar_basis(rng, 10, 2), haar_basis(rng, 6, 3))


class TestSolveZj:
    def test_zero_noise_quartic_root(self):
        # with zero noise varphi(z) = (z - n/z)(z - N/z); solve directly
        noise = svd(np.zeros((8, 5)))
        sigma = 60.0
        z = solve_zj(noise, sigma, 2.0)
        resid = (z - 5.0 / z) * (z - 8.0 / z) - sigma**2
        assert abs(resid) <= 1e-6 * sigma**2

    def test_bracket_on_event(self):
        noise, _ = spectrum(19, n_rows=30, n_cols=20)
        base = min_abs_z(30, 20, 2.0)
        chi = 1.0 + 1.0 / 8.0
        for mult in (1.5, 3.0, 10.0):
            sigma = mult * base
            z = solve_zj(noise, sigma, 2.0)
            assert sigma <= z <= chi * sigma + 1e-9

    def test_residual_tolerance(self):
        noise, _ = spectrum(20, n_rows=25, n_cols=25)
        sigma = 3.0 * min_abs_z(25, 25, 2.0)
        z = solve_zj(noise, sigma, 2.0)
        resid = abs(probe(noise, z).varphi.real - sigma**2)
        assert resid <= 1e-8 * sigma**2

    def test_noise_reaching_domain_fails(self):
        # huge noise: spectrum swallows the probe domain
        e = 100.0 * np.random.default_rng(21).standard_normal((10, 10))
        noise = svd(e)
        with pytest.raises(NumericalFailureError):
            solve_zj(noise, 500.0, 2.0)

    def test_bad_inputs(self):
        noise, _ = spectrum(22)
        with pytest.raises(InvalidInputError):
            solve_zj(noise, -1.0, 2.0)
        with pytest.raises(InvalidInputError):
            solve_zj(noise, 10.0, 1.0)

    @pytest.mark.parametrize("sigma_j, margin", [(100.0, float("nan")), (float("nan"), 2.0)])
    def test_nan_rejected_before_bisection(self, sigma_j, margin):
        noise, _ = spectrum(22)
        with pytest.raises(InvalidInputError, match="need sigma_j > 0"):
            solve_zj(noise, sigma_j, margin)


class TestMinAbsZ:
    def test_value(self):
        assert min_abs_z(100, 64, 2.0) == pytest.approx(4.0 * 18.0)
        assert min_abs_z(9, 9, 3.0) == pytest.approx(36.0)
