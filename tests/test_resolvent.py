import numpy as np
import pytest

from svperturb.errors import (
    EvaluationDomainError,
    InvalidInputError,
    NumericalFailureError,
)
from svperturb.models import haar_basis
from svperturb.resolvent import (
    LinearizationSpectrum,
    dense_resolvent_bilinear,
    linearized_basis,
    linearized_noise,
    local_law_bound,
    local_law_gap,
    min_abs_z,
    phi_from_eta,
    phi_values,
    resolvent_bilinear,
    solve_zj,
    uphiu_deviation,
)


def spectrum(seed, n_rows=12, n_cols=8, scale=1.0):
    e = scale * np.random.default_rng(seed).standard_normal((n_rows, n_cols))
    return LinearizationSpectrum.from_noise(e), e


def unit(seed, dim):
    x = np.random.default_rng(seed).standard_normal(dim)
    return x / np.linalg.norm(x)


class TestLinearization:
    def test_dense_eigenvalues_match(self):
        ls, e = spectrum(0)
        lin = linearized_noise(e)
        evals = np.sort(np.linalg.eigvalsh(lin))
        expect = np.sort(np.concatenate([ls.eta, -ls.eta, np.zeros(12 - 8)]))
        assert np.allclose(evals, expect, atol=1e-9)

    def test_spectral_norm(self):
        ls, e = spectrum(1)
        assert ls.spectral_norm == pytest.approx(np.linalg.norm(e, 2))

    def test_shape_validation(self):
        ls, _ = spectrum(2)
        with pytest.raises(InvalidInputError):
            LinearizationSpectrum(
                eta=ls.eta[:-1],
                left_vecs=ls.left_vecs,
                right_vecs=ls.right_vecs,
                n_rows=12,
                n_cols=8,
            )


class TestPhi:
    def test_zero_noise_closed_form(self):
        probe = phi_from_eta(np.zeros(5), 9, 5, 4.0)
        assert probe.phi1 == pytest.approx(4.0 - 5.0 / 4.0)
        assert probe.phi2 == pytest.approx(4.0 - 9.0 / 4.0)
        assert probe.varphi == pytest.approx(probe.phi1 * probe.phi2)

    def test_zero_noise_other_orientation(self):
        probe = phi_from_eta(np.zeros(4), 4, 11, 6.0)
        assert probe.phi1 == pytest.approx(6.0 - 11.0 / 6.0)
        assert probe.phi2 == pytest.approx(6.0 - 4.0 / 6.0)

    def test_identity_connecting_both(self):
        ls, _ = spectrum(3, n_rows=10, n_cols=7)
        for z in (min_abs_z(10, 7, 2.0), complex(40.0, 9.0)):
            p = phi_values(ls, z)
            assert p.phi1 - p.phi2 + (7 - 10) / complex(z) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_square_case_phi_equal(self):
        ls, _ = spectrum(4, n_rows=9, n_cols=9)
        p = phi_values(ls, 50.0)
        assert p.phi1 == pytest.approx(p.phi2)

    def test_alpha_beta_derived(self):
        ls, _ = spectrum(5)
        p = phi_values(ls, 60.0)
        assert p.alpha == pytest.approx(0.5 * (1.0 / p.phi1 + 1.0 / p.phi2))
        assert p.beta == pytest.approx(0.5 * (1.0 / p.phi1 - 1.0 / p.phi2))

    def test_monotone_and_crude_bounds_on_event(self):
        ls, _ = spectrum(6, n_rows=20, n_cols=15)
        base = min_abs_z(20, 15, 2.0)
        grid = np.linspace(base, 3.0 * base, 40)
        vals = np.array([phi_values(ls, z).varphi.real for z in grid])
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals > 0)
        assert np.all(vals < grid**2)

    def test_inside_spectrum_rejected(self):
        ls, _ = spectrum(7)
        with pytest.raises(EvaluationDomainError):
            phi_values(ls, 0.5 * ls.spectral_norm)


class TestBilinear:
    def test_matches_dense_solve_real_z(self):
        ls, e = spectrum(8, n_rows=11, n_cols=6)
        z = min_abs_z(11, 6, 2.0)
        x = unit(1, 17)
        y = unit(2, 17)
        got = resolvent_bilinear(ls, z, x, y)
        expect = dense_resolvent_bilinear(e, z, x, y)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_matches_dense_solve_complex_z(self):
        ls, e = spectrum(9, n_rows=7, n_cols=13)
        z = complex(30.0, 11.0)
        x = unit(3, 20)
        y = unit(4, 20)
        assert resolvent_bilinear(ls, z, x, y) == pytest.approx(
            dense_resolvent_bilinear(e, z, x, y), abs=1e-12
        )

    def test_zero_noise_reduces_to_dot(self):
        ls = LinearizationSpectrum.from_noise(np.zeros((6, 4)))
        x = unit(5, 10)
        y = unit(6, 10)
        assert resolvent_bilinear(ls, 3.0, x, y) == pytest.approx(
            complex((x @ y) / 3.0)
        )

    def test_null_block_tall_matrix(self):
        # N > n: vectors supported on the extra left null directions see 1/z
        e = np.random.default_rng(10).standard_normal((9, 3))
        ls = LinearizationSpectrum.from_noise(e)
        # direction orthogonal to all left singular vectors
        q = np.linalg.qr(np.hstack([ls.left_vecs, unit(7, 9)[:, None]]))[0]
        w = q[:, -1]
        x = np.concatenate([w, np.zeros(3)])
        z = 50.0
        got = resolvent_bilinear(ls, z, x, x)
        assert got == pytest.approx(complex(1.0 / z), abs=1e-12)

    def test_wrong_length_rejected(self):
        ls, _ = spectrum(11)
        with pytest.raises(InvalidInputError):
            resolvent_bilinear(ls, 50.0, np.ones(5), np.ones(20))


class TestLocalLaw:
    def test_bound_formula(self):
        val = local_law_bound(100, 64, 2.0, 1.0, 36.0)
        expect = 5.0 * 4.0 * np.sqrt(2.0 * np.log(164.0)) / 36.0**2
        assert val == pytest.approx(expect, rel=1e-12)

    def test_gap_small_at_moderate_size(self):
        n = 120
        ls, _ = spectrum(12, n_rows=n, n_cols=n)
        z = min_abs_z(n, n, 2.0)
        x = unit(13, 2 * n)
        y = unit(14, 2 * n)
        gap = local_law_gap(ls, z, x, y)
        assert gap <= local_law_bound(n, n, 2.0, 1.0, z)


class TestUPhiU:
    def test_deviation_small_for_haar(self):
        rng = np.random.default_rng(15)
        ls, _ = spectrum(16, n_rows=14, n_cols=9)
        u = haar_basis(rng, 14, 3)
        v = haar_basis(rng, 9, 3)
        u_lin = linearized_basis(u, v)
        base = min_abs_z(14, 9, 2.0)
        assert uphiu_deviation(ls, u_lin, base) < 1e-8

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
        ls = LinearizationSpectrum.from_noise(np.zeros((8, 5)))
        sigma = 60.0
        z = solve_zj(ls, sigma, 2.0)
        resid = (z - 5.0 / z) * (z - 8.0 / z) - sigma**2
        assert abs(resid) <= 1e-6 * sigma**2

    def test_bracket_on_event(self):
        ls, _ = spectrum(19, n_rows=30, n_cols=20)
        base = min_abs_z(30, 20, 2.0)
        chi = 1.0 + 1.0 / 8.0
        for mult in (1.5, 3.0, 10.0):
            sigma = mult * base
            z = solve_zj(ls, sigma, 2.0)
            assert sigma <= z <= chi * sigma + 1e-9

    def test_residual_tolerance(self):
        ls, _ = spectrum(20, n_rows=25, n_cols=25)
        sigma = 3.0 * min_abs_z(25, 25, 2.0)
        z = solve_zj(ls, sigma, 2.0)
        resid = abs(phi_values(ls, z).varphi.real - sigma**2)
        assert resid <= 1e-8 * sigma**2

    def test_noise_reaching_domain_fails(self):
        # huge noise: spectrum swallows the probe domain
        e = 100.0 * np.random.default_rng(21).standard_normal((10, 10))
        ls = LinearizationSpectrum.from_noise(e)
        with pytest.raises(NumericalFailureError):
            solve_zj(ls, 500.0, 2.0)

    def test_bad_inputs(self):
        ls, _ = spectrum(22)
        with pytest.raises(InvalidInputError):
            solve_zj(ls, -1.0, 2.0)
        with pytest.raises(InvalidInputError):
            solve_zj(ls, 10.0, 1.0)


class TestMinAbsZ:
    def test_value(self):
        assert min_abs_z(100, 64, 2.0) == pytest.approx(4.0 * 18.0)
        assert min_abs_z(9, 9, 3.0) == pytest.approx(36.0)
