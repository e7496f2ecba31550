from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svperturb.errors import (
    EvaluationDomainError,
    InvalidInputError,
    NumericalFailureError,
)
from svperturb.matcore import gram_spectrum, gram_top, svd
from svperturb.models import haar_basis
from svperturb.resolvent import (
    dense_resolvent_bilinear,
    far_field_phi,
    linearized_basis,
    linearized_noise,
    local_law_bound,
    local_law_gap,
    min_abs_z,
    phi_values,
    remainder_norms,
    resolvent_bilinear,
    solve_zj,
    uphiu_deviation,
)


def noise(seed, n_rows=12, n_cols=8, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal((n_rows, n_cols))


def probe(e, z):
    return phi_values(gram_spectrum(e), *e.shape, z)


def scalar_reference(eta, n_rows, n_cols, z):
    """phi1, phi2, varphi, alpha, beta in the per-point arithmetic phi_values has
    always used for a scalar z, which the bounds scenario reads."""
    z = complex(z)
    pair_sum = 0.5 * np.sum(1.0 / (z - eta) + 1.0 / (z + eta))
    phi1 = z - pair_sum - max(n_cols - n_rows, 0) / z
    phi2 = z - pair_sum - max(n_rows - n_cols, 0) / z
    return phi1, phi2, phi1 * phi2, 0.5 * (1.0 / phi1 + 1.0 / phi2), 0.5 * (1.0 / phi1 - 1.0 / phi2)


def bits(*values):
    return [np.complex128(v).tobytes() for v in values]


def unit(seed, dim):
    x = np.random.default_rng(seed).standard_normal(dim)
    return x / np.linalg.norm(x)


class TestLinearization:
    def test_dense_eigenvalues_match(self):
        e = noise(0)
        lin = linearized_noise(e)
        evals = np.sort(np.linalg.eigvalsh(lin))
        eta = gram_spectrum(e)
        expect = np.sort(np.concatenate([eta, -eta, np.zeros(12 - 8)]))
        assert np.allclose(evals, expect, atol=1e-9)

    def test_spectral_norm(self):
        e = noise(1)
        assert gram_spectrum(e)[0] == pytest.approx(np.linalg.norm(e, 2))


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
        e = noise(3, n_rows=10, n_cols=7)
        for z in (min_abs_z(10, 7, 2.0), complex(40.0, 9.0)):
            p = probe(e, z)
            assert p.phi1 - p.phi2 + (7 - 10) / complex(z) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_square_case_phi_equal(self):
        e = noise(4, n_rows=9, n_cols=9)
        p = probe(e, 50.0)
        assert p.phi1 == pytest.approx(p.phi2)

    def test_alpha_beta_derived(self):
        e = noise(5)
        p = probe(e, 60.0)
        assert p.alpha == pytest.approx(0.5 * (1.0 / p.phi1 + 1.0 / p.phi2))
        assert p.beta == pytest.approx(0.5 * (1.0 / p.phi1 - 1.0 / p.phi2))

    def test_monotone_and_crude_bounds_on_event(self):
        e = noise(6, n_rows=20, n_cols=15)
        base = min_abs_z(20, 15, 2.0)
        grid = np.linspace(base, 3.0 * base, 40)
        vals = np.array([probe(e, z).varphi.real for z in grid])
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals > 0)
        assert np.all(vals < grid**2)

    @settings(max_examples=50, deadline=None)
    @given(
        size=st.integers(0, 70),
        shape=st.sampled_from([(60, 40), (40, 60), (50, 50)]),
        points=st.lists(
            st.tuples(st.floats(1.0, 4.0), st.floats(-2.0, 2.0)), min_size=0, max_size=30
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vector_bit_identical_to_scalar(self, size, shape, points, seed):
        eta = np.sort(np.random.default_rng(seed).uniform(0.0, 10.0, size))[::-1]
        base = min_abs_z(*shape, 2.0)
        zs = [base * complex(re, im) for re, im in points]
        vec = phi_values(eta, *shape, zs)
        assert len(vec) == len(zs)
        for z, got in zip(zs, vec):
            want = phi_values(eta, *shape, z)
            fields = ("z", "phi1", "phi2", "varphi", "alpha", "beta")
            want_bits = bits(*(getattr(want, f) for f in fields))
            assert bits(*(getattr(got, f) for f in fields)) == want_bits
            assert want_bits[1:] == bits(*scalar_reference(eta, *shape, z))

    def test_vector_inside_spectrum_rejected(self):
        e = noise(7)
        top = gram_spectrum(e)[0]
        with pytest.raises(EvaluationDomainError):
            phi_values(gram_spectrum(e), *e.shape, [3.0 * top, 0.5 * top])

    def test_inside_spectrum_rejected(self):
        e = noise(7)
        with pytest.raises(EvaluationDomainError):
            probe(e, 0.5 * gram_spectrum(e)[0])


class TestFarField:
    @pytest.mark.parametrize("shape", [(900, 900), (1000, 450)], ids=["square", "tall"])
    def test_matches_phi_values_at_gate_size(self, shape):
        e = noise(91, *shape)
        top = gram_top(e)
        assert top.spectrum is None
        eta = gram_spectrum(e)
        # from the strip's edge at sigma = 2e5, 1.2e5 down to z where x^3 / (1 - x) nears eps
        for z in (2.0e5, 1.2e5, 3.0e4):
            got = far_field_phi(top, *shape, z)
            want = phi_values(eta, *shape, z)
            assert got is not None
            for field in ("phi1", "phi2", "varphi", "alpha", "beta"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)
            # the resolvent part z - phi1 is the pair sum plus the null block's
            # term, read back up to the rounding of phi1 at the scale of z
            tol = 4.0 * np.finfo(float).eps * z
            assert z - got.phi1 == pytest.approx(z - want.phi1, rel=1e-9, abs=tol)

    def test_falls_back_near_the_spectrum(self):
        e = noise(92, 80, 60)
        top = gram_top(e)
        # the whole spectrum is held below the crossover, and z^2 = 1600 is
        # not far above ||E||_F^2 = 4800: both make the caller read phi_values
        assert far_field_phi(top, 80, 60, 40.0) is None
        assert far_field_phi(replace(top, spectrum=None), 80, 60, 40.0) is None
        with pytest.raises(EvaluationDomainError):
            phi_values(gram_spectrum(e), 80, 60, 0.5 * top.value)
        assert far_field_phi(replace(top, spectrum=None), 80, 60, 0.5 * top.value) is None

    def test_only_real_nonzero_z(self):
        top = replace(gram_top(noise(93, 12, 8)), spectrum=None)
        assert far_field_phi(top, 12, 8, 1.0e6) is not None
        assert far_field_phi(top, 12, 8, 1.0e6 + 1.0j) is None
        assert far_field_phi(top, 12, 8, 0.0) is None
        # z^4 is past the float range, so the terms are formed as products
        assert far_field_phi(top, 12, 8, 1.0e80).varphi == pytest.approx(1.0e160, rel=1e-12)


class TestBilinear:
    def test_matches_dense_solve_real_z(self):
        e = noise(8, n_rows=11, n_cols=6)
        z = min_abs_z(11, 6, 2.0)
        x = unit(1, 17)
        y = unit(2, 17)
        got = resolvent_bilinear(e, z, x, y)
        expect = dense_resolvent_bilinear(e, z, x, y)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_matches_dense_solve_complex_z(self):
        e = noise(9, n_rows=7, n_cols=13)
        z = complex(30.0, 11.0)
        x = unit(3, 20)
        y = unit(4, 20)
        assert resolvent_bilinear(e, z, x, y) == pytest.approx(
            dense_resolvent_bilinear(e, z, x, y), abs=1e-12
        )

    def test_zero_noise_reduces_to_dot(self):
        x = unit(5, 10)
        y = unit(6, 10)
        assert resolvent_bilinear(np.zeros((6, 4)), 3.0, x, y) == pytest.approx(
            complex((x @ y) / 3.0)
        )

    def test_null_block_tall_matrix(self):
        # N > n: vectors supported on the extra left null directions see 1/z
        e = np.random.default_rng(10).standard_normal((9, 3))
        # direction orthogonal to all left singular vectors
        q = np.linalg.qr(np.hstack([svd(e).left, unit(7, 9)[:, None]]))[0]
        w = q[:, -1]
        x = np.concatenate([w, np.zeros(3)])
        z = 50.0
        got = resolvent_bilinear(e, z, x, x)
        assert got == pytest.approx(complex(1.0 / z), abs=1e-12)

    def test_wrong_length_rejected(self):
        e = noise(11)
        with pytest.raises(InvalidInputError):
            resolvent_bilinear(e, 50.0, np.ones(5), np.ones(20))

    # wide, square and tall noise: the solve runs on e e^T, either Gram, or e^T e
    @pytest.mark.parametrize("n_rows, n_cols", [(5, 9), (7, 7), (11, 4)])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 1.0, 3.0]),
        radius=st.floats(1.1, 6.0),
        angle=st.sampled_from([0.0, np.pi]) | st.floats(0.0, 2.0 * np.pi),
    )
    def test_solve_path_matches_dense(self, n_rows, n_cols, seed, scale, radius, angle):
        rng = np.random.default_rng(seed)
        e = scale * rng.standard_normal((n_rows, n_cols))
        r = radius * max(np.linalg.norm(e, 2), 1.0)
        z = r * np.exp(1j * angle) if angle % np.pi else r * np.cos(angle)
        x, y = unit(seed, n_rows + n_cols), unit(seed + 1, n_rows + n_cols)
        expect = dense_resolvent_bilinear(e, z, x, y)
        assert resolvent_bilinear(e, z, x, y) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n_rows, n_cols", [(5, 9), (7, 7), (11, 4)])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.0, 0.99),
        angle=st.floats(0.0, 2.0 * np.pi),
    )
    def test_inside_spectrum_rejected(self, n_rows, n_cols, seed, radius, angle):
        e = np.random.default_rng(seed).standard_normal((n_rows, n_cols))
        z = radius * np.linalg.norm(e, 2) * np.exp(1j * angle)
        x = unit(seed, n_rows + n_cols)
        with pytest.raises(EvaluationDomainError):
            resolvent_bilinear(e, z, x, x)

    # between ||e||^2 and ||e e^T||_F the Frobenius shortcut cannot decide, so
    # the Cholesky of |z|^2 I minus the smaller Gram does
    @pytest.mark.parametrize("n_rows, n_cols", [(5, 9), (7, 7), (11, 4)])
    def test_definiteness_decides_near_the_spectrum(self, n_rows, n_cols, monkeypatch):
        e = noise(12, n_rows=n_rows, n_cols=n_cols)
        top = np.linalg.norm(e, 2)
        x, y = unit(13, n_rows + n_cols), unit(14, n_rows + n_cols)
        outside, inside = top * (1.0 + 1e-6), top * (1.0 - 1e-6)
        assert outside**2 <= np.linalg.norm(svd(e).singulars ** 2)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        got = resolvent_bilinear(e, outside, x, y)
        assert got == pytest.approx(dense_resolvent_bilinear(e, outside, x, y), rel=1e-6)
        with pytest.raises(EvaluationDomainError):
            resolvent_bilinear(e, inside, x, y)
        assert calls == [(min(n_rows, n_cols),) * 2] * 2

    def test_zero_noise_rejects_only_zero(self):
        x = unit(8, 10)
        with pytest.raises(EvaluationDomainError):
            resolvent_bilinear(np.zeros((6, 4)), 0.0, x, x)
        assert resolvent_bilinear(np.zeros((6, 4)), 1e-3j, x, x) == pytest.approx(1e3 / 1j)


class TestRemainderNorms:
    @pytest.mark.parametrize("n_rows, n_cols", [(60, 40), (30, 30), (9, 17)])
    @pytest.mark.parametrize("factor", [1.0, 1.5, 3.0])
    def test_match_formed_remainders(self, n_rows, n_cols, factor):
        e = noise(23, n_rows=n_rows, n_cols=n_cols)
        z = factor * min_abs_z(n_rows, n_cols, 2.0)
        lin = linearized_noise(e)
        g = np.linalg.inv(z * np.eye(lin.shape[0]) - lin)
        formed = (g, g - np.eye(lin.shape[0]) / z, g - np.eye(lin.shape[0]) / z - lin / z**2)
        for got, rem in zip(remainder_norms(g, z), formed):
            assert got == pytest.approx(np.linalg.norm(rem, 2), rel=1e-12, abs=0.0)


class TestLocalLaw:
    def test_bound_formula(self):
        val = local_law_bound(100, 64, 2.0, 1.0, 36.0)
        expect = 5.0 * 4.0 * np.sqrt(2.0 * np.log(164.0)) / 36.0**2
        assert val == pytest.approx(expect, rel=1e-12)

    def test_gap_small_at_moderate_size(self):
        n = 120
        e = noise(12, n_rows=n, n_cols=n)
        z = min_abs_z(n, n, 2.0)
        x = unit(13, 2 * n)
        y = unit(14, 2 * n)
        gap = local_law_gap(e, probe(e, z), x, y)
        assert gap <= local_law_bound(n, n, 2.0, 1.0, z)


class TestUPhiU:
    def test_deviation_small_for_haar(self):
        rng = np.random.default_rng(15)
        e = noise(16, n_rows=14, n_cols=9)
        u = haar_basis(rng, 14, 3)
        v = haar_basis(rng, 9, 3)
        u_lin = linearized_basis(u, v)
        base = min_abs_z(14, 9, 2.0)
        assert uphiu_deviation(probe(e, base), u_lin, 14, 9) < 1e-8

    def test_basis_of_wrong_height_rejected(self):
        rng = np.random.default_rng(15)
        e = noise(16, n_rows=14, n_cols=9)
        u_lin = linearized_basis(haar_basis(rng, 13, 2), haar_basis(rng, 9, 2))
        with pytest.raises(InvalidInputError, match=r"\(23\) x 2r"):
            uphiu_deviation(probe(e, 60.0), u_lin, 14, 9)

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
        sigma = 60.0
        z = solve_zj(np.zeros(5), 8, 5, sigma, 2.0)
        resid = (z - 5.0 / z) * (z - 8.0 / z) - sigma**2
        assert abs(resid) <= 1e-6 * sigma**2

    def test_bracket_on_event(self):
        e = noise(19, n_rows=30, n_cols=20)
        base = min_abs_z(30, 20, 2.0)
        chi = 1.0 + 1.0 / 8.0
        for mult in (1.5, 3.0, 10.0):
            sigma = mult * base
            z = solve_zj(gram_spectrum(e), 30, 20, sigma, 2.0)
            assert sigma <= z <= chi * sigma + 1e-9

    def test_residual_tolerance(self):
        e = noise(20, n_rows=25, n_cols=25)
        sigma = 3.0 * min_abs_z(25, 25, 2.0)
        z = solve_zj(gram_spectrum(e), 25, 25, sigma, 2.0)
        resid = abs(probe(e, z).varphi.real - sigma**2)
        assert resid <= 1e-8 * sigma**2

    def test_noise_reaching_domain_fails(self):
        # huge noise: spectrum swallows the probe domain
        e = 100.0 * np.random.default_rng(21).standard_normal((10, 10))
        with pytest.raises(NumericalFailureError):
            solve_zj(gram_spectrum(e), 10, 10, 500.0, 2.0)

    def test_bad_inputs(self):
        e = noise(22)
        with pytest.raises(InvalidInputError):
            solve_zj(gram_spectrum(e), *e.shape, -1.0, 2.0)
        with pytest.raises(InvalidInputError):
            solve_zj(gram_spectrum(e), *e.shape, 10.0, 1.0)

    @pytest.mark.parametrize("sigma_j, margin", [(100.0, float("nan")), (float("nan"), 2.0)])
    def test_nan_rejected_before_bisection(self, sigma_j, margin):
        e = noise(22)
        with pytest.raises(InvalidInputError, match="need sigma_j > 0"):
            solve_zj(gram_spectrum(e), *e.shape, sigma_j, margin)


class TestMinAbsZ:
    def test_value(self):
        assert min_abs_z(100, 64, 2.0) == pytest.approx(4.0 * 18.0)
        assert min_abs_z(9, 9, 3.0) == pytest.approx(36.0)
