import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svperturb.errors import InvalidInputError, InvalidParameterError
from svperturb.matcore import (
    FROBENIUS,
    MAX_ABS,
    NUCLEAR,
    OPERATOR,
    TWO_INF,
    NormSpec,
    SvdFactors,
    apply_norm,
    as_matrix,
    check_orthonormal,
    effective_rank,
    gauge,
    kyfan,
    leading_svd,
    norm_spec_from_token,
    orth_projector,
    schatten,
    singular_values,
    svd,
    wedin_certificate,
)
from svperturb.models import LowRankSpec, haar_basis, low_rank_from_rng

RNG = np.random.default_rng(20240814)


def random_matrix(n, m, seed):
    return np.random.default_rng(seed).standard_normal((n, m))


finite_vals = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=12,
)


class TestGauge:
    def test_empty_is_zero(self):
        assert gauge(np.array([]), OPERATOR) == 0.0
        assert gauge(np.array([0.0, 0.0]), NUCLEAR) == 0.0

    def test_operator_is_max_abs(self):
        v = np.array([3.0, -7.0, 2.0])
        assert gauge(v, OPERATOR) == 7.0

    def test_nuclear_is_abs_sum(self):
        v = np.array([1.0, -2.0, 3.0])
        assert gauge(v, NUCLEAR) == pytest.approx(6.0)

    def test_frobenius_is_l2(self):
        v = np.array([3.0, 4.0])
        assert gauge(v, FROBENIUS) == pytest.approx(5.0)

    def test_kyfan_partial_sum(self):
        v = np.array([5.0, 3.0, 1.0, 0.5])
        assert gauge(v, kyfan(2)) == pytest.approx(8.0)

    def test_schatten_interpolates(self):
        v = np.array([2.0, 1.0])
        assert gauge(v, schatten(3)) == pytest.approx((8.0 + 1.0) ** (1.0 / 3.0))

    @given(finite_vals)
    @settings(max_examples=60, deadline=None)
    def test_kyfan1_equals_operator(self, vals):
        v = np.asarray(vals)
        assert gauge(v, kyfan(1)) == pytest.approx(gauge(v, OPERATOR))

    @given(finite_vals)
    @settings(max_examples=60, deadline=None)
    def test_full_kyfan_equals_nuclear(self, vals):
        v = np.asarray(vals)
        assert gauge(v, kyfan(len(vals))) == pytest.approx(gauge(v, NUCLEAR))

    @given(finite_vals)
    @settings(max_examples=60, deadline=None)
    def test_schatten2_equals_frobenius(self, vals):
        v = np.asarray(vals)
        assert gauge(v, schatten(2)) == pytest.approx(gauge(v, FROBENIUS), abs=1e-9)

    @given(finite_vals)
    @settings(max_examples=60, deadline=None)
    def test_dominance_chain(self, vals):
        v = np.asarray(vals)
        op = gauge(v, OPERATOR)
        fro = gauge(v, FROBENIUS)
        nuc = gauge(v, NUCLEAR)
        tol = 1e-9 * max(1.0, nuc)
        assert op <= fro + tol
        assert fro <= nuc + tol

    @given(finite_vals, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneous(self, vals, c):
        v = np.asarray(vals)
        for spec in (OPERATOR, FROBENIUS, NUCLEAR, schatten(3), kyfan(2)):
            lhs = gauge(c * v, spec)
            rhs = c * gauge(v, spec)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_sign_and_order_invariant(self):
        v = np.array([1.0, -4.0, 2.5])
        w = np.array([4.0, 2.5, 1.0])
        for spec in (OPERATOR, FROBENIUS, NUCLEAR, schatten(1.5), kyfan(2)):
            assert gauge(v, spec) == pytest.approx(gauge(w, spec))

    def test_large_values_no_overflow(self):
        v = np.array([1e200, 5e199])
        assert np.isfinite(gauge(v, schatten(4)))


class TestNormSpec:
    def test_schatten_needs_p_at_least_one(self):
        with pytest.raises(InvalidParameterError):
            schatten(0.5)

    def test_kyfan_needs_positive_int(self):
        with pytest.raises(InvalidParameterError):
            kyfan(0)
        with pytest.raises(InvalidParameterError):
            NormSpec("kyfan", k=-2)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            NormSpec("spectralish")

    def test_invariant_flags(self):
        assert OPERATOR.invariant
        assert FROBENIUS.invariant
        assert NUCLEAR.invariant
        assert schatten(3).invariant
        assert kyfan(2).invariant
        assert not TWO_INF.invariant
        assert not MAX_ABS.invariant

    def test_labels(self):
        assert OPERATOR.label == "operator"
        assert kyfan(3).label == "kyfan3"
        assert schatten(2).label == "schatten2"

    def test_token_roundtrip(self):
        for tok in ("operator", "frobenius", "nuclear", "kyfan4", "schatten2.5", "two_inf", "max"):
            spec = norm_spec_from_token(tok)
            assert spec.label == tok

    def test_bad_token(self):
        with pytest.raises(InvalidParameterError):
            norm_spec_from_token("kyfan")
        with pytest.raises(InvalidParameterError):
            norm_spec_from_token("elephant")


class TestApplyNorm:
    def test_matches_numpy_on_random(self):
        a = random_matrix(9, 6, 1)
        assert apply_norm(a, OPERATOR) == pytest.approx(np.linalg.norm(a, 2))
        assert apply_norm(a, FROBENIUS) == pytest.approx(np.linalg.norm(a, "fro"))
        assert apply_norm(a, NUCLEAR) == pytest.approx(np.linalg.norm(a, "nuc"))

    def test_two_inf_is_max_row_length(self):
        a = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert apply_norm(a, TWO_INF) == pytest.approx(5.0)

    def test_max_abs_entry(self):
        a = np.array([[1.0, -9.0], [2.0, 3.0]])
        assert apply_norm(a, MAX_ABS) == 9.0

    def test_kyfan_beyond_rank_rejected(self):
        a = random_matrix(4, 3, 2)
        with pytest.raises(InvalidParameterError):
            apply_norm(a, kyfan(4))

    def test_unitary_invariance(self):
        a = random_matrix(8, 5, 3)
        q1, _ = np.linalg.qr(random_matrix(8, 8, 4))
        q2, _ = np.linalg.qr(random_matrix(5, 5, 5))
        for spec in (OPERATOR, FROBENIUS, NUCLEAR, schatten(3), kyfan(2)):
            assert apply_norm(q1 @ a @ q2, spec) == pytest.approx(
                apply_norm(a, spec), rel=1e-9
            )

    def test_two_inf_not_left_invariant(self):
        a = np.zeros((3, 2))
        a[0, 0] = 1.0
        q = np.array(
            [
                [1 / np.sqrt(3), -np.sqrt(2.0 / 3.0), 0.0],
                [1 / np.sqrt(3), 1 / np.sqrt(6), -1 / np.sqrt(2)],
                [1 / np.sqrt(3), 1 / np.sqrt(6), 1 / np.sqrt(2)],
            ]
        )
        assert apply_norm(q @ a, TWO_INF) != pytest.approx(apply_norm(a, TWO_INF))

    def test_submultiplicative_sandwich(self):
        a = random_matrix(6, 6, 6)
        b = random_matrix(6, 6, 7)
        for spec in (FROBENIUS, NUCLEAR, schatten(3), kyfan(2)):
            lhs = apply_norm(a @ b, spec)
            assert lhs <= apply_norm(a, OPERATOR) * apply_norm(b, spec) + 1e-9
            assert lhs <= apply_norm(a, spec) * apply_norm(b, OPERATOR) + 1e-9


class TestSvd:
    def test_reconstruction_and_orthonormality(self):
        a = random_matrix(7, 5, 8)
        fac = svd(a)
        fac.validate(a)  # raises on failure
        assert np.allclose(fac.left @ np.diag(fac.singulars) @ fac.right.T, a)

    def test_descending_order(self):
        fac = svd(random_matrix(10, 4, 9))
        assert np.all(np.diff(fac.singulars) <= 1e-12)

    def test_sign_convention_deterministic(self):
        a = random_matrix(6, 6, 10)
        f1 = svd(a)
        f2 = svd(a.copy())
        assert np.array_equal(f1.left, f2.left)
        first_rows = f1.left[np.argmax(np.abs(f1.left) > 1e-12, axis=0), np.arange(6)]
        assert np.all(first_rows >= 0)

    def test_matches_known_diagonal(self):
        a = np.diag([3.0, 2.0, 1.0])
        fac = svd(a)
        assert np.allclose(fac.singulars, [3.0, 2.0, 1.0])

    def test_singular_values_shortcut(self):
        a = random_matrix(5, 8, 11)
        assert np.allclose(singular_values(a), svd(a).singulars)

    def test_rejects_nonfinite(self):
        a = np.ones((3, 3))
        a[1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            svd(a)

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.ones(4))

    def test_factor_shape_mismatch_rejected(self):
        fac = svd(random_matrix(5, 4, 12))
        with pytest.raises(InvalidInputError):
            SvdFactors(fac.left[:, :2], fac.singulars, fac.right)

    def test_ascending_singulars_rejected(self):
        fac = svd(random_matrix(5, 4, 13))
        with pytest.raises(InvalidInputError):
            SvdFactors(fac.left, fac.singulars[::-1].copy(), fac.right)


class TestEffectiveRank:
    def test_exact_rank(self):
        u = np.linalg.qr(random_matrix(8, 3, 14))[0]
        v = np.linalg.qr(random_matrix(6, 3, 15))[0]
        a = u @ np.diag([5.0, 2.0, 1.0]) @ v.T
        assert effective_rank(svd(a), 1e-10) == 3

    def test_zero_matrix(self):
        assert effective_rank(svd(np.zeros((4, 4))), 1e-10) == 0

    def test_threshold_is_relative(self):
        a = np.diag([1.0, 1e-12])
        assert effective_rank(svd(a), 1e-10) == 1
        assert effective_rank(svd(a), 1e-14) == 2

    def test_negative_tol_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_rank(svd(np.eye(3)), -1.0)


class TestOrthonormal:
    def test_projector(self):
        b = np.linalg.qr(random_matrix(9, 4, 16))[0]
        p = orth_projector(b)
        assert np.allclose(p @ p, p)
        assert np.allclose(p @ b, b)

    def test_check_rejects_skew(self):
        b = np.linalg.qr(random_matrix(9, 4, 17))[0]
        b = b + 1e-3
        with pytest.raises(InvalidInputError):
            check_orthonormal(b)


@st.composite
def low_rank_plus_noise(draw):
    """A shape, a leading spectrum (ties allowed) and a noise level."""
    n_rows = draw(st.integers(2, 40))
    n_cols = draw(st.integers(2, 40))
    k = draw(st.integers(1, min(n_rows, n_cols)))
    lead = draw(st.lists(st.floats(1.0, 1e6), min_size=k, max_size=k))
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.sort(lead)[::-1]
    a = (haar_basis(rng, n_rows, k) * s) @ haar_basis(rng, n_cols, k).T
    return a + noise * rng.standard_normal(a.shape), k


def _sin(x, y):
    """Sine of the angle between unit vectors x and y."""
    return float(np.linalg.norm(y - (x @ y) * x))


def _lapack_top(a, k):
    full = svd(a)
    return full.left[:, :k], full.singulars[:k], full.right[:, :k]


class TestLeadingSvd:
    @given(low_rank_plus_noise())
    @settings(max_examples=80, deadline=None)
    def test_certified_columns_lie_within_their_bound_of_lapack(self, case):
        a, k = case
        got = leading_svd(a, k)
        check_orthonormal(got.left, 1e-10)
        check_orthonormal(got.right, 1e-10)
        bounds = wedin_certificate(a, got)
        left, values, right = _lapack_top(a, k)
        if bounds is None:
            assert np.array_equal(got.left, left) and np.array_equal(got.right, right)
            return
        # LAPACK's own round-off is far below any certified bound
        slack = 1e-9
        for i in range(k):
            assert _sin(got.left[:, i], left[:, i]) <= bounds[i] + slack
            assert _sin(got.right[:, i], right[:, i]) <= bounds[i] + slack
        assert np.allclose(got.singulars, values, rtol=1e-9, atol=1e-9 * values[0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_weak_gap_returns_lapack_truncation(self, seed):
        # the command-line model: sigma_3 = 20 against a noise edge near 17
        rng = np.random.default_rng(seed)
        a, fac = low_rank_from_rng(LowRankSpec(80, 60, (40.0, 30.0, 20.0)), rng)
        observed = a + rng.standard_normal((80, 60))
        got = leading_svd(observed, 3, start=fac.right)
        left, values, right = _lapack_top(observed, 3)
        assert np.array_equal(got.left, left)
        assert np.array_equal(got.singulars, values)
        assert np.array_equal(got.right, right)
        with_spectrum = leading_svd(observed, 3, start=fac.right, spectrum=True)
        assert np.array_equal(with_spectrum.singulars, svd(observed).singulars)

    @given(low_rank_plus_noise())
    @settings(max_examples=30, deadline=None)
    def test_repeat_calls_are_byte_identical(self, case):
        a, k = case
        one, two = leading_svd(a, k), leading_svd(a, k)
        for x, y in ((one.left, two.left), (one.singulars, two.singulars), (one.right, two.right)):
            assert x.tobytes() == y.tobytes()

    def test_leaves_generators_untouched(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((30, 20))
        a[:, 0] *= 1e4
        state = rng.bit_generator.state
        legacy = np.random.get_state()
        leading_svd(a, 2)
        assert rng.bit_generator.state == state
        after = np.random.get_state()
        assert after[0] == legacy[0] and np.array_equal(after[1], legacy[1])

    @pytest.mark.parametrize("noise", [0.0, 1e-3, 1.0])
    def test_tied_signal_singulars_factorize(self, noise):
        rng = np.random.default_rng(32)
        a = (haar_basis(rng, 60, 3) * 1e4) @ haar_basis(rng, 50, 3).T
        a = a + noise * rng.standard_normal(a.shape)
        got = leading_svd(a, 3)
        check_orthonormal(got.left, 1e-10)
        check_orthonormal(got.right, 1e-10)
        scale = float(np.linalg.norm(a, 2))
        assert np.linalg.norm(a @ got.right - got.left * got.singulars) <= 1e-9 * scale
        assert np.linalg.norm(a.T @ got.left - got.right * got.singulars) <= 1e-9 * scale
        left = svd(a).left[:, :3]
        assert np.linalg.norm(left - got.left @ (got.left.T @ left)) <= 1e-9

    def test_spectrum_keeps_every_value(self):
        rng = np.random.default_rng(33)
        a = (haar_basis(rng, 50, 2) * np.array([1e4, 5e3])) @ haar_basis(rng, 40, 2).T
        a = a + rng.standard_normal(a.shape)
        got = leading_svd(a, 2, spectrum=True)
        assert got.vector_count == 2
        assert np.allclose(got.singulars, singular_values(a), rtol=1e-12)
        assert wedin_certificate(a, got) is not None

    def test_rejects_bad_arguments(self):
        a = random_matrix(6, 4, 34)
        with pytest.raises(InvalidParameterError):
            leading_svd(a, 5)
        with pytest.raises(InvalidParameterError):
            leading_svd(a, 0)
        with pytest.raises(InvalidInputError):
            leading_svd(a, 2, start=np.ones((4, 3)))
