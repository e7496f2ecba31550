import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svperturb.errors import InvalidInputError, InvalidParameterError, NumericalFailureError
from svperturb import matcore
from svperturb.matcore import (
    FROBENIUS,
    NUCLEAR,
    OPERATOR,
    TOP_DENSE_MAX,
    NormSpec,
    SvdFactors,
    apply_norm,
    as_matrix,
    check_orthonormal,
    gauge,
    gram_spectrum,
    gram_top,
    kyfan,
    leading_svd,
    norm_spec_from_token,
    schatten,
    singular_values,
    svd,
    wedin_certificate,
)
from svperturb.models import LowRankSpec, haar_basis, low_rank_from_rng, perturb

RNG = np.random.default_rng(20240814)
DATA = Path(__file__).parent / "data"
EPS = np.finfo(float).eps


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
        # every kind is unitarily invariant: l2,inf and max are not kinds
        for kind in ("two_inf", "max"):
            with pytest.raises(InvalidParameterError):
                NormSpec(kind)
            with pytest.raises(InvalidParameterError):
                norm_spec_from_token(kind)

    def test_labels(self):
        assert OPERATOR.label == "operator"
        assert kyfan(3).label == "kyfan3"
        assert schatten(2).label == "schatten2"

    def test_token_roundtrip(self):
        for tok in ("operator", "frobenius", "nuclear", "kyfan4", "schatten2.5"):
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
        check_orthonormal(fac.left, 1e-10)
        check_orthonormal(fac.right, 1e-10)
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


class TestOrthonormal:
    def test_projector(self):
        b = np.linalg.qr(random_matrix(9, 4, 16))[0]
        p = check_orthonormal(b) @ b.T
        assert np.allclose(p @ p, p)
        assert np.allclose(p @ b, b)

    def test_check_rejects_skew(self):
        b = np.linalg.qr(random_matrix(9, 4, 17))[0]
        b = b + 1e-3
        with pytest.raises(InvalidInputError):
            check_orthonormal(b)


def _planted_factors(draw, n_rows, n_cols):
    """Thin factors of a leading spectrum (ties allowed), and a noise draw at
    a drawn level for the shape."""
    k = draw(st.integers(1, min(n_rows, n_cols)))
    lead = draw(st.lists(st.floats(1.0, 1e6), min_size=k, max_size=k))
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.sort(lead)[::-1]
    factors = SvdFactors(haar_basis(rng, n_rows, k), s, haar_basis(rng, n_cols, k))
    return factors, noise * rng.standard_normal((n_rows, n_cols))


def _product(factors, noise):
    """The factors' product plus the noise: the observed matrix of an instance."""
    return (factors.left * factors.singulars) @ factors.right.T + noise


def _planted(draw, n_rows, n_cols):
    """A planted low-rank matrix plus noise, and its rank."""
    factors, noise = _planted_factors(draw, n_rows, n_cols)
    return _product(factors, noise), factors.vector_count


@st.composite
def low_rank_plus_noise(draw):
    """A shape, a leading spectrum (ties allowed) and a noise level."""
    return _planted(draw, draw(st.integers(2, 40)), draw(st.integers(2, 40)))


def _sin(x, y):
    """Sine of the angle between unit vectors x and y."""
    return float(np.linalg.norm(y - (x @ y) * x))


def _lapack_top(a, k):
    full = svd(a)
    return full.left[:, :k], full.singulars[:k], full.right[:, :k]


def _lapack_vector_error(a, values):
    """LAPACK's documented bound on the sine between its i-th computed
    singular vector and the exact one: p(N, n) * eps * sigma_1 / gap_i, with
    gap_i the distance from sigma_i to every other singular value (to 0 as
    well when N != n). LAPACK leaves p a modestly growing function; 4 max(N,
    n) covered the worst of 8,354 near-tied columns up to 15 x 15 measured
    against a 40-digit reference (22.5 eps sigma_1 / gap at 7 x 10)."""
    err = np.empty(values.size)
    for i, s in enumerate(values):
        others = np.abs(np.delete(values, i) - s)
        if a.shape[0] != a.shape[1]:
            others = np.append(others, s)
        gap = others.min() if others.size else np.inf
        err[i] = 4.0 * max(a.shape) * EPS * values[0] / gap if gap > 0 else np.inf
    return err


def _observed(factors, noise):
    """The observed matrix of ``perturb(factors, noise)``, the leading pairs
    the instance holds and its observed spectrum."""
    inst = perturb(factors, noise)
    return _product(factors, noise), inst.svd_observed, inst.observed_spectrum


def _mp_svd(a, digits=50):
    """Singular triplets of `a` from mpmath at `digits` decimal digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        u, s, v = mpmath.svd_r(mpmath.matrix(a.tolist()), full_matrices=False)
        u = np.array(u.tolist(), dtype=float)
        s = np.array([float(x) for x in s])
        v = np.array(v.tolist(), dtype=float).T
    order = np.argsort(-s)
    return u[:, order], s[order], v[:, order]


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
            # the fallback: LAPACK's vectors cut to k, with all of its values
            assert np.array_equal(got.left, left) and np.array_equal(got.right, right)
            assert np.array_equal(got.singulars, svd(a).singulars)
            return
        # by the triangle inequality through the exact vectors: the certified
        # bound plus LAPACK's own vector error, which near a tie is of the
        # same order as the bound
        lapack = _lapack_vector_error(a, singular_values(a))
        slack = 1e-9
        for i in range(k):
            assert _sin(got.left[:, i], left[:, i]) <= bounds[i] + lapack[i] + slack
            assert _sin(got.right[:, i], right[:, i]) <= bounds[i] + lapack[i] + slack
        # k Ritz values, or all min(N, n) after a fallback the certificate also holds for
        assert got.singulars.size in (k, min(a.shape))
        assert np.allclose(got.singulars[:k], values, rtol=1e-9, atol=1e-9 * values[0])

    def test_near_tie_certified_columns_against_a_50_digit_reference(self):
        # 10 x 10 with sigma_2 - sigma_3 = 0.016 at sigma_1 = 7.1e5, found by
        # the property above: LAPACK's second vectors are 1.9e-7 from the
        # reference, the certified ones 7.5e-9, inside their bound of 2.7e-8
        doc = json.loads((DATA / "leading_svd_near_tie.json").read_text())
        a, k = np.array(doc["a"]), doc["k"]
        got = leading_svd(a, k)
        bounds = wedin_certificate(a, got)
        assert bounds is not None
        exact_left, exact_values, exact_right = _mp_svd(a)
        full = svd(a)
        lapack = _lapack_vector_error(a, full.singulars)
        for i in range(k):
            assert _sin(got.left[:, i], exact_left[:, i]) <= bounds[i]
            assert _sin(got.right[:, i], exact_right[:, i]) <= bounds[i]
            assert _sin(full.left[:, i], exact_left[:, i]) <= lapack[i]
            assert _sin(full.right[:, i], exact_right[:, i]) <= lapack[i]
            assert _sin(got.left[:, i], full.left[:, i]) <= bounds[i] + lapack[i]
            assert _sin(got.right[:, i], full.right[:, i]) <= bounds[i] + lapack[i]
        assert np.allclose(got.singulars, exact_values[:k], rtol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_weak_gap_returns_lapack_truncation(self, seed):
        # the command-line model: sigma_3 = 20 against a noise edge near 17
        rng = np.random.default_rng(seed)
        fac = low_rank_from_rng(LowRankSpec(80, 60, (40.0, 30.0, 20.0)), rng)
        observed = (fac.left * fac.singulars) @ fac.right.T + rng.standard_normal((80, 60))
        got = leading_svd(observed, 3, start=fac.right)
        left, _, right = _lapack_top(observed, 3)
        assert np.array_equal(got.left, left)
        assert np.array_equal(got.singulars, svd(observed).singulars)
        assert np.array_equal(got.right, right)

    @pytest.mark.parametrize("seed", range(8))
    def test_weak_gap_exits_after_the_first_product(self, seed, monkeypatch):
        # on the command-line model the first basis already leaves a residual
        # above the third Ritz value: LAPACK answers, with no further round
        # and no certificate
        rng = np.random.default_rng(seed)
        fac = low_rank_from_rng(LowRankSpec(80, 60, (40.0, 30.0, 20.0)), rng)
        observed = (fac.left * fac.singulars) @ fac.right.T + rng.standard_normal((80, 60))
        qr, bases = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda x: bases.append(x.shape) or qr(x))
        monkeypatch.setattr(matcore, "_wedin", lambda a, factors: pytest.fail("certified"))
        got = leading_svd(observed, 3, start=fac.right)
        # the first product's basis, then the next product, read and left
        assert bases == [(80, 3), (60, 3)]
        full = svd(observed)
        assert np.array_equal(got.left, full.left[:, :3])
        assert np.array_equal(got.singulars, full.singulars)
        assert np.array_equal(got.right, full.right[:, :3])

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
        s = got.singulars[:3]  # a fallback holds all 50 values
        assert np.linalg.norm(a @ got.right - got.left * s) <= 1e-9 * scale
        assert np.linalg.norm(a.T @ got.left - got.right * s) <= 1e-9 * scale
        left = svd(a).left[:, :3]
        assert np.linalg.norm(left - got.left @ (got.left.T @ left)) <= 1e-9

    def test_spectrum_keeps_every_value(self):
        rng = np.random.default_rng(33)
        factors = SvdFactors(haar_basis(rng, 50, 2), np.array([1e4, 5e3]), haar_basis(rng, 40, 2))
        a, got, spectrum = _observed(factors, rng.standard_normal((50, 40)))
        assert got.vector_count == got.singulars.size == 2
        assert np.allclose(spectrum, singular_values(a), rtol=1e-12)
        assert wedin_certificate(a, got) is not None

    def test_rejects_bad_arguments(self):
        a = random_matrix(6, 4, 34)
        with pytest.raises(InvalidParameterError):
            leading_svd(a, 5)
        with pytest.raises(InvalidParameterError):
            leading_svd(a, 0)
        with pytest.raises(InvalidInputError):
            leading_svd(a, 2, start=np.ones((4, 3)))


def _gram_error(ref, scale, dims):
    """gram_spectrum's stated error against exact values `ref`: eigenvalues
    within about eps * scale^2 (a dimension factor for the syrk and
    eigensolver sums), so sqrt moves each value by at most that over the
    value and by at most its square root near 0."""
    delta = 2.0 * max(dims) * EPS * scale**2
    return np.minimum(delta / np.maximum(ref, np.finfo(float).tiny), np.sqrt(delta))


@st.composite
def graded_matrix(draw):
    """A tall, wide or square matrix of possibly short rank, its spectrum
    graded over up to eight decades, at an overall scale in 1e-100..1e100."""
    n_rows = draw(st.integers(1, 40))
    n_cols = draw(st.integers(1, 40))
    rank = draw(st.integers(1, min(n_rows, n_cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grade = 10.0 ** rng.uniform(-draw(st.sampled_from([0.0, 3.0, 8.0])), 0.0, size=rank)
    a = (rng.standard_normal((n_rows, rank)) * grade) @ rng.standard_normal((rank, n_cols))
    return a * 10.0 ** draw(st.integers(-100, 100))


class TestGramSpectrum:
    @given(graded_matrix())
    @settings(max_examples=150, deadline=None)
    def test_within_stated_error_of_lapack(self, a):
        got = gram_spectrum(a)
        ref = singular_values(a)
        assert got.shape == ref.shape
        assert np.all(np.diff(got) <= 0) and np.all(got >= 0)
        scale = float(ref[0])
        lapack = 4.0 * max(a.shape) * EPS * scale
        assert np.all(np.abs(got - ref) <= _gram_error(ref, scale, a.shape) + lapack)

    @given(graded_matrix())
    @settings(max_examples=30, deadline=None)
    def test_repeat_calls_are_byte_identical(self, a):
        assert gram_spectrum(a).tobytes() == gram_spectrum(a).tobytes()

    def test_uses_the_smaller_gram_matrix(self):
        a = random_matrix(3, 7, 41)
        assert gram_spectrum(a).shape == (3,)
        assert gram_spectrum(a.T).shape == (3,)
        assert np.allclose(gram_spectrum(a), gram_spectrum(a.T), rtol=1e-13)

    def test_rounding_negatives_clip_to_zero(self):
        # rank 1: the Gram matrix has four eigenvalues at rounding level
        a = np.outer(np.arange(1.0, 6.0), np.linspace(-1.0, 2.0, 5))
        got = gram_spectrum(a)
        assert np.all(got >= 0.0)
        assert got[0] == pytest.approx(singular_values(a)[0], rel=1e-13)

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.ones((4, 3))
            a[2, 1] = bad
            with pytest.raises(InvalidInputError):
                gram_spectrum(a)

    def test_eigensolver_failure_is_numerical(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalFailureError):
            gram_spectrum(random_matrix(5, 4, 42))


def _eigvalsh_top(a) -> float:
    g = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.sqrt(np.linalg.eigvalsh(g)[-1]))


def _with_values(values, n_rows, n_cols, seed):
    """An N x n matrix with the given singular values and Haar factors."""
    rng = np.random.default_rng(seed)
    u = haar_basis(rng, n_rows, len(values))
    return (u * np.asarray(values)) @ haar_basis(rng, n_cols, len(values)).T


class TestGramTop:
    above = TOP_DENSE_MAX + 20

    @pytest.mark.parametrize(
        "shape", [(420, 560), (560, 420), (450, 450)], ids=["wide", "tall", "square"]
    )
    def test_certified_top_matches_eigvalsh(self, shape):
        a = random_matrix(*shape, sum(shape))
        top = gram_top(a)
        assert top.spectrum is None  # the certified path, not the dense fallback
        want = _eigvalsh_top(a)
        assert top.value == pytest.approx(want, rel=1e-13)
        assert top.value <= top.bound <= top.value * (1.0 + 1e-9)
        g = a @ a.T if shape[0] <= shape[1] else a.T @ a
        assert top.trace == pytest.approx(np.trace(g), rel=1e-13)
        assert top.trace_sq == pytest.approx(np.sum(g * g), rel=1e-13)

    def test_tied_top_values(self):
        values = np.concatenate(([10.0, 10.0, 10.0], np.linspace(5.0, 0.1, self.above - 3)))
        a = _with_values(values, self.above, self.above + 30, 71)
        top = gram_top(a)
        assert top.spectrum is None
        assert top.value == pytest.approx(10.0, rel=1e-13)
        assert top.value == pytest.approx(_eigvalsh_top(a), rel=1e-13)

    @pytest.mark.parametrize("shape", [(5, 7), (TOP_DENSE_MAX + 1, TOP_DENSE_MAX + 9)])
    def test_zero_matrix(self, shape):
        top = gram_top(np.zeros(shape))
        assert (top.value, top.bound, top.trace, top.trace_sq) == (0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(top.spectrum, np.zeros(min(shape)))

    def test_leaves_the_matrix_unmodified(self):
        a = random_matrix(self.above, self.above + 10, 72)
        a0 = a.copy()
        gram_top(a)
        gram_top(a.T)
        assert np.array_equal(a, a0)

    @pytest.mark.parametrize("path", ["certified", "rejected", "dense"])
    def test_gram_comes_back_as_found(self, path, monkeypatch):
        # the certificate works in the caller's array and restores it bit for
        # bit, also when the Cholesky fails and the dense fallback reads it
        m = TOP_DENSE_MAX if path == "dense" else self.above
        a = random_matrix(m, m + 10, 84)
        g = a @ a.T
        before = g.tobytes()
        if path == "rejected":
            ritz = (0.5 * _eigvalsh_top(a) ** 2, np.ones(m) / np.sqrt(m))
            monkeypatch.setattr(matcore, "_lanczos_top", lambda g, start: ritz)
        top = matcore.top_of_gram(g)
        assert (top.spectrum is None) == (path == "certified")
        assert g.tobytes() == before
        if path != "certified":
            assert top.spectrum.tobytes() == gram_spectrum(a).tobytes()

    def test_ritz_vector_and_warm_start(self):
        a = random_matrix(self.above, self.above + 10, 74)
        top = gram_top(a)
        g = a @ a.T
        assert np.linalg.norm(top.vector) == pytest.approx(1.0, rel=1e-12)
        residual = np.linalg.norm(g @ top.vector - top.value**2 * top.vector)
        assert residual <= 1e-8 * top.value**2
        # from a start near the top vector the same value is certified
        warm = matcore.top_of_gram(a @ a.T, top.vector + 1e-3 * a[:, 0])
        assert warm.spectrum is None
        assert warm.value == pytest.approx(top.value, rel=1e-14)
        assert gram_top(np.eye(4)).vector is None  # the dense path holds no vector

    def test_start_vector_in_an_invariant_subspace(self):
        # the fixed start vector is a left singular vector of a, for its
        # smallest value: its Krylov space is invariant up to rounding, which
        # must never yield that value as the top
        m = self.above
        start = np.random.default_rng(matcore._START_SEED).standard_normal(m)
        values = np.concatenate(([3.0], np.linspace(2.0, 1.5, m - 2), [1.0]))
        u = np.linalg.qr(np.column_stack((start, random_matrix(m, m - 1, 76))))[0]
        a = (u[:, np.r_[1:m, 0]] * values) @ haar_basis(np.random.default_rng(77), m, m).T
        top = gram_top(a)
        assert top.value == pytest.approx(3.0, rel=1e-13)
        assert top.value == pytest.approx(_eigvalsh_top(a), rel=1e-13)
        assert top.bound >= top.value

    def test_rejected_ritz_value_falls_back(self, monkeypatch):
        a = random_matrix(self.above, self.above, 78)
        true_top = _eigvalsh_top(a)
        ritz = (0.5 * true_top**2, np.ones(self.above) / np.sqrt(self.above))
        monkeypatch.setattr(matcore, "_lanczos_top", lambda g, start: ritz)
        top = gram_top(a)
        assert top.spectrum is not None
        assert top.spectrum.tobytes() == gram_spectrum(a).tobytes()
        assert top.value == top.bound == float(top.spectrum[0])

    def test_unconverged_lanczos_falls_back(self, monkeypatch):
        a = random_matrix(self.above, self.above, 79)
        monkeypatch.setattr(matcore, "TOP_STEPS", 4)
        top = gram_top(a)
        assert top.spectrum is not None
        assert top.value == float(gram_spectrum(a)[0])

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_far_scales_fall_back_without_warnings(self, scale):
        # the Gram's squares leave the float range: the dense path serves
        a = scale * random_matrix(self.above, self.above + 10, 82)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = gram_top(a)
        assert top.spectrum is not None
        assert top.value == float(gram_spectrum(a)[0])

    @pytest.mark.parametrize("shape", [(80, 60), (60, 80), (TOP_DENSE_MAX, TOP_DENSE_MAX)])
    def test_below_the_crossover_is_gram_spectrum(self, shape):
        e = random_matrix(*shape, 80)
        top = gram_top(e)
        want = gram_spectrum(e)
        assert top.spectrum.tobytes() == want.tobytes()
        assert top.value == float(want[0]) and top.bound == top.value


@st.composite
def shaped_low_rank_plus_noise(draw):
    """The factors and noise of low_rank_plus_noise, with the shape drawn
    tall, wide or square."""
    form = draw(st.sampled_from(["tall", "wide", "square"]))
    small = draw(st.integers(2, 30))
    large = small if form == "square" else draw(st.integers(small + 1, 45))
    return _planted_factors(draw, *((large, small) if form == "tall" else (small, large)))


class TestLeadingSpectrum:
    @given(shaped_low_rank_plus_noise())
    @settings(max_examples=100, deadline=None)
    def test_merged_values_lie_within_two_eta_of_lapack(self, case):
        a, got, spectrum = _observed(*case)
        k = got.vector_count
        ref = singular_values(a)
        assert spectrum.shape == ref.shape
        assert np.all(np.diff(spectrum) <= 0)
        if wedin_certificate(a, got) is None:
            assert np.array_equal(spectrum, svd(a).singulars)
            return
        u, s, v = got.left, got.singulars[:k], got.right
        eta = np.linalg.norm(a @ v - u * s) + np.linalg.norm(a.T @ u - v * s)
        tau = np.linalg.norm(a - (u * s) @ v.T)
        # forming the observed matrix and LAPACK's own values each round at
        # eps * sigma_1; the remainder's Gram rounds at the scale tau
        rounding = 8.0 * max(a.shape) * EPS * ref[0]
        gram = np.concatenate((np.zeros(k), _gram_error(ref[k:], tau, a.shape)))
        assert np.all(np.abs(spectrum - ref) <= 2.0 * eta + rounding + gram)

    @given(shaped_low_rank_plus_noise())
    @settings(max_examples=40, deadline=None)
    def test_ritz_values_come_first_unchanged(self, case):
        a, got, spectrum = _observed(*case)
        k, held = got.vector_count, got.singulars.size
        assert held in (k, min(a.shape))
        assert spectrum[:held].tobytes() == got.singulars.tobytes()
        if held == k:  # certified: the trailing values come from the remainder's Gram
            gram = perturb(*case).remainder_gram()
            assert spectrum[k:].tobytes() == matcore._gram_values(gram)[: min(a.shape) - k].tobytes()

    @given(shaped_low_rank_plus_noise())
    @settings(max_examples=30, deadline=None)
    def test_repeat_calls_are_byte_identical(self, case):
        assert _observed(*case)[2].tobytes() == _observed(*case)[2].tobytes()

    def test_rejects_nonfinite(self):
        a = random_matrix(8, 6, 43)
        a[3, 2] = np.nan
        with pytest.raises(InvalidInputError):
            leading_svd(a, 2)


def _public_entries():
    """Each public function that takes a matrix, called with `a` (12 x 9) in
    that place; bases are its first two columns."""
    from svperturb import (
        KMeansConfig,
        aligned_distance,
        embedding_gap,
        kmeans,
        local_law_gap,
        perturb,
        phi_values,
        principal_angles,
        procrustes_align,
        residual,
        resolvent_bilinear,
        sin_theta_norm,
        spectral_embedding,
        spectral_submatrix,
    )

    q = haar_basis(np.random.default_rng(90), 12, 2)
    factors = low_rank_from_rng(LowRankSpec(12, 9, (3.0,)), np.random.default_rng(91))
    probe = phi_values(np.ones(9), 12, 9, 20.0)
    ones = np.ones(21) / np.sqrt(21.0)
    return {
        "svd": svd,
        "singular_values": singular_values,
        "gram_spectrum": gram_spectrum,
        "gram_top": gram_top,
        "leading_svd": lambda a: leading_svd(a, 2),
        "wedin_certificate": lambda a: wedin_certificate(a, svd(random_matrix(12, 9, 92))),
        "apply_norm": lambda a: apply_norm(a, FROBENIUS),
        "perturb": lambda a: perturb(factors, a),
        "principal_angles": lambda a: principal_angles(a[:, :2], q),
        "procrustes_align": lambda a: procrustes_align(q, a[:, :2]),
        "residual": lambda a: residual(q, a[:, :2]),
        "sin_theta_norm": lambda a: sin_theta_norm(a[:, :2], q, OPERATOR),
        "aligned_distance": lambda a: aligned_distance(q, a[:, :2], OPERATOR),
        "resolvent_bilinear": lambda a: resolvent_bilinear(a, 20.0, ones, ones),
        "local_law_gap": lambda a: local_law_gap(a, probe, ones, ones),
        "kmeans": lambda a: kmeans(a, KMeansConfig(k=2)),
        "spectral_embedding": lambda a: spectral_embedding(a, 2),
        "spectral_submatrix": lambda a: spectral_submatrix(a, 1),
        "embedding_gap": lambda a: embedding_gap(a[2:4], np.ones((2, 9))),
    }


class TestPublicEntriesValidate:
    # internal calls skip re-validating the program's own arrays; every public
    # entry point still rejects a non-finite matrix
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", sorted(_public_entries()))
    def test_rejects_nonfinite(self, name, bad):
        a = random_matrix(12, 9, 93)
        a[3, 1] = bad
        with pytest.raises(InvalidInputError):
            _public_entries()[name](a)
