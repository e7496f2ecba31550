import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svperturb.bounds import (
    ALL_OK,
    VIOLATION_SLACK,
    BoundReport,
    GaussianBoundParams,
    GeneralNoiseParams,
    PreconditionFlags,
    aligned_2inf_bound,
    cross_term_norm,
    gauss_subspace_bound,
    gauss_subspace_simplified,
    gauss_sv_location_check,
    general_subspace_bound,
    general_sv_bounds,
    linear_bilinear_bound,
    matrix_2inf_bound,
    mirsky_check,
    probability_floor,
    spectral_norm_report,
    two_inf_bound,
    vector_inf_bound,
    wedin_check,
    weighted_corollary_bound,
    weighted_window_bound,
    window_2inf_residual,
    window_residual,
    window_sin_theta,
    window_weighted_residual,
)
from svperturb.errors import EvaluationDomainError, InvalidInputError, InvalidParameterError
from svperturb.matcore import (
    FROBENIUS,
    NUCLEAR,
    OPERATOR,
    NormSpec,
    SvdFactors,
    gauge,
    gram_spectrum,
    kyfan,
    schatten,
    singular_values,
    svd,
)
from svperturb.models import (
    LowRankSpec,
    PerturbationInstance,
    low_rank_from_rng,
    perturb,
)
from svperturb import models, subspace
from svperturb.resolvent import phi_values
from svperturb.subspace import procrustes_align, row_mass, sin_theta_norm


def make_instance(seed, n_rows=40, n_cols=30, singulars=(20.0, 12.0, 6.0), scale=1.0):
    spec = LowRankSpec(n_rows, n_cols, singulars)
    fac = low_rank_from_rng(spec, np.random.default_rng(seed))
    e = scale * np.random.default_rng(seed + 10_000).standard_normal((n_rows, n_cols))
    return perturb(fac, e)


def strong_params(n=600, singulars=(2.0e5, 1.2e5)):
    return GaussianBoundParams(
        n_rows=n, n_cols=n, singulars=singulars, k_lo=1, k_hi=1, margin=2.0, tail=1.0
    )


def strong_instance(seed, n=600, singulars=(2.0e5, 1.2e5)):
    fac = low_rank_from_rng(LowRankSpec(n, n, singulars), np.random.default_rng(seed))
    e = np.random.default_rng(seed + 77).standard_normal((n, n))
    return perturb(fac, e)


class TestBoundReport:
    def test_violated_uses_relative_slack(self):
        rep = BoundReport("x", 1.0, 0.9, ALL_OK, 1.0 + 5e-10)
        assert rep.violated is False
        rep = BoundReport("x", 1.0, 0.9, ALL_OK, 1.0 + 1e-6)
        assert rep.violated is True

    def test_none_empirical_gives_none_violated(self):
        rep = BoundReport("x", 1.0, 0.9, ALL_OK, None)
        assert rep.violated is None
        assert rep.ratio is None

    def test_ratio_conventions(self):
        assert BoundReport("x", 2.0, 1.0, ALL_OK, 1.0).ratio == pytest.approx(0.5)
        assert BoundReport("x", np.inf, 1.0, ALL_OK, 3.0).ratio == 0.0
        assert BoundReport("x", 0.0, 1.0, ALL_OK, 0.0).ratio == 0.0
        assert BoundReport("x", 0.0, 1.0, ALL_OK, 1.0).ratio == np.inf

    def test_replace_recomputes(self):
        rep = BoundReport("x", 1.0, 0.9, ALL_OK, None)
        done = dataclasses.replace(rep, empirical_value=2.0)
        assert done.violated is True
        assert done.ratio == pytest.approx(2.0)

    def test_verdict_is_never_passed(self):
        # a passing row with ratio 0 and an infinite measured value cannot be built
        with pytest.raises(TypeError):
            BoundReport("x", 1.0, 0.9, ALL_OK, np.inf, 0.0, False)
        with pytest.raises(TypeError):
            BoundReport("x", 1.0, 0.9, ALL_OK, np.inf, ratio=0.0, violated=False)
        with pytest.raises(ValueError):
            dataclasses.replace(BoundReport("x", 1.0, 0.9, ALL_OK, np.inf), violated=False)

    def test_non_finite_values_fail_closed(self):
        cases = ((np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (np.inf, np.inf), (0.5, np.nan))
        for emp, bound in cases:
            rep = BoundReport("x", bound, 0.9, ALL_OK, emp)
            assert rep.violated is True, (emp, bound)
            assert rep.ratio == np.inf, (emp, bound)

    def test_violation_of_a_non_positive_bound_ranks_worst(self):
        for bound, emp in ((-np.inf, 1.0), (-np.inf, -1e300), (-2.0, -1.0), (-2.0, 0.0)):
            rep = BoundReport("x", bound, 0.5, ALL_OK, emp)
            assert rep.violated is True, (bound, emp)
            assert rep.ratio == np.inf, (bound, emp)
        assert BoundReport("x", -2.0, 0.5, ALL_OK, -3.0).ratio == 0.0

    def test_infinite_bound_without_empirical_stays_unjudged(self):
        flags = PreconditionFlags(True, True, False)
        assert BoundReport("x", np.inf, 0.0, flags, None).violated is None


any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite_float = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestBoundReportProperties:
    @given(any_float, any_float)
    @settings(max_examples=200, deadline=None)
    def test_non_finite_never_passes(self, bound, emp):
        rep = BoundReport("x", bound, 0.9, ALL_OK, emp)
        if not np.isfinite(emp) or np.isnan(bound):
            assert rep.violated is True
            assert rep.ratio == np.inf

    @given(any_float, any_float)
    @settings(max_examples=200, deadline=None)
    def test_ratio_is_never_nan(self, bound, emp):
        assert not np.isnan(BoundReport("x", bound, 0.9, ALL_OK, emp).ratio)

    @given(finite_float, finite_float)
    @settings(max_examples=200, deadline=None)
    def test_finite_values_use_relative_slack(self, bound, emp):
        rep = BoundReport("x", bound, 0.9, ALL_OK, emp)
        assert rep.violated == (emp > bound + VIOLATION_SLACK * max(1.0, bound))

    @given(st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, -1.0]), any_float), any_float)
    @settings(max_examples=400, deadline=None)
    def test_a_violation_never_ranks_below_one(self, bound, emp):
        rep = BoundReport("x", bound, 0.9, ALL_OK, emp)
        assert not rep.violated or rep.ratio >= 1.0

    @given(any_float, any_float)
    @settings(max_examples=200, deadline=None)
    def test_replace_agrees_with_the_constructor(self, bound, emp):
        row = BoundReport("x", bound, 0.9, ALL_OK, None)
        assert dataclasses.replace(row, empirical_value=emp) == BoundReport(
            "x", bound, 0.9, ALL_OK, emp
        )


class TestGaussianBoundParams:
    def params(self, **kw):
        base = dict(
            n_rows=100,
            n_cols=80,
            singulars=(50.0, 30.0, 10.0),
            k_lo=1,
            k_hi=2,
            margin=2.0,
            tail=1.0,
        )
        base.update(kw)
        return GaussianBoundParams(**base)

    def test_eta_formula(self):
        p = self.params()
        expect = (
            11.0 * 4.0 * np.sqrt(2.0 * np.log(9.0) * 3 + 8.0 * np.log(180.0))
        )
        assert p.eta == pytest.approx(expect, rel=1e-12)

    def test_gamma_formula(self):
        p = self.params()
        expect = 9.0 * 4.0 * np.sqrt(3 * 8.0 * np.log(180.0))
        assert p.gamma == pytest.approx(expect, rel=1e-12)

    def test_chi_xi(self):
        p = self.params(margin=3.0)
        assert p.chi == pytest.approx(1.0 + 1.0 / 24.0)
        assert p.xi == pytest.approx(1.0 + 1.0 / 8.0)

    def test_base_radius(self):
        p = self.params()
        assert p.base_radius == pytest.approx(4.0 * (10.0 + np.sqrt(80.0)))

    def test_delta_edges(self):
        p = self.params()
        assert p.delta(0) == np.inf
        assert p.delta(1) == pytest.approx(20.0)
        assert p.delta(3) == pytest.approx(10.0)
        with pytest.raises(InvalidParameterError):
            p.delta(4)

    def test_min_gap_window(self):
        p = self.params(k_lo=2, k_hi=2)
        # min of the gap above (delta_1 = 20) and below (delta_2 = 20)
        assert p.min_gap == pytest.approx(20.0)
        p2 = self.params(k_lo=1, k_hi=3)
        assert p2.min_gap == pytest.approx(10.0)  # delta(0)=inf, delta(3)=10

    def test_k0(self):
        assert self.params(k_lo=1, k_hi=1).k0 == 1
        assert self.params(k_lo=3, k_hi=3).k0 == 0

    def test_window(self):
        assert self.params(k_lo=1, k_hi=3).window == 3

    def test_r0_picks_largest_qualifying(self):
        p = strong_params(singulars=(2.0e5, 1.2e5))
        assert p.r0 == 2
        # second value too small to clear the noise floor: falls back to 1
        p2 = strong_params(singulars=(2.0e5, 1.0))
        assert p2.r0 == 1

    def test_preconditions_strong_regime(self):
        flags = strong_params().preconditions
        assert flags.dim_ok and flags.snr_ok and flags.gap_ok

    def test_preconditions_weak_regime(self):
        p = self.params()
        flags = p.preconditions
        assert not flags.snr_ok  # unit-noise floor far above these values

    def test_probability_floor_clipped(self):
        p = strong_params()  # every precondition holds; N + n = 1200
        assert p.probability_floor(1e9) == 0.0
        assert p.probability_floor(18.0) == pytest.approx(1.0 - 18.0 / 1200.0)
        assert p.probability_floor(18.0, holds=False) == 0.0
        assert self.params().probability_floor(18.0) == 0.0  # snr fails here
        assert probability_floor(18.0, 100, 80, 1.0, True) == pytest.approx(1.0 - 18.0 / 180.0)
        assert probability_floor(-1.0, 100, 80, 1.0, True) == 1.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            self.params(singulars=(1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            self.params(k_lo=2, k_hi=1)
        with pytest.raises(InvalidParameterError):
            self.params(margin=1.5)
        with pytest.raises(InvalidParameterError):
            self.params(margin=float("nan"))
        with pytest.raises(InvalidParameterError):
            self.params(tail=0.0)


class TestMirsky:
    def test_no_violations_monte_carlo(self):
        for seed in range(30):
            inst = make_instance(seed, scale=0.5)
            for spec in (OPERATOR, FROBENIUS, NUCLEAR, kyfan(3)):
                rep = mirsky_check(inst, spec)
                assert rep.violated is False, (seed, spec.label)
                assert rep.probability_floor == 1.0

    def test_equality_when_noise_shares_factors(self):
        # commuting perturbation moves each singular value exactly by the
        # matching noise value, so the inequality is tight
        rng = np.random.default_rng(0)
        q1 = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        q2 = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        fac = SvdFactors(q1, np.array([9.0, 7.0, 5.0, 3.0, 1.0, 0.5, 0.2, 0.1]), q2)
        e = q1 @ np.diag([0.9, 0.7, 0.5, 0.3, 0.1, 0.05, 0.02, 0.01]) @ q2.T
        inst = perturb(fac, e)
        for spec in (OPERATOR, FROBENIUS, NUCLEAR):
            rep = mirsky_check(inst, spec)
            assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_theorem_id(self):
        inst = make_instance(4)
        assert mirsky_check(inst, kyfan(2)).theorem_id == "mirsky:kyfan2"

    @pytest.mark.parametrize(
        "n, singulars, fallback",
        [
            (900, (2.0e5, 1.2e5), False),
            (900, (500.0, 400.0), True),
            (80, (40.0, 30.0, 20.0), True),
        ],
        ids=["certified", "leading-svd-fallback", "below-crossover"],
    )
    def test_operator_reads_two_values_as_the_full_gauge(self, n, singulars, fallback):
        # the full path: the gauge of both whole spectra, as every other norm reads them
        inst = make_instance(6, n_rows=n, n_cols=n - 20, singulars=singulars)
        m, sig = n - 20, np.asarray(singulars)
        assert (inst.svd_observed.singulars.size == m) == fallback
        rep = mirsky_check(inst, OPERATOR)
        bound = gauge(gram_spectrum(inst.noise), OPERATOR)
        diff = np.concatenate((sig, np.zeros(m - sig.size))) - inst.observed_spectrum
        empirical = gauge(diff, OPERATOR)
        if n <= 400:  # below the crossover both are the same floats
            assert (rep.bound_value, rep.empirical_value) == (bound, empirical)
        assert rep.bound_value == pytest.approx(bound, rel=1e-12)
        assert rep.empirical_value == pytest.approx(empirical, rel=1e-12)
        assert rep.violated is False

    def test_thin_signal_factors(self):
        # generator factors have rank-r width; the signal spectrum is padded,
        # and the observed one formed on first read matches LAPACK's
        rng = np.random.default_rng(5)
        fac = low_rank_from_rng(LowRankSpec(40, 30, (20.0, 12.0, 6.0)), rng)
        thin = perturb(fac, 0.5 * rng.standard_normal((40, 30)))
        a, e = (fac.left * fac.singulars) @ fac.right.T, thin.noise
        full = PerturbationInstance(e, fac, svd(a + e))
        for spec in (OPERATOR, FROBENIUS, NUCLEAR, kyfan(3)):
            got = mirsky_check(thin, spec)
            want = mirsky_check(full, spec)
            assert got.violated is False
            assert got.empirical_value == pytest.approx(want.empirical_value, rel=1e-9)


class TestWedin:
    def test_no_violations_monte_carlo(self):
        for seed in range(25):
            inst = make_instance(seed, scale=0.3)
            for k in (1, 2, 3):
                for spec in (OPERATOR, FROBENIUS):
                    rep = wedin_check(inst, k, spec)
                    if rep.violated is not None:
                        assert rep.violated is False, (seed, k, spec.label)

    def test_degenerate_gap_reports_not_met(self):
        # noise pushes the next observed value past the k-th signal value
        fac = SvdFactors(np.eye(6)[:, :2], np.array([5.0, 4.9999]), np.eye(6)[:, :2])
        e = np.zeros((6, 6))
        e[2, 2] = 20.0
        inst = perturb(fac, e)
        rep = wedin_check(inst, 1, OPERATOR)
        assert rep.violated is None
        assert rep.preconditions.gap_ok is False
        assert rep.bound_value == np.inf
        assert rep.probability_floor == 0.0

    def test_measured_value_is_window_sin_theta(self):
        inst = make_instance(7, scale=0.2)
        rep = wedin_check(inst, 2, FROBENIUS)
        assert rep.preconditions.gap_ok
        assert rep.empirical_value == window_sin_theta(inst, 1, 2, FROBENIUS)

    @pytest.mark.parametrize(
        "shape, singulars, fallback",
        [
            ((900, 900), (2.0e5, 1.2e5), False),
            ((200, 150), (2.0e4, 1.2e4), False),
            ((150, 200), (2.0e4, 1.2e4), False),
            ((200, 150), (40.0, 30.0), True),
            ((9, 3), (40.0, 30.0, 20.0), False),
        ],
        ids=["certified", "tall-dense", "wide-dense", "leading-svd-fallback", "full-rank"],
    )
    def test_rank_r_divides_by_the_next_value_mirsky_reads(self, shape, singulars, fallback):
        # at k = r the gap is sigma_r - observed_next, the sigma~_{r+1} that
        # mirsky:operator reads; observed_next is 0 when r = min(N, n)
        inst = make_instance(8, *shape, singulars=singulars, scale=0.5)
        r, m = len(singulars), min(shape)
        assert (inst.svd_observed.singulars.size == m) == (fallback or r == m)
        rep = wedin_check(inst, r, OPERATOR)
        assert "observed_next" in vars(inst)
        nxt = inst.observed_next
        gap = singulars[-1] - nxt
        assert rep.bound_value == cross_term_norm(inst, 1, r, OPERATOR) / gap
        mirsky = mirsky_check(inst, OPERATOR)
        held = inst.svd_observed.singulars[:r]
        assert mirsky.empirical_value == max(float(np.max(np.abs(np.asarray(singulars) - held))), nxt)

    def test_rank_r_at_gate_size_forms_no_trailing_spectrum(self):
        inst = strong_instance(3, n=900)
        assert inst.svd_observed.singulars.size == 2  # certified
        for spec in (OPERATOR, FROBENIUS, NUCLEAR):
            wedin_check(inst, 2, spec)
        assert "observed_spectrum" not in vars(inst)


class TestLazyTrailingSpectrum:
    def test_heavy_reads_skip_it_and_mirsky_reads_the_eager_values(self, monkeypatch):
        import svperturb.models

        real = svperturb.models._gram_values
        calls = []

        def counting(gram):
            calls.append(gram.shape)
            return real(gram)

        monkeypatch.setattr(svperturb.models, "_gram_values", counting)
        n, sigma = 120, (2.0e5, 1.2e5)
        p_top = strong_params(n, sigma)
        p_full = GaussianBoundParams(n_rows=n, n_cols=n, singulars=sigma, k_lo=1, k_hi=2)
        rng = np.random.default_rng(41)
        fac = low_rank_from_rng(LowRankSpec(n, n, sigma), rng)
        inst = perturb(fac, rng.standard_normal((n, n)))
        assert inst.svd_observed.singulars.size == 2  # certified
        # what the heavy gate stream reads of each instance
        esv = singular_values(inst.noise)
        window_sin_theta(inst, 1, 1, OPERATOR)
        gauss_sv_location_check(
            inst, p_top, 1, lambda z: phi_values(esv, n, n, z).varphi.real
        )
        window_2inf_residual(inst, 1, 1)
        window_residual(inst, 1, 1)
        window_weighted_residual(inst, 1, 2, aligned=True)
        weighted_corollary_bound(p_full, row_mass(fac.left), float(esv[0]))
        wedin_check(inst, 1, OPERATOR)  # reads the second value, which is held
        assert calls == []
        rep = mirsky_check(inst, FROBENIUS)
        assert calls == [(n, n)]
        twin = perturb(fac, inst.noise)
        eager = np.concatenate((twin.svd_observed.singulars, real(twin.remainder_gram())[: n - 2]))
        assert inst.observed_spectrum.tobytes() == eager.tobytes()
        diff = np.concatenate((fac.singulars, np.zeros(n - 2))) - eager
        assert rep.empirical_value == gauge(diff, FROBENIUS)
        mirsky_check(inst, OPERATOR)
        wedin_check(inst, 2, OPERATOR)
        assert len(calls) == 1  # formed once per instance


class TestCrossTerm:
    def test_matches_dense_projectors(self):
        inst = make_instance(9, n_rows=18, n_cols=14, singulars=(8.0, 5.0, 2.0), scale=0.4)
        r = inst.rank()
        k_lo, k_hi = 1, 2
        u_r = inst.svd_signal.left[:, :r]
        v_r = inst.svd_signal.right[:, :r]
        ut_w = inst.svd_observed.left[:, k_lo - 1 : k_hi]
        vt_w = inst.svd_observed.right[:, k_lo - 1 : k_hi]
        b1 = (np.eye(18) - u_r @ u_r.T) @ inst.noise @ (vt_w @ vt_w.T)
        b2 = (np.eye(14) - v_r @ v_r.T) @ inst.noise.T @ (ut_w @ ut_w.T)
        sv = np.concatenate([singular_values(b1), singular_values(b2)])
        expect_fro = float(np.sqrt(np.sum(sv**2)))
        got = cross_term_norm(inst, k_lo, k_hi, FROBENIUS)
        assert got == pytest.approx(expect_fro, rel=1e-9)
        expect_op = float(np.max(sv))
        assert cross_term_norm(inst, k_lo, k_hi, OPERATOR) == pytest.approx(
            expect_op, rel=1e-9
        )

    def test_spectra_are_formed_once_per_window(self, monkeypatch):
        # the norms of one (k, window) read one pair of spectra, bit for bit a
        # fresh instance's; another (k, window) forms its own pair
        shape = dict(n_rows=18, n_cols=14, singulars=(8.0, 5.0, 2.0), scale=0.4)
        inst, fresh = make_instance(9, **shape), make_instance(9, **shape)
        specs = (FROBENIUS, NUCLEAR, kyfan(2))
        want = [cross_term_norm(fresh, 1, 2, spec) for spec in specs]
        calls = []
        monkeypatch.setattr(
            models, "singular_values", lambda b: calls.append(b.shape) or singular_values(b)
        )
        assert [cross_term_norm(inst, 1, 2, spec) for spec in specs] == want
        assert len(calls) == 2
        cross_term_norm(inst, 2, 2, FROBENIUS)
        assert wedin_check(inst, 1, FROBENIUS).violated is not None  # k = 1 on [1, 1]
        assert len(calls) == 6


class TestGaussSubspace:
    def test_strong_regime_holds(self):
        p = strong_params()
        inst = strong_instance(1)
        esv = singular_values(inst.noise)
        emp = window_sin_theta(inst, 1, 1, OPERATOR)
        done = gauss_subspace_bound(p, OPERATOR, float(esv[0]), emp)
        assert done.preconditions.all_ok
        assert done.probability_floor == pytest.approx(1.0 - 20.0 / 1200.0)
        assert done.violated is False
        assert done.ratio < 0.1  # far from tight in this regime

    def test_general_norm_form_uses_cross_sum(self):
        p = strong_params()
        inst = strong_instance(2)
        cross = cross_term_norm(inst, 1, 1, FROBENIUS)
        emp = window_sin_theta(inst, 1, 1, FROBENIUS)
        assert gauss_subspace_bound(p, FROBENIUS, cross, emp).violated is False

    def test_operator_indicator_vanishes_on_full_window(self):
        p = GaussianBoundParams(
            n_rows=600,
            n_cols=600,
            singulars=(2.0e5, 1.2e5),
            k_lo=1,
            k_hi=2,
        )
        rep = gauss_subspace_bound(p, OPERATOR, 100.0)
        # the leading term is exactly 0, so the bound is the cross term alone
        assert rep.bound_value == 2.0 * 100.0 / 1.2e5

    def test_monotone_in_signal_strength(self):
        base = (2.0e5, 1.2e5)
        lifted = (2.5e5, 1.7e5)  # same gap, larger bottom value
        b1 = gauss_subspace_bound(strong_params(singulars=base), OPERATOR, 50.0)
        b2 = gauss_subspace_bound(strong_params(singulars=lifted), OPERATOR, 50.0)
        assert b2.bound_value < b1.bound_value

    def test_monotone_in_gap(self):
        narrow = (2.0e5, 1.4e5)
        wide = (2.0e5, 1.0e5)
        b1 = gauss_subspace_bound(strong_params(singulars=narrow), OPERATOR, 50.0)
        b2 = gauss_subspace_bound(strong_params(singulars=wide), OPERATOR, 50.0)
        # wider gap shrinks the leading term; the cross term 2 * 50 / sigma_1
        # is the same for both
        cross = 2.0 * 50.0 / 2.0e5
        assert 0 < b2.bound_value - cross < b1.bound_value - cross

    def test_weak_regime_has_zero_floor(self):
        p = GaussianBoundParams(
            n_rows=40, n_cols=30, singulars=(20.0, 12.0), k_lo=1, k_hi=1
        )
        rep = gauss_subspace_bound(p, OPERATOR, 5.0)
        assert not rep.preconditions.all_ok
        assert rep.probability_floor == 0.0

    def test_rejects_non_invariant_norm(self):
        # the l2,inf and max norms are not norm kinds, so no bound takes them
        for kind in ("two_inf", "max"):
            with pytest.raises(InvalidParameterError):
                gauss_subspace_bound(strong_params(), NormSpec(kind), 1.0)


class TestSimplified:
    def test_first_term_vanishes_at_full_rank(self):
        p = GaussianBoundParams(
            n_rows=50, n_cols=50, singulars=(30.0, 20.0), k_lo=2, k_hi=2
        )
        assert p.k0 == 0
        rep = gauss_subspace_simplified(p, e_norm=10.0)
        assert rep.bound_value == pytest.approx(2.0 * 10.0 / 20.0)

    def test_shape_value(self):
        p = GaussianBoundParams(
            n_rows=50, n_cols=50, singulars=(30.0, 20.0, 10.0), k_lo=1, k_hi=1
        )
        expect = np.sqrt(1 * 1) * np.sqrt(3 + np.log(100.0)) / 10.0 + 10.0 / 30.0
        rep = gauss_subspace_simplified(p, e_norm=10.0)
        assert rep.bound_value == pytest.approx(expect, rel=1e-12)
        assert rep.probability_floor == 0.0
        # a shape row claims no probability even where every hypothesis holds
        strong = strong_params()
        assert strong.preconditions.all_ok
        assert gauss_subspace_simplified(strong, e_norm=10.0).probability_floor == 0.0


class TestSvLocation:
    def test_strong_regime_membership(self):
        p = strong_params()
        inst = strong_instance(3)
        eta = svd(inst.noise).singulars

        def phi_at(z):
            return phi_values(eta, 600, 600, z).varphi.real

        rep = gauss_sv_location_check(inst, p, 1, phi_at)
        # a value inside some strip is measured, so it is finite
        assert np.isfinite(rep.empirical_value)
        assert rep.violated is False

    def test_value_in_no_strip_fails_closed(self):
        # the 900^2 gate model with window [1, 1]; observed sigma_1 = 3e5 lies
        # above every strip while phi lands exactly on sigma_1^2
        p = strong_params(n=900)
        inst = SimpleNamespace(svd_observed=SimpleNamespace(singulars=np.array([3.0e5, 1.2e5])))
        rep = gauss_sv_location_check(inst, p, 1, lambda z: p.singulars[0] ** 2)
        assert rep.empirical_value == np.inf
        assert rep.violated is True
        assert rep.ratio == np.inf

    def test_domain_error_reports_not_met(self):
        p = strong_params()
        inst = strong_instance(4)

        def phi_at(z):
            raise EvaluationDomainError("inside the spectrum")

        rep = gauss_sv_location_check(inst, p, 1, phi_at)
        assert rep.violated is None
        assert rep.probability_floor == 0.0
        assert rep.bound_value == np.inf
        assert rep.empirical_value is None

    def test_j_outside_window_rejected(self):
        p = strong_params()
        inst = strong_instance(5)
        with pytest.raises(InvalidParameterError):
            gauss_sv_location_check(inst, p, 2, lambda z: z)


class TestGeneralNoise:
    def measured(self, inst, k):
        r = inst.rank()
        u = inst.svd_signal.left[:, :r]
        v = inst.svd_signal.right[:, :r]
        core = u.T @ inst.noise @ v
        return GeneralNoiseParams(
            op_bound=float(np.linalg.norm(inst.noise, 2)),
            core_bound=float(np.linalg.norm(core, 2)),
            corner_bound=float(np.linalg.norm(core[:k, :k], 2)),
        )

    def test_sv_bounds_hold_measured(self):
        for seed in range(15):
            inst = make_instance(seed, n_rows=50, n_cols=40, singulars=(40.0, 30.0, 20.0, 10.0), scale=0.5)
            for k in (1, 2, 3, 4):
                gp = self.measured(inst, k)
                lower, upper = general_sv_bounds(inst, k, gp)
                assert lower.violated is False, (seed, k)
                assert upper.violated is False, (seed, k)

    def test_lower_is_displacement(self):
        inst = make_instance(1, scale=0.2)
        gp = self.measured(inst, 1)
        lower, _ = general_sv_bounds(inst, 1, gp)
        expect = float(
            inst.svd_signal.singulars[0] - inst.svd_observed.singulars[0]
        )
        assert lower.empirical_value == pytest.approx(expect)
        # the corner cap plus the error bound of a computed singular value
        rounding = 30 * np.finfo(float).eps * inst.svd_observed.singulars[0]
        assert lower.bound_value == gp.corner_bound + rounding

    def test_subspace_bound_holds_measured(self):
        p = GaussianBoundParams(60, 50, (60.0, 40.0, 20.0), 1, 1)
        for seed in range(10):
            inst = make_instance(seed + 50, n_rows=60, n_cols=50, singulars=p.singulars, scale=0.3)
            r = inst.rank()
            for k in (1, 2, 3):
                gp = self.measured(inst, k)
                delta_k = p.delta(k)
                sigma_k = float(inst.svd_signal.singulars[k - 1])
                for spec in (OPERATOR, FROBENIUS):
                    emp = window_sin_theta(inst, 1, k, spec)
                    rep = general_subspace_bound(k, r, delta_k, sigma_k, gp, spec, emp)
                    if not rep.preconditions.gap_ok:
                        continue
                    assert rep.violated is False, (seed, k, spec.label)

    def test_small_gap_reports_not_met(self):
        gp = GeneralNoiseParams(op_bound=5.0, core_bound=4.0, corner_bound=1.0)
        rep = general_subspace_bound(1, 2, 1.0, 10.0, gp, OPERATOR)
        assert rep.preconditions.gap_ok is False
        assert rep.probability_floor == 0.0

    def test_operator_indicator_at_full_rank(self):
        gp = GeneralNoiseParams(op_bound=1.0, core_bound=0.1, corner_bound=0.1)
        rep = general_subspace_bound(3, 3, 5.0, 20.0, gp, OPERATOR)
        assert rep.bound_value == pytest.approx(2.0 * 1.0 / 20.0)


class TestEntrywise:
    def params(self):
        return strong_params(singulars=(2.0e5, 1.2e5))

    def test_nonasymptotic_holds_strong_regime(self):
        p = self.params()
        inst = strong_instance(6)
        emp = window_2inf_residual(inst, 1, 1)
        assert two_inf_bound(p, row_mass(inst.svd_signal.left[:, :2]), emp).violated is False

    def test_tail_split_at_column_cut(self):
        # one value above n^2 lands in the wide-tail sum
        p = GaussianBoundParams(
            n_rows=30, n_cols=5, singulars=(30.0, 20.0), k_lo=1, k_hi=2
        )
        rep = two_inf_bound(p, 0.5)
        # sigma_1 = 30 > 5^2 enters as 16 n / sigma_1^2, sigma_2 = 20 as gamma^2 / sigma_2^2
        first = p.window_lead * 0.5 * p.eta * np.sqrt(2.0) / p.min_gap
        second = p.tail_factor * 1.5 * np.sqrt(p.gamma**2 / 20.0**2 + 16.0 * 5 / 30.0**2)
        assert rep.bound_value == pytest.approx(first + second, rel=1e-12)

    def test_vector_form_shape(self):
        p = GaussianBoundParams(
            n_rows=50, n_cols=50, singulars=(30.0, 20.0, 10.0), k_lo=2, k_hi=2
        )
        rep = vector_inf_bound(p, 0.3)
        lnsum = np.log(100.0)
        ming = min(10.0, 10.0)
        expect = np.sqrt(3 + lnsum) / ming * 0.3 + np.sqrt(3 * lnsum) / 20.0 * 1.3
        assert rep.bound_value == pytest.approx(expect, rel=1e-12)
        assert rep.probability_floor == 0.0

    def test_aligned_needs_e_norm(self):
        # the aligned shape is the matrix shape plus e_norm^2 / sigma_1^2 times
        # the window row mass
        p = self.params()
        shape = matrix_2inf_bound(p, 0.1).bound_value
        assert aligned_2inf_bound(p, 0.1, 0.0, 0.3).bound_value == shape
        rep = aligned_2inf_bound(p, 0.1, 100.0, 0.3)
        assert rep.bound_value == pytest.approx(shape + 100.0**2 / 2.0e5**2 * 0.3, rel=1e-12)
        # a shape row claims no probability even where every hypothesis holds
        assert rep.preconditions.all_ok
        assert rep.probability_floor == 0.0

    @pytest.mark.parametrize("u_2inf", [-0.1, 1.1, float("nan")])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p, u: two_inf_bound(p, u),
            lambda p, u: vector_inf_bound(p, u),
            lambda p, u: matrix_2inf_bound(p, u),
            lambda p, u: aligned_2inf_bound(p, u, 1.0, 0.5),
            lambda p, u: aligned_2inf_bound(p, 0.5, 1.0, u),
            lambda p, u: weighted_window_bound(p, u),
            lambda p, u: weighted_corollary_bound(
                GaussianBoundParams(600, 600, (2.0e5, 1.2e5), 1, 2), u, 1.0
            ),
        ],
    )
    def test_row_mass_outside_unit_interval_rejected(self, call, u_2inf):
        with pytest.raises(InvalidInputError, match="row-mass"):
            call(self.params(), u_2inf)


class TestLinearBilinear:
    def test_strong_regime_holds(self):
        p = strong_params()
        inst = strong_instance(7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(600)
        x /= np.linalg.norm(x)
        y = np.array([1.0])
        r = 2
        xu = float(np.linalg.norm(x @ inst.svd_signal.left[:, :r]))
        u_w = inst.svd_signal.left[:, :1]
        ut_w = inst.svd_observed.left[:, :1]
        resid = ut_w - u_w @ (u_w.T @ ut_w)
        emp = (float(np.linalg.norm(x @ resid)), float(abs(x @ resid @ y)))
        lin, bil = linear_bilinear_bound(p, xu, y, emp)
        assert lin.probability_floor == bil.probability_floor == p.probability_floor(40.0) > 0
        assert (lin.empirical_value, bil.empirical_value) == emp
        assert lin.violated is False
        assert bil.violated is False

    def test_hypothesis_flag_blocks_probability(self):
        # 600^2 < sigma_1 = 4e5 while every precondition holds
        p = strong_params(singulars=(4.0e5, 2.8e5))
        assert p.probability_floor(40.0) > 0
        lin, bil = linear_bilinear_bound(p, 0.5, np.array([1.0]))
        assert lin.probability_floor == 0.0
        assert bil.probability_floor == 0.0

    def test_full_window_drops_lead(self):
        p = GaussianBoundParams(
            n_rows=600, n_cols=600, singulars=(2.0e5, 1.2e5), k_lo=1, k_hi=2
        )
        lin, _ = linear_bilinear_bound(p, 0.5, np.array([1.0, 0.0]))
        tail_coef = 2.0 * np.sqrt(2.0) * 4.0 * p.gamma * 1.5
        expect = tail_coef * np.sqrt(1.0 / 2.0e5**2 + 1.0 / 1.2e5**2)
        assert lin.bound_value == pytest.approx(expect, rel=1e-12)

    def test_sparse_y_uses_support(self):
        p = strong_params(singulars=(2.0e5, 1.2e5))
        _, bil_dense = linear_bilinear_bound(p, 0.5, np.array([1.0]))
        p2 = GaussianBoundParams(
            n_rows=600, n_cols=600, singulars=(2.0e5, 1.2e5), k_lo=1, k_hi=2
        )
        _, bil = linear_bilinear_bound(p2, 0.5, np.array([0.0, 1.0]))
        # support 1 keeps the first term at the single-direction size
        assert bil.bound_value > 0

    def test_wrong_y_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            linear_bilinear_bound(strong_params(), 0.5, np.array([1.0, 2.0]))


class TestWeighted:
    def test_theorem_strong_regime(self):
        p = strong_params()
        inst = strong_instance(9)
        emp = window_weighted_residual(inst, 1, 1)
        rep = weighted_window_bound(p, row_mass(inst.svd_signal.left[:, :2]), emp)
        assert rep.violated is False

    def test_corollary_needs_full_window(self):
        p = strong_params()  # window [1, 1] but rank 2
        with pytest.raises(InvalidParameterError):
            weighted_corollary_bound(p, 0.1, 1.0)

    def test_corollary_full_window(self):
        p = GaussianBoundParams(
            n_rows=600, n_cols=600, singulars=(2.0e5, 1.2e5), k_lo=1, k_hi=2
        )
        inst = strong_instance(10)
        esv = singular_values(inst.noise)
        emp = window_weighted_residual(inst, 1, 2, aligned=True)
        u = row_mass(inst.svd_signal.left[:, :2])
        assert weighted_corollary_bound(p, u, float(esv[0]), emp).violated is False


class TestSpectralNormEvent:
    def test_formula(self):
        rep = spectral_norm_report(10.0, 100, 64)
        root = 10.0 + 8.0
        assert rep.bound_value == pytest.approx(2.0 * root)
        assert rep.probability_floor == pytest.approx(1.0 - 2.0 * np.exp(-(root**2) / 2.0))
        assert rep.violated is False

    def test_monte_carlo_frequency(self):
        hits = 0
        for seed in range(100):
            e = np.random.default_rng(seed).standard_normal((30, 20))
            rep = spectral_norm_report(
                float(np.linalg.norm(e, 2)), 30, 20
            )
            hits += 0 if rep.violated else 1
        assert hits == 100  # at these sizes the event essentially always holds


class TestEmpiricalQuantity:
    def setup_method(self):
        self.inst = make_instance(11, scale=0.3)

    def test_window_beyond_held_vectors_rejected(self):
        fac = low_rank_from_rng(LowRankSpec(40, 30, (20.0, 12.0)), np.random.default_rng(8))
        inst = perturb(fac, 0.3 * np.random.default_rng(9).standard_normal((40, 30)))
        assert inst.svd_observed.vector_count == 2
        assert inst.svd_observed.singulars.shape == (30,)
        with pytest.raises(InvalidParameterError):
            window_sin_theta(inst, 1, 3, OPERATOR)
        with pytest.raises(InvalidParameterError):
            cross_term_norm(inst, 2, 3, FROBENIUS)

    def test_window_residual_forms(self):
        inst = self.inst
        u_w = inst.svd_signal.left[:, 1:3]
        ut_w = inst.svd_observed.left[:, 1:3]
        assert np.array_equal(window_residual(inst, 2, 3), ut_w - u_w @ (u_w.T @ ut_w))
        aligned = ut_w - u_w @ procrustes_align(u_w, ut_w)
        assert np.array_equal(window_residual(inst, 2, 3, aligned=True), aligned)

    def test_sv_gap(self):
        s = self.inst.svd_signal.singulars[:3]
        p = GaussianBoundParams(40, 30, tuple(s), 1, 1)
        assert p.delta(1) == float(s[0] - s[1])
        assert p.delta(3) == float(s[2])

    def test_sin_theta_is_max_of_sides(self, monkeypatch):
        # one pair of spectra per window serves every norm kind, bit for bit
        # the larger public sin_theta_norm of the two sides, and is formed once
        inst = self.inst
        sig, obs = inst.svd_signal, inst.svd_observed
        specs = (OPERATOR, FROBENIUS, NUCLEAR, schatten(3), kyfan(2))
        windows = ((1, 1), (1, 2), (2, 3), (1, 3))
        want = []
        for k_lo, k_hi in windows:
            w = slice(k_lo - 1, k_hi)
            for spec in specs:
                left = sin_theta_norm(sig.left[:, w], obs.left[:, w], spec)
                right = sin_theta_norm(sig.right[:, w], obs.right[:, w], spec)
                want.append(max(left, right))

        def reads():
            return [window_sin_theta(inst, *window, spec) for window in windows for spec in specs]

        assert reads() == want
        calls = []
        monkeypatch.setattr(
            subspace, "singular_values", lambda b: calls.append(b.shape) or singular_values(b)
        )
        assert reads() == want
        assert calls == []

    def test_window_reads_check_no_basis(self, monkeypatch):
        # the instance checked its four bases when it was built
        inst = self.inst
        calls = []
        monkeypatch.setattr(subspace, "check_orthonormal", lambda b, **kw: calls.append(kw))
        window_sin_theta(inst, 1, 2, FROBENIUS)
        window_residual(inst, 1, 2, aligned=True)
        window_2inf_residual(inst, 2, 3)
        window_weighted_residual(inst, 1, 3, aligned=True)
        wedin_check(inst, 2, OPERATOR)
        assert calls == []

    def test_two_inf_modes(self):
        inst = self.inst
        u_w = inst.svd_signal.left[:, :1]
        ut_w = inst.svd_observed.left[:, :1]
        assert window_2inf_residual(inst, 1, 1) == pytest.approx(
            row_mass(ut_w - u_w @ (u_w.T @ ut_w))
        )
        assert window_2inf_residual(inst, 1, 1, aligned=True) == pytest.approx(
            row_mass(ut_w - u_w @ procrustes_align(u_w, ut_w))
        )

    def test_weighted_scales_after_subtraction(self):
        inst = self.inst
        u_w = inst.svd_signal.left[:, :2]
        ut_w = inst.svd_observed.left[:, :2]
        d_w = inst.svd_observed.singulars[:2]
        resid = (ut_w - u_w @ (u_w.T @ ut_w)) * d_w
        expect = float(np.max(np.sqrt(np.sum(resid**2, axis=1))))
        got = window_weighted_residual(inst, 1, 2)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_weighted_aligned_uses_procrustes(self):
        inst = self.inst
        u_w = inst.svd_signal.left[:, :2]
        ut_w = inst.svd_observed.left[:, :2]
        d_w = inst.svd_observed.singulars[:2]
        o = procrustes_align(u_w, ut_w)
        resid = (ut_w - u_w @ o) * d_w
        expect = float(np.max(np.sqrt(np.sum(resid**2, axis=1))))
        got = window_weighted_residual(inst, 1, 2, aligned=True)
        assert got == pytest.approx(expect, rel=1e-12)


class TestZeroGap:
    def test_tied_values_give_infinite_bounds_quietly(self):
        # sigma_1 = sigma_2: every gap-divided bound is +inf, never NaN, with no warning
        p = GaussianBoundParams(20, 20, (3.0, 3.0), 1, 1)
        assert p.min_gap == 0.0 and not p.preconditions.gap_ok
        gp = GeneralNoiseParams(op_bound=1.0, core_bound=0.5, corner_bound=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [
                gauss_subspace_bound(p, OPERATOR, 1.0),
                gauss_subspace_bound(p, FROBENIUS, 1.0),
                gauss_subspace_simplified(p, 1.0),
                vector_inf_bound(p, 0.5),
                matrix_2inf_bound(p, 0.5),
                aligned_2inf_bound(p, 0.5, 1.0, 0.5),
                two_inf_bound(p, 0.5),
                weighted_window_bound(p, 0.5),
                *linear_bilinear_bound(p, 0.0, [1.0]),
                general_subspace_bound(1, 2, p.delta(1), 3.0, gp, OPERATOR),
            ]
        for rep in reports:
            assert rep.bound_value == np.inf, rep.theorem_id
            assert not rep.preconditions.gap_ok, rep.theorem_id
            assert rep.probability_floor == 0.0, rep.theorem_id


class TestIncoherence:
    def test_from_instance(self):
        inst = make_instance(12)
        u = inst.svd_signal.left[:, :3]
        assert row_mass(u) == pytest.approx(float(np.max(np.sqrt(np.sum(u**2, axis=1)))))
        assert 0.0 < row_mass(u) <= 1.0 + 1e-9

    def test_coherent_factors_hit_one(self):
        fac = low_rank_from_rng(
            LowRankSpec(20, 10, (5.0, 2.0), factor_mode="coherent", coherent_row=3),
            np.random.default_rng(1),
        )
        e = 0.01 * np.random.default_rng(2).standard_normal((20, 10))
        inst = perturb(fac, e)
        assert row_mass(inst.svd_signal.left[:, :2]) == pytest.approx(1.0)
