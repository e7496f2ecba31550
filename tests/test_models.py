import dataclasses
import hashlib

import numpy as np
import pytest

from svperturb import matcore, models
from svperturb.errors import InvalidInputError, InvalidParameterError
from svperturb.matcore import SvdFactors, gram_spectrum, gram_top, svd
from svperturb.models import (
    GmmSpec,
    LowRankSpec,
    PerturbationInstance,
    SubmatrixSpec,
    haar_basis,
    low_rank_from_rng,
    perturb,
    plant_submatrices,
    sample_gmm,
)
from svperturb.seeding import derive_seed


def _observed(inst):
    """The instance's observed matrix, the signal factors' product plus the noise."""
    f = inst.svd_signal
    return (f.left * f.singulars) @ f.right.T + inst.noise


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(5, 7) == derive_seed(5, 7)

    def test_distinct_per_index(self):
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_in_64_bit_range(self):
        s = derive_seed(2**63, 2**20)
        assert 0 <= s < 2**64


class TestHaar:
    def test_orthonormal_columns(self):
        b = haar_basis(np.random.default_rng(0), 12, 4)
        assert np.allclose(b.T @ b, np.eye(4), atol=1e-10)

    def test_full_square(self):
        q = haar_basis(np.random.default_rng(1), 5, 5)
        assert np.allclose(q @ q.T, np.eye(5), atol=1e-10)


class TestLowRank:
    def test_exact_singular_values(self):
        spec = LowRankSpec(30, 20, (9.0, 4.0, 1.0))
        fac = low_rank_from_rng(spec, np.random.default_rng(3))
        assert np.allclose(fac.singulars[:3], [9.0, 4.0, 1.0])
        sv = np.linalg.svd((fac.left * fac.singulars) @ fac.right.T, compute_uv=False)
        assert np.allclose(sv[:3], [9.0, 4.0, 1.0], atol=1e-9)
        assert np.allclose(sv[3:], 0.0, atol=1e-9)

    def test_deterministic(self):
        spec = LowRankSpec(10, 10, (5.0, 2.0))
        f1 = low_rank_from_rng(spec, np.random.default_rng(4))
        f2 = low_rank_from_rng(spec, np.random.default_rng(4))
        assert np.array_equal(f1.left, f2.left) and np.array_equal(f1.right, f2.right)

    def test_ties_allowed(self):
        spec = LowRankSpec(8, 8, (3.0, 3.0, 1.0))
        fac = low_rank_from_rng(spec, np.random.default_rng(5))
        assert fac.singulars[0] == fac.singulars[1]

    def test_increasing_rejected(self):
        with pytest.raises(InvalidParameterError):
            LowRankSpec(8, 8, (1.0, 3.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameterError):
            LowRankSpec(8, 8, (3.0, 0.0))

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(InvalidParameterError):
            LowRankSpec(3, 8, (3.0, 2.0, 1.0, 0.5))

    def test_coherent_mode_pins_row(self):
        spec = LowRankSpec(12, 9, (6.0, 3.0), factor_mode="coherent", coherent_row=4)
        fac = low_rank_from_rng(spec, np.random.default_rng(6))
        lead = fac.left[:, 0]
        e4 = np.zeros(12)
        e4[4] = 1.0
        assert np.allclose(np.abs(lead), e4, atol=1e-12)
        row_mass = np.sqrt(np.sum(fac.left[:, :2] ** 2, axis=1))
        assert row_mass[4] == pytest.approx(1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            LowRankSpec(5, 5, (1.0,), factor_mode="spiky")

    def test_rng_stream_variant_matches_seeded(self):
        # draws continue the caller's stream, and reseeding replays them in order
        spec = LowRankSpec(7, 6, (2.0,))
        rng = np.random.default_rng(9)
        first = low_rank_from_rng(spec, rng).left
        second = low_rank_from_rng(spec, rng).left
        assert not np.array_equal(first, second)
        replay = np.random.default_rng(9)
        assert np.array_equal(low_rank_from_rng(spec, replay).left, first)
        assert np.array_equal(low_rank_from_rng(spec, replay).left, second)


class TestPerturb:
    def test_fields_and_sum(self):
        spec = LowRankSpec(9, 7, (4.0, 2.0))
        fac = low_rank_from_rng(spec, np.random.default_rng(1))
        e = np.random.default_rng(2).standard_normal((9, 7))
        inst = perturb(fac, e)
        assert inst.svd_signal is fac
        assert inst.noise.tobytes() == e.tobytes()
        assert inst.shape == (9, 7)
        assert inst.rank() == 2
        # neither the signal nor the observed matrix is kept or formed on read
        assert not hasattr(inst, "signal") and not hasattr(inst, "observed")

    def test_shape_mismatch_rejected(self):
        fac = low_rank_from_rng(LowRankSpec(9, 7, (4.0, 2.0)), np.random.default_rng(1))
        for shape in ((7, 9), (9, 8)):
            with pytest.raises(InvalidInputError):
                perturb(fac, np.random.default_rng(2).standard_normal(shape))

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("field", ["svd_signal", "svd_observed"])
    def test_instance_rejects_a_non_orthonormal_factor(self, field, side):
        # an instance checks its four bases once, when it is built
        inst = perturb(
            low_rank_from_rng(LowRankSpec(9, 7, (4.0, 2.0)), np.random.default_rng(1)),
            0.01 * np.random.default_rng(2).standard_normal((9, 7)),
        )
        factors = getattr(inst, field)
        bent = getattr(factors, side).copy()
        bent[:, 0] *= 1.0 + 1e-6
        bad = dataclasses.replace(factors, **{side: bent})
        parts = dict(noise=inst.noise, svd_signal=inst.svd_signal, svd_observed=inst.svd_observed)
        with pytest.raises(InvalidInputError, match=f"{field}.{side}"):
            PerturbationInstance(**{**parts, field: bad})

    def test_factors_must_fit_the_signal(self):
        # thin factors only: a cut svd holds more values than vector pairs
        full = svd(np.random.default_rng(3).standard_normal((9, 7)))
        cut = SvdFactors(full.left[:, :2], full.singulars, full.right[:, :2])
        with pytest.raises(InvalidInputError):
            perturb(cut, np.zeros((9, 7)))

    def test_svds_are_consistent(self):
        spec = LowRankSpec(9, 7, (4.0, 2.0))
        fac = low_rank_from_rng(spec, np.random.default_rng(1))
        e = 0.01 * np.random.default_rng(2).standard_normal((9, 7))
        inst = perturb(fac, e)
        observed = inst.svd_observed
        k = observed.vector_count
        assert np.allclose(
            observed.left.T @ _observed(inst) @ observed.right,
            np.diag(observed.singulars[:k]),
            atol=1e-9,
        )
        assert np.allclose(inst.observed_spectrum, svd(_observed(inst)).singulars, atol=1e-9)

    def test_exact_factors_replace_the_signal_svd(self):
        spec = LowRankSpec(60, 45, (900.0, 500.0))
        fac = low_rank_from_rng(spec, np.random.default_rng(3))
        e = np.random.default_rng(4).standard_normal((60, 45))
        inst = perturb(fac, e)
        assert inst.svd_signal is fac
        assert inst.rank() == 2
        observed = inst.svd_observed
        # certified: two pairs and their two Ritz values; the rest on first read
        assert observed.vector_count == observed.singulars.size == 2
        full = svd(_observed(inst))
        assert np.allclose(inst.observed_spectrum, full.singulars, rtol=1e-12)
        for i in range(2):
            assert abs(observed.left[:, i] @ full.left[:, i]) == pytest.approx(1.0, abs=1e-12)
            assert abs(observed.right[:, i] @ full.right[:, i]) == pytest.approx(1.0, abs=1e-12)

    def test_fallback_holds_every_observed_value(self):
        # the command-line model: no certificate, so LAPACK supplies all 60 values
        spec = LowRankSpec(80, 60, (40.0, 30.0, 20.0))
        fac = low_rank_from_rng(spec, np.random.default_rng(5))
        e = np.random.default_rng(6).standard_normal((80, 60))
        inst = perturb(fac, e)
        assert inst.svd_observed.vector_count == 3
        assert np.array_equal(inst.svd_observed.singulars, svd(_observed(inst)).singulars)
        assert inst.observed_spectrum is inst.svd_observed.singulars

    @pytest.mark.parametrize("shape", [(9, 7), (60, 45), (700, 1000)])
    def test_observed_is_the_matrix_leading_svd_read(self, shape, monkeypatch):
        # leading_svd reads the factors' product plus the noise, bit for bit,
        # and perturb does not keep it
        seen = []
        real = models.leading_svd

        def spy(a, k, start=None):
            seen.append(a.copy())
            return real(a, k, start=start)

        monkeypatch.setattr(models, "leading_svd", spy)
        rng = np.random.default_rng(sum(shape))
        fac = low_rank_from_rng(LowRankSpec(*shape, (900.0, 500.0)), rng)
        inst = perturb(fac, rng.standard_normal(shape))
        kept = [k for k, v in vars(inst).items() if isinstance(v, np.ndarray) and v.shape == shape]
        assert kept == ["noise"]
        assert _observed(inst).tobytes() == seen[0].tobytes()

    @pytest.mark.parametrize("noise_scale", [1e-3, 30.0], ids=["small-noise", "large-noise"])
    def test_observed_next_is_zero_at_full_rank(self, noise_scale):
        rng = np.random.default_rng(7)
        fac = low_rank_from_rng(LowRankSpec(9, 3, (40.0, 30.0, 20.0)), rng)
        inst = perturb(fac, noise_scale * rng.standard_normal((9, 3)))
        assert inst.svd_observed.singulars.size == 3
        assert inst.observed_next == 0.0
        assert inst.observed_spectrum is inst.svd_observed.singulars

    def test_rank_out_of_range_rejected(self):
        empty = SvdFactors(np.zeros((9, 0)), np.zeros(0), np.zeros((7, 0)))
        with pytest.raises(InvalidParameterError):
            perturb(empty, np.zeros((9, 7)))


def _deflated(inst):
    """The observed matrix with the held vectors on its Gram's side projected
    out: a - U U.T a when N <= n, else a - a V V.T, the transpose's deflation."""
    obs, a = inst.svd_observed, _observed(inst)
    if a.shape[0] <= a.shape[1]:
        return a - obs.left @ (obs.left.T @ a)
    return a - (a @ obs.right) @ obs.right.T


def _gate_size_instance(shape, variant, seed):
    """A certified rank-2 instance above the dense crossover: Haar factors,
    coherent factors, or Haar factors with noise at scale 0.5."""
    mode, scale = {"haar": ("haar", 1.0), "coherent": ("coherent", 1.0)}.get(
        variant, ("haar", 0.5)
    )
    rng = np.random.default_rng(seed)
    fac = low_rank_from_rng(LowRankSpec(*shape, (2.0e5, 1.2e5), factor_mode=mode), rng)
    inst = perturb(fac, scale * rng.standard_normal(shape))
    assert inst.svd_observed.singulars.size == 2  # certified
    return inst


class TestRemainderGram:
    shapes = pytest.mark.parametrize(
        "shape", [(700, 1000), (1000, 450), (900, 900)], ids=["wide", "tall", "square"]
    )
    variants = pytest.mark.parametrize("variant", ["haar", "coherent", "scaled"])

    @shapes
    @variants
    def test_update_matches_the_deflated_gram(self, shape, variant):
        inst = _gate_size_instance(shape, variant, sum(shape))
        direct = matcore._gram(_deflated(inst))
        got = inst.remainder_gram()
        assert got.shape == direct.shape == (min(shape),) * 2
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    @shapes
    @variants
    def test_observed_next_matches_the_direct_path(self, shape, variant):
        inst = _gate_size_instance(shape, variant, sum(shape) + 1)
        direct = gram_top(_deflated(inst))
        assert direct.spectrum is None  # both paths certified
        assert inst.observed_next == pytest.approx(direct.value, rel=1e-13)

    @pytest.mark.parametrize("shape", [(120, 100), (100, 120)], ids=["tall", "wide"])
    def test_observed_next_below_the_crossover_is_spectrum_entry_r(self, shape):
        # at or below TOP_DENSE_MAX observed_next is read from the spectrum,
        # the dense eigensolve of the one remainder Gram both facts share
        rng = np.random.default_rng(sum(shape))
        fac = low_rank_from_rng(LowRankSpec(*shape, (2.0e5, 1.2e5)), rng)
        inst = perturb(fac, rng.standard_normal(shape))
        assert inst.svd_observed.singulars.size == 2  # certified
        assert inst.observed_next == inst.observed_spectrum[2]
        u, a = inst.svd_observed.left, _observed(inst)
        direct = gram_spectrum(a - u @ (u.T @ a))[: min(shape) - 2]
        assert np.allclose(inst.observed_spectrum[2:], direct, rtol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(200, 150), (150, 200), (300, 300)], ids=["tall", "wide", "square"]
    )
    @pytest.mark.parametrize("spectrum_first", [False, True], ids=["next-first", "spectrum-first"])
    def test_trailing_reads_share_one_update_below_the_crossover(
        self, shape, spectrum_first, monkeypatch
    ):
        # after ||E||, as mirsky_check reads it, sigma~_{r+1} and the trailing
        # spectrum take one noise Gram, one update and one eigensolve of it,
        # in either read order
        rng = np.random.default_rng(sum(shape))
        fac = low_rank_from_rng(LowRankSpec(*shape, (2.0e4, 1.2e4)), rng)
        inst = perturb(fac, rng.standard_normal(shape))
        assert inst.svd_observed.singulars.size == 2  # certified
        calls = {"gram": 0, "update": 0, "eigvalsh": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        cls = models.PerturbationInstance
        monkeypatch.setattr(models, "_gram", counted("gram", models._gram))
        monkeypatch.setattr(cls, "remainder_gram", counted("update", cls.remainder_gram))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        inst.noise_top
        if spectrum_first:
            inst.observed_spectrum
        assert inst.observed_next == inst.observed_spectrum[2]
        assert calls == {"gram": 1, "update": 1, "eigvalsh": 2}

    @pytest.mark.parametrize(
        "shape, sigma", [((1000, 450), (2.0e5, 1.2e5)), ((200, 150), (2.0e4, 1.2e4))]
    )
    def test_tall_trailing_spectrum_matches_lapack(self, shape, sigma):
        # the tall remainder deflates the transpose by the held right vectors
        rng = np.random.default_rng(sum(shape) + 3)
        fac = low_rank_from_rng(LowRankSpec(*shape, sigma), rng)
        inst = perturb(fac, rng.standard_normal(shape))
        assert inst.svd_observed.singulars.size == 2  # certified
        ref = np.linalg.svd(_observed(inst), compute_uv=False)[2:]
        assert np.all(np.abs(inst.observed_spectrum[2:] - ref) <= 1e-12 * ref)

    def test_noise_facts_share_one_gram(self):
        inst = _gate_size_instance((900, 900), "haar", 3)
        assert inst.noise_top.value == gram_top(inst.noise).value
        inst.observed_next
        assert inst.noise_spectrum.tobytes() == gram_spectrum(inst.noise).tobytes()

    @pytest.mark.parametrize("shape", [(900, 900), (1000, 450)], ids=["square", "tall"])
    def test_noise_gram_is_formed_again_after_the_remainder(self, shape):
        # the remainder's Gram takes the noise Gram's array; a later read of
        # the noise spectrum forms the noise Gram again, bit for bit
        inst = _gate_size_instance(shape, "haar", sum(shape) + 2)
        inst.noise_top
        inst.observed_next
        assert "noise_gram" not in vars(inst)
        assert inst.noise_spectrum.tobytes() == gram_spectrum(inst.noise).tobytes()


class TestGmm:
    def spec(self, k=3, p=6, n=30, scale=10.0):
        return GmmSpec(
            n_features=p,
            n_samples=n,
            n_clusters=k,
            centers=scale * np.eye(k, p),
        )

    def test_balanced_sizes(self):
        spec = self.spec(k=3, n=31)
        labs = spec.labels()
        counts = np.bincount(labs)[1:]
        assert sorted(counts) == [10, 10, 11]

    def test_expected_matrix_matches_labels(self):
        spec = self.spec()
        for i in range(spec.n_samples):
            c = spec.truth.labels[i] - 1
            assert np.allclose(spec.expected[:, i], spec.centers[c])

    def test_noise_is_the_seeded_unit_gaussian(self):
        spec = self.spec()
        x = sample_gmm(spec, seed=5)
        noise = np.random.default_rng(5).standard_normal(spec.expected.shape)
        assert np.array_equal(x, spec.expected + noise)

    def test_draw_is_pinned_bit_for_bit(self):
        # the sha256 of the draw's bytes when it was a sample's .x
        x = sample_gmm(self.spec(), seed=5)
        assert isinstance(x, np.ndarray) and x.flags.writeable
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "145da51cab8071cc2ca598dcb7f2e54d4cc66a2c82b54caf878598cb0da00e2a"
        )

    def test_geometry_is_formed_once_and_read_only(self):
        spec = self.spec()
        assert spec.expected is spec.expected and spec.truth is spec.truth
        assert not spec.expected.flags.writeable
        assert sample_gmm(spec, seed=1) is not spec.expected

    def test_center_gap(self):
        spec = self.spec(scale=7.0)
        assert spec.center_gap == pytest.approx(7.0 * np.sqrt(2.0))

    def test_geometry_against_dense_svd(self):
        spec = self.spec(k=2, p=5, n=20, scale=4.0)
        sv = np.linalg.svd(spec.expected, compute_uv=False)
        assert spec.sigma_min == pytest.approx(sv[1], rel=1e-9)

    def test_truth_embedding_reconstructs_expected(self):
        spec = self.spec(k=3, p=8, n=24, scale=9.0)
        # the embedding is the expected matrix in an orthonormal basis of its
        # column space, so the two share their Gram matrix
        emb = spec.truth_embedding
        assert np.allclose(emb.T @ emb, spec.expected.T @ spec.expected, atol=1e-8)

    def test_custom_assignment(self):
        spec = GmmSpec(
            n_features=4,
            n_samples=5,
            n_clusters=2,
            centers=3.0 * np.eye(2, 4),
            assignment=(1, 1, 1, 2, 2),
        )
        labs = spec.labels()
        assert list(labs) == [1, 1, 1, 2, 2]

    def test_duplicate_centers_rejected(self):
        c = np.ones((2, 4))
        with pytest.raises(InvalidParameterError):
            GmmSpec(n_features=4, n_samples=10, n_clusters=2, centers=c)

    def test_empty_cluster_rejected(self):
        with pytest.raises(InvalidParameterError):
            GmmSpec(
                n_features=4,
                n_samples=3,
                n_clusters=2,
                centers=np.eye(2, 4),
                assignment=(1, 1, 1),
            )

    def test_determinism(self):
        spec = self.spec()
        assert np.array_equal(sample_gmm(spec, seed=9), sample_gmm(spec, seed=9))


class TestSubmatrix:
    def spec(self):
        return SubmatrixSpec(
            n_rows=12,
            n_cols=10,
            row_sets=((0, 1, 2), (5, 6)),
            col_sets=((0, 1), (4, 5, 6)),
            amplitudes=(3.0, -2.0),
        )

    def test_expected_blocks(self):
        spec = self.spec()
        assert np.all(spec.expected[np.ix_([0, 1, 2], [0, 1])] == 3.0)
        assert np.all(spec.expected[np.ix_([5, 6], [4, 5, 6])] == -2.0)
        assert spec.expected[11, 9] == 0.0

    def test_draw_is_the_noise_plus_the_blocks(self):
        spec = self.spec()
        x = plant_submatrices(spec, seed=1)
        noise = np.random.default_rng(1).standard_normal((12, 10))
        assert np.array_equal(x, noise + spec.expected)
        assert not spec.expected.flags.writeable and x.flags.writeable

    def test_draw_is_pinned_bit_for_bit(self):
        # the sha256 of the draw's bytes when it was a sample's .x
        x = plant_submatrices(self.spec(), seed=1)
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "1dab56faf90255a00b852796c00f3a9a7a89811c86cdbc81c28b386aa67b31cc"
        )

    def test_truth_labels_background(self):
        spec = self.spec()
        assert spec.row_truth.k == 3
        assert spec.row_truth.labels[0] == 1
        assert spec.row_truth.labels[5] == 2
        assert spec.row_truth.labels[11] == 3
        assert spec.col_truth.labels[4] == 2
        assert spec.col_truth.labels[9] == 3

    def test_gaps_and_minima(self):
        spec = self.spec()
        assert spec.min_rows == 2
        assert spec.min_cols == 2
        # distinct row profiles: (3,0), (0,-2), (0,0); the smallest pair
        # distance in l2 over the column-block coordinates
        assert spec.row_gap > 0
        assert spec.col_gap > 0

    def test_sigma_min_matches_dense(self):
        spec = self.spec()
        sv = np.linalg.svd(spec.expected, compute_uv=False)
        pos = sv[sv > 1e-9]
        assert spec.sigma_min == pytest.approx(pos[-1], rel=1e-9)

    def test_overlapping_rows_rejected(self):
        with pytest.raises(InvalidParameterError):
            SubmatrixSpec(
                n_rows=10,
                n_cols=10,
                row_sets=((0, 1), (1, 2)),
                col_sets=((0,), (1,)),
                amplitudes=(1.0, 1.0),
            )

    def test_zero_amplitude_rejected(self):
        with pytest.raises(InvalidParameterError):
            SubmatrixSpec(
                n_rows=10,
                n_cols=10,
                row_sets=((0,), (1,)),
                col_sets=((0,), (1,)),
                amplitudes=(1.0, 0.0),
            )

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidParameterError):
            SubmatrixSpec(
                n_rows=4,
                n_cols=4,
                row_sets=((0, 7),),
                col_sets=((0,),),
                amplitudes=(1.0,),
            )

    def test_determinism(self):
        spec = self.spec()
        assert np.array_equal(plant_submatrices(spec, seed=3), plant_submatrices(spec, seed=3))
