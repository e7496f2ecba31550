import numpy as np
import pytest

from svperturb.errors import InvalidInputError, InvalidParameterError
from svperturb.matcore import svd
from svperturb.models import (
    GmmSpec,
    LowRankSpec,
    SubmatrixSpec,
    haar_basis,
    low_rank_from_rng,
    perturb,
    plant_submatrices,
    sample_gmm,
)
from svperturb.seeding import derive_seed


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
        a, fac = low_rank_from_rng(spec, np.random.default_rng(3))
        assert np.allclose(fac.singulars[:3], [9.0, 4.0, 1.0])
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sv[:3], [9.0, 4.0, 1.0], atol=1e-9)
        assert np.allclose(sv[3:], 0.0, atol=1e-9)

    def test_deterministic(self):
        spec = LowRankSpec(10, 10, (5.0, 2.0))
        a1, _ = low_rank_from_rng(spec, np.random.default_rng(4))
        a2, _ = low_rank_from_rng(spec, np.random.default_rng(4))
        assert np.array_equal(a1, a2)

    def test_ties_allowed(self):
        spec = LowRankSpec(8, 8, (3.0, 3.0, 1.0))
        a, fac = low_rank_from_rng(spec, np.random.default_rng(5))
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
        a, fac = low_rank_from_rng(spec, np.random.default_rng(6))
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
        first, _ = low_rank_from_rng(spec, rng)
        second, _ = low_rank_from_rng(spec, rng)
        assert not np.array_equal(first, second)
        replay = np.random.default_rng(9)
        assert np.array_equal(low_rank_from_rng(spec, replay)[0], first)
        assert np.array_equal(low_rank_from_rng(spec, replay)[0], second)


class TestPerturb:
    def test_fields_and_sum(self):
        spec = LowRankSpec(9, 7, (4.0, 2.0))
        a, _ = low_rank_from_rng(spec, np.random.default_rng(1))
        e = np.random.default_rng(2).standard_normal((9, 7))
        inst = perturb(a, e)
        assert np.array_equal(inst.observed, a + e)
        assert inst.shape == (9, 7)
        assert inst.rank() == 2

    def test_signal_svd_is_cut_to_the_rank(self):
        # a rank-r signal keeps r vector pairs and r values, so every bound reads one rank
        a, _ = low_rank_from_rng(LowRankSpec(9, 7, (4.0, 2.0)), np.random.default_rng(1))
        e = np.random.default_rng(2).standard_normal((9, 7))
        inst = perturb(a, e)
        sig = inst.svd_signal
        assert inst.rank() == sig.vector_count == sig.singulars.size == 2
        assert np.allclose((sig.left * sig.singulars) @ sig.right.T, a, atol=1e-12)
        assert perturb(np.zeros((9, 7)), e).rank() == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            perturb(np.ones((3, 3)), np.ones((3, 4)))

    def test_svds_are_consistent(self):
        spec = LowRankSpec(9, 7, (4.0, 2.0))
        a, _ = low_rank_from_rng(spec, np.random.default_rng(1))
        e = 0.01 * np.random.default_rng(2).standard_normal((9, 7))
        inst = perturb(a, e)
        assert np.allclose(
            inst.svd_observed.left
            @ np.diag(inst.svd_observed.singulars)
            @ inst.svd_observed.right.T,
            inst.observed,
            atol=1e-9,
        )

    def test_exact_factors_replace_the_signal_svd(self):
        spec = LowRankSpec(60, 45, (900.0, 500.0))
        a, fac = low_rank_from_rng(spec, np.random.default_rng(3))
        e = np.random.default_rng(4).standard_normal((60, 45))
        inst = perturb(a, e, factors=fac)
        assert inst.svd_signal is fac
        assert inst.rank() == 2
        observed = inst.svd_observed
        # certified: two pairs and their two Ritz values; the rest on first read
        assert observed.vector_count == observed.singulars.size == 2
        assert np.allclose(inst.observed_spectrum, svd(a + e).singulars, rtol=1e-12)
        full = perturb(a, e).svd_observed
        for i in range(2):
            assert abs(observed.left[:, i] @ full.left[:, i]) == pytest.approx(1.0, abs=1e-12)
            assert abs(observed.right[:, i] @ full.right[:, i]) == pytest.approx(1.0, abs=1e-12)

    def test_fallback_holds_every_observed_value(self):
        # the command-line model: no certificate, so LAPACK supplies all 60 values
        spec = LowRankSpec(80, 60, (40.0, 30.0, 20.0))
        a, fac = low_rank_from_rng(spec, np.random.default_rng(5))
        e = np.random.default_rng(6).standard_normal((80, 60))
        inst = perturb(a, e, factors=fac)
        assert inst.svd_observed.vector_count == 3
        assert np.array_equal(inst.svd_observed.singulars, svd(a + e).singulars)
        assert inst.observed_spectrum is inst.svd_observed.singulars

    def test_factors_must_fit_the_signal(self):
        a, fac = low_rank_from_rng(LowRankSpec(9, 7, (4.0, 2.0)), np.random.default_rng(1))
        with pytest.raises(InvalidInputError):
            perturb(a.T, np.random.default_rng(2).standard_normal((7, 9)), factors=fac)


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
        sample = sample_gmm(spec, seed=5)
        for i in range(spec.n_samples):
            c = sample.truth.labels[i] - 1
            assert np.allclose(sample.expected[:, i], spec.centers[c])

    def test_noise_is_the_seeded_unit_gaussian(self):
        spec = self.spec()
        sample = sample_gmm(spec, seed=5)
        noise = np.random.default_rng(5).standard_normal(sample.expected.shape)
        assert np.array_equal(sample.x, sample.expected + noise)

    def test_center_gap(self):
        spec = self.spec(scale=7.0)
        sample = sample_gmm(spec, seed=6)
        assert sample.center_gap == pytest.approx(7.0 * np.sqrt(2.0))

    def test_geometry_against_dense_svd(self):
        spec = self.spec(k=2, p=5, n=20, scale=4.0)
        sample = sample_gmm(spec, seed=7)
        sv = np.linalg.svd(sample.expected, compute_uv=False)
        assert sample.sigma_min == pytest.approx(sv[1], rel=1e-9)

    def test_truth_embedding_reconstructs_expected(self):
        spec = self.spec(k=3, p=8, n=24, scale=9.0)
        sample = sample_gmm(spec, seed=8)
        # the embedding is the expected matrix in an orthonormal basis of its
        # column space, so the two share their Gram matrix
        emb = sample.truth_embedding
        assert np.allclose(emb.T @ emb, sample.expected.T @ sample.expected, atol=1e-8)

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
        s1 = sample_gmm(spec, seed=9)
        s2 = sample_gmm(spec, seed=9)
        assert np.array_equal(s1.x, s2.x)


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
        sample = plant_submatrices(spec, seed=1)
        assert np.all(sample.expected[np.ix_([0, 1, 2], [0, 1])] == 3.0)
        assert np.all(sample.expected[np.ix_([5, 6], [4, 5, 6])] == -2.0)
        assert sample.expected[11, 9] == 0.0

    def test_truth_labels_background(self):
        spec = self.spec()
        sample = plant_submatrices(spec, seed=1)
        assert sample.row_truth.k == 3
        assert sample.row_truth.labels[0] == 1
        assert sample.row_truth.labels[5] == 2
        assert sample.row_truth.labels[11] == 3
        assert sample.col_truth.labels[4] == 2
        assert sample.col_truth.labels[9] == 3

    def test_gaps_and_minima(self):
        spec = self.spec()
        sample = plant_submatrices(spec, seed=1)
        assert sample.min_rows == 2
        assert sample.min_cols == 2
        # distinct row profiles: (3,0), (0,-2), (0,0); the smallest pair
        # distance in l2 over the column-block coordinates
        assert sample.row_gap > 0
        assert sample.col_gap > 0

    def test_sigma_min_matches_dense(self):
        spec = self.spec()
        sample = plant_submatrices(spec, seed=2)
        sv = np.linalg.svd(sample.expected, compute_uv=False)
        pos = sv[sv > 1e-9]
        assert sample.sigma_min == pytest.approx(pos[-1], rel=1e-9)

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
        s1 = plant_submatrices(spec, seed=3)
        s2 = plant_submatrices(spec, seed=3)
        assert np.array_equal(s1.x, s2.x)
