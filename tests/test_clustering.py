import copy

import kmeans_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import orthogonal_procrustes
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from svperturb.clustering import (
    KMeansConfig,
    Labeling,
    _confusion,
    _kpp_init,
    _lloyd,
    _max_assignment,
    _sq_distances,
    embedding_gap,
    kmeans,
    match_labels,
    misclassification,
    spectral_embedding,
    spectral_submatrix,
)
from svperturb.errors import InvalidInputError, InvalidParameterError
from svperturb.models import GmmSpec, SubmatrixSpec, plant_submatrices, sample_gmm


def blobs(seed=0, k=3, per=40, spread=0.05, dim=2, sep=10.0):
    rng = np.random.default_rng(seed)
    centers = sep * rng.standard_normal((k, dim))
    pts = []
    labels = []
    for i in range(k):
        pts.append(centers[i] + spread * rng.standard_normal((per, dim)))
        labels.extend([i + 1] * per)
    return np.vstack(pts), Labeling(np.array(labels), k)


class TestLabeling:
    def test_validates_range(self):
        with pytest.raises(InvalidInputError):
            Labeling(np.array([0, 1]), 2)
        with pytest.raises(InvalidInputError):
            Labeling(np.array([1, 3]), 2)

    def test_len(self):
        assert len(Labeling(np.array([1, 1, 1]), 1)) == 3


class TestKMeans:
    def test_recovers_separated_blobs(self):
        pts, truth = blobs(seed=1)
        labs, centers, inertia = kmeans(pts, KMeansConfig(k=3, seed=0))
        assert misclassification(truth, labs) == 0.0
        assert centers.shape == (3, 2)
        assert inertia >= 0.0

    def test_deterministic_given_seed(self):
        pts, _ = blobs(seed=2)
        l1, c1, i1 = kmeans(pts, KMeansConfig(k=3, seed=5))
        l2, c2, i2 = kmeans(pts, KMeansConfig(k=3, seed=5))
        assert np.array_equal(l1.labels, l2.labels)
        assert np.array_equal(c1, c2)
        assert i1 == i2

    def test_single_cluster(self):
        pts = np.random.default_rng(3).standard_normal((20, 2))
        labs, centers, _ = kmeans(pts, KMeansConfig(k=1, seed=0))
        assert np.all(labs.labels == 1)
        assert np.allclose(centers[0], pts.mean(axis=0))

    def test_k_exceeding_points_rejected(self):
        pts = np.zeros((2, 2))
        with pytest.raises(InvalidParameterError):
            kmeans(pts, KMeansConfig(k=3, seed=0))

    def test_duplicate_points_tolerated(self):
        pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        labs, _, inertia = kmeans(pts, KMeansConfig(k=2, seed=1))
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert misclassification(
            Labeling(np.array([1] * 5 + [2] * 5), 2), labs
        ) == 0.0

    def test_inertia_decreases_with_k(self):
        pts, _ = blobs(seed=4, k=4, per=25)
        _, _, i2 = kmeans(pts, KMeansConfig(k=2, restarts=5, seed=0))
        _, _, i4 = kmeans(pts, KMeansConfig(k=4, restarts=5, seed=0))
        assert i4 <= i2 + 1e-9


def _points(seed, n, d, kind, span, fortran):
    """n x d points: a normal cloud with column scales, a mixture of tight
    blobs, or an integer grid in [0, span) full of duplicate points."""
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        pts = rng.standard_normal((n, d)) * np.exp(3.0 * rng.standard_normal(d))
    elif kind == "blobs":
        centers = 10.0 * rng.standard_normal((span + 1, d))
        pts = centers[rng.integers(0, span + 1, n)] + 0.3 * rng.standard_normal((n, d))
    else:
        pts = rng.integers(0, span, (n, d)).astype(float)
    # spectral embeddings reach kmeans as column-major transposes
    return np.asfortranarray(pts) if fortran else pts


@st.composite
def kmeans_cases(draw, max_d=5):
    n = draw(st.integers(3, 200))
    pts = _points(
        draw(st.integers(0, 2**32 - 1)),
        n,
        draw(st.integers(1, max_d)),
        draw(st.sampled_from(["cloud", "blobs", "grid"])),
        draw(st.integers(1, 3)),
        draw(st.booleans()),
    )
    cfg = KMeansConfig(
        k=draw(st.integers(1, min(n, 7))),
        restarts=draw(st.integers(1, 12)),
        max_iter=draw(st.integers(1, 30)),
        tol=draw(st.sampled_from([0.0, 1e-8, 1e-3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return pts, cfg


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestKMeansConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 3, "tol": float("nan")},
            {"k": 3, "tol": -1e-9},
            {"k": True},
            {"k": 3, "restarts": True},
            {"k": 3, "max_iter": False},
            {"k": 3.0},
            {"k": 3, "restarts": "10"},
        ],
        ids=[
            "tol-nan",
            "tol-negative",
            "k-bool",
            "restarts-bool",
            "max_iter-bool",
            "k-float",
            "restarts-str",
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            KMeansConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = KMeansConfig(k=np.int64(3), restarts=np.int32(2), max_iter=np.uint8(5))
        assert (cfg.k, cfg.restarts, cfg.max_iter) == (3, 2, 5)


class TestBatchedKMeans:
    """The batched kmeans against the per-restart loop in kmeans_reference."""

    @given(kmeans_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bit_for_bit(self, case):
        pts, cfg = case
        got_lab, got_centers, got_inertia = kmeans(pts, cfg)
        want_lab, want_centers, want_inertia = kmeans_reference.kmeans(pts, cfg)
        assert np.array_equal(got_lab.labels, want_lab.labels)
        assert _same_bits(got_centers, want_centers)
        assert got_inertia == want_inertia

    @given(kmeans_cases(max_d=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_wide_points(self, case):
        # rows of 9 or more coordinates are where numpy's pairwise sums
        # depend on memory layout
        pts, cfg = case
        got = kmeans(pts, cfg)
        want = kmeans_reference.kmeans(pts, cfg)
        assert np.array_equal(got[0].labels, want[0].labels)
        assert _same_bits(got[1], want[1]) and got[2] == want[2]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 30),
        st.integers(1, 20),
        st.integers(1, 12),
        st.sampled_from(["C", "F"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_distances_equal_cdist_bit_for_bit(self, seed, n, m, d, order):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4, size=d)
        pts = np.asarray(rng.standard_normal((n, d)) * scale, order=order)
        centers = rng.standard_normal((m, d)) * scale
        want = cdist(pts, centers, "sqeuclidean")
        assert _same_bits(_sq_distances(pts, centers), want)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 3),
        st.sampled_from(["cloud", "grid"]),
        st.integers(1, 3),
        st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_seeding_draws_equal_generator_choice(self, seed, n, d, kind, span, restarts):
        # the reference seeds through Generator.choice; the batched seeding
        # spells that draw out and must take the same centers and leave
        # each generator in the same state
        pts = _points(seed, n, d, kind, span, False)
        k = min(n, 5)
        rngs = [np.random.default_rng(seed + r) for r in range(restarts)]
        clones = [copy.deepcopy(rng) for rng in rngs]
        got = _kpp_init(pts, k, rngs)
        for r, clone in enumerate(clones):
            want = kmeans_reference._kpp_init(pts, k, clone)
            assert _same_bits(got[r], want)
            assert rngs[r].bit_generator.state == clone.bit_generator.state

    @given(kmeans_cases(), st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
    @settings(max_examples=150, deadline=None)
    def test_lloyd_from_any_centers_matches_reference(self, case, seed, spread):
        # k-means++ almost never leaves a cluster empty while some point is
        # off its center; arbitrary starting centers do, so this runs the
        # repair that moves the farthest point
        pts, cfg = case
        start = spread * np.random.default_rng(seed).standard_normal(
            (cfg.restarts, cfg.k, pts.shape[1])
        )
        centers = start.copy()
        labels, inertia = _lloyd(pts, centers, cfg.max_iter, cfg.tol)
        for r in range(cfg.restarts):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kmeans_reference, "_kpp_init", lambda *_, r=r: start[r].copy())
                want = kmeans_reference._lloyd(pts, cfg.k, None, cfg.max_iter, cfg.tol)
            assert np.array_equal(labels[r], want[0])
            assert _same_bits(centers[r], want[1])
            assert inertia[r] == want[2]

    def test_identical_points_leave_clusters_empty(self):
        # every point sits on a center, so the empty clusters stay empty
        pts = np.ones((6, 2))
        cfg = KMeansConfig(k=3, restarts=3, seed=4)
        got = kmeans(pts, cfg)
        want = kmeans_reference.kmeans(pts, cfg)
        assert np.all(got[0].labels == 1)
        assert np.array_equal(got[0].labels, want[0].labels)
        assert _same_bits(got[1], want[1]) and got[2] == want[2] == 0.0

    def test_overflowing_distances_rejected(self):
        pts = np.array([[0.0], [1e200], [-1e200]])
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
            kmeans(pts, KMeansConfig(k=2))


class TestMisclassification:
    def test_identical(self):
        t = Labeling(np.array([1, 1, 2, 2]), 2)
        assert misclassification(t, t) == 0.0

    def test_swap_is_zero(self):
        t = Labeling(np.array([1, 1, 2, 2]), 2)
        f = Labeling(np.array([2, 2, 1, 1]), 2)
        assert misclassification(t, f) == 0.0

    def test_half(self):
        t = Labeling(np.array([1, 1, 2, 2]), 2)
        f = Labeling(np.array([1, 2, 1, 2]), 2)
        assert misclassification(t, f) == 0.5

    def test_single_flip(self):
        t = Labeling(np.array([1, 1, 1, 2, 2, 2]), 2)
        f = Labeling(np.array([1, 1, 2, 2, 2, 2]), 2)
        assert misclassification(t, f) == pytest.approx(1.0 / 6.0)

    def test_length_mismatch_rejected(self):
        t = Labeling(np.array([1, 2]), 2)
        f = Labeling(np.array([1, 2, 1]), 2)
        with pytest.raises(InvalidInputError):
            misclassification(t, f)

    def test_k_mismatch_rejected(self):
        t = Labeling(np.array([1, 2]), 2)
        f = Labeling(np.array([1, 3]), 3)
        with pytest.raises(InvalidInputError):
            misclassification(t, f)

    @given(st.permutations(list(range(1, 5))), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_relabeling(self, perm, seed):
        rng = np.random.default_rng(seed)
        k = 4
        n = 40
        truth = Labeling(rng.integers(1, k + 1, size=n), k)
        found = Labeling(rng.integers(1, k + 1, size=n), k)
        lut = np.array([0] + list(perm))
        renamed = Labeling(lut[found.labels], k)
        assert misclassification(truth, found) == pytest.approx(
            misclassification(truth, renamed)
        )

    def test_large_k_uses_assignment_solver(self):
        rng = np.random.default_rng(7)
        k = 12  # beyond the enumeration limit
        truth_labels = np.repeat(np.arange(1, k + 1), 5)
        perm = rng.permutation(k) + 1
        found_labels = perm[truth_labels - 1]
        t = Labeling(truth_labels, k)
        f = Labeling(found_labels, k)
        assert misclassification(t, f) == 0.0


@st.composite
def confusion_matrix(draw):
    """An integer k x k matrix, k in 1..12: small entries with many ties or
    wide ones, some rows and columns zeroed, or the confusion of two
    labelings (one a relabeled, partly scrambled copy of the other)."""
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["ties", "wide", "labelings"]))
    if form == "labelings":
        n = draw(st.integers(1, 300))
        truth = rng.integers(1, k + 1, size=n)
        found = rng.permutation(k)[truth - 1] + 1
        scrambled = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        found[scrambled] = rng.integers(1, k + 1, size=int(scrambled.sum()))
        return _confusion(Labeling(truth, k), Labeling(found, k))
    conf = rng.integers(0, 3 if form == "ties" else 10**6, size=(k, k))
    zeroed = draw(st.sampled_from([0.0, 0.3, 1.0]))
    conf[rng.random(k) < zeroed] = 0
    conf[:, rng.random(k) < zeroed] = 0
    return conf


class TestMatchLabels:
    @given(confusion_matrix())
    @settings(max_examples=300, deadline=None)
    def test_optimum_equals_linear_sum_assignment(self, conf):
        rows, cols = linear_sum_assignment(conf, maximize=True)
        assert _max_assignment(conf) == int(conf[rows, cols].sum())

    def test_exact_and_permutation(self):
        t = Labeling(np.array([1, 1, 2, 2, 3, 3]), 3)
        f = Labeling(np.array([3, 3, 1, 1, 2, 2]), 3)
        res = match_labels(t, f)
        assert res.exact
        assert res.misclassification == 0.0

    def test_inexact(self):
        t = Labeling(np.array([1, 1, 2, 2]), 2)
        f = Labeling(np.array([1, 2, 2, 2]), 2)
        res = match_labels(t, f)
        assert not res.exact
        assert res.misclassification == pytest.approx(0.25)


class TestSpectral:
    def test_gmm_recovery_moderate_separation(self):
        spec = GmmSpec(
            n_features=20,
            n_samples=150,
            n_clusters=3,
            centers=25.0 * np.eye(3, 20),
        )
        x = sample_gmm(spec, seed=11)
        found, _, _ = kmeans(spectral_embedding(x, 3).T, KMeansConfig(k=3, seed=1))
        assert misclassification(spec.truth, found) == 0.0

    def test_gmm_partition_invariant_under_left_rotation(self):
        spec = GmmSpec(
            n_features=10,
            n_samples=60,
            n_clusters=2,
            centers=30.0 * np.eye(2, 10),
        )
        x = sample_gmm(spec, seed=12)
        q = np.linalg.qr(np.random.default_rng(13).standard_normal((10, 10)))[0]
        cfg = KMeansConfig(k=2, restarts=8, seed=2)
        f1, _, _ = kmeans(spectral_embedding(x, 2).T, cfg)
        f2, _, _ = kmeans(spectral_embedding(q @ x, 2).T, cfg)
        assert misclassification(f1, f2) == 0.0

    def test_submatrix_recovery(self):
        spec = SubmatrixSpec(
            n_rows=80,
            n_cols=80,
            row_sets=(tuple(range(0, 20)), tuple(range(20, 40))),
            col_sets=(tuple(range(0, 20)), tuple(range(20, 40))),
            amplitudes=(30.0, -30.0),
        )
        x = plant_submatrices(spec, seed=14)
        labs = spectral_submatrix(x, 2, KMeansConfig(k=3, restarts=10, seed=3))
        assert misclassification(spec.col_truth, labs.cols) == 0.0
        assert misclassification(spec.row_truth, labs.rows) == 0.0

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_embedding_gap_matches_procrustes_reference(self, k, seed):
        rng = np.random.default_rng(seed)
        truth = rng.standard_normal((k, 30))
        emb = rng.standard_normal((k, k)) @ truth + 0.1 * rng.standard_normal((k, 30))
        rot, _ = orthogonal_procrustes(truth.T, emb.T)
        want = np.sqrt(((truth.T @ rot - emb.T) ** 2).sum(axis=1)).max()
        assert embedding_gap(emb, truth) == pytest.approx(want, rel=1e-12)

    def test_embedding_gap_zero_noise(self):
        spec = GmmSpec(
            n_features=8,
            n_samples=40,
            n_clusters=2,
            centers=5.0 * np.eye(2, 8),
        )
        gap = embedding_gap(spectral_embedding(spec.expected, 2), spec.truth_embedding)
        assert gap == pytest.approx(0.0, abs=1e-8)

