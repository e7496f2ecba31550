"""Seeded k-means and spectral clustering drivers, plus label matching.

Labels are 1-based. k-means is Lloyd iteration with k-means++ seeding,
multiple restarts and farthest-point repair of empty clusters; the whole
path is deterministic for a fixed config. Labels are matched by an exact
assignment solver for every k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import orthogonal_procrustes
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidInputError, InvalidParameterError
from .matcore import as_matrix, leading_svd
from .seeding import derive_seed
from .subspace import row_mass


@dataclass(frozen=True, eq=False)
class Labeling:
    """Cluster assignment: labels[i] in 1..k. k counts declared groups, some
    of which may be unused (empty)."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", lab)
        if lab.ndim != 1 or lab.size == 0:
            raise InvalidInputError("labels must be a nonempty 1-d sequence")
        if self.k < 1:
            raise InvalidParameterError("k must be at least 1")
        if lab.min() < 1 or lab.max() > self.k:
            raise InvalidInputError(f"labels must lie in 1..{self.k}")

    def __len__(self) -> int:
        return int(self.labels.size)

    def groups(self) -> list[np.ndarray]:
        """Member indices per label, index b holds label b+1. Empty groups stay."""
        return [np.flatnonzero(self.labels == b + 1) for b in range(self.k)]


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    restarts: int = 10
    max_iter: int = 100
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.restarts < 1 or self.max_iter < 1:
            raise InvalidParameterError("k, restarts and max_iter must be positive")
        if self.tol < 0:
            raise InvalidParameterError("tol must be nonnegative")


@dataclass(frozen=True)
class RecoveryResult:
    misclassification: float
    exact: bool


def _kpp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = int(rng.integers(n))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(pts, k, rng, max_iter, tol):
    n = pts.shape[0]
    centers = _kpp_init(pts, k, rng)
    labels = np.zeros(n, dtype=int)
    prev = np.inf
    inertia = np.inf
    for _ in range(max_iter):
        d2 = cdist(pts, centers, "sqeuclidean")
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            owndist = d2[np.arange(n), labels]
            for j in np.flatnonzero(counts == 0):
                far = int(owndist.argmax())
                # all points already sit on centers: leave the cluster empty
                if owndist[far] <= 0.0:
                    continue
                labels[far] = j
                centers[j] = pts[far]
                owndist[far] = 0.0
            counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j]:
                centers[j] = pts[labels == j].mean(axis=0)
        inertia = float(np.sum((pts - centers[labels]) ** 2))
        if prev - inertia <= tol * max(1.0, inertia):
            break
        prev = inertia
    return labels, centers, inertia


def kmeans(points, cfg: KMeansConfig):
    """Best-of-restarts Lloyd k-means.

    Returns (labeling, centers, inertia). Restart r uses the generator
    seeded with derive_seed(cfg.seed, r); ties on inertia keep the earliest
    restart.
    """
    pts = as_matrix(points)
    if pts.shape[0] < cfg.k:
        raise InvalidParameterError(
            f"need at least k={cfg.k} points, got {pts.shape[0]}"
        )
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng(derive_seed(cfg.seed, r))
        labels, centers, inertia = _lloyd(pts, cfg.k, rng, cfg.max_iter, cfg.tol)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia)
    labels, centers, inertia = best
    return Labeling(labels + 1, cfg.k), centers, inertia


def spectral_embedding(x, k: int) -> np.ndarray:
    """The k x n embedding U_k^T x of the columns of x on its top-k left
    singular subspace."""
    x = as_matrix(x)
    if k < 1 or k > min(x.shape):
        raise InvalidParameterError(f"k={k} out of range for shape {x.shape}")
    return leading_svd(x, k).left.T @ x


@dataclass(frozen=True)
class SubmatrixLabels:
    cols: Labeling
    rows: Labeling


def spectral_submatrix(x, k: int, cfg: KMeansConfig | None = None) -> SubmatrixLabels:
    """(k+1)-means on column and row embeddings of x.

    Columns are clustered through the top-k left subspace, rows through the
    top-k right subspace. The extra group absorbs indices outside every
    planted set and may come back empty.
    """
    x = as_matrix(x)
    if k < 1 or k > min(x.shape):
        raise InvalidParameterError(f"k={k} out of range for shape {x.shape}")
    cfg = KMeansConfig(k=k + 1) if cfg is None else replace(cfg, k=k + 1)
    f = leading_svd(x, k)
    col_emb = (f.left.T @ x).T
    row_emb = x @ f.right
    col_labeling, _, _ = kmeans(col_emb, cfg)
    row_labeling, _, _ = kmeans(row_emb, cfg)
    return SubmatrixLabels(cols=col_labeling, rows=row_labeling)


def _confusion(truth: Labeling, found: Labeling) -> np.ndarray:
    conf = np.zeros((truth.k, truth.k), dtype=np.int64)
    np.add.at(conf, (truth.labels - 1, found.labels - 1), 1)
    return conf


def match_labels(truth: Labeling, found: Labeling) -> RecoveryResult:
    """Misclassification under the best label bijection and exactness flag."""
    if len(truth) != len(found):
        raise InvalidInputError("labelings have different lengths")
    if truth.k != found.k:
        raise InvalidInputError(f"group counts differ: {truth.k} vs {found.k}")
    conf = _confusion(truth, found)
    rows, cols = linear_sum_assignment(conf, maximize=True)
    hits = int(conf[rows, cols].sum())
    rate = float(len(truth) - hits) / float(len(truth))
    return RecoveryResult(misclassification=rate, exact=(rate == 0.0))


def misclassification(truth: Labeling, found: Labeling) -> float:
    """Fraction of points misassigned under the best label bijection."""
    return match_labels(truth, found).misclassification


def embedding_gap(embedding, truth_embedding) -> float:
    """Largest column distance between a measured k x n embedding (see
    spectral_embedding) and the orthogonally aligned truth embedding."""
    emb = as_matrix(embedding)
    t = as_matrix(truth_embedding)
    if t.shape != emb.shape:
        raise InvalidInputError(
            f"truth embedding must be {emb.shape[0]} x {emb.shape[1]}, got {t.shape}"
        )
    rot, _ = orthogonal_procrustes(t.T, emb.T)
    diff = t.T @ rot - emb.T
    return row_mass(diff)
