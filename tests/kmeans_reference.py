"""Reference k-means: one restart after another, k-means++ seeding through
Generator.choice, then Lloyd rounds with per-cluster means.

This is the loop that svperturb.clustering.kmeans ran before its restarts
were batched. The batched kmeans must return the same labels, centers and
inertia bit for bit; tests/test_clustering.py checks that property.
"""

import numpy as np
from scipy.spatial.distance import cdist

from svperturb.clustering import KMeansConfig, Labeling
from svperturb.errors import InvalidParameterError
from svperturb.matcore import as_matrix
from svperturb.seeding import derive_seed


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
