"""Seeded k-means and spectral clustering drivers, plus label matching.

Labels are 1-based. k-means is Lloyd iteration with k-means++ seeding,
restarts that run as one batch and farthest-point repair of empty
clusters; the whole path is deterministic for a fixed config. Labels are
matched through the optimal value of a k x k assignment problem, solved
exactly by the Hungarian method for every k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .matcore import as_matrix, leading_svd
from .seeding import derive_seed
from .subspace import _rotation, row_mass


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


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    restarts: int = 10
    max_iter: int = 100
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "restarts", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if self.k < 1 or self.restarts < 1 or self.max_iter < 1:
            raise InvalidParameterError("k, restarts and max_iter must be positive")
        if not self.tol >= 0:
            raise InvalidParameterError("tol must be nonnegative")


@dataclass(frozen=True)
class RecoveryResult:
    misclassification: float
    exact: bool


def _kpp_init(pts: np.ndarray, k: int, rngs: list) -> np.ndarray:
    """k-means++ centers of every restart, shape (R, k, d).

    Restart r draws only from rngs[r]. A weighted draw is Generator.choice(n,
    p=q) written out: one random() u, then the count of normalized cumsum(q)
    entries <= u.
    """
    n = pts.shape[0]
    idx = np.array([rng.integers(n) for rng in rngs])
    centers = np.empty((len(rngs), k, pts.shape[1]))
    centers[:, 0] = pts[idx]
    d2 = np.sum((pts - centers[:, :1]) ** 2, axis=2)
    for j in range(1, k):
        total = d2.sum(axis=1)
        if not np.all(np.isfinite(total)):
            raise InvalidInputError("squared distances overflow")
        drawn = total > 0
        cdf = np.cumsum(d2 / np.where(drawn, total, 1.0)[:, None], axis=1)
        cdf /= np.where(drawn, cdf[:, -1], 1.0)[:, None]
        for r, rng in enumerate(rngs):
            idx[r] = np.count_nonzero(cdf[r] <= rng.random()) if drawn[r] else rng.integers(n)
        centers[:, j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[:, j : j + 1]) ** 2, axis=2))
    return centers


def _fill_empty(pts, d2, labels, centers, counts) -> None:
    """Move the farthest points into the empty clusters of one restart, in place."""
    owndist = d2[np.arange(pts.shape[0]), labels]
    for j in np.flatnonzero(counts == 0):
        far = int(owndist.argmax())
        # all points already sit on centers: leave the cluster empty
        if owndist[far] <= 0.0:
            continue
        labels[far] = j
        centers[j] = pts[far]
        owndist[far] = 0.0


def _sq_distances(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from the points to the m centers.

    Each distance is summed one coordinate after another, the order of a
    scalar loop s += (x_j - c_j)**2, which is how a per-pair distance
    routine sums; a pairwise or blocked sum would round differently and
    could move a label.
    """
    d2 = (pts[:, :1] - centers[:, 0]) ** 2
    for j in range(1, pts.shape[1]):
        d2 += (pts[:, j : j + 1] - centers[:, j]) ** 2
    return d2


def _lloyd(pts, centers, max_iter, tol):
    """Lloyd rounds of every restart from the (R, k, d) centers, which are
    updated in place. The live restarts advance together and each stops on
    its own inertia test. Returns the (R, n) labels and the (R,) inertias."""
    n_rest, k, d = centers.shape
    n = pts.shape[0]
    labels = np.zeros((n_rest, n), dtype=int)
    inertia = np.full(n_rest, np.inf)
    prev = np.full(n_rest, np.inf)
    live = np.arange(n_rest)
    weights = np.tile(pts.ravel(), n_rest)
    for _ in range(max_iter):
        n_live = live.size
        cen = centers[live]
        rows = np.arange(n_live)[:, None]
        d2 = _sq_distances(pts, cen.reshape(-1, d)).reshape(n, n_live, k)
        lab = np.ascontiguousarray(d2.argmin(axis=2).T)
        key = lab + k * rows
        counts = np.bincount(key.ravel(), minlength=n_live * k).reshape(n_live, k)
        empty = np.flatnonzero((counts == 0).any(axis=1))
        if empty.size:
            for r in empty:
                _fill_empty(pts, d2[:, r], lab[r], cen[r], counts[r])
            key = lab + k * rows
            counts = np.bincount(key.ravel(), minlength=n_live * k).reshape(n_live, k)
        if d == 1:
            # numpy sums a one-column selection pairwise, bincount row by row
            sums = np.array([[pts[row == j].sum(axis=0) for j in range(k)] for row in lab])
        else:
            cells = ((key * d)[:, :, None] + np.arange(d)).ravel()
            sums = np.bincount(cells, weights[: cells.size], minlength=n_live * k * d)
            sums = sums.reshape(n_live, k, d)
        np.divide(sums, counts[:, :, None], out=cen, where=counts[:, :, None] > 0)
        # one row-major pairwise sum per restart, as np.sum over one restart
        now = np.sum(((pts - cen[rows, lab]) ** 2).reshape(n_live, -1), axis=1)
        centers[live] = cen
        labels[live] = lab
        inertia[live] = now
        done = prev[live] - now <= tol * np.maximum(1.0, now)
        prev[live] = now
        live = live[~done]
        if not live.size:
            break
    return labels, inertia


def kmeans(points, cfg: KMeansConfig):
    """Best-of-restarts Lloyd k-means.

    Returns (labeling, centers, inertia). The restarts run together: one
    k-means++ seeding and one set of Lloyd rounds advance all of them, and
    a restart drops out when its own inertia test stops it. Restart r draws
    only from the generator seeded with derive_seed(cfg.seed, r), so each
    restart makes the same draws as it would alone. Ties on inertia keep the
    earliest restart. The distance array holds restarts * n * k doubles.
    """
    pts = as_matrix(points)
    if pts.shape[0] < cfg.k:
        raise InvalidParameterError(
            f"need at least k={cfg.k} points, got {pts.shape[0]}"
        )
    rngs = [np.random.default_rng(derive_seed(cfg.seed, r)) for r in range(cfg.restarts)]
    centers = _kpp_init(pts, cfg.k, rngs)
    labels, inertia = _lloyd(pts, centers, cfg.max_iter, cfg.tol)
    best = min(range(cfg.restarts), key=inertia.__getitem__)
    return Labeling(labels[best] + 1, cfg.k), centers[best], float(inertia[best])


def spectral_embedding(x, k: int) -> np.ndarray:
    """The k x n embedding U_k^T x of the columns of x on its top-k left
    singular subspace."""
    x = np.asarray(x, dtype=float)  # leading_svd checks x and k
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
    x = np.asarray(x, dtype=float)
    f = leading_svd(x, k)  # checks x and k
    cfg = KMeansConfig(k=k + 1) if cfg is None else replace(cfg, k=k + 1)
    col_emb = (f.left.T @ x).T
    row_emb = x @ f.right
    col_labeling, _, _ = kmeans(col_emb, cfg)
    row_labeling, _, _ = kmeans(row_emb, cfg)
    return SubmatrixLabels(cols=col_labeling, rows=row_labeling)


def _confusion(truth: Labeling, found: Labeling) -> np.ndarray:
    conf = np.zeros((truth.k, truth.k), dtype=np.int64)
    np.add.at(conf, (truth.labels - 1, found.labels - 1), 1)
    return conf


def _max_assignment(conf: np.ndarray) -> int:
    """Largest sum of k entries of the integer k x k matrix conf, one in each
    row and each column.

    Hungarian method with row and column potentials (Kuhn 1955; Munkres
    1957), O(k^3) on Python integers, so the value is exact. It minimizes
    the cost -conf, adding one row per outer step and growing a shortest
    augmenting path over the columns. k is a cluster count, so scalar loops
    cost less here than array operations.
    """
    cost = [[-x for x in row] for row in conf.tolist()]
    k = len(cost)
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    row_of = [0] * (k + 1)  # row_of[j]: the row matched to column j, 0 for none
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        slack = [float("inf")] * (k + 1)
        came_from = [0] * (k + 1)
        used = [False] * (k + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            delta, j1 = float("inf"), 0
            for j in range(1, k + 1):
                if not used[j]:
                    reduced = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], came_from[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(k + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = came_from[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return sum(int(conf[row_of[j] - 1, j - 1]) for j in range(1, k + 1))


def match_labels(truth: Labeling, found: Labeling) -> RecoveryResult:
    """Misclassification under the best label bijection and exactness flag."""
    if len(truth) != len(found):
        raise InvalidInputError("labelings have different lengths")
    if truth.k != found.k:
        raise InvalidInputError(f"group counts differ: {truth.k} vs {found.k}")
    hits = _max_assignment(_confusion(truth, found))
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
    diff = t.T @ _rotation(t.T, emb.T) - emb.T
    return row_mass(diff)
