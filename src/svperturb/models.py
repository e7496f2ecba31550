"""Seeded generators: low-rank signals, mixtures, planted blocks.

Every generator is bit-reproducible from an integer seed via
numpy.random.default_rng. Row/column index sets are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clustering import Labeling
from .errors import InvalidInputError, InvalidParameterError
from .matcore import SvdFactors, as_matrix, effective_rank, gram_spectrum, leading_svd, svd


def _signed_q(g: np.ndarray) -> np.ndarray:
    """Q of the QR of g, each column's sign flipped to make R's diagonal nonnegative."""
    q, r = np.linalg.qr(g)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def haar_basis(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Haar-distributed n x d orthonormal basis.

    QR of a Gaussian matrix with the R-diagonal sign correction, so the
    distribution is exactly rotation invariant.
    """
    if d > n:
        raise InvalidParameterError(f"cannot fit {d} orthonormal columns in R^{n}")
    return _signed_q(rng.standard_normal((n, d)))


def check_spectrum(n_rows: int, n_cols: int, singulars) -> tuple[float, ...]:
    """The rule of a rank-r N x n spectrum: positive dimensions, 1 <= r <=
    min(N, n), and finite, positive, descending values (ties allowed).
    Returns the values as floats."""
    values = tuple(float(v) for v in singulars)
    if n_rows < 1 or n_cols < 1:
        raise InvalidParameterError("matrix dimensions must be positive")
    r = len(values)
    if r < 1 or r > min(n_rows, n_cols):
        raise InvalidParameterError(f"rank {r} out of range for the shape")
    s = np.asarray(values)
    if not np.all(np.isfinite(s)) or np.any(s <= 0) or np.any(np.diff(s) > 0):
        raise InvalidParameterError("singulars must be positive and descending")
    return values


@dataclass(frozen=True)
class LowRankSpec:
    """Deterministic spectrum with random singular factors.

    singulars must be positive and descending (ties allowed). factor_mode
    'haar' draws both factors Haar; 'coherent' pins the leading left
    singular vector to the coordinate axis coherent_row, which maximizes
    left-factor row mass (largest row length 1).
    """

    n_rows: int
    n_cols: int
    singulars: tuple[float, ...]
    factor_mode: str = "haar"
    coherent_row: int = 0

    def __post_init__(self):
        singulars = check_spectrum(self.n_rows, self.n_cols, self.singulars)
        object.__setattr__(self, "singulars", singulars)
        if self.factor_mode not in ("haar", "coherent"):
            raise InvalidParameterError(f"unknown factor_mode {self.factor_mode!r}")
        if not 0 <= self.coherent_row < self.n_rows:
            raise InvalidParameterError("coherent_row out of range")

    @property
    def rank(self) -> int:
        return len(self.singulars)


def low_rank_from_rng(spec: LowRankSpec, rng: np.random.Generator):
    """Matrix with the exact requested spectrum, plus its thin rank-r factors,
    drawn from a caller-owned generator stream."""
    r = spec.rank
    if spec.factor_mode == "coherent":
        g = rng.standard_normal((spec.n_rows, r))
        g[:, 0] = 0.0
        g[spec.coherent_row, :] = 0.0
        g[spec.coherent_row, 0] = 1.0
        u = _signed_q(g)
    else:
        u = haar_basis(rng, spec.n_rows, r)
    v = haar_basis(rng, spec.n_cols, r)
    s = np.asarray(spec.singulars)
    a = (u * s) @ v.T
    return a, SvdFactors(left=u, singulars=s, right=v)


@dataclass(frozen=True, eq=False)
class PerturbationInstance:
    """A signal/noise pair with the factorizations the bounds read.

    observed = signal + noise. svd_signal holds the signal's rank-r
    factors: r vector pairs and r singular values, r being the rank. ``rank``
    reads r there, so every bound sees one rank. svd_observed holds the
    leading r observed vector pairs, or all min(N, n) of them, under the
    deterministic sign convention, and at least as many observed singular
    values as pairs (see ``perturb``). ``observed_spectrum`` has all
    min(N, n) observed values.
    """

    signal: np.ndarray
    noise: np.ndarray
    observed: np.ndarray
    svd_signal: SvdFactors
    svd_observed: SvdFactors

    @property
    def shape(self) -> tuple[int, int]:
        return (self.signal.shape[0], self.signal.shape[1])

    def rank(self) -> int:
        return self.svd_signal.vector_count

    @cached_property
    def observed_spectrum(self) -> np.ndarray:
        """All min(N, n) observed singular values, descending, formed on first read.

        When svd_observed holds them all, they are its values. Otherwise it
        holds the c certified Ritz triplets (U, s, V) of ``leading_svd``, and
        the values are s followed by the leading min(N, n) - c values of
        ``gram_spectrum(observed - U (U.T observed))``. With eta the
        certificate's residual, the observed matrix lies within eta of the
        block-diagonal matrix with blocks U diag(s) V.T and the deflated
        remainder (I - U U.T) observed (I - V V.T), and (I - U U.T) observed
        lies within eta of that remainder, so by Weyl each trailing value is
        within about 2 eta of the exact one, and each Ritz value within eta.
        Gram rounding adds about eps * tau^2 / sigma, at the scale
        tau = ||observed - U diag(s) V.T||_F of the remainder, not at sigma_1:
        gauge and resolvent-sum precision rather than LAPACK's.
        """
        held = self.svd_observed.singulars
        m = min(self.shape)
        if held.size == m:
            return held
        u, a = self.svd_observed.left, self.observed
        return np.concatenate((held, gram_spectrum(a - u @ (u.T @ a))[: m - held.size]))


def perturb(signal, noise, factors: SvdFactors | None = None) -> PerturbationInstance:
    """Form signal + noise and factorize both.

    Without `factors` both matrices get a full min(N, n)-column SVD, and
    the signal's is cut to its numerical rank r: the values above 1e-10
    times the largest, with their vector pairs. With the signal's exact thin
    factors (as ``low_rank_from_rng`` returns them, r pairs) no signal SVD
    is taken: the observed matrix gets its leading r vector pairs from
    ``leading_svd``, started from the signal's right factor. When those
    pairs are certified, svd_observed holds the r Ritz values only, and the
    trailing observed values are left to ``observed_spectrum``, which only
    the statements that read past the r-th value pay for; after a fallback
    one full LAPACK SVD supplies the vectors and all the values.
    """
    signal = as_matrix(signal)
    noise = as_matrix(noise)
    if signal.shape != noise.shape:
        raise InvalidInputError(
            f"signal and noise shapes differ: {signal.shape} vs {noise.shape}"
        )
    observed = signal + noise
    if factors is None:
        full, svd_observed = svd(signal), svd(observed)
        r = effective_rank(full, 1e-10)
        svd_signal = SvdFactors(
            left=full.left[:, :r], singulars=full.singulars[:r], right=full.right[:, :r]
        )
    else:
        if factors.shape != signal.shape or factors.vector_count != factors.singulars.size:
            raise InvalidInputError("factors must be the signal's thin factorization")
        svd_signal = factors
        svd_observed = leading_svd(observed, factors.vector_count, start=factors.right)
    return PerturbationInstance(
        signal=signal,
        noise=noise,
        observed=observed,
        svd_signal=svd_signal,
        svd_observed=svd_observed,
    )


@dataclass(frozen=True, eq=False)
class GmmSpec:
    """Isotropic Gaussian mixture: columns are centers[label] + N(0, I) noise.

    centers is n_clusters x n_features. assignment 'balanced' splits
    n_samples as evenly as possible in label order; an explicit tuple gives
    the label of every sample (values 1..k, each cluster nonempty).
    """

    n_features: int
    n_samples: int
    n_clusters: int
    centers: np.ndarray
    assignment: str | tuple[int, ...] = "balanced"

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        object.__setattr__(self, "centers", c)
        if self.n_features < 1 or self.n_samples < 1:
            raise InvalidParameterError("dimensions must be positive")
        if self.n_clusters < 1 or self.n_clusters > self.n_samples:
            raise InvalidParameterError("need 1 <= n_clusters <= n_samples")
        if c.shape != (self.n_clusters, self.n_features):
            raise InvalidInputError(
                f"centers must be {self.n_clusters} x {self.n_features}, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("centers must be finite")
        for i in range(self.n_clusters):
            for j in range(i + 1, self.n_clusters):
                if np.array_equal(c[i], c[j]):
                    raise InvalidParameterError(f"centers {i} and {j} coincide")
        if isinstance(self.assignment, str):
            if self.assignment != "balanced":
                raise InvalidParameterError(f"unknown assignment {self.assignment!r}")
        else:
            lab = tuple(int(v) for v in self.assignment)
            object.__setattr__(self, "assignment", lab)
            if len(lab) != self.n_samples:
                raise InvalidInputError("explicit assignment length must be n_samples")
            if min(lab) < 1 or max(lab) > self.n_clusters:
                raise InvalidInputError("labels must lie in 1..n_clusters")
            if len(set(lab)) != self.n_clusters:
                raise InvalidParameterError("every cluster must be nonempty")

    def labels(self) -> np.ndarray:
        if isinstance(self.assignment, tuple):
            return np.asarray(self.assignment, dtype=int)
        base, extra = divmod(self.n_samples, self.n_clusters)
        sizes = [base + (1 if i < extra else 0) for i in range(self.n_clusters)]
        return np.repeat(np.arange(1, self.n_clusters + 1), sizes)


@dataclass(frozen=True, eq=False)
class GmmSample:
    x: np.ndarray
    truth: Labeling
    expected: np.ndarray
    center_gap: float          # smallest pairwise center distance
    min_cluster: int           # smallest cluster size, as a count
    sigma_min: float           # smallest singular value of the expected matrix
    truth_embedding: np.ndarray  # k x n_samples projection of the expected matrix


def sample_gmm(spec: GmmSpec, seed: int) -> GmmSample:
    """Draw one mixture sample: the expected matrix plus unit Gaussian noise.

    The rank-k geometry of the expected matrix is computed through its
    scaled-center factorization, so sigma_min and the truth embedding are
    exact up to one small SVD.
    """
    labels = spec.labels()
    theta = spec.centers.T                      # n_features x k
    expected = theta[:, labels - 1]
    x = expected + np.random.default_rng(seed).standard_normal(expected.shape)

    k = spec.n_clusters
    sizes = np.bincount(labels, minlength=k + 1)[1:]
    # SVD of centers scaled by sqrt cluster size shares nonzero spectrum
    # with the expected matrix
    scaled = theta * np.sqrt(sizes)
    u, lam, _ = np.linalg.svd(scaled, full_matrices=False)
    diffs = [
        float(np.linalg.norm(spec.centers[i] - spec.centers[j]))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    center_gap = min(diffs) if diffs else np.inf
    return GmmSample(
        x=x,
        truth=Labeling(labels, k),
        expected=expected,
        center_gap=center_gap,
        min_cluster=int(sizes.min()),
        sigma_min=float(lam[-1]),
        truth_embedding=u.T @ expected,
    )


@dataclass(frozen=True, eq=False)
class SubmatrixSpec:
    """Disjoint constant blocks on a zero background.

    Block i adds amplitude amplitudes[i] on row_sets[i] x col_sets[i]. Sets
    are 0-based index tuples, pairwise disjoint per axis and nonempty;
    amplitudes are nonzero.
    """

    n_rows: int
    n_cols: int
    row_sets: tuple[tuple[int, ...], ...]
    col_sets: tuple[tuple[int, ...], ...]
    amplitudes: tuple[float, ...]

    def __post_init__(self):
        rows = tuple(tuple(sorted(int(i) for i in s)) for s in self.row_sets)
        cols = tuple(tuple(sorted(int(i) for i in s)) for s in self.col_sets)
        amps = tuple(float(a) for a in self.amplitudes)
        object.__setattr__(self, "row_sets", rows)
        object.__setattr__(self, "col_sets", cols)
        object.__setattr__(self, "amplitudes", amps)
        if self.n_rows < 1 or self.n_cols < 1:
            raise InvalidParameterError("dimensions must be positive")
        k = len(amps)
        if k < 1 or len(rows) != k or len(cols) != k:
            raise InvalidParameterError("row_sets, col_sets, amplitudes must share length")
        if any(not np.isfinite(a) or a == 0 for a in amps):
            raise InvalidParameterError("amplitudes must be finite and nonzero")
        self._check_axis(rows, self.n_rows, "row")
        self._check_axis(cols, self.n_cols, "col")

    @staticmethod
    def _check_axis(sets, limit, what):
        seen: set[int] = set()
        for s in sets:
            if not s:
                raise InvalidParameterError(f"empty {what} set")
            if s[0] < 0 or s[-1] >= limit:
                raise InvalidParameterError(f"{what} index out of range")
            if len(set(s)) != len(s) or seen & set(s):
                raise InvalidParameterError(f"{what} sets must be disjoint")
            seen |= set(s)

    @property
    def n_blocks(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True, eq=False)
class SubmatrixSample:
    x: np.ndarray
    expected: np.ndarray
    row_truth: Labeling        # block index + 1 per row, n_blocks + 1 for background
    col_truth: Labeling
    row_gap: float             # min |amplitude_i| sqrt(block row count)
    col_gap: float
    sigma_min: float           # min |amplitude_i| sqrt(rows_i * cols_i)
    min_rows: int
    min_cols: int


def plant_submatrices(spec: SubmatrixSpec, seed: int) -> SubmatrixSample:
    """Plant the blocks and add unit Gaussian noise."""
    expected = np.zeros((spec.n_rows, spec.n_cols))
    for rset, cset, amp in zip(spec.row_sets, spec.col_sets, spec.amplitudes):
        expected[np.ix_(rset, cset)] = amp
    x = expected + np.random.default_rng(seed).standard_normal(expected.shape)

    k = spec.n_blocks
    row_lab = np.full(spec.n_rows, k + 1, dtype=int)
    col_lab = np.full(spec.n_cols, k + 1, dtype=int)
    for i, (rset, cset) in enumerate(zip(spec.row_sets, spec.col_sets)):
        row_lab[list(rset)] = i + 1
        col_lab[list(cset)] = i + 1
    rsizes = np.array([len(s) for s in spec.row_sets], dtype=float)
    csizes = np.array([len(s) for s in spec.col_sets], dtype=float)
    amps = np.abs(np.asarray(spec.amplitudes))
    return SubmatrixSample(
        x=x,
        expected=expected,
        row_truth=Labeling(row_lab, k + 1),
        col_truth=Labeling(col_lab, k + 1),
        row_gap=float(np.min(amps * np.sqrt(rsizes))),
        col_gap=float(np.min(amps * np.sqrt(csizes))),
        sigma_min=float(np.min(amps * np.sqrt(rsizes * csizes))),
        min_rows=int(rsizes.min()),
        min_cols=int(csizes.min()),
    )
