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
from .matcore import (
    TOP_DENSE_MAX,
    GramTop,
    SvdFactors,
    _gram,
    _gram_values,
    check_orthonormal,
    leading_svd,
    singular_values,
    top_of_gram,
)
from .subspace import _sines


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


def low_rank_from_rng(spec: LowRankSpec, rng: np.random.Generator) -> SvdFactors:
    """The thin rank-r factors of a signal with the exact requested spectrum,
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
    return SvdFactors(left=u, singulars=np.asarray(spec.singulars), right=v)


@dataclass(frozen=True, eq=False)
class PerturbationInstance:
    """A signal/noise pair with the factorizations the bounds read; every
    matrix and fact beyond these three fields is formed on first read.

    svd_signal holds the signal's thin rank-r factors, whose product the
    signal is: r vector pairs and r singular values. ``rank`` reads r there,
    so every bound sees one rank. svd_observed holds the leading r observed
    vector pairs under the deterministic sign convention, with the r
    certified Ritz values or, after a fallback, all min(N, n) LAPACK values,
    which ``observed_spectrum`` always has.

    The four bases are checked orthonormal once, here, and never again: the
    bounds read their windows through subspace's unchecked core, so the
    arrays must not change after construction.
    """

    noise: np.ndarray
    svd_signal: SvdFactors
    svd_observed: SvdFactors

    def __post_init__(self):
        for name in ("svd_signal", "svd_observed"):
            factors = getattr(self, name)
            check_orthonormal(factors.left, what=f"{name}.left")
            check_orthonormal(factors.right, what=f"{name}.right")

    @property
    def shape(self) -> tuple[int, int]:
        return self.noise.shape

    def rank(self) -> int:
        return self.svd_signal.vector_count

    @cached_property
    def observed_spectrum(self) -> np.ndarray:
        """All min(N, n) observed singular values, descending, formed on first read.

        When svd_observed holds them all, they are its values. Otherwise it
        holds the c certified Ritz triplets (U, s, V) of ``leading_svd``, and
        the values are s followed by the square roots of the leading
        min(N, n) - c eigenvalues of ``remainder_gram``, one deflation on the
        Gram's side. With eta the certificate's residual, the observed matrix
        lies within eta of the block-diagonal matrix with blocks U diag(s) V.T
        and (I - U U.T) observed (I - V V.T), and each one-sided deflation
        lies within eta of that block, so by Weyl each trailing value is
        within about 2 eta of the exact one, and each Ritz value within eta.
        The update rounds at the noise Gram's scale, about eps ||E||^2 / sigma
        in each value, not at sigma_1: gauge and resolvent-sum precision.
        """
        held, m = self.svd_observed.singulars, min(self.shape)
        if held.size == m:
            return held
        return np.concatenate((held, _gram_values(self.remainder_gram())[: m - held.size]))

    def remainder_gram(self) -> np.ndarray:
        """The smaller Gram of the deflated remainder, in O(min(N, n)^2 r) in
        the array of the noise Gram G, which the instance then forgets. With
        E the noise, U0 S V0.T the signal and U the held left vectors (when
        N > n: E.T, the transpose V0 S U0.T and the held right vectors),
        the remainder is (I - U U.T)(E + U0 S V0.T) = (I - U U.T) E + B V0.T
        with B = (I - U U.T) U0 S, so its Gram is G + L R.T + R L.T with
        L = [U, B], R = [U (U.T G U) / 2 - G U, (I - U U.T) E V0 + B / 2].
        """
        obs, f, g = self.svd_observed, self.svd_signal, self.noise_gram
        u, u0, v0, e = obs.left, f.left, f.right, self.noise
        if e.shape[0] > e.shape[1]:  # deflate the transpose
            u, u0, v0, e = obs.right, f.right, f.left, e.T
        b = (u0 - u @ (u.T @ u0)) * f.singulars
        gu, c = g @ u, e @ v0
        left, right = (u, b), (u @ (0.5 * (u.T @ gu)) - gu, c - u @ (u.T @ c) + 0.5 * b)
        g += np.hstack(left + right) @ np.hstack(right + left).T
        del vars(self)["noise_gram"]
        return g

    @cached_property
    def observed_next(self) -> float:
        """The (r+1)-th observed singular value, 0 when r = min(N, n).

        Entry r of ``observed_spectrum`` when that is held (after a fallback)
        or dense (min(N, n) <= TOP_DENSE_MAX): one noise Gram, update and
        eigensolve serve both. Above, no m^2 array is kept between reads, so
        it forms ``remainder_gram`` anew and certifies its top by Lanczos from
        ``noise_top``'s Ritz vector, the Gram side's held vectors projected out.
        """
        held, r, m = self.svd_observed.singulars, self.rank(), min(self.shape)
        if held.size == m or m <= TOP_DENSE_MAX:
            return float(self.observed_spectrum[r]) if r < m else 0.0
        obs, x = self.svd_observed, self.noise_top.vector
        side = obs.left if self.shape[0] <= self.shape[1] else obs.right
        start = None if x is None else x - side @ (side.T @ x)
        return top_of_gram(self.remainder_gram(), start).value

    def cross_spectra(self, k: int, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Singular values of (I - U U.T) E V~_w and (I - V V.T) E.T U~_w, the noise
        between the complement of the top-k signal factors U, V and the observed
        pairs w = k_lo..k_hi; formed once per (k, window) and kept."""
        held, key = vars(self).setdefault("_cross_spectra", {}), (k, k_lo, k_hi)
        if key not in held:
            u, v = self.svd_signal.left[:, :k], self.svd_signal.right[:, :k]
            w = slice(k_lo - 1, k_hi)
            b1 = self.noise @ self.svd_observed.right[:, w]
            b1 -= u @ (u.T @ b1)
            b2 = self.noise.T @ self.svd_observed.left[:, w]
            b2 -= v @ (v.T @ b2)
            held[key] = singular_values(b1), singular_values(b2)
        return held[key]

    def sin_theta_spectra(self, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Sines of the principal angles between the signal and the observed
        left vectors of the pairs k_lo..k_hi, then between the right ones: the
        singular values of ``subspace.residual`` on each side's window, formed
        once per window and kept."""
        held, key = vars(self).setdefault("_sin_theta_spectra", {}), (k_lo, k_hi)
        if key not in held:
            sig, obs, w = self.svd_signal, self.svd_observed, slice(k_lo - 1, k_hi)
            held[key] = (
                _sines(sig.left[:, w], obs.left[:, w]),
                _sines(sig.right[:, w], obs.right[:, w]),
            )
        return held[key]

    @cached_property
    def noise_gram(self) -> np.ndarray:
        """The noise's smaller Gram matrix, E E.T when N <= n, else E.T E,
        kept for the noise facts until ``remainder_gram`` takes its array."""
        return _gram(self.noise)

    @cached_property
    def noise_top(self) -> GramTop:
        """||E|| with its proven bound, tr G and ||G||_F^2, certified in place
        on the noise Gram G (``top_of_gram``). When min(N, n) is at most
        TOP_DENSE_MAX it also holds the whole noise spectrum."""
        return top_of_gram(self.noise_gram)

    @cached_property
    def noise_spectrum(self) -> np.ndarray:
        """All min(N, n) noise singular values, descending, as ``gram_spectrum``
        returns them: held by ``noise_top`` at or below TOP_DENSE_MAX, else one
        eigensolve of ``noise_gram`` with no certificate."""
        small = min(self.shape) <= TOP_DENSE_MAX
        return self.noise_top.spectrum if small else _gram_values(self.noise_gram)


def perturb(factors: SvdFactors, noise) -> PerturbationInstance:
    """Add the noise to the signal that thin rank-r factors form, and
    factorize the sum.

    The observed matrix, the factors' product plus the noise, is formed only
    for ``leading_svd``, which validates it and, started from the signal's
    right factor, gives its leading r vector pairs; it is not kept, and no
    signal SVD is taken. When those pairs are certified, svd_observed holds
    the r Ritz values only, and ``observed_spectrum`` forms the trailing
    values for the statements that read them; after a fallback one full
    LAPACK SVD supplies the vectors and all the values.
    """
    noise = np.asarray(noise, dtype=float)
    if factors.vector_count != factors.singulars.size or factors.shape != noise.shape:
        raise InvalidInputError(f"factors must be thin, of the noise's shape {noise.shape}")
    observed = (factors.left * factors.singulars) @ factors.right.T
    observed += noise
    held = leading_svd(observed, factors.vector_count, start=factors.right)
    return PerturbationInstance(noise=noise, svd_signal=factors, svd_observed=held)


@dataclass(frozen=True, eq=False)
class GmmSpec:
    """Isotropic Gaussian mixture: columns are centers[label] + N(0, I) noise.

    centers is n_clusters x n_features. assignment 'balanced' splits
    n_samples as evenly as possible in label order; an explicit tuple gives
    the label of every sample (values 1..k, each cluster nonempty). The
    truth and geometry depend on the spec alone: each is formed on first read.
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

    @cached_property
    def truth(self) -> Labeling:
        return Labeling(self.labels(), self.n_clusters)

    @cached_property
    def expected(self) -> np.ndarray:
        """The noise-free p x n matrix, read-only: column j is sample j's center."""
        expected = self.centers.T[:, self.truth.labels - 1]
        expected.setflags(write=False)
        return expected

    @cached_property
    def center_gap(self) -> float:
        """The smallest pairwise center distance, inf for one cluster."""
        c, k = self.centers, self.n_clusters
        diffs = [float(np.linalg.norm(c[i] - c[j])) for i in range(k) for j in range(i + 1, k)]
        return min(diffs) if diffs else np.inf

    @cached_property
    def min_cluster(self) -> int:
        return int(np.bincount(self.truth.labels)[1:].min())

    @cached_property
    def _scaled_svd(self):
        """SVD of the centers scaled by root cluster sizes, which shares its
        nonzero spectrum and left vectors with the expected matrix."""
        sizes = np.bincount(self.truth.labels)[1:]
        return np.linalg.svd(self.centers.T * np.sqrt(sizes), full_matrices=False)

    @cached_property
    def sigma_min(self) -> float:
        """The smallest singular value of the expected matrix, up to one k x k SVD."""
        return float(self._scaled_svd[1][-1])

    @cached_property
    def truth_embedding(self) -> np.ndarray:
        """The k x n_samples expected matrix in its top-k left singular basis."""
        return self._scaled_svd[0].T @ self.expected


def sample_gmm(spec: GmmSpec, seed: int) -> np.ndarray:
    """One mixture draw: the spec's expected matrix plus unit Gaussian noise."""
    return spec.expected + np.random.default_rng(seed).standard_normal(spec.expected.shape)


@dataclass(frozen=True, eq=False)
class SubmatrixSpec:
    """Disjoint constant blocks on a zero background.

    Block i adds amplitude amplitudes[i] on row_sets[i] x col_sets[i]. Sets
    are 0-based index tuples, pairwise disjoint per axis and nonempty;
    amplitudes are nonzero. The truth and geometry are formed on first read.
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

    def _truth(self, sets, size: int) -> Labeling:
        """Block index + 1 per index of one axis, n_blocks + 1 for background."""
        lab = np.full(size, self.n_blocks + 1, dtype=int)
        for i, s in enumerate(sets):
            lab[list(s)] = i + 1
        return Labeling(lab, self.n_blocks + 1)

    @cached_property
    def row_truth(self) -> Labeling:
        return self._truth(self.row_sets, self.n_rows)

    @cached_property
    def col_truth(self) -> Labeling:
        return self._truth(self.col_sets, self.n_cols)

    @cached_property
    def expected(self) -> np.ndarray:
        """The noise-free matrix, read-only, formed on first read from the truth labels."""
        rows, cols = self.row_truth.labels, self.col_truth.labels
        amps = np.append(self.amplitudes, 0.0)  # the background label reads 0
        expected = np.where(rows[:, None] == cols, amps[rows - 1][:, None], 0.0)
        expected.setflags(write=False)
        return expected

    @cached_property
    def row_gap(self) -> float:
        """min |amplitude_i| sqrt(block row count)"""
        return float(np.min(np.abs(self.amplitudes) * np.sqrt([len(s) for s in self.row_sets])))

    @cached_property
    def col_gap(self) -> float:
        return float(np.min(np.abs(self.amplitudes) * np.sqrt([len(s) for s in self.col_sets])))

    @cached_property
    def sigma_min(self) -> float:
        """min |amplitude_i| sqrt(rows_i * cols_i)"""
        area = [len(r) * len(c) for r, c in zip(self.row_sets, self.col_sets)]
        return float(np.min(np.abs(self.amplitudes) * np.sqrt(area)))

    @cached_property
    def min_rows(self) -> int:
        return min(len(s) for s in self.row_sets)

    @cached_property
    def min_cols(self) -> int:
        return min(len(s) for s in self.col_sets)


def plant_submatrices(spec: SubmatrixSpec, seed: int) -> np.ndarray:
    """Add the blocks to a unit Gaussian noise draw, in place."""
    x = np.random.default_rng(seed).standard_normal((spec.n_rows, spec.n_cols))
    for rset, cset, amp in zip(spec.row_sets, spec.col_sets, spec.amplitudes):
        x[np.ix_(rset, cset)] += amp
    return x
