"""Dense SVD with a fixed sign convention, certified leading singular
triplets, spectra from Gram eigenvalues, and unitarily invariant norms.

Matrices are plain 2-d float64 numpy arrays; the shape carries the row and
column counts. Invariant norms are evaluated through a symmetric gauge
function of the singular values, so the same code path serves matrices and
precomputed spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericalFailureError

ORTHO_TOL = 1e-8

# leading_svd: subspace iterations after the first product with the start
# block, and the largest residual-to-gap ratio it certifies.
LEADING_ITERATIONS = 2
LEADING_CERT_TOL = 1e-6
_START_SEED = 20240314

_KINDS = ("operator", "frobenius", "nuclear", "schatten", "kyfan")


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-d float64 array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    return a


def check_orthonormal(b, tol: float = ORTHO_TOL, what: str = "basis") -> np.ndarray:
    """Validate that the columns of `b` are orthonormal to within `tol`."""
    b = as_matrix(b)
    if b.shape[1] > b.shape[0]:
        raise InvalidInputError(f"{what}: more columns than rows, cannot be orthonormal")
    gram = b.T @ b
    dev = float(np.max(np.abs(gram - np.eye(b.shape[1]))))
    if dev > tol:
        raise InvalidInputError(f"{what}: columns not orthonormal (deviation {dev:.3e})")
    return b


@dataclass(frozen=True)
class NormSpec:
    """A unitarily invariant matrix norm.

    kind is one of operator, frobenius, nuclear, schatten, kyfan. schatten
    carries an exponent p >= 1, kyfan an order k >= 1.
    """

    kind: str
    p: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown norm kind {self.kind!r}")
        if self.kind == "schatten":
            if self.p is None or not np.isfinite(self.p) or self.p < 1:
                raise InvalidParameterError("schatten norm needs exponent p >= 1")
        elif self.p is not None:
            raise InvalidParameterError(f"{self.kind} norm takes no exponent")
        if self.kind == "kyfan":
            if self.k is None or int(self.k) != self.k or self.k < 1:
                raise InvalidParameterError("kyfan norm needs integer order k >= 1")
        elif self.k is not None:
            raise InvalidParameterError(f"{self.kind} norm takes no order")

    @property
    def label(self) -> str:
        if self.kind == "schatten":
            return f"schatten{self.p:g}"
        if self.kind == "kyfan":
            return f"kyfan{self.k}"
        return self.kind


OPERATOR = NormSpec("operator")
FROBENIUS = NormSpec("frobenius")
NUCLEAR = NormSpec("nuclear")


def schatten(p: float) -> NormSpec:
    return NormSpec("schatten", p=float(p))


def kyfan(k: int) -> NormSpec:
    return NormSpec("kyfan", k=int(k))


def norm_spec_from_token(token: str) -> NormSpec:
    """Parse a norm token such as 'operator', 'kyfan3' or 'schatten2.5'."""
    token = token.strip().lower()
    if token in ("operator", "frobenius", "nuclear"):
        return NormSpec(token)
    if token.startswith("kyfan"):
        try:
            return kyfan(int(token[5:]))
        except ValueError:
            raise InvalidParameterError(f"bad kyfan token {token!r}") from None
    if token.startswith("schatten"):
        try:
            return schatten(float(token[8:]))
        except ValueError:
            raise InvalidParameterError(f"bad schatten token {token!r}") from None
    raise InvalidParameterError(f"unknown norm token {token!r}")


def require_norm(spec: NormSpec, m: int) -> NormSpec:
    """The norm rule for a matrix with m = min(N, n): a Ky Fan order is at most m."""
    if spec.kind == "kyfan" and spec.k > m:
        raise InvalidParameterError(f"kyfan order {spec.k} exceeds min(N, n) = {m}")
    return spec


def gauge(values, spec: NormSpec) -> float:
    """Symmetric gauge function of a value vector.

    Permutation and sign invariant; zero padding never changes the result.
    Applied to the singular value vector this evaluates the corresponding
    unitarily invariant matrix norm.
    """
    v = np.sort(np.abs(np.asarray(values, dtype=float).ravel()))[::-1]
    if v.size == 0 or v[0] == 0.0:
        return 0.0
    if spec.kind == "operator":
        return float(v[0])
    if spec.kind == "frobenius":
        return float(np.sqrt(np.sum(v * v)))
    if spec.kind == "nuclear":
        return float(np.sum(v))
    if spec.kind == "kyfan":
        return float(np.sum(v[: spec.k]))
    # schatten: scale by the top value to avoid overflow for large p
    w = v / v[0]
    return float(v[0] * np.sum(w**spec.p) ** (1.0 / spec.p))


@dataclass(frozen=True)
class SvdFactors:
    """Singular values with the singular vectors of the leading ones.

    singulars holds m nonnegative values, descending; left (N x c) and right
    (n x c) hold orthonormal singular vectors for the leading c <= m of them.
    ``svd`` produces c = m = min(N, n). The rank-r form c = m = r is a
    signal's: generators produce it exactly, and ``perturb`` cuts a signal's
    ``svd`` to it. ``leading_svd`` produces c = k vector pairs, with either
    k values or, with ``spectrum=True``, all min(N, n) of them. Only when
    c = m is ``left @ diag(singulars) @ right.T`` the whole matrix.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        m = self.singulars.shape[0]
        if self.left.ndim != 2 or self.right.ndim != 2 or self.singulars.ndim != 1:
            raise InvalidInputError("SvdFactors fields have wrong dimensionality")
        if self.left.shape[1] != self.right.shape[1] or self.left.shape[1] > m:
            raise InvalidInputError("factor column counts disagree with singular count")
        if m and (np.any(self.singulars < 0) or np.any(np.diff(self.singulars) > 0)):
            raise InvalidInputError("singular values must be nonnegative and descending")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[0])

    @property
    def vector_count(self) -> int:
        """Number c of singular vector pairs held."""
        return self.left.shape[1]


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Flip (left, right) column pairs so each left column's first entry that
    clears 1e-12 of the column max is nonnegative. In place."""
    absu = np.abs(u)
    colmax = absu.max(axis=0)
    mask = absu > 1e-12 * np.maximum(colmax, np.finfo(float).tiny)
    first = mask.argmax(axis=0)
    lead = u[first, np.arange(u.shape[1])]
    flip = lead < 0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0


def svd(a) -> SvdFactors:
    """Thin SVD of `a` with m = min(N, n) columns and deterministic signs."""
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from None
    v = np.ascontiguousarray(vt.T)
    _fix_signs(u, v)
    return SvdFactors(left=u, singulars=s, right=v)


def singular_values(a) -> np.ndarray:
    """Singular values of `a`, descending."""
    a = as_matrix(a)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from None


def gram_spectrum(a) -> np.ndarray:
    """Singular values of `a`, descending, from the smaller Gram matrix.

    Forms a.T @ a or a @ a.T, whichever is min(N, n) square, takes its
    eigenvalues and returns their square roots, rounding negatives clipped
    to 0. Raises NumericalFailureError when the eigensolver does not
    converge.

    Precision: each eigenvalue is within about eps * ||a||^2 of sigma^2, so
    each value sigma is within about eps * ||a||^2 / sigma of the exact one,
    and within about sqrt(eps) * ||a|| near 0; ``singular_values`` is within
    about eps * ||a||. Use this for spectra that feed gauges and resolvent
    sums, which tolerate absolute errors of order eps * ||a|| in each large
    value, never for values near 0 compared at tight slack. Entries whose
    squares overflow or underflow (||a|| beyond about 1e150 or below about
    1e-150) are outside its range.
    """
    a = as_matrix(a)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    try:
        w = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Gram eigenvalues did not converge: {exc}") from None
    return np.sqrt(np.maximum(w[::-1], 0.0))


def wedin_certificate(a, factors: SvdFactors) -> np.ndarray | None:
    """Certified sin-theta of each held vector pair against the exact one.

    With U, s, V the c held triplets, eta = ||a V - U diag(s)||_F +
    ||a.T U - V diag(s)||_F bounds the distance to a matrix whose leading c
    triplets are exactly (U, s, V), and tau = ||a - U diag(s) V.T||_F bounds
    sigma_{c+1}(a) (Eckart-Young). Let g_i be the gap from s_i to its
    neighbours s_{i-1} and s_{i+1}, with tau below s_c. By Weyl, every other
    singular value of `a` lies at least g_i - eta from s_i, so by Wedin the
    i-th pair is within sin-theta r_i / (g_i - eta) of the i-th singular
    vector pair of `a`, r_i being the pair's own residual norm. Returns
    those c bounds when every g_i is positive and eta <= LEADING_CERT_TOL *
    g_i for every i, and None otherwise.
    """
    a = as_matrix(a)
    u, s, v = factors.left, factors.singulars[: factors.vector_count], factors.right
    r = a @ v - u * s
    t = a.T @ u - v * s
    eta = float(np.linalg.norm(r) + np.linalg.norm(t))
    tau = float(np.linalg.norm(a - (u * s) @ v.T))
    above = np.concatenate(([np.inf], s[:-1])) - s
    below = s - np.concatenate((s[1:], [tau]))
    gaps = np.minimum(above, below)
    if not np.all((gaps > 0.0) & (eta <= LEADING_CERT_TOL * gaps)):
        return None
    return np.hypot(np.linalg.norm(r, axis=0), np.linalg.norm(t, axis=0)) / (gaps - eta)


def _rayleigh_ritz(a: np.ndarray, block: np.ndarray) -> SvdFactors:
    """Block subspace iteration from `block`, then Rayleigh-Ritz."""
    try:
        q, _ = np.linalg.qr(a @ block)
        for _ in range(LEADING_ITERATIONS):
            p, _ = np.linalg.qr(a.T @ q)
            q, _ = np.linalg.qr(a @ p)
        w, s, vt = np.linalg.svd(q.T @ a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"subspace iteration failed: {exc}") from None
    u = q @ w
    v = np.ascontiguousarray(vt.T)
    _fix_signs(u, v)
    return SvdFactors(left=u, singulars=s, right=v)


def leading_svd(a, k: int, start=None, spectrum: bool = False) -> SvdFactors:
    """Leading k singular triplets of `a`, certified or computed by LAPACK.

    Runs LEADING_ITERATIONS rounds of block subspace iteration from the
    n x k block `start` (a fixed Gaussian block when None) and a
    Rayleigh-Ritz step (Halko, Martinsson and Tropp 2011, Alg. 4.4). The
    Ritz triplets are returned, under the sign convention of ``svd``, only
    when ``wedin_certificate`` holds; otherwise the result is ``svd(a)``
    truncated to k vector pairs. Deterministic, and draws from no caller
    generator.

    With spectrum=True the result carries all min(N, n) singular values.
    After a fallback the full SVD supplies them. After a certified run they
    are the k Ritz values followed by the leading min(N, n) - k values of
    ``gram_spectrum(a - U (U.T a))``. With eta the certificate's residual,
    `a` lies within eta of the block-diagonal matrix with blocks
    U diag(s) V.T and the deflated remainder (I - U U.T) a (I - V V.T), and
    (I - U U.T) a lies within eta of that remainder, so by Weyl each
    trailing value is within about 2 eta of the exact one, and each Ritz
    value within eta. Gram rounding adds about eps * tau^2 / sigma, at the
    scale tau = ||a - U diag(s) V.T||_F of the remainder, not at sigma_1.
    """
    a = as_matrix(a)
    if not 1 <= k <= min(a.shape):
        raise InvalidParameterError(f"k={k} out of range for shape {a.shape}")
    if start is None:
        block = np.random.default_rng(_START_SEED).standard_normal((a.shape[1], k))
    else:
        block = np.asarray(start, dtype=float)
        if block.shape != (a.shape[1], k):
            raise InvalidInputError(
                f"start block must be {a.shape[1]} x {k}, got {block.shape}"
            )
    ritz = _rayleigh_ritz(a, block)
    if wedin_certificate(a, ritz) is None:
        full = svd(a)
        values = full.singulars if spectrum else full.singulars[:k]
        return SvdFactors(left=full.left[:, :k], singulars=values, right=full.right[:, :k])
    if spectrum:
        u = ritz.left
        trailing = gram_spectrum(a - u @ (u.T @ a))[: min(a.shape) - k]
        values = np.concatenate((ritz.singulars, trailing))
        return SvdFactors(left=u, singulars=values, right=ritz.right)
    return ritz


def apply_norm(a, spec: NormSpec) -> float:
    """Evaluate the selected norm of the matrix `a`."""
    a = as_matrix(a)
    require_norm(spec, min(a.shape))
    return gauge(singular_values(a), spec)


def effective_rank(factors: SvdFactors, tol: float) -> int:
    """Number of singular values above tol * (largest); 0 for the zero matrix."""
    if tol < 0:
        raise InvalidParameterError("tol must be nonnegative")
    s = factors.singulars
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
