"""Dense SVD with a fixed sign convention, certified leading singular
triplets, spectra and certified top values from Gram eigenvalues, and
unitarily invariant norms.

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

# gram_top: Lanczos steps allowed, the Ritz residual relative to the Ritz
# value at which it stops, and the steps between convergence checks; the
# relative shift above the Ritz value that the Cholesky certificate proves;
# the largest Gram order at which a dense eigensolve is cheaper than Lanczos
# plus the certificate (about 9 ms each at 300 on a 2-vCPU Xeon, BLAS 1).
TOP_STEPS = 120
TOP_RESIDUAL_TOL = 1e-8
TOP_CHECK_EVERY = 4
TOP_CERT_SHIFT = 1e-11
TOP_DENSE_MAX = 300

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
    ``svd`` produces c = m = min(N, n). A signal's thin factors, from which
    ``perturb`` forms the observed matrix, have c = m = r. ``leading_svd``
    produces c = k pairs, with the k Ritz values when certified (an
    instance's ``remainder_gram`` deflates the pairs' vectors on its Gram's
    side for the rest) and all min(N, n) LAPACK values after a fallback.
    Only when c = m is ``left @ diag(singulars) @ right.T`` the whole matrix.
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


def _gram(a: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of `a`: a @ a.T when N <= n, else a.T @ a."""
    return a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a


def _gram_values(gram: np.ndarray) -> np.ndarray:
    """Square roots of the Gram eigenvalues, descending, negatives clipped to 0."""
    try:
        w = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Gram eigenvalues did not converge: {exc}") from None
    return np.sqrt(np.maximum(w[::-1], 0.0))


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
    return _gram_values(_gram(as_matrix(a)))


@dataclass(frozen=True)
class GramTop:
    """The top singular value of a matrix with the two traces of its Gram.

    value is sigma_1 = sqrt(lambda_max(G)) of the smaller Gram matrix G, and
    bound an upper bound on it: proven by a Cholesky certificate when
    spectrum is None, and equal to value when the dense eigensolver supplied
    it, in which case spectrum holds all min(N, n) values as
    ``gram_spectrum`` returns them. trace = tr G = ||a||_F^2 and trace_sq =
    tr G^2 = ||G||_F^2. vector is the unit Ritz vector when certified.
    """

    value: float
    bound: float
    trace: float
    trace_sq: float
    spectrum: np.ndarray | None
    vector: np.ndarray | None = None


def _lanczos_top(gram: np.ndarray, start: np.ndarray | None) -> tuple[float, np.ndarray] | None:
    """Largest Ritz value of the symmetric `gram` and its unit Ritz vector, by
    Lanczos with full reorthogonalization from `start` (None: the fixed start
    vector), once its residual is at most TOP_RESIDUAL_TOL times it; None when
    TOP_STEPS steps do not get there. A Ritz value never exceeds the top
    eigenvalue, and errs by at most the squared residual over the next gap."""
    m = gram.shape[0]
    if start is None:
        start = np.random.default_rng(_START_SEED).standard_normal(m)
    basis = np.empty((TOP_STEPS + 1, m))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.zeros(TOP_STEPS), np.zeros(TOP_STEPS)
    for j in range(TOP_STEPS):
        w = gram @ basis[j]
        alpha[j] = basis[j] @ w
        for _ in range(2):  # twice is enough to keep the basis orthonormal
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        if (j + 1) % TOP_CHECK_EVERY == 0 or not beta[j] > 0.0:
            t = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, y = np.linalg.eigh(t)
            # beta_j times the last entry of the Ritz vector is its residual norm
            if beta[j] * abs(y[-1, -1]) <= TOP_RESIDUAL_TOL * theta[-1]:
                return float(theta[-1]), y[:, -1] @ basis[: j + 1]
            if not beta[j] > 0.0:
                return None
        basis[j + 1] = w / beta[j]
    return None


def _below(gram: np.ndarray, level: float) -> bool:
    """Whether level * I - gram has a Cholesky factor, formed in gram's place
    and undone bit for bit (negation is exact, the diagonal is saved)."""
    diag = gram.diagonal().copy()
    np.negative(gram, out=gram)
    gram.flat[:: gram.shape[0] + 1] += level
    try:
        np.linalg.cholesky(gram)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        np.negative(gram, out=gram)
        gram.flat[:: gram.shape[0] + 1] = diag


def top_of_gram(gram: np.ndarray, start=None) -> GramTop:
    """Top singular value from a Gram matrix G, certified or read from a
    dense eigensolve. The certificate works in G's array and leaves it as
    found, so the fallback reads it again.

    When the order m exceeds TOP_DENSE_MAX, Lanczos from `start` (None: the
    fixed start vector) gives the top Ritz value theta, and a Cholesky factor
    of theta (1 + TOP_CERT_SHIFT) I - G proves that no eigenvalue lies above
    that level, up to Cholesky's backward error of at most m (m + 1) eps
    times it (Higham 2002, sec. 10.1), which the bound includes. As theta is
    a Rayleigh quotient, sqrt(theta) is then sigma_1 to round-off. When
    Lanczos does not converge, the Cholesky fails, or m is at most
    TOP_DENSE_MAX, it is the top of G's spectrum as ``gram_spectrum`` takes it.
    """
    m = gram.shape[0]
    # past about ||a||_F = 1e77 tr G^2 reads inf and Lanczos overflows into
    # the dense fallback, which covers gram_spectrum's whole range
    with np.errstate(over="ignore", invalid="ignore"):
        trace, trace_sq = float(np.trace(gram)), float(np.vdot(gram, gram))
        ritz = None
        if m > TOP_DENSE_MAX:
            try:
                ritz = _lanczos_top(gram, start)
            except np.linalg.LinAlgError:
                pass
    level = None if ritz is None else ritz[0] * (1.0 + TOP_CERT_SHIFT)
    if level is not None and _below(gram, level):
        bound = np.sqrt(level * (1.0 + m * (m + 1) * np.finfo(float).eps))
        return GramTop(float(np.sqrt(ritz[0])), float(bound), trace, trace_sq, None, ritz[1])
    spectrum = _gram_values(gram)
    return GramTop(float(spectrum[0]), float(spectrum[0]), trace, trace_sq, spectrum)


def gram_top(a) -> GramTop:
    """``top_of_gram`` of the smaller Gram matrix of `a`, which is not kept."""
    return top_of_gram(_gram(as_matrix(a)))


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
    return _wedin(as_matrix(a), factors)


def _wedin(a: np.ndarray, factors: SvdFactors) -> np.ndarray | None:
    """``wedin_certificate`` of a matrix already validated."""
    u, s, v = factors.left, factors.singulars[: factors.vector_count], factors.right
    r = a @ v - u * s
    t = a.T @ u - v * s
    eta = float(np.linalg.norm(r) + np.linalg.norm(t))
    us = u * s  # tau over blocks of 64 rows, so no N x n residual is formed
    blocks = range(0, a.shape[0], 64)
    tau = np.linalg.norm([np.linalg.norm(a[i : i + 64] - us[i : i + 64] @ v.T) for i in blocks])
    above = np.concatenate(([np.inf], s[:-1])) - s
    below = s - np.concatenate((s[1:], [tau]))
    gaps = np.minimum(above, below)
    if not np.all((gaps > 0.0) & (eta <= LEADING_CERT_TOL * gaps)):
        return None
    return np.hypot(np.linalg.norm(r, axis=0), np.linalg.norm(t, axis=0)) / (gaps - eta)


def _rayleigh_ritz(a: np.ndarray, block: np.ndarray) -> SvdFactors | None:
    """Block subspace iteration from `block`, then Rayleigh-Ritz; None as
    soon as a left basis Q leaves a residual tau = ||a - Q Q.T a||_F at or
    above the k-th Ritz value s_k of Q.T a. Each basis is read from the
    product the next round forms anyway: the R of a.T @ Q = P R holds the
    Ritz values, and tau^2 = ||a||_F^2 - ||R||_F^2."""
    try:
        # past ||a||_F = 1e154 the squares read inf or nan, and nan never exits
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.vdot(a, a)
            q, _ = np.linalg.qr(a @ block)
            for _ in range(LEADING_ITERATIONS):
                p, r = np.linalg.qr(a.T @ q)
                ritz = np.linalg.svd(r, compute_uv=False)
                if total - ritz @ ritz >= ritz[-1] ** 2:
                    return None
                q, _ = np.linalg.qr(a @ p)
        w, s, vt = np.linalg.svd(q.T @ a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"subspace iteration failed: {exc}") from None
    u = q @ w
    v = np.ascontiguousarray(vt.T)
    _fix_signs(u, v)
    return SvdFactors(left=u, singulars=s, right=v)


def leading_svd(a, k: int, start=None) -> SvdFactors:
    """Leading k singular triplets of `a`, certified or computed by LAPACK.

    Runs LEADING_ITERATIONS rounds of block subspace iteration from the
    n x k block `start` (a fixed Gaussian block when None) and a
    Rayleigh-Ritz step (Halko, Martinsson and Tropp 2011, Alg. 4.4). The
    Ritz triplets, k values with their vector pairs under the sign
    convention of ``svd``, are returned only when ``wedin_certificate``
    holds. Otherwise the result is ``svd(a)`` with its vector pairs
    truncated to k and all min(N, n) of its values, which it already holds.
    That result comes at once, with no further round, when after any
    product, the first included, the residual the basis leaves reaches the
    k-th Ritz value: the certificate needs tau below s_k, and on a weak gap
    (the command-line model) the iteration cannot get there in its rounds.
    Deterministic, and draws from no caller generator.
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
    if ritz is None or _wedin(a, ritz) is None:
        full = svd(a)
        return SvdFactors(left=full.left[:, :k], singulars=full.singulars, right=full.right[:, :k])
    return ritz


def apply_norm(a, spec: NormSpec) -> float:
    """Evaluate the selected norm of the matrix `a`."""
    a = as_matrix(a)
    require_norm(spec, min(a.shape))
    return gauge(singular_values(a), spec)

