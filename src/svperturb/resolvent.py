"""Resolvent probes of the symmetrized noise linearization.

The linearization of an N x n noise matrix is the (N+n) square symmetric
block matrix with the noise and its transpose off-diagonal. Its eigenvalues
are +-eta_i, the noise singular values, plus |N - n| zeros. The scalar probes
(phi_values, solve_zj) read only the singular values, as ``gram_spectrum``
returns them, and far from the spectrum ``far_field_phi`` reads only two
traces of the noise's Gram matrix; bilinear forms of the resolvent take the
noise matrix itself and cost one min(N, n) square solve plus mat-vecs, never
a dense inverse or an SVD. The dense linearization, O((N+n)^2) in memory,
serves the resolvent scenario's dense rows and the selftest's reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationDomainError,
    InvalidInputError,
    NumericalFailureError,
)
from .matcore import GramTop, _below, _gram, as_matrix, check_orthonormal

_ZJ_MAX_ITER = 200
_ZJ_REL_TOL = 1e-8


@dataclass(frozen=True)
class ResolventProbe:
    """Scalar functions of the resolvent at one point z (|z| > ||noise||).

    phi1 scales the row block, phi2 the column block; varphi = phi1 * phi2.
    alpha and beta are the half sum/difference of their reciprocals, the
    exact diagonal and off-diagonal entries of the projected resolvent
    surrogate on a linearized signal basis.
    """

    z: complex
    phi1: complex
    phi2: complex
    varphi: complex
    alpha: complex
    beta: complex


def min_abs_z(n_rows: int, n_cols: int, margin: float) -> float:
    """Base radius 2 * margin * (sqrt(N) + sqrt(n)) of the probe domain."""
    return 2.0 * margin * (np.sqrt(n_rows) + np.sqrt(n_cols))


def margin_offsets(margin: float) -> tuple[float, float]:
    """(1/(4b(b-1)), 1/(2(b-1)^2)): past the base radius, |phi_i(z)| / |z| and each
    change of varphi over that of z^2 lie within 1 -+ these."""
    return 1.0 / (4.0 * margin * (margin - 1.0)), 1.0 / (2.0 * (margin - 1.0) ** 2)


def _norm(eta: np.ndarray) -> float:
    return float(eta[0]) if eta.size else 0.0


def phi_values(eta, n_rows: int, n_cols: int, z) -> ResolventProbe | list[ResolventProbe]:
    """The two block traces of the resolvent at z, from the N x n noise's
    singular values eta (descending; vectors not needed).

    A scalar z gives one ResolventProbe; a vector of z gives a list of them,
    each bit-identical to the scalar call at that point. Requires
    |z| > ||noise|| at every point. With zero noise phi1 = z - n/z and
    phi2 = z - N/z.
    """
    zs = np.asarray(z, dtype=complex)
    eta = np.asarray(eta, dtype=float).ravel()
    top = _norm(eta)
    nearest = float(np.min(np.abs(zs), initial=np.inf))
    if nearest <= top:
        raise EvaluationDomainError(
            f"|z| = {nearest:.6g} inside the spectrum (norm {top:.6g})"
        )
    # one row of pair terms per point; each row sums as the 1-d sum of a scalar call
    terms = 1.0 / (zs[..., None] - eta) + 1.0 / (zs[..., None] + eta)
    pair_sums = 0.5 * np.sum(terms, axis=-1)
    if zs.ndim == 0:
        return _probe(complex(zs), pair_sums[()], n_rows, n_cols)
    return [
        _probe(complex(zz), ps, n_rows, n_cols) for zz, ps in zip(zs.ravel(), pair_sums.ravel())
    ]


def far_field_phi(top: GramTop, n_rows: int, n_cols: int, z) -> ResolventProbe | None:
    """phi_values at a real z far outside the noise spectrum, from the traces
    of the noise's smaller Gram G instead of its singular values.

    With m = min(N, n) and x = top.bound^2 / z^2, the pair sum
    sum_i z / (z^2 - eta_i^2) is (m + tr G / z^2 + tr G^2 / z^4 + R) / z
    with 0 <= R <= m x^3 / (1 - x). Returns the probe when that remainder is
    below the sum's round-off, x^3 / (1 - x) <= eps, and None otherwise:
    for a complex z, for z^2 not far above ||noise||^2, and when top holds
    the whole spectrum, which ``phi_values`` reads exactly.
    """
    z = complex(z)
    if top.spectrum is not None or z.imag != 0.0 or z.real == 0.0:
        return None
    # products, not powers: a float power raises where a product reads inf
    w = 1.0 / z.real
    x = (top.bound * w) * (top.bound * w)
    if not (x < 1.0 and x * x * x / (1.0 - x) <= np.finfo(float).eps):
        return None
    pair_sum = (min(n_rows, n_cols) + top.trace * w * w + top.trace_sq * w * w * w * w) * w
    if not np.isfinite(pair_sum):
        return None
    return _probe(z, pair_sum, n_rows, n_cols)


def _phis(z, pair_sum, n_rows: int, n_cols: int):
    """phi1 and phi2 at z from pair_sum = sum(1/(z - eta) + 1/(z + eta)) / 2."""
    return z - pair_sum - max(n_cols - n_rows, 0) / z, z - pair_sum - max(n_rows - n_cols, 0) / z


def _probe(z: complex, pair_sum, n_rows: int, n_cols: int) -> ResolventProbe:
    phi1, phi2 = _phis(z, pair_sum, n_rows, n_cols)
    alpha = 0.5 * (1.0 / phi1 + 1.0 / phi2)
    beta = 0.5 * (1.0 / phi1 - 1.0 / phi2)
    return ResolventProbe(z=z, phi1=phi1, phi2=phi2, varphi=phi1 * phi2, alpha=alpha, beta=beta)


def _split(n_rows: int, n_cols: int, x) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != n_rows + n_cols:
        raise InvalidInputError(f"vector length {x.shape[0]} != N + n = {n_rows + n_cols}")
    return x[:n_rows], x[n_rows:]


def resolvent_bilinear(e, z, x, y) -> complex:
    """x^T (zI - linearization)^{-1} y for the N x n noise e, by one solve.

    For N <= n the block inverse gives, with A = z^2 I - e e^T (N x N),
    x^T G y = ((z x1 + e x2)^T A^{-1} (z y1 + e y2) + x2 . y2) / z;
    for N > n the blocks swap roles and A = z^2 I - e^T e. A real z solves
    in real arithmetic. Raises EvaluationDomainError when |z| <= ||e||. With
    zero noise this reduces to (x . y) / z.
    """
    e = as_matrix(e)
    z = complex(z)
    n_rows, n_cols = e.shape
    x1, x2 = _split(n_rows, n_cols, x)
    y1, y2 = _split(n_rows, n_cols, y)
    if n_rows > n_cols:
        e, x1, x2, y1, y2 = e.T, x2, x1, y2, y1
    gram, r2 = _gram(e), abs(z) ** 2
    # ||e||^2 <= ||gram||_F settles most probes; otherwise r2 I - gram must be definite
    if not (np.linalg.norm(gram) < r2 or _below(gram, r2)):
        raise EvaluationDomainError(f"|z| = {abs(z):.6g} inside the spectrum")
    w = z.real if z.imag == 0.0 else z
    shifted = w * w * np.eye(gram.shape[0]) - gram
    s = np.linalg.solve(shifted, w * y1 + e @ y2)
    return complex(((w * x1 + e @ x2) @ s + x2 @ y2) / w)


def local_law_gap(e, probe: ResolventProbe, x, y) -> float:
    """|x^T (G(z) - Phi(z)) y| at z = probe.z for the noise e, where Phi
    applies 1/phi1 and 1/phi2 blockwise; probe is phi_values of e at z."""
    e = as_matrix(e)
    x1, x2 = _split(*e.shape, x)
    y1, y2 = _split(*e.shape, y)
    surrogate = (x1 @ y1) / probe.phi1 + (x2 @ y2) / probe.phi2
    return float(abs(resolvent_bilinear(e, probe.z, x, y) - surrogate))


def local_law_bound(n_rows: int, n_cols: int, margin: float, tail: float, z) -> float:
    """Deviation threshold 5 margin^2/(margin-1)^2 sqrt((tail+1) log(N+n)) / |z|^2."""
    c = 5.0 * margin**2 / (margin - 1.0) ** 2
    return float(c * np.sqrt((tail + 1.0) * np.log(n_rows + n_cols)) / abs(z) ** 2)


def linearized_basis(u, v) -> np.ndarray:
    """Stack signal factors into the 2r eigenvector columns of the linearized
    signal: ((u_j; v_j) and (u_j; -v_j)) / sqrt(2)."""
    u = check_orthonormal(u, what="left factor")
    v = check_orthonormal(v, what="right factor")
    if u.shape[1] != v.shape[1]:
        raise InvalidInputError("factor column counts differ")
    top = np.hstack([u, u])
    bot = np.hstack([v, -v])
    return np.vstack([top, bot]) / np.sqrt(2.0)


def uphiu_deviation(probe: ResolventProbe, u_lin, n_rows: int, n_cols: int) -> float:
    """Max abs entry deviation of U_lin^T Phi U_lin from its closed form, with
    Phi from the probe of an N x n noise.

    The closed form is alpha on the 2r diagonal and beta on the two
    off-diagonal r x r identity blocks.
    """
    u_lin = check_orthonormal(u_lin, what="linearized basis")
    total = n_rows + n_cols
    if u_lin.shape[0] != total or u_lin.shape[1] % 2 != 0:
        raise InvalidInputError(
            f"linearized basis must be ({total}) x 2r, got {u_lin.shape}"
        )
    w = u_lin.astype(complex).copy()
    w[:n_rows] /= probe.phi1
    w[n_rows:] /= probe.phi2
    t = u_lin.T @ w
    r = u_lin.shape[1] // 2
    target = np.zeros((2 * r, 2 * r), dtype=complex)
    idx = np.arange(r)
    target[idx, idx] = probe.alpha
    target[r + idx, r + idx] = probe.alpha
    target[idx, r + idx] = probe.beta
    target[r + idx, idx] = probe.beta
    return float(np.max(np.abs(t - target)))


def solve_zj(eta, n_rows: int, n_cols: int, sigma_j: float, margin: float) -> float:
    """Root of varphi(z) = sigma_j^2 on the real axis right of the spectrum,
    from the N x n noise's singular values eta (descending).

    Bisection on [base radius, expanding upper bracket]; stops when the
    residual drops below 1e-8 relative to sigma_j^2. Raises on a missing
    bracket or non-convergence.
    """
    # NaN fails too
    if not sigma_j > 0 or not margin >= 2.0:
        raise InvalidInputError("need sigma_j > 0 and margin >= 2")
    eta = np.asarray(eta, dtype=float).ravel()
    lo = min_abs_z(n_rows, n_cols, margin)
    if _norm(eta) >= lo:
        raise NumericalFailureError(
            "noise norm reaches the probe domain, no valid bracket"
        )
    target = sigma_j * sigma_j
    tol = _ZJ_REL_TOL * target

    def f(zz: float) -> float:
        # varphi in real arithmetic, with no ResolventProbe per step
        phi1, phi2 = _phis(zz, 0.5 * np.sum(1.0 / (zz - eta) + 1.0 / (zz + eta)), n_rows, n_cols)
        return float(phi1 * phi2) - target

    flo = f(lo)
    if abs(flo) <= tol:
        return lo
    if flo > 0:
        raise NumericalFailureError("varphi already exceeds the target at the base radius")
    # chi(margin) = 1 + margin_offsets(margin)[0] caps the root; double for slack
    hi = 2.0 * (1.0 + margin_offsets(margin)[0]) * sigma_j
    hi = max(hi, 2.0 * lo)
    expansions = 0
    while f(hi) < 0:
        hi *= 2.0
        expansions += 1
        if expansions > 64:
            raise NumericalFailureError("failed to bracket the root from above")
    for _ in range(_ZJ_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    raise NumericalFailureError("bisection did not reach the residual tolerance")


def linearized_noise(e) -> np.ndarray:
    """Dense (N+n) square linearization, O((N+n)^2) memory, for the dense rows."""
    e = as_matrix(e)
    n_rows, n_cols = e.shape
    top = np.hstack([np.zeros((n_rows, n_rows)), e])
    bot = np.hstack([e.T, np.zeros((n_cols, n_cols))])
    return np.vstack([top, bot])


def remainder_norms(g, z: float) -> tuple[float, float, float]:
    """Operator norms of g, g - I/z and g - I/z - lin/z^2, the successive
    Neumann remainders of the dense resolvent g = inv(zI - lin) at a real z
    right of the spectrum, from one symmetric eigensolve of g.

    lin = zI - inv(g), so with mu the eigenvalues of g the remainders have
    eigenvalues mu, mu - 1/z and mu - 2/z + 1/(z^2 mu) = (z mu - 1)^2 / (z^2 mu).
    """
    mu = np.linalg.eigvalsh(as_matrix(g))
    d = z * mu - 1.0
    return (
        float(np.max(np.abs(mu))),
        float(np.max(np.abs(d)) / z),
        float(np.max(d * d / np.abs(mu)) / z**2),
    )


def dense_resolvent_bilinear(e, z, x, y) -> complex:
    """Direct-solve oracle for resolvent_bilinear; small sizes only."""
    lin = linearized_noise(e)
    dim = lin.shape[0]
    rhs = np.asarray(y, dtype=complex).ravel()
    if rhs.shape[0] != dim:
        raise InvalidInputError(f"vector length {rhs.shape[0]} != N + n = {dim}")
    sol = np.linalg.solve(complex(z) * np.eye(dim) - lin, rhs)
    return complex(np.asarray(x, dtype=float).ravel() @ sol)
