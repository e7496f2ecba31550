"""Principal angles, basis residuals, sin-theta distances and orthogonal alignment.

All routines work on orthonormal bases (N x d arrays) and avoid forming
N x N projectors: products go through the d-column factors, so the cost is
O(N d^2).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .matcore import NormSpec, apply_norm, check_orthonormal, gauge, singular_values


def _check_pair(u, v, equal_dim: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of one space with dim(u) = dim(v), or >= unless equal_dim."""
    u = check_orthonormal(u, what="first basis")
    v = check_orthonormal(v, what="second basis")
    if u.shape[0] != v.shape[0]:
        raise InvalidInputError(
            f"ambient dimensions differ: {u.shape[0]} vs {v.shape[0]}"
        )
    if u.shape[1] < v.shape[1] or (equal_dim and u.shape[1] != v.shape[1]):
        need = "=" if equal_dim else ">="
        raise InvalidInputError(f"subspace dimensions {u.shape[1]} vs {v.shape[1]}, need {need}")
    return u, v


def principal_angles(u, v) -> np.ndarray:
    """Principal angles between two equal-dimension subspaces, ascending.

    Computed as arccos of the singular values of u.T @ v, clamped to [0, 1]
    before arccos so roundoff cannot escape the domain. Angles lie in
    [0, pi/2] and the function is symmetric in its arguments.
    """
    u, v = _check_pair(u, v)
    c = np.clip(singular_values(u.T @ v), 0.0, 1.0)
    # c is descending, so arccos is already ascending
    return np.arccos(c)


def sin_theta_norm(u, v, spec: NormSpec) -> float:
    """Invariant norm of the sin-theta spectrum of span(v) against span(u), dim(u) >= dim(v).

    The sines are the singular values of residual(u, v), the part of v outside
    span(u): accurate to about eps, where the sine of an arccos'd cosine reads
    every angle below sqrt(eps) as 0 or 1.49e-8 (Bjorck and Golub 1973).
    """
    return gauge(_sines(*_check_pair(u, v, equal_dim=False)), spec)


def _sines(u, v) -> np.ndarray:
    """The sin-theta spectrum sin_theta_norm takes the norm of, without the
    basis checks: the windows of a PerturbationInstance's factors."""
    return singular_values(_residual(u, v))


def _rotation(u, v) -> np.ndarray:
    """procrustes_align without the basis checks, for bases already checked
    and for clustering.embedding_gap's embeddings."""
    o1, _, o2t = np.linalg.svd(u.T @ v)
    return o1 @ o2t


def procrustes_align(u, v) -> np.ndarray:
    """The d x d orthogonal O minimizing ||u @ O - v|| over orthogonal matrices.

    O = O1 @ O2.T from the SVD u.T @ v = O1 diag(cos) O2.T.
    """
    return _rotation(*_check_pair(u, v))


def _residual(u, w, aligned: bool = False) -> np.ndarray:
    """residual without the basis checks, for bases already checked."""
    return w - u @ (_rotation(u, w) if aligned else u.T @ w)


def residual(u, w, aligned: bool = False) -> np.ndarray:
    """The part of basis w that basis u does not fit: w - u (u.T w), the
    projection (dim(u) >= dim(w)), or, when aligned, w - u O at the
    Procrustes-optimal O (equal dimensions)."""
    return _residual(*_check_pair(u, w, equal_dim=aligned), aligned)


def aligned_distance(u, v, spec: NormSpec) -> float:
    """Invariant norm of u @ O - v at the Procrustes-optimal O."""
    return apply_norm(residual(u, v, aligned=True), spec)


def row_mass(m) -> float:
    """Largest row length of m; for an orthonormal basis it lies in [0, 1]."""
    return float(np.sqrt(np.max(np.sum(m * m, axis=1))))
