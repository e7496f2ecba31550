"""Principal angles, sin-theta distances and orthogonal alignment.

All routines work on orthonormal bases (N x d arrays) and avoid forming
N x N projectors: products go through the d-column factors, so the cost is
O(N d^2).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .matcore import NormSpec, apply_norm, check_orthonormal, gauge, singular_values


def _check_pair(u, v, equal_dim: bool = True) -> tuple[np.ndarray, np.ndarray]:
    u = check_orthonormal(u, what="first basis")
    v = check_orthonormal(v, what="second basis")
    if u.shape[0] != v.shape[0]:
        raise InvalidInputError(
            f"ambient dimensions differ: {u.shape[0]} vs {v.shape[0]}"
        )
    if equal_dim and u.shape[1] != v.shape[1]:
        raise InvalidInputError(
            f"subspace dimensions differ: {u.shape[1]} vs {v.shape[1]}"
        )
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
    """Invariant norm of the sin-theta spectrum between span(u) and span(v).

    The sines are the singular values of v - u (u.T v), the part of v outside
    span(u): accurate to about eps, where the sine of an arccos'd cosine reads
    every angle below sqrt(eps) as 0 or 1.49e-8 (Bjorck and Golub 1973).
    """
    u, v = _check_pair(u, v)
    return gauge(singular_values(v - u @ (u.T @ v)), spec)


def procrustes_align(u, v) -> np.ndarray:
    """The d x d orthogonal O minimizing ||u @ O - v|| over orthogonal matrices.

    O = O1 @ O2.T from the SVD u.T @ v = O1 diag(cos) O2.T.
    """
    u, v = _check_pair(u, v)
    o1, _, o2t = np.linalg.svd(u.T @ v)
    return o1 @ o2t


def aligned_distance(u, v, spec: NormSpec) -> float:
    """Invariant norm of u @ O - v at the Procrustes-optimal O."""
    u, v = _check_pair(u, v)
    return apply_norm(u @ procrustes_align(u, v) - v, spec)


def row_mass(m) -> float:
    """Largest row length of m; for an orthonormal basis it lies in [0, 1]."""
    return float(np.sqrt(np.max(np.sum(m * m, axis=1))))


def two_inf_residual(u, w, mode: str = "projector") -> float:
    """Largest row length of the part of w not explained by u.

    mode 'projector' removes the orthogonal projection onto span(u)
    (requires dim(u) >= dim(w)); mode 'aligned' subtracts u @ O at the
    Procrustes-optimal O (requires equal dimensions).
    """
    if mode == "projector":
        u, w = _check_pair(u, w, equal_dim=False)
        if u.shape[1] < w.shape[1]:
            raise InvalidInputError(
                "projector mode needs dim(u) >= dim(w) "
                f"({u.shape[1]} < {w.shape[1]})"
            )
        resid = w - u @ (u.T @ w)
    elif mode == "aligned":
        u, w = _check_pair(u, w)
        resid = w - u @ procrustes_align(u, w)
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    return row_mass(resid)
