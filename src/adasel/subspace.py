"""PCA subspaces and principal angles.

Feature vectors are plain 1-D float64 arrays of length ``a`` (the ambient
dimension); subspaces are ``a x b`` matrices with orthonormal columns.
All functions are pure and deterministic: basis columns follow a fixed
sign convention (largest-magnitude component positive) so repeated runs
and serialized profiles are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonFiniteFeatures, NotOrthonormal,
                     RankDeficient)

ORTHO_TOL = 1e-8
# Sine below which a principal angle is treated as exactly zero and its flow
# direction is free (it is multiplied by sin 0 = 0 everywhere downstream).
# Zeroing such an angle moves a kernel distance by at most
# DEGENERATE_SIN/2 * |delta|^2; above it, a flow direction computed from the
# residual is accurate to about eps/sin.
DEGENERATE_SIN = 1e-13
SIN_PI_4 = np.sqrt(0.5)
# Smallest ratio lam_r / lam_1 of the centered frames' Gram eigenvalues at
# which _principal_directions factors the Gram instead of the frames.  The
# Gram path's orthonormality error, c * eps * lam_1 / lam_k with c measured
# up to 2.2, then stays below 4.9e-13: under the 1e-12 that pca_basis is
# tested to, which 1e-4 would not keep.
GRAM_TAU = 1e-3


def as_feature_matrix(samples) -> np.ndarray:
    """Samples as an (n, a) float64 matrix of finite values, a >= 2."""
    try:
        X = np.asarray(samples, dtype=np.float64)
    except ValueError as exc:  # ragged rows
        raise DimensionMismatch(
            f"samples do not form a matrix: {exc}") from None
    if X.ndim != 2 or X.shape[1] < 2:
        raise DimensionMismatch(
            f"samples must form an (n, a >= 2) matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeatures("samples contain NaN or Inf")
    return X


def _fix_signs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip columns so each column's largest-magnitude entry is positive."""
    if M.shape[1] == 0:
        return M, np.ones(0)
    idx = np.argmax(np.abs(M), axis=0)
    signs = np.sign(M[idx, np.arange(M.shape[1])])
    signs[signs == 0] = 1.0
    return M * signs, signs


@dataclass
class SubspaceBasis:
    """Orthonormal a x b basis of a b-dimensional subspace of R^a, the
    operand type of the reference path (:func:`principal_angles` and the
    kernel in :mod:`adasel.gfk`).  The selector holds plain a x b arrays.

    ``complement`` is only carried for callers that still pass an
    orthogonal complement; adasel never sets, reads or validates it.
    """

    basis: np.ndarray
    complement: np.ndarray | None = None

    @property
    def dim_ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def dim_subspace(self) -> int:
        return self.basis.shape[1]


@dataclass
class PrincipalDecomposition:
    """Principal angles between two subspaces with coupled rotation factors.

    ``angles`` are the canonical angles theta_k in [0, pi/2], non-decreasing;
    ``left_rotation`` (U) and ``right_rotation`` (V) come from the SVD
    x^T z = U diag(cos theta) V^T under the column sign convention.
    ``flow_complement`` (B) is a x b with orthonormal columns orthogonal to
    the source subspace: the unit directions along which the geodesic
    rotates.
    """

    angles: np.ndarray
    left_rotation: np.ndarray
    right_rotation: np.ndarray
    flow_complement: np.ndarray


def pca_basis(samples, b: int) -> np.ndarray:
    """Top-b principal directions of mean-centered samples, as the columns
    of an a x b array with orthonormal columns.

    Parameters
    ----------
    samples : (n, a) array or sequence of length-a vectors, n > b
    b : target subspace dimension, 1 <= b < a

    Raises
    ------
    DimensionMismatch
        If samples differ in length or b is out of range.
    RankDeficient
        If the centered sample matrix has rank < b; the message states the
        achievable rank.  n <= b samples raise it before any decomposition,
        since their rank is at most n - 1.  Singular values count toward
        the rank only above max(n, a) * eps * ||X||_F, the rounding left by
        centering the frames, so a window of identical frames has rank 0.
    """
    X = as_feature_matrix(samples)
    n, a = X.shape
    if n <= b and 1 <= b < a:
        raise RankDeficient(f"{n} samples: centered sample matrix has rank "
                            f"at most {max(n - 1, 0)} < requested b={b}")
    directions, rank = _principal_directions(X, b)
    if rank < b:
        raise RankDeficient(
            f"centered sample matrix has rank {rank} < requested b={b}")
    return directions


def _principal_directions(X: np.ndarray, b: int) -> tuple[np.ndarray, int]:
    """pca_basis's top min(b, rank) directions and the rank of the matrix
    ``X`` that as_feature_matrix returned.

    The centered frames F, taken on their long side (a x n if n < a, else
    n x a), have r = min(n - 1, a) possible directions.  When the
    min(n, a)-square Gram matrix F^T F resolves all of them, that is when
    lam_r > GRAM_TAU * lam_1 and sqrt(lam_r) > 2 * tol (so the SVD would
    count all r too), the rank is r and the directions come from
    ``eigh(F^T F)``: F Q / sqrt(lam) when n < a, else Q.  Squaring the
    spectrum costs accuracy: orthonormality is off by about
    eps * lam_1 / lam_k <= eps / GRAM_TAU, and the subspace by about
    eps * lam_1 / (lam_b - lam_(b+1)), which is
    sigma_1 / (sigma_b + sigma_(b+1)) times the SVD's error.  Every other
    matrix, each rank-deficient window among them, takes one SVD of F, and
    its singular values above tol make the rank.
    """
    n, a = X.shape
    if not (1 <= b < a):
        raise DimensionMismatch(f"need 1 <= b < a={a}, got b={b}")
    centered = X - X.mean(axis=0)
    # the tall orientation keeps the factored matrix n x n (eigh) or makes
    # gesdd run about twice as fast
    tall = n < a
    F = centered.T if tall else centered
    tol = max(n, a) * np.finfo(np.float64).eps * np.linalg.norm(X)
    r = min(n - 1, a)
    lam, Q = np.linalg.eigh(F.T @ F)
    if lam[-r] > max(GRAM_TAU * lam[-1], (2 * tol) ** 2):
        k = min(b, r)
        lam, Q = lam[::-1][:k], Q[:, ::-1][:, :k]
        directions, _ = _fix_signs(F @ Q / np.sqrt(lam) if tall else Q)
        return directions, r
    U, svals, Vt = np.linalg.svd(F, full_matrices=False)
    V = U if tall else Vt.T
    rank = int(np.count_nonzero(svals > tol))
    directions, _ = _fix_signs(V[:, :min(b, rank)])
    return directions, rank


def orthogonal_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(basis).

    Not used by adasel itself.  Deterministic: uses the full Householder
    QR of the input and the same column sign convention as pca_basis.
    """
    basis = np.asarray(basis, dtype=np.float64)
    a, b = basis.shape
    if np.abs(basis.T @ basis - np.eye(b)).max() > ORTHO_TOL:
        raise NotOrthonormal("input columns are not orthonormal")
    q, _ = np.linalg.qr(basis, mode="complete")
    comp, _ = _fix_signs(q[:, b:])
    return comp


def principal_angles(x: SubspaceBasis, z: SubspaceBasis) -> PrincipalDecomposition:
    """Principal angles and coupled rotations between two b-dim subspaces.

    Angles below pi/4 and their right vectors V come from the SVD of the
    residual z - x x^T z, whose singular values are their sines; the rest
    come from the SVD x^T z = U diag(cos theta_k) V^T (Bjorck & Golub 1973,
    Knyazev & Argentati 2002).  Near 1 the cosines resolve neither the
    angles nor V, and the sines do.  The flow directions B solve
    ``B diag(sin theta_k) = -(I - x x^T) z V``; columns whose sine is below
    DEGENERATE_SIN get angle 0 and a deterministic orthonormal completion.
    """
    if x.dim_ambient != z.dim_ambient:
        raise DimensionMismatch(
            f"ambient dims differ: {x.dim_ambient} vs {z.dim_ambient}")
    if x.dim_subspace != z.dim_subspace:
        raise DimensionMismatch(
            f"subspace dims differ: {x.dim_subspace} vs {z.dim_subspace}")
    a, b = x.dim_ambient, x.dim_subspace
    if a - b < b:
        raise DimensionMismatch(
            f"b flow directions orthogonal to x need 2b <= a; a={a}, b={b}")

    M = x.basis.T @ z.basis
    R = z.basis - x.basis @ M
    U, cos, Vt = np.linalg.svd(M)
    _, sin, St = np.linalg.svd(R, full_matrices=False)
    m = int(np.count_nonzero(sin < SIN_PI_4))   # angles below pi/4
    sin, St = sin[::-1][:m], St[::-1][:m]
    degenerate = np.zeros(b, dtype=bool)
    degenerate[:m] = sin < DEGENERATE_SIN
    # the sines put the other angles at or above pi/4; clipping keeps that
    # true in rounding, so the angles stay sorted
    angles = np.concatenate([np.arcsin(sin),
                             np.arccos(np.clip(cos[m:], 0.0, SIN_PI_4))])
    angles[degenerate] = 0.0
    V = np.hstack([St.T, Vt[m:].T])
    MV = M @ V[:, :m]
    U = np.hstack([MV / np.linalg.norm(MV, axis=0), U[:, m:]])
    U, signs = _fix_signs(U)
    V = V * signs

    # flow directions: -(I - x x^T) z V, column k has norm sin(theta_k)
    P = -(R @ V)
    good = ~degenerate
    B = np.zeros_like(P)
    B[:, good] = P[:, good] / np.linalg.norm(P[:, good], axis=0)
    if np.any(degenerate):
        anchor = np.hstack([x.basis, B[:, good]])
        q, _ = np.linalg.qr(anchor, mode="complete")
        fill = q[:, anchor.shape[1]:anchor.shape[1] + int(degenerate.sum())]
        B[:, degenerate] = _fix_signs(fill)[0]
    return PrincipalDecomposition(
        angles=angles, left_rotation=U, right_rotation=V,
        flow_complement=B)
