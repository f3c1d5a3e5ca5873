"""Geodesic flow between subspaces, its closed-form kernel, and distances.

The flow from a source subspace x to a target z on the Grassmann manifold is

    theta(y) = x U diag(cos(y * theta_k)) - B diag(sin(y * theta_k)),

with U the left rotation and B the flow directions from
:func:`adasel.subspace.principal_angles`.  The kernel W is the exact
integral of theta(y) theta(y)^T over y in [0, 1]: an a x a symmetric PSD
matrix of rank <= 2b.  A trapezoidal integrator over actual flow samples
serves as its independent verification oracle.

The runtime never forms the flow or W: :func:`stacked_distances` returns,
for many sources at once, the distance delta^T W delta with delta = t - r,
written in b-dimensional quantities.  The dense W of :func:`gfk_kernel`,
checked against ``kernel_integral_oracle``, is the reference that tests
and oracles check those distances against.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .subspace import PrincipalDecomposition, SubspaceBasis

# Below this angle lambda3/sin^2 = (1 - lambda1)/sin^2, which cancels as
# theta -> 0, takes its series.  At 0.05 the series is off by 1.3e-14 and
# the closed form by 8.2e-14, relative to 50-digit references.
SERIES_ANGLE = 0.05
# Flow samples the trapezoidal oracle holds in memory at once.
ORACLE_CHUNK = 4096


def _flow_free_coeffs(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda1, lambda2/sin(theta) and lambda3/sin(theta)^2 per angle.

    lambda1 = 1/2 + sin(2 theta)/(4 theta) and lambda2/sin(theta) =
    -sin(theta)/(2 theta) are sinc functions, exact at every angle.
    lambda3/sin(theta)^2 tends to 1/3; below SERIES_ANGLE it is the series
    1/3 + 2 t^2/45 + 2 t^4/315 + 4 t^6/4725 in t = theta, so nothing
    divides by a small sine.
    """
    th = np.asarray(angles, dtype=np.float64)
    l1 = 0.5 + 0.5 * np.sinc(2.0 * th / np.pi)
    small = th < SERIES_ANGLE
    t2 = th * th
    series = 1 / 3 + t2 * (2 / 45 + t2 * (2 / 315 + t2 * 4 / 4725))
    sin2 = np.where(small, 1.0, np.sin(th) ** 2)
    l3s = np.where(small, series, (1.0 - l1) / sin2)
    return l1, -0.5 * np.sinc(th / np.pi), l3s


def _lambda_coeffs(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda1, lambda2 and lambda3, the dense kernel's diagonal entries,
    from :func:`_flow_free_coeffs` times sin(theta) and sin(theta)^2."""
    th = np.asarray(angles, dtype=np.float64)
    l1, l2s, l3s = _flow_free_coeffs(th)
    sin = np.sin(th)
    return l1, l2s * sin, l3s * sin * sin


def stacked_distances(bases: np.ndarray, means: np.ndarray,
                      z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Kernel distances from M sources to one target, without the flow.

    ``bases`` (M, a, k) holds each source basis x_s, ``means`` (M, a) each
    source feature t_s; z (a, k) and r (a,) are the target's.  Entry s is
    delta^T W delta with delta = t_s - r and the dense
    W = ``gfk_kernel(principal_angles(x_s, z), x_s)``, computed in k-dim
    quantities only.  With g = x^T delta, h = z^T delta and
    x^T z = U diag(cos theta) V^T, let p = U^T g and
    w = V^T (h - (x^T z)^T g) = -sin(theta) B^T delta.  Then

        d = sum lambda1 p^2 - 2 (lambda2/sin theta) p w
              + (lambda3/sin^2 theta) w^2.

    The three coefficients depend smoothly on cos theta, so d does not
    depend on the rotations the SVD picks inside a cluster of equal angles,
    and no flow direction B is needed.  Rounding negatives are clamped to zero.
    """
    delta = means - r                                   # (M, a)
    xz = np.matmul(bases.transpose(0, 2, 1), z)         # (M, k, k)
    g = np.matmul(delta[:, None, :], bases)[:, 0, :]    # (M, k)
    h = delta @ z
    U, cos, Vt = np.linalg.svd(xz)
    p = np.einsum("mki,mk->mi", U, g)
    w = np.einsum("mij,mj->mi", Vt, h - np.einsum("mkj,mk->mj", xz, g))
    l1, l2s, l3s = _flow_free_coeffs(np.arccos(np.minimum(cos, 1.0)))
    d = (l1 * p * p - 2.0 * l2s * p * w + l3s * w * w).sum(axis=1)
    return np.maximum(d, 0.0)


def _flow_factors(dec: PrincipalDecomposition,
                  x: SubspaceBasis) -> tuple[np.ndarray, np.ndarray]:
    """A = x U and B, the two fixed a x b factors of the flow."""
    if x.dim_ambient != dec.flow_complement.shape[0]:
        raise DimensionMismatch("basis does not match the decomposition")
    return x.basis @ dec.left_rotation, dec.flow_complement


def flow_samples(dec: PrincipalDecomposition, x: SubspaceBasis,
                 ys: np.ndarray) -> np.ndarray:
    """theta(y) for a batch of y values, stacked as (len(ys), a, b)."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size and (ys.min() < 0.0 or ys.max() > 1.0):
        raise OutOfRange("flow parameters must be in [0, 1]")
    A, B = _flow_factors(dec, x)
    C = np.cos(np.outer(ys, dec.angles))
    S = np.sin(np.outer(ys, dec.angles))
    return A[None, :, :] * C[:, None, :] - B[None, :, :] * S[:, None, :]


def gfk_kernel(dec: PrincipalDecomposition, x: SubspaceBasis) -> np.ndarray:
    """Closed-form dense kernel W = [xU, B] [[L1, L2], [L2, L3]] [xU, B]^T.

    The a x a W is symmetrized; it is the reference the runtime's
    :func:`stacked_distances` is checked against.
    """
    A, B = _flow_factors(dec, x)
    l1, l2, l3 = _lambda_coeffs(dec.angles)
    GM = np.hstack([A * l1 + B * l2, A * l2 + B * l3])
    W = GM @ np.hstack([A, B]).T
    return (W + W.T) / 2.0


def kernel_integral_oracle(dec: PrincipalDecomposition, x: SubspaceBasis,
                           steps: int) -> np.ndarray:
    """Trapezoidal approximation of the integral of theta(y) theta(y)^T.

    Independent check of the closed-form kernel: sums outer products of
    actual flow samples on a uniform grid of ``steps`` subintervals.
    Error decreases as O(steps^-2).
    """
    if steps < 10:
        raise OutOfRange(f"need steps >= 10, got {steps}")
    a = x.dim_ambient
    ys = np.linspace(0.0, 1.0, steps + 1)
    weights = np.full(steps + 1, 1.0 / steps)
    weights[0] = weights[-1] = 0.5 / steps
    W = np.zeros((a, a))
    for lo in range(0, steps + 1, ORACLE_CHUNK):
        F = flow_samples(dec, x, ys[lo:lo + ORACLE_CHUNK])
        Fw = F * weights[lo:lo + ORACLE_CHUNK, None, None]
        G1 = F.transpose(1, 0, 2).reshape(a, -1)
        G2 = Fw.transpose(1, 0, 2).reshape(a, -1)
        W += G2 @ G1.T
    return (W + W.T) / 2.0

