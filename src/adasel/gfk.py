"""Geodesic flow between subspaces, its closed-form kernel, and distances.

The flow from a source subspace x to a target z on the Grassmann manifold is

    theta(y) = x U diag(cos(y * theta_k)) - B diag(sin(y * theta_k)),

with U the left rotation and B the flow directions from
:func:`adasel.subspace.principal_angles`.  The kernel W is the exact
integral of theta(y) theta(y)^T over y in [0, 1]: an a x a symmetric PSD
matrix of rank <= 2b.  It is kept as its a x b factors, so a distance costs
O(ab); the dense W is formed only on request.  A trapezoidal integrator
over actual flow samples serves as the independent verification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .subspace import PrincipalDecomposition, SubspaceBasis, as_feature_vector

# Below this angle the closed-form lambda expressions hit 0/0 cancellation
# and the 4th-order series is exact to ~1e-21.
SERIES_ANGLE = 1e-4


@dataclass
class FlowPoint:
    """One point theta(y) on the geodesic: a x b with orthonormal columns."""

    y: float
    matrix: np.ndarray


@dataclass
class GeodesicKernel:
    """Closed-form geodesic flow kernel in factored form.

    W = [A, B] [[L1, L2], [L2, L3]] [A, B]^T with ``start`` = A = x U (the
    flow at y=0), ``flow`` = B and the diagonals ``lambda1``-``lambda3``.
    """

    start: np.ndarray
    flow: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda3: np.ndarray

    @property
    def dim_ambient(self) -> int:
        return self.start.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The dense a x a kernel W, symmetrized."""
        A, B = self.start, self.flow
        GM = np.hstack([A * self.lambda1 + B * self.lambda2,
                        A * self.lambda2 + B * self.lambda3])
        W = GM @ np.hstack([A, B]).T
        return (W + W.T) / 2.0


def _lambda_coeffs(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal entries of the integral kernel for each principal angle.

    lambda1_k = 1/2 + sin(2 theta)/(4 theta)
    lambda2_k = (cos(2 theta) - 1)/(4 theta)
    lambda3_k = 1/2 - sin(2 theta)/(4 theta)
    with 4th-order series below SERIES_ANGLE.
    """
    th = np.asarray(angles, dtype=np.float64)
    small = th < SERIES_ANGLE
    denom = np.where(small, 1.0, 4.0 * th)
    two = 2.0 * th
    l1 = np.where(small, 1.0 - th**2 / 3.0 + th**4 / 15.0,
                  0.5 + np.sin(two) / denom)
    l2 = np.where(small, -th / 2.0 + th**3 / 6.0,
                  (np.cos(two) - 1.0) / denom)
    l3 = np.where(small, th**2 / 3.0 - th**4 / 15.0,
                  0.5 - np.sin(two) / denom)
    return l1, l2, l3


def _flow_factors(dec: PrincipalDecomposition,
                  x: SubspaceBasis) -> tuple[np.ndarray, np.ndarray]:
    """A = x U and B, the two fixed a x b factors of the flow."""
    if x.dim_ambient != dec.flow_complement.shape[0]:
        raise DimensionMismatch("basis does not match the decomposition")
    return x.basis @ dec.left_rotation, dec.flow_complement


def geodesic_flow(dec: PrincipalDecomposition, x: SubspaceBasis,
                  y: float) -> FlowPoint:
    """Point theta(y) on the geodesic from x's subspace to the target's.

    At y=0 the matrix is x U (spans x's subspace); at y=1 it spans the
    target subspace.
    """
    if not 0.0 <= y <= 1.0:
        raise OutOfRange(f"flow parameter must be in [0, 1], got {y}")
    A, B = _flow_factors(dec, x)
    return FlowPoint(y=y, matrix=A * np.cos(y * dec.angles)
                     - B * np.sin(y * dec.angles))


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


def gfk_kernel(dec: PrincipalDecomposition, x: SubspaceBasis) -> GeodesicKernel:
    """Closed-form kernel W = [xU, B] [[L1, L2], [L2, L3]] [xU, B]^T."""
    A, B = _flow_factors(dec, x)
    l1, l2, l3 = _lambda_coeffs(dec.angles)
    return GeodesicKernel(start=A, flow=B, lambda1=l1, lambda2=l2, lambda3=l3)


def kernel_integral_oracle(dec: PrincipalDecomposition, x: SubspaceBasis,
                           steps: int, chunk: int = 4096) -> np.ndarray:
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
    for lo in range(0, steps + 1, chunk):
        F = flow_samples(dec, x, ys[lo:lo + chunk])
        Fw = F * weights[lo:lo + chunk, None, None]
        G1 = F.transpose(1, 0, 2).reshape(a, -1)
        G2 = Fw.transpose(1, 0, 2).reshape(a, -1)
        W += G2 @ G1.T
    return (W + W.T) / 2.0


def kernel_distance(t, r, kernel: GeodesicKernel) -> float:
    """Kernel-induced squared distance (t - r)^T W (t - r), from the factors.

    With delta = t - r, p = A^T delta and q = B^T delta this is
    p^T L1 p + 2 p^T L2 q + q^T L3 q.  Tiny negatives from rounding (W is
    PSD only to floating-point tolerance) are clamped to zero.
    """
    t = as_feature_vector(t)
    r = as_feature_vector(r)
    a = kernel.dim_ambient
    if t.shape != (a,) or r.shape != (a,):
        raise DimensionMismatch(
            f"features must have shape ({a},), got {t.shape} and {r.shape}")
    delta = t - r
    p = kernel.start.T @ delta
    q = kernel.flow.T @ delta
    d = float(p @ (kernel.lambda1 * p + 2.0 * kernel.lambda2 * q)
              + q @ (kernel.lambda3 * q))
    return d if d > 0.0 else 0.0


def similarity(d: float) -> float:
    """exp(-d): 1 at distance 0, strictly decreasing, always positive."""
    if d < 0.0:
        raise OutOfRange(f"distance must be nonnegative, got {d}")
    return math.exp(-d)
