import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasel.errors import DimensionMismatch, OutOfRange
from adasel.gfk import (SERIES_ANGLE, _flow_free_coeffs, _lambda_coeffs,
                        flow_samples, gfk_kernel, kernel_integral_oracle)
from adasel.subspace import SubspaceBasis, principal_angles
from conftest import max_sine_angle, random_subspace, runtime_distance


def planar_pair(alpha):
    x = np.array([[1.0], [0.0]])
    z = np.array([[np.cos(alpha)], [np.sin(alpha)]])
    return SubspaceBasis(x), SubspaceBasis(z)


def planar_analytic_kernel(alpha):
    off = (1.0 - np.cos(2 * alpha)) / (4 * alpha)
    return np.array([
        [0.5 + np.sin(2 * alpha) / (4 * alpha), off],
        [off, 0.5 - np.sin(2 * alpha) / (4 * alpha)],
    ])


# --------------------------------------------------------------------------
# flow_samples

def test_flow_endpoints(rng):
    for a, b in [(10, 2), (20, 5), (50, 10)]:
        x, z = random_subspace(rng, a, b), random_subspace(rng, a, b)
        dec = principal_angles(x, z)
        start, end = flow_samples(dec, x, [0.0, 1.0])
        assert np.allclose(start, x.basis @ dec.left_rotation, atol=1e-12)
        assert max_sine_angle(start, x.basis) < 1e-8
        assert max_sine_angle(end, z.basis) < 1e-8


def test_flow_columns_orthonormal_along_path(rng):
    x, z = random_subspace(rng, 16, 4), random_subspace(rng, 16, 4)
    dec = principal_angles(x, z)
    for m in flow_samples(dec, x, [0.0, 0.2, 0.5, 0.8, 1.0]):
        assert np.abs(m.T @ m - np.eye(4)).max() < 1e-8


def test_flow_planar_midpoint():
    sx, sz = planar_pair(0.7)
    dec = principal_angles(sx, sz)
    mid = flow_samples(dec, sx, [0.5])[0]
    expect = np.array([[np.cos(0.35)], [np.sin(0.35)]])
    assert (np.abs(mid - expect).max() < 1e-12
            or np.abs(mid + expect).max() < 1e-12)


def test_flow_endpoints_for_nearly_identical_subspaces(rng):
    # angles below the SVD's cosine resolution: per-column pairing must
    # survive the sine-side refinement and stay endpoint-exact
    for eps in [1e-12, 1e-9, 1e-7, 1e-5]:
        for _ in range(5):
            q0, _ = np.linalg.qr(rng.standard_normal((14, 4)))
            q1, _ = np.linalg.qr(q0 + eps * rng.standard_normal((14, 4)))
            x = SubspaceBasis(q0)
            z = SubspaceBasis(q1)
            dec = principal_angles(x, z)
            assert np.all(np.diff(dec.angles) >= 0.0)
            end = flow_samples(dec, x, [1.0])[0]
            assert max_sine_angle(end, z.basis) < 1e-8


def test_flow_rejects_out_of_range(rng):
    x, z = random_subspace(rng, 8, 2), random_subspace(rng, 8, 2)
    dec = principal_angles(x, z)
    for ys in [[-0.1], [1.1], [0.0, 1.2]]:
        with pytest.raises(OutOfRange):
            flow_samples(dec, x, ys)


# --------------------------------------------------------------------------
# gfk_kernel

def test_kernel_identical_subspaces_is_projector(rng):
    x = random_subspace(rng, 12, 3)
    dec = principal_angles(x, x)
    W = gfk_kernel(dec, x)
    assert np.abs(W - x.basis @ x.basis.T).max() < 1e-12
    l1, l2, l3 = _lambda_coeffs(dec.angles)
    assert np.allclose(l1, 1.0, atol=1e-12)
    assert np.allclose(l2, 0.0, atol=1e-12)
    assert np.allclose(l3, 0.0, atol=1e-12)


def test_kernel_planar_analytic():
    for alpha in [0.1, 0.7, np.pi / 2]:
        sx, sz = planar_pair(alpha)
        W = gfk_kernel(principal_angles(sx, sz), sx)
        assert np.abs(W - planar_analytic_kernel(alpha)).max() < 1e-12


def test_kernel_matches_oracle(rng):
    x, z = random_subspace(rng, 20, 5), random_subspace(rng, 20, 5)
    dec = principal_angles(x, z)
    W = gfk_kernel(dec, x)
    Wo = kernel_integral_oracle(dec, x, steps=100_000)
    rel = np.linalg.norm(W - Wo) / np.linalg.norm(W)
    assert rel <= 1e-8


def test_kernel_symmetric_psd_low_rank(rng):
    x, z = random_subspace(rng, 15, 4), random_subspace(rng, 15, 4)
    W = gfk_kernel(principal_angles(x, z), x)
    assert np.abs(W - W.T).max() < 1e-10
    eigs = np.linalg.eigvalsh(W)
    assert eigs.min() >= -1e-8 * (np.trace(W) / 15)
    assert np.sum(eigs > 1e-10) <= 8


def test_kernel_small_angle_series_consistent(rng):
    # angles on both sides of 1e-4, all below SERIES_ANGLE, where
    # lambda3/sin^2 takes its series, agree with the oracle
    a, b = 10, 2
    alpha = np.array([5e-5, 1e-3])
    basis = np.eye(a)[:, :b]
    zcols = np.zeros((a, b))
    for k, th in enumerate(alpha):
        zcols[:, k] = np.cos(th) * basis[:, k]
        zcols[k + b, k] = np.sin(th)
    x = SubspaceBasis(basis)
    z = SubspaceBasis(zcols)
    dec = principal_angles(x, z)
    W = gfk_kernel(dec, x)
    Wo = kernel_integral_oracle(dec, x, steps=100_000)
    assert np.abs(W - Wo).max() < 1e-10


@pytest.mark.parametrize("call", [flow_samples, gfk_kernel])
def test_flow_and_kernel_reject_a_basis_of_another_dimension(rng, call):
    x, z = random_subspace(rng, 10, 2), random_subspace(rng, 10, 2)
    dec = principal_angles(x, z)
    other = random_subspace(rng, 12, 2)
    args = (dec, other, [0.5]) if call is flow_samples else (dec, other)
    with pytest.raises(DimensionMismatch,
                       match="basis does not match the decomposition"):
        call(*args)


# --------------------------------------------------------------------------
# the per-angle coefficients

def quadrature_coeffs(angles):
    """lambda1, lambda2/sin and lambda3/sin^2 at angles theta > 0, by
    40-node Gauss-Legendre quadrature over y in [0, 1] of cos(y theta)^2,
    -cos(y theta) sin(y theta) and sin(y theta)^2, each sine divided by
    sin(theta) inside the integrand so that nothing cancels."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    y, w = (nodes + 1.0) / 2.0, weights / 2.0
    theta = np.asarray(angles)[:, None]
    c, s = np.cos(y * theta), np.sin(y * theta) / np.sin(theta)
    return np.array([(c * c) @ w, -((c * s) @ w), (s * s) @ w])


def test_coefficients_match_their_integrals():
    l1, l2s, l3s = _flow_free_coeffs(np.zeros(1))
    assert (l1[0], l2s[0]) == (1.0, -0.5)
    assert abs(l3s[0] - 1.0 / 3.0) <= 1e-12 / 3.0
    l1, l2, l3 = _lambda_coeffs(np.zeros(1))
    assert (l1[0], l2[0], l3[0]) == (1.0, 0.0, 0.0)

    angles = np.concatenate([
        np.geomspace(1e-9, np.pi / 2, 2000),
        [np.nextafter(SERIES_ANGLE, 0.0), SERIES_ANGLE,
         np.nextafter(SERIES_ANGLE, 1.0)]])
    expect = quadrature_coeffs(angles)
    np.testing.assert_allclose(_flow_free_coeffs(angles), expect,
                               rtol=1e-12, atol=0.0)
    sin = np.sin(angles)
    np.testing.assert_allclose(_lambda_coeffs(angles),
                               expect * [np.ones_like(sin), sin, sin * sin],
                               rtol=1e-12, atol=0.0)


# --------------------------------------------------------------------------
# kernel_integral_oracle

def test_oracle_identical_subspaces(rng):
    x = random_subspace(rng, 9, 2)
    dec = principal_angles(x, x)
    W = kernel_integral_oracle(dec, x, steps=10)
    assert np.abs(W - x.basis @ x.basis.T).max() < 1e-12


def test_oracle_planar_matches_analytic():
    sx, sz = planar_pair(0.7)
    dec = principal_angles(sx, sz)
    W = kernel_integral_oracle(dec, sx, steps=100_000)
    assert np.abs(W - planar_analytic_kernel(0.7)).max() < 1e-9


def test_oracle_second_order_convergence(rng):
    x, z = random_subspace(rng, 16, 4), random_subspace(rng, 16, 4)
    dec = principal_angles(x, z)
    W = gfk_kernel(dec, x)
    e1 = np.linalg.norm(kernel_integral_oracle(dec, x, steps=10_000) - W)
    e2 = np.linalg.norm(kernel_integral_oracle(dec, x, steps=5_000) - W)
    assert 3.5 < e2 / e1 < 4.5


def test_oracle_rejects_too_few_steps(rng):
    x = random_subspace(rng, 8, 2)
    dec = principal_angles(x, x)
    with pytest.raises(OutOfRange):
        kernel_integral_oracle(dec, x, steps=9)


# --------------------------------------------------------------------------
# stacked_distances

def test_distance_zero_for_equal_features(rng):
    x, z = random_subspace(rng, 10, 3), random_subspace(rng, 10, 3)
    t = rng.standard_normal(10)
    assert runtime_distance(t, t, x, z) == 0.0


def test_distance_planar_right_angle_value():
    sx, sz = planar_pair(np.pi / 2)
    d = runtime_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), sx, sz)
    assert abs(d - (1.0 - 2.0 / np.pi)) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_distance_at_an_exactly_orthogonal_pair_is_a_geodesic_value(sign):
    # x = e1 and z = +-e2 are joined by two geodesics, one per rotation
    # sense; d must be delta^T W delta on one of them, never a blend
    x = SubspaceBasis(np.array([[1.0], [0.0]]))
    z = SubspaceBasis(np.array([[0.0], [sign]]))
    d = runtime_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), x, z)
    assert min(abs(d - (1.0 - 2.0 / np.pi)),
               abs(d - (1.0 + 2.0 / np.pi))) < 1e-12


@pytest.mark.parametrize("cos", [0.0, 1e-9])
def test_distance_with_an_orthogonal_direction_matches_the_dense_kernel(
        rng, cos):
    # b = 2 in R5: one angle of 0.7 and one at (or 1e-9 short of) pi/2
    e = np.eye(5)
    x = SubspaceBasis(e[:, :2])
    z = SubspaceBasis(np.column_stack([
        cos * e[:, 0] + np.sqrt(1.0 - cos * cos) * e[:, 2],
        np.cos(0.7) * e[:, 1] + np.sin(0.7) * e[:, 3]]))
    dec = principal_angles(x, z)
    assert np.allclose(dec.angles, [0.7, np.arccos(cos)], atol=1e-12)
    W = gfk_kernel(dec, x)
    for _ in range(20):
        t, r = 10.0 * rng.standard_normal(5), rng.standard_normal(5)
        delta = t - r
        d = runtime_distance(t, r, x, z)
        assert abs(d - delta @ W @ delta) <= 1e-12 * (delta @ delta)


# --------------------------------------------------------------------------
# invariances

def test_kernel_invariant_under_basis_rotation(rng):
    x, z = random_subspace(rng, 14, 4), random_subspace(rng, 14, 4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    xq = SubspaceBasis(x.basis @ q)
    W1 = gfk_kernel(principal_angles(x, z), x)
    W2 = gfk_kernel(principal_angles(xq, z), xq)
    assert np.linalg.norm(W1 - W2) < 1e-9


def test_kernel_direction_symmetry(rng):
    x, z = random_subspace(rng, 14, 4), random_subspace(rng, 14, 4)
    W_fwd = gfk_kernel(principal_angles(x, z), x)
    W_rev = gfk_kernel(principal_angles(z, x), z)
    assert np.linalg.norm(W_fwd - W_rev) < 1e-8


# --------------------------------------------------------------------------
# properties of the runtime distance

@st.composite
def subspace_pairs(draw):
    """(x, z, rng): a in [4, 40], b <= a/2; z random, equal to x, or near x.

    A near z is x perturbed by 1e-12 to 1e-4 (log-uniform) and
    re-orthonormalized.
    """
    a = draw(st.integers(4, 40))
    b = draw(st.integers(1, a // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = random_subspace(rng, a, b)
    kind = draw(st.sampled_from(["random", "identical", "near"]))
    if kind == "random":
        z = random_subspace(rng, a, b)
    elif kind == "identical":
        z = x
    else:
        eps = 10.0 ** draw(st.floats(-12.0, -4.0))
        q, _ = np.linalg.qr(x.basis + eps * rng.standard_normal((a, b)))
        z = SubspaceBasis(q)
    return x, z, rng


@settings(max_examples=300, deadline=None)
@given(subspace_pairs())
def test_distance_invariant_under_basis_rotation(case):
    x, z, rng = case
    a, b = x.dim_ambient, x.dim_subspace
    t, r = 10.0 * rng.standard_normal(a), rng.standard_normal(a)
    q1, _ = np.linalg.qr(rng.standard_normal((b, b)))
    q2, _ = np.linalg.qr(rng.standard_normal((b, b)))
    xq, zq = SubspaceBasis(x.basis @ q1), SubspaceBasis(z.basis @ q2)
    d = runtime_distance(t, r, x, z)
    dq = runtime_distance(t, r, xq, zq)
    assert abs(d - dq) <= 1e-12 * ((t - r) @ (t - r))
