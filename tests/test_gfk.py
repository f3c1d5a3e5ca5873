import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasel.errors import DimensionMismatch, OutOfRange
from adasel.gfk import (GeodesicKernel, flow_samples, geodesic_flow,
                        gfk_kernel, kernel_distance, kernel_integral_oracle,
                        similarity)
from adasel.subspace import SubspaceBasis, orthogonal_complement, principal_angles
from conftest import max_sine_angle, random_subspace


def planar_pair(alpha):
    x = np.array([[1.0], [0.0]])
    z = np.array([[np.cos(alpha)], [np.sin(alpha)]])
    sx = SubspaceBasis(x, orthogonal_complement(x))
    sz = SubspaceBasis(z, orthogonal_complement(z))
    return sx, sz


def planar_analytic_kernel(alpha):
    off = (1.0 - np.cos(2 * alpha)) / (4 * alpha)
    return np.array([
        [0.5 + np.sin(2 * alpha) / (4 * alpha), off],
        [off, 0.5 - np.sin(2 * alpha) / (4 * alpha)],
    ])


# --------------------------------------------------------------------------
# geodesic_flow

def test_flow_endpoints(rng):
    for a, b in [(10, 2), (20, 5), (50, 10)]:
        x, z = random_subspace(rng, a, b), random_subspace(rng, a, b)
        dec = principal_angles(x, z)
        start = geodesic_flow(dec, x, 0.0).matrix
        assert np.allclose(start, x.basis @ dec.left_rotation, atol=1e-12)
        assert max_sine_angle(start, x.basis) < 1e-8
        end = geodesic_flow(dec, x, 1.0).matrix
        assert max_sine_angle(end, z.basis) < 1e-8


def test_flow_columns_orthonormal_along_path(rng):
    x, z = random_subspace(rng, 16, 4), random_subspace(rng, 16, 4)
    dec = principal_angles(x, z)
    for y in [0.0, 0.2, 0.5, 0.8, 1.0]:
        m = geodesic_flow(dec, x, y).matrix
        assert np.abs(m.T @ m - np.eye(4)).max() < 1e-8


def test_flow_planar_midpoint():
    sx, sz = planar_pair(0.7)
    dec = principal_angles(sx, sz)
    mid = geodesic_flow(dec, sx, 0.5).matrix
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
            x = SubspaceBasis(q0, orthogonal_complement(q0))
            z = SubspaceBasis(q1, orthogonal_complement(q1))
            dec = principal_angles(x, z)
            assert np.all(np.diff(dec.angles) >= 0.0)
            end = geodesic_flow(dec, x, 1.0).matrix
            assert max_sine_angle(end, z.basis) < 1e-8


def test_flow_rejects_out_of_range(rng):
    x, z = random_subspace(rng, 8, 2), random_subspace(rng, 8, 2)
    dec = principal_angles(x, z)
    for y in [-0.1, 1.1]:
        with pytest.raises(OutOfRange):
            geodesic_flow(dec, x, y)


def test_flow_samples_match_single_evaluations(rng):
    x, z = random_subspace(rng, 12, 3), random_subspace(rng, 12, 3)
    dec = principal_angles(x, z)
    ys = np.array([0.0, 0.13, 0.5, 0.99, 1.0])
    batch = flow_samples(dec, x, ys)
    for i, y in enumerate(ys):
        assert np.array_equal(batch[i], geodesic_flow(dec, x, float(y)).matrix)


def test_flow_samples_reject_out_of_range(rng):
    x, z = random_subspace(rng, 8, 2), random_subspace(rng, 8, 2)
    dec = principal_angles(x, z)
    with pytest.raises(OutOfRange):
        flow_samples(dec, x, np.array([0.0, 1.2]))


def test_distance_rejects_non_finite_features(rng):
    x = random_subspace(rng, 8, 2)
    k = gfk_kernel(principal_angles(x, x), x)
    bad = np.full(8, np.nan)
    with pytest.raises(ValueError):
        kernel_distance(bad, np.zeros(8), k)


# --------------------------------------------------------------------------
# gfk_kernel

def test_kernel_identical_subspaces_is_projector(rng):
    x = random_subspace(rng, 12, 3)
    k = gfk_kernel(principal_angles(x, x), x)
    assert np.abs(k.matrix - x.basis @ x.basis.T).max() < 1e-12
    assert np.allclose(k.lambda1, 1.0, atol=1e-12)
    assert np.allclose(k.lambda2, 0.0, atol=1e-12)
    assert np.allclose(k.lambda3, 0.0, atol=1e-12)


def test_kernel_planar_analytic():
    for alpha in [0.1, 0.7, np.pi / 2]:
        sx, sz = planar_pair(alpha)
        k = gfk_kernel(principal_angles(sx, sz), sx)
        assert np.abs(k.matrix - planar_analytic_kernel(alpha)).max() < 1e-12


def test_kernel_matches_oracle(rng):
    x, z = random_subspace(rng, 20, 5), random_subspace(rng, 20, 5)
    dec = principal_angles(x, z)
    W = gfk_kernel(dec, x).matrix
    Wo = kernel_integral_oracle(dec, x, steps=100_000)
    rel = np.linalg.norm(W - Wo) / np.linalg.norm(W)
    assert rel <= 1e-8


def test_kernel_symmetric_psd_low_rank(rng):
    x, z = random_subspace(rng, 15, 4), random_subspace(rng, 15, 4)
    W = gfk_kernel(principal_angles(x, z), x).matrix
    assert np.abs(W - W.T).max() < 1e-10
    eigs = np.linalg.eigvalsh(W)
    assert eigs.min() >= -1e-8 * (np.trace(W) / 15)
    assert np.sum(eigs > 1e-10) <= 8


def test_kernel_small_angle_series_consistent(rng):
    # series branch (theta < 1e-4) agrees with the oracle at tiny angles
    a, b = 10, 2
    alpha = np.array([5e-5, 1e-3])
    basis = np.eye(a)[:, :b]
    zcols = np.zeros((a, b))
    for k, th in enumerate(alpha):
        zcols[:, k] = np.cos(th) * basis[:, k]
        zcols[k + b, k] = np.sin(th)
    x = SubspaceBasis(basis, orthogonal_complement(basis))
    z = SubspaceBasis(zcols, orthogonal_complement(zcols))
    dec = principal_angles(x, z)
    W = gfk_kernel(dec, x).matrix
    Wo = kernel_integral_oracle(dec, x, steps=100_000)
    assert np.abs(W - Wo).max() < 1e-10


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
    W = gfk_kernel(dec, x).matrix
    e1 = np.linalg.norm(kernel_integral_oracle(dec, x, steps=10_000) - W)
    e2 = np.linalg.norm(kernel_integral_oracle(dec, x, steps=5_000) - W)
    assert 3.5 < e2 / e1 < 4.5


def test_oracle_rejects_too_few_steps(rng):
    x = random_subspace(rng, 8, 2)
    dec = principal_angles(x, x)
    with pytest.raises(OutOfRange):
        kernel_integral_oracle(dec, x, steps=9)


# --------------------------------------------------------------------------
# kernel_distance / similarity

def test_distance_zero_for_equal_features(rng):
    x, z = random_subspace(rng, 10, 3), random_subspace(rng, 10, 3)
    k = gfk_kernel(principal_angles(x, z), x)
    t = rng.standard_normal(10)
    assert kernel_distance(t, t, k) == 0.0


def test_distance_with_identity_kernel_is_squared_euclidean(rng):
    # a = 2b and L1 = L3 = 1, L2 = 0: W = A A^T + B B^T = I
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    k = GeodesicKernel(start=q[:, :3], flow=q[:, 3:], lambda1=np.ones(3),
                       lambda2=np.zeros(3), lambda3=np.ones(3))
    assert np.abs(k.matrix - np.eye(6)).max() < 1e-12
    t, r = rng.standard_normal(6), rng.standard_normal(6)
    assert abs(kernel_distance(t, r, k) - np.sum((t - r) ** 2)) < 1e-12


def test_distance_planar_right_angle_value():
    sx, sz = planar_pair(np.pi / 2)
    k = gfk_kernel(principal_angles(sx, sz), sx)
    d = kernel_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), k)
    assert abs(d - (1.0 - 2.0 / np.pi)) < 1e-12


def test_distance_equals_three_term_expansion(rng):
    x, z = random_subspace(rng, 12, 3), random_subspace(rng, 12, 3)
    k = gfk_kernel(principal_angles(x, z), x)
    t, r = rng.standard_normal(12), rng.standard_normal(12)
    W = k.matrix
    three_term = t @ W @ t + r @ W @ r - 2.0 * (t @ W @ r)
    assert abs(kernel_distance(t, r, k) - three_term) < 1e-10


def test_distance_dimension_mismatch(rng):
    x = random_subspace(rng, 8, 2)
    k = gfk_kernel(principal_angles(x, x), x)
    with pytest.raises(DimensionMismatch):
        kernel_distance(np.zeros(7), np.zeros(8), k)


def test_similarity_reference_points():
    assert similarity(0.0) == 1.0
    assert abs(similarity(np.log(2.0)) - 0.5) < 1e-15
    assert 0.0 < similarity(50.0) < 2e-22
    assert similarity(700.0) > 0.0


def test_similarity_strictly_decreasing(rng):
    ds = np.sort(rng.uniform(0.0, 60.0, size=50))
    sims = [similarity(float(d)) for d in ds]
    assert all(s1 > s2 for s1, s2 in zip(sims, sims[1:]))


def test_similarity_rejects_negative():
    with pytest.raises(OutOfRange):
        similarity(-1e-9)


# --------------------------------------------------------------------------
# invariances

def test_kernel_invariant_under_basis_rotation(rng):
    x, z = random_subspace(rng, 14, 4), random_subspace(rng, 14, 4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    xq = SubspaceBasis(x.basis @ q, orthogonal_complement(x.basis @ q))
    W1 = gfk_kernel(principal_angles(x, z), x).matrix
    W2 = gfk_kernel(principal_angles(xq, z), xq).matrix
    assert np.linalg.norm(W1 - W2) < 1e-9


def test_kernel_direction_symmetry(rng):
    x, z = random_subspace(rng, 14, 4), random_subspace(rng, 14, 4)
    W_fwd = gfk_kernel(principal_angles(x, z), x).matrix
    W_rev = gfk_kernel(principal_angles(z, x), z).matrix
    assert np.linalg.norm(W_fwd - W_rev) < 1e-8


# --------------------------------------------------------------------------
# properties of the factored distance

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
def test_factored_distance_equals_dense_quadratic_form(case):
    x, z, rng = case
    k = gfk_kernel(principal_angles(x, z), x)
    t = 10.0 * rng.standard_normal(x.dim_ambient)
    r = rng.standard_normal(x.dim_ambient)
    delta = t - r
    dense = delta @ k.matrix @ delta
    assert abs(kernel_distance(t, r, k) - dense) <= 1e-12 * (delta @ delta)


@settings(max_examples=300, deadline=None)
@given(subspace_pairs())
def test_distance_invariant_under_basis_rotation(case):
    x, z, rng = case
    a, b = x.dim_ambient, x.dim_subspace
    t, r = 10.0 * rng.standard_normal(a), rng.standard_normal(a)
    q1, _ = np.linalg.qr(rng.standard_normal((b, b)))
    q2, _ = np.linalg.qr(rng.standard_normal((b, b)))
    xq, zq = SubspaceBasis(x.basis @ q1), SubspaceBasis(z.basis @ q2)
    d = kernel_distance(t, r, gfk_kernel(principal_angles(x, z), x))
    dq = kernel_distance(t, r, gfk_kernel(principal_angles(xq, zq), xq))
    assert abs(d - dq) <= 1e-12 * ((t - r) @ (t - r))
