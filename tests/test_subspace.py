import numpy as np
import pytest

from adasel.errors import DimensionMismatch, NotOrthonormal, RankDeficient
from adasel.subspace import (GRAM_TAU, SubspaceBasis, _fix_signs,
                             _principal_directions, orthogonal_complement,
                             pca_basis, principal_angles)
from conftest import max_sine_angle, random_subspace


# --------------------------------------------------------------------------
# pca_basis

def test_pca_recovers_coordinate_plane():
    # samples span exactly the e1-e2 plane in R4, more variance along e1
    samples = np.array([
        [3.0, 0.0, 0.0, 0.0],
        [-3.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    basis = pca_basis(samples, 2)
    expect = np.eye(4)[:, :2]
    assert np.allclose(np.abs(basis), expect, atol=1e-12)
    # sign convention: largest-magnitude entry positive
    assert basis[0, 0] > 0 and basis[1, 1] > 0


def test_pca_identical_samples_rank_deficient():
    samples = np.tile([1.0, 2.0, 3.0], (5, 1))
    with pytest.raises(RankDeficient, match=r"rank 0 < requested b=1$"):
        pca_basis(samples, 1)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_pca_with_at_most_b_samples_is_rank_deficient_before_decomposing(
        monkeypatch, n):
    # n samples have rank at most n - 1 < b: no decomposition can help
    monkeypatch.setattr("adasel.subspace._principal_directions", None)
    samples = np.random.default_rng(5).standard_normal((n, 6))
    with pytest.raises(RankDeficient,
                       match=rf"^{n} samples: .* < requested b=3$"):
        pca_basis(samples, 3)


def test_pca_reports_achievable_rank():
    rng = np.random.default_rng(3)
    # rank-2 data in R6
    factors = rng.standard_normal((6, 2))
    samples = rng.standard_normal((40, 2)) @ factors.T
    with pytest.raises(RankDeficient, match=r"rank 2 < requested b=4$"):
        pca_basis(samples, 4)


def test_pca_three_factor_model_spans_true_subspace(rng):
    # 100 samples from a known 3-factor linear model in R20
    q, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    coeffs = rng.standard_normal((100, 3)) * np.array([3.0, 2.0, 1.5])
    samples = coeffs @ q.T + 0.05 * rng.standard_normal((100, 20))
    sub = SubspaceBasis(pca_basis(samples, 3))
    dec = principal_angles(SubspaceBasis(q), sub)
    assert dec.angles.max() < 0.05


def test_pca_output_satisfies_invariants(rng):
    samples = rng.standard_normal((30, 12))
    basis = pca_basis(samples, 4)
    assert basis.shape == (12, 4)
    assert np.abs(basis.T @ basis - np.eye(4)).max() <= 1e-10


def test_pca_rejects_mismatched_sample_lengths():
    with pytest.raises(DimensionMismatch):
        pca_basis([[1.0, 2.0], [1.0, 2.0, 3.0]], 1)


@pytest.mark.parametrize("shape, b, message", [
    ((10, 6), 0, r"need 1 <= b < a=6, got b=0"),
    ((10, 6), 6, r"need 1 <= b < a=6, got b=6"),
    ((10,), 1, r"got shape \(10,\)"),
    ((10, 1), 1, r"got shape \(10, 1\)"),
], ids=["b-zero", "b-equals-a", "one-dimensional", "single-column"])
def test_pca_rejects_a_subspace_dimension_or_shape_out_of_range(
        rng, shape, b, message):
    with pytest.raises(DimensionMismatch, match=message):
        pca_basis(rng.standard_normal(shape), b)


def test_pca_deterministic(rng):
    samples = rng.standard_normal((25, 9))
    assert np.array_equal(pca_basis(samples, 3), pca_basis(samples.copy(), 3))


@pytest.mark.parametrize("n, a, factors", [(30, 200, 30), (30, 200, 7),
                                           (300, 40, 40), (300, 40, 6)])
def test_principal_directions_agree_with_the_wide_svd(rng, n, a, factors):
    X = rng.standard_normal((n, factors)) @ rng.standard_normal((factors, a))
    X += rng.standard_normal(a)
    b = 12
    directions, got_rank = _principal_directions(X, b)

    # reference: the SVD of the n x a centered frames as they come
    centered = X - X.mean(axis=0)
    _, svals, Vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, a) * np.finfo(np.float64).eps * np.linalg.norm(X)
    expect_rank = int(np.count_nonzero(svals > tol))
    assert got_rank == expect_rank
    k = min(b, expect_rank)
    assert directions.shape == (a, k)
    assert np.abs(directions.T @ directions - np.eye(k)).max() < 1e-12
    assert max_sine_angle(directions, Vt[:k].T) < 1e-12
    peak = directions[np.argmax(np.abs(directions), axis=0), np.arange(k)]
    assert np.all(peak > 0)


def wide_svd_reference(X, b):
    """Rank, and top min(b, rank) right singular vectors, from the SVD of
    the n x a centered frames as they come."""
    n, a = X.shape
    _, svals, Vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    tol = max(n, a) * np.finfo(np.float64).eps * np.linalg.norm(X)
    rank = int(np.count_nonzero(svals > tol))
    return rank, Vt[:min(b, rank)].T


def frames_with_spectrum(rng, n, a, b, ratio):
    """n x a frames, offset from the origin, whose centered singular values
    fall geometrically from 1 to ``ratio`` over the first b directions and
    are ratio / 2 on the other min(n - 1, a) - b."""
    r = min(n - 1, a)
    svals = np.concatenate([np.geomspace(1.0, ratio, b),
                            np.full(r - b, ratio / 2)])
    # left factor orthogonal to the ones vector, so centering keeps it
    left, _ = np.linalg.qr(np.hstack([np.ones((n, 1)),
                                      rng.standard_normal((n, r))]))
    right, _ = np.linalg.qr(rng.standard_normal((a, r)))
    return (left[:, 1:] * svals) @ right.T + rng.standard_normal(a)


@pytest.mark.parametrize("n, a", [(30, 200), (300, 40)])
@pytest.mark.parametrize("ratio", [0.3, 0.1, 0.07, 0.06, 1e-2, 1e-3, 1e-4,
                                   1e-5, 1e-6, 1e-7, 1e-8, 1e-15])
def test_principal_directions_on_both_sides_of_the_gram_gate(
        rng, monkeypatch, n, a, ratio):
    b = 12
    X = frames_with_spectrum(rng, n, a, b, ratio)
    svd_shapes = []
    svd = np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        svd_shapes.append(M.shape)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    directions, got_rank = _principal_directions(X, b)
    monkeypatch.undo()

    # the Gram path runs exactly when its smallest eigenvalue passes the gate
    gram = not svd_shapes
    assert gram == ((ratio / 2) ** 2 > GRAM_TAU)
    expect_rank, reference = wide_svd_reference(X, b)
    assert got_rank == expect_rank
    assert (got_rank < b) == (ratio < 1e-12)      # degraded
    k = min(b, expect_rank)
    assert directions.shape == (a, k)
    if gram:
        assert np.abs(directions.T @ directions - np.eye(k)).max() <= 1e-12
        assert max_sine_angle(directions, reference) <= 1e-12
    else:
        # today's SVD of the centered frames on their long side, unchanged
        centered = X - X.mean(axis=0)
        tall = n < a
        assert svd_shapes == [(a, n) if tall else (n, a)]
        U, _, Vt = np.linalg.svd(centered.T if tall else centered,
                                 full_matrices=False)
        expect, _ = _fix_signs((U if tall else Vt.T)[:, :k])
        assert np.array_equal(directions, expect)
    peak = directions[np.argmax(np.abs(directions), axis=0), np.arange(k)]
    assert np.all(peak > 0)


def test_well_conditioned_tall_window_factors_only_its_gram(rng, monkeypatch):
    shapes = []
    for name in ("svd", "eigh"):
        def counting(M, *args, _real=getattr(np.linalg, name), **kwargs):
            shapes.append(M.shape)
            return _real(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    directions, rank = _principal_directions(
        rng.standard_normal((30, 1288)), 20)
    assert rank == 29 and directions.shape == (1288, 20)
    assert shapes == [(30, 30)]


def test_frames_far_from_the_origin_keep_the_svd_rank(rng):
    # an offset of 3e12 puts the rank tolerance (which scales with ||X||)
    # among the centered singular values, although lam_r / lam_1 passes
    # GRAM_TAU; the rank must still be the SVD's count
    X = rng.standard_normal((30, 200)) + 3e12
    directions, got_rank = _principal_directions(X, 12)
    expect_rank, _ = wide_svd_reference(X, 12)
    assert got_rank == expect_rank
    assert 0 < expect_rank < 29
    assert directions.shape == (200, min(12, expect_rank))


# --------------------------------------------------------------------------
# orthogonal_complement

def test_complement_of_e1_spans_e2_e3():
    comp = orthogonal_complement(np.array([[1.0], [0.0], [0.0]]))
    spanned = comp @ comp.T
    assert np.allclose(spanned, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_complement_of_identity_columns():
    a, b = 6, 2
    basis = np.eye(a)[:, :b]
    comp = orthogonal_complement(basis)
    assert np.allclose(comp, np.eye(a)[:, b:], atol=1e-12)


def test_stacked_basis_and_complement_is_orthogonal(rng):
    sub = random_subspace(rng, 20, 5)
    full = np.hstack([sub.basis, orthogonal_complement(sub.basis)])
    assert np.abs(full.T @ full - np.eye(20)).max() < 1e-10


def test_complement_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        orthogonal_complement(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


# --------------------------------------------------------------------------
# principal_angles

def test_identical_basis_gives_zero_angles(rng):
    sub = random_subspace(rng, 10, 3)
    dec = principal_angles(sub, sub)
    assert np.array_equal(dec.angles, np.zeros(3))
    # U and V are free up to a common rotation; the paired principal
    # vectors x U and z V coincide whatever it is
    assert np.allclose(sub.basis @ dec.left_rotation,
                       sub.basis @ dec.right_rotation, atol=1e-12)


def test_orthogonal_planes_give_right_angles():
    e = np.eye(4)
    x, z = SubspaceBasis(e[:, :2]), SubspaceBasis(e[:, 2:])
    dec = principal_angles(x, z)
    assert np.allclose(dec.angles, [np.pi / 2, np.pi / 2], atol=1e-12)


def test_planar_angle_is_alpha():
    alpha = 0.7
    x = np.array([[1.0], [0.0]])
    z = np.array([[np.cos(alpha)], [np.sin(alpha)]])
    dec = principal_angles(SubspaceBasis(x), SubspaceBasis(z))
    assert np.allclose(dec.angles, [alpha], atol=1e-12)


def test_angles_invariant_under_basis_rotation(rng):
    x = random_subspace(rng, 15, 4)
    z = random_subspace(rng, 15, 4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = SubspaceBasis(x.basis @ q)
    d1 = principal_angles(x, z)
    d2 = principal_angles(rotated, z)
    assert np.abs(d1.angles - d2.angles).max() < 1e-9


def test_angles_symmetric(rng):
    x = random_subspace(rng, 15, 4)
    z = random_subspace(rng, 15, 4)
    forward = principal_angles(x, z).angles
    backward = principal_angles(z, x).angles
    assert np.abs(forward - backward).max() < 1e-9


def test_angle_range_and_ordering(rng):
    for _ in range(20):
        a = int(rng.integers(6, 24))
        b = int(rng.integers(1, a // 2 + 1))
        x = random_subspace(rng, a, b)
        z = random_subspace(rng, a, b)
        dec = principal_angles(x, z)
        assert np.all(dec.angles >= 0.0) and np.all(dec.angles <= np.pi / 2)
        assert np.all(np.diff(dec.angles) >= 0.0)
        # cosines non-increasing exactly when angles non-decreasing
        assert np.all(np.diff(np.cos(dec.angles)) <= 0.0)


def test_decomposition_factors_orthonormal(rng):
    x = random_subspace(rng, 18, 5)
    z = random_subspace(rng, 18, 5)
    dec = principal_angles(x, z)
    eye = np.eye(5)
    assert np.abs(dec.left_rotation.T @ dec.left_rotation - eye).max() < 1e-10
    assert np.abs(dec.right_rotation.T @ dec.right_rotation - eye).max() < 1e-10
    B = dec.flow_complement
    assert B.shape == (18, 5)
    assert np.abs(B.T @ B - eye).max() < 1e-10
    assert np.abs(x.basis.T @ B).max() < 1e-10
    # cos(angles) equals the singular values of x^T z
    svals = np.linalg.svd(x.basis.T @ z.basis, compute_uv=False)
    assert np.abs(np.cos(dec.angles) - svals).max() < 1e-10


def test_dimension_mismatch_errors(rng):
    with pytest.raises(DimensionMismatch):
        principal_angles(random_subspace(rng, 10, 3),
                         random_subspace(rng, 12, 3))
    with pytest.raises(DimensionMismatch):
        principal_angles(random_subspace(rng, 10, 3),
                         random_subspace(rng, 10, 2))
    # b flow directions orthogonal to x need 2b <= a
    with pytest.raises(DimensionMismatch):
        principal_angles(random_subspace(rng, 5, 3),
                         random_subspace(rng, 5, 3))
