import numpy as np
import pytest

from adasel.gfk import stacked_distances
from adasel.subspace import SubspaceBasis, _fix_signs


def random_subspace(rng, a, b):
    """Random b-dim subspace of R^a as a SubspaceBasis."""
    q, _ = np.linalg.qr(rng.standard_normal((a, b)))
    q, _ = _fix_signs(q)
    return SubspaceBasis(basis=q)


def runtime_distance(t, r, x, z):
    """The runtime's distance from source (x, t) to target (z, r)."""
    return stacked_distances(x.basis[None], t[None], z.basis, r)[0]


def max_sine_angle(F, basis):
    """Largest principal angle (sine measure) between span(F) and span(basis).

    Resolves angles far below the ~1.5e-8 arccos floor.
    """
    resid = F - basis @ (basis.T @ F)
    return np.linalg.svd(resid, compute_uv=False).max()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
