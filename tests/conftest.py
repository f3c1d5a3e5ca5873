import numpy as np
import pytest

from adasel.design import SelectionConstraints, build_design_profile
from adasel.gfk import stacked_distances
from adasel.subspace import SubspaceBasis, _fix_signs

# no limit on error or cost, and any frame rate
OPEN = SelectionConstraints(max_mean_error=float("inf"), required_fps=0.0,
                            max_cost=float("inf"))


def design_for(dataset, constraints=OPEN):
    """The design profile of a synthetic dataset, built with its own
    settings: one scenario per generating one, its subspace dimension and
    seed, and windows of one generating block."""
    cfg = dataset.config
    return build_design_profile(
        dataset.training_frames, dataset.combos, dataset.platforms,
        dataset.performance, constraints, n_scenarios=cfg.n_scenarios,
        subspace_dim=cfg.dim_subspace, window_length=cfg.frames_per_scenario,
        seed=cfg.seed)


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
