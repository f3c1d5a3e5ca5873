"""Runtime phase: window segmentation, scenario matching, combo selection.

Each incoming time window gets a mean feature and a PCA basis, is matched
to the nearest training scenario by geodesic-flow kernel distance, and
takes the matched scenario's label: its best combo for the active
platform.  The distances to all M scenarios come from one stacked product
and one batched b x b SVD (:func:`adasel.gfk.stacked_distances`); the
geodesic flow itself is never formed.  The design profile is read-only here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .design import DesignProfile, ScenarioProfile
from .errors import (AdaselError, DegenerateWindow, DimensionMismatch,
                     EmptyStream, InvalidM, OutOfRange, TooFewFrames,
                     UnlabeledScenario)
from .gfk import similarity, stacked_distances
from .subspace import _principal_directions, as_feature_matrix


@dataclass
class TimeWindow:
    """A built window: its frames' aggregated feature and the a x r
    ``basis`` of their PCA subspace (orthonormal columns).

    ``degraded`` marks windows whose frames had rank < the configured
    subspace dimension; ``basis`` then holds the largest achievable
    dimension r, at least 1.
    """

    aggregated_feature: np.ndarray
    basis: np.ndarray
    degraded: bool


@dataclass
class SelectionDecision:
    window_id: int
    matched_scenario_id: str
    similarity: float
    all_similarities: np.ndarray
    chosen_combo_id: str
    platform_id: str
    elapsed_ms: float  # wall time to build, match and select this window


@dataclass
class SelectionTrace:
    """Ordered runtime decisions plus the digest of the profile they used."""

    decisions: list[SelectionDecision]
    profile_reference: str

    def switch_count(self) -> int:
        combos = [d.chosen_combo_id for d in self.decisions]
        return sum(1 for prev, cur in zip(combos, combos[1:]) if prev != cur)


def segment_windows(stream, length: int,
                    min_frames: int = 1) -> list[np.ndarray]:
    """Split a stream into consecutive non-overlapping frame blocks.

    Blocks hold ``length`` frames and are views of the stream.  A trailing
    remainder of at least length/2 and at least ``min_frames`` frames
    becomes a final short block; a smaller remainder is merged into the
    previous block.  Every frame lands in exactly one block.  Frames are
    checked when their window is built, so run_selection names the window.
    """
    if length < 2:
        raise OutOfRange(f"window length must be >= 2, got {length}")
    X = np.asarray(stream, dtype=np.float64)
    if X.size == 0:
        raise EmptyStream("feature stream has no frames")
    n = X.shape[0]

    bounds = list(range(0, n, length))
    if len(bounds) > 1 and n - bounds[-1] < max(length / 2, min_frames):
        bounds.pop()  # merge short remainder into the previous window
    bounds.append(n)
    return [X[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def build_window(features, subspace_dim: int) -> TimeWindow:
    """Aggregate a window: mean feature + PCA subspace with rank fallback.

    If the frames have rank r < subspace_dim, keeps the r-dim subspace from
    the same SVD and flags the window as degraded; raises DegenerateWindow
    when r = 0.
    """
    X = as_feature_matrix(features)
    if X.shape[0] < subspace_dim + 1:
        raise TooFewFrames(f"{X.shape[0]} frames; "
                           f"need at least {subspace_dim + 1}")
    directions, rank = _principal_directions(X, subspace_dim)
    if rank == 0:
        raise DegenerateWindow(
            "frames have zero variance; no subspace comparison is possible")
    return TimeWindow(aggregated_feature=X.mean(axis=0),
                      basis=directions,
                      degraded=rank < subspace_dim)


def _stack_scenarios(profile: DesignProfile) -> tuple[np.ndarray, np.ndarray]:
    """The profile's bases (M, a, b) and means (M, a), in profile order."""
    if not profile.scenarios:
        raise InvalidM("profile has no scenarios")
    return (np.stack([s.basis for s in profile.scenarios]),
            np.stack([s.representative_feature for s in profile.scenarios]))


def match_scenario(window: TimeWindow, profile: DesignProfile,
                   stacked=None) -> tuple[ScenarioProfile, np.ndarray]:
    """Nearest training scenario by kernel distance (ties: lowest id).

    Returns (scenario, similarities): the matched ScenarioProfile, whose
    labels give the window's combo, and one similarity exp(-d) per profile
    scenario, in profile order.  Both sides are compared at the effective
    dimension: the top min(window dim, profile dim) directions of each
    basis.  The ranking uses d itself, so it stays right where every
    exp(-d) underflows to 0.  A pass over many windows passes
    ``stacked = _stack_scenarios(profile)``, built once.
    """
    a = profile.config.dim_ambient
    if window.aggregated_feature.shape[0] != a:
        raise DimensionMismatch(
            f"frame dimension {window.aggregated_feature.shape[0]} "
            f"!= profile dimension {a}")

    bases, means = stacked or _stack_scenarios(profile)
    k = min(window.basis.shape[1], profile.config.dim_subspace)
    distances = stacked_distances(bases[:, :, :k], means,
                                  window.basis[:, :k],
                                  window.aggregated_feature).tolist()
    scenarios = profile.scenarios
    best = min(range(len(scenarios)),
               key=lambda j: (distances[j], scenarios[j].scenario_id))
    return scenarios[best], np.array([similarity(d) for d in distances])


def run_selection(stream, profile: DesignProfile, platform_id: str,
                  window_length: int) -> SelectionTrace:
    """Full runtime pass: segment, build, match, and select per window.

    An AdaselError raised for window i is re-raised as the same type with
    the message prefixed ``window i: ``.
    """
    from .dataio import profile_digest  # local import to avoid a cycle

    stacked = _stack_scenarios(profile)
    windows = segment_windows(stream, window_length,
                              min_frames=profile.config.dim_subspace + 1)
    decisions = []
    for i, frames in enumerate(windows):
        t0 = time.perf_counter()
        try:
            window = build_window(frames, profile.config.dim_subspace)
            scenario, sims = match_scenario(window, profile, stacked)
            combo = scenario.labels.get(platform_id)
            if combo is None:
                raise UnlabeledScenario(
                    f"scenario {scenario.scenario_id} has no label "
                    f"for platform {platform_id}")
        except AdaselError as exc:
            raise type(exc)(f"window {i}: {exc}") from exc
        decisions.append(SelectionDecision(
            window_id=i, matched_scenario_id=scenario.scenario_id,
            similarity=float(sims.max()), all_similarities=sims,
            chosen_combo_id=combo, platform_id=platform_id,
            elapsed_ms=(time.perf_counter() - t0) * 1000.0))
    return SelectionTrace(decisions=decisions,
                          profile_reference=profile_digest(profile))


def mean_similarity(trace: SelectionTrace) -> float:
    if not trace.decisions:
        return math.nan
    return float(np.mean([d.similarity for d in trace.decisions]))
