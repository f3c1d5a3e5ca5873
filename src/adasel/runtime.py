"""Runtime phase: window segmentation, scenario matching, combo selection.

Each incoming time window gets a mean feature and a PCA subspace, is
matched to the nearest training scenario by geodesic-flow kernel distance,
and inherits that scenario's best combo for the active platform.  The
distances to all M scenarios come from one stacked product and one batched
b x b SVD (:func:`adasel.gfk.stacked_distances`); the geodesic flow itself
is never formed.  The design profile is read-only here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .design import DesignProfile
from .errors import (AdaselError, DegenerateWindow, DimensionMismatch,
                     EmptyStream, RankDeficient, TooFewFrames,
                     UnlabeledScenario)
from .gfk import similarity, stacked_distances
from .subspace import SubspaceBasis, as_feature_matrix, pca_basis


@dataclass
class TimeWindow:
    """A contiguous block of frames with its aggregated feature and subspace.

    ``degraded`` marks windows whose frames had rank < the configured
    subspace dimension; ``subspace`` then holds the largest achievable
    dimension, or None when the frames have no variance at all.
    """

    window_id: int
    frame_features: np.ndarray
    aggregated_feature: np.ndarray | None = None
    subspace: SubspaceBasis | None = None
    degraded: bool = False


@dataclass
class SelectionDecision:
    window_id: int
    matched_scenario_id: str
    similarity: float
    all_similarities: np.ndarray
    chosen_combo_id: str
    platform_id: str


@dataclass
class SelectionTrace:
    """Ordered runtime decisions plus provenance and per-window timing."""

    decisions: list[SelectionDecision]
    profile_reference: str
    timing_ms: list[float] = field(default_factory=list)

    @property
    def timing(self) -> list[float]:
        """Per-window wall-clock seconds."""
        return [ms / 1000.0 for ms in self.timing_ms]

    def switch_count(self) -> int:
        combos = [d.chosen_combo_id for d in self.decisions]
        return sum(1 for prev, cur in zip(combos, combos[1:]) if prev != cur)


def segment_windows(stream, length: int,
                    min_frames: int = 1) -> list[TimeWindow]:
    """Split a stream into consecutive non-overlapping windows of ``length``.

    A trailing remainder of at least length/2 and at least ``min_frames``
    frames becomes a final short window; a smaller remainder is merged into
    the previous window.  Every frame lands in exactly one window.
    """
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    X = np.asarray(stream, dtype=np.float64)
    if X.size == 0:
        raise EmptyStream("feature stream has no frames")
    X = as_feature_matrix(X)
    n = X.shape[0]

    bounds = list(range(0, n, length))
    if len(bounds) > 1 and n - bounds[-1] < max(length / 2, min_frames):
        bounds.pop()  # merge short remainder into the previous window
    bounds.append(n)
    return [TimeWindow(window_id=i, frame_features=X[lo:hi])
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


def build_window(features, subspace_dim: int, window_id: int = 0) -> TimeWindow:
    """Aggregate a window: mean feature + PCA subspace with rank fallback.

    If the frames have rank r < subspace_dim, falls back to an r-dim
    subspace and flags the window as degraded (subspace None when r = 0).
    """
    X = as_feature_matrix(features)
    if X.shape[0] < subspace_dim + 1:
        raise TooFewFrames(
            f"window {window_id} has {X.shape[0]} frames; "
            f"need at least {subspace_dim + 1}")
    aggregated = X.mean(axis=0)
    try:
        basis = pca_basis(X, subspace_dim)
        degraded = False
    except RankDeficient as exc:
        degraded = True
        basis = pca_basis(X, exc.achievable_rank) if exc.achievable_rank >= 1 else None
    return TimeWindow(window_id=window_id, frame_features=X,
                      aggregated_feature=aggregated, subspace=basis,
                      degraded=degraded)


def _scenario_distances(window: TimeWindow,
                        profile: DesignProfile) -> np.ndarray:
    """Kernel distance d to every profile scenario, in profile order.

    Both sides are compared at the effective dimension: the top
    min(window dim, profile dim) directions of each basis.
    """
    k = min(window.subspace.dim_subspace, profile.config.dim_subspace)
    bases = np.stack([s.subspace.basis[:, :k] for s in profile.scenarios])
    means = np.stack([s.representative_feature for s in profile.scenarios])
    return stacked_distances(bases, means, window.subspace.basis[:, :k],
                             window.aggregated_feature)


def match_scenario(window: TimeWindow,
                   profile: DesignProfile) -> tuple[str, np.ndarray]:
    """Nearest training scenario by kernel distance (ties: lowest id).

    Returns (scenario_id, similarities) with one similarity exp(-d) per
    profile scenario, in profile order.  The ranking uses d itself, so it
    stays right where every exp(-d) underflows to 0.
    """
    if not profile.scenarios:
        raise ValueError("profile has no scenarios")
    if window.aggregated_feature is None:
        raise ValueError("window was not built (no aggregated feature)")
    a = profile.config.dim_ambient
    if window.aggregated_feature.shape[0] != a:
        raise DimensionMismatch(
            f"window dimension {window.aggregated_feature.shape[0]} "
            f"!= profile dimension {a}")
    if window.subspace is None:
        raise DegenerateWindow(
            f"window {window.window_id} has zero variance; "
            "no subspace comparison is possible")

    distances = _scenario_distances(window, profile).tolist()
    best = min(zip(distances, (s.scenario_id for s in profile.scenarios)))
    return best[1], np.array([similarity(d) for d in distances])


def select_combo(scenario_id: str, platform_id: str,
                 profile: DesignProfile) -> str:
    """Look up the scenario's design-time best combo for the platform."""
    try:
        scenario = profile.scenario(scenario_id)
    except KeyError as exc:
        raise UnlabeledScenario(str(exc)) from exc
    combo = scenario.labels.get(platform_id)
    if combo is None:
        raise UnlabeledScenario(
            f"scenario {scenario_id} has no label for platform {platform_id}")
    return combo


def run_selection(stream, profile: DesignProfile, platform_id: str,
                  window_length: int) -> SelectionTrace:
    """Full runtime pass: segment, build, match, and select per window."""
    if not profile.scenarios:
        raise ValueError("profile has no scenarios")
    from .dataio import profile_digest  # local import to avoid a cycle

    windows = segment_windows(stream, window_length,
                              min_frames=profile.config.dim_subspace + 1)
    decisions = []
    timing_ms = []
    for w in windows:
        t0 = time.perf_counter()
        try:
            built = build_window(w.frame_features,
                                 profile.config.dim_subspace, w.window_id)
            scenario_id, sims = match_scenario(built, profile)
            combo = select_combo(scenario_id, platform_id, profile)
        except AdaselError as exc:
            raise type(exc)(
                f"window {w.window_id}: {exc}", *_extra_args(exc)) from exc
        timing_ms.append((time.perf_counter() - t0) * 1000.0)
        decisions.append(SelectionDecision(
            window_id=w.window_id, matched_scenario_id=scenario_id,
            similarity=float(sims.max()), all_similarities=sims,
            chosen_combo_id=combo, platform_id=platform_id))
    return SelectionTrace(decisions=decisions,
                          profile_reference=profile_digest(profile),
                          timing_ms=timing_ms)


def _extra_args(exc: AdaselError) -> tuple:
    """Constructor args beyond the message, for re-raising with context."""
    if isinstance(exc, RankDeficient):
        return (exc.achievable_rank,)
    return ()


def mean_similarity(trace: SelectionTrace) -> float:
    if not trace.decisions:
        return math.nan
    return float(np.mean([d.similarity for d in trace.decisions]))
