"""Design-time phase: scenario clustering, platform selection, labeling.

The offline workflow turns a labeled performance table plus training
features into a :class:`DesignProfile`: M unique scenarios (k-means
clusters with a mean feature and a PCA subspace each), a platform chosen
under cost/error constraints, and a best-combo label per scenario per
platform.  Everything is deterministic given the seed; clustering is also
invariant to the order of the input frames (frames are canonicalized by
lexicographic sort before seeding k-means++).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import (InvalidM, MissingRecord, NoFeasiblePlatform, TooFewFrames,
                     TooFewSamples)
from .subspace import SubspaceBasis, as_feature_matrix, pca_basis

KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10


@dataclass
class AlgoParamCombo:
    """One selectable algorithm configuration: family + fps + resolution."""

    id: str
    algorithm: str
    fps: float
    resolution: tuple[int, int]


@dataclass
class PlatformSpec:
    """A compute platform: per-combo achievable fps and an opaque cost."""

    id: str
    combo_capabilities: dict[str, float]
    cost: float


@dataclass
class PerformanceRecord:
    """Measured error of one combo on one scenario under one platform.

    ``error`` is the primary metric (missed detections per window), the
    one design ranks combos by.
    """

    scenario_id: str
    combo_id: str
    platform_id: str
    error: float


@dataclass
class ScenarioProfile:
    """A unique training scenario: representative feature, subspace, labels."""

    scenario_id: str
    representative_feature: np.ndarray
    subspace: SubspaceBasis
    member_count: int
    labels: dict[str, str] = field(default_factory=dict)


@dataclass
class SelectionConstraints:
    max_mean_error: float
    required_fps: float
    max_cost: float


@dataclass
class ProfileConfig:
    dim_ambient: int
    dim_subspace: int
    window_length: int


@dataclass
class DesignProfile:
    """Everything the runtime selector needs, built offline."""

    scenarios: list[ScenarioProfile]
    selected_platform: str | None
    config: ProfileConfig

    def scenario(self, scenario_id: str) -> ScenarioProfile:
        for s in self.scenarios:
            if s.scenario_id == scenario_id:
                return s
        raise KeyError(f"unknown scenario {scenario_id!r}")


def _canonical_order(X: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first column primary)."""
    return np.lexsort(X.T[::-1])


def scenario_ids(means) -> list[str]:
    """Id of each scenario mean (row): "s" + its rank in canonical order."""
    rank = np.argsort(_canonical_order(np.asarray(means)))
    return [f"s{r:03d}" for r in rank]


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Best of several seeded k-means++ runs (lowest within-cluster SSE)."""
    best = None
    for _ in range(KMEANS_RESTARTS):
        assign = _kmeans_once(X, k, rng)
        sse = 0.0
        for j in range(k):
            members = X[assign == j]
            sse += float(((members - members.mean(axis=0)) ** 2).sum())
        if best is None or sse < best[0]:
            best = (sse, assign)
    return best[1]


def _kmeans_once(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """One seeded k-means++ / Lloyd run on rows of X; returns assignments."""
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)

    def dist2_to(center):
        return np.maximum(sq - 2.0 * X @ center + center @ center, 0.0)

    # k-means++ initialization
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = dist2_to(centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, dist2_to(centers[j]))

    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        d2_all = sq[:, None] - 2.0 * X @ centers.T + np.einsum(
            "ij,ij->i", centers, centers)[None, :]
        new_assign = np.argmin(d2_all, axis=1)
        own = d2_all[np.arange(n), new_assign].copy()
        for j in range(k):
            members = new_assign == j
            if not np.any(members):
                # relocate empty cluster to the worst-served point
                worst = int(np.argmax(own))
                centers[j] = X[worst]
                new_assign[worst] = j
                own[worst] = -np.inf  # not eligible for further relocations
            else:
                centers[j] = X[members].mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def cluster_scenarios(frames, n_scenarios: int, subspace_dim: int,
                      seed: int) -> list[ScenarioProfile]:
    """Partition training frames into scenario clusters with subspaces.

    k-means on the raw feature vectors (k-means++ init, <=300 iterations,
    convergence on stable assignments, best of several seeded restarts).
    Scenario ids ("s000", ...) are assigned by lexicographic order of the
    cluster means, so the result is independent of the input frame order
    for a fixed seed.

    Raises InvalidM if n_scenarios is out of range, TooFewSamples if a
    cluster ends up with fewer than subspace_dim + 1 members.
    """
    X = as_feature_matrix(frames)
    n = X.shape[0]
    if n_scenarios < 1:
        raise InvalidM(f"need at least 1 scenario, got {n_scenarios}")
    if n_scenarios > n:
        raise InvalidM(
            f"cannot form {n_scenarios} scenarios from {n} frames")

    order = _canonical_order(X)
    Xs = X[order]
    rng = np.random.default_rng(seed)
    assign = _kmeans(Xs, n_scenarios, rng)

    means = np.stack([Xs[assign == j].mean(axis=0)
                      for j in range(n_scenarios)])
    ids = scenario_ids(means)

    scenarios = []
    for j in _canonical_order(means):
        members = Xs[assign == j]
        sid = ids[j]
        if members.shape[0] < subspace_dim + 1:
            raise TooFewSamples(
                f"scenario {sid} has {members.shape[0]} members; "
                f"need at least {subspace_dim + 1} for a {subspace_dim}-dim subspace")
        scenarios.append(ScenarioProfile(
            scenario_id=sid,
            representative_feature=means[j],
            subspace=pca_basis(members, subspace_dim),
            member_count=int(members.shape[0])))
    return scenarios


def feasible_combos(platform: PlatformSpec, combos: list[AlgoParamCombo],
                    required_fps: float) -> list[str]:
    """Ids of combos the platform can run at or above required_fps, in order.

    A combo the platform's combo_capabilities does not list is not runnable.
    """
    caps = platform.combo_capabilities
    return [c.id for c in combos
            if c.id in caps and caps[c.id] >= required_fps]


def _best_combos(platforms: list[PlatformSpec], combos: list[AlgoParamCombo],
                 performance: list[PerformanceRecord],
                 required_fps: float) -> dict[str, dict[str, tuple]]:
    """{platform id: {scenario id: (error, -fps, combo id)}}, the best
    feasible combo of each scenario the table names, in sorted id order.

    Combos rank by error, then higher achievable fps on the platform, then
    combo id; a platform that runs no combo at required_fps maps to {}.
    Raises MissingRecord if the table lacks a feasible combo's entry.
    """
    table = {(r.scenario_id, r.combo_id, r.platform_id): r.error
             for r in performance}
    ids = sorted({r.scenario_id for r in performance})
    best = {}
    for p in platforms:
        rows = best[p.id] = {}
        for sid, cid in product(ids, feasible_combos(p, combos, required_fps)):
            if (sid, cid, p.id) not in table:
                raise MissingRecord(f"no performance record for scenario={sid} "
                                    f"combo={cid} platform={p.id}")
            row = (table[sid, cid, p.id], -p.combo_capabilities[cid], cid)
            rows[sid] = min(rows.get(sid, row), row)
    return best


def select_platform(platforms: list[PlatformSpec],
                    performance: list[PerformanceRecord],
                    constraints: SelectionConstraints,
                    combos: list[AlgoParamCombo]) -> str:
    """Cheapest platform whose best achievable mean error meets the ceiling.

    Best achievable mean error = mean over scenarios of the min error over
    combos feasible at constraints.required_fps.  Ties on cost break by
    lower error, then id order.  Raises NoFeasiblePlatform with per-platform
    diagnostics when nothing qualifies, and MissingRecord when the table has
    no records or lacks a feasible (scenario, combo, platform) entry.
    """
    if not performance:
        raise MissingRecord("performance table has no records")
    best = _best_combos(platforms, combos, performance,
                        constraints.required_fps)

    diagnostics = {}
    candidates = []
    for p in platforms:
        errors = [row[0] for row in best[p.id].values()] or [float("inf")]
        mean = sum(errors) / len(errors)
        cost_ok = p.cost <= constraints.max_cost
        diagnostics[p.id] = {
            "cost": p.cost, "best_mean_error": mean, "cost_ok": cost_ok}
        if cost_ok and mean <= constraints.max_mean_error:
            candidates.append((p.cost, mean, p.id))
    if not candidates:
        lines = "; ".join(
            f"{pid}: cost={d['cost']}"
            f"{'' if d['cost_ok'] else ' (over budget)'}"
            f", best mean error={d['best_mean_error']:.4g}"
            for pid, d in diagnostics.items())
        raise NoFeasiblePlatform(
            f"no platform meets max_mean_error={constraints.max_mean_error} "
            f"at cost <= {constraints.max_cost}: {lines}", diagnostics)
    candidates.sort()
    return candidates[0][2]


def label_scenarios(scenarios: list[ScenarioProfile],
                    combos: list[AlgoParamCombo],
                    platforms: list[PlatformSpec],
                    performance: list[PerformanceRecord],
                    required_fps: float) -> None:
    """Fill labels[platform] = best feasible combo per scenario; idempotent.

    Best = minimal error; ties break by higher achievable fps on that
    platform, then lexicographic combo id.  Raises MissingRecord if the
    table names no such scenario or lacks a feasible (scenario, combo,
    platform) entry.
    """
    best = _best_combos(platforms, combos, performance, required_fps)
    named = {r.scenario_id for r in performance}
    for scenario in scenarios:
        sid = scenario.scenario_id
        if sid not in named:
            raise MissingRecord(
                f"performance table names no scenario {sid}; its scenario "
                f"ids are {', '.join(sorted(named)) or 'none'}")
        scenario.labels = {pid: rows[sid][2] for pid, rows in best.items()
                           if rows}


def build_design_profile(frames, combos: list[AlgoParamCombo],
                         platforms: list[PlatformSpec],
                         performance: list[PerformanceRecord],
                         constraints: SelectionConstraints,
                         n_scenarios: int, subspace_dim: int,
                         window_length: int, seed: int) -> DesignProfile:
    """Run the full offline phase: select platform, cluster, label.

    Raises TooFewFrames up front if a window of window_length frames is
    too short to build a subspace_dim-dim subspace at runtime, and
    InvalidM if a non-empty performance table does not name exactly
    n_scenarios scenarios.
    """
    if window_length < subspace_dim + 1:
        raise TooFewFrames(
            f"window_length {window_length} is too short for subspace_dim "
            f"{subspace_dim}; a window needs at least {subspace_dim + 1} frames")
    table_ids = {r.scenario_id for r in performance}
    if table_ids and len(table_ids) != n_scenarios:
        raise InvalidM(
            f"n_scenarios is {n_scenarios}, but the performance table "
            f"names {len(table_ids)} scenarios")
    X = as_feature_matrix(frames)
    selected = select_platform(platforms, performance, constraints, combos)
    scenarios = cluster_scenarios(X, n_scenarios, subspace_dim, seed)
    label_scenarios(scenarios, combos, platforms, performance,
                    constraints.required_fps)
    return DesignProfile(
        scenarios=scenarios, selected_platform=selected,
        config=ProfileConfig(dim_ambient=X.shape[1], dim_subspace=subspace_dim,
                             window_length=window_length))
