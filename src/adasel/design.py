"""Design-time phase: scenario clustering, platform selection, labeling.

The offline workflow turns a labeled performance table plus training
features into a :class:`DesignProfile`: M unique scenarios (k-means
clusters with a mean feature and a PCA subspace each), a platform chosen
under cost/error constraints, and a best-combo label per scenario per
platform.  The performance table maps each (scenario id, combo id,
platform id) to the error design ranks combos by (missed detections per
window).  Everything is deterministic given the seed; clustering is also
invariant to the order of the input frames (frames are put in lexicographic
order before seeding k-means++: a stable sort of the first feature, and of
every feature only when two frames tie in the first).  The k-means restarts
are seeded and run their Lloyd steps in lockstep, one stacked product with
the frames per step; each restart's SSE comes from its last step's distances.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import (InvalidM, MissingRecord, NoFeasiblePlatform, OutOfRange,
                     TooFewFrames, TooFewSamples)
from .subspace import as_feature_matrix, pca_basis

KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10
KMEANS_SEED = 42  # the seed adasel profile clusters with

log = logging.getLogger(__name__)


@dataclass
class AlgoParamCombo:
    """One selectable algorithm/parameter combination, named by its id (such
    as ``HOG-480x640``); what a platform achieves with it is the platform's."""

    id: str


@dataclass
class PlatformSpec:
    """A compute platform: per-combo achievable fps and an opaque cost."""

    id: str
    combo_capabilities: dict[str, float]
    cost: float


@dataclass
class ScenarioProfile:
    """A unique training scenario: representative feature, labels, and the
    a x b ``basis`` of its subspace (orthonormal columns)."""

    scenario_id: str
    representative_feature: np.ndarray
    basis: np.ndarray
    member_count: int
    labels: dict[str, str] = field(default_factory=dict)


@dataclass
class SelectionConstraints:
    """Design's limits: an infinite one is no limit, a NaN is OutOfRange."""

    max_mean_error: float
    required_fps: float
    max_cost: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if np.isnan(value):
                raise OutOfRange(f"{name} must be a number, got nan")


@dataclass
class ProfileConfig:
    dim_ambient: int
    dim_subspace: int
    window_length: int


@dataclass
class DesignProfile:
    """Everything the runtime selector needs, built offline."""

    scenarios: list[ScenarioProfile]
    selected_platform: str
    config: ProfileConfig


def _canonical_order(X: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first column primary): a stable
    sort of column 0, or of all columns if rows tie there (-0.0 ties 0.0)."""
    order = np.argsort(X[:, 0], kind="stable")
    first = X[order, 0]
    return np.lexsort(X.T[::-1]) if (first[1:] == first[:-1]).any() else order


def scenario_ids(means) -> list[str]:
    """Id of each scenario mean (row): "s" + its rank in canonical order."""
    rank = np.argsort(_canonical_order(np.asarray(means)))
    return [f"s{r:03d}" for r in rank]


def _seed_centers(X: np.ndarray, sq: np.ndarray, k: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) of KMEANS_RESTARTS
    restarts in lockstep: their (R, k, a) centers, and which restarts fell
    back to uniform weights.  Each restart draws rng.integers(n), then
    rng.random(k - 1), in restart order.  A later center inverts its uniform
    through cumulative weights as rng.choice(n, p=...) does: the squared
    distances to the nearest center so far, or uniform weights once every
    distance is 0.  One product with X per step updates every restart."""
    n, R = X.shape[0], KMEANS_RESTARTS
    firsts, laters = zip(*[(rng.integers(n), rng.random(k - 1))
                           for _ in range(R)])
    picks, u = np.array(firsts), np.array(laters)
    centers = np.empty((R, k, X.shape[1]))
    d2, uniform = np.full((R, n), np.inf), np.zeros(R, dtype=bool)
    for j in range(k):
        centers[:, j] = C = X[picks]
        P = C @ X.T
        d2 = np.minimum(d2, np.maximum(
            -2.0 * P + sq + np.einsum("ij,ij->i", C, C)[:, None], 0.0))
        if j + 1 < k:
            flat = d2.sum(axis=1) <= 0.0
            uniform |= flat
            w = np.where(flat[:, None], 1.0, d2)
            cdf = (w / w.sum(axis=1)[:, None]).cumsum(axis=1)
            picks = (cdf / cdf[:, -1:] <= u[:, j, None]).sum(axis=1)
    return centers, uniform


def _fill_empty_clusters(assign: np.ndarray, d2: np.ndarray, k: int) -> None:
    """Give every empty cluster a frame, in place; ``d2`` holds the k x n
    distances the assignment was taken from.  While a cluster is empty, the
    lowest-numbered empty one takes the worst-served frame (largest distance
    to the center it was assigned) not yet moved, which may empty the
    cluster that frame left."""
    counts = np.bincount(assign, minlength=k)
    if counts.all():
        return
    own = d2[assign, np.arange(assign.size)]
    while not counts.all():
        j = int(np.argmin(counts))
        worst = int(np.argmax(own))
        counts[assign[worst]] -= 1
        counts[j] += 1
        assign[worst] = j
        own[worst] = -np.inf


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Best of KMEANS_RESTARTS k-means++ / Lloyd runs on the rows of X
    (lowest within-cluster SSE, the first on a tie); returns assignments.

    All restarts are seeded first, together, by :func:`_seed_centers`.  The
    restarts still moving then step in lockstep: one product of their
    stacked centers with X gives all distances, and one of their stacked
    one-hot assignments with X all center sums.  After the argmin, empty
    clusters are filled by :func:`_fill_empty_clusters`, and only then is
    each center the mean of its members, moved frames counted only where
    they went.  A restart stops once its assignment repeats; its
    SSE is the sum of that step's distances from each frame to its own
    center, which is its cluster's mean.  A restart that has not converged
    after KMEANS_MAX_ITER steps keeps its last assignment, and one more
    distance product gives its SSE.
    """
    n, a = X.shape
    sq = np.einsum("ij,ij->i", X, X)
    centers, uniform = _seed_centers(X, sq, k, rng)
    assign = np.full((KMEANS_RESTARTS, n), -1)
    steps = np.zeros(KMEANS_RESTARTS, dtype=int)
    sse = np.empty(KMEANS_RESTARTS)
    frames = np.arange(n)
    live = np.arange(KMEANS_RESTARTS)
    while live.size:
        C = centers[live].reshape(-1, a)
        d2 = C @ X.T
        d2 *= -2.0
        d2 += sq
        d2 += np.einsum("ij,ij->i", C, C)[:, None]
        d2 = d2.reshape(live.size, k, n)
        del C  # each stacked array goes once used, to keep the peak small
        new = d2.argmin(axis=1)
        for row, dist in zip(new, d2):
            _fill_empty_clusters(row, dist, k)
        steps[live] += 1
        done = (np.all(new == assign[live], axis=1)
                | (steps[live] > KMEANS_MAX_ITER))
        for i in np.flatnonzero(done):
            sse[live[i]] = d2[i, assign[live[i]], frames].sum()
        del d2
        live, new = live[~done], new[~done]
        assign[live] = new
        onehot = np.zeros((live.size, k, n))
        onehot[np.arange(live.size)[:, None], new, frames] = 1.0
        onehot = onehot.reshape(-1, n)
        sums = onehot @ X
        sums /= onehot.sum(axis=1)[:, None]
        centers[live] = sums.reshape(live.size, k, a)
        del onehot, sums
    steps = np.minimum(steps, KMEANS_MAX_ITER)
    best = int(np.argmin(sse))
    log.debug("clustering: Lloyd steps per restart %s; chose restart %d, "
              "SSE %.6g; uniform-weight seeding in restarts %s",
              steps.tolist(), best, sse[best],
              np.flatnonzero(uniform).tolist())
    return assign[best]


def cluster_scenarios(frames, n_scenarios: int, subspace_dim: int,
                      seed: int) -> list[ScenarioProfile]:
    """Partition training frames into scenario clusters with subspaces.

    k-means on the raw feature vectors (k-means++ init, <=300 iterations,
    convergence on stable assignments, best of several seeded restarts by
    within-cluster SSE).  The restarts are seeded and step in lockstep, and
    each SSE is summed from the distances of the restart's converged step;
    see :func:`_kmeans`.
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

    groups = [Xs[assign == j] for j in range(n_scenarios)]
    means = np.stack([members.mean(axis=0) for members in groups])
    ids = scenario_ids(means)

    scenarios = []
    for j in _canonical_order(means):
        members = groups[j]
        sid = ids[j]
        if members.shape[0] < subspace_dim + 1:
            raise TooFewSamples(
                f"scenario {sid} has {members.shape[0]} members; "
                f"need at least {subspace_dim + 1} for a {subspace_dim}-dim subspace")
        scenarios.append(ScenarioProfile(
            scenario_id=sid,
            representative_feature=means[j],
            basis=pca_basis(members, subspace_dim),
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
                 performance: dict[tuple[str, str, str], float],
                 required_fps: float) -> dict[str, dict[str, tuple]]:
    """{platform id: {scenario id: (error, -fps, combo id)}}, the best
    feasible combo of each scenario the table names, in sorted id order.

    Combos rank by error, then higher achievable fps on the platform, then
    combo id; a platform that runs no combo at required_fps maps to {}.
    Raises MissingRecord if the table lacks a feasible combo's entry.
    """
    ids = sorted({sid for sid, _, _ in performance})
    best = {}
    for p in platforms:
        rows = best[p.id] = {}
        for sid, cid in product(ids, feasible_combos(p, combos, required_fps)):
            if (error := performance.get((sid, cid, p.id))) is None:
                raise MissingRecord(f"no performance record for scenario={sid} "
                                    f"combo={cid} platform={p.id}")
            row = (error, -p.combo_capabilities[cid], cid)
            rows[sid] = min(rows.get(sid, row), row)
    return best


def select_platform(platforms: list[PlatformSpec],
                    performance: dict[tuple[str, str, str], float],
                    constraints: SelectionConstraints,
                    combos: list[AlgoParamCombo]) -> str:
    """Cheapest platform whose best achievable mean error meets the ceiling.

    Best achievable mean error = mean over scenarios of the min error over
    combos feasible at constraints.required_fps.  Ties on cost break by
    lower error, then id order.  Raises NoFeasiblePlatform with per-platform
    figures in its message when nothing qualifies, and MissingRecord when the
    table has no records or lacks a feasible (scenario, combo, platform) entry.
    """
    if not performance:
        raise MissingRecord("performance table has no records")
    best = _best_combos(platforms, combos, performance,
                        constraints.required_fps)

    lines = []
    candidates = []
    for p in platforms:
        errors = [row[0] for row in best[p.id].values()] or [float("inf")]
        mean = sum(errors) / len(errors)
        cost_ok = p.cost <= constraints.max_cost
        lines.append(f"{p.id}: cost={p.cost}"
                     f"{'' if cost_ok else ' (over budget)'}"
                     f", best mean error={mean:.4g}")
        if cost_ok and mean <= constraints.max_mean_error:
            candidates.append((p.cost, mean, p.id))
    if not candidates:
        raise NoFeasiblePlatform(
            f"no platform meets max_mean_error={constraints.max_mean_error} "
            f"at cost <= {constraints.max_cost}: {'; '.join(lines)}")
    candidates.sort()
    return candidates[0][2]


def label_scenarios(scenarios: list[ScenarioProfile],
                    combos: list[AlgoParamCombo],
                    platforms: list[PlatformSpec],
                    performance: dict[tuple[str, str, str], float],
                    required_fps: float) -> None:
    """Fill labels[platform] = best feasible combo per scenario; idempotent.

    Best = minimal error; ties break by higher achievable fps on that
    platform, then lexicographic combo id.  Raises MissingRecord if the
    table names no such scenario or lacks a feasible (scenario, combo,
    platform) entry.
    """
    best = _best_combos(platforms, combos, performance, required_fps)
    named = {sid for sid, _, _ in performance}
    for scenario in scenarios:
        sid = scenario.scenario_id
        if sid not in named:
            raise MissingRecord(
                f"performance table names no scenario {sid}; its scenario "
                f"ids are {', '.join(sorted(named)) or 'none'}")
        scenario.labels = {pid: rows[sid][2] for pid, rows in best.items()
                           if rows}


def check_window_length(window_length: int, subspace_dim: int) -> None:
    """Raise TooFewFrames unless a runtime window of window_length frames
    can hold a subspace_dim-dim subspace (it needs subspace_dim + 1)."""
    if window_length < subspace_dim + 1:
        raise TooFewFrames(
            f"window_length {window_length} is too short for subspace_dim "
            f"{subspace_dim}; a window needs at least {subspace_dim + 1} frames")


def build_design_profile(frames, combos: list[AlgoParamCombo],
                         platforms: list[PlatformSpec],
                         performance: dict[tuple[str, str, str], float],
                         constraints: SelectionConstraints,
                         n_scenarios: int, subspace_dim: int,
                         window_length: int, seed: int) -> DesignProfile:
    """Run the full offline phase: select platform, cluster, label.

    Raises TooFewFrames up front if a window of window_length frames is
    too short to build a subspace_dim-dim subspace at runtime, and
    InvalidM if a non-empty performance table does not name exactly
    n_scenarios scenarios.
    """
    check_window_length(window_length, subspace_dim)
    table_ids = {sid for sid, _, _ in performance}
    if table_ids and len(table_ids) != n_scenarios:
        raise InvalidM(
            f"n_scenarios is {n_scenarios}, but the performance table "
            f"names {len(table_ids)} scenarios")
    selected = select_platform(platforms, performance, constraints, combos)
    scenarios = cluster_scenarios(frames, n_scenarios, subspace_dim, seed)
    label_scenarios(scenarios, combos, platforms, performance,
                    constraints.required_fps)
    return DesignProfile(
        scenarios=scenarios, selected_platform=selected,
        config=ProfileConfig(scenarios[0].basis.shape[0], subspace_dim,
                             window_length))
