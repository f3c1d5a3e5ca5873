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
are seeded and run their Lloyd steps in lockstep.  The first step assigns by
the seeding's own distances; after it, a step moves only the centers whose
members changed, and gives new distances to those centers alone.  Each
center is the sum of one operand's rows over its members, updated by the
frames that moved; the operand is the frames, or the frame Gram XX^T,
whose rows are already each frame's inner products with every frame.
k-means takes the Gram when computing it costs fewer multiply-adds than
the frame products it replaces up to the second Lloyd step:
n(a/2 + Rk) < 3Rka for n frames of a features, k clusters and R restarts,
which holds only for n < 6Rk.  Each restart's SSE comes from its last
step's distances.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product
from numbers import Real

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


@dataclass(frozen=True)
class SelectionConstraints:
    """Design's limits, each a real number: an infinite one is no limit,
    and a NaN, a bool or a value of another type is OutOfRange.  Frozen,
    so no limit changes after the check."""

    max_mean_error: float
    required_fps: float
    max_cost: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or value != value):  # only a NaN is unequal to itself
                raise OutOfRange(f"{name} must be a number, got {value!r}")


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


def _gram_is_cheaper(n: int, a: int, k: int) -> bool:
    """Whether k-means on n frames of a features takes its distances from
    the n x n frame Gram: its n*n*a/2 multiply-adds plus the first Lloyd
    step's R*k rows of n*n are fewer than the 3*R*k*n*a of the frame
    products up to the second step (seeding, center sums, distances)."""
    R = KMEANS_RESTARTS
    return n * (a / 2 + R * k) < 3 * R * k * a


def _seed_centers(F: np.ndarray, inner: Callable[[np.ndarray], np.ndarray],
                  sq: np.ndarray, k: int, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) of KMEANS_RESTARTS
    restarts in lockstep: their (R, k) seed frames, which restarts fell
    back to uniform weights, and the (R, k, n) squared distances from each
    seed to every frame, unclamped.  Each restart draws rng.integers(n),
    then rng.random(k - 1), in restart order.  A later seed inverts its
    uniform through cumulative weights as rng.choice(n, p=...) does: the
    squared distances to the nearest seed so far, clamped at 0, or
    uniform weights once every distance is 0.  One call of ``inner`` on
    the picked rows of the operand F (see :func:`_kmeans`) per step
    updates every restart: -2 inner(F[p]) + |x|^2 + |x_p|^2."""
    n, R = sq.size, KMEANS_RESTARTS
    firsts, laters = zip(*[(rng.integers(n), rng.random(k - 1))
                           for _ in range(R)])
    picks, u = np.array(firsts), np.array(laters)
    seeds, dist = np.empty((R, k), dtype=int), np.empty((R, k, n))
    d2, uniform = np.full((R, n), np.inf), np.zeros(R, dtype=bool)
    for j in range(k):
        seeds[:, j] = picks
        dist[:, j] = -2.0 * inner(F[picks]) + sq + sq[picks, None]
        d2 = np.minimum(d2, np.maximum(dist[:, j], 0.0))
        if j + 1 < k:
            flat = d2.sum(axis=1) <= 0.0
            uniform |= flat
            w = np.where(flat[:, None], 1.0, d2)
            cdf = (w / w.sum(axis=1)[:, None]).cumsum(axis=1)
            picks = (cdf / cdf[:, -1:] <= u[:, j, None]).sum(axis=1)
    return seeds, uniform, dist


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

    All restarts are seeded first, together, by :func:`_seed_centers`, and
    the first step assigns frames by the distances the seeding computed.
    The restarts still moving then step in lockstep.  Each step takes the
    argmin of the distances to the current centers, then fills empty
    clusters by :func:`_fill_empty_clusters`; only then are the centers
    updated, moved frames counted only where they went, and only the
    centers whose members changed get new distances.  Every other center
    keeps its distances.

    A center is the sum s of the rows of one operand F over its c members.
    F is X, or the frame Gram XX^T, computed once, when
    :func:`_gram_is_cheaper`.  The first step sums every center by one
    product of the stacked one-hot assignments with F; a later step adds
    each frame that moved to its new center's sum and subtracts it from its
    old one's.  ``inner`` gives the moved centers' inner products s . x with
    every frame: one stacked product with X, or s itself on the Gram.  The
    squared distances are then -2 (s . x) / c + |x|^2 + |s|^2 / c^2, where
    |s|^2 is the sum of s . x over the center's own members.

    A restart stops once its assignment repeats; its SSE is the sum of that
    step's distances from each frame to its own center, which is its
    cluster's mean.  A restart that has not converged after KMEANS_MAX_ITER
    steps keeps its last assignment, and the distances to its last centers
    give its SSE.
    """
    (n, a), R = X.shape, KMEANS_RESTARTS
    sq = np.einsum("ij,ij->i", X, X)
    gram = _gram_is_cheaper(n, a, k)
    F, inner = (X @ X.T, lambda S: S) if gram else (X, lambda S: S @ X.T)
    uniform, d2 = _seed_centers(F, inner, sq, k, rng)[1:]
    assign = np.full((R, n), -1)
    sums, counts = np.empty((R, k, F.shape[1])), np.empty((R, k))
    steps, sse = np.zeros(R, dtype=int), np.empty(R)
    frames = np.arange(n)
    live = np.arange(R)
    step = rows = 0
    while live.size:
        step += 1
        new = d2[live].argmin(axis=1)
        for row, r in zip(new, live):
            _fill_empty_clusters(row, d2[r], k)
        steps[live] = step
        done = np.all(new == assign[live], axis=1) | (step > KMEANS_MAX_ITER)
        for r in live[done]:
            sse[r] = d2[r, assign[r], frames].sum()
        live, new = live[~done], new[~done]
        moved = np.zeros((R, k), dtype=bool)
        if step == 1:
            moved[live] = True
            onehot = np.zeros((live.size, k, n))
            onehot[np.arange(live.size)[:, None], new, frames] = 1.0
            onehot = onehot.reshape(-1, n)
            sums[live] = (onehot @ F).reshape(live.size, k, -1)
            counts[live] = onehot.sum(axis=1).reshape(live.size, k)
            del onehot  # gone once used, to keep the peak small
        else:
            for r, was, now in zip(live, assign[live], new):
                f = np.flatnonzero(now != was)
                moved[r, now[f]] = moved[r, was[f]] = True
                members = F[f]
                np.add.at(sums[r], now[f], members)
                np.subtract.at(sums[r], was[f], members)
                np.add.at(counts[r], now[f], 1.0)
                np.subtract.at(counts[r], was[f], 1.0)
        assign[live] = new
        r, j = np.nonzero(moved)
        c = counts[r, j]
        D = inner(sums[r, j])
        own = (assign[r] == j[:, None]).astype(float)
        norms = np.einsum("ij,ij->i", D, own) / (c * c)
        del own
        D *= (-2.0 / c)[:, None]
        D += sq
        D += norms[:, None]
        d2[r, j] = D
        rows += r.size
        del D
    steps = np.minimum(steps, KMEANS_MAX_ITER)
    best = int(np.argmin(sse))
    log.debug("clustering: Lloyd steps per restart %s; chose restart %d, "
              "SSE %.6g; %d distance rows computed in Lloyd steps; "
              "distances from the %s; uniform-weight seeding in restarts %s",
              steps.tolist(), best, sse[best], rows,
              "frame Gram" if gram else "frames",
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


def rank_combos(platforms: list[PlatformSpec], combos: list[AlgoParamCombo],
                performance: dict[tuple[str, str, str], float],
                required_fps: float) -> dict[str, dict[str, tuple]]:
    """{platform id: {scenario id: (error, -fps, combo id)}}, the best
    feasible combo of each scenario the table names, in sorted id order.

    Combos rank by error, then higher achievable fps on the platform, then
    combo id; a platform that runs no combo at required_fps maps to {}.
    Raises MissingRecord when the table has no records or lacks a feasible
    (scenario, combo, platform) entry.
    """
    if not performance:
        raise MissingRecord("performance table has no records")
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


def select_platform(ranking: dict[str, dict[str, tuple]],
                    platforms: list[PlatformSpec],
                    constraints: SelectionConstraints) -> str:
    """Cheapest platform whose best achievable mean error meets the ceiling.

    Best achievable mean error = mean over scenarios of the min error over
    combos feasible at constraints.required_fps, read from the
    :func:`rank_combos` ranking.  Ties on cost break by lower error, then
    id order.  Raises NoFeasiblePlatform with per-platform figures in its
    message when nothing qualifies.
    """
    lines = []
    candidates = []
    for p in platforms:
        errors = [row[0] for row in ranking[p.id].values()] or [float("inf")]
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
                    ranking: dict[str, dict[str, tuple]]) -> None:
    """Fill labels[platform] = best feasible combo per scenario, read from
    the :func:`rank_combos` ranking; idempotent.  A platform that runs no
    combo gets no label.  Raises MissingRecord if the table names no such
    scenario.
    """
    for scenario in scenarios:
        sid = scenario.scenario_id
        for rows in ranking.values():
            if rows and sid not in rows:
                raise MissingRecord(
                    f"performance table names no scenario {sid}; its "
                    f"scenario ids are {', '.join(rows)}")
        scenario.labels = {pid: rows[sid][2] for pid, rows in ranking.items()
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
    """Run the full offline phase: rank once, select platform, cluster, label.

    Raises TooFewFrames up front if a window of window_length frames is
    too short to build a subspace_dim-dim subspace at runtime, then
    MissingRecord as :func:`rank_combos` does, and InvalidM if the
    performance table does not name exactly n_scenarios scenarios.
    """
    check_window_length(window_length, subspace_dim)
    ranking = rank_combos(platforms, combos, performance,
                          constraints.required_fps)
    table_ids = {sid for sid, _, _ in performance}
    if len(table_ids) != n_scenarios:
        raise InvalidM(
            f"n_scenarios is {n_scenarios}, but the performance table "
            f"names {len(table_ids)} scenarios")
    selected = select_platform(ranking, platforms, constraints)
    scenarios = cluster_scenarios(frames, n_scenarios, subspace_dim, seed)
    label_scenarios(scenarios, ranking)
    return DesignProfile(
        scenarios=scenarios, selected_platform=selected,
        config=ProfileConfig(scenarios[0].basis.shape[0], subspace_dim,
                             window_length))
