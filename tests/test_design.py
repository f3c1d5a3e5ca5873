import dataclasses
import itertools
import logging
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adasel import design
from adasel.design import (AlgoParamCombo, PlatformSpec, ScenarioProfile,
                           SelectionConstraints, build_design_profile,
                           cluster_scenarios, feasible_combos,
                           label_scenarios, rank_combos, scenario_ids,
                           select_platform)
from adasel.errors import (InvalidM, MissingRecord, NoFeasiblePlatform,
                           OutOfRange, TooFewFrames, TooFewSamples)
from conftest import random_subspace


def table_ii_combos():
    return [
        AlgoParamCombo("HOG-240x320"),
        AlgoParamCombo("HOG-480x640"),
        AlgoParamCombo("ACF-240x320"),
        AlgoParamCombo("ACF-480x640"),
    ]


def table_ii_platforms():
    return [
        PlatformSpec("platform1", {
            "HOG-240x320": 15.0, "HOG-480x640": 8.0,
            "ACF-240x320": 10.0, "ACF-480x640": 5.0}, cost=1.0),
        PlatformSpec("platform2", {
            "HOG-240x320": 30.0, "HOG-480x640": 15.0,
            "ACF-240x320": 20.0, "ACF-480x640": 10.0}, cost=3.0),
    ]


def gaussian_blobs(rng, means, per_cluster, sigma):
    frames, labels = [], []
    for i, mu in enumerate(means):
        frames.append(mu + sigma * rng.standard_normal((per_cluster, len(mu))))
        labels += [i] * per_cluster
    return np.vstack(frames), np.array(labels)


# --------------------------------------------------------------------------
# cluster_scenarios

def test_single_cluster_uses_global_mean(rng):
    frames = rng.standard_normal((20, 6))
    scenarios = cluster_scenarios(frames, 1, 2, seed=0)
    assert len(scenarios) == 1
    assert np.allclose(scenarios[0].representative_feature,
                       frames.mean(axis=0), atol=1e-12)
    assert scenarios[0].member_count == 20


def test_three_separated_gaussians_recovered(rng):
    means = [np.full(10, 0.0), np.full(10, 20.0),
             np.r_[np.full(5, -20.0), np.full(5, 20.0)]]
    frames, labels = gaussian_blobs(rng, means, per_cluster=25, sigma=0.5)
    scenarios = cluster_scenarios(frames, 3, 3, seed=7)
    reps = np.stack([s.representative_feature for s in scenarios])
    # every frame's nearest representative agrees with its generating blob
    d2 = ((frames[:, None, :] - reps[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    for i in range(3):
        assert len(set(nearest[labels == i])) == 1
    assert sorted(s.member_count for s in scenarios) == [25, 25, 25]


def test_fifteen_scenarios_all_valid(rng):
    means = [rng.normal(scale=15.0, size=8) for _ in range(15)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=12, sigma=0.4)
    scenarios = cluster_scenarios(frames, 15, 3, seed=42)
    assert len(scenarios) == 15
    assert [s.scenario_id for s in scenarios] == [f"s{k:03d}" for k in range(15)]
    for s in scenarios:
        assert s.basis.shape == (8, 3)
        assert np.abs(s.basis.T @ s.basis - np.eye(3)).max() <= 1e-10
        assert s.member_count >= 4


def assert_permutation_invariant(frames, rng):
    perm = rng.permutation(frames.shape[0])
    s1 = cluster_scenarios(frames, 3, 2, seed=5)
    s2 = cluster_scenarios(frames[perm], 3, 2, seed=5)
    for one, two in zip(s1, s2):
        assert one.scenario_id == two.scenario_id
        assert np.array_equal(one.representative_feature,
                              two.representative_feature)
        assert np.array_equal(one.basis, two.basis)
        assert one.member_count == two.member_count


def test_clustering_invariant_under_permutation(rng):
    means = [np.full(6, 0.0), np.full(6, 12.0), np.full(6, -12.0)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=15, sigma=0.5)
    assert_permutation_invariant(frames, rng)


def test_clustering_invariant_under_permutation_with_a_constant_first_feature(
        rng):
    # every frame ties in the first feature, so the canonical order comes
    # from the remaining ones
    means = [np.full(6, 0.0), np.full(6, 12.0), np.full(6, -12.0)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=15, sigma=0.5)
    frames[:, 0] = 0.0
    assert_permutation_invariant(frames, rng)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64,
              st.tuples(st.integers(5, 12), st.integers(1, 6)),
              elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0])))
def test_canonical_order_with_ties_is_lexsort(X):
    # five rows over three distinct values (-0.0 == 0.0): the first
    # column always ties
    assert np.array_equal(design._canonical_order(X), np.lexsort(X.T[::-1]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_canonical_order_of_continuous_rows_is_lexsort(n, a, seed):
    X = np.random.default_rng(seed).standard_normal((n, a))
    assert np.unique(X[:, 0]).size == n      # no tie in the first column
    assert np.array_equal(design._canonical_order(X), np.lexsort(X.T[::-1]))


def test_kmeans_makes_no_copy_of_the_training_matrix():
    # means 100x the noise, so no restart merges two clusters and no
    # member matrix or SSE temporary exceeds half of X
    rng = np.random.default_rng(0)
    X = np.vstack([100.0 * rng.standard_normal(400)
                   + rng.standard_normal((100, 400)) for _ in range(4)])
    tracemalloc.start()
    try:
        assign = design._kmeans(X, 4, np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(np.bincount(assign)) == [100] * 4
    assert peak < X.nbytes


def test_kmeans_sse_builds_no_member_sized_temporaries():
    # means 10x the noise: one restart of ten merges two clusters, whose
    # member residuals alone would reach the size of X
    rng = np.random.default_rng(0)
    X = np.vstack([10.0 * rng.standard_normal(400)
                   + rng.standard_normal((100, 400)) for _ in range(4)])
    tracemalloc.start()
    try:
        design._kmeans(X, 4, np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes


def reference_kmeans(X, k, rng):
    """Best of several seeded k-means++ runs (lowest within-cluster SSE)."""
    best = None
    for _ in range(design.KMEANS_RESTARTS):
        assign = reference_kmeans_once(X, k, rng)
        sse = 0.0
        for j in range(k):
            members = X[assign == j]
            sse += float(((members - members.mean(axis=0)) ** 2).sum())
        if best is None or sse < best[0]:
            best = (sse, assign)
    return best[1]


def reference_seed_centers(X, k, rng):
    """One sequential k-means++ seeding of the rows of X: each later center
    is drawn by rng.choice, from uniform weights once every distance is 0."""
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)

    def dist2_to(center):
        return np.maximum(sq - 2.0 * (X @ center) + center @ center, 0.0)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = dist2_to(centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = X[rng.choice(n, p=np.full(n, 1.0 / n))]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, dist2_to(centers[j]))
    return centers


def reference_kmeans_once(X, k, rng):
    """One seeded k-means++ / Lloyd run on rows of X; returns assignments."""
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    centers = reference_seed_centers(X, k, rng)

    assign = np.full(n, -1)
    for _ in range(design.KMEANS_MAX_ITER):
        d2_all = sq[:, None] - 2.0 * (X @ centers.T) + np.einsum(
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


def partition(assign):
    """The clusters of an assignment as sets of frame indices."""
    return {frozenset(np.flatnonzero(assign == j).tolist())
            for j in np.unique(assign)}


class CountingRng:
    """A generator that counts the uniform draws k-means++ seeding makes."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.integers_calls = 0

    def integers(self, *args):
        self.integers_calls += 1
        return self.rng.integers(*args)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)

    def random(self, *args):
        return self.rng.random(*args)


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_matches_the_sequential_reference_on_separated_data(seed):
    rng = np.random.default_rng(seed)
    k = 2 + seed
    X, _ = gaussian_blobs(rng, [rng.normal(scale=10.0, size=12)
                                for _ in range(k)], per_cluster=20, sigma=1.0)
    assert partition(design._kmeans(X, k, np.random.default_rng(seed))) == \
        partition(reference_kmeans(X, k, np.random.default_rng(seed)))


def test_kmeans_matches_the_sequential_reference_when_a_restart_merges():
    rng = np.random.default_rng(0)
    X = np.vstack([10.0 * rng.standard_normal(400)
                   + rng.standard_normal((100, 400)) for _ in range(4)])
    assign = design._kmeans(X, 4, np.random.default_rng(3))
    assert partition(assign) == partition(
        reference_kmeans(X, 4, np.random.default_rng(3)))
    assert sorted(np.bincount(assign)) == [100] * 4


def overlapping_blobs(data_seed):
    """Five clusters of 30 frames, 40 features, whose means are half the
    noise's deviation apart."""
    rng = np.random.default_rng(data_seed)
    return np.vstack([0.5 * rng.standard_normal(40)
                      + rng.standard_normal((30, 40)) for _ in range(5)])


STEPS_RUN_OUT = [(1, 2, 1), (1, 3, 5), (2, 2, 3)]


@pytest.mark.parametrize("max_iter, data_seed, seed", STEPS_RUN_OUT)
def test_kmeans_matches_the_sequential_reference_when_steps_run_out(
        monkeypatch, max_iter, data_seed, seed):
    # overlapping clusters and too few steps to converge: each restart keeps
    # its last assignment and is scored on it, and the restarts disagree
    monkeypatch.setattr(design, "KMEANS_MAX_ITER", max_iter)
    X = overlapping_blobs(data_seed)
    assert partition(design._kmeans(X, 5, np.random.default_rng(seed))) == \
        partition(reference_kmeans(X, 5, np.random.default_rng(seed)))


def test_kmeans_matches_the_sequential_reference_with_fewer_distinct_frames(
        monkeypatch):
    # three distinct integer frames, four copies each, for five clusters:
    # seeding runs out of positive distances, and every Lloyd step leaves
    # clusters empty; integer data keeps every distance exact
    X = np.repeat(np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0],
                            [2.0, 2.0, 0.0]]), 4, axis=0)
    filled = []
    fill = design._fill_empty_clusters

    def spy(assign, d2, k):
        filled.append(np.bincount(assign, minlength=k).min() == 0)
        fill(assign, d2, k)

    seeded = []
    seed_centers = design._seed_centers

    def seed_spy(*args):
        seeded.append(seed_centers(*args))
        return seeded[-1]

    monkeypatch.setattr(design, "_fill_empty_clusters", spy)
    monkeypatch.setattr(design, "_seed_centers", seed_spy)
    rng = CountingRng(11)
    assign = design._kmeans(X, 5, rng)
    assert seeded[0][1].any()  # a restart seeded from uniform weights
    assert rng.integers_calls == design.KMEANS_RESTARTS  # and drew no more
    assert any(filled)
    assert partition(assign) == partition(
        reference_kmeans(X, 5, np.random.default_rng(11)))
    assert np.bincount(assign, minlength=5).min() >= 1


# three distinct integer frames, four copies each, as in the test above
FEWER_DISTINCT = np.repeat(np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0],
                                     [2.0, 2.0, 0.0]]), 4, axis=0)


def frames_inner(X):
    """The inner products k-means takes on the frames: each row of X with
    every frame."""
    return lambda S: S @ X.T


def seeding_case(case):
    """(X, k, seed) for a lockstep seeding check."""
    rng = np.random.default_rng(7)
    if case.startswith("separated"):
        seed = int(case[-1])
        X, _ = gaussian_blobs(rng, [rng.normal(scale=10.0, size=12)
                                    for _ in range(2 + seed)],
                              per_cluster=20, sigma=1.0)
        return X, 2 + seed, seed
    if case == "duplicated":
        # integer frames, three copies each, as many clusters as distinct
        # frames: a copy of a center is exactly 0 away, the rest stay > 0
        return np.repeat(rng.integers(-5, 6, size=(6, 4)).astype(float), 3,
                         axis=0), 6, 3
    if case == "fewer-distinct":
        # every distance is 0 after three picks: the rest are uniform draws
        return FEWER_DISTINCT, 8, 11
    X = rng.standard_normal((15, 8))
    return X, {"k=1": 1, "k=n": 15}[case], 4


@pytest.mark.parametrize("case", [f"separated-{s}" for s in range(5)]
                         + ["duplicated", "k=1", "k=n", "fewer-distinct"])
def test_lockstep_seeding_matches_the_sequential_draws(case):
    X, k, seed = seeding_case(case)
    rng = np.random.default_rng(seed)
    sq = np.einsum("ij,ij->i", X, X)
    seeds, uniform, dist = design._seed_centers(X, frames_inner(X), sq, k,
                                                rng)
    reference = np.random.default_rng(seed)
    assert seeds.shape == (design.KMEANS_RESTARTS, k)
    assert dist.shape == (design.KMEANS_RESTARTS, k, X.shape[0])
    for restart, rows in zip(X[seeds], dist):
        assert np.array_equal(restart, reference_seed_centers(X, k, reference))
        # each seed's squared distances to the frames, unclamped, up to
        # the rounding of a product of another shape
        expected = (-2.0 * (restart @ X.T) + sq
                    + np.einsum("ij,ij->i", restart, restart)[:, None])
        assert np.allclose(rows, expected, rtol=0, atol=1e-12 * sq.max())
    assert (uniform == (case == "fewer-distinct")).all()
    # the same draws were made, no more and no fewer
    assert rng.bit_generator.state == reference.bit_generator.state


def test_kmeans_logs_the_restarts_seeded_from_uniform_weights(caplog):
    separated, k, seed = seeding_case("separated-2")
    with caplog.at_level(logging.DEBUG, logger="adasel.design"):
        design._kmeans(separated, k, np.random.default_rng(seed))
        design._kmeans(FEWER_DISTINCT, 5, np.random.default_rng(11))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "adasel.design"]
    assert len(lines) == 2
    assert lines[0].endswith("; uniform-weight seeding in restarts []")
    assert lines[1].endswith("; uniform-weight seeding in restarts "
                             f"{list(range(design.KMEANS_RESTARTS))}")


def test_kmeans_computes_each_center_once_when_restarts_converge_in_two_steps(
        caplog):
    # means 100x the noise: every seeding puts one center in each cluster,
    # so the first step assigns every frame right and the second repeats
    # it; the first step reads the seeding's distances, and only the
    # distances to the k means of each restart are computed
    rng = np.random.default_rng(0)
    X = np.vstack([100.0 * rng.standard_normal(40)
                   + rng.standard_normal((30, 40)) for _ in range(4)])
    with caplog.at_level(logging.DEBUG, logger="adasel.design"):
        design._kmeans(X, 4, np.random.default_rng(3))
    [record] = [r for r in caplog.records if r.name == "adasel.design"]
    steps, _, _, rows = record.args[:4]
    assert steps == [2] * design.KMEANS_RESTARTS
    assert rows == design.KMEANS_RESTARTS * 4
    assert f"; {rows} distance rows computed in Lloyd steps; " in \
        record.getMessage()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 25),
       st.integers(2, 10), st.sampled_from([0.5, 1.0, 2.0, 10.0]))
def test_kmeans_matches_the_sequential_reference_on_drawn_blobs(
        seed, k, per_cluster, dim, separation):
    # means drawn at `separation` times the noise's deviation: at 0.5 and
    # 1 the clusters overlap, restarts take many steps, and each step moves
    # a few frames
    rng = np.random.default_rng(seed)
    X, _ = gaussian_blobs(rng, separation * rng.standard_normal((k, dim)),
                          per_cluster, sigma=1.0)
    assert partition(design._kmeans(X, k, np.random.default_rng(seed))) == \
        partition(reference_kmeans(X, k, np.random.default_rng(seed)))


def gram_width(n, k):
    """The fewest features that put n frames and k clusters on the Gram
    side of k-means's rule."""
    return next(a for a in itertools.count(1)
                if design._gram_is_cheaper(n, a, k))


def padded_to_the_gram(X, k):
    """X with the fewest zero columns appended that put it on the Gram side;
    they change no distance between frames."""
    n, a = X.shape
    return np.hstack([X, np.zeros((n, max(gram_width(n, k) - a, 0)))])


@pytest.mark.parametrize("case", [f"separated-{s}" for s in range(5)]
                         + ["duplicated", "k=1", "k=n", "fewer-distinct"])
def test_lockstep_seeding_from_the_frame_gram_matches_the_frames(case):
    X, k, seed = seeding_case(case)
    sq = np.einsum("ij,ij->i", X, X)
    rng, gram_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    seeds, uniform, dist = design._seed_centers(X, frames_inner(X), sq, k,
                                                rng)
    got = design._seed_centers(X @ X.T, lambda S: S, sq, k, gram_rng)
    assert np.array_equal(X[got[0]], X[seeds])
    assert np.array_equal(got[1], uniform)
    assert np.allclose(got[2], dist, rtol=0, atol=1e-12 * sq.max())
    assert gram_rng.bit_generator.state == rng.bit_generator.state


def test_kmeans_logs_which_source_its_distances_came_from(caplog):
    # the same frames on both sides of the rule, the second time padded
    # with zero columns: the same steps choose the same restart and compute
    # the same number of rows
    X, k, seed = seeding_case("separated-2")
    with caplog.at_level(logging.DEBUG, logger="adasel.design"):
        design._kmeans(X, k, np.random.default_rng(seed))
        design._kmeans(padded_to_the_gram(X, k), k,
                       np.random.default_rng(seed))
    frames, gram = [r for r in caplog.records if r.name == "adasel.design"]
    assert "; distances from the frames; " in frames.getMessage()
    assert "; distances from the frame Gram; " in gram.getMessage()
    steps, best, _, rows = frames.args[:4]
    assert (steps, best, rows) == (gram.args[0], gram.args[1], gram.args[3])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(9, 25),
       st.integers(2, 6), st.sampled_from([0.5, 1.0, 2.0, 10.0]))
def test_kmeans_on_the_frame_gram_matches_the_frames_on_padded_blobs(
        seed, k, per_cluster, dim, separation):
    # at most 6 features and at least 18 frames keep the drawn blobs on
    # the frame side; the zero columns move them to the Gram side
    rng = np.random.default_rng(seed)
    X, _ = gaussian_blobs(rng, separation * rng.standard_normal((k, dim)),
                          per_cluster, sigma=1.0)
    padded = padded_to_the_gram(X, k)
    assert not design._gram_is_cheaper(*X.shape, k)
    assert design._gram_is_cheaper(*padded.shape, k)
    assert partition(design._kmeans(X, k, np.random.default_rng(seed))) == \
        partition(design._kmeans(padded, k, np.random.default_rng(seed)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 10),
       st.integers(0, 20), st.sampled_from([0.5, 1.0, 2.0, 10.0]))
def test_kmeans_on_the_frame_gram_matches_the_sequential_reference(
        seed, k, per_cluster, extra, separation):
    # as many features as the Gram side needs, or up to 20 more
    dim = gram_width(k * per_cluster, k) + extra
    rng = np.random.default_rng(seed)
    X, _ = gaussian_blobs(rng, separation * rng.standard_normal((k, dim)),
                          per_cluster, sigma=1.0)
    assert design._gram_is_cheaper(*X.shape, k)
    assert partition(design._kmeans(X, k, np.random.default_rng(seed))) == \
        partition(reference_kmeans(X, k, np.random.default_rng(seed)))


@pytest.mark.parametrize(
    "max_iter, data_seed, seed",
    [(design.KMEANS_MAX_ITER, None, 11)] + STEPS_RUN_OUT,
    ids=["fewer-distinct"] + [f"steps-run-out-{i}" for i in range(3)])
def test_kmeans_on_the_frame_gram_matches_the_reference_when_members_move(
        monkeypatch, max_iter, data_seed, seed):
    # the fewer-distinct frames leave clusters empty and refill them every
    # step, and the overlapping blobs stop before they converge: the Gram
    # side's center sums follow every frame that leaves or joins a center
    X = FEWER_DISTINCT if data_seed is None else overlapping_blobs(data_seed)
    padded = padded_to_the_gram(X, 5)
    assert design._gram_is_cheaper(*padded.shape, 5)
    monkeypatch.setattr(design, "KMEANS_MAX_ITER", max_iter)
    assert partition(design._kmeans(padded, 5, np.random.default_rng(seed))) \
        == partition(reference_kmeans(X, 5, np.random.default_rng(seed)))


def test_fill_empty_clusters_refills_a_cluster_it_empties():
    # cluster 2 is empty and takes frame 0, the worst-served; that empties
    # cluster 0, which takes frame 1, the first of the next worst; frames
    # moved in this step do not move again
    assign = np.array([0, 1, 1, 1])
    d2 = np.zeros((3, 4))
    d2[0, 0], d2[1, 1:] = 5.0, 1.0
    design._fill_empty_clusters(assign, d2, 3)
    assert assign.tolist() == [2, 0, 1, 1]


def test_cluster_too_few_members_reports_scenario(rng):
    # third blob has only 2 points, too few for a 3-dim subspace
    frames = np.vstack([
        rng.standard_normal((12, 8)),
        20.0 + rng.standard_normal((12, 8)),
        np.array([[40.0] * 8, [40.5] * 8]),
    ])
    with pytest.raises(TooFewSamples) as exc:
        cluster_scenarios(frames, 3, 3, seed=1)
    assert "s" in str(exc.value) and "members" in str(exc.value)


def test_scenario_ids_permute_with_the_rows_of_means(rng):
    means = rng.standard_normal((12, 5))
    ids = scenario_ids(means)
    assert sorted(ids) == [f"s{k:03d}" for k in range(12)]
    assert ids[int(np.argmin(means[:, 0]))] == "s000"
    for _ in range(5):
        perm = rng.permutation(12)
        assert scenario_ids(means[perm]) == [ids[j] for j in perm]


def test_cluster_ids_are_scenario_ids_of_the_cluster_means(rng):
    means = [rng.normal(scale=15.0, size=8) for _ in range(6)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=10, sigma=0.4)
    scenarios = cluster_scenarios(frames, 6, 3, seed=4)
    reps = np.stack([s.representative_feature for s in scenarios])
    assert scenario_ids(reps) == [s.scenario_id for s in scenarios]


def test_invalid_scenario_counts(rng):
    frames = rng.standard_normal((10, 5))
    with pytest.raises(InvalidM):
        cluster_scenarios(frames, 0, 2, seed=0)
    with pytest.raises(InvalidM):
        cluster_scenarios(frames, 11, 2, seed=0)


# --------------------------------------------------------------------------
# feasible_combos

def test_feasible_combos_platform1_at_8fps():
    got = feasible_combos(table_ii_platforms()[0], table_ii_combos(), 8.0)
    assert got == ["HOG-240x320", "HOG-480x640", "ACF-240x320"]


def test_feasible_combos_platform2_at_30fps():
    got = feasible_combos(table_ii_platforms()[1], table_ii_combos(), 30.0)
    assert got == ["HOG-240x320"]


def test_feasible_combos_impossible_fps():
    assert feasible_combos(table_ii_platforms()[1], table_ii_combos(),
                           1000.0) == []


def test_combo_the_platform_does_not_list_is_not_runnable(rng):
    combos = [AlgoParamCombo("c0"), AlgoParamCombo("c1")]
    platform = PlatformSpec("p0", {"c0": 5.0}, cost=1.0)
    assert feasible_combos(platform, combos, 0.0) == ["c0"]
    # c1 has the lower error, but p0 cannot run it
    performance = {("s000", "c0", "p0"): 0.5, ("s000", "c1", "p0"): 0.1}
    constraints = SelectionConstraints(
        max_mean_error=1.0, required_fps=0.0, max_cost=1.0)
    ranking = rank_combos([platform], combos, performance, 0.0)
    assert select_platform(ranking, [platform], constraints) == "p0"
    scenario = ScenarioProfile(
        scenario_id="s000", representative_feature=rng.standard_normal(8),
        basis=random_subspace(rng, 8, 2).basis, member_count=5)
    label_scenarios([scenario], ranking)
    assert scenario.labels == {"p0": "c0"}


@pytest.mark.parametrize("value, shown", [("1", "'1'"), (None, "None"),
                                          (True, "True")],
                         ids=["string", "none", "bool"])
@pytest.mark.parametrize("field", ["max_mean_error", "required_fps",
                                   "max_cost"])
def test_constraint_that_is_not_a_real_number_raises_naming_the_field(
        field, value, shown):
    limits = dict(max_mean_error=1.0, required_fps=0.0, max_cost=1.0)
    limits[field] = value
    with pytest.raises(OutOfRange,
                       match=rf"^{field} must be a number, got {shown}$"):
        SelectionConstraints(**limits)
    # nor can a checked limit be set to one afterwards
    checked = SelectionConstraints(1.0, 0.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(checked, field, value)


@pytest.mark.parametrize("value", [Fraction(1, 2), 10**400, np.int64(3),
                                   np.float32(0.5)],
                         ids=["fraction", "huge-int", "int64", "float32"])
def test_constraint_that_is_any_real_number_is_accepted(value):
    limits = SelectionConstraints(max_mean_error=value, required_fps=value,
                                  max_cost=value)
    assert vars(limits) == dict.fromkeys(vars(limits), value)


def test_constraint_that_is_a_numpy_nan_raises_out_of_range():
    with pytest.raises(OutOfRange, match=r"^max_cost must be a number, "):
        SelectionConstraints(1.0, 0.0, np.float32("nan"))


# --------------------------------------------------------------------------
# select_platform

def synthetic_performance(errors_by_platform):
    """errors_by_platform: {platform_id: {scenario_id: {combo_id: error}}}"""
    return {(sid, cid, pid): err
            for pid, by_scenario in errors_by_platform.items()
            for sid, by_combo in by_scenario.items()
            for cid, err in by_combo.items()}


def two_platform_table(p1_errors, p2_errors, scenarios=("s000", "s001")):
    combos = table_ii_combos()
    table = {}
    for pid, errs in [("platform1", p1_errors), ("platform2", p2_errors)]:
        table[pid] = {sid: dict(errs) for sid in scenarios}
    return synthetic_performance(table), combos


def test_expensive_platform_chosen_when_forced():
    perf, combos = two_platform_table(
        {"HOG-240x320": 9.0, "HOG-480x640": 8.0, "ACF-240x320": 7.0,
         "ACF-480x640": 6.0},
        {"HOG-240x320": 5.0, "HOG-480x640": 4.0, "ACF-240x320": 3.0,
         "ACF-480x640": 1.0})
    platforms = table_ii_platforms()
    chosen = select_platform(
        rank_combos(platforms, combos, perf, 8.0), platforms,
        SelectionConstraints(max_mean_error=2.0, required_fps=8.0,
                             max_cost=10.0))
    assert chosen == "platform2"


def test_cheaper_platform_wins_when_both_qualify():
    perf, combos = two_platform_table(
        {"HOG-240x320": 4.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 9.0},
        {"HOG-240x320": 2.0, "HOG-480x640": 2.5, "ACF-240x320": 1.5,
         "ACF-480x640": 1.0})
    platforms = table_ii_platforms()
    chosen = select_platform(
        rank_combos(platforms, combos, perf, 8.0), platforms,
        SelectionConstraints(max_mean_error=3.5, required_fps=8.0,
                             max_cost=10.0))
    assert chosen == "platform1"


def test_high_res_combo_unlocked_by_platform2(rng):
    # ACF-480x640 has by far the lowest error but only platform2 can run it
    # at the required fps; a strict error bound forces platform2
    p1 = {"HOG-240x320": 6.0, "HOG-480x640": 5.5, "ACF-240x320": 5.0,
          "ACF-480x640": 1.0}
    perf, combos = two_platform_table(p1, p1)
    constraints = SelectionConstraints(max_mean_error=2.0, required_fps=10.0,
                                       max_cost=10.0)
    platforms = table_ii_platforms()
    chosen = select_platform(rank_combos(platforms, combos, perf, 10.0),
                             platforms, constraints)
    assert chosen == "platform2"
    # brute force: enumerate platform/combo feasibility by hand
    feas1 = feasible_combos(table_ii_platforms()[0], combos, 10.0)
    assert "ACF-480x640" not in feas1
    feas2 = feasible_combos(table_ii_platforms()[1], combos, 10.0)
    assert "ACF-480x640" in feas2


def test_select_platform_matches_exhaustive_enumeration(rng):
    # randomized tables: the chosen platform must equal the brute-force
    # (feasibility -> cost -> error -> id) minimum
    combos = table_ii_combos()
    for trial in range(50):
        platforms = [
            PlatformSpec(f"p{i}", {c.id: float(rng.choice([5.0, 12.0, 20.0]))
                                   for c in combos},
                         cost=float(rng.integers(1, 5)))
            for i in range(4)]
        table = {(sid, c.id, p.id): float(np.round(rng.uniform(0, 8), 3))
                 for sid in ("s000", "s001", "s002")
                 for c in combos for p in platforms}
        constraints = SelectionConstraints(
            max_mean_error=float(rng.uniform(2.0, 6.0)),
            required_fps=10.0, max_cost=3.0)
        candidates = []
        for p in platforms:
            feas = [cid for cid, fps in p.combo_capabilities.items()
                    if fps >= constraints.required_fps]
            if p.cost > constraints.max_cost:
                continue
            if not feas:
                best = float("inf")
            else:
                best = np.mean([min(table[(sid, cid, p.id)] for cid in feas)
                                for sid in ("s000", "s001", "s002")])
            if best <= constraints.max_mean_error:
                candidates.append((p.cost, best, p.id))
        ranking = rank_combos(platforms, combos, table,
                              constraints.required_fps)
        if not candidates:
            with pytest.raises(NoFeasiblePlatform):
                select_platform(ranking, platforms, constraints)
        else:
            expected = min(candidates)[2]
            assert select_platform(ranking, platforms,
                                   constraints) == expected


def test_no_feasible_platform_reports_diagnostics():
    perf, combos = two_platform_table(
        {"HOG-240x320": 6.0, "HOG-480x640": 5.0, "ACF-240x320": 4.0,
         "ACF-480x640": 3.0},
        {"HOG-240x320": 4.0, "HOG-480x640": 3.0, "ACF-240x320": 2.5,
         "ACF-480x640": 2.0})
    platforms = table_ii_platforms()
    ranking = rank_combos(platforms, combos, perf, 8.0)
    for max_cost, over in [(10.0, ""), (2.0, " (over budget)")]:
        with pytest.raises(NoFeasiblePlatform) as exc:
            select_platform(
                ranking, platforms,
                SelectionConstraints(max_mean_error=1.0, required_fps=8.0,
                                     max_cost=max_cost))
        assert str(exc.value) == (
            f"no platform meets max_mean_error=1.0 at cost <= {max_cost}: "
            "platform1: cost=1.0, best mean error=4; "
            f"platform2: cost=3.0{over}, best mean error=2")


# --------------------------------------------------------------------------
# label_scenarios

def labeled_scenarios(rng, performance, scenario_ids=("s000", "s001"),
                      required_fps=5.0):
    """Random scenarios labeled against the Table-II combos and platforms."""
    scenarios = [ScenarioProfile(
        scenario_id=sid, representative_feature=rng.standard_normal(8),
        basis=random_subspace(rng, 8, 2).basis, member_count=5)
        for sid in scenario_ids]
    label_scenarios(scenarios, rank_combos(table_ii_platforms(),
                                           table_ii_combos(), performance,
                                           required_fps))
    return scenarios


def test_label_picks_argmin(rng):
    perf, _ = two_platform_table(
        {"HOG-240x320": 9.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 7.0},
        {"HOG-240x320": 9.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 7.0})
    for s in labeled_scenarios(rng, perf):
        assert s.labels["platform1"] == "ACF-240x320"
        assert s.labels["platform2"] == "ACF-240x320"


def test_label_tie_breaks_on_higher_fps(rng):
    # HOG-240x320 and ACF-240x320 tie at error 3; HOG runs faster on both
    perf, _ = two_platform_table(
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 7.0},
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 7.0})
    scenarios = labeled_scenarios(rng, perf)
    assert scenarios[0].labels["platform1"] == "HOG-240x320"


def test_labels_match_brute_force_on_full_table(rng):
    combos = table_ii_combos()
    platforms = table_ii_platforms()
    scenario_ids = [f"s{k:03d}" for k in range(15)]
    errors = {(sid, c.id, p.id): float(np.round(rng.uniform(0.0, 10.0), 3))
              for sid in scenario_ids for p in platforms for c in combos}
    scenarios = labeled_scenarios(rng, errors, scenario_ids=scenario_ids,
                                  required_fps=5.0)
    for s in scenarios:
        for p in platforms:
            feas = [cid for cid, fps in p.combo_capabilities.items()
                    if fps >= 5.0]
            best = min(feas, key=lambda cid: (
                errors[(s.scenario_id, cid, p.id)],
                -p.combo_capabilities[cid], cid))
            assert s.labels[p.id] == best


def test_label_missing_record_raises(rng):
    perf, _ = two_platform_table(
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 7.0},
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 7.0})
    del perf["s001", "ACF-240x320", "platform2"]
    with pytest.raises(MissingRecord) as exc:
        labeled_scenarios(rng, perf)
    assert "s001" in str(exc.value) and "ACF-240x320" in str(exc.value)


def test_label_names_a_scenario_the_table_does_not(rng):
    # a table keyed by the user's own ids blames the id mismatch, not a
    # missing record of one combo
    errors = {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
              "ACF-480x640": 7.0}
    perf, _ = two_platform_table(errors, errors,
                                 scenarios=("video0", "video1"))
    with pytest.raises(MissingRecord) as exc:
        labeled_scenarios(rng, perf)
    assert str(exc.value) == ("performance table names no scenario s000; "
                              "its scenario ids are video0, video1")


def test_label_gives_no_label_for_a_platform_that_runs_no_combo(rng):
    errors = {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 2.0,
              "ACF-480x640": 7.0}
    perf, combos = two_platform_table(errors, errors)
    platforms = table_ii_platforms()
    # only platform2 runs a combo (HOG-240x320) at 30 fps, and none at 100
    for fps, expected in [(30.0, {"platform2": "HOG-240x320"}), (100.0, {})]:
        ranking = rank_combos(platforms, combos, perf, fps)
        scenarios = [ScenarioProfile(
            scenario_id=sid, representative_feature=rng.standard_normal(8),
            basis=random_subspace(rng, 8, 2).basis, member_count=5)
            for sid in ("s000", "s001")]
        label_scenarios(scenarios, ranking)
        assert [s.labels for s in scenarios] == [expected, expected]


def test_label_idempotent(rng):
    perf, _ = two_platform_table(
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 2.0,
         "ACF-480x640": 7.0},
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 2.0,
         "ACF-480x640": 7.0})
    scenarios = labeled_scenarios(rng, perf)
    once = {s.scenario_id: dict(s.labels) for s in scenarios}
    label_scenarios(scenarios, rank_combos(table_ii_platforms(),
                                           table_ii_combos(), perf, 5.0))
    twice = {s.scenario_id: dict(s.labels) for s in scenarios}
    assert once == twice


# --------------------------------------------------------------------------
# build_design_profile

def test_build_design_profile_end_to_end(rng):
    means = [np.full(8, 0.0), np.full(8, 15.0)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=10, sigma=0.3)
    perf, combos = two_platform_table(
        {"HOG-240x320": 4.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 9.0},
        {"HOG-240x320": 2.0, "HOG-480x640": 2.5, "ACF-240x320": 1.5,
         "ACF-480x640": 1.0})
    platforms = table_ii_platforms()
    profile = build_design_profile(
        frames, combos, platforms, perf,
        SelectionConstraints(max_mean_error=3.5, required_fps=8.0,
                             max_cost=10.0),
        n_scenarios=2, subspace_dim=2, window_length=10, seed=3)
    assert profile.selected_platform == "platform1"
    assert all(s.labels for s in profile.scenarios)
    # label optimality: no feasible combo beats the labeled one
    for s in profile.scenarios:
        for p in platforms:
            labeled = perf[s.scenario_id, s.labels[p.id], p.id]
            for cid in [cid for cid, fps in p.combo_capabilities.items()
                        if fps >= 8.0]:
                assert perf[s.scenario_id, cid, p.id] >= labeled


def test_build_design_profile_rejects_windows_too_short_for_the_subspace(rng):
    # raised up front, before the frames are clustered or the table is read
    with pytest.raises(TooFewFrames, match="window_length 4 .*subspace_dim 5"):
        build_design_profile(rng.standard_normal((20, 8)), [], [], {},
                             SelectionConstraints(1.0, 1.0, 1.0),
                             n_scenarios=2, subspace_dim=5, window_length=4,
                             seed=3)


@pytest.mark.parametrize("n_scenarios", [1, 3])
def test_build_design_profile_rejects_a_scenario_count_the_table_does_not_name(
        rng, n_scenarios):
    # a count the table does not name would label the wrong clusters
    means = [np.full(8, 0.0), np.full(8, 15.0)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=10, sigma=0.3)
    perf, combos = two_platform_table(
        {"HOG-240x320": 4.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 9.0},
        {"HOG-240x320": 2.0, "HOG-480x640": 2.5, "ACF-240x320": 1.5,
         "ACF-480x640": 1.0})
    with pytest.raises(InvalidM, match=f"n_scenarios is {n_scenarios}, but "
                       "the performance table names 2 scenarios"):
        build_design_profile(
            frames, combos, table_ii_platforms(), perf,
            SelectionConstraints(max_mean_error=3.5, required_fps=8.0,
                                 max_cost=10.0),
            n_scenarios=n_scenarios, subspace_dim=2, window_length=10, seed=3)


def test_build_design_profile_reports_a_missing_record_before_the_count(rng):
    # the table is ranked before its scenario ids are counted
    means = [np.full(8, 0.0), np.full(8, 15.0)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=10, sigma=0.3)
    errors = {"HOG-240x320": 4.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
              "ACF-480x640": 9.0}
    perf, combos = two_platform_table(errors, errors)
    del perf["s001", "ACF-240x320", "platform2"]
    with pytest.raises(MissingRecord, match="scenario=s001 "
                       "combo=ACF-240x320 platform=platform2"):
        build_design_profile(
            frames, combos, table_ii_platforms(), perf,
            SelectionConstraints(max_mean_error=3.5, required_fps=8.0,
                                 max_cost=10.0),
            n_scenarios=3, subspace_dim=2, window_length=10, seed=3)
