import numpy as np
import pytest

from adasel.design import (AlgoParamCombo, PerformanceRecord, PlatformSpec,
                           ScenarioProfile, SelectionConstraints,
                           build_design_profile, cluster_scenarios,
                           feasible_combos, label_scenarios, scenario_ids,
                           select_platform)
from adasel.errors import (InvalidM, MissingRecord, NoFeasiblePlatform,
                           TooFewFrames, TooFewSamples)
from conftest import random_subspace


def table_ii_combos():
    return [
        AlgoParamCombo("HOG-240x320", "HOG", 15.0, (320, 240)),
        AlgoParamCombo("HOG-480x640", "HOG", 8.0, (640, 480)),
        AlgoParamCombo("ACF-240x320", "ACF", 10.0, (320, 240)),
        AlgoParamCombo("ACF-480x640", "ACF", 5.0, (640, 480)),
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
        s.subspace.validate(tol=1e-10)
        assert s.member_count >= 4


def test_clustering_invariant_under_permutation(rng):
    means = [np.full(6, 0.0), np.full(6, 12.0), np.full(6, -12.0)]
    frames, _ = gaussian_blobs(rng, means, per_cluster=15, sigma=0.5)
    perm = rng.permutation(frames.shape[0])
    s1 = cluster_scenarios(frames, 3, 2, seed=5)
    s2 = cluster_scenarios(frames[perm], 3, 2, seed=5)
    for one, two in zip(s1, s2):
        assert one.scenario_id == two.scenario_id
        assert np.array_equal(one.representative_feature,
                              two.representative_feature)
        assert np.array_equal(one.subspace.basis, two.subspace.basis)
        assert one.member_count == two.member_count


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
    combos = [AlgoParamCombo("c0", "HOG", 5.0, (320, 240)),
              AlgoParamCombo("c1", "ACF", 5.0, (320, 240))]
    platform = PlatformSpec("p0", {"c0": 5.0}, cost=1.0)
    assert feasible_combos(platform, combos, 0.0) == ["c0"]
    # c1 has the lower error, but p0 cannot run it
    performance = [PerformanceRecord("s000", "c0", "p0", 0.5),
                   PerformanceRecord("s000", "c1", "p0", 0.1)]
    constraints = SelectionConstraints(
        max_mean_error=1.0, required_fps=0.0, max_cost=1.0)
    assert select_platform([platform], performance, constraints,
                           combos) == "p0"
    scenario = ScenarioProfile(
        scenario_id="s000", representative_feature=rng.standard_normal(8),
        subspace=random_subspace(rng, 8, 2), member_count=5)
    label_scenarios([scenario], combos, [platform], performance, 0.0)
    assert scenario.labels == {"p0": "c0"}


# --------------------------------------------------------------------------
# select_platform

def synthetic_performance(errors_by_platform):
    """errors_by_platform: {platform_id: {scenario_id: {combo_id: error}}}"""
    records = []
    for pid, by_scenario in errors_by_platform.items():
        for sid, by_combo in by_scenario.items():
            for cid, err in by_combo.items():
                records.append(PerformanceRecord(sid, cid, pid, err))
    return records


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
    chosen = select_platform(
        table_ii_platforms(), perf,
        SelectionConstraints(max_mean_error=2.0, required_fps=8.0,
                             max_cost=10.0),
        combos)
    assert chosen == "platform2"


def test_cheaper_platform_wins_when_both_qualify():
    perf, combos = two_platform_table(
        {"HOG-240x320": 4.0, "HOG-480x640": 5.0, "ACF-240x320": 3.0,
         "ACF-480x640": 9.0},
        {"HOG-240x320": 2.0, "HOG-480x640": 2.5, "ACF-240x320": 1.5,
         "ACF-480x640": 1.0})
    chosen = select_platform(
        table_ii_platforms(), perf,
        SelectionConstraints(max_mean_error=3.5, required_fps=8.0,
                             max_cost=10.0),
        combos)
    assert chosen == "platform1"


def test_high_res_combo_unlocked_by_platform2(rng):
    # ACF-480x640 has by far the lowest error but only platform2 can run it
    # at the required fps; a strict error bound forces platform2
    p1 = {"HOG-240x320": 6.0, "HOG-480x640": 5.5, "ACF-240x320": 5.0,
          "ACF-480x640": 1.0}
    perf, combos = two_platform_table(p1, p1)
    constraints = SelectionConstraints(max_mean_error=2.0, required_fps=10.0,
                                       max_cost=10.0)
    chosen = select_platform(table_ii_platforms(), perf, constraints, combos)
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
        records = [PerformanceRecord(sid, c.id, p.id,
                                     float(np.round(rng.uniform(0, 8), 3)))
                   for sid in ("s000", "s001", "s002")
                   for c in combos for p in platforms]
        constraints = SelectionConstraints(
            max_mean_error=float(rng.uniform(2.0, 6.0)),
            required_fps=10.0, max_cost=3.0)
        table = {(r.scenario_id, r.combo_id, r.platform_id): r.error
                 for r in records}
        candidates = []
        for p in platforms:
            feas = feasible_combos(p, combos, constraints.required_fps)
            if p.cost > constraints.max_cost:
                continue
            if not feas:
                best = float("inf")
            else:
                best = np.mean([min(table[(sid, cid, p.id)] for cid in feas)
                                for sid in ("s000", "s001", "s002")])
            if best <= constraints.max_mean_error:
                candidates.append((p.cost, best, p.id))
        if not candidates:
            with pytest.raises(NoFeasiblePlatform):
                select_platform(platforms, records, constraints, combos)
        else:
            expected = min(candidates)[2]
            assert select_platform(platforms, records, constraints,
                                   combos) == expected


def test_no_feasible_platform_reports_diagnostics():
    perf, combos = two_platform_table(
        {"HOG-240x320": 6.0, "HOG-480x640": 5.0, "ACF-240x320": 4.0,
         "ACF-480x640": 3.0},
        {"HOG-240x320": 4.0, "HOG-480x640": 3.0, "ACF-240x320": 2.5,
         "ACF-480x640": 2.0})
    with pytest.raises(NoFeasiblePlatform) as exc:
        select_platform(
            table_ii_platforms(), perf,
            SelectionConstraints(max_mean_error=1.0, required_fps=8.0,
                                 max_cost=10.0),
            combos)
    diag = exc.value.diagnostics
    assert set(diag) == {"platform1", "platform2"}
    assert diag["platform1"]["best_mean_error"] == 4.0
    assert diag["platform2"]["best_mean_error"] == 2.0


# --------------------------------------------------------------------------
# label_scenarios

def labeled_scenarios(rng, performance, scenario_ids=("s000", "s001"),
                      required_fps=5.0):
    """Random scenarios labeled against the Table-II combos and platforms."""
    scenarios = [ScenarioProfile(
        scenario_id=sid, representative_feature=rng.standard_normal(8),
        subspace=random_subspace(rng, 8, 2), member_count=5)
        for sid in scenario_ids]
    label_scenarios(scenarios, table_ii_combos(), table_ii_platforms(),
                    performance, required_fps)
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
    records = []
    errors = {}
    for sid in scenario_ids:
        for p in platforms:
            for c in combos:
                e = float(np.round(rng.uniform(0.0, 10.0), 3))
                errors[(sid, c.id, p.id)] = e
                records.append(PerformanceRecord(sid, c.id, p.id, e))
    scenarios = labeled_scenarios(rng, records, scenario_ids=scenario_ids,
                                  required_fps=5.0)
    for s in scenarios:
        for p in platforms:
            feas = feasible_combos(p, combos, 5.0)
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
    perf = [r for r in perf if not (
        r.scenario_id == "s001" and r.combo_id == "ACF-240x320"
        and r.platform_id == "platform2")]
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


def test_label_idempotent(rng):
    perf, _ = two_platform_table(
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 2.0,
         "ACF-480x640": 7.0},
        {"HOG-240x320": 3.0, "HOG-480x640": 5.0, "ACF-240x320": 2.0,
         "ACF-480x640": 7.0})
    scenarios = labeled_scenarios(rng, perf)
    once = {s.scenario_id: dict(s.labels) for s in scenarios}
    label_scenarios(scenarios, table_ii_combos(), table_ii_platforms(), perf,
                    5.0)
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
    table = {(r.scenario_id, r.combo_id, r.platform_id): r.error
             for r in perf}
    for s in profile.scenarios:
        for p in platforms:
            labeled = table[(s.scenario_id, s.labels[p.id], p.id)]
            for cid in feasible_combos(p, combos, 8.0):
                assert table[(s.scenario_id, cid, p.id)] >= labeled


def test_build_design_profile_rejects_windows_too_short_for_the_subspace(rng):
    # raised up front, before the frames are clustered or the table is read
    with pytest.raises(TooFewFrames, match="window_length 4 .*subspace_dim 5"):
        build_design_profile(rng.standard_normal((20, 8)), [], [], [],
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
