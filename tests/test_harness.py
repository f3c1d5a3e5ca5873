import copy
import dataclasses
import pickle

import numpy as np
import pytest

from adasel.design import (DesignProfile, ProfileConfig, ScenarioProfile,
                           cluster_scenarios, label_scenarios, rank_combos)
from adasel.errors import ConfigInvalid, DuplicateKey, Misaligned
from adasel.dataio import read_window_truth, write_report, write_window_truth
from adasel.harness import (RegretReport, SyntheticConfig, WindowTruth,
                            _separated_means, evaluate_regret,
                            generate_synthetic)
from adasel.runtime import SelectionDecision, SelectionTrace, run_selection
from adasel.subspace import pca_basis
from conftest import OPEN, design_for


def tiny_config(**overrides):
    defaults = dict(dim_ambient=16, dim_subspace=3, n_scenarios=3,
                    n_combos=3, frames_per_scenario=10, n_windows=30,
                    noise_sigma=0.1, seed=5)
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


def run_pipeline(dataset):
    profile = design_for(dataset)
    trace = run_selection(dataset.test_stream, profile, "p1",
                          dataset.config.frames_per_scenario)
    return profile, trace


def fake_trace(choices, matched=None):
    decisions = [SelectionDecision(
        window_id=i, matched_scenario_id=(matched[i] if matched else "s000"),
        costs=np.array([0.0]), chosen_combo_id=c, platform_id="p1",
        elapsed_ms=0.0)
        for i, c in enumerate(choices)]
    return SelectionTrace(decisions=decisions, profile_reference="x" * 64)


# --------------------------------------------------------------------------
# generate_synthetic

def test_zero_noise_recovers_every_window():
    dataset = generate_synthetic(tiny_config(noise_sigma=0.0))
    _, trace = run_pipeline(dataset)
    report = evaluate_regret(trace, dataset.window_truth)
    assert report.scenario_match_accuracy == 1.0


def test_single_scenario_every_window_matches_it():
    dataset = generate_synthetic(tiny_config(n_scenarios=1))
    _, trace = run_pipeline(dataset)
    assert all(d.matched_scenario_id == "s000" for d in trace.decisions)


def test_generation_is_deterministic():
    d1 = generate_synthetic(tiny_config())
    d2 = generate_synthetic(tiny_config())
    assert np.array_equal(d1.training_frames, d2.training_frames)
    assert np.array_equal(d1.test_stream, d2.test_stream)
    assert d1.window_truth == d2.window_truth
    assert d1.performance == d2.performance
    d3 = generate_synthetic(tiny_config(seed=6))
    assert not np.array_equal(d1.training_frames, d3.training_frames)


def test_training_labels_align_with_blocks():
    cfg = tiny_config()
    dataset = generate_synthetic(cfg)
    assert len(dataset.training_labels) == cfg.n_scenarios * cfg.frames_per_scenario
    assert dataset.training_labels[0] == "g000"
    assert dataset.training_labels[-1] == f"g{cfg.n_scenarios - 1:03d}"
    assert set(dataset.scenario_map.values()) == \
        {f"s{k:03d}" for k in range(cfg.n_scenarios)}


@pytest.mark.parametrize("seed", range(1, 11))
def test_scenario_map_matches_clustering_and_majority_vote(seed):
    cfg = SyntheticConfig(seed=seed)
    dataset = generate_synthetic(cfg)
    # the rule the generator used to follow: design's k-means, then for each
    # generating block the cluster whose mean most of its frames are nearest
    M, F = cfg.n_scenarios, cfg.frames_per_scenario
    clusters = cluster_scenarios(dataset.training_frames, M,
                                 cfg.dim_subspace, cfg.seed)
    reps = np.stack([c.representative_feature for c in clusters])
    expected = {}
    for i in range(M):
        block = dataset.training_frames[i * F:(i + 1) * F]
        nearest = ((block[:, None, :] - reps[None]) ** 2).sum(axis=2).argmin(1)
        majority = int(np.bincount(nearest, minlength=M).argmax())
        expected[f"g{i:03d}"] = clusters[majority].scenario_id
    assert dataset.scenario_map == expected


@pytest.mark.parametrize("seed", [1, 42])
def test_reference_dimension_synth_names_every_scenario_once(seed):
    dataset = generate_synthetic(SyntheticConfig(
        dim_ambient=1288, dim_subspace=20, n_scenarios=15,
        frames_per_scenario=40, n_windows=3, seed=seed))
    assert sorted(dataset.scenario_map.values()) == \
        [f"s{k:03d}" for k in range(15)]
    assert {sid for sid, _, _ in dataset.performance} == \
        set(dataset.scenario_map.values())


def test_best_combo_depends_on_scenario():
    dataset = generate_synthetic(tiny_config())
    best = {}
    for (sid, cid, pid), error in dataset.performance.items():
        if pid != "p1":
            continue
        cur = best.get(sid)
        if cur is None or error < cur[1]:
            best[sid] = (cid, error)
    assert len({v[0] for v in best.values()}) >= 2


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        generate_synthetic(tiny_config(frames_per_scenario=3))  # <= b
    with pytest.raises(ConfigInvalid):
        generate_synthetic(tiny_config(dim_ambient=4))  # < 2b
    with pytest.raises(ConfigInvalid):
        generate_synthetic(tiny_config(noise_sigma=-0.1))
    with pytest.raises(ConfigInvalid):
        SyntheticConfig(n_windows=0)


def test_config_rejects_values_that_are_not_numbers():
    for field, value in [("dim_ambient", "16"), ("n_windows", 2.5),
                         ("seed", True), ("noise_sigma", None)]:
        with pytest.raises(ConfigInvalid, match=field):
            generate_synthetic(tiny_config(**{field: value}))
    model = {(i, h): 1.0 for i in range(3) for h in range(3)}
    model[(2, 0)] = "1.0"
    with pytest.raises(ConfigInvalid, match=r"error_model\[2, 0\]"):
        generate_synthetic(tiny_config(error_model=model))


def test_custom_error_model_must_be_complete():
    with pytest.raises(ConfigInvalid):
        generate_synthetic(tiny_config(error_model={(0, 0): 1.0}))


def test_custom_error_model_rejects_keys_outside_the_grid():
    model = {(i, h): 1.0 for i in range(3) for h in range(3)}
    model[(7, 7)] = 0.0
    with pytest.raises(ConfigInvalid, match=r"\(7, 7\)"):
        generate_synthetic(tiny_config(error_model=model))


def test_custom_error_model_rejects_negative_means():
    model = {(i, h): 1.0 for i in range(3) for h in range(3)}
    model[(1, 2)] = -0.5
    with pytest.raises(ConfigInvalid):
        generate_synthetic(tiny_config(error_model=model))


FULL_MODEL = {(i, h): 1.0 for i in range(3) for h in range(3)}


@pytest.mark.parametrize("model, message", [
    ([1.0], "must be a mapping"),
    ({**FULL_MODEL, (7, 7): 0.0}, r"\(7, 7\)"),
    ({**FULL_MODEL, "0,0": 0.0}, "'0,0'"),
    ({(0, 0): 1.0}, "lacks entry for scenario 0, combo 1"),
    ({**FULL_MODEL, (1, 2): -0.5}, r"error_model\[1, 2\]"),
    ({**FULL_MODEL, (2, 0): "1.0"}, r"error_model\[2, 0\]"),
    ({**FULL_MODEL, (2, 1): True}, r"error_model\[2, 1\]"),
], ids=["list", "off-grid", "unparsed-key", "incomplete", "negative",
        "string", "bool"])
def test_validate_checks_the_error_model(model, message):
    # the config checks its own error model when built, so a config that
    # exists is one the generator can run
    with pytest.raises(ConfigInvalid, match=message):
        tiny_config(error_model=model)


@pytest.mark.parametrize("overrides", [
    {"mean_scale": float("nan")}, {"mean_scale": float("inf")},
    {"mean_scale": float("-inf")}, {"noise_sigma": float("inf")},
    {"error_model": {**FULL_MODEL, (0, 0): float("nan")}}],
    ids=["mean-scale-nan", "mean-scale-inf", "mean-scale-minus-inf",
         "noise-sigma-inf", "error-model-nan"])
def test_validate_rejects_non_finite_numbers(overrides):
    # a non-finite mean_scale or noise_sigma generates non-finite frames, and
    # a NaN error_model entry writes error=nan into the performance table
    with pytest.raises(ConfigInvalid, match="must be a finite number"):
        tiny_config(**overrides)


def test_config_cannot_be_changed_into_an_invalid_state():
    model = dict(FULL_MODEL)
    config = tiny_config(error_model=model)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_windows = 0
    with pytest.raises(TypeError):
        config.error_model[(0, 0)] = -1.0
    model[(0, 0)] = -1.0  # the config holds its own copy
    assert config.error_model[(0, 0)] == 1.0
    assert dataclasses.replace(config, seed=6).error_model == FULL_MODEL
    # a copy is rebuilt, and checked, from the fields
    assert copy.deepcopy(config) == config
    assert pickle.loads(pickle.dumps(config)) == config


@pytest.mark.parametrize("n_scenarios, message", [
    (16, "could not place 16 subspaces with pairwise separation 0.2 in "
         "dimension 2"),
    (6, "could not place 6 separated means in dimension 2")],
    ids=["subspaces", "means"])
def test_generator_reports_scenarios_it_cannot_place(n_scenarios, message):
    # in the plane, at most 15 lines are pairwise 0.2 rad apart (pi / 0.2),
    # and at most 3 unit vectors have pairwise |cos| <= 0.5
    config = SyntheticConfig(dim_ambient=2, dim_subspace=1,
                             n_scenarios=n_scenarios)
    with pytest.raises(ConfigInvalid) as exc:
        generate_synthetic(config)
    assert str(exc.value) == message


def test_custom_error_model_respected():
    model = {(i, h): float(1 + i + 10 * h) for i in range(3) for h in range(3)}
    dataset = generate_synthetic(tiny_config(error_model=model))
    for gen, cluster in dataset.scenario_map.items():
        i = int(gen[1:])
        for h in range(3):
            assert dataset.performance[cluster, f"c{h:02d}", "p1"] == \
                model[(i, h)]


# --------------------------------------------------------------------------
# evaluate_regret

def truth_grid():
    # 3 windows, 2 combos with known errors
    return [
        WindowTruth(0, "s000", {"c00": 1.0, "c01": 4.0}),
        WindowTruth(1, "s001", {"c00": 5.0, "c01": 2.0}),
        WindowTruth(2, "s000", {"c00": 3.0, "c01": 3.5}),
    ]


def test_oracle_trace_has_zero_regret():
    report = evaluate_regret(fake_trace(["c00", "c01", "c00"],
                                        ["s000", "s001", "s000"]),
                             truth_grid())
    assert report.selected_sum == report.oracle_sum == 6.0
    assert report.regret == 0.0
    assert report.scenario_match_accuracy == 1.0
    assert report.switch_count == 2


def test_worst_trace_regret_is_the_gap():
    report = evaluate_regret(fake_trace(["c01", "c00", "c01"]), truth_grid())
    assert report.selected_sum == 4.0 + 5.0 + 3.5
    assert report.oracle_sum == 6.0
    assert report.regret == 6.5
    # static sums: c00 = 9.0, c01 = 9.5 -> best static is c00
    assert report.static_sums == {"c00": 9.0, "c01": 9.5}
    assert report.best_static_id == "c00"
    assert [w.best_static_error for w in report.per_window] == [1.0, 5.0, 3.0]


def test_per_window_oracle_dominance():
    report = evaluate_regret(fake_trace(["c01", "c01", "c01"]), truth_grid())
    for w in report.per_window:
        assert w.oracle_error <= w.selected_error
    assert report.oracle_sum <= min(report.static_sums.values())


def test_six_of_29_windows_worse_than_oracle():
    # structural shape of the reference switching experiment: 29 windows,
    # the selector picks the suboptimal combo on exactly 6 of them
    bad_windows = {13, 14, 17, 24, 25, 27}
    truths = []
    choices = []
    for w in range(29):
        truths.append(WindowTruth(w, None, {"c00": 1.0, "c01": 3.0}))
        choices.append("c01" if w in bad_windows else "c00")
    report = evaluate_regret(fake_trace(choices), truths)
    worse = [w.window_id for w in report.per_window
             if w.selected_error > w.oracle_error]
    assert sorted(worse) == sorted(bad_windows)
    assert len(worse) == 6 and len(report.per_window) == 29


def test_empty_trace_gives_an_empty_report():
    assert evaluate_regret(fake_trace([]), []) == RegretReport(
        per_window=[], selected_sum=0.0, oracle_sum=0.0, static_sums={},
        best_static_id=None, switch_count=0, scenario_match_accuracy=None)


def test_misaligned_window_counts():
    with pytest.raises(Misaligned):
        evaluate_regret(fake_trace(["c00"]), truth_grid())


def test_misaligned_window_ids():
    truth = [WindowTruth(t.window_id + 1, t.true_scenario_id, t.errors)
             for t in truth_grid()]
    with pytest.raises(Misaligned, match="trace window 0 .* window 1"):
        evaluate_regret(fake_trace(["c00", "c01", "c00"]), truth)


def test_misaligned_combo_sets():
    truth = truth_grid()
    truth[1] = WindowTruth(1, "s001", {"c00": 5.0})
    with pytest.raises(Misaligned):
        evaluate_regret(fake_trace(["c00", "c00", "c00"]), truth)


def test_unknown_chosen_combo_is_misaligned():
    with pytest.raises(Misaligned):
        evaluate_regret(fake_trace(["c07", "c00", "c00"]), truth_grid())


def test_accuracy_none_without_truth_ids():
    truth = [WindowTruth(0, None, {"c00": 1.0}),
             WindowTruth(1, None, {"c00": 2.0})]
    report = evaluate_regret(fake_trace(["c00", "c00"]), truth)
    assert report.scenario_match_accuracy is None


# --------------------------------------------------------------------------
# regret report files

def test_empty_report_csv_is_header_only(tmp_path):
    report = RegretReport(per_window=[], selected_sum=0.0, oracle_sum=0.0,
                          static_sums={}, best_static_id=None, switch_count=0)
    write_report(tmp_path / "report.csv", report)
    assert (tmp_path / "report.csv").read_text() == \
        "window_id,selected_error,oracle_error,best_static_error\n"


def test_one_window_report_csv_two_lines(tmp_path):
    report = evaluate_regret(fake_trace(["c00"]),
                             [WindowTruth(0, None, {"c00": 1.25})])
    write_report(tmp_path / "report.csv", report)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "0,1.25,1.25,1.25"


def test_report_emit_bit_stable(tmp_path):
    report = evaluate_regret(fake_trace(["c01", "c00", "c01"]), truth_grid())
    write_report(tmp_path / "a.csv", report)
    write_report(tmp_path / "b.csv", report)
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == \
            (tmp_path / f"b{suffix}").read_bytes()


# --------------------------------------------------------------------------
# window truth CSV

def test_window_truth_round_trip(tmp_path):
    truths = truth_grid()
    path = tmp_path / "truth.csv"
    write_window_truth(path, truths)
    assert read_window_truth(path) == truths


def test_window_truth_without_scenario_ids(tmp_path):
    truths = [WindowTruth(0, None, {"c00": 0.5})]
    path = tmp_path / "truth.csv"
    write_window_truth(path, truths)
    assert read_window_truth(path) == truths


def test_window_truth_duplicate_pair_reports_both_lines(tmp_path):
    path = tmp_path / "truth.csv"
    write_window_truth(path, truth_grid())
    with open(path, "a") as fh:
        fh.write("0,c00,0.0,s000\n")
    with pytest.raises(DuplicateKey) as exc:
        read_window_truth(path)
    # header, then two rows per window: the pair first appeared on line 2
    assert f"{path}:8:" in str(exc.value)
    assert "first seen at line 2" in str(exc.value)


@pytest.mark.parametrize("second_id", ["s001", ""], ids=["other", "blank"])
def test_window_truth_rows_of_a_window_must_agree_on_its_scenario(
        tmp_path, second_id):
    path = tmp_path / "truth.csv"
    path.write_text("window_id,combo_id,error,true_scenario_id\n"
                    "0,c00,1.0,s000\n"
                    f"0,c01,2.0,{second_id}\n")
    with pytest.raises(Misaligned) as exc:
        read_window_truth(path)
    assert f"{path}:3:" in str(exc.value)
    assert "line 2" in str(exc.value)


def labeled_profile(dataset):
    """The design profile with one scenario per generating block.

    Each scenario is the mean and ``pca_basis`` of its own training block,
    named by ``scenario_map``, so no clustering step can merge or split
    blocks.
    """
    cfg = dataset.config
    labels = np.array(dataset.training_labels)
    scenarios = []
    for gen_id, sid in sorted(dataset.scenario_map.items(),
                              key=lambda item: item[1]):
        block = dataset.training_frames[labels == gen_id]
        scenarios.append(ScenarioProfile(
            scenario_id=sid, representative_feature=block.mean(axis=0),
            basis=pca_basis(block, cfg.dim_subspace),
            member_count=len(block)))
    label_scenarios(scenarios, rank_combos(dataset.platforms, dataset.combos,
                                           dataset.performance,
                                           OPEN.required_fps))
    return DesignProfile(
        scenarios=scenarios, selected_platform="p1",
        config=ProfileConfig(cfg.dim_ambient, cfg.dim_subspace,
                             cfg.frames_per_scenario))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decision_quality_sweep_over_mean_scale(seed):
    # scenario-match accuracy as the scenario means move apart, with
    # scenarios taken from the generating blocks; at mean_scale 0 to 2 the
    # kernel distance matches at or below chance, so only the trend and
    # the default-scale end point are asserted
    accuracy, regret = [], []
    for scale in [0.0, 0.5, 1.0, 2.0, 4.0]:
        dataset = generate_synthetic(SyntheticConfig(
            seed=seed, n_windows=100, mean_scale=scale))
        trace = run_selection(dataset.test_stream, labeled_profile(dataset),
                              "p1", dataset.config.frames_per_scenario)
        report = evaluate_regret(trace, dataset.window_truth)
        accuracy.append(report.scenario_match_accuracy)
        regret.append(report.regret)
    assert accuracy[-1] == 1.0 and regret[-1] == 0.0
    assert all(lo <= hi for lo, hi in zip(accuracy, accuracy[1:])), accuracy


STALL_SCALES = [4.0, 8.0, 16.0]


def stalled_accuracy(dataset, profile, distinct):
    """Match accuracy over the dataset's test stream when each window
    repeats its first ``distinct`` frames."""
    L, a = dataset.config.frames_per_scenario, dataset.config.dim_ambient
    windows = dataset.test_stream.reshape(-1, L, a)
    stalled = windows[:, np.arange(L) % distinct].reshape(-1, a)
    trace = run_selection(stalled, profile, "p1", L)
    return evaluate_regret(trace, dataset.window_truth).scenario_match_accuracy


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stalled_windows_over_mean_scale(seed):
    # windows of rank 2 or 4 (3 or 5 distinct frames) fall below the
    # subspace dimension, and the kernel distance misses many of them at
    # the default mean_scale; only the trends and the point it already
    # gets right are asserted
    accuracy = {3: [], 5: []}
    for scale in STALL_SCALES:
        dataset = generate_synthetic(SyntheticConfig(seed=seed,
                                                     mean_scale=scale))
        profile = labeled_profile(dataset)
        for distinct, curve in accuracy.items():
            curve.append(stalled_accuracy(dataset, profile, distinct))
    for curve in accuracy.values():
        assert all(lo <= hi for lo, hi in zip(curve, curve[1:])), accuracy
    assert all(a3 <= a5 for a3, a5 in zip(accuracy[3], accuracy[5])), accuracy
    assert accuracy[5][-1] == 1.0, accuracy


def shared_subspace(dataset):
    """``dataset`` with every frame redrawn inside one random subspace
    shared by all scenarios, around its scenario's own mean
    (``_separated_means`` at the dataset's mean_scale), so that only the
    means tell the scenarios apart; blocks, window states and truth stay."""
    cfg = dataset.config
    a, b, L = cfg.dim_ambient, cfg.dim_subspace, cfg.frames_per_scenario
    rng = np.random.default_rng(cfg.seed)
    basis = np.linalg.qr(rng.standard_normal((a, b)))[0]
    means = np.array(_separated_means(rng, a, cfg.n_scenarios,
                                      cfg.mean_scale))
    amps = np.linspace(1.2, 0.6, b)
    index = {sid: i for i, sid in enumerate(dataset.scenario_map.values())}

    def frames(states):
        n = len(states) * L
        return (np.repeat(means[states], L, axis=0)
                + (rng.standard_normal((n, b)) * amps) @ basis.T
                + cfg.noise_sigma * rng.standard_normal((n, a)))

    return dataclasses.replace(
        dataset, training_frames=frames(np.arange(cfg.n_scenarios)),
        test_stream=frames([index[t.true_scenario_id]
                            for t in dataset.window_truth]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_subspace_over_mean_scale(seed):
    # every scenario spans one subspace, so only the means tell them apart,
    # and the kernel distance misses many windows until the means are far
    # apart; only what it meets on every seed is asserted: no fall from
    # mean_scale 0.5 upward, and the widest point above the lowest one
    accuracy = []
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0]:
        dataset = shared_subspace(generate_synthetic(SyntheticConfig(
            seed=seed, n_windows=100, mean_scale=scale)))
        trace = run_selection(dataset.test_stream, labeled_profile(dataset),
                              "p1", dataset.config.frames_per_scenario)
        accuracy.append(evaluate_regret(
            trace, dataset.window_truth).scenario_match_accuracy)
    assert all(lo <= hi for lo, hi in zip(accuracy[1:], accuracy[2:])), \
        accuracy
    assert accuracy[-1] > min(accuracy), accuracy


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_out_of_distribution_windows_over_shift(seed):
    # each test window moves along the leading basis direction of its true
    # scenario, whose truth it keeps, as the benchmark's shifted windows do;
    # the kernel distance loses such windows within a few units, so only
    # what it meets on every seed is asserted: every window at shift 0, and
    # no rise as the shift grows
    dataset = generate_synthetic(SyntheticConfig(seed=seed, n_windows=100))
    profile = labeled_profile(dataset)
    L = dataset.config.frames_per_scenario
    lead = {s.scenario_id: s.basis[:, 0] for s in profile.scenarios}
    direction = np.repeat([lead[t.true_scenario_id]
                           for t in dataset.window_truth], L, axis=0)
    accuracy = []
    for shift in [0.0, 2.0, 4.0, 8.0, 16.0, 60.0]:
        trace = run_selection(dataset.test_stream + shift * direction,
                              profile, "p1", L)
        accuracy.append(evaluate_regret(
            trace, dataset.window_truth).scenario_match_accuracy)
    assert accuracy[0] == 1.0, accuracy
    assert all(lo >= hi for lo, hi in zip(accuracy, accuracy[1:])), accuracy
