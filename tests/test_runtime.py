import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasel import dataio
from adasel.design import DesignProfile, ProfileConfig, ScenarioProfile
from adasel.errors import (AdaselError, DegenerateWindow, DimensionMismatch,
                           EmptyStream, InvalidM, NonFiniteFeatures,
                           OutOfRange, TooFewFrames, UnlabeledScenario)
from adasel.gfk import gfk_kernel, stacked_distances
from adasel.harness import SyntheticConfig, generate_synthetic
from adasel.runtime import (TimeWindow, _stack_scenarios, build_window,
                            match_scenario, run_selection, segment_windows)
from adasel.subspace import SubspaceBasis, pca_basis, principal_angles
from conftest import design_for, random_subspace


def small_dataset(**overrides):
    defaults = dict(dim_ambient=16, dim_subspace=3, n_scenarios=3,
                    n_combos=3, frames_per_scenario=12, n_windows=20,
                    noise_sigma=0.1, seed=11)
    defaults.update(overrides)
    return generate_synthetic(SyntheticConfig(**defaults))


def default_dataset():
    """Default synth settings (a=64, b=5, seed 42) with 3 scenarios."""
    return generate_synthetic(SyntheticConfig(n_scenarios=3, n_windows=12))


# --------------------------------------------------------------------------
# segment_windows

def test_segment_exact_multiple(rng):
    windows = segment_windows(rng.standard_normal((90, 4)), 30)
    assert [w.shape[0] for w in windows] == [30, 30, 30]


def test_segment_small_remainder_merged(rng):
    windows = segment_windows(rng.standard_normal((95, 4)), 30)
    assert [w.shape[0] for w in windows] == [30, 30, 35]


def test_segment_large_remainder_kept(rng):
    windows = segment_windows(rng.standard_normal((50, 4)), 30)
    assert [w.shape[0] for w in windows] == [30, 20]


def test_segment_short_stream_single_window(rng):
    windows = segment_windows(rng.standard_normal((7, 4)), 30)
    assert [w.shape[0] for w in windows] == [7]


def test_segment_covers_every_frame_once(rng):
    for n in [10, 29, 30, 31, 44, 45, 59, 60, 100]:
        stream = rng.standard_normal((n, 3))
        windows = segment_windows(stream, 30)
        assert sum(w.shape[0] for w in windows) == n
        rebuilt = np.vstack(windows)
        assert np.array_equal(rebuilt, stream)
        assert all(np.shares_memory(w, stream) for w in windows)


def test_segment_empty_stream():
    with pytest.raises(EmptyStream):
        segment_windows(np.empty((0, 4)), 30)


def test_segment_rejects_tiny_window_length(rng):
    with pytest.raises(OutOfRange):
        segment_windows(rng.standard_normal((10, 4)), 1)


# --------------------------------------------------------------------------
# build_window

def test_build_window_constant_frames_degrades():
    # a constant window has no subspace left to degrade to, so build_window
    # raises instead of returning a window without one
    for frames, b in [(np.tile([1.0, 2.0, 3.0, 4.0], (10, 1)), 2),
                      (np.tile(np.arange(16.0), (12, 1)), 3)]:
        with pytest.raises(DegenerateWindow, match="zero variance"):
            build_window(frames, b)


def test_match_degenerate_window_raises():
    # identical frames whose mean does not round exactly: the centering
    # residue is rounding noise, not a 1-dim subspace, and the window is
    # refused before it can reach match_scenario
    frames = np.tile(default_dataset().test_stream[0], (20, 1))
    with pytest.raises(DegenerateWindow, match="zero variance"):
        build_window(frames, 5)


def test_build_window_partial_rank_falls_back(rng):
    # rank-1 variation, requested b=2
    direction = rng.standard_normal(6)
    frames = np.outer(rng.standard_normal(10), direction)
    w = build_window(frames, 2)
    assert w.degraded
    assert w.basis.shape == (6, 1)
    assert np.array_equal(w.basis, pca_basis(frames, 1))


def test_degraded_window_costs_one_svd(rng, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    frames = np.outer(rng.standard_normal(10), rng.standard_normal(6))
    frames += rng.standard_normal(6)
    w = build_window(frames, 3)
    assert w.degraded and w.basis.shape[1] == 1
    assert calls == [(10, 6)]


def test_window_repeating_five_frames_degrades_to_dim_4(rng):
    distinct = rng.standard_normal((5, 1288))
    w = build_window(np.resize(distinct, (30, 1288)), 20)
    assert w.degraded and w.basis.shape[1] == 4


def test_build_window_invariants(rng):
    frames = rng.standard_normal((30, 20))
    w = build_window(frames, 5)
    assert not w.degraded
    assert np.allclose(w.aggregated_feature, frames.mean(axis=0))
    assert w.basis.shape == (20, 5)
    assert np.abs(w.basis.T @ w.basis - np.eye(5)).max() <= 1e-10


def test_build_window_too_few_frames(rng):
    with pytest.raises(TooFewFrames):
        build_window(rng.standard_normal((5, 8)), 5)


@pytest.mark.parametrize("shape", [(10,), (10, 1)],
                         ids=["one-dimensional", "single-column"])
def test_build_window_rejects_frames_that_are_not_a_feature_matrix(
        rng, shape):
    with pytest.raises(DimensionMismatch, match="a >= 2"):
        build_window(rng.standard_normal(shape), 1)


# --------------------------------------------------------------------------
# match_scenario

def test_single_scenario_always_matches(rng):
    dataset = small_dataset(n_scenarios=1)
    profile = design_for(dataset)
    w = build_window(rng.standard_normal((12, 16)) * 50.0, 3)
    scenario, costs = match_scenario(w, profile)
    assert scenario is profile.scenarios[0] and costs.shape == (1,)


def test_window_of_scenario_members_matches_it(rng):
    dataset = small_dataset(noise_sigma=0.05)
    profile = design_for(dataset)
    reps = np.stack([s.representative_feature for s in profile.scenarios])
    # windows rebuilt from each scenario's own training frames
    per = dataset.config.frames_per_scenario
    for i in range(dataset.config.n_scenarios):
        frames = dataset.training_frames[i * per:(i + 1) * per]
        d2 = ((frames.mean(axis=0) - reps) ** 2).sum(axis=1)
        expected = profile.scenarios[int(d2.argmin())].scenario_id
        w = build_window(frames, 3)
        scenario, costs = match_scenario(w, profile)
        assert scenario.scenario_id == expected
        assert costs.min() < 1e-6


def test_match_monte_carlo_rate(rng):
    # 100 windows of noise-perturbed scenario-1 frames (sigma = 0.1 * signal)
    dataset = small_dataset(seed=29, noise_sigma=0.1)
    profile = design_for(dataset)
    cfg = dataset.config
    target_cluster = dataset.scenario_map["g001"]
    per = cfg.frames_per_scenario
    scenario_block = dataset.training_frames[per:2 * per]
    perturb = np.random.default_rng(cfg.seed + 1)
    matched = 0
    for _ in range(100):
        frames = scenario_block + \
            cfg.noise_sigma * perturb.standard_normal((per, cfg.dim_ambient))
        w = build_window(frames, cfg.dim_subspace)
        scenario, _ = match_scenario(w, profile)
        matched += scenario.scenario_id == target_cluster
    rate = matched / 100
    assert rate == 1.0  # frozen seeded rate; spec floor is 0.95
    assert rate >= 0.95


def test_match_tie_breaks_on_lowest_id(rng):
    dataset = small_dataset(n_scenarios=2)
    profile = design_for(dataset)
    # duplicate scenario content under two ids: costs tie bitwise
    dup = copy.deepcopy(profile)
    dup.scenarios[1].representative_feature = \
        dup.scenarios[0].representative_feature.copy()
    dup.scenarios[1].basis = dup.scenarios[0].basis
    per = dataset.config.frames_per_scenario
    w = build_window(dataset.test_stream[:per], dataset.config.dim_subspace)
    scenario, costs = match_scenario(w, dup)
    assert costs[0] == costs[1]
    assert scenario.scenario_id == "s000"


def test_match_scaling_leaves_argmax_unchanged(rng):
    dataset = small_dataset(n_windows=12)
    profile = design_for(dataset)
    per = dataset.config.frames_per_scenario
    windows = [build_window(dataset.test_stream[i * per:(i + 1) * per], 3)
               for i in range(12)]
    baseline = [match_scenario(w, profile)[0].scenario_id for w in windows]
    for c in [2.0, 0.5, 3.0]:
        scaled_profile = copy.deepcopy(profile)
        for s in scaled_profile.scenarios:
            s.representative_feature = c * s.representative_feature
        scaled_ids = []
        for w in windows:
            sw = copy.deepcopy(w)
            sw.aggregated_feature = c * sw.aggregated_feature
            scaled_ids.append(
                match_scenario(sw, scaled_profile)[0].scenario_id)
        assert scaled_ids == baseline


def test_match_degraded_window_still_compares(rng):
    dataset = small_dataset()
    profile = design_for(dataset)
    direction = rng.standard_normal(16)
    frames = profile.scenarios[0].representative_feature + \
        np.outer(np.linspace(-1, 1, 12), direction)
    w = build_window(frames, 3)
    assert w.degraded and w.basis.shape[1] == 1
    _, costs = match_scenario(w, profile)
    assert costs.shape == (3,)


def test_match_ranks_by_distance_beyond_exp_underflow():
    # each window's mean moved 60 units along its own leading direction:
    # every d is in the thousands, where every exp(-d) underflows to 0.0,
    # so only the distances themselves can tell the scenarios apart
    dataset = default_dataset()
    profile = design_for(dataset)
    per = dataset.config.frames_per_scenario
    for k in range(12):
        frames = dataset.test_stream[k * per:(k + 1) * per]
        shift = 60.0 * build_window(frames, 5).basis[:, 0]
        w = build_window(frames + shift, 5)
        z = SubspaceBasis(w.basis)
        d = []
        for s in profile.scenarios:
            x = SubspaceBasis(s.basis)
            W = gfk_kernel(principal_angles(x, z), x)
            delta = s.representative_feature - w.aggregated_feature
            d.append(delta @ W @ delta)
        scenario, costs = match_scenario(w, profile)
        assert min(d) > 745.0 and costs.min() > 745.0
        assert scenario is profile.scenarios[int(np.argmin(d))]
        assert scenario is profile.scenarios[int(np.argmin(costs))]


def test_trace_line_of_a_shifted_window_holds_its_costs(tmp_path):
    # the shifted windows above, run and traced: each line keeps the
    # distances, which exp(-d) would have written as all zeros
    dataset = default_dataset()
    profile = design_for(dataset)
    per = dataset.config.frames_per_scenario
    stream = dataset.test_stream.copy()
    for k in range(12):
        frames = stream[k * per:(k + 1) * per]
        frames += 60.0 * build_window(frames, 5).basis[:, 0]
    path = tmp_path / "trace.jsonl"
    dataio.write_trace(path, run_selection(stream, profile, "p1", per))
    ids = [s.scenario_id for s in profile.scenarios]
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 12
    for line in lines:
        record = json.loads(line)
        costs = np.array(record["costs"])
        assert np.isfinite(costs).all() and costs.min() > 745.0
        assert ids[int(costs.argmin())] == record["matched_scenario_id"]


@st.composite
def windows_and_profiles(draw):
    """A window of effective dimension k <= b and 1-4 scenarios of dim b.

    Each scenario's top k directions are random, span the window's
    subspace exactly, or span it perturbed by 1e-12 to 1e-4.  k < b is a
    degraded window.
    """
    a = draw(st.integers(4, 40))
    b = draw(st.integers(1, a // 2))
    k = draw(st.integers(1, b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = random_subspace(rng, a, k).basis
    scenarios = []
    for i, kind in enumerate(draw(st.lists(
            st.sampled_from(["random", "identical", "near"]),
            min_size=1, max_size=4))):
        if kind == "random":
            x = random_subspace(rng, a, b).basis
        else:
            eps = 0.0 if kind == "identical" else \
                10.0 ** draw(st.floats(-12.0, -4.0))
            top = z + eps * rng.standard_normal((a, k))
            x, _ = np.linalg.qr(np.hstack(
                [top, rng.standard_normal((a, b - k))]))
        scenarios.append(ScenarioProfile(
            scenario_id=f"s{i:03d}",
            representative_feature=10.0 * rng.standard_normal(a),
            basis=x, member_count=b + 1))
    profile = DesignProfile(scenarios=scenarios, selected_platform="p1",
                            config=ProfileConfig(a, b, b + 1))
    window = TimeWindow(aggregated_feature=rng.standard_normal(a),
                        basis=z, degraded=k < b)
    return window, profile


@settings(max_examples=300, deadline=None)
@given(windows_and_profiles())
def test_batched_distances_equal_dense_quadratic_form(case):
    window, profile = case
    z = SubspaceBasis(window.basis)
    k = z.dim_subspace
    bases, means = _stack_scenarios(profile)
    d = stacked_distances(bases[:, :, :k], means, z.basis,
                          window.aggregated_feature)
    for s, ds in zip(profile.scenarios, d):
        x = SubspaceBasis(s.basis[:, :k])
        W = gfk_kernel(principal_angles(x, z), x)
        delta = s.representative_feature - window.aggregated_feature
        assert abs(ds - delta @ W @ delta) <= 1e-12 * (delta @ delta)
    _, costs = match_scenario(window, profile)
    assert costs.tolist() == d.tolist()


def test_match_dimension_mismatch(rng):
    dataset = small_dataset()
    profile = design_for(dataset)
    w = build_window(rng.standard_normal((10, 8)), 3)
    with pytest.raises(DimensionMismatch):
        match_scenario(w, profile)


# --------------------------------------------------------------------------
# run_selection

def test_trace_switches_at_scenario_boundary(rng):
    dataset = small_dataset(noise_sigma=0.05)
    profile = design_for(dataset)
    per = dataset.config.frames_per_scenario
    # pick two scenarios whose labels differ on platform p1
    by_label = {}
    for s in profile.scenarios:
        by_label.setdefault(s.labels["p1"], s.scenario_id)
    assert len(by_label) >= 2
    ids = list(by_label.values())[:2]
    blocks = {}
    reps = {s.scenario_id: s.representative_feature
            for s in profile.scenarios}
    for i in range(dataset.config.n_scenarios):
        frames = dataset.training_frames[i * per:(i + 1) * per]
        d2 = {sid: ((frames.mean(axis=0) - rep) ** 2).sum()
              for sid, rep in reps.items()}
        blocks[min(d2, key=d2.get)] = frames
    stream = np.vstack([blocks[ids[0]], blocks[ids[1]]])
    trace = run_selection(stream, profile, "p1", per)
    combos = [d.chosen_combo_id for d in trace.decisions]
    assert len(combos) == 2 and combos[0] != combos[1]
    assert trace.switch_count() == 1


def test_trace_shape_for_29_windows(rng):
    dataset = small_dataset(n_windows=29, frames_per_scenario=10,
                            dim_subspace=3, dim_ambient=16)
    profile = design_for(dataset)
    trace = run_selection(dataset.test_stream, profile, "p1", 10)
    assert [d.window_id for d in trace.decisions] == list(range(29))
    assert all(d.elapsed_ms >= 0.0 for d in trace.decisions)


def test_trace_decisions_internally_consistent(rng):
    dataset = small_dataset(n_windows=15)
    profile = design_for(dataset)
    trace = run_selection(dataset.test_stream, profile, "p2",
                          dataset.config.frames_per_scenario)
    table = dataset.performance
    labels = {s.scenario_id: s.labels for s in profile.scenarios}
    ids = [s.scenario_id for s in profile.scenarios]
    for d in trace.decisions:
        assert d.costs[ids.index(d.matched_scenario_id)] == d.costs.min()
        assert d.chosen_combo_id == labels[d.matched_scenario_id]["p2"]
        # two-step consistency: chosen combo minimizes the table error
        errors = {c.id: table[(d.matched_scenario_id, c.id, "p2")]
                  for c in dataset.combos}
        assert errors[d.chosen_combo_id] == min(errors.values())


def test_run_selection_empty_profile(rng):
    dataset = small_dataset()
    profile = design_for(dataset)
    profile.scenarios = []
    with pytest.raises(InvalidM):
        run_selection(dataset.test_stream, profile, "p1", 12)


def test_run_selection_merges_remainder_too_short_for_a_subspace():
    # 110 frames in windows of 20 leave 10: at least length/2, but fewer
    # than the b + 1 = 13 frames a 12-dim window subspace needs
    dataset = small_dataset(dim_ambient=64, dim_subspace=12,
                            frames_per_scenario=20, n_windows=6)
    profile = design_for(dataset)
    stream = dataset.test_stream[:110]
    windows = segment_windows(stream, 20, min_frames=13)
    assert [w.shape[0] for w in windows] == [20] * 4 + [30]
    trace = run_selection(stream, profile, "p1", 20)
    assert [d.window_id for d in trace.decisions] == list(range(5))


def _non_finite(stream):
    stream = stream.copy()
    stream[29, 4] = np.nan   # window 2 holds frames 24-35
    stream[70, 0] = np.inf
    return stream


@pytest.mark.parametrize("edit, platform, error, window, reason", [
    pytest.param(_non_finite, "p1", NonFiniteFeatures, 2, "NaN or Inf",
                 id="non_finite_frame"),
    pytest.param(lambda s: np.vstack([s[:24], np.tile(np.arange(16.0),
                                                      (12, 1))]),
                 "p1", DegenerateWindow, 2, "zero variance",
                 id="zero_variance"),
    pytest.param(lambda s: s[:3], "p1", TooFewFrames, 0,
                 "3 frames; need at least 4", id="short_stream"),
    pytest.param(lambda s: s[:, :8], "p1", DimensionMismatch, 0,
                 "dimension 8 != profile dimension 16", id="wrong_width"),
    pytest.param(lambda s: s, "no-such-platform", UnlabeledScenario, 0,
                 "no label for platform no-such-platform", id="unlabeled"),
])
def test_run_selection_names_the_failing_window_once(edit, platform, error,
                                                     window, reason):
    dataset = small_dataset()
    profile = design_for(dataset)
    with pytest.raises(AdaselError) as exc:
        run_selection(edit(dataset.test_stream), profile, platform, 12)
    message = str(exc.value)
    assert type(exc.value) is error
    assert message.startswith(f"window {window}: ")
    assert message.count(f"window {window}") == 1
    assert reason in message


def test_run_selection_equals_matching_each_window_alone(rng):
    dataset = small_dataset(n_windows=6)
    profile = design_for(dataset)
    stream = dataset.test_stream.copy()
    stream[12:24] = np.resize(stream[12:14], (12, 16))   # rank 1 of 3
    stream[36:48] = np.resize(stream[36:39], (12, 16))   # rank 2 of 3
    trace = run_selection(stream, profile, "p1", 12)
    degraded = []
    for d in trace.decisions:
        w = build_window(stream[12 * d.window_id:12 * (d.window_id + 1)], 3)
        degraded.append(w.degraded)
        scenario, costs = match_scenario(w, profile)
        assert d.matched_scenario_id == scenario.scenario_id
        assert d.costs.tobytes() == costs.tobytes()
        assert d.chosen_combo_id == scenario.labels["p1"]
    assert degraded == [False, True, False, True, False, False]


