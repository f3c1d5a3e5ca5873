"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Golden files live in tests/golden/ and freeze the seeded
end-to-end results byte-for-byte.
"""

import copy
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from adasel import dataio
from adasel.design import (AlgoParamCombo, DesignProfile, PlatformSpec,
                           ProfileConfig, ScenarioProfile,
                           SelectionConstraints, build_design_profile,
                           feasible_combos, label_scenarios, select_platform)
from adasel.errors import BadMagic, DuplicateKey, TruncatedPayload
from adasel.gfk import gfk_kernel, kernel_integral_oracle, similarity
from adasel.harness import SyntheticConfig, evaluate_regret, generate_synthetic
from adasel.runtime import build_window, match_scenario, run_selection
from adasel.subspace import SubspaceBasis, principal_angles
from conftest import design_for, random_subspace, runtime_distance

GOLDEN = Path(__file__).parent / "golden"

DIMENSION_GRID = [(10, 2), (10, 5), (20, 2), (20, 5), (20, 10),
                  (50, 2), (50, 5), (50, 10)]


def _pass(n, text):
    print(f"\n[acceptance] criterion {n} PASS: {text}")


# --------------------------------------------------------------------------
# 1. closed-form kernel equals the brute-force flow integral

def test_criterion_1_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        a, b = DIMENSION_GRID[trial % len(DIMENSION_GRID)]
        x = random_subspace(rng, a, b)
        z = random_subspace(rng, a, b)
        dec = principal_angles(x, z)
        W = gfk_kernel(dec, x)
        Wo = kernel_integral_oracle(dec, x, steps=100_000)
        rel = np.linalg.norm(W - Wo) / np.linalg.norm(W)
        worst = max(worst, rel)
        assert rel <= 1e-8, f"pair {trial} (a={a}, b={b}): rel error {rel}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"oracle comparison took {elapsed:.1f}s"
    _pass(1, f"50 pairs, worst relative Frobenius error {worst:.3e}, "
             f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. analytic planar kernel

def test_criterion_2_planar_analytic():
    worst = 0.0
    for alpha in [0.1, 0.7, np.pi / 2]:
        x = np.array([[1.0], [0.0]])
        z = np.array([[np.cos(alpha)], [np.sin(alpha)]])
        sx, sz = SubspaceBasis(x), SubspaceBasis(z)
        W = gfk_kernel(principal_angles(sx, sz), sx)
        off = (1.0 - np.cos(2 * alpha)) / (4 * alpha)
        analytic = np.array([
            [0.5 + np.sin(2 * alpha) / (4 * alpha), off],
            [off, 0.5 - np.sin(2 * alpha) / (4 * alpha)]])
        err = np.abs(W - analytic).max()
        worst = max(worst, err)
        assert err < 1e-12, f"alpha={alpha}: max entry error {err}"
    _pass(2, f"alpha in {{0.1, 0.7, pi/2}}, worst entry error {worst:.3e}")


# --------------------------------------------------------------------------
# 3. PSD and metric properties, >= 1000 random cases

def test_criterion_3_psd_and_metric_properties():
    rng = np.random.default_rng(303)
    cases = 0
    while cases < 1000:
        a = int(rng.integers(6, 17))
        b = int(rng.integers(1, a // 2 + 1))
        x = random_subspace(rng, a, b)
        z = random_subspace(rng, a, b)
        W = gfk_kernel(principal_angles(x, z), x)
        assert np.abs(W - W.T).max() < 1e-10
        eigs = np.linalg.eigvalsh(W)
        assert eigs.min() >= -1e-8 * (np.trace(W) / a)
        assert np.sum(eigs > 1e-9) <= 2 * b
        t = rng.standard_normal(a)
        r = rng.standard_normal(a)
        d = runtime_distance(t, r, x, z)
        assert d >= 0.0
        s = similarity(d)
        assert 0.0 < s <= 1.0
        # under identical subspaces: zero distance iff equal features
        assert runtime_distance(t, t, x, x) == 0.0
        assert runtime_distance(t, r, x, x) > 0.0
        cases += 1
    _pass(3, f"{cases} random cases: W symmetric PSD (rank <= 2b), "
             "distances nonnegative, similarity in (0, 1]")


# --------------------------------------------------------------------------
# 4. invariances

def test_criterion_4_invariance_suite():
    rng = np.random.default_rng(404)
    # basis-rotation invariance (angles distinct almost surely)
    worst_rot = 0.0
    for _ in range(20):
        a, b = 14, 4
        x, z = random_subspace(rng, a, b), random_subspace(rng, a, b)
        q, _ = np.linalg.qr(rng.standard_normal((b, b)))
        xq = SubspaceBasis(x.basis @ q)
        W1 = gfk_kernel(principal_angles(x, z), x)
        W2 = gfk_kernel(principal_angles(xq, z), xq)
        worst_rot = max(worst_rot, np.linalg.norm(W1 - W2))
        assert worst_rot < 1e-9
    # direction symmetry
    worst_sym = 0.0
    for _ in range(20):
        x, z = random_subspace(rng, 16, 4), random_subspace(rng, 16, 4)
        Wf = gfk_kernel(principal_angles(x, z), x)
        Wr = gfk_kernel(principal_angles(z, x), z)
        worst_sym = max(worst_sym, np.linalg.norm(Wf - Wr))
        assert worst_sym < 1e-8
    # argmax invariance of match_scenario under uniform positive scaling
    dataset = generate_synthetic(SyntheticConfig(
        dim_ambient=16, dim_subspace=3, n_scenarios=4, n_combos=3,
        frames_per_scenario=12, n_windows=12, noise_sigma=0.1, seed=17))
    profile = design_for(dataset)
    per = dataset.config.frames_per_scenario
    windows = [build_window(dataset.test_stream[i * per:(i + 1) * per], 3)
               for i in range(12)]
    baseline = [match_scenario(w, profile)[0].scenario_id for w in windows]
    for c in [2.0, 0.5, 3.0]:
        scaled = copy.deepcopy(profile)
        for s in scaled.scenarios:
            s.representative_feature = c * s.representative_feature
        for w, expect in zip(windows, baseline):
            sw = copy.deepcopy(w)
            sw.aggregated_feature = c * sw.aggregated_feature
            assert match_scenario(sw, scaled)[0].scenario_id == expect
    _pass(4, f"rotation invariance {worst_rot:.2e} (<1e-9), direction "
             f"symmetry {worst_sym:.2e} (<1e-8), scaling argmax exact for "
             "c in {2, 0.5, 3}")


# --------------------------------------------------------------------------
# 5. two-step cost function vs brute-force enumeration

def _random_instance(rng):
    a = 12
    b = 2
    M = int(rng.integers(1, 7))
    H = int(rng.integers(2, 7))
    combos = [AlgoParamCombo(f"c{h:02d}") for h in range(H)]
    platforms = []
    for pid in ["p1", "p2"]:
        caps = {c.id: float(rng.choice([5.0, 15.0])) for c in combos}
        caps[combos[int(rng.integers(H))].id] = 15.0  # keep one feasible
        platforms.append(PlatformSpec(pid, caps, cost=1.0))
    scenarios = []
    for i in range(M):
        scenarios.append(ScenarioProfile(
            scenario_id=f"s{i:03d}",
            representative_feature=rng.standard_normal(a) * 3.0,
            basis=random_subspace(rng, a, b).basis,
            member_count=b + 3))
    performance = {(s.scenario_id, c.id, p.id):
                   float(np.round(rng.uniform(0, 10), 3))
                   for s in scenarios for c in combos for p in platforms}
    label_scenarios(scenarios, combos, platforms, performance, 10.0)
    profile = DesignProfile(
        scenarios=scenarios, selected_platform="p1",
        config=ProfileConfig(dim_ambient=a, dim_subspace=b,
                             window_length=b + 3))
    origin = int(rng.integers(M))
    frames = (scenarios[origin].representative_feature
              + rng.standard_normal((b + 3, b))
              @ scenarios[origin].basis.T
              + 0.05 * rng.standard_normal((b + 3, a)))
    window = build_window(frames, b)
    return profile, window, (combos, platforms, performance)


def _brute_force_two_step(profile, window, platform_id, design_inputs):
    combos, platforms, performance = design_inputs
    # step 1: independent composition of the primitives, explicit argmax
    sims = []
    for s in profile.scenarios:
        x = SubspaceBasis(s.basis)
        W = gfk_kernel(principal_angles(x, SubspaceBasis(window.basis)), x)
        delta = s.representative_feature - window.aggregated_feature
        sims.append(similarity(max(float(delta @ W @ delta), 0.0)))
    order = sorted(range(len(sims)),
                   key=lambda i: (-sims[i], profile.scenarios[i].scenario_id))
    matched = profile.scenarios[order[0]].scenario_id
    # step 2: explicit scan of the performance table over feasible combos
    platform = next(p for p in platforms if p.id == platform_id)
    feas = feasible_combos(platform, combos, 10.0)
    best = min(feas, key=lambda cid: (performance[matched, cid, platform_id],
                                      -platform.combo_capabilities[cid], cid))
    return matched, best


def test_criterion_5_two_step_matches_brute_force():
    rng = np.random.default_rng(505)
    agree = 0
    for trial in range(500):
        profile, window, design_inputs = _random_instance(rng)
        platform_id = ["p1", "p2"][trial % 2]
        matched, sims = match_scenario(window, profile)
        chosen = matched.labels[platform_id]
        bf_matched, bf_chosen = _brute_force_two_step(
            profile, window, platform_id, design_inputs)
        assert matched.scenario_id == bf_matched, \
            f"trial {trial}: scenario mismatch"
        assert chosen == bf_chosen, f"trial {trial}: combo mismatch"
        agree += 1
    _pass(5, f"{agree}/500 trials agree with brute-force enumeration "
             "of both steps")


# --------------------------------------------------------------------------
# 6. end-to-end synthetic switching with golden regression

def test_criterion_6_end_to_end_synthetic(tmp_path):
    t0 = time.perf_counter()
    config = SyntheticConfig()  # a=64, b=5, M=5, sigma=0.1, 200 windows
    dataset = generate_synthetic(config)
    profile = build_design_profile(
        dataset.training_frames, dataset.combos, dataset.platforms,
        dataset.performance,
        SelectionConstraints(max_mean_error=float("inf"), required_fps=1.0,
                             max_cost=float("inf")),
        n_scenarios=config.n_scenarios, subspace_dim=config.dim_subspace,
        window_length=config.frames_per_scenario, seed=config.seed)
    trace = run_selection(dataset.test_stream, profile,
                          profile.selected_platform,
                          config.frames_per_scenario)
    report = evaluate_regret(trace, dataset.window_truth)

    assert report.scenario_match_accuracy >= 0.95
    best_static_total = min(report.static_sums.values())
    assert report.selected_sum <= best_static_total
    assert report.regret <= 0.10 * report.oracle_sum

    dataio.write_report(tmp_path / "report.csv", report)
    for name in ("report.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / f"acceptance_{name}").read_bytes()

    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    _pass(6, f"accuracy {report.scenario_match_accuracy:.3f} (>=0.95), "
             f"selected {report.selected_sum:.1f} <= best static "
             f"{best_static_total:.1f}, regret {report.regret:.1f} <= "
             f"{0.10 * report.oracle_sum:.1f}, golden files byte-identical, "
             f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 7. platform selection under Table-II-shaped capabilities

def test_criterion_7_platform_selection():
    combos = [
        AlgoParamCombo("HOG-240x320"),
        AlgoParamCombo("HOG-480x640"),
        AlgoParamCombo("ACF-240x320"),
        AlgoParamCombo("ACF-480x640"),
    ]
    platforms = [
        PlatformSpec("platform1", {"HOG-240x320": 15.0, "HOG-480x640": 8.0,
                                   "ACF-240x320": 10.0, "ACF-480x640": 5.0},
                     cost=1.0),
        PlatformSpec("platform2", {"HOG-240x320": 30.0, "HOG-480x640": 15.0,
                                   "ACF-240x320": 20.0, "ACF-480x640": 10.0},
                     cost=3.0),
    ]
    rng = np.random.default_rng(707)
    scenario_ids = [f"s{k:03d}" for k in range(15)]
    records = {}
    for k, sid in enumerate(scenario_ids):
        # high-resolution ACF wins in most scenarios (structurally Fig. 3b)
        base = {"HOG-240x320": 6.0, "HOG-480x640": 5.5,
                "ACF-240x320": 5.0, "ACF-480x640": 1.0}
        if k >= 12:
            base["ACF-240x320"] = 0.8
        for p in platforms:
            for cid, err in base.items():
                records[sid, cid, p.id] = err + float(rng.uniform(0, 0.1))

    loose = SelectionConstraints(max_mean_error=6.0, required_fps=10.0,
                                 max_cost=10.0)
    strict = SelectionConstraints(max_mean_error=2.0, required_fps=10.0,
                                  max_cost=10.0)
    assert select_platform(platforms, records, loose, combos) == "platform1"
    assert select_platform(platforms, records, strict, combos) == "platform2"

    # labels under platform2 concentrate on the high-resolution combo
    scenarios = [ScenarioProfile(sid, rng.standard_normal(8),
                                 random_subspace(rng, 8, 2).basis, 5)
                 for sid in scenario_ids]
    label_scenarios(scenarios, combos, platforms, records,
                    strict.required_fps)
    p2_labels = [s.labels["platform2"] for s in scenarios]
    high_res = sum(1 for lab in p2_labels if lab == "ACF-480x640")
    assert high_res >= 12
    assert all(lab != "ACF-480x640" for lab in
               (s.labels["platform1"] for s in scenarios))
    _pass(7, f"loose constraint -> platform1 (cheaper), strict -> platform2; "
             f"{high_res}/15 platform2 labels on ACF-480x640")


# --------------------------------------------------------------------------
# 8. per-window matching latency at full scale

def test_criterion_8_latency():
    rng = np.random.default_rng(808)
    a, b, M = 1288, 20, 15
    scenarios = []
    for i in range(M):
        q, _ = np.linalg.qr(rng.standard_normal((a, b)))
        scenarios.append(ScenarioProfile(
            scenario_id=f"s{i:03d}",
            representative_feature=rng.standard_normal(a),
            basis=q,
            member_count=40))
    profile = DesignProfile(scenarios=scenarios, selected_platform="p1",
                            config=ProfileConfig(a, b, 30))
    window = build_window(rng.standard_normal((30, a)), b)
    # small warm-up so BLAS thread pools do not count against the window
    small = generate_synthetic(SyntheticConfig(
        dim_ambient=16, dim_subspace=3, n_scenarios=2, n_combos=2,
        frames_per_scenario=8, n_windows=1, noise_sigma=0.1, seed=1))
    warm_profile = design_for(small)
    match_scenario(build_window(small.test_stream[:8], 3), warm_profile)

    t0 = time.perf_counter()
    match_scenario(window, profile)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"window match took {elapsed:.3f}s"
    _pass(8, f"one window match at a=1288, b=20, M=15 took "
             f"{elapsed * 1000:.0f} ms (< 1000 ms)")


# --------------------------------------------------------------------------
# 9. format round-trips and malformed inputs

def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(909)
    # matrix
    M = rng.standard_normal((4, 7))
    dataio.write_matrix(tmp_path / "m.mat", M)
    assert np.array_equal(dataio.read_matrix(tmp_path / "m.mat"), M)
    # manifest
    frames = rng.standard_normal((6, 5))
    dataio.write_stream(tmp_path / "s.json", frames, labels=["g0"] * 6)
    stream = dataio.read_stream(tmp_path / "s.json")
    assert np.array_equal(stream.frames, frames)
    assert stream.labels == ["g0"] * 6
    # profile and trace through the real pipeline
    dataset = generate_synthetic(SyntheticConfig(
        dim_ambient=12, dim_subspace=2, n_scenarios=2, n_combos=2,
        frames_per_scenario=8, n_windows=4, noise_sigma=0.05, seed=2))
    profile = design_for(dataset)
    dataio.write_profile(tmp_path / "p.json", profile)
    back = dataio.read_profile(tmp_path / "p.json")
    assert dataio.profile_digest(back) == dataio.profile_digest(profile)
    trace = run_selection(dataset.test_stream, profile, "p1", 8)
    dataio.write_trace(tmp_path / "t.jsonl", trace)
    back_trace = dataio.read_trace(tmp_path / "t.jsonl")
    assert [d.elapsed_ms for d in back_trace.decisions] == \
        [d.elapsed_ms for d in trace.decisions]
    assert [d.chosen_combo_id for d in back_trace.decisions] == \
        [d.chosen_combo_id for d in trace.decisions]
    # malformed inputs
    (tmp_path / "bad.mat").write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        dataio.read_matrix(tmp_path / "bad.mat")
    (tmp_path / "short.mat").write_bytes(
        b"ADSLMAT1" + struct.pack("<QQ", 10, 10) + b"\x00" * 799)
    with pytest.raises(TruncatedPayload):
        dataio.read_matrix(tmp_path / "short.mat")
    (tmp_path / "dup.csv").write_text(
        "scenario_id,combo_id,platform_id,error\n"
        "s0,c0,p0,1.0\ns0,c0,p0,2.0\n")
    with pytest.raises(DuplicateKey):
        dataio.read_performance_table(tmp_path / "dup.csv")
    _pass(9, "matrix/manifest/profile/trace round-trip; BadMagic, "
             "TruncatedPayload, DuplicateKey all raised")
