import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adasel
from adasel import dataio
from adasel.cli import main

GOLDEN = Path(__file__).parent / "golden"

SMALL_CONFIG = {
    "dim_ambient": 16, "dim_subspace": 3, "n_scenarios": 3, "n_combos": 3,
    "frames_per_scenario": 10, "n_windows": 12, "noise_sigma": 0.05,
    "seed": 13,
}


def write_config(tmp_path, **overrides):
    cfg = dict(SMALL_CONFIG, **overrides)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return path


def run_pipeline(tmp_path, out_name="run"):
    out = tmp_path / out_name
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert main([
        "profile",
        "--train", str(out / "train_manifest.json"),
        "--perf", str(out / "performance.csv"),
        "--platforms", str(out / "platforms.json"),
        "--subspace-dim", "3",
        "--max-error", "3.5", "--required-fps", "1.0", "--max-cost", "10.0",
        "--window-length", "10",
        "--out", str(out / "profile.json"),
    ]) == 0
    assert main([
        "select",
        "--profile", str(out / "profile.json"),
        "--stream", str(out / "test_manifest.json"),
        "--out", str(out / "trace.jsonl"),
    ]) == 0
    assert main([
        "eval",
        "--trace", str(out / "trace.jsonl"),
        "--truth", str(out / "window_truth.csv"),
        "--out", str(out / "report.csv"),
    ]) == 0
    return out


def test_full_pipeline_produces_all_artifacts(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    for name in ["train_manifest.json", "train_manifest.mat",
                 "test_manifest.json", "test_manifest.mat",
                 "performance.csv", "window_truth.csv", "platforms.json",
                 "profile.json", "trace.jsonl", "trace.csv",
                 "report.csv", "report.json"]:
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "selected platform: p1" in printed
    assert "windows" in printed and "switches" in printed
    assert "oracle total" in printed


def test_pipeline_is_byte_deterministic(tmp_path):
    out1 = run_pipeline(tmp_path / "first")
    out2 = run_pipeline(tmp_path / "second")
    for name in ["train_manifest.json", "train_manifest.mat",
                 "performance.csv", "window_truth.csv", "platforms.json",
                 "profile.json", "trace.csv", "report.csv", "report.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # trace.jsonl differs only in wall-clock timings; decisions must match
    def strip_timing(path):
        lines = path.read_text().splitlines()
        keep = [lines[0]]
        for line in lines[1:]:
            rec = json.loads(line)
            rec.pop("elapsed_ms")
            keep.append(json.dumps(rec, sort_keys=True))
        return keep
    assert strip_timing(out1 / "trace.jsonl") == \
        strip_timing(out2 / "trace.jsonl")


def test_synth_without_config_uses_defaults(tmp_path, capsys):
    out = tmp_path / "default"
    assert main(["synth", "--out-dir", str(out)]) == 0
    assert "200 test windows" in capsys.readouterr().out


def test_profile_empty_performance_table_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    header = (out / "performance.csv").read_text().splitlines()[0]
    (out / "empty.csv").write_text(header + "\n")
    rc = main([
        "profile",
        "--train", str(out / "train_manifest.json"),
        "--perf", str(out / "empty.csv"),
        "--platforms", str(out / "platforms.json"),
        "--subspace-dim", "3",
        "--max-error", "3.5", "--required-fps", "1.0", "--max-cost", "10.0",
        "--out", str(out / "p.json"),
    ])
    assert rc == 1
    assert "MissingRecord: performance table has no records" in (
        capsys.readouterr().err)


def test_profile_infeasible_constraints_exit_2(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    rc = main([
        "profile",
        "--train", str(out / "train_manifest.json"),
        "--perf", str(out / "performance.csv"),
        "--platforms", str(out / "platforms.json"),
        "--subspace-dim", "3",
        "--max-error", "0.0001", "--required-fps", "1.0", "--max-cost", "10.0",
        "--out", str(out / "p3.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    _, platforms = dataio.read_platforms(out / "platforms.json")
    # each platform's cost and best mean error are printed exactly once
    for p in platforms:
        assert err.count(f"{p.id}: cost={p.cost}") == 1
    assert err.count("best mean error=") == len(platforms)


@pytest.mark.parametrize("flag, field", [
    ("--max-error", "max_mean_error"), ("--required-fps", "required_fps"),
    ("--max-cost", "max_cost")], ids=["max-error", "required-fps", "max-cost"])
def test_profile_nan_constraint_exits_1_naming_the_field(
        tmp_path, capsys, flag, field):
    # every comparison with NaN is false, so a NaN limit read as "no
    # platform meets ..." (exit 2); it is bad input, and exits 1
    out = tmp_path / "run"
    assert main(["synth", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(out)]) == 0
    limits = {"--max-error": "3.5", "--required-fps": "1.0",
              "--max-cost": "10.0", flag: "nan"}
    capsys.readouterr()
    rc = main([
        "profile",
        "--train", str(out / "train_manifest.json"),
        "--perf", str(out / "performance.csv"),
        "--platforms", str(out / "platforms.json"),
        "--subspace-dim", "3",
        *[arg for pair in limits.items() for arg in pair],
        "--out", str(out / "profile.json"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: OutOfRange: {field} must be a number, got nan\n")


def test_select_dimension_mismatch_exits_1(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    other = tmp_path / "other"
    cfg = write_config(tmp_path, dim_ambient=20)
    (tmp_path / "synth.json").write_text(cfg.read_text())
    assert main(["synth", "--config", str(cfg),
                 "--out-dir", str(other)]) == 0
    rc = main([
        "select",
        "--profile", str(out / "profile.json"),
        "--stream", str(other / "test_manifest.json"),
        "--out", str(out / "bad_trace.jsonl"),
    ])
    assert rc == 1
    assert "DimensionMismatch" in capsys.readouterr().err


def test_select_on_an_empty_stream_exits_1(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    capsys.readouterr()
    dataio.write_stream(out / "empty_manifest.json",
                        np.empty((0, SMALL_CONFIG["dim_ambient"])))
    rc = main([
        "select",
        "--profile", str(out / "profile.json"),
        "--stream", str(out / "empty_manifest.json"),
        "--out", str(out / "empty_trace.jsonl"),
    ])
    assert rc == 1
    assert "EmptyStream" in capsys.readouterr().err


def test_eval_misaligned_exits_1(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    truth = (out / "window_truth.csv").read_text().splitlines()
    (out / "short_truth.csv").write_text("\n".join(truth[:5]) + "\n")
    rc = main([
        "eval",
        "--trace", str(out / "trace.jsonl"),
        "--truth", str(out / "short_truth.csv"),
        "--out", str(out / "r2.csv"),
    ])
    assert rc == 1
    assert "Misaligned" in capsys.readouterr().err


@pytest.mark.parametrize("command, inputs, name", [
    ("profile", {"--train": "train_manifest.json",
                 "--perf": "performance.csv",
                 "--platforms": "platforms.json"}, "profile.json"),
    ("select", {"--profile": "profile.json",
                "--stream": "test_manifest.json"}, "trace.jsonl"),
    ("eval", {"--trace": "trace.jsonl",
              "--truth": "window_truth.csv"}, "report.csv"),
], ids=["profile", "select", "eval"])
def test_command_writes_into_a_new_nested_directory(tmp_path, command,
                                                    inputs, name):
    out = run_pipeline(tmp_path)
    target = tmp_path / "new" / "nested" / name
    argv = [command, "--out", str(target)]
    for flag, file in inputs.items():
        argv += [flag, str(out / file)]
    if command == "profile":
        argv += ["--subspace-dim", "3", "--max-error", "3.5",
                 "--required-fps", "1.0", "--max-cost", "10.0",
                 "--window-length", "10"]
    assert main(argv) == 0
    assert target.exists()
    if command != "select":  # a trace holds wall times
        assert target.read_bytes() == (out / name).read_bytes()


def test_synth_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, frames_per_scenario=2)
    rc = main(["synth", "--config", str(cfg),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert "ConfigInvalid" in capsys.readouterr().err

    cfg2 = tmp_path / "bad_keys.json"
    cfg2.write_text(json.dumps({"not_a_field": 1}))
    rc = main(["synth", "--config", str(cfg2),
               "--out-dir", str(tmp_path / "y")])
    assert rc == 1


def test_synth_config_naming_a_fixed_setting_exits_1(tmp_path, capsys):
    for name in ["min_separation", "stay_prob", "error_noise"]:
        cfg = write_config(tmp_path, **{name: 0.5})
        rc = main(["synth", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"ConfigInvalid: {cfg}: unknown config keys" in err
        assert name in err


def test_synth_config_bad_error_model_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, error_model={"1": 2.0})
    rc = main(["synth", "--config", str(cfg),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert f"error: ConfigInvalid: {cfg}: error_model key '1'" in \
        capsys.readouterr().err


def test_synth_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    for text in ["[]", json.dumps(dict(SMALL_CONFIG, error_model=[1]))]:
        cfg = tmp_path / "synth.json"
        cfg.write_text(text)
        rc = main(["synth", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "error: ConfigInvalid: " in capsys.readouterr().err


def test_synth_config_that_is_not_json_exits_1_naming_the_file(
        tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text("{not json")
    rc = main(["synth", "--config", str(cfg),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert (f"error: ConfigInvalid: {cfg}: not JSON"
            in capsys.readouterr().err)


def test_synth_config_string_dimension_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, dim_ambient="16")
    rc = main(["synth", "--config", str(cfg),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert (f"error: ConfigInvalid: {cfg}: dim_ambient"
            in capsys.readouterr().err)


@pytest.mark.parametrize("doc", [
    {"dim_ambient": "16"}, {"error_model": {"1": 2.0}},
    {"error_model": {"0,0": 1.0}}],
    ids=["string-dimension", "bad-error-model-key", "incomplete-error-model"])
def test_synth_config_errors_name_the_file(tmp_path, capsys, doc):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["synth", "--config", str(cfg),
               "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    assert f"error: ConfigInvalid: {cfg}: " in capsys.readouterr().err


def test_select_and_eval_take_no_seed(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    for argv in (["select", "--profile", str(out / "profile.json"),
                  "--stream", str(out / "test_manifest.json"),
                  "--out", str(out / "t2.jsonl")],
                 ["eval", "--trace", str(out / "trace.jsonl"),
                  "--truth", str(out / "window_truth.csv"),
                  "--out", str(out / "r2.csv")]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--out-dir", "out"],
    ["profile", "--train", "t.json", "--perf", "p.csv", "--platforms",
     "p.json", "--max-error", "1", "--required-fps", "1", "--max-cost", "1",
     "--out", "profile.json"]], ids=["synth", "profile"])
def test_synth_and_profile_take_no_seed(capsys, argv):
    # synth's seed is its config's, and profile clusters with a fixed seed
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_eval_malformed_trace_exits_1_naming_the_line(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    lines = (out / "trace.jsonl").read_text().splitlines()
    first = json.loads(lines[1])
    del first["elapsed_ms"]
    bad = out / "bad_trace.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(first)] + lines[2:]))
    rc = main(["eval", "--trace", str(bad),
               "--truth", str(out / "window_truth.csv"),
               "--out", str(out / "r2.csv")])
    assert rc == 1
    assert (f"error: MalformedRow: {bad}:2: missing key 'elapsed_ms'"
            in capsys.readouterr().err)


def test_eval_verbose_logs_a_debug_line(tmp_path):
    out = run_pipeline(tmp_path)
    src = str(Path(adasel.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "adasel.cli", "eval", "--verbose",
         "--trace", str(out / "trace.jsonl"),
         "--truth", str(out / "window_truth.csv"),
         "--out", str(out / "r2.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0
    assert "DEBUG adasel: 12 trace windows, 12 ground-truth windows" in \
        result.stderr


def test_profile_verbose_logs_one_clustering_line(tmp_path, caplog):
    out = run_pipeline(tmp_path)
    profile = ["profile",
               "--train", str(out / "train_manifest.json"),
               "--perf", str(out / "performance.csv"),
               "--platforms", str(out / "platforms.json"),
               "--subspace-dim", "3", "--max-error", "3.5",
               "--required-fps", "1.0", "--max-cost", "10.0",
               "--window-length", "10", "--out", str(out / "p2.json")]
    # without --verbose the command prints nothing to stderr
    src = str(Path(adasel.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    quiet = subprocess.run([sys.executable, "-m", "adasel.cli"] + profile,
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert quiet.returncode == 0 and quiet.stderr == ""
    with caplog.at_level(logging.DEBUG, logger="adasel"):
        assert main(profile + ["--verbose"]) == 0
    lines = [r for r in caplog.records if r.name == "adasel.design"]
    assert len(lines) == 1
    steps, best, sse = lines[0].args[:3]
    assert len(steps) == adasel.design.KMEANS_RESTARTS
    assert all(1 <= s <= adasel.design.KMEANS_MAX_ITER for s in steps)
    assert 0 <= best < len(steps) and sse >= 0.0
    assert lines[0].getMessage().startswith(
        "clustering: Lloyd steps per restart [")


def test_console_script_help():
    # the child imports the same adasel as this process, installed or not
    src = str(Path(adasel.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "adasel.cli", "--help"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "synth" in result.stdout and "profile" in result.stdout
    assert "select" in result.stdout and "eval" in result.stdout


def test_profile_with_table_ii_platforms_strict_bound(tmp_path, capsys):
    # Table-II-shaped capability file; ACF-480x640 dominates but only
    # platform2 can run it at the required fps, so a strict error bound
    # forces platform2 and concentrates its labels on the high-res combo
    import numpy as np
    from adasel import dataio
    from adasel.design import AlgoParamCombo, PlatformSpec

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
    dataio.write_platforms(tmp_path / "platforms.json", combos, platforms)

    rng = np.random.default_rng(4)
    frames = np.vstack([mu + 0.3 * rng.standard_normal((8, 6))
                        for mu in (np.full(6, 0.0), np.full(6, 15.0),
                                   np.full(6, -15.0))])
    dataio.write_stream(tmp_path / "train.json", frames)
    rows = ["scenario_id,combo_id,platform_id,error"]
    for sid in ("s000", "s001", "s002"):
        for pid in ("platform1", "platform2"):
            for cid, err in [("HOG-240x320", 6.0), ("HOG-480x640", 5.5),
                             ("ACF-240x320", 5.0), ("ACF-480x640", 1.0)]:
                rows.append(f"{sid},{cid},{pid},{err}")
    (tmp_path / "perf.csv").write_text("\n".join(rows) + "\n")

    assert main([
        "profile",
        "--train", str(tmp_path / "train.json"),
        "--perf", str(tmp_path / "perf.csv"),
        "--platforms", str(tmp_path / "platforms.json"),
        "--subspace-dim", "2",
        "--max-error", "2.0", "--required-fps", "10.0", "--max-cost", "10.0",
        "--out", str(tmp_path / "profile.json"),
    ]) == 0
    printed = capsys.readouterr().out
    assert "selected platform: platform2" in printed
    assert printed.count("platform2->ACF-480x640") == 3


def test_cli_end_to_end_matches_golden_report(tmp_path):
    # the default-config synthetic pipeline, driven entirely through the CLI,
    # must reproduce the stored golden report byte-for-byte
    out = tmp_path / "golden_run"
    assert main(["synth", "--out-dir", str(out)]) == 0
    assert main([
        "profile",
        "--train", str(out / "train_manifest.json"),
        "--perf", str(out / "performance.csv"),
        "--platforms", str(out / "platforms.json"),
        "--subspace-dim", "5",
        "--max-error", "3.0", "--required-fps", "1.0", "--max-cost", "10.0",
        "--window-length", "40",
        "--out", str(out / "profile.json"),
    ]) == 0
    assert main([
        "select",
        "--profile", str(out / "profile.json"),
        "--stream", str(out / "test_manifest.json"),
        "--out", str(out / "trace.jsonl"),
    ]) == 0
    assert main([
        "eval",
        "--trace", str(out / "trace.jsonl"),
        "--truth", str(out / "window_truth.csv"),
        "--out", str(out / "report.csv"),
    ]) == 0
    assert (out / "report.csv").read_bytes() == \
        (GOLDEN / "acceptance_report.csv").read_bytes()
    assert (out / "report.json").read_bytes() == \
        (GOLDEN / "acceptance_report.json").read_bytes()


def test_trace_switch_count_printed_for_two_block_stream(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    capsys.readouterr()
    assert main([
        "select",
        "--profile", str(out / "profile.json"),
        "--stream", str(out / "test_manifest.json"),
        "--out", str(out / "t2.jsonl"),
    ]) == 0
    printed = capsys.readouterr().out
    assert "12 windows" in printed


def test_select_with_explicit_platform(tmp_path):
    out = run_pipeline(tmp_path)
    assert main([
        "select",
        "--profile", str(out / "profile.json"),
        "--stream", str(out / "test_manifest.json"),
        "--platform", "p2",
        "--out", str(out / "p2_trace.jsonl"),
    ]) == 0
    line = (out / "p2_trace.jsonl").read_text().splitlines()[1]
    assert json.loads(line)["platform_id"] == "p2"


def test_profile_window_shorter_than_subspace_exits_1(tmp_path, capsys):
    out = run_pipeline(tmp_path)
    rc = main([
        "profile",
        "--train", str(out / "train_manifest.json"),
        "--perf", str(out / "performance.csv"),
        "--platforms", str(out / "platforms.json"),
        "--subspace-dim", "5", "--window-length", "4",
        "--max-error", "3.5", "--required-fps", "1.0", "--max-cost", "10.0",
        "--out", str(out / "short.json"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "TooFewFrames: window_length 4" in err
    assert "subspace_dim 5" in err
    assert not (out / "short.json").exists()


@pytest.mark.parametrize("flag", ["--profile", "--train", "--platforms"])
def test_json_input_that_is_not_an_object_exits_1_naming_the_file(
        tmp_path, capsys, flag):
    out = run_pipeline(tmp_path)
    bad = out / "bad.json"
    bad.write_text("[1, 2]\n")
    if flag == "--profile":
        argv = ["select", "--profile", str(bad),
                "--stream", str(out / "test_manifest.json"),
                "--out", str(out / "t2.jsonl")]
    else:
        inputs = {"--train": out / "train_manifest.json",
                  "--platforms": out / "platforms.json", flag: bad}
        argv = ["profile", "--train", str(inputs["--train"]),
                "--perf", str(out / "performance.csv"),
                "--platforms", str(inputs["--platforms"]),
                "--subspace-dim", "3",
                "--max-error", "3.5", "--required-fps", "1.0",
                "--max-cost", "10.0", "--out", str(out / "p2.json")]
    capsys.readouterr()
    assert main(argv) == 1
    assert (f"error: ManifestInvalid: {bad}: expected a JSON object"
            in capsys.readouterr().err)


def test_profile_config_without_a_key_exits_1_naming_the_file(
        tmp_path, capsys):
    out = run_pipeline(tmp_path)
    bad = out / "bad.json"
    bad.write_text(json.dumps({"format_version": 3, "config": {},
                               "selected_platform": "p1", "scenarios": []}))
    capsys.readouterr()
    assert main(["select", "--profile", str(bad),
                 "--stream", str(out / "test_manifest.json"),
                 "--out", str(out / "t2.jsonl")]) == 1
    assert (f"error: ManifestInvalid: {bad}: config: missing key "
            "'dim_ambient'" in capsys.readouterr().err)


@pytest.mark.parametrize("edit, reason", [
    (lambda doc: doc.update(selected_platform=["p1", "p2"]),
     "selected_platform: expected a string"),
    (lambda doc: doc["config"].update(window_length=1),
     "config: window_length 1 is too short for subspace_dim 3"),
    (lambda doc: doc["config"].update(window_length=3),
     "config: window_length 3 is too short for subspace_dim 3"),
], ids=["platform-list", "length-1", "length-3"])
def test_select_with_a_hand_edited_profile_exits_1_naming_the_key(
        tmp_path, capsys, edit, reason):
    out = run_pipeline(tmp_path)
    path = out / "profile.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["select", "--profile", str(path),
                 "--stream", str(out / "test_manifest.json"),
                 "--out", str(out / "t2.jsonl")]) == 1
    assert (f"error: ManifestInvalid: {path}: {reason}"
            in capsys.readouterr().err)
