import json
import struct
import tracemalloc

import numpy as np
import pytest

from adasel import dataio
from adasel.design import (PerformanceRecord, SelectionConstraints,
                           build_design_profile)
from adasel.errors import (BadMagic, DimensionMismatch, DimensionOverflow,
                           DuplicateKey, MalformedRow, ManifestInvalid,
                           NegativeError, TruncatedPayload, UnsupportedVersion)
from adasel.harness import SyntheticConfig, generate_synthetic
from adasel.runtime import run_selection

OPEN = SelectionConstraints(max_mean_error=float("inf"), required_fps=0.0,
                            max_cost=float("inf"))


def pipeline_profile(tmp_path=None):
    dataset = generate_synthetic(SyntheticConfig(
        dim_ambient=12, dim_subspace=2, n_scenarios=2, n_combos=2,
        frames_per_scenario=8, n_windows=6, noise_sigma=0.05, seed=9))
    cfg = dataset.config
    profile = build_design_profile(
        dataset.training_frames, dataset.combos, dataset.platforms,
        dataset.performance, OPEN, n_scenarios=cfg.n_scenarios,
        subspace_dim=cfg.dim_subspace, window_length=cfg.frames_per_scenario,
        seed=cfg.seed)
    return dataset, profile


# --------------------------------------------------------------------------
# binary matrices

def test_matrix_round_trip(tmp_path):
    M = np.arange(12, dtype=np.float64).reshape(3, 4) * np.pi
    path = tmp_path / "m.mat"
    dataio.write_matrix(path, M)
    back = dataio.read_matrix(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, M)


def test_matrix_layout_is_exactly_specified(tmp_path):
    path = tmp_path / "m.mat"
    dataio.write_matrix(path, np.array([[1.5, -2.0]]))
    raw = path.read_bytes()
    assert raw[:8] == b"ADSLMAT1"
    assert struct.unpack("<QQ", raw[8:24]) == (1, 2)
    assert raw[24:] == struct.pack("<dd", 1.5, -2.0)


def test_matrix_bytes_independent_of_byte_order_and_layout(tmp_path):
    M = np.arange(12, dtype="<f8").reshape(3, 4) / 7.0
    dataio.write_matrix(tmp_path / "c.mat", M)
    expected = (tmp_path / "c.mat").read_bytes()
    for twin in (M.astype(">f8"), np.asfortranarray(M),
                 np.asfortranarray(M.astype(">f8"))):
        dataio.write_matrix(tmp_path / "twin.mat", twin)
        assert (tmp_path / "twin.mat").read_bytes() == expected
    assert np.array_equal(dataio.read_matrix(tmp_path / "c.mat"), M)


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "m.mat"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        dataio.read_matrix(path)


def test_matrix_truncated_payload(tmp_path):
    path = tmp_path / "m.mat"
    payload = b"\x00" * 799  # header claims 10x10 -> 800 bytes
    path.write_bytes(b"ADSLMAT1" + struct.pack("<QQ", 10, 10) + payload)
    with pytest.raises(TruncatedPayload):
        dataio.read_matrix(path)


def test_matrix_oversized_payload_rejected(tmp_path):
    path = tmp_path / "m.mat"
    path.write_bytes(b"ADSLMAT1" + struct.pack("<QQ", 2, 2) + b"\x00" * 40)
    with pytest.raises(TruncatedPayload):
        dataio.read_matrix(path)


def test_matrix_dimension_overflow(tmp_path):
    path = tmp_path / "m.mat"
    path.write_bytes(b"ADSLMAT1" + struct.pack("<QQ", 1 << 40, 1 << 40))
    with pytest.raises(DimensionOverflow):
        dataio.read_matrix(path)


def test_matrix_truncated_header(tmp_path):
    path = tmp_path / "m.mat"
    path.write_bytes(b"ADSLMAT1" + b"\x01\x02")
    with pytest.raises(TruncatedPayload):
        dataio.read_matrix(path)


# --------------------------------------------------------------------------
# feature stream manifests

def test_stream_round_trip_with_labels(tmp_path, rng):
    frames = rng.standard_normal((9, 5))
    labels = [f"g{i % 3}" for i in range(9)]
    path = tmp_path / "stream_manifest.json"
    dataio.write_stream(path, frames, source="unit test", labels=labels)
    stream = dataio.read_stream(path)
    assert np.array_equal(stream.frames, frames)
    assert stream.labels == labels
    assert stream.source == "unit test"


def test_stream_manifest_dim_mismatch(tmp_path, rng):
    path = tmp_path / "stream_manifest.json"
    dataio.write_stream(path, rng.standard_normal((4, 5)))
    doc = json.loads(path.read_text())
    doc["dim"] = 6
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid):
        dataio.read_stream(path)


def test_stream_manifest_frame_count_mismatch(tmp_path, rng):
    path = tmp_path / "stream_manifest.json"
    dataio.write_stream(path, rng.standard_normal((4, 5)))
    doc = json.loads(path.read_text())
    doc["frame_count"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid):
        dataio.read_stream(path)


def test_stream_manifest_future_version_rejected(tmp_path, rng):
    path = tmp_path / "stream_manifest.json"
    dataio.write_stream(path, rng.standard_normal((4, 5)))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        dataio.read_stream(path)


def test_stream_single_matrix_is_loaded_once(tmp_path, rng):
    frames = rng.standard_normal((500, 1000))
    path = tmp_path / "stream_manifest.json"
    dataio.write_stream(path, frames)
    tracemalloc.start()
    try:
        stream = dataio.read_stream(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(stream.frames, frames)
    assert peak < 1.25 * frames.nbytes


def test_stream_multi_part_manifest_concatenates(tmp_path, rng):
    frames = rng.standard_normal((7, 5))
    path = tmp_path / "stream_manifest.json"
    dataio.write_stream(path, frames, labels=[f"g{i}" for i in range(7)])
    dataio.write_matrix(tmp_path / "head.mat", frames[:3])
    dataio.write_matrix(tmp_path / "tail.mat", frames[3:])
    doc = json.loads(path.read_text())
    doc["matrices"] = ["head.mat", "tail.mat"]
    path.write_text(json.dumps(doc))
    stream = dataio.read_stream(path)
    assert np.array_equal(stream.frames, frames)
    assert stream.labels == [f"g{i}" for i in range(7)]


# --------------------------------------------------------------------------
# performance tables

def test_performance_table_round_trip(tmp_path):
    records = [
        PerformanceRecord("s000", "c00", "p1", 3.5),
        PerformanceRecord("s000", "c01", "p1", 1.25),
        PerformanceRecord("s001", "c00", "p1", 0.0),
    ]
    path = tmp_path / "perf.csv"
    dataio.write_performance_table(path, records)
    assert dataio.read_performance_table(path) == records


def test_performance_table_two_rows(tmp_path):
    path = tmp_path / "perf.csv"
    path.write_text("scenario_id,combo_id,platform_id,error\n"
                    "s0,c0,p0,1.5\n"
                    "s0,c1,p0,2.5\n")
    records = dataio.read_performance_table(path)
    assert len(records) == 2
    assert records[1].error == 2.5


def test_performance_table_extra_columns_must_be_numbers_and_are_not_kept(
        tmp_path):
    path = tmp_path / "perf.csv"
    path.write_text("scenario_id,combo_id,platform_id,error,MT,IDS\n"
                    "s0,c0,p0,1.5,0.8,4\n"
                    "s0,c1,p0,2.5,,\n")
    assert dataio.read_performance_table(path) == [
        PerformanceRecord("s0", "c0", "p0", 1.5),
        PerformanceRecord("s0", "c1", "p0", 2.5)]

    path.write_text("scenario_id,combo_id,platform_id,error,MT,IDS\n"
                    "s0,c0,p0,1.5,0.8,4\n"
                    "s0,c1,p0,2.5,0.7,many\n")
    with pytest.raises(MalformedRow) as exc:
        dataio.read_performance_table(path)
    assert str(exc.value) == f"{path}:3: bad IDS value 'many'"


def test_performance_table_duplicate_key_reports_both_lines(tmp_path):
    path = tmp_path / "perf.csv"
    path.write_text("scenario_id,combo_id,platform_id,error\n"
                    "s0,c0,p0,1.5\n"
                    "s0,c1,p0,2.0\n"
                    "s0,c0,p0,2.5\n")
    with pytest.raises(DuplicateKey) as exc:
        dataio.read_performance_table(path)
    assert "line 2" in str(exc.value) and ":4:" in str(exc.value)


def test_performance_table_negative_error(tmp_path):
    path = tmp_path / "perf.csv"
    path.write_text("scenario_id,combo_id,platform_id,error\ns0,c0,p0,-1\n")
    with pytest.raises(NegativeError):
        dataio.read_performance_table(path)


def test_performance_table_malformed_rows(tmp_path):
    path = tmp_path / "perf.csv"
    path.write_text("scenario_id,combo_id,platform_id,error\ns0,c0,p0\n")
    with pytest.raises(MalformedRow) as exc:
        dataio.read_performance_table(path)
    assert ":2:" in str(exc.value)

    path.write_text("scenario_id,combo_id,platform_id,error\ns0,c0,p0,abc\n")
    with pytest.raises(MalformedRow):
        dataio.read_performance_table(path)

    path.write_text("wrong,header,entirely,here\n")
    with pytest.raises(MalformedRow):
        dataio.read_performance_table(path)


# --------------------------------------------------------------------------
# design profiles

def test_profile_round_trip(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    back = dataio.read_profile(path)

    assert back.selected_platform == profile.selected_platform
    assert back.config == profile.config
    for s1, s2 in zip(profile.scenarios, back.scenarios):
        assert s1.scenario_id == s2.scenario_id
        assert s1.member_count == s2.member_count
        assert s1.labels == s2.labels
        assert np.array_equal(s1.representative_feature,
                              s2.representative_feature)
        assert np.array_equal(s1.subspace.basis, s2.subspace.basis)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["profile.json"] + [f"profile.{s.scenario_id}.basis.mat"
                            for s in profile.scenarios])


def test_profile_serialization_deterministic(tmp_path):
    _, profile = pipeline_profile()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1, p2 = tmp_path / "a" / "profile.json", tmp_path / "b" / "profile.json"
    dataio.write_profile(p1, profile)
    dataio.write_profile(p2, profile)
    assert p1.read_bytes() == p2.read_bytes()
    for s in profile.scenarios:
        name = f"profile.{s.scenario_id}.basis.mat"
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_profile_future_version_rejected(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["format_version"] = dataio.FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        dataio.read_profile(path)


def test_profile_holds_only_what_selection_reads(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    assert set(doc) == {"format_version", "config", "selected_platform",
                        "scenarios"}
    assert set(doc["config"]) == {"dim_ambient", "dim_subspace",
                                  "window_length"}


@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
def test_profile_older_versions_load_ignoring_unread_keys(tmp_path, version):
    # versions 1 and 2 also stored the design inputs (performance table,
    # catalog, seed, constraints), and version 1 named a complement sidecar
    # per scenario; the reader reads none of it and opens no such file
    dataset, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    dataio.write_platforms(tmp_path / "platforms.json", dataset.combos,
                           dataset.platforms)
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    doc["config"]["seed"] = dataset.config.seed
    doc["config"]["constraints"] = {
        "max_mean_error": OPEN.max_mean_error,
        "required_fps": OPEN.required_fps, "max_cost": OPEN.max_cost}
    catalog = json.loads((tmp_path / "platforms.json").read_text())
    doc["combos"], doc["platforms"] = catalog["combos"], catalog["platforms"]
    doc["performance"] = [
        {"scenario_id": r.scenario_id, "combo_id": r.combo_id,
         "platform_id": r.platform_id, "error": r.error, "extras": {}}
        for r in dataset.performance]
    if version == 1:
        for s in doc["scenarios"]:
            s["complement_file"] = f"profile.{s['scenario_id']}.complement.mat"
            assert not (tmp_path / s["complement_file"]).exists()
    path.write_text(json.dumps(doc))
    back = dataio.read_profile(path)
    for s1, s2 in zip(profile.scenarios, back.scenarios):
        assert np.array_equal(s1.subspace.basis, s2.subspace.basis)
    assert dataio.profile_digest(back) == dataio.profile_digest(profile)


def test_profile_rejects_basis_of_wrong_shape(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    sidecar = tmp_path / f"profile.{profile.scenarios[1].scenario_id}.basis.mat"
    dataio.write_matrix(sidecar, profile.scenarios[1].subspace.basis[:, :-1])
    with pytest.raises(DimensionMismatch, match=sidecar.name):
        dataio.read_profile(path)


def test_profile_rejects_representative_feature_of_wrong_length(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["scenarios"][1]["representative_feature"].pop()
    path.write_text(json.dumps(doc))
    scenario_id = profile.scenarios[1].scenario_id
    with pytest.raises(DimensionMismatch, match=f"scenario {scenario_id} "):
        dataio.read_profile(path)


def test_profile_digest_tracks_content(tmp_path):
    _, profile = pipeline_profile()
    d1 = dataio.profile_digest(profile)
    assert d1 == dataio.profile_digest(profile)
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    assert dataio.profile_digest(dataio.read_profile(path)) == d1
    profile.scenarios[0].labels["p1"] = "c01" \
        if profile.scenarios[0].labels["p1"] != "c01" else "c00"
    assert dataio.profile_digest(profile) != d1


def test_profile_digest_sees_one_ulp_of_a_representative_feature():
    _, profile = pipeline_profile()
    d1 = dataio.profile_digest(profile)
    feature = profile.scenarios[0].representative_feature
    feature[3] = np.nextafter(feature[3], np.inf)
    assert dataio.profile_digest(profile) != d1


# --------------------------------------------------------------------------
# platforms file

def test_platforms_round_trip(tmp_path):
    dataset, _ = pipeline_profile()
    path = tmp_path / "platforms.json"
    dataio.write_platforms(path, dataset.combos, dataset.platforms)
    combos, platforms = dataio.read_platforms(path)
    assert combos == dataset.combos
    assert platforms == dataset.platforms


@pytest.mark.parametrize("entry", ["combos", "platforms"])
def test_platforms_repeated_id_raises_duplicate_key(tmp_path, entry):
    dataset, _ = pipeline_profile()
    path = tmp_path / "platforms.json"
    dataio.write_platforms(path, dataset.combos, dataset.platforms)
    doc = json.loads(path.read_text())
    doc[entry][1]["id"] = doc[entry][0]["id"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DuplicateKey) as exc:
        dataio.read_platforms(path)
    assert str(exc.value) == (f"{path}: {entry}[0] and {entry}[1] have the "
                              f"same id {doc[entry][0]['id']!r}")


@pytest.mark.parametrize("reader, key", [
    (dataio.read_stream, "dim"),
    (dataio.read_profile, "config"),
    (dataio.read_platforms, "combos"),
])
def test_malformed_json_document_raises_manifest_invalid_naming_the_file(
        tmp_path, reader, key):
    path = tmp_path / "doc.json"
    for text, message in [
            ("[1, 2]", "expected a JSON object"),
            ("{not json", "not JSON"),
            ("", "not JSON"),
            ('{"format_version": 3}', f"missing key '{key}'")]:
        path.write_text(text)
        with pytest.raises(ManifestInvalid) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}: {message}")


def test_profile_scenario_without_a_key_raises_manifest_invalid(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    del doc["scenarios"][1]["basis_file"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == f"{path}: scenarios[1]: missing key 'basis_file'"


def test_platforms_combo_without_a_key_raises_manifest_invalid(tmp_path):
    dataset, _ = pipeline_profile()
    path = tmp_path / "platforms.json"
    dataio.write_platforms(path, dataset.combos, dataset.platforms)
    doc = json.loads(path.read_text())
    del doc["combos"][0]["algorithm"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_platforms(path)
    assert str(exc.value) == f"{path}: combos[0]: missing key 'algorithm'"


@pytest.mark.parametrize("entry, key, value, expected", [
    ("scenarios[0]", "labels", 5, "a JSON object"),
    ("scenarios[0]", "representative_feature", "abc", "a JSON list"),
    ("scenarios[1]", "representative_feature", ["abc"] * 5,
     "a list of numbers"),
    ("scenarios[1]", "representative_feature", [[0.0], [1.0, 2.0]],
     "a list of numbers"),
    ("scenarios[1]", "member_count", True, "an integer"),
    ("config", "dim_ambient", "4", "an integer"),
    ("config", "window_length", 3.0, "an integer"),
], ids=["labels", "feature-string", "feature-strings", "feature-ragged",
        "count-bool", "dim-string", "length-float"])
def test_profile_value_of_the_wrong_type_raises_manifest_invalid(
        tmp_path, entry, key, value, expected):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    name, _, index = entry.partition("[")
    target = doc[name][int(index[:-1])] if index else doc[name]
    target[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == f"{path}: {entry}: {key}: expected {expected}"


@pytest.mark.parametrize("entry, key, value, expected", [
    ("combos", "fps", "fast", "a number"),
    ("combos", "id", 7, "a string"),
    ("platforms", "cost", False, "a number"),
    ("platforms", "combo_capabilities", [], "a JSON object"),
])
def test_platforms_value_of_the_wrong_type_raises_manifest_invalid(
        tmp_path, entry, key, value, expected):
    dataset, _ = pipeline_profile()
    path = tmp_path / "platforms.json"
    dataio.write_platforms(path, dataset.combos, dataset.platforms)
    doc = json.loads(path.read_text())
    doc[entry][1][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_platforms(path)
    assert str(exc.value) == f"{path}: {entry}[1]: {key}: expected {expected}"


def test_stream_manifest_value_of_the_wrong_type_raises_manifest_invalid(
        tmp_path):
    path = tmp_path / "stream.json"
    dataio.write_stream(path, np.zeros((3, 2)))
    doc = json.loads(path.read_text())
    doc["frame_count"] = "3"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_stream(path)
    assert str(exc.value) == f"{path}: frame_count: expected an integer"


@pytest.mark.parametrize("key, value, element", [
    ("matrices", [5], "[0]"),
    ("frame_labels", ["g0", 1, "g2"], "[1]"),
], ids=["matrices", "frame-labels"])
def test_stream_manifest_element_of_the_wrong_type_raises_manifest_invalid(
        tmp_path, key, value, element):
    path = tmp_path / "stream.json"
    dataio.write_stream(path, np.zeros((3, 2)), labels=["g0", "g1", "g2"])
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_stream(path)
    assert str(exc.value) == f"{path}: {key}{element}: expected a string"


@pytest.mark.parametrize("entry, key, value, element, expected", [
    ("combos", "resolution", [320, "240"], "[1]", "an integer"),
    ("platforms", "combo_capabilities", {"c00": "fast"}, "['c00']",
     "a number"),
], ids=["resolution", "capabilities"])
def test_platforms_element_of_the_wrong_type_raises_manifest_invalid(
        tmp_path, entry, key, value, element, expected):
    dataset, _ = pipeline_profile()
    path = tmp_path / "platforms.json"
    dataio.write_platforms(path, dataset.combos, dataset.platforms)
    doc = json.loads(path.read_text())
    doc[entry][1][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_platforms(path)
    assert str(exc.value) == (
        f"{path}: {entry}[1]: {key}{element}: expected {expected}")


def test_profile_label_that_is_not_a_combo_id_raises_manifest_invalid(
        tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["scenarios"][0]["labels"]["p1"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (
        f"{path}: scenarios[0]: labels['p1']: expected a string")


def test_profile_without_scenarios_raises_manifest_invalid(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["scenarios"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == f"{path}: scenarios: expected at least one"


@pytest.mark.parametrize("reader, name", [
    (dataio.read_profile, "scenarios"),
    (dataio.read_platforms, "combos"),
])
def test_entry_list_that_is_not_a_list_raises_manifest_invalid(
        tmp_path, reader, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "format_version": 3, "scenarios": 5, "combos": 5, "platforms": [],
        "config": {"dim_ambient": 4, "dim_subspace": 1, "window_length": 3}}))
    with pytest.raises(ManifestInvalid) as exc:
        reader(path)
    assert str(exc.value) == f"{path}: {name}: expected a JSON list"


# --------------------------------------------------------------------------
# traces

def test_trace_round_trip(tmp_path):
    dataset, profile = pipeline_profile()
    trace = run_selection(dataset.test_stream, profile, "p1",
                          dataset.config.frames_per_scenario)
    path = tmp_path / "trace.jsonl"
    dataio.write_trace(path, trace)
    back = dataio.read_trace(path)
    assert back.profile_reference == trace.profile_reference
    assert len(back.decisions) == len(trace.decisions)
    for d1, d2 in zip(trace.decisions, back.decisions):
        assert d1.elapsed_ms == d2.elapsed_ms
        assert d1.window_id == d2.window_id
        assert d1.matched_scenario_id == d2.matched_scenario_id
        assert d1.similarity == d2.similarity
        assert d1.chosen_combo_id == d2.chosen_combo_id
        assert d1.platform_id == d2.platform_id
        assert np.array_equal(d1.all_similarities, d2.all_similarities)


def test_trace_bad_lines_raise_malformed_row_naming_the_line(tmp_path):
    dataset, profile = pipeline_profile()
    trace = run_selection(dataset.test_stream, profile, "p1",
                          dataset.config.frames_per_scenario)
    path = tmp_path / "trace.jsonl"
    dataio.write_trace(path, trace)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["profile_reference"]
    first = json.loads(lines[1])
    del first["elapsed_ms"]
    cases = [
        (0, json.dumps(header), ":1: missing field 'profile_reference'"),
        (1, json.dumps(first), ":2: missing field 'elapsed_ms'"),
        (2, "{not json", ":3: not JSON"),
        (2, "[1, 2]", ":3: expected a JSON object"),
    ]
    for index, replacement, message in cases:
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:index] + [replacement]
                                 + lines[index + 1:]) + "\n")
        with pytest.raises(MalformedRow) as exc:
            dataio.read_trace(bad)
        assert str(exc.value).startswith(f"{bad}{message}")


def test_trace_reference_matches_profile_digest(tmp_path):
    dataset, profile = pipeline_profile()
    trace = run_selection(dataset.test_stream, profile, "p1",
                          dataset.config.frames_per_scenario)
    assert trace.profile_reference == dataio.profile_digest(profile)


def test_trace_csv_projection(tmp_path):
    dataset, profile = pipeline_profile()
    trace = run_selection(dataset.test_stream, profile, "p1",
                          dataset.config.frames_per_scenario)
    path = tmp_path / "trace.csv"
    dataio.write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_id,combo_id,similarity"
    assert len(lines) == 1 + len(trace.decisions)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == trace.decisions[0].chosen_combo_id
    assert float(first[2]) == trace.decisions[0].similarity


def test_trace_future_version_rejected(tmp_path):
    dataset, profile = pipeline_profile()
    trace = run_selection(dataset.test_stream, profile, "p1",
                          dataset.config.frames_per_scenario)
    path = tmp_path / "trace.jsonl"
    dataio.write_trace(path, trace)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["format_version"] = dataio.FORMAT_VERSION + 1
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnsupportedVersion):
        dataio.read_trace(path)
