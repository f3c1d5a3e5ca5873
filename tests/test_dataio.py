import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

from adasel import dataio
from adasel.errors import (BadMagic, ConfigInvalid, DimensionMismatch,
                           DimensionOverflow, DuplicateKey, MalformedRow,
                           ManifestInvalid, NegativeError, NonFiniteFeatures,
                           NotOrthonormal, TruncatedPayload,
                           UnsupportedVersion)
from adasel.harness import SyntheticConfig, generate_synthetic
from adasel.runtime import run_selection
from conftest import OPEN, design_for


def pipeline_profile(tmp_path=None):
    dataset = generate_synthetic(SyntheticConfig(
        dim_ambient=12, dim_subspace=2, n_scenarios=2, n_combos=2,
        frames_per_scenario=8, n_windows=6, noise_sigma=0.05, seed=9))
    return dataset, design_for(dataset)


# --------------------------------------------------------------------------
# binary matrices

def test_matrix_round_trip(tmp_path):
    M = np.arange(12, dtype=np.float64).reshape(3, 4) * np.pi
    path = tmp_path / "m.mat"
    dataio.write_matrix(path, M)
    back = dataio.read_matrix(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, M)


@pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
def test_matrix_with_a_zero_dimension_round_trips(tmp_path, shape):
    path = tmp_path / "m.mat"
    dataio.write_matrix(path, np.empty(shape))
    assert path.stat().st_size == 24
    assert dataio.read_matrix(path).shape == shape


def test_empty_stream_round_trips(tmp_path):
    path = tmp_path / "stream_manifest.json"
    dataio.write_stream(path, np.empty((0, 5)))
    assert dataio.read_stream(path).frames.shape == (0, 5)


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


def test_stream_part_of_the_wrong_width_raises_manifest_invalid_naming_it(
        tmp_path, rng):
    path = tmp_path / "m.json"
    dataio.write_stream(path, rng.standard_normal((7, 5)))
    dataio.write_matrix(tmp_path / "b.mat", rng.standard_normal((4, 6)))
    doc = json.loads(path.read_text())
    doc["matrices"] = ["m.mat", "b.mat"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_stream(path)
    assert str(exc.value) == (
        f"{path}: b.mat has 6 columns, manifest declares dim=5")


# --------------------------------------------------------------------------
# performance tables

def test_performance_table_round_trip(tmp_path):
    table = {("s000", "c00", "p1"): 3.5, ("s000", "c01", "p1"): 1.25,
             ("s001", "c00", "p1"): 0.0}
    path = tmp_path / "perf.csv"
    dataio.write_performance_table(path, table)
    back = dataio.read_performance_table(path)
    assert back == table and list(back) == list(table)


def test_performance_table_two_rows(tmp_path):
    path = tmp_path / "perf.csv"
    path.write_text("scenario_id,combo_id,platform_id,error\n"
                    "s0,c0,p0,1.5\n"
                    "s0,c1,p0,2.5\n")
    table = dataio.read_performance_table(path)
    assert len(table) == 2
    assert table["s0", "c1", "p0"] == 2.5


def test_performance_table_extra_columns_must_be_numbers_and_are_not_kept(
        tmp_path):
    path = tmp_path / "perf.csv"
    path.write_text("scenario_id,combo_id,platform_id,error,MT,IDS\n"
                    "s0,c0,p0,1.5,0.8,4\n"
                    "s0,c1,p0,2.5,,\n")
    assert dataio.read_performance_table(path) == {
        ("s0", "c0", "p0"): 1.5, ("s0", "c1", "p0"): 2.5}

    path.write_text("scenario_id,combo_id,platform_id,error,MT,IDS\n"
                    "s0,c0,p0,1.5,0.8,4\n"
                    "s0,c1,p0,2.5,0.7,many\n")
    with pytest.raises(MalformedRow) as exc:
        dataio.read_performance_table(path)
    assert str(exc.value) == f"{path}:3: bad IDS value 'many'"

    # float() reads both as numbers (25.0 and 3.0); a number cell is ASCII
    # with no underscore
    for cell in ["2_5", "\u0663"]:
        path.write_text("scenario_id,combo_id,platform_id,error,MT\n"
                        f"s0,c0,p0,1.5,{cell}\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as exc:
            dataio.read_performance_table(path)
        assert str(exc.value) == f"{path}:2: bad MT value {cell!r}"


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


TRUTH = "window_id,combo_id,error,true_scenario_id\n"
TRUTH3 = "window_id,combo_id,error\n"
PERF = "scenario_id,combo_id,platform_id,error\n"


@pytest.mark.parametrize("table, text, error, message", [
    ("window_truth", TRUTH + "0,c00,1.0\n", MalformedRow,
     "2: expected 4 columns, got 3"),
    ("window_truth", TRUTH3 + "0,c00,1.0,s000\n", MalformedRow,
     "2: expected 3 columns, got 4"),
    ("window_truth", TRUTH3 + "0,,1.0\n", MalformedRow, "2: empty id field"),
    ("window_truth", TRUTH3 + "0,c00,-1.0\n", NegativeError,
     "2: error must be >= 0, got -1.0"),
    ("window_truth", TRUTH3 + "0,c00,nan\n", MalformedRow,
     "2: bad error value 'nan'"),
    ("window_truth", TRUTH3 + "0,c00,inf\n", MalformedRow,
     "2: bad error value 'inf'"),
    ("performance_table", PERF + "s000,c00,p1,nan\ns000,c01,p1,2.0\n",
     MalformedRow, "2: bad error value 'nan'"),
    ("performance_table", PERF + "s000,c00,p1,inf\n", MalformedRow,
     "2: bad error value 'inf'"),
    ("window_truth", TRUTH3 + "0,c00,1.0\n00,c00,2.0\n", DuplicateKey,
     "3: duplicate window_id/combo_id (0, 'c00') (first seen at line 2)"),
    ("performance_table", PERF + "s0,c0,p0,1_0\n", MalformedRow,
     "2: bad error value '1_0'"),
    ("window_truth", TRUTH3 + "0,c0,1_0\n", MalformedRow,
     "2: bad error value '1_0'"),
    ("window_truth", TRUTH3 + "0,c0,\u0663\n", MalformedRow,
     "2: bad error value '\u0663'"),
], ids=["truth-short-row", "truth-extra-cell", "truth-empty-combo",
        "truth-negative", "truth-nan", "truth-inf", "perf-nan", "perf-inf",
        "truth-0-and-00", "perf-underscore", "truth-underscore",
        "truth-arabic-indic"])
def test_both_csv_tables_follow_one_set_of_row_rules(
        tmp_path, table, text, error, message):
    # a row has the header's width, non-empty ids, a finite error >= 0 and
    # a key no other row has, in the performance table and the window truth
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as exc:
        getattr(dataio, f"read_{table}")(path)
    assert str(exc.value) == f"{path}:{message}"


@pytest.mark.parametrize("cell", ["1_0", "+3", "-1", "\u0663"],
                         ids=["underscore", "plus", "minus", "arabic-indic"])
def test_window_truth_ids_are_plain_digits(tmp_path, cell):
    # int() reads each of these as a window (10, 3, -1, 3), so a typo could
    # land on a real window; an id is ASCII digits or the row is malformed
    path = tmp_path / "truth.csv"
    path.write_text(TRUTH3 + f"{cell},c00,1.0\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as exc:
        dataio.read_window_truth(path)
    assert str(exc.value) == f"{path}:2: bad window_id value {cell!r}"


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
        assert np.array_equal(s1.basis, s2.basis)


def test_profile_writes_the_json_and_only_the_sidecars_its_scenarios_name(
        tmp_path):
    # each scenario's arrays are one sidecar named by its *_file key, so the
    # json plus those M files is the whole profile (perfbench sizes it that
    # way)
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    for s in doc["scenarios"]:
        assert set(s) == {"scenario_id", "member_count", "labels",
                          "matrix_file"}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["profile.json"] + [v for s in doc["scenarios"]
                            for k, v in s.items() if k.endswith("_file")])
    assert len(list(tmp_path.iterdir())) == 1 + len(profile.scenarios)


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_rewriting_a_profile_removes_the_version_4_sidecars_it_named(
        tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    expected = _names(tmp_path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 4
    for s, entry in zip(profile.scenarios, doc["scenarios"]):
        del entry["matrix_file"]
        for kind in ("basis", "feature"):
            entry[f"{kind}_file"] = f"profile.{s.scenario_id}.{kind}.mat"
            dataio.write_matrix(tmp_path / entry[f"{kind}_file"], s.basis)
    path.write_text(json.dumps(doc))
    dataio.write_profile(path, profile)
    assert _names(tmp_path) == expected


def test_rewriting_a_profile_removes_a_dropped_scenarios_sidecar(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    kept, _ = profile.scenarios
    dataio.write_profile(path, dataclasses.replace(profile, scenarios=[kept]))
    assert _names(tmp_path) == ["profile.json",
                                f"profile.{kept.scenario_id}.mat"]
    assert len(dataio.read_profile(path).scenarios) == 1


def test_rewriting_a_profile_keeps_the_files_it_did_not_name(tmp_path):
    # an unrelated sidecar, a name with a directory part, and any file
    # beside an old profile that does not parse are left alone
    _, profile = pipeline_profile()
    path = tmp_path / "run" / "profile.json"
    path.parent.mkdir()
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["scenarios"][0]["matrix_file"] = "../x.mat"
    path.write_text(json.dumps(doc))
    for name in ["x.mat", "run/other.mat"]:
        dataio.write_matrix(tmp_path / name, profile.scenarios[0].basis)
    dataio.write_profile(path, profile)
    assert (tmp_path / "x.mat").is_file()
    assert (tmp_path / "run" / "other.mat").is_file()

    stale = path.parent / "profile.old.mat"
    dataio.write_matrix(stale, profile.scenarios[0].basis)
    doc = json.loads(path.read_text())
    doc["scenarios"][0]["matrix_file"] = stale.name
    path.write_text(json.dumps(doc)[:-1])  # cut the closing brace
    dataio.write_profile(path, profile)
    assert stale.is_file()


def test_read_profile_reads_one_matrix_per_scenario(tmp_path, monkeypatch):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    calls = []
    read_matrix = dataio.read_matrix
    monkeypatch.setattr(dataio, "read_matrix",
                        lambda p: calls.append(p) or read_matrix(p))
    dataio.read_profile(path)
    assert calls == [tmp_path / f"profile.{s.scenario_id}.mat"
                     for s in profile.scenarios]


def test_profile_serialization_deterministic(tmp_path):
    _, profile = pipeline_profile()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1, p2 = tmp_path / "a" / "profile.json", tmp_path / "b" / "profile.json"
    dataio.write_profile(p1, profile)
    dataio.write_profile(p2, profile)
    assert p1.read_bytes() == p2.read_bytes()
    for s in profile.scenarios:
        name = f"profile.{s.scenario_id}.mat"
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
    # per scenario; the reader reads none of it, opens no such file, and
    # refuses only a newer stamp.  Their features were inline, which is
    # refused as in the version 3 test below, so the document edited here
    # keeps the sidecars just written
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
        {"scenario_id": sid, "combo_id": cid, "platform_id": pid,
         "error": error, "extras": {}}
        for (sid, cid, pid), error in dataset.performance.items()]
    if version == 1:
        for s in doc["scenarios"]:
            s["complement_file"] = f"profile.{s['scenario_id']}.complement.mat"
            assert not (tmp_path / s["complement_file"]).exists()
    path.write_text(json.dumps(doc))
    back = dataio.read_profile(path)
    for s1, s2 in zip(profile.scenarios, back.scenarios):
        assert np.array_equal(s1.basis, s2.basis)
    assert dataio.profile_digest(back) == dataio.profile_digest(profile)


def test_profile_version_3_with_inline_features_raises_manifest_invalid(
        tmp_path):
    # version 3 held each representative feature inline and had no
    # feature_file; such a profile is not read, and is written anew
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["format_version"] = 3
    for s, entry in zip(profile.scenarios, doc["scenarios"]):
        entry["basis_file"] = entry.pop("matrix_file")
        entry["representative_feature"] = s.representative_feature.tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (
        f"{path}: scenarios[0]: missing key 'matrix_file'")


def test_profile_version_4_with_a_sidecar_per_array_raises_manifest_invalid(
        tmp_path):
    # version 4 kept each scenario's basis and its 1 x a representative
    # feature in two sidecars, basis_file and feature_file; such a profile is
    # not read, and is written anew
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["format_version"] = 4
    for s, entry in zip(profile.scenarios, doc["scenarios"]):
        del entry["matrix_file"]
        for kind, matrix in [("basis", s.basis),
                             ("feature", [s.representative_feature])]:
            name = f"profile.{s.scenario_id}.{kind}.mat"
            entry[f"{kind}_file"] = name
            dataio.write_matrix(tmp_path / name, matrix)
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (
        f"{path}: scenarios[0]: missing key 'matrix_file'")


def test_profile_rejects_basis_of_wrong_shape(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    s = profile.scenarios[1]
    sidecar = tmp_path / f"profile.{s.scenario_id}.mat"
    dataio.write_matrix(sidecar, np.column_stack(
        (s.basis[:, :-1], s.representative_feature)))
    with pytest.raises(DimensionMismatch, match=sidecar.name):
        dataio.read_profile(path)


def test_profile_rejects_non_orthonormal_basis_naming_the_sidecar(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    sidecar = tmp_path / f"profile.{profile.scenarios[1].scenario_id}.mat"
    dataio.write_matrix(sidecar, 2.0 * dataio.read_matrix(sidecar))
    with pytest.raises(NotOrthonormal) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == f"{sidecar}: basis columns are not orthonormal"


@pytest.mark.parametrize("b", [0, 12], ids=["zero", "ambient"])
def test_profile_rejects_subspace_dim_out_of_range_naming_the_profile(
        tmp_path, b):
    # every sidecar gets the shape the edited config names, a 12 x 0 basis
    # or a square orthogonal one beside a feature column, so only the range
    # of b is wrong
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["config"]["dim_subspace"] = b
    doc["config"]["window_length"] = b + 1
    path.write_text(json.dumps(doc))
    for s in doc["scenarios"]:
        (tmp_path / s["matrix_file"]).write_bytes(
            dataio.MATRIX_MAGIC + struct.pack("<QQ", 12, b + 1)
            + np.eye(12, b + 1).astype("<f8").tobytes())
    with pytest.raises(DimensionMismatch) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (
        f"{path}: config: need 1 <= dim_subspace < dim_ambient, "
        f"got dim_subspace={b}, dim_ambient=12")


def test_profile_rejects_representative_feature_of_wrong_length(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    s = profile.scenarios[1]
    sidecar = tmp_path / f"profile.{s.scenario_id}.mat"
    dataio.write_matrix(sidecar, np.column_stack(
        (s.basis[:-1], s.representative_feature[:-1])))
    with pytest.raises(DimensionMismatch) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (
        f"{sidecar}: matrix has shape (11, 3); the profile config needs "
        "(12, 3), a basis and a representative feature")


@pytest.mark.parametrize("kind", ["basis", "feature"])
def test_profile_sidecar_with_a_nan_raises_non_finite_features(tmp_path,
                                                               kind):
    # a NaN basis passes the orthonormality check (NaN > tol is False), and
    # a NaN feature can never be matched; either is rejected at load
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    sidecar = tmp_path / f"profile.{profile.scenarios[1].scenario_id}.mat"
    M = dataio.read_matrix(sidecar)
    M[0, {"basis": 1, "feature": -1}[kind]] = np.nan
    dataio.write_matrix(sidecar, M)
    with pytest.raises(NonFiniteFeatures) as exc:
        dataio.read_profile(path)
    assert str(exc.value).startswith(f"{sidecar}: ")
    assert str(exc.value).endswith(" contains NaN or Inf")


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


def test_profile_digest_of_a_fortran_ordered_basis_equals_its_c_copy():
    _, profile = pipeline_profile()
    for s in profile.scenarios:
        s.basis = np.ascontiguousarray(s.basis)
    d1 = dataio.profile_digest(profile)
    for s in profile.scenarios:
        s.basis = np.asfortranarray(s.basis)
    assert not profile.scenarios[0].basis.flags.c_contiguous
    assert dataio.profile_digest(profile) == d1


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


def test_profile_repeated_scenario_id_raises_duplicate_key(tmp_path):
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    sid = doc["scenarios"][0]["scenario_id"]
    doc["scenarios"][1]["scenario_id"] = sid
    path.write_text(json.dumps(doc))
    with pytest.raises(DuplicateKey) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (f"{path}: scenarios[0] and scenarios[1] have "
                              f"the same scenario_id {sid!r}")


@pytest.mark.parametrize("window_length", [1, 2])
def test_profile_window_too_short_for_the_subspace_raises_manifest_invalid(
        tmp_path, window_length):
    # the profile's subspace is 2-dim, so a window needs 3 frames
    _, profile = pipeline_profile()
    path = tmp_path / "profile.json"
    dataio.write_profile(path, profile)
    doc = json.loads(path.read_text())
    doc["config"]["window_length"] = window_length
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (
        f"{path}: config: window_length {window_length} is too short for "
        "subspace_dim 2; a window needs at least 3 frames")


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
    del doc["scenarios"][1]["matrix_file"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_profile(path)
    assert str(exc.value) == (
        f"{path}: scenarios[1]: missing key 'matrix_file'")


def test_platforms_combo_without_a_key_raises_manifest_invalid(tmp_path):
    dataset, _ = pipeline_profile()
    path = tmp_path / "platforms.json"
    dataio.write_platforms(path, dataset.combos, dataset.platforms)
    doc = json.loads(path.read_text())
    del doc["combos"][0]["id"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_platforms(path)
    assert str(exc.value) == f"{path}: combos[0]: missing key 'id'"


@pytest.mark.parametrize("entry, key, value, expected", [
    ("scenarios[0]", "labels", 5, "a JSON object"),
    ("scenarios[1]", "member_count", True, "an integer"),
    ("config", "dim_ambient", "4", "an integer"),
    ("config", "window_length", 3.0, "an integer"),
], ids=["labels", "count-bool", "dim-string", "length-float"])
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
    ("platforms", "combo_capabilities", {"c00": "fast"}, "['c00']",
     "a number"),
], ids=["capabilities"])
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


def test_platforms_capability_of_no_combo_raises_manifest_invalid(tmp_path):
    # a typo in a capability key would drop that combo from the platform
    dataset, _ = pipeline_profile()
    path = tmp_path / "platforms.json"
    dataio.write_platforms(path, dataset.combos, dataset.platforms)
    doc = json.loads(path.read_text())
    caps = doc["platforms"][0]["combo_capabilities"]
    caps["c0O"] = caps.pop("c00")
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestInvalid) as exc:
        dataio.read_platforms(path)
    assert str(exc.value) == (
        f"{path}: platforms[0]: combo_capabilities['c0O']: "
        "no combo has this id")


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
        "selected_platform": "p1",
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
        (0, json.dumps(header), ":1: missing key 'profile_reference'"),
        (1, json.dumps(first), ":2: missing key 'elapsed_ms'"),
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


def test_trace_values_of_the_wrong_type_raise_malformed_row_naming_the_line(
        tmp_path):
    dataset, profile = pipeline_profile()
    trace = run_selection(dataset.test_stream, profile, "p1",
                          dataset.config.frames_per_scenario)
    path = tmp_path / "trace.jsonl"
    dataio.write_trace(path, trace)
    lines = path.read_text().splitlines()
    # each case is (line index, key, a value of the wrong JSON type)
    cases = [(0, "profile_reference", 7), (1, "window_id", "0"),
             (2, "all_similarities", [0.5, "x"]), (3, "elapsed_ms", None)]
    for index, key, value in cases:
        rec = json.loads(lines[index])
        rec[key] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:index] + [json.dumps(rec)]
                                 + lines[index + 1:]) + "\n")
        with pytest.raises(MalformedRow) as exc:
            dataio.read_trace(bad)
        assert str(exc.value).startswith(f"{bad}:{index + 1}: {key}")


def test_trace_header_without_a_version_raises_malformed_row_on_line_1(
        tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({"kind": "adasel-trace",
                                "profile_reference": "x" * 64}) + "\n")
    with pytest.raises(MalformedRow) as exc:
        dataio.read_trace(path)
    assert str(exc.value) == f"{path}:1: missing key 'format_version'"


@pytest.mark.parametrize("kind, error, where", [
    ("stream", ManifestInvalid, ""), ("profile", ManifestInvalid, ""),
    ("platforms", ManifestInvalid, ""), ("trace", MalformedRow, ":1")],
    ids=["stream", "profile", "platforms", "trace"])
def test_a_true_format_version_is_rejected(tmp_path, kind, error, where):
    # json.loads gives True for true, and bool is a subclass of int, so
    # only an exact type check keeps it from reading as version 1
    dataset, profile = pipeline_profile()
    path = tmp_path / f"{kind}.json"
    if kind == "stream":
        dataio.write_stream(path, dataset.test_stream)
    elif kind == "profile":
        dataio.write_profile(path, profile)
    elif kind == "platforms":
        dataio.write_platforms(path, dataset.combos, dataset.platforms)
    else:
        dataio.write_trace(path, run_selection(
            dataset.test_stream, profile, "p1",
            dataset.config.frames_per_scenario))
    text = path.read_text()
    stamp = f'"format_version": {dataio.FORMAT_VERSION}'
    assert stamp in text
    path.write_text(text.replace(stamp, '"format_version": true', 1))
    reader = getattr(dataio, f"read_{kind}")
    with pytest.raises(error) as exc:
        reader(path)
    assert str(exc.value) == (
        f"{path}{where}: format_version: expected an integer")


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


@pytest.mark.parametrize("kind, token", [
    ("platforms", "NaN"), ("synth_config", "Infinity"), ("trace", "-Infinity"),
    ("platforms", "-1e999"), ("trace", "1e999")])
def test_json_nan_and_infinity_are_rejected_naming_the_file(
        tmp_path, kind, token):
    # json.loads reads NaN, Infinity and -Infinity as floats, and a number
    # too large for a float as an infinity; a number that any reader reads
    # must be finite
    path = tmp_path / f"{kind}.json"
    if kind == "platforms":
        dataset, _ = pipeline_profile()
        dataio.write_platforms(path, dataset.combos, dataset.platforms)
        doc = json.loads(path.read_text())
        doc["platforms"][0]["cost"] = "@"
        path.write_text(json.dumps(doc).replace('"@"', token))
        read = dataio.read_platforms
        error, where = ManifestInvalid, f"{path}: platforms[0]: cost"
    elif kind == "synth_config":
        path.write_text(json.dumps({"mean_scale": "@"}).replace('"@"', token))
        read = dataio.read_synth_config
        error, where = ConfigInvalid, f"{path}: mean_scale"
    else:
        dataset, profile = pipeline_profile()
        dataio.write_trace(path, run_selection(
            dataset.test_stream, profile, "p1",
            dataset.config.frames_per_scenario))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["elapsed_ms"] = "@"
        lines[1] = json.dumps(rec).replace('"@"', token)
        path.write_text("\n".join(lines) + "\n")
        read = dataio.read_trace
        error, where = MalformedRow, f"{path}:2: elapsed_ms"
    assert token in path.read_text()
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value).startswith(where)


@pytest.mark.parametrize("second", ["0, 1", "0,01", "+0,1"])
def test_synth_config_two_keys_for_one_error_model_pair_raise(
        tmp_path, second):
    # int() reads each spelling as pair (0, 1), so the later value would
    # silently replace the earlier one; only "0,1" spells the pair
    path = tmp_path / "synth.json"
    model = {"0,0": 1.0, "0,1": 1.0, "1,0": 1.0, "1,1": 1.0, second: 9.0}
    path.write_text(json.dumps(
        {"n_scenarios": 2, "n_combos": 2, "error_model": model}))
    with pytest.raises(ConfigInvalid) as exc:
        dataio.read_synth_config(path)
    assert str(exc.value) == (
        f"{path}: error_model key {second!r} is not 'scenario,combo' "
        "in plain digits")


@pytest.mark.parametrize("kind", ["platforms", "synth_config", "trace",
                                  "profile"])
def test_json_key_repeated_in_one_object_raises_naming_the_file_and_key(
        tmp_path, kind):
    # json.loads keeps the last of two equal keys, so "cost": 1.0,
    # "cost": 0.5 would read as cost 0.5
    path = tmp_path / f"{kind}.json"
    if kind == "synth_config":
        path.write_text(
            '{"n_scenarios": 2, "n_combos": 2, "error_model": {"0,0": 1.0, '
            '"0,1": 1.0, "1,0": 1.0, "1,1": 1.0, "0,1": 9.0}}')
        read, error, where, key = (dataio.read_synth_config, ConfigInvalid,
                                   f"{path}", "0,1")
    elif kind == "trace":
        dataset, profile = pipeline_profile()
        dataio.write_trace(path, run_selection(
            dataset.test_stream, profile, "p1",
            dataset.config.frames_per_scenario))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"elapsed_ms": ',
                                    '"elapsed_ms": 0.5, "elapsed_ms": ')
        path.write_text("\n".join(lines) + "\n")
        read, error, where, key = (dataio.read_trace, MalformedRow,
                                   f"{path}:2", "elapsed_ms")
    else:
        dataset, profile = pipeline_profile()
        if kind == "platforms":
            dataio.write_platforms(path, dataset.combos, dataset.platforms)
            read, key = dataio.read_platforms, "cost"
        else:
            dataio.write_profile(path, profile)
            read, key = dataio.read_profile, "selected_platform"
        text = path.read_text()
        path.write_text(text.replace(f'"{key}": ', f'"{key}": 0.5, "{key}": ',
                                     1))
        error, where = ManifestInvalid, f"{path}"
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value) == f"{where}: repeated key {key!r}"
