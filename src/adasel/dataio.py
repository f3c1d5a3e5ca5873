"""File formats: every file adasel reads or writes is read or written here.

Binary matrices, stream manifests, performance tables, platforms files,
design profiles, selection traces, per-window ground truth and regret
reports, and the synth settings; no other module opens a file.  All
formats but the output-only regret report and the input-only synth settings
round-trip exactly.  Matrices use a fixed little-endian binary layout (magic
``ADSLMAT1``, u64 rows, u64 cols, row-major f64 payload); JSON documents
are written with sorted keys and repr-exact floats so that identical
inputs produce byte-identical files.  Versioned documents carry
``format_version`` and readers reject versions newer than they understand.
Version 3 profiles store only what selection reads.  Versions 1 and 2 still
load; their complement sidecars, performance table, catalog, seed and
constraints are not read.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import (AlgoParamCombo, DesignProfile, PerformanceRecord,
                     PlatformSpec, ProfileConfig, ScenarioProfile)
from .errors import (BadMagic, ConfigInvalid, DimensionMismatch,
                     DimensionOverflow, DuplicateKey, MalformedRow,
                     ManifestInvalid, Misaligned, NegativeError,
                     TruncatedPayload, UnsupportedVersion)
from .harness import RegretReport, SyntheticConfig, WindowRegret, WindowTruth
from .runtime import SelectionDecision, SelectionTrace
from .subspace import SubspaceBasis

MATRIX_MAGIC = b"ADSLMAT1"
FORMAT_VERSION = 3
REPORT_VERSION = 1
# rows * cols * 8 beyond this cannot be a real file; reject before allocating
MAX_PAYLOAD_BYTES = 1 << 62


# --------------------------------------------------------------------------
# binary matrices

def write_matrix(path, matrix) -> None:
    M = np.ascontiguousarray(matrix, dtype="<f8")
    if M.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {M.shape}")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
        fh.write(M.data)


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(24)
        if header[:8] != MATRIX_MAGIC:
            raise BadMagic(f"{path}: expected magic {MATRIX_MAGIC!r}, "
                           f"got {header[:8]!r}")
        if len(header) < 24:
            raise TruncatedPayload(f"{path}: header truncated")
        rows, cols = struct.unpack("<QQ", header[8:])
        nbytes = rows * cols * 8
        if nbytes > MAX_PAYLOAD_BYTES:
            raise DimensionOverflow(
                f"{path}: {rows} x {cols} matrix exceeds addressable size")
        size = os.fstat(fh.fileno()).st_size - 24
        if size != nbytes:
            raise TruncatedPayload(
                f"{path}: payload is {size} bytes, header claims {nbytes}")
        M = np.empty((rows, cols), dtype="<f8")
        if (got := fh.readinto(M.data.cast("B"))) != nbytes:
            raise TruncatedPayload(
                f"{path}: read {got} payload bytes, header claims {nbytes}")
    return M


# --------------------------------------------------------------------------
# JSON helpers

def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check_version(doc, path) -> None:
    version = doc.get("format_version")
    if not isinstance(version, int):
        raise ManifestInvalid(f"{path}: missing integer format_version")
    if version > FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{path}: format_version {version} is newer than supported "
            f"({FORMAT_VERSION})")


# the exact JSON types a key may hold; json.loads gives bool, never int, for
# true, so an exact type check also keeps booleans out of numeric fields
_INT, _NUMBER, _STR = (int,), (int, float), (str,)
_LIST, _OBJECT = (list,), (dict,)
_EXPECTED = {_INT: "an integer", _NUMBER: "a number", _STR: "a string",
             _LIST: "a JSON list", _OBJECT: "a JSON object"}
# (container, element types): each element of a list, or each value of an
# object, must be of one of the element types
_STR_LIST, _INT_LIST = (_LIST, _STR), (_LIST, _INT)
_STR_MAP, _NUMBER_MAP = (_OBJECT, _STR), (_OBJECT, _NUMBER)

_STREAM_KEYS = {"dim": _INT, "frame_count": _INT, "matrices": _STR_LIST}
_PROFILE_KEYS = {"config": _OBJECT, "scenarios": _LIST}
_CONFIG_KEYS = {"dim_ambient": _INT, "dim_subspace": _INT,
                "window_length": _INT}
_SCENARIO_KEYS = {"scenario_id": _STR, "basis_file": _STR,
                  "representative_feature": _LIST, "member_count": _INT,
                  "labels": _STR_MAP}
_PLATFORMS_KEYS = {"combos": _LIST, "platforms": _LIST}
_COMBO_KEYS = {"id": _STR, "algorithm": _STR, "fps": _NUMBER,
               "resolution": _INT_LIST}
_PLATFORM_KEYS = {"id": _STR, "cost": _NUMBER,
                  "combo_capabilities": _NUMBER_MAP}


def _require(entry, spec, where) -> dict:
    """``entry``, a JSON object holding each key of spec with a value of one
    of its types (and, for a container spec, elements of one of its element
    types); errors name where, the key and the element."""
    if not isinstance(entry, dict):
        raise ManifestInvalid(f"{where}: expected a JSON object")
    for key, types in spec.items():
        if key not in entry:
            raise ManifestInvalid(f"{where}: missing key {key!r}")
        types, items = types if isinstance(types[0], tuple) else (types, ())
        value = entry[key]
        if type(value) not in types:
            raise ManifestInvalid(
                f"{where}: {key}: expected {_EXPECTED[types]}")
        if not items:
            continue
        for k, v in value.items() if type(value) is dict else enumerate(value):
            if type(v) not in items:
                raise ManifestInvalid(
                    f"{where}: {key}[{k!r}]: expected {_EXPECTED[items]}")
    return entry


def _entries(doc, name, spec, path) -> list[dict]:
    """The entries of the list ``doc[name]``, each checked against spec;
    where spec has an ``id`` key, two entries with one id raise
    DuplicateKey."""
    entries = [_require(entry, spec, f"{path}: {name}[{i}]")
               for i, entry in enumerate(doc[name])]
    ids = [entry["id"] for entry in entries] if "id" in spec else []
    for i, key in enumerate(ids):
        if (j := ids.index(key)) != i:
            raise DuplicateKey(f"{path}: {name}[{j}] and {name}[{i}] "
                               f"have the same id {key!r}")
    return entries


def _read_doc(path, spec) -> dict:
    """The versioned JSON object in ``path``, checked against spec."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ManifestInvalid(f"{path}: not JSON ({exc})") from None
    _require(doc, {}, path)
    _check_version(doc, path)
    return _require(doc, spec, path)


# --------------------------------------------------------------------------
# CSV helpers

def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())


def _csv_rows(path, required) -> tuple[list[str], list[tuple[int, list]]]:
    """The stripped header of the CSV file ``path`` and its non-blank rows,
    each with its line number; the header must start with ``required``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MalformedRow(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header[:len(required)] != required:
        raise MalformedRow(
            f"{path}: header must start with {','.join(required)}")
    return header, [(lineno, row) for lineno, row in enumerate(rows[1:], 2)
                    if len(row) > 1 or (row and row[0].strip())]


def _cell(kind, text, name, path, lineno):
    """``kind(text)``; a cell it cannot parse raises MalformedRow."""
    try:
        return kind(text)
    except ValueError:
        raise MalformedRow(
            f"{path}:{lineno}: bad {name} value {text!r}") from None


def _first_seen(seen: dict, key, what, path, lineno) -> None:
    """Record the line of key's first row; a repeat raises DuplicateKey."""
    if key in seen:
        raise DuplicateKey(f"{path}:{lineno}: duplicate {what} {key} "
                           f"(first seen at line {seen[key]})")
    seen[key] = lineno


# --------------------------------------------------------------------------
# feature stream manifests

@dataclass
class FeatureStream:
    """Frames-as-rows matrix plus optional per-frame scenario labels."""

    frames: np.ndarray
    labels: list[str] | None
    source: str


def write_stream(manifest_path, frames, source: str = "",
                 labels: list[str] | None = None) -> None:
    manifest_path = Path(manifest_path)
    X = np.asarray(frames, dtype=np.float64)
    if labels is not None and len(labels) != X.shape[0]:
        raise ManifestInvalid(
            f"{len(labels)} labels for {X.shape[0]} frames")
    matrix_name = manifest_path.stem + ".mat"
    write_matrix(manifest_path.parent / matrix_name, X)
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": X.shape[1],
        "frame_count": X.shape[0],
        "source": source,
        "matrices": [matrix_name],
    }
    if labels is not None:
        doc["frame_labels"] = list(labels)
    manifest_path.write_text(_canonical_json(doc))


def read_stream(manifest_path) -> FeatureStream:
    manifest_path = Path(manifest_path)
    doc = _read_doc(manifest_path, _STREAM_KEYS)
    if doc.get("frame_labels") is not None:
        _require(doc, {"frame_labels": _STR_LIST}, manifest_path)
    parts = [read_matrix(manifest_path.parent / name)
             for name in doc["matrices"]]
    if len(parts) == 1:
        X = parts[0]  # read_matrix's array as it is, not a copy
    else:
        X = np.vstack(parts) if parts else np.empty((0, doc["dim"]))
    if X.shape[1] != doc["dim"]:
        raise ManifestInvalid(
            f"{manifest_path}: matrix has {X.shape[1]} columns, "
            f"manifest declares dim={doc['dim']}")
    if X.shape[0] != doc["frame_count"]:
        raise ManifestInvalid(
            f"{manifest_path}: matrices hold {X.shape[0]} frames, "
            f"manifest declares frame_count={doc['frame_count']}")
    labels = doc.get("frame_labels")
    if labels is not None and len(labels) != X.shape[0]:
        raise ManifestInvalid(
            f"{manifest_path}: {len(labels)} frame_labels for "
            f"{X.shape[0]} frames")
    return FeatureStream(frames=X, labels=labels,
                         source=doc.get("source", ""))


# --------------------------------------------------------------------------
# performance tables (CSV)

def write_performance_table(path, records: list[PerformanceRecord]) -> None:
    _write_csv(path, ["scenario_id", "combo_id", "platform_id", "error"],
               ([r.scenario_id, r.combo_id, r.platform_id,
                 repr(float(r.error))] for r in records))


def read_performance_table(path) -> list[PerformanceRecord]:
    """Parse a performance CSV; rejects duplicates and negative errors.

    Header must start with scenario_id,combo_id,platform_id,error; any
    further columns (MT, IDS, ...) must hold numbers or be empty, and are
    not kept: design ranks combos by error alone.
    """
    header, rows = _csv_rows(
        path, ["scenario_id", "combo_id", "platform_id", "error"])
    records = []
    seen: dict[tuple, int] = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise MalformedRow(
                f"{path}:{lineno}: expected {len(header)} columns, "
                f"got {len(row)}")
        sid, cid, pid = (c.strip() for c in row[:3])
        if not sid or not cid or not pid:
            raise MalformedRow(f"{path}:{lineno}: empty id field")
        error = _cell(float, row[3], "error", path, lineno)
        if error < 0.0:
            raise NegativeError(
                f"{path}:{lineno}: error must be >= 0, got {error}")
        _first_seen(seen, (sid, cid, pid), "triple", path, lineno)
        for name, cell in zip(header[4:], row[4:]):
            if cell.strip():
                _cell(float, cell.strip(), name, path, lineno)
        records.append(PerformanceRecord(
            scenario_id=sid, combo_id=cid, platform_id=pid, error=error))
    return records


# --------------------------------------------------------------------------
# design profiles (JSON + matrix sidecars)

def _profile_doc(profile: DesignProfile, basis_refs, feature_refs) -> dict:
    cfg = profile.config
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "dim_ambient": int(cfg.dim_ambient),
            "dim_subspace": int(cfg.dim_subspace),
            "window_length": int(cfg.window_length),
        },
        "selected_platform": profile.selected_platform,
        "scenarios": [{
            "scenario_id": s.scenario_id,
            "member_count": int(s.member_count),
            "labels": s.labels,
            "representative_feature": feature_refs[s.scenario_id],
            "basis_file": basis_refs[s.scenario_id],
        } for s in profile.scenarios],
    }


def write_profile(path, profile: DesignProfile) -> None:
    path = Path(path)
    stem = path.stem
    basis_files = {}
    for s in profile.scenarios:
        basis_file = f"{stem}.{s.scenario_id}.basis.mat"
        write_matrix(path.parent / basis_file, s.subspace.basis)
        basis_files[s.scenario_id] = basis_file
    features = {s.scenario_id: s.representative_feature.tolist()
                for s in profile.scenarios}
    path.write_text(_canonical_json(
        _profile_doc(profile, basis_files, features)))


def read_profile(path) -> DesignProfile:
    path = Path(path)
    doc = _read_doc(path, _PROFILE_KEYS)
    cfg = _require(doc["config"], _CONFIG_KEYS, f"{path}: config")
    config = ProfileConfig(
        dim_ambient=cfg["dim_ambient"], dim_subspace=cfg["dim_subspace"],
        window_length=cfg["window_length"])
    shape = (config.dim_ambient, config.dim_subspace)
    if not doc["scenarios"]:
        raise ManifestInvalid(f"{path}: scenarios: expected at least one")
    scenarios = []
    for i, s in enumerate(_entries(doc, "scenarios", _SCENARIO_KEYS, path)):
        basis_path = path.parent / s["basis_file"]
        subspace = SubspaceBasis(read_matrix(basis_path))
        if subspace.basis.shape != shape:
            raise DimensionMismatch(
                f"{basis_path}: basis has shape {subspace.basis.shape}; "
                f"the profile config needs {shape}")
        subspace.validate(tol=1e-8)
        try:
            feature = np.asarray(s["representative_feature"])
        except ValueError:  # ragged nesting
            feature = None
        # one dtype check, not a Python loop over the a entries
        if feature is None or feature.dtype.kind not in "if":
            raise ManifestInvalid(
                f"{path}: scenarios[{i}]: representative_feature: expected "
                "a list of numbers")
        feature = feature.astype(np.float64, copy=False)
        if feature.shape != shape[:1]:
            raise DimensionMismatch(
                f"{path}: scenario {s['scenario_id']} representative_feature "
                f"has shape {feature.shape}; the profile config needs "
                f"{shape[:1]}")
        scenarios.append(ScenarioProfile(
            scenario_id=s["scenario_id"], representative_feature=feature,
            subspace=subspace, member_count=s["member_count"],
            labels=dict(s["labels"])))
    return DesignProfile(scenarios=scenarios,
                         selected_platform=doc.get("selected_platform"),
                         config=config)


def _array_sha256(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def profile_digest(profile: DesignProfile) -> str:
    """Content hash of a profile, independent of where its files live: the
    sha256 of its canonical JSON with each basis and each representative
    feature replaced by the sha256 of its ``<f8`` bytes."""
    doc = _profile_doc(
        profile,
        {s.scenario_id: _array_sha256(s.subspace.basis)
         for s in profile.scenarios},
        {s.scenario_id: _array_sha256(s.representative_feature)
         for s in profile.scenarios})
    return hashlib.sha256(_canonical_json(doc).encode()).hexdigest()


# --------------------------------------------------------------------------
# combo/platform capability files (Table-II-shaped)

def write_platforms(path, combos: list[AlgoParamCombo],
                    platforms: list[PlatformSpec]) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "combos": [{"id": c.id, "algorithm": c.algorithm, "fps": float(c.fps),
                    "resolution": [int(v) for v in c.resolution]}
                   for c in combos],
        "platforms": [{"id": p.id, "cost": float(p.cost),
                       "combo_capabilities": {k: float(v) for k, v
                                              in p.combo_capabilities.items()}}
                      for p in platforms],
    }
    Path(path).write_text(_canonical_json(doc))


def read_platforms(path) -> tuple[list[AlgoParamCombo], list[PlatformSpec]]:
    doc = _read_doc(path, _PLATFORMS_KEYS)
    combos = [AlgoParamCombo(id=c["id"], algorithm=c["algorithm"],
                             fps=c["fps"], resolution=tuple(c["resolution"]))
              for c in _entries(doc, "combos", _COMBO_KEYS, path)]
    platforms = [PlatformSpec(id=p["id"], cost=p["cost"],
                              combo_capabilities=dict(p["combo_capabilities"]))
                 for p in _entries(doc, "platforms", _PLATFORM_KEYS, path)]
    return combos, platforms


# --------------------------------------------------------------------------
# selection traces (JSON lines + CSV projection)

# every SelectionDecision field, in declaration order; all_similarities,
# an array, is the one field that is converted on the way in and out
_DECISION_FIELDS = tuple(f.name for f in dataclasses.fields(SelectionDecision))


def write_trace(path, trace: SelectionTrace) -> None:
    lines = [json.dumps({
        "format_version": FORMAT_VERSION,
        "kind": "adasel-trace",
        "profile_reference": trace.profile_reference,
    }, sort_keys=True)]
    for d in trace.decisions:
        rec = {name: getattr(d, name) for name in _DECISION_FIELDS}
        rec["all_similarities"] = [float(v) for v in d.all_similarities]
        lines.append(json.dumps(rec, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def _trace_record(path, lineno: int, line: str, fields) -> dict:
    """One trace line as a JSON object holding ``fields``."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRow(f"{path}:{lineno}: not JSON ({exc.msg})") from None
    if not isinstance(rec, dict):
        raise MalformedRow(f"{path}:{lineno}: expected a JSON object")
    missing = [f for f in fields if f not in rec]
    if missing:
        raise MalformedRow(f"{path}:{lineno}: missing field {missing[0]!r}")
    return rec


def read_trace(path) -> SelectionTrace:
    """Parse a trace; a bad line raises MalformedRow naming ``path:line``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise MalformedRow(f"{path}: empty trace")
    header = _trace_record(path, 1, lines[0], ("profile_reference",))
    _check_version(header, path)
    decisions = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _trace_record(path, lineno, line, _DECISION_FIELDS)
        fields = {name: rec[name] for name in _DECISION_FIELDS}
        fields["all_similarities"] = np.asarray(rec["all_similarities"])
        decisions.append(SelectionDecision(**fields))
    return SelectionTrace(decisions=decisions,
                          profile_reference=header["profile_reference"])


def write_trace_csv(path, trace: SelectionTrace) -> None:
    """Plot-friendly projection: one row per window decision."""
    _write_csv(path, ["window_id", "combo_id", "similarity"],
               ([d.window_id, d.chosen_combo_id, repr(float(d.similarity))]
                for d in trace.decisions))


# --------------------------------------------------------------------------
# per-window ground truth (CSV), read by ``adasel eval``

def write_window_truth(path, truths: list[WindowTruth]) -> None:
    _write_csv(path, ["window_id", "combo_id", "error", "true_scenario_id"],
               ([t.window_id, cid, repr(t.errors[cid]),
                 t.true_scenario_id or ""]
                for t in truths for cid in sorted(t.errors)))


def read_window_truth(path) -> list[WindowTruth]:
    """Parse window truth; rejects repeated (window, combo) pairs and rows of
    one window that disagree on its true scenario id."""
    _, rows = _csv_rows(path, ["window_id", "combo_id", "error"])
    by_window: dict[int, WindowTruth] = {}
    seen: dict[tuple[int, str], int] = {}
    first_line: dict[int, int] = {}
    for lineno, row in rows:
        if len(row) < 3:
            raise MalformedRow(f"{path}:{lineno}: expected >= 3 columns")
        wid = _cell(int, row[0], "window_id", path, lineno)
        error = _cell(float, row[2], "error", path, lineno)
        key = (wid, row[1].strip())
        _first_seen(seen, key, "(window, combo)", path, lineno)
        sid = row[3].strip() if len(row) > 3 and row[3].strip() else None
        truth = by_window.setdefault(
            wid, WindowTruth(window_id=wid, true_scenario_id=sid, errors={}))
        first_line.setdefault(wid, lineno)
        if sid != truth.true_scenario_id:
            raise Misaligned(
                f"{path}:{lineno}: window {wid} has true_scenario_id "
                f"{sid!r}, but line {first_line[wid]} gave "
                f"{truth.true_scenario_id!r}")
        truth.errors[key[1]] = error
    return [by_window[w] for w in sorted(by_window)]


# --------------------------------------------------------------------------
# regret reports (output only: CSV plus a JSON document beside it)

def write_report(path, report: RegretReport) -> None:
    """The per-window rows as CSV to ``path`` and the whole report as JSON
    to its ``.json`` sibling; identical reports give identical bytes."""
    path = Path(path)
    _write_csv(path, [f.name for f in dataclasses.fields(WindowRegret)],
               ([w.window_id, *map(repr, dataclasses.astuple(w)[1:])]
                for w in report.per_window))
    path.with_suffix(".json").write_text(_canonical_json({
        "format_version": REPORT_VERSION,
        "per_window": [dataclasses.asdict(w) for w in report.per_window],
        "totals": {
            "selected_sum": report.selected_sum,
            "oracle_sum": report.oracle_sum,
            "static_sums": report.static_sums,
        },
        "best_static_id": report.best_static_id,
        "switch_count": report.switch_count,
        "scenario_match_accuracy": report.scenario_match_accuracy,
    }))


# --------------------------------------------------------------------------
# synth settings (input only: a JSON object of SyntheticConfig fields)

def _index_pair(key: str) -> tuple[int, int]:
    try:
        i, h = (int(part) for part in key.split(","))
    except ValueError:
        raise ConfigInvalid(
            f"error_model key {key!r} is not 'scenario,combo'") from None
    return i, h


def read_synth_config(path, default_seed: int) -> SyntheticConfig:
    """SyntheticConfig from a JSON file; unknown keys are rejected."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{path}: expected a JSON object")
    known = {f.name for f in dataclasses.fields(SyntheticConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    model = doc.get("error_model")
    if model is not None:
        if not isinstance(model, dict):
            raise ConfigInvalid("error_model must be a JSON object")
        doc["error_model"] = {_index_pair(k): v for k, v in model.items()}
    doc.setdefault("seed", default_seed)
    return SyntheticConfig(**doc)
