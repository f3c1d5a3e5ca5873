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
A version 5 profile stores only what selection reads, and each scenario's
arrays are one matrix sidecar: its a x b basis with its representative
feature as one more column.  A profile stamped with any version up to 5
loads if it has the version 5 layout; an older one, which held the feature
inline or in a sidecar of its own, fails on its missing ``matrix_file``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .design import (AlgoParamCombo, DesignProfile, PlatformSpec,
                     ProfileConfig, ScenarioProfile, check_window_length)
from .errors import (BadMagic, ConfigInvalid, DimensionMismatch,
                     DimensionOverflow, DuplicateKey, MalformedRow,
                     ManifestInvalid, Misaligned, NegativeError,
                     NonFiniteFeatures, NotOrthonormal, TooFewFrames,
                     TruncatedPayload, UnsupportedVersion)
from .harness import RegretReport, SyntheticConfig, WindowRegret, WindowTruth
from .runtime import SelectionDecision, SelectionTrace
from .subspace import ORTHO_TOL

MATRIX_MAGIC = b"ADSLMAT1"
FORMAT_VERSION = 5
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
        # a memoryview of an array with a zero dimension cannot be cast
        if nbytes and (got := fh.readinto(M.data.cast("B"))) != nbytes:
            raise TruncatedPayload(
                f"{path}: read {got} payload bytes, header claims {nbytes}")
    return M


# --------------------------------------------------------------------------
# JSON helpers

def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# the exact JSON types a key may hold; json.loads gives bool, never int, for
# true, so an exact type check also keeps booleans out of numeric fields
_INT, _NUMBER, _STR = (int,), (int, float), (str,)
_LIST, _OBJECT = (list,), (dict,)
_EXPECTED = {_INT: "an integer", _NUMBER: "a number", _STR: "a string",
             _LIST: "a JSON list", _OBJECT: "a JSON object"}
# (container, element types): each element of a list, or each value of an
# object, must be of one of the element types
_STR_LIST, _STR_MAP = (_LIST, _STR), (_OBJECT, _STR)

_STREAM_KEYS = {"dim": _INT, "frame_count": _INT, "matrices": _STR_LIST}
_PROFILE_KEYS = {"config": _OBJECT, "selected_platform": _STR,
                 "scenarios": _LIST}
_SCENARIO_KEYS = {"scenario_id": _STR, "matrix_file": _STR,
                  "member_count": _INT, "labels": _STR_MAP}
_PLATFORMS_KEYS = {"combos": _LIST, "platforms": _LIST}


class _NonFinite:
    """A JSON ``NaN``, ``Infinity`` or ``-Infinity``, or a number too large
    for a float (``1e999``): no type check takes it, so a key that is read
    refuses it with the reader's error, and a key that is not (the Infinity
    in an old profile's constraints) may hold it."""

    def __init__(self, token):
        self.token = token

    def __repr__(self):
        return self.token


def _json_float(token):
    value = float(token)
    return value if math.isfinite(value) else _NonFinite(token)


def _json_object(text, where, error) -> dict:
    """The JSON object in ``text``; text that is not JSON, holds no object,
    or repeats a key in an object (json keeps the last) raises ``error``."""
    def unique(pairs) -> dict:
        if len(obj := dict(pairs)) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(key for key in keys if keys.count(key) > 1)
            raise error(f"{where}: repeated key {key!r}")
        return obj

    try:
        doc = json.loads(text, parse_constant=_NonFinite,
                         parse_float=_json_float, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: not JSON ({exc})") from None
    return _require(doc, {}, where, error)


def _require(entry, spec, where, error=ManifestInvalid) -> dict:
    """``entry``, a JSON object holding each key of spec with a value of one
    of its types (and, for a container spec, elements of one of its element
    types); errors, of type ``error``, name where, the key and the element."""
    if not isinstance(entry, dict):
        raise error(f"{where}: expected a JSON object")
    for key, types in spec.items():
        if key not in entry:
            raise error(f"{where}: missing key {key!r}")
        types, items = types if isinstance(types[0], tuple) else (types, ())
        value = entry[key]
        if type(value) not in types:
            raise error(f"{where}: {key}: expected {_EXPECTED[types]}")
        if not items:
            continue
        for k, v in value.items() if type(value) is dict else enumerate(value):
            if type(v) not in items:
                raise error(
                    f"{where}: {key}[{k!r}]: expected {_EXPECTED[items]}")
    return entry


def _check_version(doc, where, error) -> None:
    """An integer ``format_version`` no newer than this reader's; a missing
    or mistyped one raises ``error`` naming where."""
    version = _require(doc, {"format_version": _INT}, where,
                       error)["format_version"]
    if version > FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{where}: format_version {version} is newer than supported "
            f"({FORMAT_VERSION})")


def _entries(doc, name, read, path, id_key="id") -> list:
    """``read(entry, where=...)`` of each entry of the list ``doc[name]``,
    which checks that the entry holds ``id_key``; two entries with one
    ``id_key`` value raise DuplicateKey."""
    entries = [read(entry, where=f"{path}: {name}[{i}]")
               for i, entry in enumerate(doc[name])]
    ids = [entry[id_key] for entry in doc[name]]
    for i, key in enumerate(ids):
        if (j := ids.index(key)) != i:
            raise DuplicateKey(f"{path}: {name}[{j}] and {name}[{i}] "
                               f"have the same {id_key} {key!r}")
    return entries


def _read_doc(path, spec) -> dict:
    """The versioned JSON object in ``path``, checked against spec."""
    doc = _json_object(Path(path).read_text(), path, ManifestInvalid)
    _check_version(doc, path, ManifestInvalid)
    return _require(doc, spec, path)


# a record is a dataclass written as a JSON object of its fields; each field
# annotation gives (its JSON types, the write conversion, the read one), and
# a read of None keeps the checked value as read
_FIELD_TYPES = {
    int: (_INT, int, None), float: (_NUMBER, float, None),
    str: (_STR, str, None),
    dict[str, float]: ((_OBJECT, _NUMBER),
                       lambda v: {k: float(x) for k, x in v.items()}, dict),
    np.ndarray: ((_LIST, _NUMBER), np.ndarray.tolist, np.asarray),
}
# each record class's fields in declaration order with their _FIELD_TYPES
# entries, and its _require spec; derived once (get_type_hints is slow)
_RECORDS = {cls: {name: _FIELD_TYPES[hint]
                  for name, hint in get_type_hints(cls).items()}
            for cls in (AlgoParamCombo, PlatformSpec, ProfileConfig,
                        SelectionDecision)}
_RECORD_KEYS = {cls: {name: kinds for name, (kinds, _, _) in fields.items()}
                for cls, fields in _RECORDS.items()}


def _record_doc(record) -> dict:
    """The JSON object of a record: each field by its write conversion."""
    return {name: write(getattr(record, name))
            for name, (_, write, _) in _RECORDS[type(record)].items()}


def _record(cls, entry, where, error=ManifestInvalid):
    """The cls record in the JSON object ``entry``, checked by ``_require``
    against its fields' JSON types; errors name where."""
    _require(entry, _RECORD_KEYS[cls], where, error)
    return cls(**{name: read(entry[name]) if read else entry[name]
                  for name, (_, _, read) in _RECORDS[cls].items()})


# --------------------------------------------------------------------------
# CSV helpers

def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())


def _cell(kind, text, name, where):
    """``kind(text)``; a cell it cannot parse, a number cell that is not
    ASCII or holds a ``_`` (``float`` takes ``1_0`` and ``\u0663``), or an
    int cell that is not plain digits (``int`` takes ``-1``) is
    MalformedRow."""
    try:
        if kind is str or text.isascii() and (
                text.isdigit() if kind is int else "_" not in text):
            return kind(text)
    except ValueError:
        pass
    raise MalformedRow(f"{where}: bad {name} value {text!r}")


def _table_rows(path, ids) -> tuple[list[str], list[tuple]]:
    """The stripped header of the CSV table ``path`` and a (line number,
    key, error, remaining cells) tuple for each non-blank row.

    The header starts with the columns of ``ids``, a {name: type} dict, and
    then ``error``.  Each row has the header's width, non-empty ids that
    parse by their types (an int as plain digits) into a key no other row
    has (window ids ``0`` and ``00`` are one key), and a finite error >= 0
    written in ASCII with no ``_``.
    """
    names = [*ids, "error"]
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise MalformedRow(f"{path}: empty file")
    header = [h.strip() for h in lines[0]]
    if header[:len(names)] != names:
        raise MalformedRow(
            f"{path}: header must start with {','.join(names)}")
    rows, seen = [], {}
    for lineno, row in enumerate(lines[1:], 2):
        where, cells = f"{path}:{lineno}", [c.strip() for c in row]
        if cells in ([], [""]):
            continue
        if len(cells) != len(header):
            raise MalformedRow(f"{where}: expected {len(header)} columns, "
                               f"got {len(cells)}")
        if not all(cells[:len(ids)]):
            raise MalformedRow(f"{where}: empty id field")
        key = tuple(_cell(kind, text, name, where)
                    for (name, kind), text in zip(ids.items(), cells))
        error = _cell(float, cells[len(ids)], "error", where)
        if not math.isfinite(error):
            raise MalformedRow(f"{where}: bad error value {cells[len(ids)]!r}")
        if error < 0.0:
            raise NegativeError(f"{where}: error must be >= 0, got {error}")
        if key in seen:
            raise DuplicateKey(f"{where}: duplicate {'/'.join(ids)} {key} "
                               f"(first seen at line {seen[key]})")
        seen[key] = lineno
        rows.append((lineno, key, error, cells[len(names):]))
    return header, rows


# --------------------------------------------------------------------------
# feature stream manifests

@dataclass
class FeatureStream:
    """Frames-as-rows matrix plus optional per-frame scenario labels."""

    frames: np.ndarray
    labels: list[str] | None


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
    for name, part in zip(doc["matrices"], parts):
        if part.shape[1] != doc["dim"]:
            raise ManifestInvalid(
                f"{manifest_path}: {name} has {part.shape[1]} columns, "
                f"manifest declares dim={doc['dim']}")
    if len(parts) == 1:
        X = parts[0]  # read_matrix's array as it is, not a copy
    else:
        X = np.vstack(parts) if parts else np.empty((0, doc["dim"]))
    if X.shape[0] != doc["frame_count"]:
        raise ManifestInvalid(
            f"{manifest_path}: matrices hold {X.shape[0]} frames, "
            f"manifest declares frame_count={doc['frame_count']}")
    labels = doc.get("frame_labels")
    if labels is not None and len(labels) != X.shape[0]:
        raise ManifestInvalid(
            f"{manifest_path}: {len(labels)} frame_labels for "
            f"{X.shape[0]} frames")
    return FeatureStream(frames=X, labels=labels)


# --------------------------------------------------------------------------
# performance tables (CSV)

def write_performance_table(
        path, table: dict[tuple[str, str, str], float]) -> None:
    """One row per key of ``table``, in its order."""
    _write_csv(path, ["scenario_id", "combo_id", "platform_id", "error"],
               ([*key, repr(float(error))] for key, error in table.items()))


def read_performance_table(path) -> dict[tuple[str, str, str], float]:
    """{(scenario id, combo id, platform id): error}, in file order, of a
    performance CSV under the rules of ``_table_rows``; columns after the
    error (MT, IDS, ...) must hold numbers or be empty, and are not kept:
    design ranks combos by error alone."""
    header, rows = _table_rows(
        path, dict(scenario_id=str, combo_id=str, platform_id=str))
    for lineno, _, _, rest in rows:
        for name, cell in zip(header[4:], rest):
            if cell:
                _cell(float, cell, name, f"{path}:{lineno}")
    return {key: error for _, key, error, _ in rows}


# --------------------------------------------------------------------------
# design profiles (JSON + matrix sidecars)

def _profile_doc(profile: DesignProfile, ref) -> dict:
    """The profile's JSON document, in which ``ref(scenario, matrix)`` names
    each scenario's a x (b+1) matrix: columns 0..b-1 hold the basis and
    column b the representative feature."""
    return {
        "format_version": FORMAT_VERSION,
        "config": _record_doc(profile.config),
        "selected_platform": profile.selected_platform,
        "scenarios": [{
            "scenario_id": s.scenario_id,
            "member_count": int(s.member_count),
            "labels": s.labels,
            "matrix_file": ref(s, np.column_stack(
                (s.basis, s.representative_feature))),
        } for s in profile.scenarios],
    }


def _sidecar_names(path) -> set[str]:
    """The bare file names (no directory part) under any ``*_file`` key of
    a scenario entry of the profile in ``path``; none if it does not parse."""
    try:
        doc = _json_object(path.read_text(), path, ManifestInvalid)
    except (OSError, ValueError, ManifestInvalid):
        return set()
    scenarios = doc.get("scenarios")
    return {name for entry in scenarios if type(entry) is dict
            for key, name in entry.items() if key.endswith("_file")
            and type(name) is str and name == os.path.basename(name)
            } if type(scenarios) is list else set()


def write_profile(path, profile: DesignProfile) -> None:
    """Write the profile and its sidecars; the sidecars of a profile it
    replaces at ``path`` that it does not name itself are removed."""
    path = Path(path)
    stale = _sidecar_names(path) - {path.name}

    def sidecar(s, matrix) -> str:
        name = f"{path.stem}.{s.scenario_id}.mat"
        write_matrix(path.parent / name, matrix)
        stale.discard(name)
        return name

    path.write_text(_canonical_json(_profile_doc(profile, sidecar)))
    for name in stale:  # is_file: "", "." and ".." name directories
        if (old := path.parent / name).is_file():
            old.unlink()


def read_profile(path) -> DesignProfile:
    """The profile in ``path``; each scenario's sidecar must hold an
    a x (b+1) finite matrix whose first b columns are orthonormal, and each
    error names the sidecar."""
    path = Path(path)
    doc = _read_doc(path, _PROFILE_KEYS)
    config = _record(ProfileConfig, doc["config"], f"{path}: config")
    try:
        check_window_length(config.window_length, config.dim_subspace)
    except TooFewFrames as exc:
        raise ManifestInvalid(f"{path}: config: {exc}") from None
    a, b = config.dim_ambient, config.dim_subspace
    if not 1 <= b < a:
        raise DimensionMismatch(
            f"{path}: config: need 1 <= dim_subspace < dim_ambient, "
            f"got dim_subspace={b}, dim_ambient={a}")
    if not doc["scenarios"]:
        raise ManifestInvalid(f"{path}: scenarios: expected at least one")
    scenarios = []
    for s in _entries(doc, "scenarios", partial(_require, spec=_SCENARIO_KEYS),
                      path, "scenario_id"):
        sidecar = path.parent / s["matrix_file"]
        M = read_matrix(sidecar)
        if M.shape != (a, b + 1):
            raise DimensionMismatch(
                f"{sidecar}: matrix has shape {M.shape}; the profile config "
                f"needs {(a, b + 1)}, a basis and a representative feature")
        if not np.isfinite(M).all():
            raise NonFiniteFeatures(f"{sidecar}: matrix contains NaN or Inf")
        basis = M[:, :b]
        if np.abs(basis.T @ basis - np.eye(b)).max() > ORTHO_TOL:
            raise NotOrthonormal(
                f"{sidecar}: basis columns are not orthonormal")
        scenarios.append(ScenarioProfile(
            scenario_id=s["scenario_id"], representative_feature=M[:, b],
            basis=basis, member_count=s["member_count"],
            labels=dict(s["labels"])))
    return DesignProfile(scenarios=scenarios,
                         selected_platform=doc["selected_platform"],
                         config=config)


def profile_digest(profile: DesignProfile) -> str:
    """Content hash of a profile, independent of where its files live: the
    sha256 of its canonical JSON with each scenario's matrix (basis and
    representative feature) replaced by the sha256 of its ``<f8`` bytes."""
    doc = _profile_doc(profile, lambda s, matrix: hashlib.sha256(
        np.ascontiguousarray(matrix, dtype="<f8")).hexdigest())
    return hashlib.sha256(_canonical_json(doc).encode()).hexdigest()


# --------------------------------------------------------------------------
# combo/platform capability files (Table-II-shaped)

def write_platforms(path, combos: list[AlgoParamCombo],
                    platforms: list[PlatformSpec]) -> None:
    Path(path).write_text(_canonical_json({
        "format_version": FORMAT_VERSION,
        "combos": [_record_doc(c) for c in combos],
        "platforms": [_record_doc(p) for p in platforms]}))


def read_platforms(path) -> tuple[list[AlgoParamCombo], list[PlatformSpec]]:
    """The combos and platforms in ``path``; a capability of a combo id that
    no combo has raises ManifestInvalid naming the platform and the id."""
    doc = _read_doc(path, _PLATFORMS_KEYS)
    combos = _entries(doc, "combos", partial(_record, AlgoParamCombo), path)
    platforms = _entries(doc, "platforms", partial(_record, PlatformSpec),
                         path)
    ids = {c.id for c in combos}
    for i, p in enumerate(platforms):
        for cid in p.combo_capabilities:
            if cid not in ids:
                raise ManifestInvalid(
                    f"{path}: platforms[{i}]: combo_capabilities[{cid!r}]: "
                    "no combo has this id")
    return combos, platforms


# --------------------------------------------------------------------------
# selection traces (JSON lines + CSV projection)

def write_trace(path, trace: SelectionTrace) -> None:
    lines = [json.dumps({
        "format_version": FORMAT_VERSION,
        "kind": "adasel-trace",
        "profile_reference": trace.profile_reference,
    }, sort_keys=True)]
    lines += [json.dumps(_record_doc(d), sort_keys=True)
              for d in trace.decisions]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> SelectionTrace:
    """Parse a trace; a line that is not a JSON object, lacks a key or holds
    a value of the wrong type raises MalformedRow naming ``path:line``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise MalformedRow(f"{path}: empty trace")
    where = f"{path}:1"
    header = _json_object(lines[0], where, MalformedRow)
    _check_version(header, where, MalformedRow)
    _require(header, {"profile_reference": _STR}, where, MalformedRow)
    decisions = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        decisions.append(_record(SelectionDecision, _json_object(
            line, where, MalformedRow), where, MalformedRow))
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
    """Parse window truth under the rules of ``_table_rows``; the rows of one
    window must agree on its true scenario id, an optional fourth column."""
    _, rows = _table_rows(path, dict(window_id=int, combo_id=str))
    by_window: dict[int, WindowTruth] = {}
    first_line: dict[int, int] = {}
    for lineno, (wid, cid), error, rest in rows:
        sid = rest[0] if rest and rest[0] else None
        truth = by_window.setdefault(
            wid, WindowTruth(window_id=wid, true_scenario_id=sid, errors={}))
        first_line.setdefault(wid, lineno)
        if sid != truth.true_scenario_id:
            raise Misaligned(
                f"{path}:{lineno}: window {wid} has true_scenario_id "
                f"{sid!r}, but line {first_line[wid]} gave "
                f"{truth.true_scenario_id!r}")
        truth.errors[cid] = error
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

def read_synth_config(path) -> SyntheticConfig:
    """The SyntheticConfig in a JSON file, error_model's keys read as (i, h)
    pairs from their one spelling, ``f"{i},{h}"`` (not ``0, 1`` or ``0,01``);
    every error is a ConfigInvalid naming the file."""
    doc = _json_object(Path(path).read_text(), path, ConfigInvalid)
    known = {f.name for f in dataclasses.fields(SyntheticConfig)}
    try:
        if unknown := set(doc) - known:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        if type(model := doc.get("error_model")) is dict:
            for key in model:
                if not re.fullmatch(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", key):
                    raise ConfigInvalid(f"error_model key {key!r} is not "
                                        "'scenario,combo' in plain digits")
            doc["error_model"] = {tuple(map(int, key.split(","))): value
                                  for key, value in model.items()}
        return SyntheticConfig(**doc)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from None
