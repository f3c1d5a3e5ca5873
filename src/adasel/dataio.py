"""File formats: binary matrices, stream manifests, tables, profiles, traces.

All formats round-trip exactly.  Matrices use a fixed little-endian binary
layout (magic ``ADSLMAT1``, u64 rows, u64 cols, row-major f64 payload);
JSON documents are written with sorted keys and repr-exact floats so that
identical inputs produce byte-identical files.  Versioned documents carry
``format_version`` and readers reject versions newer than they understand.
Version 3 profiles store only what selection reads.  Versions 1 and 2 still
load; their complement sidecars, performance table, catalog, seed and
constraints are not read.
"""

from __future__ import annotations

import csv
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
from .errors import (BadMagic, DimensionMismatch, DimensionOverflow,
                     DuplicateKey, MalformedRow, ManifestInvalid,
                     NegativeError, TruncatedPayload, UnsupportedVersion)
from .subspace import SubspaceBasis

MATRIX_MAGIC = b"ADSLMAT1"
FORMAT_VERSION = 3
# rows * cols * 8 beyond this cannot be a real file; reject before allocating
MAX_PAYLOAD_BYTES = 1 << 62

CANONICAL_EXTRAS = ("MT", "ML", "IDS", "FP")


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


def _read_doc(path, keys) -> dict:
    """The versioned JSON object in ``path``; it must hold every key in keys."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ManifestInvalid(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ManifestInvalid(f"{path}: expected a JSON object")
    _check_version(doc, path)
    for key in keys:
        if key not in doc:
            raise ManifestInvalid(f"{path}: missing key {key!r}")
    return doc


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
    doc = _read_doc(manifest_path, ("dim", "frame_count", "matrices"))
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
    extra_keys = [k for k in CANONICAL_EXTRAS
                  if any(k in r.extras for r in records)]
    other = sorted({k for r in records for k in r.extras}
                   - set(CANONICAL_EXTRAS))
    extra_keys += other
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario_id", "combo_id", "platform_id", "error",
                     *extra_keys])
    for r in records:
        row = [r.scenario_id, r.combo_id, r.platform_id, repr(float(r.error))]
        row += [repr(float(r.extras[k])) if k in r.extras else ""
                for k in extra_keys]
        writer.writerow(row)
    Path(path).write_text(buf.getvalue())


def read_performance_table(path) -> list[PerformanceRecord]:
    """Parse a performance CSV; rejects duplicates and negative errors.

    Header must start with scenario_id,combo_id,platform_id,error; any
    further columns are carried opaquely as extras.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(f"{path}: empty file") from None
        required = ["scenario_id", "combo_id", "platform_id", "error"]
        if [h.strip() for h in header[:4]] != required:
            raise MalformedRow(
                f"{path}: header must start with {','.join(required)}")
        extra_keys = [h.strip() for h in header[4:]]

        records = []
        seen: dict[tuple, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise MalformedRow(
                    f"{path}:{lineno}: expected {len(header)} columns, "
                    f"got {len(row)}")
            sid, cid, pid = (c.strip() for c in row[:3])
            if not sid or not cid or not pid:
                raise MalformedRow(f"{path}:{lineno}: empty id field")
            try:
                error = float(row[3])
            except ValueError:
                raise MalformedRow(
                    f"{path}:{lineno}: bad error value {row[3]!r}") from None
            if error < 0.0:
                raise NegativeError(
                    f"{path}:{lineno}: error must be >= 0, got {error}")
            key = (sid, cid, pid)
            if key in seen:
                raise DuplicateKey(
                    f"{path}:{lineno}: duplicate triple {key} "
                    f"(first seen at line {seen[key]})")
            seen[key] = lineno
            extras = {}
            for k, cell in zip(extra_keys, row[4:]):
                cell = cell.strip()
                if cell:
                    try:
                        extras[k] = float(cell)
                    except ValueError:
                        raise MalformedRow(
                            f"{path}:{lineno}: bad {k} value {cell!r}") from None
            records.append(PerformanceRecord(
                scenario_id=sid, combo_id=cid, platform_id=pid,
                error=error, extras=extras))
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
    doc = _read_doc(path, ("config", "scenarios"))
    cfg = doc["config"]
    config = ProfileConfig(
        dim_ambient=cfg["dim_ambient"], dim_subspace=cfg["dim_subspace"],
        window_length=cfg["window_length"])
    shape = (config.dim_ambient, config.dim_subspace)
    scenarios = []
    for s in doc["scenarios"]:
        basis_path = path.parent / s["basis_file"]
        subspace = SubspaceBasis(read_matrix(basis_path))
        if subspace.basis.shape != shape:
            raise DimensionMismatch(
                f"{basis_path}: basis has shape {subspace.basis.shape}; "
                f"the profile config needs {shape}")
        subspace.validate(tol=1e-8)
        feature = np.asarray(s["representative_feature"], dtype=np.float64)
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
    doc = _read_doc(path, ("combos", "platforms"))
    combos = [AlgoParamCombo(id=c["id"], algorithm=c["algorithm"],
                             fps=c["fps"], resolution=tuple(c["resolution"]))
              for c in doc["combos"]]
    platforms = [PlatformSpec(id=p["id"], cost=p["cost"],
                              combo_capabilities=dict(p["combo_capabilities"]))
                 for p in doc["platforms"]]
    return combos, platforms


# --------------------------------------------------------------------------
# selection traces (JSON lines + CSV projection)

def write_trace(path, trace) -> None:
    lines = [json.dumps({
        "format_version": FORMAT_VERSION,
        "kind": "adasel-trace",
        "profile_reference": trace.profile_reference,
    }, sort_keys=True)]
    for d in trace.decisions:
        lines.append(json.dumps({
            "window_id": d.window_id,
            "matched_scenario_id": d.matched_scenario_id,
            "similarity": float(d.similarity),
            "all_similarities": [float(v) for v in d.all_similarities],
            "chosen_combo_id": d.chosen_combo_id,
            "platform_id": d.platform_id,
            "elapsed_ms": float(d.elapsed_ms),
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


_DECISION_FIELDS = ("window_id", "matched_scenario_id", "similarity",
                    "all_similarities", "chosen_combo_id", "platform_id",
                    "elapsed_ms")


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


def read_trace(path):
    """Parse a trace; a bad line raises MalformedRow naming ``path:line``."""
    from .runtime import SelectionDecision, SelectionTrace

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
        decisions.append(SelectionDecision(
            window_id=rec["window_id"],
            matched_scenario_id=rec["matched_scenario_id"],
            similarity=rec["similarity"],
            all_similarities=np.asarray(rec["all_similarities"]),
            chosen_combo_id=rec["chosen_combo_id"],
            platform_id=rec["platform_id"], elapsed_ms=rec["elapsed_ms"]))
    return SelectionTrace(decisions=decisions,
                          profile_reference=header["profile_reference"])


def write_trace_csv(path, trace) -> None:
    """Plot-friendly projection: one row per window decision."""
    lines = ["window_id,combo_id,similarity"]
    lines += [f"{d.window_id},{d.chosen_combo_id},{repr(float(d.similarity))}"
              for d in trace.decisions]
    Path(path).write_text("\n".join(lines) + "\n")
