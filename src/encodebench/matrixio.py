"""Bit-exact matrix and manifest I/O.

Binary matrix layout (extension ``.bbsm`` by convention):

    bytes 0-3    magic ``b"BBSM"``
    bytes 4-7    version, uint32 little-endian (currently 1)
    bytes 8-11   rows,    uint32 little-endian
    bytes 12-15  cols,    uint32 little-endian
    bytes 16-    rows*cols IEEE-754 float64 values, little-endian, row-major

NaN payloads are rejected on load and on save. Headerless CSV
(comma-separated float64, one row per line) is additionally accepted for
small fixtures; parsing goes through ``float()`` so the conversion is exact.

Manifests are JSON documents tying feature matrices, a response matrix,
and the per-sample / per-unit labels together. Matrix paths are resolved
relative to the manifest's directory. Every JSON document the package reads
or writes goes through ``read_json`` and ``write_json``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ManifestError,
    MatrixDataError,
    MatrixFormatError,
    MatrixTruncationError,
)
from .features import FeatureSpace, block_runs, sum_pool

MAGIC = b"BBSM"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


def save_matrix(path, matrix) -> None:
    """Write a 2-D float64 matrix in the binary layout above."""
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise MatrixDataError(f"expected a 2-D matrix, got shape {arr.shape}")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise MatrixDataError("matrices must have at least one row and column")
    if np.isnan(arr).any():
        raise MatrixDataError("NaN values are not permitted in matrix files")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, rows, cols))
        fh.write(arr.astype("<f8", copy=False).tobytes())


def load_matrix(path) -> np.ndarray:
    """Load a matrix written by :func:`save_matrix` (or a headerless CSV)."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"matrix file not found: {path}")
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise MatrixFormatError(f"{path}: file shorter than the 16-byte header")
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise MatrixFormatError(f"{path}: unsupported version {version}")
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: header declares empty matrix {rows}x{cols}")
    expected = _HEADER.size + rows * cols * 8
    if len(raw) != expected:
        raise MatrixTruncationError(
            f"{path}: payload is {len(raw) - _HEADER.size} bytes, "
            f"expected {rows * cols * 8} for {rows}x{cols}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    out = data.reshape(rows, cols).astype(np.float64)
    if np.isnan(out).any():
        raise MatrixDataError(f"{path}: payload contains NaN values")
    return out


def _load_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            values = [float(tok) for tok in line.split(",")]
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise MatrixFormatError(
                    f"{path}:{lineno}: ragged row ({len(values)} vs {width} columns)"
                )
            rows.append(values)
    if not rows:
        raise MatrixFormatError(f"{path}: empty CSV matrix")
    out = np.array(rows, dtype=np.float64)
    if np.isnan(out).any():
        raise MatrixDataError(f"{path}: payload contains NaN values")
    return out


@dataclass
class NeuralRecording:
    """A sample x unit response matrix with its grouping labels."""

    responses: np.ndarray
    unit_participants: np.ndarray
    block_ids: np.ndarray
    categories: Optional[np.ndarray] = None

    @property
    def n_samples(self) -> int:
        return self.responses.shape[0]

    @property
    def n_units(self) -> int:
        return self.responses.shape[1]


@dataclass
class LoadedDataset:
    dataset_name: str
    features: list[FeatureSpace]
    recording: NeuralRecording


def read_json(path, error: type[Exception]):
    """The JSON document at ``path``; a missing file or invalid JSON raises
    ``error``."""
    path = Path(path)
    if not path.exists():
        raise error(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, doc) -> None:
    """Write ``doc`` with sorted keys, 2-space indent and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


_MANIFEST_KEYS = ("dataset_name", "feature_spaces", "responses_path",
                  "sample_blocks", "unit_participants")


def load_manifest(path) -> LoadedDataset:
    """Load a manifest and every matrix it references, validating consistency.
    Matrix paths resolve relative to the manifest's directory."""
    path = Path(path)
    doc = read_json(path, ManifestError)
    for key in _MANIFEST_KEYS:
        if key not in doc:
            raise ManifestError(f"{path}: missing required key {key!r}")
    unknown = set(doc) - set(_MANIFEST_KEYS) - {"sample_categories", "token_map"}
    if unknown:
        raise ManifestError(f"{path}: unknown keys {sorted(unknown)}")
    for spec in doc["feature_spaces"]:
        if set(spec) != {"name", "path", "band_group"}:
            raise ManifestError(f"{path}: a feature space entry has the keys "
                                f"band_group, name and path, not {sorted(spec)}")
    base = path.parent

    responses = load_matrix(base / doc["responses_path"])
    n_samples, n_units = responses.shape

    blocks = np.asarray(doc["sample_blocks"], dtype=np.int64)
    if blocks.shape != (n_samples,):
        raise ManifestError(
            f"sample_blocks has length {blocks.size}, responses have {n_samples} rows"
        )
    try:
        block_runs(blocks)
    except Exception as exc:
        raise ManifestError(f"sample_blocks must label contiguous runs: {exc}") from exc

    participants = np.asarray(doc["unit_participants"], dtype=np.int64)
    if participants.shape != (n_units,):
        raise ManifestError(
            f"unit_participants has length {participants.size}, "
            f"responses have {n_units} columns"
        )

    categories = None
    if doc.get("sample_categories") is not None:
        categories = np.asarray(doc["sample_categories"], dtype=np.int64)
        if categories.shape != (n_samples,):
            raise ManifestError("sample_categories length must match sample count")

    token_map = None
    if doc.get("token_map") is not None:
        token_map = np.asarray(doc["token_map"], dtype=np.int64)

    features = []
    for spec in doc["feature_spaces"]:
        data = load_matrix(base / spec["path"])
        if token_map is not None and data.shape[0] == token_map.size != n_samples:
            data = sum_pool(data, token_map)
        if data.shape[0] != n_samples:
            raise ManifestError(
                f"feature space {spec['name']!r} has {data.shape[0]} rows after "
                f"pooling, responses have {n_samples}"
            )
        features.append(FeatureSpace(spec["name"], data, spec["band_group"]))

    recording = NeuralRecording(
        responses=responses,
        unit_participants=participants,
        block_ids=blocks,
        categories=categories,
    )
    return LoadedDataset(doc["dataset_name"], features, recording)


def save_manifest(path, dataset_name: str, feature_specs: Sequence[dict],
                  responses_path: str, sample_blocks, unit_participants,
                  sample_categories=None, token_map=None) -> None:
    doc = {
        "dataset_name": dataset_name,
        "feature_spaces": list(feature_specs),
        "responses_path": responses_path,
        "sample_blocks": [int(b) for b in sample_blocks],
        "unit_participants": [int(p) for p in unit_participants],
    }
    if sample_categories is not None:
        doc["sample_categories"] = [int(c) for c in sample_categories]
    if token_map is not None:
        doc["token_map"] = [int(t) for t in token_map]
    write_json(path, doc)
