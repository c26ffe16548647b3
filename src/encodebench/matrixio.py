"""Bit-exact matrix and manifest I/O.

Binary matrix layout (extension ``.bbsm`` by convention):

    bytes 0-3    magic ``b"BBSM"``
    bytes 4-7    version, uint32 little-endian (currently 1)
    bytes 8-11   rows,    uint32 little-endian
    bytes 12-15  cols,    uint32 little-endian
    bytes 16-    rows*cols IEEE-754 float64 values, little-endian, row-major

NaN payloads are rejected on load and on save.

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
    DataError,
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
    """Load a matrix written by :func:`save_matrix`."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"matrix file not found: {path}")
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


def load_manifest(path) -> LoadedDataset:
    """Load a manifest and every matrix it references, validating consistency.
    Matrix paths resolve relative to the manifest's directory. A missing,
    unknown or mistyped key, in the manifest or in a feature space entry, is
    a ``ManifestError``."""
    path = Path(path)
    doc = read_json(path, ManifestError)
    try:
        return _dataset(path.parent, **doc)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: invalid manifest: {exc}") from exc


def _dataset(base: Path, dataset_name, feature_spaces, responses_path,
             sample_blocks, unit_participants, sample_categories=None,
             token_map=None) -> LoadedDataset:
    """The dataset a manifest document describes, one argument per key."""
    if not isinstance(dataset_name, str):
        raise TypeError(f"dataset_name must be a string, got {dataset_name!r}")
    responses = load_matrix(base / responses_path)
    n_samples, n_units = responses.shape
    blocks = _labels("sample_blocks", sample_blocks, n_samples)
    try:
        block_runs(blocks)
    except DataError as exc:
        raise ManifestError(f"sample_blocks must label contiguous runs: {exc}") from exc
    participants = _labels("unit_participants", unit_participants, n_units)
    if sample_categories is not None:
        sample_categories = _labels("sample_categories", sample_categories, n_samples)
    if token_map is not None:
        token_map = _labels("token_map", token_map)
    features = [_feature(base, token_map, n_samples, **spec)
                for spec in feature_spaces]
    return LoadedDataset(dataset_name, features, NeuralRecording(
        responses, participants, blocks, sample_categories))


def _labels(key: str, values, length: Optional[int] = None) -> np.ndarray:
    """``values``, a list of integers, as int64; ``length`` of them when set."""
    labels = np.asarray(values)
    if labels.ndim != 1 or labels.dtype.kind != "i":
        raise ValueError(f"{key} must be a list of integers")
    if length is not None and labels.size != length:
        raise ValueError(f"{key} has length {labels.size}, expected {length}")
    return labels.astype(np.int64)


def _feature(base: Path, token_map, n_samples: int, name, path,
             band_group) -> FeatureSpace:
    """One feature space entry, sum-pooled by the token map when its rows are
    tokens."""
    if not all(isinstance(v, str) for v in (name, path, band_group)):
        raise TypeError("a feature space entry's name, path and band_group "
                        f"are strings, got {[name, path, band_group]!r}")
    data = load_matrix(base / path)
    if token_map is not None and data.shape[0] == token_map.size != n_samples:
        data = sum_pool(data, token_map)
    if data.shape[0] != n_samples:
        raise ManifestError(
            f"feature space {name!r} has {data.shape[0]} rows after "
            f"pooling, responses have {n_samples}"
        )
    return FeatureSpace(name, data, band_group)


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
