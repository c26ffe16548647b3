import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

import encodebench as eb
from encodebench.errors import (
    ManifestError,
    MatrixDataError,
    MatrixFormatError,
    MatrixTruncationError,
)


def test_round_trip_identity(tmp_path):
    path = tmp_path / "m.bbsm"
    original = np.array([[1.0, 2.0], [3.0, 4.0]])
    eb.save_matrix(path, original)
    loaded = eb.load_matrix(path)
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, original)


def test_header_layout(tmp_path):
    path = tmp_path / "m.bbsm"
    eb.save_matrix(path, np.zeros((3, 1)))
    raw = path.read_bytes()
    magic, version, rows, cols = struct.unpack_from("<4sIII", raw)
    assert magic == b"BBSM"
    assert version == 1
    assert (rows, cols) == (3, 1)
    assert len(raw) == 16 + 3 * 8
    np.testing.assert_array_equal(eb.load_matrix(path), np.zeros((3, 1)))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.bbsm"
    path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError):
        eb.load_matrix(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "m.bbsm"
    path.write_bytes(struct.pack("<4sIII", b"BBSM", 2, 1, 1) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError):
        eb.load_matrix(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.bbsm"
    path.write_bytes(struct.pack("<4sIII", b"BBSM", 1, 2, 2) + b"\x00" * 8)
    with pytest.raises(MatrixTruncationError):
        eb.load_matrix(path)


def test_nan_payload_rejected(tmp_path):
    path = tmp_path / "m.bbsm"
    payload = struct.pack("<d", float("nan"))
    path.write_bytes(struct.pack("<4sIII", b"BBSM", 1, 1, 1) + payload)
    with pytest.raises(MatrixDataError):
        eb.load_matrix(path)
    with pytest.raises(MatrixDataError):
        eb.save_matrix(tmp_path / "n.bbsm", np.array([[float("nan")]]))


@settings(max_examples=50, deadline=None)
@given(npst.arrays(
    dtype=np.float64,
    shape=npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
))
def test_save_load_is_identity(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("rt") / "m.bbsm"
    eb.save_matrix(path, matrix)
    np.testing.assert_array_equal(eb.load_matrix(path), matrix)


def test_csv_matrix_rejected(tmp_path):
    # matrices are read from the binary layout only, whatever the suffix
    path = tmp_path / "m.csv"
    path.write_text("1.5,2.25,8.0,16.0\n-3.0,4.125,0.5,1.0\n")
    with pytest.raises(MatrixFormatError, match="bad magic"):
        eb.load_matrix(path)


def _write_dataset(tmp_path, n_samples=8, n_units=3, blocks=None,
                   feature_rows=None, token_map=None):
    rng = np.random.default_rng(0)
    eb.save_matrix(tmp_path / "resp.bbsm", rng.standard_normal((n_samples, n_units)))
    rows = feature_rows or n_samples
    eb.save_matrix(tmp_path / "a.bbsm", rng.standard_normal((rows, 2)))
    eb.save_matrix(tmp_path / "b.bbsm", rng.standard_normal((n_samples, 4)))
    doc = {
        "dataset_name": "toy",
        "feature_spaces": [
            {"name": "A", "path": "a.bbsm", "band_group": "a"},
            {"name": "B", "path": "b.bbsm", "band_group": "b"},
        ],
        "responses_path": "resp.bbsm",
        "sample_blocks": [int(b) for b in (
            blocks if blocks is not None
            else np.repeat([0, 1, 2, 3], n_samples // 4))],
        "unit_participants": [0] * n_units,
    }
    if token_map is not None:
        doc["token_map"] = token_map
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def test_manifest_structural_echo(tmp_path):
    path = _write_dataset(tmp_path)
    dataset = eb.load_manifest(path)
    assert len(dataset.features) == 2
    assert dataset.features[0].n_samples == 8
    assert dataset.recording.n_samples == 8
    assert dataset.recording.n_units == 3
    assert [(fs.name, fs.band_group) for fs in dataset.features] == [
        ("A", "a"), ("B", "b")]


def test_manifest_row_mismatch(tmp_path):
    path = _write_dataset(tmp_path, feature_rows=9)
    with pytest.raises(ManifestError):
        eb.load_manifest(path)


def test_manifest_noncontiguous_blocks(tmp_path):
    path = _write_dataset(tmp_path, blocks=[0, 1, 0, 1, 2, 2, 3, 3])
    with pytest.raises(ManifestError):
        eb.load_manifest(path)


def test_manifest_token_map_pools_features(tmp_path):
    # feature A has 16 token rows pooled down to 8 samples
    path = _write_dataset(tmp_path, feature_rows=16,
                          token_map=[int(t) for t in np.repeat(np.arange(8), 2)])
    dataset = eb.load_manifest(path)
    raw = eb.load_matrix(tmp_path / "a.bbsm")
    assert dataset.features[0].name == "A"
    np.testing.assert_allclose(dataset.features[0].data, raw[0::2] + raw[1::2])


def test_manifest_missing_file(tmp_path):
    with pytest.raises(ManifestError):
        eb.load_manifest(tmp_path / "nope.json")


def test_manifest_wrong_label_lengths(tmp_path):
    path = _write_dataset(tmp_path)
    doc = json.loads(path.read_text())
    doc["sample_blocks"] = doc["sample_blocks"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        eb.load_manifest(path)


@pytest.mark.parametrize("entry", [False, True])
def test_manifest_unknown_key_rejected(tmp_path, entry):
    path = _write_dataset(tmp_path)
    doc = json.loads(path.read_text())
    (doc["feature_spaces"][0] if entry else doc)["sample_categorys"] = [0] * 8
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="sample_categorys"):
        eb.load_manifest(path)


@pytest.mark.parametrize("key, value", [
    ("sample_blocks", "abc"),
    ("unit_participants", [[0], [0, 1], 0]),
    ("feature_spaces", 5),
    ("responses_path", 5),
    ("token_map", "x"),
    ("sample_blocks", [0.5] * 8),
    ("dataset_name", 5),
    ("feature_spaces", [{"name": ["A"], "path": "a.bbsm", "band_group": "a"}]),
])
def test_manifest_mistyped_value_rejected(tmp_path, key, value):
    # each used to end in a TypeError or ValueError traceback, or to load
    # without a word: fractional block ids truncated to one block, and a
    # dataset or feature space name that is not a string
    path = _write_dataset(tmp_path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as info:
        eb.load_manifest(path)
    assert "\n" not in str(info.value)
