import numpy as np
import numpy.testing as npt
import pytest

from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    SharingMode,
    add_attention_head,
    init_params,
)
from kinverify.model_io import (
    ModelFormatError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)


def configs():
    yield ComparatorConfig(input_dim=8, hidden=3, dropout_p=0.0, relations=("BB", "FD"))
    yield ComparatorConfig(
        input_dim=16,
        hidden=4,
        activation=Activation.PRELU,
        sharing=SharingMode.SHARED_TRUNK,
        relations=("BB", "FD", "MS"),
    )
    yield ComparatorConfig(
        input_dim=8, hidden=2, sharing=SharingMode.ENTIRELY_LOCAL, relations=("BB", "SS")
    )
    yield ComparatorConfig(input_dim=1024)


def test_roundtrip_bit_exact(tmp_path):
    for i, config in enumerate(configs()):
        params = init_params(config, seed=i)
        if i % 2 == 0:
            params = add_attention_head(params)
            params.threshold = 0.625
        path = tmp_path / f"model{i}.kinc"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.config == params.config
        assert loaded.threshold == params.threshold
        assert set(loaded.values) == set(params.values)
        for key in params.values:
            npt.assert_array_equal(loaded.values[key], params.values[key])
        # serializing the loaded model reproduces the file byte for byte
        assert serialize_model(loaded) == path.read_bytes()


def test_header_drives_shapes(tmp_path):
    params = init_params(ComparatorConfig(input_dim=1024), seed=0)
    path = tmp_path / "m.kinc"
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.values["expert0.W1"].shape == (192, 1024)
    assert loaded.values["expert5.W1"].shape == (192, 192)
    assert loaded.values["expert5.W2"].shape == (1, 192)


def test_corrupt_magic_rejected():
    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=("BB",)), seed=0)
    blob = bytearray(serialize_model(params))
    blob[:4] = b"XXXX"
    with pytest.raises(ModelFormatError, match="magic"):
        deserialize_model(bytes(blob))


def test_bad_version_rejected():
    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=("BB",)), seed=0)
    blob = bytearray(serialize_model(params))
    blob[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(ModelFormatError, match="version"):
        deserialize_model(bytes(blob))


def test_truncation_rejected():
    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=("BB",)), seed=0)
    blob = serialize_model(params)
    for cut in (3, 10, len(blob) - 5, len(blob) - 1):
        with pytest.raises(ModelFormatError):
            deserialize_model(blob[:cut])


def test_payload_corruption_fails_checksum():
    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=("BB",)), seed=0)
    blob = bytearray(serialize_model(params))
    blob[-20] ^= 0xFF  # flip a payload byte, keep length intact
    with pytest.raises(ModelFormatError, match="checksum"):
        deserialize_model(bytes(blob))


def test_trailing_garbage_rejected():
    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=("BB",)), seed=0)
    blob = serialize_model(params) + b"extra"
    with pytest.raises(ModelFormatError, match="trailing"):
        deserialize_model(blob)


def test_load_failure_leaves_no_file_side_effects(tmp_path):
    # a corrupt file raises before any params object exists
    path = tmp_path / "bad.kinc"
    path.write_bytes(b"KIN")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_stored_threshold_outside_unit_interval_rejected():
    import struct

    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=("BB",)), seed=0)
    params.threshold = 0.5
    blob = serialize_model(params)
    offset = 4 + 2 + 12 + 4 + 8  # magic, version, dims, flags, dropout
    assert struct.unpack_from("<d", blob, offset)[0] == 0.5
    for bad in (float("nan"), -0.25, 1.5, float("inf")):
        corrupt = bytearray(blob)
        struct.pack_into("<d", corrupt, offset, bad)
        with pytest.raises(ModelFormatError, match="threshold"):
            deserialize_model(bytes(corrupt))
    for edge in (0.0, 1.0):
        ok = bytearray(blob)
        struct.pack_into("<d", ok, offset, edge)
        assert deserialize_model(bytes(ok)).threshold == edge


def test_failed_save_leaves_old_file_intact(tmp_path, monkeypatch):
    import os

    config = ComparatorConfig(input_dim=8, hidden=2, relations=("BB", "FD"))
    path = tmp_path / "model.kinc"
    save_model(init_params(config, seed=0), path)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    replacement = init_params(config, seed=1)
    replacement.threshold = 0.75
    with pytest.raises(OSError, match="disk full"):
        save_model(replacement, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.kinc"]  # no temp file left
    monkeypatch.undo()
    save_model(replacement, path)
    assert load_model(path).threshold == 0.75


def _header_blob(relations=("BB", "FD")):
    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=relations), seed=0)
    return serialize_model(params)


FLAGS = 4 + 2 + 12  # magic, version, dims: then activation, sharing, has_attention, has_threshold
RELATIONS = FLAGS + 4 + 16  # flags, dropout, threshold: then (length, code) per relation


def test_non_ascii_relation_code_rejected():
    blob = bytearray(_header_blob())
    assert blob[RELATIONS : RELATIONS + 3] == b"\x02BB"
    blob[RELATIONS + 1] = 0xC3  # a non-ASCII byte
    with pytest.raises(ModelFormatError, match="relation 0"):
        deserialize_model(bytes(blob))


def test_unknown_relation_code_rejected():
    blob = bytearray(_header_blob())
    blob[RELATIONS + 1 : RELATIONS + 3] = b"XX"
    with pytest.raises(ModelFormatError, match="XX"):
        deserialize_model(bytes(blob))


@pytest.mark.parametrize("flag", ["has_attention", "has_threshold"])
def test_flag_bytes_other_than_zero_and_one_rejected(flag):
    offset = FLAGS + (2 if flag == "has_attention" else 3)
    blob = _header_blob()
    assert blob[offset] == 0
    for bad in (2, 0x80, 0xFF):
        corrupt = bytearray(blob)
        corrupt[offset] = bad
        with pytest.raises(ModelFormatError, match=flag):
            deserialize_model(bytes(corrupt))
