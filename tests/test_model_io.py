import hashlib
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    SharingMode,
    add_attention_head,
    init_params,
)
from kinverify.relations import RELATION_ORDER, KinshipRelation
from kinverify.model_io import (
    ModelFormatError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from oracles import serialize_model_v1


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
        params.threshold = edge
        assert deserialize_model(serialize_model(params)).threshold == edge


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


# signed zeros, the smallest subnormal, a mid subnormal, the smallest normal
# and the largest finite double, each with both signs
ADVERSARIAL = [
    sign * x
    for x in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308)
    for sign in (1.0, -1.0)
]


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@st.composite
def models(draw):
    """A small model of every activation, sharing, attention and threshold kind."""
    codes = draw(st.permutations([r.value for r in RELATION_ORDER]))
    in_unit = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0]) | st.floats(0.0, 1.0)
    config = ComparatorConfig(
        input_dim=2 * draw(st.integers(1, 3)),
        hidden=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(Activation)),
        dropout_p=draw(in_unit.filter(lambda p: p < 1.0)),
        sharing=draw(st.sampled_from(SharingMode)),
        relations=tuple(codes[: draw(st.integers(1, 3))]),
    )
    params = init_params(config, seed=0)
    if draw(st.booleans()):
        params = add_attention_head(params)
    palette = draw(
        st.lists(
            st.sampled_from(ADVERSARIAL) | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for key, value in params.values.items():
        params.values[key] = rng.choice(np.array(palette), size=value.shape)
    params.threshold = draw(st.none() | in_unit)
    return params


@settings(max_examples=300, deadline=None)
@given(models())
def test_model_bytes_roundtrip_property(params):
    # every version-1 file, written by the reference writer, loads exactly too
    for serialize in (serialize_model, serialize_model_v1):
        blob = serialize(params)
        loaded = deserialize_model(blob)
        assert serialize(loaded) == blob
        assert loaded.config == params.config
        assert _bits(loaded.config.dropout_p) == _bits(params.config.dropout_p)
        if params.threshold is None:
            assert loaded.threshold is None
        else:
            assert _bits(loaded.threshold) == _bits(params.threshold)
        assert list(loaded.values) == list(params.values)
        for key, value in params.values.items():
            assert loaded.values[key].tobytes() == value.tobytes(), key


def test_header_sizes_beyond_the_file_are_rejected():
    # byte 13 is the high byte of `hidden`: 0xF0 asks for about 4e9 hidden units,
    # whose payload size no fixed-width integer product may wrap
    params = init_params(ComparatorConfig(input_dim=8, hidden=4), seed=0)
    blob = bytearray(serialize_model(params))
    blob[13] = 0xF0
    with pytest.raises(ModelFormatError, match="truncated file while reading parameter payload"):
        deserialize_model(bytes(blob))


@st.composite
def mutated_blobs(draw, serialize):
    """A valid model blob and a copy with 1-3 bytes overwritten, mostly in the header."""
    original = serialize(draw(models()))
    blob = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, min(79, len(blob) - 1)) | st.integers(0, len(blob) - 1))
        blob[at] = draw(st.integers(0, 255))
    return original, bytes(blob)


@settings(max_examples=500, deadline=None)
@given(mutated_blobs(serialize_model_v1))
def test_mutated_model_blob_loads_exactly_or_fails_as_format_error(blobs):
    # version 1's checksum covers only the payload, so a header change may load
    _, blob = blobs
    try:
        loaded = deserialize_model(blob)
    except ModelFormatError:
        return
    assert serialize_model_v1(loaded) == blob


@settings(max_examples=500, deadline=None)
@given(mutated_blobs(serialize_model))
def test_mutated_v2_model_blob_fails_as_format_error(blobs):
    original, blob = blobs
    assume(blob != original)
    with pytest.raises(ModelFormatError):
        deserialize_model(blob)


def test_threshold_field_must_be_zero_without_a_threshold():
    # a blob without a threshold that stores one anyway would not survive a save
    params = init_params(ComparatorConfig(input_dim=8, hidden=4), seed=0)
    blob = bytearray(serialize_model(params))
    blob[30] = 0x01  # the low byte of the threshold double: 5e-324
    with pytest.raises(ModelFormatError, match="but has_threshold is 0"):
        deserialize_model(bytes(blob))


# sha256 of the version-1 file below as the version-1 writer wrote it: the reference
# writer in oracles.py must keep producing exactly these bytes
V1_SHA256 = "922265c2d071cdb21bb6d3318f867b08b2e654c26aac31fc09f0fe7e3ac41fb2"


def test_version_1_oracle_matches_the_version_1_writer():
    config = ComparatorConfig(
        input_dim=4,
        hidden=2,
        activation=Activation.PRELU,
        sharing=SharingMode.SHARED_TRUNK,
        relations=("FD", "BB", "MS"),
    )
    params = add_attention_head(init_params(config, seed=7))
    params.threshold = 0.625
    blob = serialize_model_v1(params)
    assert hashlib.sha256(blob).hexdigest() == V1_SHA256
    assert serialize_model(deserialize_model(blob)) == serialize_model(params)


@settings(max_examples=300, deadline=None)
@given(models(), st.floats())
def test_writer_refuses_every_threshold_the_reader_refuses(params, threshold):
    params.threshold = threshold
    try:
        blob = serialize_model(params)
    except ValueError:
        assert not 0.0 <= threshold <= 1.0
        return
    assert serialize_model(deserialize_model(blob)) == blob


@pytest.mark.parametrize("code", ["XX", "B\u00c9", "B" * 300])
def test_config_rejects_relation_codes_outside_the_eleven(code):
    with pytest.raises(ValueError, match="relation 1: unknown relation code"):
        ComparatorConfig(input_dim=8, relations=("BB", code))


@pytest.mark.parametrize(
    "relations, position",
    [((KinshipRelation.BB,), 0), (("BB", KinshipRelation.BB), 1)],
)
def test_config_rejects_relation_members_by_position(relations, position):
    # a member is no code: the model writer and relation_position take strings
    with pytest.raises(ValueError, match=f"relation {position}: .* is not a relation code string"):
        ComparatorConfig(input_dim=8, hidden=2, relations=relations)


def test_non_finite_parameters_are_neither_written_nor_read():
    params = init_params(ComparatorConfig(input_dim=8, hidden=2, relations=("BB", "FD")), seed=0)
    params.values["expert1.b1"][1] = np.nan
    with pytest.raises(ModelFormatError, match="non-finite values in parameter expert1.b1"):
        serialize_model(params)
    with pytest.raises(ModelFormatError, match="non-finite values in parameter expert1.b1"):
        deserialize_model(serialize_model_v1(params))
