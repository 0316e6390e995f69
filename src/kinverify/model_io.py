"""Versioned binary serialization of comparator models.

Layout (all integers little-endian):

    magic           4 bytes  b"KINC"
    version         u16      currently 1
    input_dim       u32
    hidden          u32
    n_experts       u32
    activation      u8       0 lrelu, 1 relu, 2 prelu, 3 tanh
    sharing         u8       0 per-expert, 1 shared-trunk, 2 entirely-local
    has_attention   u8       0 or 1
    has_threshold   u8       0 or 1
    dropout_p       f64
    threshold       f64      +0.0 when has_threshold = 0
    relations       n_experts x (u8 length + ascii relation code, e.g. BB)
    payload         parameter arrays, row-major f64, in param_layout order
    crc32           u32      zlib.crc32 of the payload bytes

Shapes are derived from the header, never trusted from the file body, and
a model is materialized only after every check passes, so a corrupt file
can never leave partial state behind.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    SharingMode,
    _flat_views,
    param_layout,
)
from .data import _atomic_open
from .relations import KinshipRelation

MAGIC = b"KINC"
VERSION = 1

# a header code is the position in its tuple
_ACTIVATIONS = (Activation.LRELU, Activation.RELU, Activation.PRELU, Activation.TANH)
_SHARINGS = (SharingMode.PER_EXPERT, SharingMode.SHARED_TRUNK, SharingMode.ENTIRELY_LOCAL)
_RELATION_CODES = frozenset(r.value.encode("ascii") for r in KinshipRelation)


class ModelFormatError(ValueError):
    """Unreadable or corrupt model file."""


def serialize_model(params: ComparatorParams) -> bytes:
    cfg = params.config
    head = bytearray()
    head += MAGIC
    head += struct.pack("<H", VERSION)
    head += struct.pack("<III", cfg.input_dim, cfg.hidden, cfg.n_experts)
    head += struct.pack(
        "<BBBB",
        _ACTIVATIONS.index(cfg.activation),
        _SHARINGS.index(cfg.sharing),
        1 if params.has_attention else 0,
        1 if params.threshold is not None else 0,
    )
    threshold = params.threshold if params.threshold is not None else 0.0  # keeps -0.0
    head += struct.pack("<dd", cfg.dropout_p, threshold)
    for code in cfg.relations:
        raw = code.encode("ascii")
        head += struct.pack("<B", len(raw)) + raw

    payload = bytearray()
    for name, shape in param_layout(cfg, params.has_attention):
        arr = params.values[name]
        if arr.shape != shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, expected {shape}")
        payload += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return bytes(head) + bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)))


def save_model(params: ComparatorParams, path: str | Path) -> None:
    """Write the model atomically: a temp file in the same directory, then a rename.

    A crash or a failed write leaves any existing file at ``path`` as it was.
    """
    blob = serialize_model(params)
    with _atomic_open(path, "wb") as fh:
        fh.write(blob)


def deserialize_model(blob: bytes) -> ComparatorParams:
    view = memoryview(blob)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ModelFormatError(f"truncated file while reading {what}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4, "magic")) != MAGIC:
        raise ModelFormatError("bad magic bytes, not a comparator model file")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    input_dim, hidden, n_experts = struct.unpack("<III", take(12, "dimensions"))
    act_code, sharing_code, has_attention, has_threshold = struct.unpack(
        "<BBBB", take(4, "flags")
    )
    if act_code >= len(_ACTIVATIONS):
        raise ModelFormatError(f"unknown activation code {act_code}")
    if sharing_code >= len(_SHARINGS):
        raise ModelFormatError(f"unknown sharing code {sharing_code}")
    for name, flag in (("has_attention", has_attention), ("has_threshold", has_threshold)):
        if flag not in (0, 1):
            raise ModelFormatError(f"{name} flag byte is {flag}, not 0 or 1")
    dropout_p, threshold = struct.unpack("<dd", take(16, "dropout/threshold"))
    if has_threshold and not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise ModelFormatError(f"stored threshold {threshold} is not in [0, 1]")
    if not has_threshold and struct.pack("<d", threshold) != bytes(8):  # the writer's +0.0
        raise ModelFormatError(f"threshold field is {threshold!r} but has_threshold is 0")
    relations = []
    for i in range(n_experts):
        (length,) = struct.unpack("<B", take(1, f"relation {i} length"))
        code = bytes(take(length, f"relation {i}"))
        if code not in _RELATION_CODES:
            raise ModelFormatError(f"relation {i} has unknown code {code!r}")
        relations.append(code.decode("ascii"))

    try:
        config = ComparatorConfig(
            input_dim=input_dim,
            hidden=hidden,
            activation=_ACTIVATIONS[act_code],
            dropout_p=dropout_p,
            sharing=_SHARINGS[sharing_code],
            relations=tuple(relations),
        )
    except ValueError as exc:
        raise ModelFormatError(f"invalid model header: {exc}") from None

    layout = param_layout(config, bool(has_attention))
    payload_len = sum(math.prod(shape) * 8 for _, shape in layout)  # Python ints: no wrap
    payload = take(payload_len, "parameter payload")
    (stored_crc,) = struct.unpack("<I", take(4, "checksum"))
    if pos != len(view):
        raise ModelFormatError(f"{len(view) - pos} trailing bytes after checksum")
    if zlib.crc32(bytes(payload)) != stored_crc:
        raise ModelFormatError("payload checksum mismatch")

    views = _flat_views(np.frombuffer(payload, dtype="<f8"), layout)
    values = {name: view.astype(np.float64) for name, view in views.items()}
    for name, arr in values.items():
        if not np.isfinite(arr).all():
            raise ModelFormatError(f"non-finite values in parameter {name}")
    return ComparatorParams(
        config=config,
        values=values,
        threshold=threshold if has_threshold else None,
    )


def load_model(path: str | Path) -> ComparatorParams:
    return deserialize_model(Path(path).read_bytes())
