"""Versioned binary serialization of comparator models.

Layout (all integers little-endian):

    magic           4 bytes  b"KINC"
    version         u16      2; version 1 files still load
    input_dim       u32
    hidden          u32
    n_experts       u32
    activation      u8       0 lrelu, 1 relu, 2 prelu, 3 tanh
    sharing         u8       0 per-expert, 1 shared-trunk, 2 entirely-local
    has_attention   u8       0 or 1
    has_threshold   u8       0 or 1
    dropout_p       f64
    threshold       f64      in [0, 1]; +0.0 when has_threshold = 0
    relations       n_experts x (u8 length + ascii relation code, e.g. BB)
    payload         parameter arrays, row-major f64, in param_layout order
    crc32           u32      zlib.crc32 of every byte before it (version 1:
                             of the payload bytes only)

``_check_header`` holds every header rule. The writer runs it before it
writes a byte, so it never writes a file that would not load; the reader
runs it before the checksum, so each header fault keeps its own message.
Shapes come from the header, never from the file body, and a model is
built only after every check passes.
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

MAGIC = b"KINC"
VERSION = 2
# the fields from version to threshold, in layout order
_HEADER = struct.Struct("<HIIIBBBBdd")

# a header code is the position in its tuple
_ACTIVATIONS = (Activation.LRELU, Activation.RELU, Activation.PRELU, Activation.TANH)
_SHARINGS = (SharingMode.PER_EXPERT, SharingMode.SHARED_TRUNK, SharingMode.ENTIRELY_LOCAL)


class ModelFormatError(ValueError):
    """Unreadable or corrupt model file."""


def _check_header(fixed: tuple, relations: tuple[str, ...]) -> ComparatorConfig:
    """Apply every header rule; return the header's config or raise ModelFormatError."""
    version, input_dim, hidden, _, act, sharing, has_attention, has_threshold, dropout_p, threshold = fixed
    if version not in (1, VERSION):
        raise ModelFormatError(f"unsupported model version {version}")
    if act >= len(_ACTIVATIONS):
        raise ModelFormatError(f"unknown activation code {act}")
    if sharing >= len(_SHARINGS):
        raise ModelFormatError(f"unknown sharing code {sharing}")
    for name, flag in (("has_attention", has_attention), ("has_threshold", has_threshold)):
        if flag not in (0, 1):
            raise ModelFormatError(f"{name} flag byte is {flag}, not 0 or 1")
    if has_threshold and not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise ModelFormatError(f"stored threshold {threshold} is not in [0, 1]")
    if not has_threshold and struct.pack("<d", threshold) != bytes(8):  # the writer's +0.0
        raise ModelFormatError(f"threshold field is {threshold!r} but has_threshold is 0")
    try:
        return ComparatorConfig(
            input_dim=input_dim,
            hidden=hidden,
            activation=_ACTIVATIONS[act],
            dropout_p=dropout_p,
            sharing=_SHARINGS[sharing],
            relations=relations,
        )
    except ValueError as exc:
        raise ModelFormatError(f"invalid model header: {exc}") from None


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"non-finite values in parameter {name}")
    return arr


def serialize_model(params: ComparatorParams) -> bytes:
    """Version-2 bytes of ``params``; raises ValueError for a model the reader would refuse."""
    cfg = params.config
    has_threshold = params.threshold is not None
    fixed = (
        VERSION, cfg.input_dim, cfg.hidden, cfg.n_experts,
        _ACTIVATIONS.index(cfg.activation), _SHARINGS.index(cfg.sharing),
        int(params.has_attention), int(has_threshold),
        cfg.dropout_p, params.threshold if has_threshold else 0.0,  # keeps -0.0
    )
    _check_header(fixed, cfg.relations)
    blob = bytearray(MAGIC + _HEADER.pack(*fixed))
    for code in cfg.relations:
        blob += bytes([len(code)]) + code.encode("ascii")
    for name, shape in param_layout(cfg, params.has_attention):
        arr = params.values[name]
        if arr.shape != shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, expected {shape}")
        blob += np.ascontiguousarray(_finite(name, arr), dtype="<f8").tobytes()
    return bytes(blob + struct.pack("<I", zlib.crc32(blob)))


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
    fixed = _HEADER.unpack(take(_HEADER.size, "header"))
    relations = []  # latin-1 decodes any byte; ComparatorConfig rejects an unknown code
    for i in range(fixed[3]):
        length = take(1, f"relation {i} length")[0]
        relations.append(bytes(take(length, f"relation {i}")).decode("latin-1"))
    config = _check_header(fixed, tuple(relations))
    has_attention, has_threshold, threshold = fixed[6], fixed[7], fixed[9]

    layout = param_layout(config, bool(has_attention))
    payload_len = sum(math.prod(shape) * 8 for _, shape in layout)  # Python ints: no wrap
    payload = take(payload_len, "parameter payload")
    covered = view[:pos] if fixed[0] == VERSION else payload
    (stored_crc,) = struct.unpack("<I", take(4, "checksum"))
    if pos != len(view):
        raise ModelFormatError(f"{len(view) - pos} trailing bytes after checksum")
    if zlib.crc32(covered) != stored_crc:
        raise ModelFormatError("checksum mismatch")

    views = _flat_views(np.frombuffer(payload, dtype="<f8"), layout)
    values = {name: _finite(name, view.astype(np.float64)) for name, view in views.items()}
    return ComparatorParams(
        config=config,
        values=values,
        threshold=threshold if has_threshold else None,
    )


def load_model(path: str | Path) -> ComparatorParams:
    return deserialize_model(Path(path).read_bytes())
