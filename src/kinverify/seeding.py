"""Deterministic derivation of every random stream in the package.

All randomness flows through ``derive_rng``. A stream is identified by a
base seed, a stream tag and optional extra integers (epoch number, family
index), mixed as ``numpy.random.SeedSequence([base_seed, tag, *extra])``.
Two runs with the same base seed therefore replay bit-identically, while
distinct tags never collide. ``DEFAULT_SEED`` is every config's default.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 4

STREAM_GENDER_AXIS = 0
STREAM_FAMILY = 1
STREAM_RESAMPLE = 2
STREAM_SHUFFLE = 3
STREAM_DROPOUT = 4
STREAM_INIT = 5
STREAM_TRI = 6


def derive_rng(base_seed: int, stream: int, *extra: int) -> np.random.Generator:
    """Return a fresh generator for (base_seed, stream, *extra)."""
    if base_seed < 0:
        raise ValueError(f"seed must be non-negative, got {base_seed}")
    return np.random.default_rng(np.random.SeedSequence([base_seed, stream, *extra]))
