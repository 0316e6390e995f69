"""Cascaded local-expert comparator over concatenated embedding pairs.

One two-layer expert per kinship relation. Expert ``i`` maps its input
through a hidden layer of ``hidden`` neurons and squashes a single output
neuron to a probability:

    z1[0] = act(W1_0 @ drop(f_c) + b1_0)
    z1[i] = act(W1_i @ z1[i-1]   + b1_i)      for i >= 1
    z2[i] = sigmoid(W2_i @ z1[i] + b2_i)

so the first expert reads the concatenated feature and every later expert
refines the previous expert's hidden state. Three weight layouts are
supported: PER_EXPERT (each expert owns its hidden layer, the default),
SHARED_TRUNK (experts 1..n-1 share one hidden layer) and ENTIRELY_LOCAL
(every expert reads f_c directly, no cascade).

A model's expert order is its relation tuple; by default the canonical
relation order. Parameters live in a flat name->array dict whose key
inventory is a pure function of the config, which keeps initialization,
gradients, the optimizer and serialization in one canonical order.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import PairLabel, concat_features
from .relations import CANONICAL_RELATION_CODES, KinshipRelation
from .seeding import STREAM_INIT, derive_rng

LRELU_SLOPE = 0.2
PRELU_INIT_SLOPE = 0.25

# Rows per block of an eval-mode forward: its trace rows are cut every this many
# rows, and the remainder joins the last block, so a block holds 1,024 to 2,047
# rows unless the batch is smaller. An eval forward's memory stays bounded by a
# few blocks' arrays whatever the row count, and each GEMV covers fewer than
# 2,048 rows, below OpenBLAS's threading cut-off (2,400 rows at hidden 192), so
# eval scores do not depend on the BLAS thread count. Cache fit is not the
# reason: 512-row blocks moved score_eval throughput only within the noise.
EVAL_BLOCK_ROWS = 1024


class Activation(enum.Enum):
    LRELU = "lrelu"
    RELU = "relu"
    PRELU = "prelu"
    TANH = "tanh"


class SharingMode(enum.Enum):
    PER_EXPERT = "per-expert"
    SHARED_TRUNK = "shared-trunk"
    ENTIRELY_LOCAL = "entirely-local"


class PoolingMode(enum.Enum):
    SOFT_ATTENTION = "soft"
    HARD_ATTENTION = "hard"
    MEAN_POOL = "mean"
    MAX_POOL = "max"


@dataclass(frozen=True)
class ComparatorConfig:
    input_dim: int
    hidden: int = 192
    activation: Activation = Activation.LRELU
    dropout_p: float = 0.2
    sharing: SharingMode = SharingMode.PER_EXPERT
    relations: tuple[str, ...] = CANONICAL_RELATION_CODES

    def __post_init__(self):
        if self.input_dim < 2 or self.input_dim % 2 != 0:
            raise ValueError(f"input_dim must be an even integer >= 2, got {self.input_dim}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be positive, got {self.hidden}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if len(self.relations) < 1 or len(set(self.relations)) != len(self.relations):
            raise ValueError("relations must be a non-empty tuple of distinct codes")
        for i, code in enumerate(self.relations):
            if not isinstance(code, str):
                raise ValueError(f"relation {i}: {code!r} is not a relation code string")
            try:
                KinshipRelation.from_code(code)
            except ValueError as exc:
                raise ValueError(f"relation {i}: {exc}") from None

    @property
    def n_experts(self) -> int:
        return len(self.relations)

    def relation_position(self, relation: KinshipRelation | str) -> int:
        code = relation.value if isinstance(relation, KinshipRelation) else relation
        try:
            return self.relations.index(code)
        except ValueError:
            raise ValueError(f"relation {code!r} not handled by this model") from None


@dataclass(frozen=True)
class _HiddenLayer:
    """One hidden-layer slot: parameter keys plus where its input comes from."""

    w_key: str
    b_key: str
    prelu_key: str | None
    reads_input: bool  # True: concatenated feature; False: previous expert's z1


@functools.lru_cache(maxsize=64)
def hidden_layer_plan(config: ComparatorConfig) -> tuple[_HiddenLayer, ...]:
    """Hidden-layer wiring for each expert position under the sharing mode.

    Cached per config (frozen, hence hashable); the result is an immutable
    tuple, so every caller can share it.
    """
    prelu = config.activation is Activation.PRELU
    plan: list[_HiddenLayer] = []
    for i in range(config.n_experts):
        if config.sharing is SharingMode.ENTIRELY_LOCAL:
            name, reads_input = f"expert{i}", True
        elif config.sharing is SharingMode.SHARED_TRUNK and i > 0:
            name, reads_input = "trunk", False
        else:
            name, reads_input = f"expert{i}", i == 0
        plan.append(
            _HiddenLayer(
                w_key=f"{name}.W1",
                b_key=f"{name}.b1",
                prelu_key=f"{name}.prelu" if prelu else None,
                reads_input=reads_input,
            )
        )
    return tuple(plan)


def param_layout(config: ComparatorConfig, with_attention: bool = False) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) inventory for a config.

    The order fixes initialization draws and the serialized byte layout:
    one block per expert in order W1, b1, W2, b2, prelu slope, where the
    hidden-layer entries appear only when that expert introduces a new
    hidden layer (a shared trunk lands inside expert 1's block), followed
    by the optional attention head.
    """
    h, d2 = config.hidden, config.input_dim
    plan = hidden_layer_plan(config)
    layout: list[tuple[str, tuple[int, ...]]] = []
    seen: set[str] = set()
    for i, layer in enumerate(plan):
        new_hidden = layer.w_key not in seen
        if new_hidden:
            seen.add(layer.w_key)
            in_dim = d2 if layer.reads_input else h
            layout.append((layer.w_key, (h, in_dim)))
            layout.append((layer.b_key, (h,)))
        layout.append((f"expert{i}.W2", (1, h)))
        layout.append((f"expert{i}.b2", (1,)))
        if new_hidden and layer.prelu_key:
            layout.append((layer.prelu_key, (1,)))
    if with_attention:
        layout.append(("attention.W", (config.n_experts, d2)))
        layout.append(("attention.b", (config.n_experts,)))
    return layout


def _flat_views(
    flat: np.ndarray, layout: list[tuple[str, tuple[int, ...]]]
) -> dict[str, np.ndarray]:
    """Name -> view of the next ``prod(shape)`` elements of 1-D ``flat``, in layout order."""
    views, offset = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


@dataclass
class ComparatorParams:
    """Entire trainable state: flat name->array dict plus metadata.

    Immutable during inference; the training loop owns it exclusively while
    updating. ``threshold`` is the calibrated decision threshold, stored
    with the model after calibration.
    """

    config: ComparatorConfig
    values: dict[str, np.ndarray]
    threshold: float | None = None

    @property
    def has_attention(self) -> bool:
        return "attention.W" in self.values

    def copy(self) -> "ComparatorParams":
        return ComparatorParams(
            config=self.config,
            values={k: v.copy() for k, v in self.values.items()},
            threshold=self.threshold,
        )

    def expert_keys(self) -> list[str]:
        return [k for k in self.values if not k.startswith("attention.")]

    def attention_keys(self) -> list[str]:
        return [k for k in self.values if k.startswith("attention.")]


def init_params(config: ComparatorConfig, seed: int) -> ComparatorParams:
    """Fan-scaled uniform weights, zero biases, deterministic per seed.

    Weight matrices draw from U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
    There is no attention head; ``add_attention_head`` adds one.
    """
    rng = derive_rng(seed, STREAM_INIT)
    values: dict[str, np.ndarray] = {}
    for name, shape in param_layout(config):
        if name.endswith(".prelu"):
            values[name] = np.full(shape, PRELU_INIT_SLOPE, dtype=np.float64)
        elif name.endswith(".W1") or name.endswith(".W2"):
            fan_out, fan_in = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            values[name] = rng.uniform(-limit, limit, shape)
        else:  # biases
            values[name] = np.zeros(shape, dtype=np.float64)
    return ComparatorParams(config=config, values=values)


def add_attention_head(params: ComparatorParams) -> ComparatorParams:
    """A copy of params with an attention head, zero (the uniform predictor) if it had none."""
    out = params.copy()
    if not params.has_attention:
        for name, shape in param_layout(params.config, with_attention=True):
            if name.startswith("attention."):
                out.values[name] = np.zeros(shape, dtype=np.float64)
    return out


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Sigmoid in one pass, e = exp(-|x|): 1/(1+e) where x >= 0, else e/(1+e)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def apply_activation(a: np.ndarray, kind: Activation, slope: float | None = None) -> np.ndarray:
    """act(a) elementwise, with the bits of the np.where form, signed zeros included.

    ReLU and PReLU are their where-forms ``np.where(a > 0, a, 0.0)`` and
    ``np.where(a > 0, a, slope * a)``. LReLU, the default model's activation
    and the only one a benchmark workload trains, keeps an arithmetic form
    with the bits of ``np.where(a > 0, a, 0.2 * a)`` for every input but
    NaN: on one default training epoch, the where-forms in both this and
    ``activation_grad`` cost 8-16% more time for the same model bytes
    (2-vCPU Xeon).
    """
    a = np.asarray(a, dtype=np.float64)
    if kind is Activation.LRELU:
        z = np.multiply(a, LRELU_SLOPE, out=np.empty_like(a))
        return np.maximum(a, z, out=z)
    if kind is Activation.RELU:
        return np.where(a > 0, a, 0.0)
    if kind is Activation.PRELU:
        return np.where(a > 0, a, slope * a)
    return np.tanh(a)


def activation_grad(
    upstream: np.ndarray,
    a: np.ndarray,
    z: np.ndarray,
    kind: Activation,
    slope: float | None = None,
) -> np.ndarray:
    """upstream * d act(a) / d a, elementwise, with z = act(a) reused for tanh.

    PReLU's is ``upstream * np.where(a > 0, 1.0, slope)``. For lrelu the
    factor (1 where a > 0, else the slope) is built in the output buffer
    from the comparison as (a > 0) * (1 - slope) + slope, which is exactly
    1.0 or the slope, then scaled by ``upstream`` in place: the same bits as
    that np.where mask, and on one default training epoch 4-9% less time
    for the same model bytes. ReLU shares that code with a slope of 0.0,
    exact too, but no workload measures it.
    """
    if kind is Activation.TANH:
        return upstream * (1.0 - z * z)
    if kind is Activation.PRELU:
        return upstream * np.where(a > 0, 1.0, slope)
    low = LRELU_SLOPE if kind is Activation.LRELU else 0.0
    out = np.multiply(a > 0, 1.0 - low)
    out += low
    out *= upstream
    return out


def prelu_slope_grad(upstream: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum(upstream * d prelu(a) / d slope), shape (1,): the gradient of a PReLU slope."""
    return np.sum(upstream * np.where(a > 0, 0.0, a), keepdims=True).reshape(1)


@dataclass
class ForwardTrace:
    """What a forward computed; for a train-mode prefix forward, all backward needs.

    Rows are held in trace order: trace row ``r`` is caller row ``order[r]``
    (see ``_row_plan``). Expert ``i`` ran on trace rows ``lo:hi`` and wrote
    its logit on rows ``first:hi``, where ``(lo, first, hi) = spans[i]``.

    Only a train-mode trace holds the inputs and the per-expert activations:
    those ``_cascade`` keeps of its one block. An eval-mode forward is
    inference: ``pre_acts`` and ``hidden`` are empty lists, so each expert's
    arrays are freed once the next expert has read them, and ``inputs`` is
    an empty (0, 2d) array, as each block gathers its rows from the
    caller's features.
    """

    inputs: np.ndarray  # train: post-dropout features in trace order (n, 2d); eval: (0, 2d)
    dropout_scale: np.ndarray | None  # multiplier mask in caller order, None in eval mode
    pre_acts: list[np.ndarray]  # train mode: per expert, shape (counts[i], hidden)
    hidden: list[np.ndarray]  # train mode: per expert, shape (counts[i], hidden)
    logits: np.ndarray  # pre-sigmoid, caller order: (n, n_experts) full, (n,) selected
    probs: np.ndarray  # sigmoid of logits, same shape
    order: np.ndarray
    spans: tuple[tuple[int, int, int], ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, _, hi in self.spans)


def _check_width(config: ComparatorConfig, x: np.ndarray) -> None:
    if x.shape[1] != config.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match model input {config.input_dim}")


def _row_plan(
    positions: np.ndarray | None, n: int, config: ComparatorConfig
) -> tuple[np.ndarray, tuple[tuple[int, int, int], ...]]:
    """Trace row order, and each expert's run rows ``lo:hi`` and write rows ``first:hi``.

    Without ``positions`` every expert runs on and writes every row, in the
    caller's order. With them, rows are stable-sorted by position,
    descending, and expert ``i`` writes the block of rows of position ``i``.
    It runs on the prefix of rows of position >= i in the cascade, and on
    its block alone in entirely-local mode.
    """
    if positions is None:
        return np.arange(n), ((0, 0, n),) * config.n_experts
    local = config.sharing is SharingMode.ENTIRELY_LOCAL
    order = np.argsort(-positions, kind="stable")
    exact = np.bincount(positions, minlength=config.n_experts)
    his = np.cumsum(exact[::-1])[::-1]  # rows with position >= i
    return order, tuple(
        (int(first) if local else 0, int(first), int(hi)) for first, hi in zip(his - exact, his)
    )


def _cascade(
    params: ComparatorParams,
    n: int,
    gather,
    positions: np.ndarray | None = None,
    reduce=None,
    keep: bool = False,
):
    """The cascade loop: ``_row_plan``'s order and spans of ``n`` rows, their logits, kept arrays.

    The trace rows are cut every ``EVAL_BLOCK_ROWS`` rows, the remainder
    joining the last block, or form one block with ``keep``. Each block is
    gathered once, ``gather(rows)`` for caller rows ``rows`` (a slice
    without ``positions``), and checked. Expert ``i`` runs on rows ``lo:hi``
    of ``(lo, first, hi) = spans[i]`` and writes column ``i`` on rows
    ``first:hi``, both clipped to the block. The logits, in caller order,
    are (n, n_experts), each row's own with ``positions``, or each block's
    ``reduce(rows, logits)``. The last item is None, or with ``keep`` the
    block's inputs (in trace order) and each expert's pre-activation and
    hidden arrays, all that ``backward`` needs.
    """
    cfg = params.config
    order, spans = _row_plan(positions, n, cfg)
    cuts = [0, n] if keep else [*(range(0, n - EVAL_BLOCK_ROWS + 1, EVAL_BLOCK_ROWS) or [0]), n]
    out = np.empty((n, cfg.n_experts) if positions is None and reduce is None else n)
    for start, stop in zip(cuts, cuts[1:]):
        rows = slice(start, stop) if positions is None else order[start:stop]
        block = gather(rows)
        _check_width(cfg, block)
        if not np.isfinite(block).all():
            raise FloatingPointError("non-finite entries in input features")
        logits = np.empty((stop - start, cfg.n_experts), dtype=np.float64)
        pre_acts, hidden, prev = [], [], block
        for i, (layer, span) in enumerate(zip(hidden_layer_plan(cfg), spans)):
            lo, first, hi = (min(max(r - start, 0), stop - start) for r in span)  # in the block
            inp = block[lo:hi] if layer.reads_input else prev[: hi - lo]
            w1 = params.values[layer.w_key]
            b1 = params.values[layer.b_key]
            slope = float(params.values[layer.prelu_key][0]) if layer.prelu_key else None
            a = inp @ w1.T
            a += b1
            if not np.isfinite(a).all():
                raise FloatingPointError(f"non-finite pre-activation in expert {i}")
            z = apply_activation(a, cfg.activation, slope)
            w2 = params.values[f"expert{i}.W2"]
            b2 = params.values[f"expert{i}.b2"]
            logits[first:hi, i] = z[first - lo :] @ w2[0] + b2[0]
            if keep:
                pre_acts.append(a)
                hidden.append(z)
            prev = z
        if positions is not None:  # each row's own column
            logits = logits[np.arange(stop - start), positions[rows]]
        if not np.isfinite(logits).all():
            raise FloatingPointError("non-finite expert logits")
        out[rows] = logits if reduce is None else reduce(rows, logits)
    return order, spans, out, ((block, pre_acts, hidden) if keep else None)


def forward(
    params: ComparatorParams,
    features: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    positions: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the cascade; returns probabilities and a trace.

    ``features`` is one concatenated vector or a batch of them. Train mode
    applies inverted dropout on the features, drawing the mask from ``rng``
    and computing exactly ``features * scale`` (kept entries scaled by
    1/(1-p)), and keeps every expert's pre-activation and hidden array in
    the trace. Eval mode is inference: deterministic, never drops, and
    keeps no activations. Its probabilities are those of a train-mode
    forward without dropout, bit for bit within one block (see below); on
    ``features * scale`` they are those of the train-mode forward whose
    trace has that ``dropout_scale``.

    One row plan (``_row_plan``) gives each expert the rows it runs on and
    the rows whose logit it writes. Without ``positions`` every expert runs
    on and writes every row: the result holds all per-relation
    probabilities. With ``positions`` (each row's expert index) a row runs
    through the experts it needs, 0..k in the cascade and k alone in
    entirely-local mode, and only k writes it: the result holds each row's
    selected probability, in the caller's order. ``backward`` needs the
    trace of a train-mode forward with ``positions``.

    Both modes are one call of the cascade loop ``_cascade``. Train mode
    runs all rows as one block and keeps that block's inputs and
    activations. Eval mode runs every expert on one block of
    ``EVAL_BLOCK_ROWS`` to ``2 * EVAL_BLOCK_ROWS - 1`` trace rows, then the
    next, so memory stays bounded and each GEMV stays single-threaded. The
    trace's ``order`` and ``spans`` are those of an unblocked forward. Over
    more than one block its logits and probabilities may differ from the
    unblocked ones in the last bit, as BLAS may sum a block's products in
    another order (see the README).
    """
    cfg = params.config
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    _check_width(cfg, x)
    train = mode == "train"
    # before the dropout draw; the loop checks each block it gathers again
    if train and not np.isfinite(x).all():
        raise FloatingPointError("non-finite entries in input features")
    n = x.shape[0]
    if positions is not None:
        positions = np.atleast_1d(np.asarray(positions))
        if positions.shape != (n,) or not np.issubdtype(positions.dtype, np.integer):
            raise ValueError("positions must hold one integer expert index per row")
        if n and (positions.min() < 0 or positions.max() >= cfg.n_experts):
            raise ValueError(f"positions must lie in [0, {cfg.n_experts})")

    scale = None
    if train and cfg.dropout_p > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        keep = 1.0 - cfg.dropout_p
        scale = (rng.random(x.shape) < keep) / keep
        x = x * scale
    order, spans, logits, kept = _cascade(params, n, lambda rows: x[rows], positions, keep=train)
    inputs, pre_acts, hidden = kept or (np.empty((0, cfg.input_dim)), [], [])
    probs = stable_sigmoid(logits)
    trace = ForwardTrace(
        inputs=inputs,
        dropout_scale=scale,
        pre_acts=pre_acts,
        hidden=hidden,
        logits=logits,
        probs=probs,
        order=order,
        spans=spans,
    )
    return (probs[0] if single else probs), trace


def check_threshold(threshold: float) -> float:
    """Return a decision threshold that lies in [0, 1]; raise ValueError otherwise.

    NaN fails the range test too, so it is rejected.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    return threshold


def verify(
    params: ComparatorParams,
    f1: np.ndarray,
    f2: np.ndarray,
    relation: KinshipRelation | str,
    threshold: float | None = None,
) -> tuple[float, PairLabel]:
    """Score a pair under a stated relation and decide kin vs nonkin.

    Ties count as kin: the decision is kin iff score >= threshold. Falls
    back to the threshold stored with the model when none is given.
    """
    if threshold is None:
        threshold = params.threshold
    if threshold is None:
        raise ValueError("no threshold given and none stored with the model")
    check_threshold(threshold)
    pos = params.config.relation_position(relation)
    z, _ = forward(params, concat_features(f1, f2), mode="eval", positions=pos)
    score = float(z)
    return score, (PairLabel.KIN if score >= threshold else PairLabel.NONKIN)


def attention_forward(params: ComparatorParams, features: np.ndarray) -> np.ndarray:
    """Predict a relation distribution from the concatenated feature."""
    if not params.has_attention:
        raise ValueError("model has no attention head")
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    _check_width(params.config, x)
    logits = x @ params.values["attention.W"].T + params.values["attention.b"]
    probs = stable_softmax(logits)
    return probs[0] if single else probs


def score_unknown(
    params: ComparatorParams, features: np.ndarray, mode: PoolingMode
) -> float | np.ndarray:
    """Kin score when the relation is unknown, by pooling expert outputs.

    The cascade, its sigmoid, the attention head and the pooling run one
    block at a time (``_cascade``); only the (n,) result spans all rows.
    """
    attention = mode in (PoolingMode.SOFT_ATTENTION, PoolingMode.HARD_ATTENTION)
    if attention and not params.has_attention:  # before any expert runs
        raise ValueError("model has no attention head")
    x = np.asarray(features, dtype=np.float64)
    batch = np.atleast_2d(x)

    def pool(rows, logits):
        z2 = stable_sigmoid(logits)
        if mode is PoolingMode.MEAN_POOL:
            return z2.mean(axis=1)
        if mode is PoolingMode.MAX_POOL:
            return z2.max(axis=1)
        att = attention_forward(params, batch[rows])
        if mode is PoolingMode.SOFT_ATTENTION:
            return (att * z2).sum(axis=1)
        return z2[np.arange(z2.shape[0]), att.argmax(axis=1)]

    out = _cascade(params, batch.shape[0], lambda rows: batch[rows], reduce=pool)[2]
    return float(out[0]) if x.ndim == 1 else out
