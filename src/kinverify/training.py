"""Losses, exact backpropagation through the cascade, ADAM and the epoch loop.

The backward pass differentiates the mean binary cross-entropy of each
sample's selected expert output. Because only the selected logit enters the
loss, the per-sample gradient flows from expert k back through the chain of
hidden layers k-1, ..., 0 and is exactly zero for the output heads of all
other experts and, in per-expert mode, for every parameter of experts above
k. So training runs each sample through experts 0..k only (a relation-prefix
forward), and ``backward`` works on that trace alone. ``gradcheck`` verifies
it against central finite differences of the full cascade's loss.

Training follows a fixed recipe: symmetric duplication of the kin pairs
once, a fresh 1:1 nonkin resample every epoch, seeded shuffling, batches of
200, binary sigmoid cross-entropy plus an L2 penalty on the trainable
parameters, ADAM with learning rate 0.001 dropped to 0.0005 after the
second epoch, and 20% inverted dropout on the concatenated feature. Every
stream is seeded, so a (seed, data, config) triple reproduces the model
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    ForwardTrace,
    SharingMode,
    _prefix_rows,
    activation_grad,
    add_attention_head,
    forward,
    hidden_layer_plan,
    init_params,
    prelu_slope_grad,
    stable_sigmoid,
    stable_softmax,
)
from .data import (
    EmbeddingStore,
    PairSet,
    _gather_features,
    _nonkin_draw,
    _pair_rows,
    augment_symmetric,
    pairs_to_arrays,
)
from .seeding import STREAM_DROPOUT, STREAM_RESAMPLE, STREAM_SHUFFLE, derive_rng

GradientSet = dict[str, np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 200
    lr_initial: float = 0.001
    lr_late: float = 0.0005
    lr_switch_after_epoch: int = 2
    l2_lambda: float = 2e-4
    l2_includes_biases: bool = True
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.lr_initial <= 0 or self.lr_late <= 0:
            raise ValueError("learning rates must be positive")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be non-negative")

    def lr_for_epoch(self, epoch: int) -> float:
        """Epochs are 1-based; the late rate starts after the switch epoch."""
        return self.lr_initial if epoch <= self.lr_switch_after_epoch else self.lr_late


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_macro_acc: float


@dataclass
class AdamState:
    m: GradientSet
    v: GradientSet
    t: int = 0
    # two flat work buffers, sized to the largest parameter, reused by every step
    work: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def init_like(cls, params: ComparatorParams, keys: list[str] | None = None) -> "AdamState":
        keys = keys if keys is not None else list(params.values)
        return cls(
            m={k: np.zeros_like(params.values[k]) for k in keys},
            v={k: np.zeros_like(params.values[k]) for k in keys},
        )


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-element binary cross-entropy on logits, with its gradient.

    loss = softplus(logit) - target * logit, the stable rewrite of
    -[t log s(l) + (1-t) log(1 - s(l))]; gradient is sigmoid(logit) - target.
    Stays finite at arbitrary saturation.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
    loss = softplus - targets * logits
    grad = stable_sigmoid(logits) - targets
    return loss, grad


def l2_penalty(
    params: ComparatorParams,
    lam: float,
    include_biases: bool = True,
    grads: GradientSet | None = None,
) -> tuple[float, GradientSet]:
    """Squared-norm penalty lam * sum(p^2) and its gradient 2*lam*p.

    Biases (b1, b2, attention.b) can be excluded; weight matrices and PReLU
    slopes always count. The penalty covers the keys of ``grads`` and its
    gradient is added into ``grads`` in place; without ``grads`` it covers
    every parameter and the gradient comes back on its own.
    """
    if lam < 0:
        raise ValueError("l2 factor must be non-negative")
    if grads is None:
        grads = {name: np.zeros_like(p) for name, p in params.values.items()}
    loss = 0.0
    work = np.empty(max((params.values[name].size for name in grads), default=0))
    for name, g in grads.items():
        p = params.values[name]
        is_bias = name.endswith(".b1") or name.endswith(".b2") or name.endswith("attention.b")
        if is_bias and not include_biases:
            continue
        sq = work[: p.size].reshape(p.shape)
        loss += lam * float(np.sum(np.multiply(p, p, out=sq)))
        g += np.multiply(p, 2.0 * lam, out=sq)
    return loss, grads


def backward(
    trace: ForwardTrace,
    params: ComparatorParams,
    rel_idx: np.ndarray,
    targets: np.ndarray,
) -> GradientSet:
    """Gradients of the mean selected-expert BCE over the batch.

    ``rel_idx`` holds each sample's expert position, ``targets`` its 0/1
    label. The trace must come from a relation-prefix forward on the same
    parameters, run with ``mode="train"`` and ``positions=rel_idx``: an
    eval-mode trace keeps no activations, and a full forward's trace (whose
    ``order`` is None) raises ValueError. Each expert's gradient is taken
    over the trace rows that expert ran on.

    The gradients are views into one flat buffer. Each parameter takes the
    GEMM or sum output of the first expert that reaches it in place; only a
    hidden layer that several experts share (the trunk) accumulates the
    later ones with ``+=``. The parameters of experts that ran on no rows
    are zeroed.
    """
    cfg = params.config
    if not trace.hidden:
        raise ValueError(
            "backward needs a train-mode trace; an eval-mode forward keeps no activations"
        )
    if trace.order is None:
        raise ValueError("backward needs a relation-prefix trace: run forward with positions")
    n = trace.inputs.shape[0]
    rel_idx = np.asarray(rel_idx)
    targets = np.asarray(targets, dtype=np.float64)
    if rel_idx.shape != (n,) or targets.shape != (n,):
        raise ValueError("rel_idx and targets must each have one entry per traced sample")
    if len(trace.hidden) != cfg.n_experts or len(trace.counts) != cfg.n_experts:
        raise ValueError("trace does not match the model configuration")

    cascade = cfg.sharing is not SharingMode.ENTIRELY_LOCAL
    order, _, counts = _prefix_rows(rel_idx, cfg.n_experts, not cascade)
    if not (np.array_equal(order, trace.order) and counts == trace.counts):
        raise ValueError("rel_idx differs from the positions of the traced forward")
    dsel = ((trace.probs - targets) / n)[order]

    keys = params.expert_keys()
    flat = np.empty(sum(params.values[k].size for k in keys))
    grads: GradientSet = {}
    offset = 0
    for k in keys:
        v = params.values[k]
        grads[k] = flat[offset : offset + v.size].reshape(v.shape)
        offset += v.size
    plan = hidden_layer_plan(cfg)
    written: set[str] = set()
    carry = None  # grad flowing into z1[i] from expert i+1, on that expert's rows
    for i in reversed(range(cfg.n_experts)):
        lo, rows = trace.starts[i], trace.counts[i]
        if rows == 0:
            carry = None
            continue
        layer = plan[i]
        z = trace.hidden[i]
        a = trace.pre_acts[i]
        inp = trace.inputs[lo : lo + rows] if layer.reads_input else trace.hidden[i - 1][:rows]
        w2 = params.values[f"expert{i}.W2"]

        # trace rows [first, rows) select this expert; the rows before them
        # select a later one and take only the carry from expert i+1
        first = 0 if carry is None else carry.shape[0]
        dlogit = np.zeros(rows)
        dlogit[first:] = dsel[lo + first : lo + rows]
        dz = np.empty((rows, cfg.hidden))
        if carry is not None:
            dz[:first] = carry
        np.multiply(dlogit[first:, None], w2, out=dz[first:])
        np.matmul(dlogit, z, out=grads[f"expert{i}.W2"][0])
        np.sum(dlogit, keepdims=True, out=grads[f"expert{i}.b2"])
        written.update((f"expert{i}.W2", f"expert{i}.b2"))

        slope = float(params.values[layer.prelu_key][0]) if layer.prelu_key else None
        da = activation_grad(dz, a, z, cfg.activation, slope)
        if layer.w_key in written:  # a shared trunk, already written by a later expert
            if layer.prelu_key:
                grads[layer.prelu_key] += prelu_slope_grad(dz, a)
            grads[layer.w_key] += da.T @ inp
            grads[layer.b_key] += da.sum(axis=0)
        else:
            if layer.prelu_key:
                grads[layer.prelu_key][...] = prelu_slope_grad(dz, a)
            np.matmul(da.T, inp, out=grads[layer.w_key])
            np.sum(da, axis=0, out=grads[layer.b_key])
            written.update((layer.w_key, layer.b_key, layer.prelu_key))
        carry = da @ params.values[layer.w_key] if cascade and i > 0 else None
    for k in keys:
        if k not in written:  # the parameters of experts that ran on no rows
            grads[k].fill(0.0)
    return grads


def adam_step(
    params: ComparatorParams,
    grads: GradientSet,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ComparatorParams, AdamState]:
    """One bias-corrected ADAM update, in place, over the keys in ``grads``.

    Every intermediate goes to the state's work buffers; the arithmetic is
    the textbook sequence, operation for operation:
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps).
    """
    state.t += 1
    t = state.t
    size = max((g.size for g in grads.values()), default=0)
    if state.work is None or state.work[0].size < size:
        state.work = (np.empty(size), np.empty(size))
    for name, g in grads.items():
        p = params.values[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {p.shape}")
        m = state.m[name]
        v = state.v[name]
        step, denom = (w[: g.size].reshape(g.shape) for w in state.work)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=step)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(m, 1.0 - beta1**t, out=step)
        step *= lr
        np.divide(v, 1.0 - beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p -= step
    return params, state


def _macro_accuracy_curve(params, features, rel_idx, targets):
    """Calibrated macro accuracy of the current model on a vectorized eval pair set.

    The arguments after ``params`` are those ``pairs_to_arrays`` returns.
    """
    from .evaluation import Objective, _calibrate

    scores = forward(params, features, mode="eval", positions=rel_idx)[0]  # drop the trace
    _, best = _calibrate(scores, targets == 1.0, rel_idx, Objective.MACRO)
    return best


def _epochs(params, state, train_config, epoch_data, step):
    """The epoch loop shared by ``train`` and ``train_attention``.

    For each epoch ``epoch_data(epoch)`` returns the row count n and a
    function that takes the epoch's seeded shuffle (a permutation of n) to
    the arrays to train on. Each batch of rows goes through ``step``, which
    returns the batch loss and the gradients, then through one ADAM update.
    Yields (epoch, lr, batch losses) after every epoch; with epochs=0 it
    yields nothing and leaves the parameters alone.
    """
    tc = train_config
    for epoch in range(1, tc.epochs + 1):
        n, gather = epoch_data(epoch)
        arrays = gather(derive_rng(tc.seed, STREAM_SHUFFLE, epoch).permutation(n))
        lr = tc.lr_for_epoch(epoch)
        losses = []
        for start in range(0, n, tc.batch_size):
            loss, grads = step(*(a[start : start + tc.batch_size] for a in arrays))
            adam_step(params, grads, state, lr, tc.adam_beta1, tc.adam_beta2, tc.adam_eps)
            losses.append(loss)
        yield epoch, lr, losses


def _expert_step(params, train_config, dropout_rng, matrix, rows1, rows2, rel_idx, targets):
    """Loss and gradients of one expert batch: selected BCE plus the L2 penalty.

    The batch's features are gathered here from the store's embedding
    matrix by the store rows of each pair's two persons.
    """
    features = _gather_features(matrix, rows1, rows2)
    _, trace = forward(params, features, mode="train", rng=dropout_rng, positions=rel_idx)
    losses, _ = bce_loss(trace.logits, targets)
    grads = backward(trace, params, rel_idx, targets)
    reg_loss, grads = l2_penalty(
        params, train_config.l2_lambda, train_config.l2_includes_biases, grads=grads
    )
    return float(losses.mean()) + reg_loss, grads


def _attention_step(params, features, rel_idx):
    """Mean softmax cross-entropy of the relation head and its gradients."""
    rows = np.arange(len(rel_idx))
    logits = features @ params.values["attention.W"].T + params.values["attention.b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - shifted[rows, rel_idx]))
    dlogits = stable_softmax(logits)  # a fresh array, updated in place
    dlogits[rows, rel_idx] -= 1.0
    dlogits /= len(rel_idx)
    return loss, {"attention.W": dlogits.T @ features, "attention.b": dlogits.sum(axis=0)}


def train(
    store: EmbeddingStore,
    kin_pairs: PairSet,
    val_pairs: PairSet,
    comp_config: ComparatorConfig,
    train_config: TrainConfig,
) -> tuple[ComparatorParams, list[EpochStats]]:
    """Full training run; returns the model and per-epoch history.

    ``kin_pairs`` are raw kin pairs; symmetric relations are duplicated and
    swapped here, once, before the epoch loop. Every epoch draws fresh
    nonkin partners (the draw of ``resample_nonkin``) and shuffles the
    pairs. ``val_pairs`` is a fixed kin+nonkin set used only for the
    history's macro accuracy (computed at the per-epoch calibrated
    threshold). With epochs=0 the initialized parameters come back
    untouched with empty history; the kin and val pairs are still
    vectorized and checked first, so an unhandled relation in either set
    or a kin pair without a nonkin candidate raises ValueError either way.

    The epoch works on store-row index arrays, not pair objects: the kin
    and val pairs are vectorized once per call, each epoch's nonkin draw and
    shuffle touch only index arrays, and each batch gathers its features
    from ``store.matrix``. Beyond the model, its ADAM state, the val
    features and one batch, memory is O(persons + pairs) index arrays; no
    per-epoch feature matrix or candidate pool is built.
    """
    seed = train_config.seed
    params = init_params(comp_config, seed)
    aug = augment_symmetric(kin_pairs)
    rows1, rows2, rel_idx, targets = _pair_rows(store, aug, comp_config.relations)
    draw_nonkin = _nonkin_draw(store, aug)
    val = pairs_to_arrays(store, val_pairs, comp_config.relations)
    rows1, rel_idx = np.concatenate([rows1, rows1]), np.concatenate([rel_idx, rel_idx])
    targets = np.concatenate([targets, np.zeros_like(targets)])

    def epoch_data(epoch):
        partners = np.concatenate([rows2, draw_nonkin(derive_rng(seed, STREAM_RESAMPLE, epoch))])
        return len(rows1), lambda order: (
            rows1[order], partners[order], rel_idx[order], targets[order]
        )

    step = partial(
        _expert_step, params, train_config, derive_rng(seed, STREAM_DROPOUT), store.matrix
    )
    state = AdamState.init_like(params)
    history: list[EpochStats] = []
    for epoch, lr, losses in _epochs(params, state, train_config, epoch_data, step):
        val_acc = _macro_accuracy_curve(params, *val)
        history.append(EpochStats(epoch, lr, float(np.mean(losses)), val_acc))
    return params, history


def train_attention(
    params: ComparatorParams,
    store: EmbeddingStore,
    kin_pairs: PairSet,
    train_config: TrainConfig,
) -> ComparatorParams:
    """Train the relation-prediction head on kin pairs, experts frozen.

    Softmax cross-entropy over the kin pairs' relation labels with the same
    ADAM settings and learning-rate schedule as expert training. Expert
    parameters are never touched, so verification scores are bit-identical
    before and after. A missing head is added zero-initialized; with
    epochs=0 it stays zero (the uniform predictor).
    """
    params = add_attention_head(params.copy())
    aug = augment_symmetric(kin_pairs)
    features, rel_idx, _ = pairs_to_arrays(store, list(aug.pairs), params.config.relations)
    state = AdamState.init_like(params, keys=params.attention_keys())

    def epoch_data(epoch):
        return len(rel_idx), lambda order: (features[order], rel_idx[order])

    for _ in _epochs(params, state, train_config, epoch_data, partial(_attention_step, params)):
        pass
    return params


def finite_difference_grads(
    params: ComparatorParams,
    features: np.ndarray,
    rel_idx: np.ndarray,
    targets: np.ndarray,
    step: float = 1e-6,
    dropout_scale: np.ndarray | None = None,
) -> GradientSet:
    """Central-difference gradients of the mean selected BCE, every entry.

    The loss comes from a full-cascade eval forward, independent of the
    prefix rows ``backward`` works on. With ``dropout_scale`` (a train
    trace's mask) the forward runs on ``features * dropout_scale``, the
    bits a train-mode forward with that mask computes.
    """
    if dropout_scale is not None:
        features = features * dropout_scale

    def loss_at(p: ComparatorParams) -> float:
        _, trace = forward(p, features, mode="eval")
        sel = trace.logits[np.arange(len(rel_idx)), rel_idx]
        losses, _ = bce_loss(sel, targets)
        return float(losses.mean())

    grads: GradientSet = {}
    for name in params.expert_keys():
        base = params.values[name]
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss_at(params)
            flat[j] = orig - step
            down = loss_at(params)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def _tiny_config(activation: Activation, sharing: SharingMode) -> ComparatorConfig:
    return ComparatorConfig(
        input_dim=8,
        hidden=3,
        activation=activation,
        dropout_p=0.0,
        sharing=sharing,
        relations=("BB", "FD", "GMGS"),
    )


def gradcheck(
    seed: int = 0,
    activations: tuple[Activation, ...] = tuple(Activation),
    sharing_modes: tuple[SharingMode, ...] = tuple(SharingMode),
    step: float = 1e-6,
) -> float:
    """Max relative error between backward and central finite differences.

    Runs tiny configurations over every requested activation and sharing
    mode, with batches mixing relations and targets, through the path
    ``train`` runs: a train-mode prefix forward, then ``backward``. The
    finite differences are taken on the full cascade. Relative error per
    entry is |ga - gn| / max(1, |ga|, |gn|), which reads as absolute error
    for small gradients and relative error for large ones.
    """
    worst = 0.0
    rng = np.random.default_rng(seed)
    for activation in activations:
        for sharing in sharing_modes:
            cfg = _tiny_config(activation, sharing)
            params = init_params(cfg, seed)
            for name in params.values:  # move away from zero biases
                params.values[name] += 0.1 * rng.standard_normal(params.values[name].shape)
            features = rng.standard_normal((4, cfg.input_dim))
            rel_idx = np.array([0, 1, 2, 1])
            targets = np.array([1.0, 0.0, 1.0, 0.0])
            _, trace = forward(params, features, "train", positions=rel_idx)  # dropout_p is 0
            analytic = backward(trace, params, rel_idx, targets)
            numeric = finite_difference_grads(params, features, rel_idx, targets, step)
            for name in analytic:
                ga, gn = analytic[name], numeric[name]
                denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gn)))
                err = float(np.max(np.abs(ga - gn) / denom))
                worst = max(worst, err)
    return worst
