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
200, binary sigmoid cross-entropy plus an L2 penalty on every trainable
parameter, ADAM with learning rate 0.001 dropped to 0.0005 after the second
epoch, and 20% inverted dropout on the concatenated feature. The numbers
are the paper's, module constants (ADAM_*, LR_*, L2_LAMBDA), not options.
Every stream is seeded, so a (seed, data, config) triple reproduces the
model byte for byte. The ablation grid of the published parameter study
(``ablation_run``) trains one model per cell with this recipe and scores it
with :mod:`kinverify.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    ForwardTrace,
    SharingMode,
    _flat_views,
    _row_plan,
    activation_grad,
    add_attention_head,
    forward,
    hidden_layer_plan,
    init_params,
    prelu_slope_grad,
    stable_softmax,
)
from .data import (
    EmbeddingStore,
    PairSet,
    _UNKNOWN,
    _gather_features,
    _nonkin_draw,
    _pair_rows,
    _write_rows,
    augment_symmetric,
)
from .evaluation import Objective, _calibrate, _selected_probs, calibrate_threshold, score_pairs
from .seeding import STREAM_DROPOUT, STREAM_SHUFFLE, derive_rng

GradientSet = dict[str, np.ndarray]

# The paper's fixed recipe, not options: ADAM's moment decays and denominator offset,
# the learning rate before and after the switch epoch, and the L2 factor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_INITIAL = 0.001
LR_LATE = 0.0005
LR_SWITCH_AFTER_EPOCH = 2
L2_LAMBDA = 2e-4


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")

    @staticmethod
    def lr_for_epoch(epoch: int) -> float:
        """Epochs are 1-based; the late rate starts after the switch epoch."""
        return LR_INITIAL if epoch <= LR_SWITCH_AFTER_EPOCH else LR_LATE


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_macro_acc: float


# Optimizer chunk width in elements. The default model's 44 arrays become 10 chunks, one
# expert each (37,249 elements) but the first (62,210). On a 2-vCPU Xeon, one adam_step with
# the same bits took 3.3-4.2 ms in these chunks, 3.7-5.1 ms in one chunk per array and 5.1-5.5 ms
# unchunked (medians of repeated 200-step runs).
CHUNK = 1 << 16


@dataclass
class AdamState:
    """One flat float64 layout for the trained parameters, their gradients and both ADAM moments.

    The trained arrays of ``params.values`` are views into ``param``, in key
    order; ``grads`` maps the keys to views into ``grad``, which every step's
    gradients are written into; ``m`` and ``v`` share the layout. ``chunks``
    cut it at array boundaries into runs of at most CHUNK elements (a larger
    array is a run of its own), each with its arrays' (start, stop).
    """

    param: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grads: GradientSet
    chunks: list[tuple[int, int, list[tuple[int, int]]]]
    work: tuple[np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def init_like(cls, params: ComparatorParams, keys: list[str] | None = None) -> "AdamState":
        """Zero state over ``keys`` of ``params`` (default: every parameter).

        The arrays are copied into one new buffer and ``params.values`` is rebound to its views.
        """
        keys = list(params.values) if keys is None else list(keys)
        layout = [(k, params.values[k].shape) for k in keys]
        param = np.concatenate([params.values[k].ravel() for k in keys])
        params.values.update(_flat_views(param, layout))
        chunks, spans, lo, hi = [], [], 0, 0
        for k in keys:
            size = params.values[k].size
            if spans and hi + size - lo > CHUNK:
                chunks.append((lo, hi, spans))
                spans, lo = [], hi
            spans.append((hi - lo, hi + size - lo))
            hi += size
        if spans:
            chunks.append((lo, hi, spans))
        grad, m, v = (np.zeros_like(param) for _ in range(3))
        width = max((b - a for a, b, _ in chunks), default=0)
        work = (np.empty(width), np.empty(width))
        return cls(param, grad, m, v, _flat_views(grad, layout), chunks, work)


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-element binary cross-entropy on logits.

    loss = softplus(logit) - target * logit, the stable rewrite of
    -[t log s(l) + (1-t) log(1 - s(l))]. Stays finite at arbitrary
    saturation. Its gradient, sigmoid(logit) - target, is taken in
    ``backward`` from the trace's probabilities.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
    return softplus - targets * logits


def backward(
    trace: ForwardTrace,
    params: ComparatorParams,
    rel_idx: np.ndarray,
    targets: np.ndarray,
    out: GradientSet | None = None,
) -> GradientSet:
    """Gradients of the mean selected-expert BCE over the batch.

    ``rel_idx`` holds each sample's expert position, ``targets`` its 0/1
    label. The trace must come from a relation-prefix forward on the same
    parameters, run with ``mode="train"`` and ``positions=rel_idx``: an
    eval-mode trace keeps no activations, and a full forward's trace (whose
    logits hold every expert's column) raises ValueError. Each expert's
    gradient is taken over the trace rows it ran on, its dlogit over the
    rows it wrote (the trace's ``spans``).

    The gradients are written into ``out`` (one array per expert key, as
    ``AdamState.grads`` holds them) or, without it, into new arrays. Each
    parameter takes the GEMM or sum output of the first expert that
    reaches it in place; only a hidden layer that several experts share
    (the trunk) accumulates the later ones with ``+=``. The parameters of
    experts that ran on no rows are zeroed.
    """
    cfg = params.config
    if not trace.hidden:
        raise ValueError(
            "backward needs a train-mode trace; an eval-mode forward keeps no activations"
        )
    if trace.logits.ndim != 1:
        raise ValueError("backward needs a relation-prefix trace: run forward with positions")
    n = trace.inputs.shape[0]
    rel_idx = np.asarray(rel_idx)
    targets = np.asarray(targets, dtype=np.float64)
    if rel_idx.shape != (n,) or targets.shape != (n,):
        raise ValueError("rel_idx and targets must each have one entry per traced sample")

    cascade = cfg.sharing is not SharingMode.ENTIRELY_LOCAL
    order, spans = _row_plan(rel_idx, n, cfg)
    if not (np.array_equal(order, trace.order) and spans == trace.spans):
        raise ValueError("rel_idx or the model differs from the traced forward")
    dsel = ((trace.probs - targets) / n)[order]

    keys = params.expert_keys()
    grads = out if out is not None else {k: np.empty_like(params.values[k]) for k in keys}
    plan = hidden_layer_plan(cfg)
    written: set[str] = set()
    carry = None  # grad flowing into z1[i] from expert i+1, on that expert's rows
    for i in reversed(range(cfg.n_experts)):
        lo, first, hi = trace.spans[i]
        rows = hi - lo
        if rows == 0:
            carry = None
            continue
        layer = plan[i]
        z = trace.hidden[i]
        a = trace.pre_acts[i]
        inp = trace.inputs[lo:hi] if layer.reads_input else trace.hidden[i - 1][:rows]
        w2 = params.values[f"expert{i}.W2"]

        # the expert wrote trace rows [first, hi); its first ``skip`` rows
        # select a later expert and take only the carry from expert i+1
        skip = first - lo
        dlogit = np.zeros(rows)
        dlogit[skip:] = dsel[first:hi]
        dz = np.empty((rows, cfg.hidden))
        if carry is not None:
            dz[:skip] = carry
        np.multiply(dlogit[skip:, None], w2, out=dz[skip:])
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


def adam_step(state: AdamState, lr: float, l2_lambda: float = 0.0) -> float:
    """One bias-corrected ADAM update of the state's parameters, L2 folded in.

    Returns the penalty l2_lambda * sum(p^2) of the parameters before the
    update, summed array by array in key order. One pass over the chunks of
    the flat layout first adds the penalty's gradient 2*l2_lambda*p to the
    state's gradients, then runs the textbook sequence, operation for
    operation, every intermediate in the work buffers, with b1, b2 and eps the ADAM_*
    constants: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps).
    With l2_lambda 0 there is no L2 term. Elementwise results do not depend
    on how elements are grouped into calls, so each element gets the bits
    of a per-array update.
    """
    state.t += 1
    t = state.t
    penalty = 0.0
    for lo, hi, spans in state.chunks:
        p, g, m, v = (a[lo:hi] for a in (state.param, state.grad, state.m, state.v))
        step, denom = (w[: hi - lo] for w in state.work)
        if l2_lambda:
            np.multiply(p, p, out=step)
            for a, b in spans:  # the per-array sums fix the bits of the loss
                penalty += l2_lambda * float(np.sum(step[a:b]))
            g += np.multiply(p, 2.0 * l2_lambda, out=step)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
        step *= lr
        np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step
    return penalty


def _macro_accuracy_curve(params, matrix, rows1, rows2, rel_idx, targets):
    """Calibrated macro accuracy of the current model on eval pairs given by store rows.

    ``matrix`` holds the store's embeddings and the arguments after it are
    those ``_pair_rows`` returns; the scores are those of ``score_pairs``.
    """
    scores = _selected_probs(params, matrix, rows1, rows2, rel_idx)
    _, best = _calibrate(scores, targets == 1.0, rel_idx, Objective.MACRO)
    return best


def _epochs(state, train_config, epoch_data, step, l2_lambda):
    """The epoch loop shared by ``train`` and ``train_attention``.

    For each epoch ``epoch_data(epoch)`` returns the store-row, relation and
    target arrays to train on, aligned row for row; they are shuffled
    together by the epoch's seeded permutation. Each batch goes through
    ``step``, which gathers its features from the store, writes the
    gradients into ``state.grads`` and returns the batch loss, then through
    one ADAM update with an L2 factor of ``l2_lambda``, whose penalty joins
    the batch loss. Yields (epoch, lr, batch losses) after every epoch;
    with epochs=0 it yields nothing and leaves the parameters alone. An
    epoch that leaves a parameter or a second moment non-finite raises
    FloatingPointError naming the epoch and the first such key.
    """
    tc = train_config
    for epoch in range(1, tc.epochs + 1):
        arrays = epoch_data(epoch)
        order = derive_rng(tc.seed, STREAM_SHUFFLE, epoch).permutation(len(arrays[0]))
        arrays = [a[order] for a in arrays]
        lr = tc.lr_for_epoch(epoch)
        losses = []
        for start in range(0, len(order), tc.batch_size):
            loss, _ = step(*(a[start : start + tc.batch_size] for a in arrays))
            penalty = adam_step(state, lr, l2_lambda)
            losses.append(loss + penalty)
        finite = np.isfinite(state.param) & np.isfinite(state.v)
        if not finite.all():
            ends = np.cumsum([g.size for g in state.grads.values()])
            key = list(state.grads)[np.searchsorted(ends, np.argmin(finite), side="right")]
            raise FloatingPointError(f"training diverged in epoch {epoch}: {key} is not finite")
        yield epoch, lr, losses


def _expert_step(params, grads, dropout_rng, matrix, rows1, rows2, rel_idx, targets):
    """Selected-BCE loss of one expert batch; its gradients are written into ``grads``.

    The batch's features are gathered here from the store's embedding
    matrix by the store rows of each pair's two persons.
    """
    features = _gather_features(matrix, rows1, rows2)
    _, trace = forward(params, features, mode="train", rng=dropout_rng, positions=rel_idx)
    losses = bce_loss(trace.logits, targets)
    return float(losses.mean()), backward(trace, params, rel_idx, targets, grads)


def _attention_step(params, grads, matrix, rows1, rows2, rel_idx):
    """Mean softmax cross-entropy of the relation head; its gradients are written into ``grads``."""
    features = _gather_features(matrix, rows1, rows2)
    rows = np.arange(len(rel_idx))
    logits = features @ params.values["attention.W"].T + params.values["attention.b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - shifted[rows, rel_idx]))
    dlogits = stable_softmax(logits)  # a fresh array, updated in place
    dlogits[rows, rel_idx] -= 1.0
    dlogits /= len(rel_idx)
    np.matmul(dlogits.T, features, out=grads["attention.W"])
    np.sum(dlogits, axis=0, out=grads["attention.b"])
    return loss, grads


def _kin_rows(store: EmbeddingStore, kin_pairs: PairSet, codes: tuple[str, ...]):
    """Both trainers' kin intake: ``_pair_rows`` of ``augment_symmetric(kin_pairs)``.

    Raises ValueError on an empty set or on the first pair not labelled kin, named by
    its index in ``kin_pairs`` (``augment_symmetric`` keeps those first, in order).
    """
    if len(kin_pairs) == 0:
        raise ValueError("train needs a non-empty kin pair set")
    rows = _pair_rows(store, augment_symmetric(kin_pairs), codes)
    bad = np.flatnonzero(rows[3][: len(kin_pairs)] != 1.0)
    if bad.size:
        raise ValueError(f"kin pair {bad[0]} is not labelled kin")
    return rows


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
    untouched with empty history; the kin pairs (by ``_kin_rows``, as in
    ``train_attention``) and val pairs are still vectorized and checked
    first, so each of these raises ValueError either way, before any epoch
    runs: an empty val or kin set, an unhandled relation in either set, a
    kin set holding a nonkin or unlabelled pair, a kin pair without a nonkin
    candidate, and a val set holding an unlabelled pair or not both classes.

    The epoch works on store-row index arrays, not pair objects: the kin
    and val pairs are vectorized once per call, each epoch's nonkin draw and
    shuffle touch only index arrays, and each batch gathers its features
    from ``store.matrix``. The parameters, their gradients and both ADAM
    moments share one flat layout (``AdamState``), four copies of the
    model; beyond them and one batch or block of val pairs (scored as by
    ``score_pairs``), memory is O(persons + pairs) index arrays. The model
    is returned as a copy.
    """
    if len(val_pairs) == 0:
        raise ValueError("train needs a non-empty val pair set")
    seed = train_config.seed
    params = init_params(comp_config, seed)
    # Into the flat layout before the set-up arrays exist: the freed initial arrays then
    # leave no hole under them (about 3 MB less peak RSS over repeated calls, measured).
    state = AdamState.init_like(params)
    codes = comp_config.relations
    rows1, rows2, rel_idx, targets = _kin_rows(store, kin_pairs, codes)
    draw_nonkin = _nonkin_draw(store, rows1, rel_idx, codes, seed)
    val = _pair_rows(store, val_pairs, codes)
    unlabelled = np.flatnonzero(val_pairs.label == _UNKNOWN)
    if unlabelled.size:  # _pair_rows would read it as nonkin
        raise ValueError(f"val pair {unlabelled[0]} has no label")
    if val[3].all() or not val[3].any():  # before an epoch is spent on it
        raise ValueError("calibration needs both kin and nonkin samples")
    rows1, rel_idx = np.concatenate([rows1, rows1]), np.concatenate([rel_idx, rel_idx])
    targets = np.concatenate([targets, np.zeros_like(targets)])

    def epoch_data(epoch):
        partners = np.concatenate([rows2, draw_nonkin(epoch)])
        return rows1, partners, rel_idx, targets

    step = partial(
        _expert_step, params, state.grads, derive_rng(seed, STREAM_DROPOUT), store.matrix
    )
    history: list[EpochStats] = []
    for epoch, lr, losses in _epochs(state, train_config, epoch_data, step, L2_LAMBDA):
        val_acc = _macro_accuracy_curve(params, store.matrix, *val)
        history.append(EpochStats(epoch, lr, float(np.mean(losses)), val_acc))
    # The model leaves in arrays of its own: a process that kept models holding
    # views of the flat buffer measured ~3 MB more peak RSS per kept model.
    return params.copy(), history


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
    epochs=0 it stays zero (the uniform predictor). An empty kin set, or a
    nonkin or unlabelled pair in it, raises ``train``'s ValueError (both
    take the kin pairs through ``_kin_rows``).
    """
    params = add_attention_head(params)
    rows1, rows2, rel_idx, _ = _kin_rows(store, kin_pairs, params.config.relations)
    state = AdamState.init_like(params, keys=params.attention_keys())

    def epoch_data(epoch):
        return rows1, rows2, rel_idx

    step = partial(_attention_step, params, state.grads, store.matrix)
    for _ in _epochs(state, train_config, epoch_data, step, 0.0):
        pass
    return params


@dataclass(frozen=True)
class AblationCell:
    activation: str
    dropout_p: float
    hidden: int


@dataclass(frozen=True)
class AblationResult:
    cell: AblationCell
    accuracy: float


def default_ablation_grid() -> tuple[AblationCell, ...]:
    """The standard sweep: activations, dropout rates, layer sizes, default.

    One cell per row of the published parameter study: three alternative
    activations at the default dropout/size, four alternative dropout rates,
    five alternative hidden sizes, then the default setting itself, which
    is ``ComparatorConfig``'s default cell.
    """
    default = ComparatorConfig  # its class attributes are the defaults
    act, p, h = default.activation.value, default.dropout_p, default.hidden
    cells = [AblationCell(a, p, h) for a in ("relu", "prelu", "tanh")]
    cells += [AblationCell(act, d, h) for d in (0.0, 0.1, 0.3, 0.4)]
    cells += [AblationCell(act, p, n) for n in (64, 128, 256, 512, 1024)]
    cells.append(AblationCell(act, p, h))
    return tuple(cells)


def ablation_run(
    store: EmbeddingStore,
    kin_pairs: PairSet,
    val_pairs: PairSet,
    train_config: TrainConfig,
    grid: tuple[AblationCell, ...] | None = None,
    objective: Objective = Objective.MACRO,
) -> list[AblationResult]:
    """Train one model per grid cell with a shared seed; report val accuracy.

    Cells are independent (each gets a fresh model from the same seed) and
    run in grid order, so the output is deterministic row for row.
    """
    grid = grid if grid is not None else default_ablation_grid()
    if not grid:
        raise ValueError("empty ablation grid")
    results: list[AblationResult] = []
    for cell in grid:
        cfg = ComparatorConfig(
            input_dim=2 * store.dim,
            hidden=cell.hidden,
            activation=Activation(cell.activation),
            dropout_p=cell.dropout_p,
        )
        params, _ = train(store, kin_pairs, val_pairs, cfg, train_config)
        scored = score_pairs(params, store, val_pairs)
        _, acc = calibrate_threshold(scored, objective=objective)
        results.append(AblationResult(cell, acc))
    return results


def save_ablation_csv(results: list[AblationResult], path: str | Path) -> None:
    rows = (
        (r.cell.activation, repr(r.cell.dropout_p), str(r.cell.hidden), repr(r.accuracy))
        for r in results
    )
    _write_rows(path, "activation,dropout,hidden,accuracy", rows)


def _save_history(history: list[EpochStats], path: str | Path) -> None:
    rows = ((str(h.epoch), repr(h.lr), repr(h.train_loss), repr(h.val_macro_acc)) for h in history)
    _write_rows(path, "epoch,lr,train_loss,val_macro_acc", rows)


def finite_difference_grads(
    params: ComparatorParams,
    features: np.ndarray,
    rel_idx: np.ndarray,
    targets: np.ndarray,
) -> GradientSet:
    """Central-difference gradients of the mean selected BCE, every entry, at step 1e-6.

    The loss comes from a full-cascade eval forward, independent of the
    prefix rows ``backward`` works on. To check a train trace with dropout,
    pass ``features * trace.dropout_scale``: the bits that train forward ran on.
    """

    def loss_at(p: ComparatorParams) -> float:
        _, trace = forward(p, features, mode="eval")
        sel = trace.logits[np.arange(len(rel_idx)), rel_idx]
        losses = bce_loss(sel, targets)
        return float(losses.mean())

    step = 1e-6
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


def gradcheck(seed: int = 0) -> float:
    """Max relative error between backward and central finite differences.

    Runs tiny configurations over every activation and sharing mode, with
    batches mixing relations and targets, through the path
    ``train`` runs: a train-mode prefix forward, then ``backward``. The
    finite differences are taken on the full cascade. Relative error per
    entry is |ga - gn| / max(1, |ga|, |gn|), which reads as absolute error
    for small gradients and relative error for large ones.
    """
    worst = 0.0
    rng = np.random.default_rng(seed)
    for activation in Activation:
        for sharing in SharingMode:
            cfg = _tiny_config(activation, sharing)
            params = init_params(cfg, seed)
            for name in params.values:  # move away from zero biases
                params.values[name] += 0.1 * rng.standard_normal(params.values[name].shape)
            features = rng.standard_normal((4, cfg.input_dim))
            rel_idx = np.array([0, 1, 2, 1])
            targets = np.array([1.0, 0.0, 1.0, 0.0])
            _, trace = forward(params, features, "train", positions=rel_idx)  # dropout_p is 0
            analytic = backward(trace, params, rel_idx, targets)
            numeric = finite_difference_grads(params, features, rel_idx, targets)
            for name in analytic:
                ga, gn = analytic[name], numeric[name]
                denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gn)))
                err = float(np.max(np.abs(ga - gn) / denom))
                worst = max(worst, err)
    return worst
