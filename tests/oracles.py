"""Independent reference implementations used to check the real code.

Everything here is written as plainly as possible (scalar loops, explicit
formulas) and must stay independent of the library's vectorized paths.
"""

import numpy as np


def dense_forward_oracle(params, fc):
    """Cascade forward for a single feature vector, scalar-style.

    Returns the per-expert probability list. Mirrors the defining equations
    directly: hidden = act(W1 @ inp + b1), prob = sigmoid(W2 @ hidden + b2),
    with the input of expert i being fc (expert 0 or entirely-local mode)
    or the previous expert's hidden vector.
    """
    cfg = params.config
    n_experts = cfg.n_experts

    def act(values, slope_value):
        out = []
        for a in values:
            if cfg.activation.value == "lrelu":
                out.append(a if a > 0 else 0.2 * a)
            elif cfg.activation.value == "relu":
                out.append(a if a > 0 else 0.0)
            elif cfg.activation.value == "prelu":
                out.append(a if a > 0 else slope_value * a)
            else:
                out.append(np.tanh(a))
        return out

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x)) if x >= 0 else np.exp(x) / (1.0 + np.exp(x))

    probs = []
    prev = list(fc)
    for i in range(n_experts):
        if cfg.sharing.value == "entirely-local":
            name, inp = f"expert{i}", list(fc)
        elif cfg.sharing.value == "shared-trunk" and i > 0:
            name, inp = "trunk", prev
        else:
            name, inp = f"expert{i}", (list(fc) if i == 0 else prev)
        w1 = params.values[f"{name}.W1"]
        b1 = params.values[f"{name}.b1"]
        slope = params.values[f"{name}.prelu"][0] if f"{name}.prelu" in params.values else None
        pre = []
        for row in range(w1.shape[0]):
            s = b1[row]
            for col in range(w1.shape[1]):
                s += w1[row, col] * inp[col]
            pre.append(s)
        hidden = act(pre, slope)
        w2 = params.values[f"expert{i}.W2"]
        b2 = params.values[f"expert{i}.b2"]
        logit = b2[0]
        for col in range(w2.shape[1]):
            logit += w2[0, col] * hidden[col]
        probs.append(sigmoid(logit))
        prev = hidden
    return np.array(probs)


def sigmoid_masked(x):
    """Sigmoid filled in two boolean-mask halves, exp(-x) where x >= 0 and exp(x) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def where_activation(a, kind, slope=None):
    """The piecewise activations in their np.where form (kind is the Activation value)."""
    if kind == "lrelu":
        return np.where(a > 0, a, 0.2 * a)
    if kind == "relu":
        return np.where(a > 0, a, 0.0)
    return np.where(a > 0, a, slope * a)


def where_activation_grad(upstream, a, kind, slope=None):
    """upstream * d act(a) / d a for the piecewise activations, as a np.where mask."""
    low = {"lrelu": 0.2, "relu": 0.0, "prelu": slope}[kind]
    return upstream * np.where(a > 0, 1.0, low)


def where_prelu_slope_term(a):
    """d prelu(a) / d slope: a where a <= 0, else 0."""
    return np.where(a > 0, 0.0, a)


def auc_bruteforce(kin_scores, non_scores):
    """Pairwise count with ties worth one half."""
    total = 0.0
    for k in kin_scores:
        for n in non_scores:
            if k > n:
                total += 1.0
            elif k == n:
                total += 0.5
    return total / (len(kin_scores) * len(non_scores))


def best_threshold_bruteforce(scores, is_kin, relations, objective):
    """Best objective over every threshold, tried one partition at a time.

    The cuts are each distinct score plus one below the minimum and one
    above the maximum, so every split a threshold can make is visited.
    Scores at or above the threshold are called kin.
    """
    scores = np.asarray(scores)
    is_kin = np.asarray(is_kin, dtype=bool)
    cuts = np.concatenate(([scores.min() - 1.0], np.unique(scores), [scores.max() + 1.0]))
    masks = [np.asarray([r == rel for r in relations]) for rel in sorted(set(relations))]
    best = -1.0
    for t in cuts:
        correct = (scores >= t) == is_kin
        if objective == "micro":
            value = correct.mean()
        else:
            value = float(np.mean([correct[mask].mean() for mask in masks]))
        best = max(best, value)
    return best


def resample_nonkin_loop(kin_pairs, store, base_seed, epoch):
    """Nonkin partners drawn one scalar ``rng.integers`` call per pair, in pair order.

    Returns the (id1, id2) list. Candidates for a pair are the persons of
    the gender role 2 needs, outside id1's family, in store order.
    """
    from kinverify.relations import role2_gender
    from kinverify.seeding import STREAM_RESAMPLE, derive_rng

    rng = derive_rng(base_seed, STREAM_RESAMPLE, epoch)
    out = []
    for pair in kin_pairs:
        ref = store.person(pair.id1)
        want = role2_gender(pair.relation, ref.gender)
        candidates = [
            p.person_id
            for p in map(store.person, store.person_ids)
            if p.gender is want and p.family_id != ref.family_id
        ]
        out.append((pair.id1, candidates[rng.integers(len(candidates))]))
    return out


def pair_rows_loop(store, pairs, relation_codes):
    """``data._pair_rows`` one ``KinPair`` at a time, as lists.

    Every id1 is looked up before any id2, then every relation; the first
    unknown id raises KeyError and then the first relation not among
    ``relation_codes`` raises ValueError, with ``_pair_rows``' messages.
    """
    from kinverify.data import PairLabel

    rows = []
    for side in ("id1", "id2"):
        column = []
        for pair in pairs:
            pid = getattr(pair, side)
            if pid not in store:
                raise KeyError(f"unknown person_id {pid!r}")
            column.append(store.row(pid))
        rows.append(column)
    positions = []
    for pair in pairs:
        if pair.relation.value not in relation_codes:
            raise ValueError(f"relation {pair.relation.value!r} not handled by this model")
        positions.append(relation_codes.index(pair.relation.value))
    targets = [1.0 if pair.label is PairLabel.KIN else 0.0 for pair in pairs]
    return rows[0], rows[1], positions, targets


def augment_symmetric_loop(pairs):
    """The pairs, then a swapped copy of each pair whose relation is symmetric, in order."""
    from kinverify.data import KinPair
    from kinverify.relations import SYMMETRIC_RELATIONS

    swapped = [
        KinPair(p.id2, p.id1, p.relation, p.label) for p in pairs if p.relation in SYMMETRIC_RELATIONS
    ]
    return list(pairs) + swapped


def nonkin_tris_loop(kin_tris, children, store, seed, split_index):
    """Nonkin triples the way ``synth`` once drew them: a child-pool mask per triple.

    ``children`` lists every child id of the world in store order. Each
    kin triple, in order, takes one scalar ``rng.integers`` draw over the
    children of its child's gender outside its child's family.
    """
    from kinverify.data import PairLabel, TriSample
    from kinverify.seeding import STREAM_TRI, derive_rng

    rng = derive_rng(seed, STREAM_TRI, split_index)
    out = []
    for t in kin_tris:
        family = store.person(t.child_id).family_id
        candidates = [
            p.person_id
            for p in map(store.person, children)
            if p.gender is t.child_gender and p.family_id != family
        ]
        swapped = candidates[rng.integers(len(candidates))]
        out.append(TriSample(t.father_id, t.mother_id, swapped, t.child_gender, PairLabel.NONKIN))
    return out


def backward_zero_filled(trace, params, rel_idx, targets):
    """Selected-BCE gradients as zero-filled arrays that every expert adds into.

    The full-cascade gradient reference, and the reference for
    ``training.backward``: it takes a train-mode trace of a full forward
    (every expert on every row) as well as one of a prefix forward. Each
    expert's dlogit comes from a np.where over its rows, its dz is
    dlogit * w2 plus the carry from the expert above, and every gradient,
    the shared trunk's or an expert's own, starts at zero and takes each
    expert's GEMM output with ``+=``.
    """
    from kinverify.comparator import (
        SharingMode,
        activation_grad,
        hidden_layer_plan,
        prelu_slope_grad,
    )

    cfg = params.config
    n = trace.inputs.shape[0]
    rel_idx = np.asarray(rel_idx)
    targets = np.asarray(targets, dtype=np.float64)
    cascade = cfg.sharing is not SharingMode.ENTIRELY_LOCAL
    if trace.probs.ndim == 2:  # a full forward: every expert's column, caller order
        dsel = (trace.probs[np.arange(n), rel_idx] - targets) / n
    else:
        dsel = ((trace.probs - targets) / n)[trace.order]
        rel_idx = rel_idx[trace.order]
    grads = {k: np.zeros_like(params.values[k]) for k in params.expert_keys()}
    plan = hidden_layer_plan(cfg)
    carry = None
    for i in reversed(range(cfg.n_experts)):
        lo, _, hi = trace.spans[i]
        rows = hi - lo
        if rows == 0:
            carry = None
            continue
        layer = plan[i]
        z, a = trace.hidden[i], trace.pre_acts[i]
        inp = trace.inputs[lo:hi] if layer.reads_input else trace.hidden[i - 1][:rows]
        dlogit = np.where(rel_idx[lo:hi] == i, dsel[lo:hi], 0.0)
        dz = dlogit[:, None] * params.values[f"expert{i}.W2"]
        if carry is not None:
            dz[: carry.shape[0]] += carry
        grads[f"expert{i}.W2"] += (dlogit @ z)[None, :]
        grads[f"expert{i}.b2"] += dlogit.sum(keepdims=True)
        slope = float(params.values[layer.prelu_key][0]) if layer.prelu_key else None
        da = activation_grad(dz, a, z, cfg.activation, slope)
        if layer.prelu_key:
            grads[layer.prelu_key] += prelu_slope_grad(dz, a)
        grads[layer.w_key] += da.T @ inp
        grads[layer.b_key] += da.sum(axis=0)
        carry = da @ params.values[layer.w_key] if cascade and i > 0 else None
    return grads


def l2_penalty(params, lam, grads):
    """Squared-norm penalty lam * sum(p^2) over the keys of ``grads``, one array at a time.

    The gradient 2*lam*p is added into ``grads`` in place.
    """
    loss = 0.0
    for name, g in grads.items():
        p = params.values[name]
        loss += lam * float(np.sum(p * p))
        g += p * (2.0 * lam)
    return loss, grads


class TextbookAdam:
    """Bias-corrected ADAM, one parameter array at a time, in plain expressions."""

    def __init__(self, params, keys):
        self.m = {k: np.zeros_like(params.values[k]) for k in keys}
        self.v = {k: np.zeros_like(params.values[k]) for k in keys}
        self.t = 0

    def step(self, params, grads, lr):
        from kinverify.training import ADAM_BETA1 as beta1, ADAM_BETA2 as beta2, ADAM_EPS as eps

        self.t += 1
        for name, g in grads.items():
            p, m, v = params.values[name], self.m[name], self.v[name]
            m[...] = m * beta1 + g * (1.0 - beta1)
            v[...] = v * beta2 + (g * (1.0 - beta2)) * g
            p -= (m / (1.0 - beta1**self.t) * lr) / (np.sqrt(v / (1.0 - beta2**self.t)) + eps)


def train_object_path(store, kin_pairs, val_pairs, comp_config, train_config):
    """The training recipe on pair objects, the way ``training.train`` once ran it.

    Every epoch draws a ``resample_nonkin`` pair set, shuffles the list of
    ``KinPair`` objects, vectorizes it with ``pairs_to_arrays`` and trains
    on batches of that epoch matrix with ``backward_zero_filled``
    gradients, the per-array ``l2_penalty`` and ``TextbookAdam``. Returns
    the parameters and the (loss, val macro) history; the val macro is
    calibrated on an eval-mode ``forward`` of the val features.
    """
    from kinverify.comparator import forward, init_params
    from kinverify.data import augment_symmetric, pairs_to_arrays, resample_nonkin
    from kinverify.evaluation import Objective, _calibrate
    from kinverify.seeding import STREAM_DROPOUT, STREAM_SHUFFLE, derive_rng
    from kinverify.training import L2_LAMBDA, bce_loss

    tc = train_config
    params = init_params(comp_config, tc.seed)
    adam = TextbookAdam(params, params.expert_keys())
    dropout_rng = derive_rng(tc.seed, STREAM_DROPOUT)
    aug = augment_symmetric(kin_pairs)
    history = []
    for epoch in range(1, tc.epochs + 1):
        pairs = list(aug.pairs) + list(resample_nonkin(aug, store, tc.seed, epoch).pairs)
        order = derive_rng(tc.seed, STREAM_SHUFFLE, epoch).permutation(len(pairs))
        features, rel_idx, targets = pairs_to_arrays(
            store, [pairs[i] for i in order], comp_config.relations
        )
        losses = []
        for start in range(0, len(pairs), tc.batch_size):
            batch = slice(start, start + tc.batch_size)
            _, trace = forward(
                params, features[batch], mode="train", rng=dropout_rng, positions=rel_idx[batch]
            )
            loss = bce_loss(trace.logits, targets[batch])
            grads = backward_zero_filled(trace, params, rel_idx[batch], targets[batch])
            reg, grads = l2_penalty(params, L2_LAMBDA, grads=grads)
            lr = tc.lr_for_epoch(epoch)
            adam.step(params, grads, lr)
            losses.append(float(loss.mean()) + reg)
        val_features, val_rel, val_targets = pairs_to_arrays(
            store, val_pairs, comp_config.relations
        )
        val_scores, _ = forward(params, val_features, mode="eval", positions=val_rel)
        _, val_macro = _calibrate(val_scores, val_targets == 1.0, val_rel, Objective.MACRO)
        history.append((float(np.mean(losses)), val_macro))
    return params, history


def load_embeddings_loop(path):
    """An embedding CSV parsed and checked row by row, the way the loader once did it.

    Each row: blank line, field count, duplicate id, empty family, gender,
    then ``float`` on each number and a finiteness check; the first failure
    raises a line-numbered DataFormatError.
    """
    from pathlib import Path

    from kinverify.data import DataFormatError, EmbeddingStore, PersonRef
    from kinverify.relations import Gender

    path = Path(path)
    lines = path.read_bytes().decode("utf-8").splitlines()
    header = lines[0].split(",")
    dim = len(header) - 3
    rows, seen = [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise DataFormatError(f"{path}, line {lineno}: blank line")
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise DataFormatError(
                f"{path}, line {lineno}: expected {3 + dim} fields, got {len(parts)}"
            )
        if parts[0] in seen:
            raise DataFormatError(f"{path}, line {lineno}: duplicate person_id {parts[0]!r}")
        if not parts[1]:
            raise DataFormatError(f"{path}, line {lineno}: empty family_id")
        try:
            gender = Gender.from_code(parts[2])
            values = np.array([float(v) for v in parts[3:]], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}, line {lineno}: {exc}") from None
        if not np.isfinite(values).all():
            raise DataFormatError(f"{path}, line {lineno}: non-finite embedding value")
        seen.add(parts[0])
        rows.append((PersonRef(parts[0], parts[1], gender), values))
    return EmbeddingStore([ref for ref, _ in rows], np.array([v for _, v in rows]).reshape(-1, dim))


def latent_scalar(male, noise, parent_mean, gender_axis, config, flip_mask):
    """One person's (embedding, identity), one vector at a time, as ``synth`` once computed them."""
    k = config.identity_dims
    scale = config.noise_weight if parent_mean is not None else config.founder_scale * config.noise_weight
    identity = np.zeros(config.dim, dtype=np.float64)
    identity[:k] = scale * noise / np.sqrt(k)
    if parent_mean is not None:
        identity = identity + config.heritability * parent_mean
    expressed = identity
    if flip_mask is not None and not male:
        expressed = identity * flip_mask
    v = expressed + config.gender_weight * (1.0 if male else -1.0) * gender_axis
    return v / np.linalg.norm(v), identity


def serialize_model_v1(params):
    """A model file in format version 1, as the writer once produced it.

    The header fields are packed one by one, and the trailing CRC32 covers
    only the parameter payload.
    """
    import struct
    import zlib

    from kinverify.comparator import param_layout

    cfg = params.config
    activations = {"lrelu": 0, "relu": 1, "prelu": 2, "tanh": 3}
    sharings = {"per-expert": 0, "shared-trunk": 1, "entirely-local": 2}
    head = b"KINC" + struct.pack("<H", 1)
    head += struct.pack("<III", cfg.input_dim, cfg.hidden, len(cfg.relations))
    head += struct.pack(
        "<BBBB",
        activations[cfg.activation.value],
        sharings[cfg.sharing.value],
        1 if "attention.W" in params.values else 0,
        1 if params.threshold is not None else 0,
    )
    threshold = params.threshold if params.threshold is not None else 0.0
    head += struct.pack("<dd", cfg.dropout_p, threshold)
    for code in cfg.relations:
        head += struct.pack("<B", len(code)) + code.encode("ascii")
    payload = b"".join(
        np.ascontiguousarray(params.values[name], dtype="<f8").tobytes()
        for name, _ in param_layout(cfg, "attention.W" in params.values)
    )
    return head + payload + struct.pack("<I", zlib.crc32(payload))


def score_unknown_whole_array(params, features, mode):
    """Unknown-relation pooling over all rows at once: one full-cascade eval
    forward, the attention head over every row, then the pooling. The
    reference for the block-streamed ``score_unknown``."""
    from kinverify.comparator import PoolingMode, attention_forward, forward

    x = np.asarray(features, dtype=np.float64)
    z2, _ = forward(params, np.atleast_2d(x), mode="eval")
    if mode is PoolingMode.MEAN_POOL:
        out = z2.mean(axis=1)
    elif mode is PoolingMode.MAX_POOL:
        out = z2.max(axis=1)
    else:
        att = attention_forward(params, np.atleast_2d(x))
        if mode is PoolingMode.SOFT_ATTENTION:
            out = (att * z2).sum(axis=1)
        else:
            out = z2[np.arange(z2.shape[0]), att.argmax(axis=1)]
    return float(out[0]) if x.ndim == 1 else out


def cosine_distances_whole_array(store, pairs):
    """Cosine distances of all pairs from their whole n x 2d features at once.
    The reference for the block-streamed cosine scorer of ``score_pairs``."""
    from kinverify.data import pairs_to_arrays
    from kinverify.relations import CANONICAL_RELATION_CODES

    features, _, _ = pairs_to_arrays(store, pairs, CANONICAL_RELATION_CODES)
    m1, m2 = features[:, : store.dim], features[:, store.dim :]
    n1 = np.linalg.norm(m1, axis=1)
    n2 = np.linalg.norm(m2, axis=1)
    return 1.0 - np.sum(m1 * m2, axis=1) / (n1 * n2)
