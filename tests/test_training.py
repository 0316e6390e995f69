import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinverify
from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    SharingMode,
    add_attention_head,
    forward,
    init_params,
    stable_softmax,
)
from kinverify.data import PairLabel, PairSet
from kinverify.model_io import serialize_model
from kinverify.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    _attention_step,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    finite_difference_grads,
    gradcheck,
    train,
    train_attention,
)

from oracles import TextbookAdam, backward_zero_filled, l2_penalty, train_object_path

TINY = ComparatorConfig(input_dim=8, hidden=3, dropout_p=0.0, relations=("BB", "FD", "GMGS"))


def rand_params(config, seed, spread=0.3):
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    for key in params.values:
        params.values[key] = params.values[key] + spread * rng.standard_normal(
            params.values[key].shape
        )
    return params


def test_bce_loss_values():
    loss = bce_loss(np.array([0.0]), np.array([1.0]))
    assert loss[0] == pytest.approx(np.log(2.0))
    loss = bce_loss(np.array([0.0]), np.array([0.0]))
    assert loss[0] == pytest.approx(np.log(2.0))
    loss = bce_loss(np.array([50.0]), np.array([1.0]))
    assert 0.0 <= loss[0] < 1e-20
    loss = bce_loss(np.array([-800.0, 800.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss).all()


def test_l2_penalty():
    # adam_step returns the penalty of the parameters before the update and
    # adds its gradient into the state's gradients; lr 0 keeps the parameters
    def penalty_and_grads():
        state = AdamState.init_like(params)
        penalty = adam_step(state, 0.0, l2_lambda=2e-4)
        return penalty, state.grads

    params = init_params(TINY, seed=0)
    for key in params.values:
        params.values[key][:] = 0.0
    loss, grads = penalty_and_grads()
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())

    params.values["expert0.W1"][0, 0] = 3.0
    loss, grads = penalty_and_grads()
    assert loss == pytest.approx(1.8e-3)
    assert grads["expert0.W1"][0, 0] == pytest.approx(1.2e-3)

    params.values["expert0.b1"][0] = 2.0  # biases count too
    loss, grads = penalty_and_grads()
    assert loss == pytest.approx(1.8e-3 + 2e-4 * 4.0)
    assert grads["expert0.b1"][0] == pytest.approx(8e-4)


def test_backward_gradient_zero_structure():
    rng = np.random.default_rng(5)
    params = rand_params(TINY, seed=1)
    fc = rng.standard_normal((1, 8))

    # first expert selected: only expert 0 touched
    _, trace = forward(params, fc, mode="train", positions=np.array([0]))
    grads = backward(trace, params, np.array([0]), np.array([1.0]))
    for i in (1, 2):
        for part in ("W1", "b1", "W2", "b2"):
            assert np.all(grads[f"expert{i}.{part}"] == 0.0)
    assert np.any(grads["expert0.W1"] != 0.0)

    # last expert selected: all W2/b2 below zero, every W1 may be nonzero
    _, trace = forward(params, fc, mode="train", positions=np.array([2]))
    grads = backward(trace, params, np.array([2]), np.array([0.0]))
    for i in (0, 1):
        assert np.all(grads[f"expert{i}.W2"] == 0.0)
        assert np.all(grads[f"expert{i}.b2"] == 0.0)
    for i in (0, 1, 2):
        assert np.any(grads[f"expert{i}.W1"] != 0.0)


def test_backward_rejects_a_full_forward_trace():
    # backward takes only the relation-prefix trace that train gives it. With one
    # expert the full plan and the prefix plan coincide, so the result shape decides.
    fc = np.random.default_rng(5).standard_normal((3, 8))
    one_expert = dataclasses.replace(TINY, relations=("BB",))
    for config, rel in ((TINY, [0, 2, 1]), (one_expert, [0, 0, 0])):
        params = rand_params(config, seed=1)
        _, trace = forward(params, fc, mode="train")
        _, prefix = forward(params, fc, mode="train", positions=np.array(rel))
        same_plan = np.array_equal(trace.order, prefix.order) and trace.spans == prefix.spans
        assert same_plan == (config is one_expert)
        assert trace.logits.shape == (3, config.n_experts)
        with pytest.raises(ValueError, match="relation-prefix trace"):
            backward(trace, params, np.array(rel), np.array([1.0, 0.0, 1.0]))


def test_gradcheck_all_modes_fast():
    import time

    start = time.time()
    err = gradcheck(seed=0)
    elapsed = time.time() - start
    assert err < 1e-6
    assert elapsed < 10.0  # generous here; the acceptance suite pins < 1 s per mode set


def test_gradcheck_tanh_specifically():
    # every activation and sharing mode, tanh per-expert among them, at another seed
    err = gradcheck(seed=3)
    assert err < 1e-6


def test_gradcheck_detects_corrupted_gradient():
    rng = np.random.default_rng(0)
    params = rand_params(TINY, seed=2)
    fc = rng.standard_normal((2, 8))
    rel = np.array([0, 2])
    targets = np.array([1.0, 0.0])
    _, trace = forward(params, fc, mode="train", positions=rel)
    analytic = backward(trace, params, rel, targets)
    analytic["expert0.W1"] = analytic["expert0.W1"] + 0.05  # fault injection
    numeric = finite_difference_grads(params, fc, rel, targets)
    worst = 0.0
    for key in analytic:
        denom = np.maximum(1.0, np.maximum(np.abs(analytic[key]), np.abs(numeric[key])))
        worst = max(worst, float(np.max(np.abs(analytic[key] - numeric[key]) / denom)))
    assert worst > 1e-2


def test_backward_matches_fd_with_dropout_mask():
    config = ComparatorConfig(input_dim=8, hidden=3, dropout_p=0.3, relations=("BB", "FD"))
    params = rand_params(config, seed=11)
    rng = np.random.default_rng(1)
    fc = rng.standard_normal((3, 8))
    rel = np.array([0, 1, 1])
    targets = np.array([1.0, 0.0, 1.0])
    _, trace = forward(params, fc, mode="train", rng=rng, positions=rel)
    analytic = backward(trace, params, rel, targets)
    numeric = finite_difference_grads(params, fc * trace.dropout_scale, rel, targets)
    for key in analytic:
        denom = np.maximum(1.0, np.maximum(np.abs(analytic[key]), np.abs(numeric[key])))
        assert float(np.max(np.abs(analytic[key] - numeric[key]) / denom)) < 1e-6


def test_adam_first_step_magnitude():
    params = init_params(TINY, seed=0)
    state = AdamState.init_like(params)
    state.grads["expert0.b2"][0] = 0.3
    before = params.values["expert0.b2"][0]
    w_before = params.values["expert0.W1"].copy()
    adam_step(state, lr=0.001)
    update = before - params.values["expert0.b2"][0]
    assert update == pytest.approx(0.001 * 0.3 / (0.3 + 1e-8))
    npt.assert_array_equal(params.values["expert0.W1"], w_before)  # zero grad: unchanged
    assert state.t == 1


def test_adam_zero_gradient_never_moves():
    params = init_params(TINY, seed=0)
    reference = {k: v.copy() for k, v in params.values.items()}
    state = AdamState.init_like(params)
    for _ in range(5):
        adam_step(state, lr=0.01)
    for key in reference:
        npt.assert_array_equal(params.values[key], reference[key])


def test_adam_state_lays_the_trained_arrays_out_flat():
    # the trained arrays are copied into one buffer and rebound to its views
    params = init_params(TINY, seed=0)
    state = AdamState.init_like(params)
    assert state.param.size == sum(v.size for v in params.values.values())
    assert all(np.shares_memory(state.param, v) for v in params.values.values())
    params = rand_params(TINY, seed=1)
    expected = {k: v.copy() for k, v in params.values.items()}
    state = AdamState.init_like(params, keys=["expert1.W1", "expert0.b2"])
    assert np.shares_memory(state.param, params.values["expert1.W1"])
    assert not np.shares_memory(state.param, params.values["expert0.W1"])
    for key, value in expected.items():
        assert params.values[key].tobytes() == value.tobytes()


@st.composite
def optimizer_cases(draw):
    """Mixed layouts, gradients holding +-0.0, several steps, and the L2 factor."""
    # 1, 192 and 36,864 elements occur in the default model; 70,000 is over one chunk
    sizes = draw(st.lists(st.sampled_from([1, 192, 36_864, 70_000]), min_size=1, max_size=5))
    kind = st.sampled_from(["W1", "b1", "W2", "b2", "prelu"])
    kinds = draw(st.lists(kind, min_size=len(sizes), max_size=len(sizes)))
    shapes = [(192, 192) if size == 36_864 else (size,) for size in sizes]
    layout = [(f"expert{i}.{kind}", shape) for i, (kind, shape) in enumerate(zip(kinds, shapes))]
    layout += [("attention.W", (11, 128)), ("attention.b", (11,))]
    return (
        layout,
        draw(st.booleans()),  # train the attention keys only
        draw(st.sampled_from([0.0, 2e-4])),
        draw(st.integers(1, 3)),  # steps
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(optimizer_cases())
def test_fused_step_equals_textbook_optimizer(case):
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)  # the paper's recipe
    layout, attention_only, lam, steps, seed = case
    rng = np.random.default_rng(seed)

    def signed_zeros(shape):
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.2] = 0.0
        a[rng.random(shape) < 0.2] = -0.0
        return a

    values = {name: signed_zeros(shape) for name, shape in layout}
    params = ComparatorParams(TINY, {k: v.copy() for k, v in values.items()})
    expected = ComparatorParams(TINY, {k: v.copy() for k, v in values.items()})
    keys = [k for k in values if k.startswith("attention.")] if attention_only else list(values)
    state = AdamState.init_like(params, keys)
    adam = TextbookAdam(expected, keys)
    for _ in range(steps):
        grads = {k: signed_zeros(values[k].shape) for k in keys}
        for k in keys:
            state.grads[k][...] = grads[k]
        penalty = adam_step(state, 0.001, lam)
        reg, grads = l2_penalty(expected, lam, grads)
        adam.step(expected, grads, 0.001)
        assert penalty == reg
        # with lam 0 the reference still adds p * 0.0, which can turn a -0.0 into 0.0
        assert np.array_equal(state.grad, np.concatenate([grads[k].ravel() for k in keys]))
    for key in values:
        assert params.values[key].tobytes() == expected.values[key].tobytes(), key
    for got, moments in ((state.m, adam.m), (state.v, adam.v)):
        assert got.tobytes() == np.concatenate([moments[k].ravel() for k in keys]).tobytes()


def test_train_zero_epochs_returns_init(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4)
    params, history = train(
        world.store,
        world.kin_pairs["train"],
        world.eval_pairs["val"],
        config,
        TrainConfig(epochs=0, seed=7),
    )
    assert history == []
    reference = init_params(config, 7)
    for key in reference.values:
        npt.assert_array_equal(params.values[key], reference.values[key])


def test_train_lr_schedule_and_history(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4)
    tcfg = TrainConfig(epochs=4, batch_size=64, seed=3)
    _, history = train(
        world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg
    )
    assert [h.lr for h in history] == [0.001, 0.001, 0.0005, 0.0005]
    assert [h.epoch for h in history] == [1, 2, 3, 4]
    assert all(np.isfinite(h.train_loss) for h in history)
    assert all(0.0 <= h.val_macro_acc <= 1.0 for h in history)


def test_train_determinism_bytes(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4)
    tcfg = TrainConfig(epochs=2, batch_size=64, seed=3)
    a, _ = train(world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg)
    b, _ = train(world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg)
    assert serialize_model(a) == serialize_model(b)


@pytest.mark.parametrize("activation", [Activation.LRELU, Activation.PRELU])
@pytest.mark.parametrize("sharing", list(SharingMode))
def test_train_equals_object_path(tiny_world, activation, sharing):
    # index arrays, one nonkin draw table and in-place gradients give the
    # bytes of per-epoch pair objects, pairs_to_arrays and zero-filled +=
    world = tiny_world
    config = ComparatorConfig(
        input_dim=2 * world.store.dim, hidden=5, activation=activation, sharing=sharing
    )
    tcfg = TrainConfig(epochs=3, batch_size=32, seed=3)  # epoch 3 runs at the late rate
    args = (world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg)
    params, history = train(*args)
    expected, expected_history = train_object_path(*args)
    assert serialize_model(params) == serialize_model(expected)
    assert [(h.train_loss, h.val_macro_acc) for h in history] == expected_history


def test_train_rejects_an_empty_kin_or_val_set(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4)
    kin, val = world.kin_pairs["train"], world.eval_pairs["val"]
    # a val set of one class cannot be calibrated; a kin set must hold only kin pairs
    kin_val = PairSet(tuple(p for p in val if p.label is PairLabel.KIN))
    nonkin_val = PairSet(tuple(p for p in val if p.label is PairLabel.NONKIN))
    # a val pair without a label would score as nonkin
    unlabelled_val = PairSet(tuple(
        dataclasses.replace(p, label=None) if p.label is PairLabel.NONKIN else p for p in val
    ))
    first_nonkin = next(i for i, p in enumerate(val) if p.label is PairLabel.NONKIN)
    pairs = list(kin.pairs)
    mixed = {}
    for i, label in ((5, PairLabel.NONKIN), (2, None)):
        bad = pairs.copy()
        bad[i] = dataclasses.replace(pairs[i], label=label)
        bad[i + 3] = dataclasses.replace(pairs[i + 3], label=PairLabel.NONKIN)
        mixed[i] = PairSet(tuple(bad))
    for epochs in (0, 1):
        tc = TrainConfig(epochs=epochs)
        with pytest.raises(ValueError, match="non-empty kin pair set"):
            train(world.store, PairSet(()), val, config, tc)
        with pytest.raises(ValueError, match="non-empty kin pair set"):
            train_attention(init_params(config, 0), world.store, PairSet(()), tc)
        with pytest.raises(ValueError, match="non-empty val pair set"):
            train(world.store, kin, PairSet(()), config, tc)
        for one_class in (kin_val, nonkin_val):
            with pytest.raises(ValueError, match="calibration needs both kin and nonkin samples"):
                train(world.store, kin, one_class, config, tc)
        with pytest.raises(ValueError, match=f"val pair {first_nonkin} has no label"):
            train(world.store, kin, unlabelled_val, config, tc)
        for i, bad in mixed.items():
            with pytest.raises(ValueError, match=f"kin pair {i} is not labelled kin"):
                train(world.store, bad, val, config, tc)
            with pytest.raises(ValueError, match=f"kin pair {i} is not labelled kin"):
                train_attention(init_params(config, 0), world.store, bad, tc)


def test_divergence_is_an_error():
    # an ADAM second moment that overflows to inf makes every later step 0.0, which froze
    # the parameters without a word; the epoch loop refuses a non-finite moment or parameter
    from kinverify.data import EmbeddingStore
    from kinverify.synth import SynthConfig, generate_world

    world = generate_world(SynthConfig(
        dim=8, identity_dims=4, n_train_families=8, n_val_families=3, n_test_families=3, seed=1
    ))
    refs = [world.store.person(pid) for pid in world.store.person_ids]
    store = EmbeddingStore(refs, world.store.matrix * 1e300)
    config, tc = ComparatorConfig(input_dim=16, hidden=4), TrainConfig(epochs=2, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as exc:
            train(store, world.kin_pairs["train"], world.eval_pairs["val"], config, tc)
        assert str(exc.value) == "training diverged in epoch 1: expert0.W1 is not finite"
        with pytest.raises(FloatingPointError) as exc:
            train_attention(init_params(config, 1), store, world.kin_pairs["train"], tc)
        assert str(exc.value) == "training diverged in epoch 1: attention.W is not finite"


@st.composite
def backward_cases(draw):
    codes = ("BB", "SIBS", "SS", "FD", "FS")
    n_experts = draw(st.integers(1, len(codes)))
    config = ComparatorConfig(
        input_dim=2 * draw(st.integers(1, 4)),
        hidden=draw(st.integers(1, 5)),
        activation=draw(st.sampled_from(Activation)),
        dropout_p=draw(st.sampled_from([0.0, 0.3])),
        sharing=draw(st.sampled_from(SharingMode)),
        relations=codes[:n_experts],
    )
    n = draw(st.integers(1, 12))
    # the highest position is often below the last expert, so some experts get no rows
    top = draw(st.integers(0, n_experts - 1))
    rel_idx = np.array(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    targets = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    return config, rel_idx, targets, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(backward_cases())
def test_backward_equals_zero_filled_accumulation(case):
    config, rel_idx, targets, seed = case
    params = rand_params(config, seed, spread=0.4)
    features = np.random.default_rng(seed).standard_normal((len(rel_idx), config.input_dim))
    rng = np.random.default_rng(seed + 1)
    _, trace = forward(params, features, mode="train", rng=rng, positions=rel_idx)
    got = backward(trace, params, rel_idx, targets)
    expected = backward_zero_filled(trace, params, rel_idx, targets)
    assert list(got) == list(expected) == params.expert_keys()
    for key in expected:
        assert got[key].shape == expected[key].shape
        assert np.array_equal(got[key], expected[key]), key


def test_l2_raises_loss(tiny_world, monkeypatch):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4)
    tcfg = TrainConfig(epochs=1, batch_size=64, seed=3)
    args = (world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg)
    _, h1 = train(*args)
    monkeypatch.setattr(kinverify.training, "L2_LAMBDA", 0.0)
    _, h0 = train(*args)
    assert h1[0].train_loss > h0[0].train_loss


def test_epoch_nonkin_sets_differ(tiny_world):
    from kinverify.data import augment_symmetric, resample_nonkin

    world = tiny_world
    aug = augment_symmetric(world.kin_pairs["train"])
    first = set(resample_nonkin(aug, world.store, 3, 1).pairs)
    second = set(resample_nonkin(aug, world.store, 3, 2).pairs)
    overlap = len(first & second) / len(first)
    assert overlap < 0.5


def test_train_attention_freezes_experts(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4)
    tcfg = TrainConfig(epochs=1, batch_size=64, seed=3)
    params, _ = train(world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg)
    fc = np.concatenate(
        [world.store.matrix[0], world.store.matrix[1]]
    )
    before, _ = forward(params, fc)

    trained = train_attention(params, world.store, world.kin_pairs["train"], tcfg)
    assert trained.has_attention
    after, _ = forward(trained, fc)
    npt.assert_array_equal(before, after)  # expert path bit-identical

    # zero-epoch head training keeps the uniform head
    untouched = train_attention(params, world.store, world.kin_pairs["train"], TrainConfig(epochs=0, seed=3))
    assert np.all(untouched.values["attention.W"] == 0.0)


def test_attention_step_matches_finite_differences():
    rng = np.random.default_rng(11)
    params = add_attention_head(init_params(TINY, 0))
    for key in params.attention_keys():
        params.values[key] = 0.5 * rng.standard_normal(params.values[key].shape)
    matrix = rng.standard_normal((4, TINY.input_dim // 2))  # a store's embeddings
    rows1, rows2 = rng.integers(4, size=6), rng.integers(4, size=6)
    features = np.concatenate([matrix[rows1], matrix[rows2]], axis=1)
    rel_idx = np.array([0, 1, 2, 1, 0, 2])
    batch = (matrix, rows1, rows2, rel_idx)

    grads = {k: np.empty_like(params.values[k]) for k in params.attention_keys()}
    loss, analytic = _attention_step(params, grads, *batch)
    logits = features @ params.values["attention.W"].T + params.values["attention.b"]
    expected = -np.log(stable_softmax(logits)[np.arange(6), rel_idx]).mean()
    assert loss == pytest.approx(expected, rel=1e-12)

    step = 1e-6
    scratch = {k: np.empty_like(g) for k, g in grads.items()}  # the difference quotients' own
    assert sorted(analytic) == sorted(params.attention_keys())
    for name, grad in analytic.items():
        flat = params.values[name].reshape(-1)
        numeric = np.zeros(flat.size)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = _attention_step(params, scratch, *batch)[0]
            flat[j] = orig - step
            down = _attention_step(params, scratch, *batch)[0]
            flat[j] = orig
            numeric[j] = (up - down) / (2.0 * step)
        npt.assert_allclose(grad.reshape(-1), numeric, atol=1e-8)


def test_train_attention_determinism_bytes(tiny_world):
    world = tiny_world
    config = ComparatorConfig(input_dim=2 * world.store.dim, hidden=4)
    tcfg = TrainConfig(epochs=2, batch_size=64, seed=3)
    params, _ = train(world.store, world.kin_pairs["train"], world.eval_pairs["val"], config, tcfg)
    a = train_attention(params, world.store, world.kin_pairs["train"], tcfg)
    b = train_attention(params, world.store, world.kin_pairs["train"], tcfg)
    assert np.any(a.values["attention.W"] != 0.0)
    assert serialize_model(a) == serialize_model(b)


def test_train_attention_holds_no_feature_matrix_of_its_pairs(default_world):
    # The features of the default world's 20,670 augmented kin pairs would take
    # 21 MB, and an epoch's shuffled copy as much again; gathered batch by batch
    # from store rows, the call peaks near 6 MB.
    world = default_world
    params = init_params(ComparatorConfig(input_dim=2 * world.store.dim), 4)
    tracemalloc.start()
    try:
        train_attention(params, world.store, world.kin_pairs["train"], TrainConfig(epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    assert TrainConfig().lr_for_epoch(2) == 0.001
    assert TrainConfig().lr_for_epoch(3) == 0.0005


def test_model_bytes_do_not_depend_on_blas_threads():
    # batch 200 x 128 inputs x 192 hidden is far above OpenBLAS's threading cut-off;
    # the history holds each epoch's validation scores, and the attention head is
    # trained on batches gathered from the store
    script = textwrap.dedent(
        """
        import hashlib
        from kinverify.comparator import ComparatorConfig
        from kinverify.model_io import serialize_model
        from kinverify.synth import SynthConfig, generate_world
        from kinverify.training import TrainConfig, train, train_attention

        world = generate_world(SynthConfig(n_train_families=40, n_val_families=8,
                                           n_test_families=8, seed=4))
        tcfg = TrainConfig(epochs=2, seed=4)
        params, history = train(world.store, world.kin_pairs["train"], world.eval_pairs["val"],
                                ComparatorConfig(input_dim=128), tcfg)
        print(hashlib.sha256(serialize_model(params)).hexdigest())
        print([(h.train_loss, h.val_macro_acc) for h in history])
        head = train_attention(params, world.store, world.kin_pairs["train"], tcfg)
        print(hashlib.sha256(head.values["attention.W"].tobytes()
                             + head.values["attention.b"].tobytes()).hexdigest())
        """
    )
    digests = _stdout_per_blas_threads(script)
    assert len(digests) == 1
    model, _, head = digests.pop().splitlines()
    assert len(model) == len(head) == 64


def test_eval_scores_do_not_depend_on_blas_threads():
    # 10,006 rows: the full cascade's logit GEMV over all rows, and the prefix
    # one over the ~3,770 rows of position 10, are far above OpenBLAS's
    # threading cut-off, and half of either is not a multiple of four rows.
    # The third batch has the shape of a validation split, 11 positions of
    # 150-400 rows, which only position-boundary cuts split into blocks.
    # score_unknown pools the 10,006 rows block by block under all four
    # poolings, with a random attention head. score_pairs and score_tris run
    # the same blocks on features they gather from a random store.
    script = textwrap.dedent(
        """
        import hashlib
        import numpy as np
        from kinverify.comparator import (
            ComparatorConfig, PoolingMode, add_attention_head, forward, init_params, score_unknown,
        )
        from kinverify.data import EmbeddingStore, KinPair, PairLabel, PairSet, PersonRef
        from kinverify.data import TriSample, TriSet
        from kinverify.evaluation import score_pairs, score_tris
        from kinverify.relations import Gender, KinshipRelation

        params = add_attention_head(init_params(ComparatorConfig(input_dim=128), 5))
        rng = np.random.default_rng(0)
        features = rng.standard_normal((10_006, 128))
        positions = np.minimum(rng.integers(0, 16, len(features)), 10)
        small = rng.permutation(np.repeat(np.arange(11), rng.integers(150, 401, 11)))
        for x, pos in ((features, None), (features, positions), (features[: len(small)], small)):
            probs, _ = forward(params, x, positions=pos)
            print(hashlib.sha256(probs.tobytes()).hexdigest())
        for key in ("attention.W", "attention.b"):
            params.values[key] = rng.standard_normal(params.values[key].shape)
        for mode in PoolingMode:
            pooled = score_unknown(params, features, mode)
            print(hashlib.sha256(pooled.tobytes()).hexdigest())
        refs = [PersonRef(f"p{i}", "f", Gender.MALE if i % 2 else Gender.FEMALE) for i in range(400)]
        store = EmbeddingStore(refs, rng.standard_normal((400, 64)))
        people = rng.integers(400, size=(len(features), 3)).tolist()
        codes = [KinshipRelation(params.config.relations[p]) for p in positions]
        pairs = PairSet(tuple(
            KinPair(f"p{a}", f"p{b}", code, PairLabel.KIN) for (a, b, _), code in zip(people, codes)
        ))
        print(hashlib.sha256(score_pairs(params, store, pairs).scores.tobytes()).hexdigest())
        tris = TriSet(tuple(
            TriSample(f"p{f}", f"p{m}", f"p{c}", Gender.MALE if c % 2 else Gender.FEMALE, None)
            for f, m, c in people
        ))
        print(hashlib.sha256(np.concatenate(score_tris(params, store, tris)[:2]).tobytes()).hexdigest())
        """
    )
    digests = _stdout_per_blas_threads(script)
    assert len(digests) == 1 and len(digests.pop().split()) == 9


def _stdout_per_blas_threads(script: str) -> set[str]:
    """The set of what ``script`` prints under one and under two OpenBLAS threads."""
    src = str(Path(kinverify.__file__).resolve().parents[1])
    out = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        out.add(done.stdout.strip())
    return out
