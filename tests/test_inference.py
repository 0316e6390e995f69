"""Eval-mode forward is inference: same bits as training's arithmetic, no activations kept.

An eval forward must give exactly the probabilities of a train-mode forward
without dropout, full or relation-prefix, while its trace keeps no
per-expert array, so that pooling a large pair set holds a few hidden
blocks at a time instead of two per expert.
"""

import dataclasses
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinverify import comparator
from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    PoolingMode,
    SharingMode,
    _block_cuts,
    forward,
    init_params,
    score_unknown,
)
from kinverify.training import backward

CODES = ("BB", "SIBS", "SS", "FD", "FS")


@st.composite
def cases(draw, min_hidden=1):
    n_experts = draw(st.integers(1, len(CODES)))
    config = ComparatorConfig(
        input_dim=2 * draw(st.integers(1, 4)),
        hidden=draw(st.integers(min_hidden, 5)),
        activation=draw(st.sampled_from(Activation)),
        dropout_p=draw(st.sampled_from([0.0, 0.3])),
        sharing=draw(st.sampled_from(SharingMode)),
        relations=CODES[:n_experts],
    )
    n = draw(st.integers(1, 12))
    positions = draw(
        st.none() | st.lists(st.integers(0, n_experts - 1), min_size=n, max_size=n).map(np.array)
    )
    return config, n, positions, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_eval_probabilities_equal_train_without_dropout(case):
    config, n, positions, seed = case
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    for key in params.values:  # move away from zero biases and the init slope
        params.values[key] += 0.4 * rng.standard_normal(params.values[key].shape)
    features = rng.standard_normal((n, config.input_dim))
    no_dropout = ComparatorParams(dataclasses.replace(config, dropout_p=0.0), params.values)

    probs, trace = forward(params, features, mode="eval", positions=positions)
    train_probs, train_trace = forward(no_dropout, features, mode="train", positions=positions)
    assert np.array_equal(probs, train_probs)
    assert np.array_equal(trace.logits, train_trace.logits)
    assert trace.counts == train_trace.counts
    assert len(train_trace.hidden) == len(train_trace.pre_acts) == config.n_experts


def test_eval_trace_keeps_no_activations():
    config = ComparatorConfig(input_dim=4, hidden=3, dropout_p=0.0, relations=CODES[:3])
    params = init_params(config, 0)
    features = np.random.default_rng(0).standard_normal((5, 4))
    for positions in (None, np.array([2, 0, 1, 1, 0])):
        probs, trace = forward(params, features, mode="eval", positions=positions)
        assert trace.pre_acts == [] and trace.hidden == []
        assert trace.dropout_scale is None
        assert trace.inputs.shape == (5, 4)
        assert np.array_equal(trace.probs, probs)
        with pytest.raises(ValueError, match="train-mode trace"):
            backward(trace, params, np.array([2, 0, 1, 1, 0]), np.zeros(5))


def test_score_unknown_peak_memory_is_a_few_hidden_blocks():
    # 11 experts: keeping every activation would hold 22 hidden blocks
    params = init_params(ComparatorConfig(input_dim=128), 0)
    features = np.random.default_rng(0).standard_normal((5000, 128))
    block = features.shape[0] * params.config.hidden * 8
    score_unknown(params, features[:10], PoolingMode.MEAN_POOL)  # warm caches outside the count
    tracemalloc.start()
    try:
        score_unknown(params, features, PoolingMode.MEAN_POOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * block + features.nbytes


# Blocked eval forward. With the block size patched down to a few rows, a
# batch of up to 12 rows runs in several blocks. Blocks of one row and hidden
# layers of one unit are left out: numpy hands such a product to GEMV or dot
# instead of GEMM, whose sums run in another order, so its last bit can move.
@settings(max_examples=300, deadline=None)
@given(cases(min_hidden=2), st.integers(2, 4))
def test_blocked_eval_equals_unblocked_train(case, block):
    config, n, positions, seed = case
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    for key in params.values:
        params.values[key] += 0.4 * rng.standard_normal(params.values[key].shape)
    features = rng.standard_normal((n, config.input_dim))
    no_dropout = ComparatorParams(dataclasses.replace(config, dropout_p=0.0), params.values)

    train_probs, train_trace = forward(no_dropout, features, mode="train", positions=positions)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(comparator, "EVAL_BLOCK_ROWS", block)
        probs, trace = forward(params, features, mode="eval", positions=positions)
        # training never blocks: one array per expert, over all of that expert's rows
        _, patched_train = forward(no_dropout, features, mode="train", positions=positions)
    for arrays in (patched_train.pre_acts, patched_train.hidden):
        assert [a.shape for a in arrays] == [(c, config.hidden) for c in train_trace.counts]
    assert np.array_equal(patched_train.logits, train_trace.logits)
    assert np.array_equal(probs, train_probs)
    assert np.array_equal(trace.logits, train_trace.logits)
    assert np.array_equal(trace.inputs, train_trace.inputs)
    assert np.array_equal(trace.order, train_trace.order)
    assert trace.spans == train_trace.spans
    assert trace.pre_acts == [] and trace.hidden == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=6), st.integers(1, 8))
def test_block_cuts_keep_positions_aligned(sizes, block):
    ends = list(accumulate(sizes))
    n = ends[-1]
    cuts = _block_cuts(ends, n, block)
    spans = [(lo, hi) for lo, hi in zip([0] + ends, ends) if hi > lo]
    assert cuts[0] == 0 and cuts[-1] == n
    for cut in cuts[1:-1]:  # a multiple of block into a position's rows, block before their end
        lo, hi = next((lo, hi) for lo, hi in spans if lo <= cut < hi)
        assert (cut - lo) % block == 0 and hi - cut >= block
    for a, b in zip(cuts, cuts[1:]):
        assert b - a >= min(block, n)
        if b - a >= 2 * block:  # only positions of fewer than block rows make a block this long
            assert any(hi - lo < block for lo, hi in spans if lo < b and hi > a)
