"""Eval-mode forward is inference: same bits as training's arithmetic, no activations kept.

An eval forward of one block must give exactly the probabilities of a
train-mode forward without dropout, full or relation-prefix, while its
trace keeps no per-expert array, so that pooling a large pair set holds a
few hidden blocks at a time instead of two per expert.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinverify import comparator, evaluation
from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    PoolingMode,
    SharingMode,
    add_attention_head,
    forward,
    init_params,
    score_unknown,
)
from kinverify.data import EmbeddingStore, KinPair, PairLabel, PairSet, PersonRef, TriSample
from kinverify.data import TriSet, pairs_to_arrays
from kinverify.evaluation import Scorer, score_pairs, score_tris
from kinverify.relations import CANONICAL_RELATION_CODES, PARENT_CHILD, Gender, KinshipRelation
from kinverify.training import backward

from oracles import cosine_distances_whole_array, score_unknown_whole_array

CODES = ("BB", "SIBS", "SS", "FD", "FS")


@st.composite
def cases(draw, min_hidden=1, prefix=True):
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
    rows = st.lists(st.integers(0, n_experts - 1), min_size=n, max_size=n).map(np.array)
    positions = draw(st.none() | rows) if prefix else None
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
        assert trace.inputs.shape == (0, 4)  # each block gathers its rows; none are kept
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


# Blocked eval forward. With the block size patched down to a few rows, a batch
# of up to 12 rows runs in several blocks of block to 2 * block - 1 trace rows.
@settings(max_examples=300, deadline=None)
@given(cases(), st.integers(2, 4))
def test_blocked_eval_equals_eval_of_each_block_alone(case, block):
    # row for row, at any hidden size, full or relation-prefix: a block's
    # products are those of an eval forward over its rows alone, one block
    config, n, positions, seed = case
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    for key in params.values:
        params.values[key] += 0.4 * rng.standard_normal(params.values[key].shape)
    features = rng.standard_normal((n, config.input_dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(comparator, "EVAL_BLOCK_ROWS", block)
        probs, trace = forward(params, features, mode="eval", positions=positions)
        cuts = [*(range(0, n - block + 1, block) or [0]), n]
        for start, stop in zip(cuts, cuts[1:]):
            rows = slice(start, stop) if positions is None else trace.order[start:stop]
            alone, _ = forward(params, features[rows], mode="eval",
                               positions=None if positions is None else positions[rows])
            assert np.array_equal(probs[rows], alone), (start, stop)


@settings(max_examples=300, deadline=None)
@given(cases(min_hidden=2, prefix=False), st.integers(2, 4))
def test_blocked_eval_equals_unblocked_train(case, block):
    # A full cascade's blocks are slices of at least two rows, and with inputs
    # this small every product of two or more rows keeps the unblocked GEMM's
    # bits. Hidden layers of one unit are left out: numpy hands such a product
    # to GEMV or dot, whose sums run in another order.
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
    assert trace.inputs.shape == (0, config.input_dim)
    assert np.array_equal(trace.order, train_trace.order)
    assert trace.spans == train_trace.spans
    assert trace.pre_acts == [] and trace.hidden == []


def test_val_shaped_prefix_forward_peak_memory_is_a_few_blocks():
    # The shape of a validation split: 11 positions of 150-400 rows each,
    # about 2,700 rows in two blocks
    params = init_params(ComparatorConfig(input_dim=128), 0)
    rng = np.random.default_rng(0)
    positions = np.repeat(np.arange(11), rng.integers(150, 401, 11))
    rng.shuffle(positions)
    features = rng.standard_normal((len(positions), 128))
    block = comparator.EVAL_BLOCK_ROWS * params.config.hidden * 8
    forward(params, features[:10], positions=positions[:10])  # warm caches outside the count
    tracemalloc.start()
    try:
        forward(params, features, positions=positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an unblocked forward holds a sorted copy of the features and a few hidden
    # arrays over all 2,736 rows (15.1 MB, against 8.6 MB)
    assert peak < 4 * block + 2 * features.nbytes, (len(positions), peak)


# The batch scorers stream: each block of an eval forward gathers its rows and
# runs alone, so no scorer builds the n x 2d features, their trace-order copy or
# an (n, n_experts) temporary. The blocks are the eval forward's own, so every
# score keeps the bits of whole-array scoring.
PARENT_CHILD_CODES = ("FS", "FD", "MS", "MD")  # score_tris needs these four experts


@st.composite
def scoring_cases(draw):
    others = [c for c in CANONICAL_RELATION_CODES if c not in PARENT_CHILD_CODES]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    config = ComparatorConfig(
        input_dim=2 * draw(st.integers(1, 4)),
        hidden=draw(st.integers(2, 5)),
        activation=draw(st.sampled_from(Activation)),
        dropout_p=draw(st.sampled_from([0.0, 0.3])),
        sharing=draw(st.sampled_from(SharingMode)),
        relations=tuple(draw(st.permutations(PARENT_CHILD_CODES + tuple(extra)))),
    )
    return config, draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


def _random_people(rng, n_people, dim):
    refs = [PersonRef(f"p{i}", f"f{i}", Gender.MALE if i % 2 else Gender.FEMALE)
            for i in range(n_people)]
    return EmbeddingStore(refs, rng.standard_normal((n_people, dim))), [r.person_id for r in refs]


def _random_pairs(rng, ids, codes, n):
    people = rng.integers(len(ids), size=(n, 2)).tolist()
    return PairSet(tuple(
        KinPair(ids[a], ids[b], KinshipRelation(codes[r]), PairLabel.KIN if kin else PairLabel.NONKIN)
        for (a, b), r, kin in zip(people, rng.integers(len(codes), size=n), rng.integers(2, size=n))
    ))


def _random_tris(rng, ids, n):
    people = rng.integers(len(ids), size=(n, 3)).tolist()
    return TriSet(tuple(
        TriSample(ids[f], ids[m], ids[c], Gender.MALE if male else Gender.FEMALE,
                  PairLabel.KIN if kin else PairLabel.NONKIN)
        for (f, m, c), male, kin in zip(people, rng.integers(2, size=n), rng.integers(2, size=n))
    ))


@settings(max_examples=200, deadline=None)
@given(scoring_cases(), st.integers(2, 4))
def test_streamed_scorers_equal_whole_array_scoring(case, block):
    config, n, seed = case
    rng = np.random.default_rng(seed)
    params = add_attention_head(init_params(config, seed))
    for key in params.values:  # a random attention head, too
        params.values[key] = params.values[key] + 0.4 * rng.standard_normal(params.values[key].shape)
    store, ids = _random_people(rng, 6, config.input_dim // 2)
    pairs = _random_pairs(rng, ids, config.relations, n)
    tris = _random_tris(rng, ids, n)
    # the father-child pairs, then the mother-child pairs, as score_tris stacks them
    tri_pairs = [
        KinPair(t.father_id if g is Gender.MALE else t.mother_id, t.child_id,
                PARENT_CHILD[g, t.child_gender], t.label)
        for g in Gender for t in tris
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(comparator, "EVAL_BLOCK_ROWS", block)
        mp.setattr(evaluation, "EVAL_BLOCK_ROWS", block)
        features, pos, _ = pairs_to_arrays(store, pairs, config.relations)
        expected, _ = forward(params, features, mode="eval", positions=pos)
        scores = np.array([s.score for s in score_pairs(params, store, pairs)])
        assert np.array_equal(scores, expected)
        cosine = score_pairs(None, store, pairs, Scorer.COSINE).scores
        assert np.array_equal(cosine, cosine_distances_whole_array(store, pairs))

        tri_features, tri_pos, targets = pairs_to_arrays(store, tri_pairs, config.relations)
        expected, _ = forward(params, tri_features, mode="eval", positions=tri_pos)
        z_fc, z_mc, fused, tri_targets = score_tris(params, store, tris)
        assert np.array_equal(np.concatenate([z_fc, z_mc]), expected)
        assert np.array_equal(fused, (expected[:n] + expected[n:]) / 2.0)
        assert np.array_equal(tri_targets, targets[:n])

        for mode in PoolingMode:
            pooled = score_unknown(params, features, mode)
            assert np.array_equal(pooled, score_unknown_whole_array(params, features, mode))
            one = score_unknown(params, features[0], mode)
            assert one == score_unknown_whole_array(params, features[0], mode)


def _transient_peak(call) -> int:
    """Bytes allocated at peak during ``call()`` beyond what its result keeps."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


def test_batch_scorers_peak_does_not_grow_with_n_beyond_index_columns():
    # A narrow hidden layer keeps the blocks small, so whole-array temporaries
    # would show: the n x 2d features take 1,024 bytes a row here, their
    # trace-order copy as many again, and each (n, 11) array of the full
    # cascade and the pooling 88. Every position holds a multiple of 1,024
    # rows, so both sizes run in blocks of the same size. What may grow with
    # n is a few index columns and, for score_tris, one pair object a row:
    # under 150 bytes a row, against 2,084 and 2,330 for whole-array scoring,
    # 536 for whole-array pooling and 1,448 for whole-array cosine distances.
    rng = np.random.default_rng(0)
    store, ids = _random_people(rng, 400, 64)
    params = add_attention_head(init_params(ComparatorConfig(input_dim=128, hidden=8), 0))
    params.values["attention.W"] = rng.standard_normal(params.values["attention.W"].shape)

    def sons(n):  # n triples with a son each: n FS rows, then n MS rows
        tris = _random_tris(rng, ids, n)
        return TriSet(tuple(dataclasses.replace(t, child_gender=Gender.MALE) for t in tris))

    scorers = {  # name: (batch of n forward rows, scorer, allowed bytes a row)
        "score_pairs": (lambda n: _random_pairs(rng, ids, ("GMGS",), n),
                        lambda pairs: score_pairs(params, store, pairs), 256),
        "score_pairs cosine": (lambda n: _random_pairs(rng, ids, ("GMGS",), n),
                               lambda pairs: score_pairs(None, store, pairs, Scorer.COSINE), 256),
        "score_tris": (lambda n: sons(n // 2), lambda tris: score_tris(params, store, tris), 256),
        "score_unknown": (lambda n: rng.standard_normal((n, 128)),
                          lambda x: score_unknown(params, x, PoolingMode.SOFT_ATTENTION), 32),
    }
    small, large = 4 * 1024, 16 * 1024
    for name, (make, score, allowed) in scorers.items():
        score(make(10))  # warm caches outside the count
        peaks = [_transient_peak(lambda: score(batch)) for batch in (make(small), make(large))]
        assert (peaks[1] - peaks[0]) / (large - small) < allowed, (name, peaks)


def test_score_pairs_holds_one_copy_of_a_block_features():
    # 1,024 pairs make one block, whose features take 1 MB at input 128; a
    # hidden layer of 8 units keeps every other array of the block small, so
    # a second copy of the features (2.32 blocks at peak, against 1.30) shows
    rng = np.random.default_rng(3)
    store, ids = _random_people(rng, 400, 64)
    params = init_params(ComparatorConfig(input_dim=128, hidden=8), 0)
    pairs = _random_pairs(rng, ids, CANONICAL_RELATION_CODES, comparator.EVAL_BLOCK_ROWS)
    block = comparator.EVAL_BLOCK_ROWS * 128 * 8
    score_pairs(params, store, pairs.pairs[:10])  # warm caches outside the count
    peak = _transient_peak(lambda: score_pairs(params, store, pairs))
    assert peak < 1.8 * block, peak / block


def test_held_score_pairs_result_keeps_columns_not_an_object_a_pair():
    # A held result keeps the scored PairSet itself and one float64 score
    # column, 8 bytes a pair; a list of ScoredPair, with a boxed score and a
    # list slot each, kept about 122.
    rng = np.random.default_rng(2)
    store, ids = _random_people(rng, 400, 8)
    params = init_params(ComparatorConfig(input_dim=16, hidden=8), 0)
    pairs = _random_pairs(rng, ids, CANONICAL_RELATION_CODES, 8192)
    for model, scorer in ((params, Scorer.COMPARATOR), (None, Scorer.COSINE)):
        score_pairs(model, store, pairs.pairs[:10], scorer)  # warm caches outside the count
        tracemalloc.start()
        try:
            scored = score_pairs(model, store, pairs, scorer)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scored) == len(pairs)
        assert held / len(pairs) <= 40, (scorer, held / len(pairs))
