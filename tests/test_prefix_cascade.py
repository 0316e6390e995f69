"""Relation-prefix forward and backward against the full cascade.

A prefix forward runs each row only through the experts its relation
position needs. It must give each row the same selected probability as the
full forward, and its trace the same gradients as the full-cascade
reference, over every activation and sharing mode and any mix of
positions, including experts that get no rows.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    SharingMode,
    forward,
    hidden_layer_plan,
    init_params,
)
from kinverify.training import backward

from oracles import backward_zero_filled

CODES = ("BB", "SIBS", "SS", "FD", "FS")
TOL = 1e-12


@st.composite
def cases(draw):
    n_experts = draw(st.integers(1, len(CODES)))
    config = ComparatorConfig(
        input_dim=2 * draw(st.integers(1, 4)),
        hidden=draw(st.integers(1, 5)),
        activation=draw(st.sampled_from(Activation)),
        dropout_p=draw(st.sampled_from([0.0, 0.3])),
        sharing=draw(st.sampled_from(SharingMode)),
        relations=CODES[:n_experts],
    )
    # a cap below the top expert leaves the experts above it without rows
    top = draw(st.integers(0, n_experts - 1))
    positions = np.array(draw(st.lists(st.integers(0, top), min_size=1, max_size=12)))
    targets = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=positions.size,
                                     max_size=positions.size)))
    seed = draw(st.integers(0, 2**32 - 1))
    return config, positions, targets, seed


def _setup(config, n, seed):
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    for key in params.values:  # move away from zero biases and the init slope
        params.values[key] = params.values[key] + 0.4 * rng.standard_normal(params.values[key].shape)
    return params, rng.standard_normal((n, config.input_dim))


def _both(config, positions, seed):
    params, features = _setup(config, positions.size, seed)
    full, full_trace = forward(params, features, "train", rng=np.random.default_rng(seed))
    sel, prefix_trace = forward(
        params, features, "train", rng=np.random.default_rng(seed), positions=positions
    )
    return params, full, full_trace, sel, prefix_trace


@settings(max_examples=200, deadline=None)
@given(cases())
def test_prefix_probabilities_match_full(case):
    config, positions, _, seed = case
    _, full, full_trace, sel, prefix_trace = _both(config, positions, seed)
    n = positions.size
    assert sel.shape == (n,)  # only the selected probabilities come back
    npt.assert_allclose(sel, full[np.arange(n), positions], atol=TOL, rtol=0)
    # one dropout draw on the batch in the caller's order, as in the full path
    if full_trace.dropout_scale is None:
        assert prefix_trace.dropout_scale is None
    else:
        npt.assert_array_equal(prefix_trace.dropout_scale, full_trace.dropout_scale)

    exact = np.bincount(positions, minlength=config.n_experts)
    at_least = np.cumsum(exact[::-1])[::-1]
    local = config.sharing is SharingMode.ENTIRELY_LOCAL
    assert prefix_trace.counts == tuple(int(c) for c in (exact if local else at_least))
    assert list(positions[prefix_trace.order]) == sorted(positions, reverse=True)
    assert [h.shape[0] for h in prefix_trace.hidden] == list(prefix_trace.counts)
    # expert i writes exactly the trace rows of position i (none, if no row has it),
    # at the end of the rows it runs on, or all of them in entirely-local mode
    traced = positions[prefix_trace.order]
    for i, (lo, first, hi) in enumerate(prefix_trace.spans):
        assert list(np.flatnonzero(traced == i)) == list(range(first, hi))
        assert lo == (first if local else 0)
    # without positions every expert runs on and writes every row, in the caller's order
    assert full_trace.spans == ((0, 0, n),) * config.n_experts
    assert np.array_equal(full_trace.order, np.arange(n))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_prefix_gradients_match_full(case):
    config, positions, targets, seed = case
    params, _, full_trace, _, prefix_trace = _both(config, positions, seed)
    full_grads = backward_zero_filled(full_trace, params, positions, targets)
    prefix_grads = backward(prefix_trace, params, positions, targets)
    assert full_grads.keys() == prefix_grads.keys()
    for key in full_grads:
        npt.assert_allclose(prefix_grads[key], full_grads[key], atol=TOL, rtol=0, err_msg=key)

    # C3: no gradient reaches a parameter that no row's relation needs
    selected = set(positions.tolist())
    plan = hidden_layer_plan(config)
    for i in range(config.n_experts):
        if i not in selected:
            assert not prefix_grads[f"expert{i}.W2"].any()
            assert not prefix_grads[f"expert{i}.b2"].any()
        if config.sharing is SharingMode.SHARED_TRUNK and i > 0:
            continue  # the trunk serves every expert from 1 up
        needed = i in selected if config.sharing is SharingMode.ENTIRELY_LOCAL else i <= positions.max()
        if not needed:
            layer = plan[i]
            keys = [layer.w_key, layer.b_key] + ([layer.prelu_key] if layer.prelu_key else [])
            assert not any(prefix_grads[k].any() for k in keys)


@settings(max_examples=50, deadline=None)
@given(cases())
def test_single_vector_prefix_forward(case):
    config, positions, _, seed = case
    params, features = _setup(config, 1, seed)
    full, _ = forward(params, features[0])
    pos = int(positions[0])
    sel, _ = forward(params, features[0], positions=pos)
    assert np.ndim(sel) == 0
    assert abs(float(sel) - full[pos]) <= TOL


def test_backward_rejects_positions_the_trace_did_not_run():
    config = ComparatorConfig(input_dim=4, hidden=2, dropout_p=0.0, relations=CODES[:3])
    params, features = _setup(config, 3, 0)
    _, trace = forward(params, features, mode="train", positions=np.array([1, 1, 0]))
    # same multiset, other rows; and a position above the traced prefix
    for rel_idx in ([0, 1, 1], [1, 0, 1], [2, 1, 0]):
        with pytest.raises(ValueError, match="traced forward"):
            backward(trace, params, np.array(rel_idx), np.zeros(3))
