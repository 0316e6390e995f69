import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kinverify.comparator import (
    Activation,
    ComparatorConfig,
    ComparatorParams,
    PoolingMode,
    SharingMode,
    add_attention_head,
    activation_grad,
    apply_activation,
    attention_forward,
    forward,
    init_params,
    prelu_slope_grad,
    score_unknown,
    stable_sigmoid,
    verify,
)
from kinverify.data import PairLabel

from oracles import (
    dense_forward_oracle,
    sigmoid_masked,
    where_activation,
    where_activation_grad,
    where_prelu_slope_term,
)

TINY = ComparatorConfig(input_dim=8, hidden=3, dropout_p=0.0, relations=("BB", "FD", "GMGS"))


def rand_params(config, seed, spread=0.5):
    rng = np.random.default_rng(seed)
    params = init_params(config, seed)
    for key in params.values:
        params.values[key] = params.values[key] + spread * rng.standard_normal(
            params.values[key].shape
        )
    return params


def test_activation_values():
    assert apply_activation(np.array(1.0), Activation.LRELU) == 1.0
    assert apply_activation(np.array(-1.0), Activation.LRELU) == pytest.approx(-0.2)
    assert apply_activation(np.array(0.0), Activation.TANH) == 0.0
    assert apply_activation(np.array(-2.0), Activation.RELU) == 0.0
    assert apply_activation(np.array(-2.0), Activation.PRELU, slope=0.25) == pytest.approx(-0.5)


def _blocks(elements):
    return hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=9), elements=elements)


# Signed zeros, subnormals and infinities included; NaN is left out because
# forward rejects a non-finite pre-activation before any activation runs.
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf])
PRE_ACTS = _blocks(st.floats(allow_nan=False) | SPECIAL)
# A learned slope is finite (the loader rejects anything else); -0.0 is the
# one slope the arithmetic gate turns into +0.0.
SLOPES = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda s: s != 0.0 or math.copysign(1.0, s) > 0
)
PIECEWISE = [Activation.LRELU, Activation.RELU, Activation.PRELU]


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=300, deadline=None)
@given(PRE_ACTS, st.sampled_from(PIECEWISE), SLOPES)
def test_activation_has_the_bits_of_the_where_form(a, kind, slope):
    slope = slope if kind is Activation.PRELU else None
    with np.errstate(all="ignore"):  # huge slopes overflow, in both forms alike
        assert same_bits(apply_activation(a, kind, slope), where_activation(a, kind.value, slope))


@settings(max_examples=300, deadline=None)
@given(PRE_ACTS, st.sampled_from(PIECEWISE), SLOPES, st.data())
def test_activation_grad_has_the_bits_of_the_where_form(a, kind, slope, data):
    upstream = data.draw(hnp.arrays(np.float64, a.shape, elements=st.floats(-1e6, 1e6)))
    slope = slope if kind is Activation.PRELU else None
    with np.errstate(all="ignore"):
        z = apply_activation(a, kind, slope)
        got = activation_grad(upstream, a, z, kind, slope)
        assert same_bits(got, where_activation_grad(upstream, a, kind.value, slope))


@settings(max_examples=200, deadline=None)
@given(_blocks(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324])), st.data())
def test_prelu_slope_grad_has_the_bits_of_the_where_form(a, data):
    # pre-activations are finite wherever backward takes this gradient
    upstream = data.draw(hnp.arrays(np.float64, a.shape, elements=st.floats(-1e6, 1e6)))
    with np.errstate(all="ignore"):
        reference = np.sum(upstream * where_prelu_slope_term(a), keepdims=True).reshape(1)
        assert same_bits(prelu_slope_grad(upstream, a), reference)


def test_zero_params_give_half():
    params = init_params(TINY, seed=0)
    for key in params.values:
        params.values[key][:] = 0.0
    z2, _ = forward(params, np.ones(8))
    npt.assert_allclose(z2, np.full(3, 0.5))


def test_init_deterministic_and_shapes():
    a = init_params(TINY, seed=42)
    b = init_params(TINY, seed=42)
    for key in a.values:
        npt.assert_array_equal(a.values[key], b.values[key])

    default = ComparatorConfig(input_dim=1024)
    params = init_params(default, seed=1)
    assert params.values["expert0.W1"].shape == (192, 1024)
    for i in range(1, 11):
        assert params.values[f"expert{i}.W1"].shape == (192, 192)
        assert np.all(params.values[f"expert{i}.b1"] == 0.0)
        assert np.all(params.values[f"expert{i}.b2"] == 0.0)


def test_forward_matches_dense_oracle():
    # every activation and sharing mode, many random draws
    rng = np.random.default_rng(123)
    draws = 0
    for activation, sharing in itertools.product(Activation, SharingMode):
        config = ComparatorConfig(
            input_dim=8,
            hidden=3,
            activation=activation,
            dropout_p=0.0,
            sharing=sharing,
            relations=("BB", "FD", "GMGS"),
        )
        for trial in range(10):
            params = rand_params(config, seed=int(rng.integers(10_000)))
            fc = rng.standard_normal(8)
            z2, _ = forward(params, fc)
            expected = dense_forward_oracle(params, fc)
            npt.assert_allclose(z2, expected, atol=1e-12, rtol=0)
            draws += 1
    assert draws == 120


def test_forward_batch_matches_single():
    # batched and single-vector paths may use different BLAS kernels, so
    # agreement is to the last few ulps rather than bitwise
    params = rand_params(TINY, seed=5)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((6, 8))
    z_batch, _ = forward(params, batch)
    for i in range(6):
        z_one, _ = forward(params, batch[i])
        npt.assert_allclose(z_batch[i], z_one, atol=1e-12, rtol=0)


def test_forward_rejects_bad_input():
    params = rand_params(TINY, seed=5)
    with pytest.raises(ValueError):
        forward(params, np.ones(7))
    with pytest.raises(FloatingPointError):
        forward(params, np.array([np.nan] + [0.0] * 7))
    # train mode rejects them before the dropout draw: the rng does not advance and
    # no inf * 0 warning fires
    config = ComparatorConfig(input_dim=8, hidden=3, dropout_p=0.2, relations=("BB", "FD"))
    dropout = rand_params(config, seed=5)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for bad in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite entries in input features"):
                forward(dropout, np.array([bad] + [0.0] * 7), mode="train", rng=rng, positions=1)
    assert rng.bit_generator.state == state


def test_dropout_zero_equals_eval():
    config = ComparatorConfig(input_dim=8, hidden=3, dropout_p=0.0, relations=("BB", "FD"))
    params = rand_params(config, seed=9)
    fc = np.linspace(-1, 1, 8)
    z_eval, _ = forward(params, fc, mode="eval")
    z_train, _ = forward(params, fc, mode="train", rng=np.random.default_rng(0))
    npt.assert_array_equal(z_eval, z_train)


def test_inverted_dropout_mean_preserved():
    config = ComparatorConfig(input_dim=8, hidden=3, dropout_p=0.2, relations=("BB", "FD"))
    params = rand_params(config, seed=9)
    fc = np.linspace(0.5, 1.5, 8)
    rng = np.random.default_rng(77)
    total = np.zeros(8)
    n = 10_000
    for _ in range(n):
        _, trace = forward(params, fc, mode="train", rng=rng)
        total += trace.inputs[0]
    mean = total / n
    npt.assert_allclose(mean, fc, rtol=0.02)


def test_eval_forward_is_pure():
    params = rand_params(TINY, seed=31)
    fc = np.linspace(-2, 2, 8)
    z1, _ = forward(params, fc)
    z2, _ = forward(params, fc)
    npt.assert_array_equal(z1, z2)


def test_cascade_locality_perturbation():
    config = ComparatorConfig(
        input_dim=8, hidden=4, dropout_p=0.0, relations=("BB", "SIBS", "SS", "FD", "FS")
    )
    rng = np.random.default_rng(17)
    params = rand_params(config, seed=3)
    fc = rng.standard_normal(8)
    base, _ = forward(params, fc)
    for j in range(5):
        bumped = params.copy()
        bumped.values[f"expert{j}.W2"] += 0.37
        z, _ = forward(bumped, fc)
        changed = z != base
        assert changed[j]
        assert not changed[: j].any() and not changed[j + 1 :].any()

        bumped = params.copy()
        bumped.values[f"expert{j}.W1"] += 0.21
        z, _ = forward(bumped, fc)
        assert not (z[:j] != base[:j]).any()


def test_entirely_local_permutation_equivariance():
    config = ComparatorConfig(
        input_dim=8,
        hidden=3,
        dropout_p=0.0,
        sharing=SharingMode.ENTIRELY_LOCAL,
        relations=("BB", "FD", "GMGS"),
    )
    params = rand_params(config, seed=8)
    fc = np.linspace(-1, 1, 8)
    z, _ = forward(params, fc)

    perm = [2, 0, 1]
    permuted_config = ComparatorConfig(
        input_dim=8,
        hidden=3,
        dropout_p=0.0,
        sharing=SharingMode.ENTIRELY_LOCAL,
        relations=tuple(config.relations[p] for p in perm),
    )
    values = {}
    for new_i, old_i in enumerate(perm):
        for part in ("W1", "b1", "W2", "b2"):
            values[f"expert{new_i}.{part}"] = params.values[f"expert{old_i}.{part}"].copy()
    permuted = ComparatorParams(config=permuted_config, values=values)
    z_perm, _ = forward(permuted, fc)
    npt.assert_array_equal(z_perm, z[perm])


def test_outputs_strictly_inside_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(20):
        params = rand_params(TINY, seed=int(rng.integers(1000)))
        z, _ = forward(params, rng.standard_normal(8))
        assert np.all(z > 0.0) and np.all(z < 1.0)


def test_verify_decision_convention():
    params = init_params(TINY, seed=0)
    for key in params.values:
        params.values[key][:] = 0.0
    f = np.ones(4)
    score, decision = verify(params, f, f, "FD", threshold=0.5)
    assert score == 0.5 and decision is PairLabel.KIN  # tie counts as kin
    score, decision = verify(params, f, f, "FD", threshold=1.0)
    assert decision is PairLabel.NONKIN
    with pytest.raises(ValueError):
        verify(params, f, f, "FD", threshold=None)  # nothing stored
    params.threshold = 0.25
    _, decision = verify(params, f, f, "FD")
    assert decision is PairLabel.KIN


def test_attention_forward():
    params = add_attention_head(rand_params(TINY, seed=2))
    fc = np.linspace(-1, 1, 8)
    probs = attention_forward(params, fc)
    npt.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)  # zero head: uniform

    rng = np.random.default_rng(1)
    params.values["attention.W"] = rng.standard_normal((3, 8))
    params.values["attention.b"] = rng.standard_normal(3)
    probs = attention_forward(params, fc)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs > 0)
    shifted = attention_forward(params, fc)
    params.values["attention.b"] += 3.7  # constant shift leaves softmax unchanged
    npt.assert_allclose(attention_forward(params, fc), shifted, atol=1e-12)

    bare = rand_params(TINY, seed=2)
    with pytest.raises(ValueError):
        attention_forward(bare, fc)


def test_score_unknown_modes():
    params = add_attention_head(rand_params(TINY, seed=12))
    fc = np.linspace(-1, 1, 8)
    z2, _ = forward(params, fc)

    assert score_unknown(params, fc, PoolingMode.MEAN_POOL) == pytest.approx(z2.mean())
    assert score_unknown(params, fc, PoolingMode.MAX_POOL) == pytest.approx(z2.max())
    # uniform attention (zero head) makes soft attention equal mean pooling
    assert score_unknown(params, fc, PoolingMode.SOFT_ATTENTION) == pytest.approx(z2.mean())

    rng = np.random.default_rng(2)
    params.values["attention.W"] = rng.standard_normal((3, 8))
    att = attention_forward(params, fc)
    expected_hard = z2[int(np.argmax(att))]
    assert score_unknown(params, fc, PoolingMode.HARD_ATTENTION) == pytest.approx(expected_hard)
    soft = score_unknown(params, fc, PoolingMode.SOFT_ATTENTION)
    assert soft == pytest.approx(float((att * z2).sum()))

    constant = init_params(TINY, seed=0)
    for key in constant.values:
        constant.values[key][:] = 0.0
    constant = add_attention_head(constant)
    for mode in PoolingMode:
        assert score_unknown(constant, fc, mode) == pytest.approx(0.5)

    bare = rand_params(TINY, seed=12)
    with pytest.raises(ValueError):
        score_unknown(bare, fc, PoolingMode.SOFT_ATTENTION)


def test_score_unknown_without_attention_head_fails_before_any_expert_runs(monkeypatch):
    import kinverify.comparator as comparator

    def no_experts(*args, **kwargs):
        raise AssertionError("an expert ran")

    bare = rand_params(TINY, seed=12)
    features = np.zeros((4, TINY.input_dim))
    monkeypatch.setattr(comparator, "apply_activation", no_experts)
    for mode in (PoolingMode.SOFT_ATTENTION, PoolingMode.HARD_ATTENTION):
        with pytest.raises(ValueError, match="model has no attention head"):
            score_unknown(bare, features, mode)


def test_score_unknown_rejects_features_of_another_width():
    params = add_attention_head(rand_params(TINY, seed=12))
    for features in (np.zeros((4, 10)), np.zeros(10)):  # the model reads 8 inputs
        for mode in PoolingMode:
            with pytest.raises(ValueError, match="feature dim 10 does not match model input 8"):
                score_unknown(params, features, mode)


def test_stable_sigmoid_extremes():
    vals = stable_sigmoid(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
    assert np.isfinite(vals).all()
    assert vals[2] == 0.5
    assert vals[0] >= 0.0 and vals[-1] <= 1.0


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 1e308, -1e308, -800.0]


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
                  elements=st.floats() | st.sampled_from(SIGMOID_EDGES)))
def test_stable_sigmoid_has_the_masked_bits(x):
    # NaN's sign bit may differ; logits are checked finite before any sigmoid runs
    got, want = stable_sigmoid(x), sigmoid_masked(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
