import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servoneuro import mlp
from servoneuro.control import NeuralController
from servoneuro.plant import MotorParams, static_map
from servoneuro.scaling import AffineScaling

sizes = st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=4)


@given(layer_sizes=sizes, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_flatten_unflatten_round_trip(layer_sizes, seed):
    acts = ["tanh"] * (len(layer_sizes) - 2) + ["linear"]
    net = mlp.init_weights(layer_sizes, acts, seed=seed, scale=1.0)
    # a plain list of the flat weights rebuilds the same network
    assert mlp.MlpNetwork(layer_sizes, acts, list(net.weights)) == net


@given(
    u1=st.floats(-20, 20, allow_nan=False),
    u2=st.floats(-20, 20, allow_nan=False),
)
def test_static_map_monotone(u1, u2):
    params = MotorParams(noise_sigma=0.0)
    lo, hi = sorted((u1, u2))
    assert static_map(params, lo) <= static_map(params, hi)


@given(
    data=st.lists(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3),
        min_size=2,
        max_size=20,
    )
)
@settings(max_examples=50)
@example(data=[[0.0, 0.0, 0.0], [0.0, 0.0, 5e-324]])  # subnormal span
@example(data=[[0.0, 0.0, -1000.0], [0.0, 0.0, -999.9999999999999]])  # one-ulp span
@example(data=[[0.0, 0.0, -1000.0], [0.0, 0.0, -999.9999999999997]])  # three-ulp span
def test_unit_range_scaling_round_trips(data):
    arr = np.array(data)
    scaling = AffineScaling.to_unit_range(arr)
    scaled = scaling.apply(arr)
    assert scaled.min() >= -1.0 - 1e-9
    assert scaled.max() <= 1.0 + 1e-9
    assert np.allclose(scaling.invert(scaled), arr, rtol=1e-9, atol=1e-6)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_forward_is_pure(seed):
    net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=seed, scale=0.5)
    x = np.random.default_rng(seed).normal(size=5)
    assert mlp.forward(net, x) == mlp.forward(net, x)
    assert np.isfinite(mlp.forward(net, x))


activations = st.sampled_from(["tanh", "linear"])


@st.composite
def networks(draw, input_width=None, output_width=None):
    """Random nets with 1-3 hidden layers, per-layer tanh/linear activations."""
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    n_in = input_width or draw(st.integers(1, 8))
    n_out = output_width or draw(st.integers(1, 3))
    sizes = [n_in, *hidden, n_out]
    acts = draw(st.lists(activations, min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    scale = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    return mlp.init_weights(sizes, acts, seed=draw(st.integers(0, 2**31 - 1)), scale=scale)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@given(net=networks(), seed=st.integers(0, 2**31 - 1), log_scale=st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_forward_matches_forward_batch_bit_for_bit(net, seed, log_scale):
    x = np.random.default_rng(seed).normal(size=net.input_width) * 10.0**log_scale
    single = mlp.forward(net, x)
    row = mlp.forward_batch(net, x[None])[0]
    assert _bits(single) == _bits(row[0] if net.output_width == 1 else row)


@given(
    net=networks(input_width=5, output_width=1),
    seed=st.integers(0, 2**31 - 1),
    log_scale=st.integers(-2, 2),
)
@settings(max_examples=100, deadline=None)
def test_controller_matches_array_scaling_bit_for_bit(net, seed, log_scale):
    rng = np.random.default_rng(seed)
    input_scaling = AffineScaling(rng.normal(size=5), rng.uniform(0.1, 3.0, 5))
    sign = rng.choice([-1.0, 1.0])
    target_scaling = AffineScaling(rng.normal(size=1) * 5, sign * rng.uniform(0.1, 3.0, 1))
    regressor = rng.normal(size=5) * 10.0**log_scale
    out = mlp.forward(net, input_scaling.apply(regressor))
    expected = target_scaling.invert(np.array([out]))[0]
    got = NeuralController(net, input_scaling, target_scaling)(regressor)
    assert _bits(got) == _bits(expected)


def _concatenated_error_jacobian(net, X):
    """The error Jacobian as first written: one broadcast block per layer,
    concatenated and then negated.  error_jacobian must match it bit for bit."""
    acts = [X]
    a = X
    layers = list(net.layers())
    for (W, b), kind in zip(layers, net.activations):
        a = a @ W.T + b
        if kind is mlp.ActivationKind.TANH:
            a = np.tanh(a)
        acts.append(a)
    P = X.shape[0]
    if net.activations[-1] is mlp.ActivationKind.TANH:
        delta = 1.0 - acts[-1] ** 2
    else:
        delta = np.ones((P, 1))
    blocks = []
    for layer in range(len(layers) - 1, -1, -1):
        grad_w = delta[:, :, None] * acts[layer][:, None, :]
        block = np.concatenate([grad_w, delta[:, :, None]], axis=2)
        blocks.append(block.reshape(P, -1))
        if layer > 0:
            back = delta @ layers[layer][0]
            if net.activations[layer - 1] is mlp.ActivationKind.TANH:
                back = back * (1.0 - acts[layer] ** 2)
            delta = back
    return -np.concatenate(blocks[::-1], axis=1)


@given(
    net=networks(output_width=1),
    n_patterns=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
    log_scale=st.integers(-3, 3),
)
@settings(max_examples=150, deadline=None)
def test_error_jacobian_matches_concatenated_form_bit_for_bit(net, n_patterns, seed, log_scale):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_patterns, net.input_width)) * 10.0**log_scale
    J = mlp.error_jacobian(net, X, rng.normal(size=(n_patterns, 1)))
    assert J.flags.c_contiguous
    assert J.shape == (n_patterns, net.n_weights)
    assert _bits(J) == _bits(_concatenated_error_jacobian(net, X))


@given(net=networks(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_with_weights_matches_constructor(net, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=net.n_weights)
    X = rng.normal(size=(7, net.input_width))
    fresh = mlp.MlpNetwork(net.layer_sizes, net.activations, w)
    rebound = net.with_weights(w)
    assert rebound == fresh
    assert _bits(mlp.forward_batch(rebound, X)) == _bits(mlp.forward_batch(fresh, X))
    for bad in (w[:-1], np.append(w, 0.0), w[:, None]):
        with pytest.raises(mlp.ArchitectureError):
            net.with_weights(bad)
