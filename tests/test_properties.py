import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servoneuro import mlp
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
