import contextlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import openblas
from servoneuro import mlp, training
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


@given(net=networks(), n_nets=st.integers(1, 8), seed=st.integers(0, 2**31 - 1),
       log_scale=st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_forward_stacked_matches_forward_bit_for_bit(net, n_nets, seed, log_scale):
    rng = np.random.default_rng(seed)
    scale = float(np.abs(net.weights).max())
    nets = [net] + [net.with_weights(rng.uniform(-scale, scale, net.n_weights))
                    for _ in range(n_nets - 1)]
    X = rng.normal(size=(n_nets, net.input_width)) * 10.0**log_scale
    stacked = mlp.forward_stacked(mlp.stack_layers(nets), X)
    assert stacked.shape == (n_nets, net.output_width)
    for each, x, row in zip(nets, X, stacked):
        single = mlp.forward(each, x)
        assert _bits(single) == _bits(row[0] if each.output_width == 1 else row)


def test_stack_layers_rejects_mixed_architectures():
    tanh = mlp.init_weights([5, 3, 1], ["tanh", "linear"], seed=0, scale=0.5)
    linear = mlp.init_weights([5, 3, 1], ["linear", "linear"], seed=0, scale=0.5)
    with pytest.raises(mlp.ArchitectureError, match="one architecture"):
        mlp.stack_layers([tanh, linear])


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
# a saturated tanh output gives delta = 0, and 0 times the negative output
# weight is -0.0 in a broadcast product but +0.0 out of the gemm's sum
@example(net=mlp.MlpNetwork((1, 1, 1), ("tanh", "tanh"), np.array([5.0, 0.0, -100.0, 0.0])),
         n_patterns=8, seed=0, log_scale=3)
# the same for a linear output: its -0.0 weight gives (-0.0 + 0.0) = +0.0
@example(net=mlp.MlpNetwork((1, 1, 1), ("tanh", "linear"), np.array([0.5, 0.0, -0.0, 0.0])),
         n_patterns=2, seed=0, log_scale=0)
# a linear output's delta is a column (fi, 1) until it is broadcast to
# (fi, P): read as a column, the gemm of the next layer rounds differently
# on one row than on P rows, and an in-place tanh slope cannot broadcast
@example(net=mlp.MlpNetwork((1, 4, 2, 1), ("linear",) * 3, np.array([
    0.027392337464290872, -0.04604265724722594, -0.09180529521276107, -0.09669447289429418,
    0.06265404784005449, 0.08255111545554436, 0.021327155153435973, 0.045899312196799685,
    0.008724998293084568, 0.08701448475755366, 0.06317071082430645, -0.09945229996597038,
    0.07148085531751389, -0.09328288493890713, 0.045931089285988824, -0.0648688758794882,
    0.07263578446997732, 0.008292244049818348, -0.04005762189252304, -0.015462555760468316,
    -0.09433606577090742])), n_patterns=2, seed=0, log_scale=0)
@example(net=mlp.MlpNetwork((1, 1, 2, 1), ("tanh", "linear", "linear"), np.array([
    0.8217701239287258, -1.3812797174167781, -2.7541588563828316, -2.9008341868288254,
    1.879621435201635, 2.47653346366633, 0.6398146546030792, 1.3769793659039902,
    0.261749948792537])), n_patterns=2, seed=0, log_scale=0)
def test_error_jacobian_matches_concatenated_form_bit_for_bit(net, n_patterns, seed, log_scale):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_patterns, net.input_width)) * 10.0**log_scale
    J = mlp.error_jacobian(net, mlp.forward_layers(net, X))
    assert J.T.flags.c_contiguous
    assert J.shape == (n_patterns, net.n_weights)
    assert _bits(J) == _bits(_concatenated_error_jacobian(net, X))


@given(
    net=networks(output_width=1),
    n_patterns=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
    log_scale=st.integers(-3, 3),
)
@settings(max_examples=100, deadline=None)
def test_error_jacobian_with_given_activations_and_buffer_bit_for_bit(
    net, n_patterns, seed, log_scale
):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_patterns, net.input_width)) * 10.0**log_scale
    X_bits = _bits(X)
    acts = mlp.forward_layers(net, X)
    assert _bits(X) == X_bits  # the in-place layers never write the inputs
    assert _bits(acts[-1]) == _bits(mlp.forward_batch(net, X))
    out = np.full((net.n_weights, n_patterns), np.nan)
    J = mlp.error_jacobian(net, acts, out=out)
    assert J.base is out
    assert _bits(J) == _bits(mlp.error_jacobian(net, acts))
    # the syrk of J' is the driver's J'J; it rounds like J.T @ J on a
    # pattern-major copy of J
    J = np.ascontiguousarray(J)
    assert _bits(out @ out.T) == _bits(J.T @ J)


@given(
    net=networks(),
    n_patterns=st.integers(1, 60),
    seed=st.integers(0, 2**31 - 1),
    log_scale=st.integers(-3, 3),
)
@settings(max_examples=200, deadline=None)
# a one-unit first layer is a gemv, which rounds by layout: X stays row-major
@example(net=mlp.init_weights([5, 1, 10, 1], ["tanh", "tanh", "linear"], seed=0, scale=1.0),
         n_patterns=40, seed=0, log_scale=0)
def test_driver_pattern_layout_keeps_every_bit(net, n_patterns, seed, log_scale):
    X = np.random.default_rng(seed).normal(size=(n_patterns, net.input_width)) * 10.0**log_scale
    laid_out = training._patterns(net, X)
    if net.layer_sizes[1] == 1:
        assert laid_out is X
    else:
        assert laid_out.flags.f_contiguous
    expected, got = mlp.forward_layers(net, X), mlp.forward_layers(net, laid_out)
    assert [_bits(a) for a in got] == [_bits(a) for a in expected]
    if net.output_width == 1:
        assert _bits(mlp.error_jacobian(net, got)) == _bits(mlp.error_jacobian(net, expected))


@contextlib.contextmanager
def _one_blas_thread():
    """Past a size threshold (about 460k entries for OpenBLAS 0.3.31 on two
    cores) OpenBLAS splits a gemv's rows across its threads, and a row that
    lands in a thread's tail rounds differently, so a threaded J.T @ e
    depends on the thread count."""
    lib = openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)


@given(
    n_weights=st.integers(1, 300),
    n_patterns=st.integers(1, 6000),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
@example(n_weights=2, n_patterns=1797, seed=0)  # one block, narrower than 16
@example(n_weights=17, n_patterns=1797, seed=0)  # a one-weight remainder merged: one block
@example(n_weights=33, n_patterns=3997, seed=0)  # blocks of 16 and 17
@example(n_weights=71, n_patterns=3997, seed=0)  # the [5, 10, 1] controller
# large enough for OpenBLAS to thread J.T @ e: on two threads rows 80, 81,
# 162 and 163 round differently from one thread's
@example(n_weights=164, n_patterns=2810, seed=0)
def test_blocked_jte_matches_pattern_major_bit_for_bit(n_weights, n_patterns, seed):
    rng = np.random.default_rng(seed)
    # one row of J' per weight, each at its own scale in 1e-3 ... 1e3
    JT = rng.normal(size=(n_weights, n_patterns)) * 10.0 ** rng.uniform(-3, 3, (n_weights, 1))
    e = rng.normal(size=n_patterns)
    Jte, blocks = training._jte_buffers(JT)
    widths = [scratch.shape[1] for _, scratch, _ in blocks]
    assert sum(widths) == n_weights and set(widths[:-1]) <= {training._JTE_BLOCK}
    assert widths[-1] <= training._JTE_BLOCK + 1 and (widths[-1] > 1 or n_weights == 1)
    J = np.ascontiguousarray(JT.T)
    with _one_blas_thread():
        training._jte(blocks, e)
        expected = J.T @ e
    assert _bits(Jte) == _bits(expected)


# Run in a fresh interpreter, since OpenBLAS reads OPENBLAS_CORETYPE when
# numpy loads it: prints the core OpenBLAS picked, then runs the property
# above.  Exits 5 if numpy's BLAS is not its bundled OpenBLAS.
_ON_KERNEL = """
import sys
sys.path[:0] = sys.argv[1:3]
import conftest, test_properties
core = conftest.blas_core()
if core is None:
    sys.exit(5)
print(core, flush=True)
test_properties.test_blocked_jte_matches_pattern_major_bit_for_bit()
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 BLAS kernels")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_blocked_jte_is_bit_for_bit_on_other_blas_kernels(core, tmp_path):
    # blocked against full J'e is a relative identity, so unlike the
    # fingerprint hashes it must hold under every kernel
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _ON_KERNEL, str(here), str(here.parent / "src")],
        cwd=tmp_path, env=dict(os.environ, OPENBLAS_CORETYPE=core),
        capture_output=True, text=True,
    )
    if proc.returncode == 5:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split()[0].lower() == core.lower()


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
