import math

import numpy as np
import pytest

from servoneuro import mlp
from servoneuro.mlp import ActivationKind, ArchitectureError, MlpNetwork
from servoneuro.scaling import AffineScaling


def finite_difference_jacobian(net, X, D, h=1e-6):
    """Independent central-difference oracle for the error Jacobian."""
    w = net.weights
    J = np.zeros((X.shape[0], w.size))
    for i in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        ep = (D - mlp.forward_batch(net.with_weights(wp), X)).ravel()
        em = (D - mlp.forward_batch(net.with_weights(wm), X)).ravel()
        J[:, i] = (ep - em) / (2.0 * h)
    return J


def hand_rolled_forward(net, x):
    """Second, deliberately naive evaluator over the flat weight order."""
    values = list(x)
    pos = 0
    w = net.weights
    for (fi, fo), kind in zip(zip(net.layer_sizes, net.layer_sizes[1:]), net.activations):
        nxt = []
        for _ in range(fo):
            acc = sum(w[pos + i] * values[i] for i in range(fi)) + w[pos + fi]
            pos += fi + 1
            nxt.append(math.tanh(acc) if kind is ActivationKind.TANH else acc)
        values = nxt
    return values[0]


class TestInitWeights:
    def test_same_seed_identical(self):
        a = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=7, scale=0.5)
        b = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=7, scale=0.5)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seed_differs(self):
        a = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=7, scale=0.5)
        b = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=8, scale=0.5)
        assert not np.array_equal(a.weights, b.weights)

    def test_zero_scale_gives_zero_weights(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=3, scale=0.0)
        assert np.all(net.weights == 0.0)

    def test_weight_count_5_10_1(self):
        # (5+1)*10 + (10+1)*1 counted by hand
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=0.5)
        assert net.n_weights == 71

    def test_weights_within_scale(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=1, scale=0.25)
        assert np.all(np.abs(net.weights) <= 0.25)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, -0.5])
    def test_scale_must_be_finite_and_nonnegative(self, scale):
        with pytest.raises(ValueError, match="scale"):
            mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=scale)

    def test_numpy_integer_widths_are_widths(self):
        net = mlp.init_weights(np.array([5, 3, 1]), ["tanh", "linear"], seed=0, scale=0.5)
        assert net.layer_sizes == (5, 3, 1)
        assert all(type(n) is int for n in net.layer_sizes)

    @pytest.mark.parametrize("width", [2.0, "3", np.float64(3.0), np.True_])
    def test_a_width_that_is_not_an_integer_is_rejected(self, width):
        with pytest.raises(ArchitectureError, match="layer_sizes must be integers"):
            mlp.check_architecture([5, width, 1], ["tanh", "linear"])


class TestForward:
    def test_zero_weights_give_zero_output(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=0.0)
        assert mlp.forward(net, [1.0, -2.0, 3.0, 0.5, 0.1]) == 0.0

    def test_single_linear_layer_is_weighted_sum(self):
        # one neuron, weights [2, -1, 0.5], bias 0
        net = MlpNetwork((3, 1), (ActivationKind.LINEAR,), np.array([2.0, -1.0, 0.5, 0.0]))
        assert mlp.forward(net, [1.0, 2.0, 4.0]) == pytest.approx(2.0)

    def test_matches_hand_rolled_evaluator(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=42, scale=0.8)
        x = np.array([0.3, -0.7, 1.2, 0.05, -1.5])
        assert mlp.forward(net, x) == pytest.approx(hand_rolled_forward(net, x), rel=1e-12)

    def test_pure_function(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=4, scale=0.5)
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert mlp.forward(net, x) == mlp.forward(net, x)

    def test_dimension_mismatch_raises(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=0.5)
        with pytest.raises(ArchitectureError):
            mlp.forward(net, [1.0, 2.0])

    def test_output_bounded_by_output_layer(self):
        # tanh hidden activations are in (-1, 1)
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=11, scale=2.0)
        W_out, b_out = list(net.layers())[-1]
        bound = np.sum(np.abs(W_out)) + abs(float(b_out[0]))
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert abs(mlp.forward(net, rng.normal(size=5) * 100)) <= bound


class TestErrorJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=5, scale=0.7)
        X = rng.normal(size=(20, 5))
        D = rng.normal(size=(20, 1))
        J = mlp.error_jacobian(net, mlp.forward_layers(net, X))
        Jfd = finite_difference_jacobian(net, X, D)
        assert np.max(np.abs(J - Jfd) / (1.0 + np.abs(Jfd))) < 1e-6

    def test_single_linear_neuron_analytic(self):
        # e = d - (w.x + b)  =>  de/dw = -x, de/db = -1
        net = MlpNetwork((3, 1), (ActivationKind.LINEAR,), np.array([0.5, -0.25, 1.0, 0.1]))
        X = np.array([[1.0, 2.0, 3.0]])
        J = mlp.error_jacobian(net, mlp.forward_layers(net, X))
        assert np.allclose(J, [[-1.0, -2.0, -3.0, -1.0]])

    def test_duplicated_pattern_duplicates_row(self):
        net = mlp.init_weights([5, 8, 1], ["tanh", "linear"], seed=1, scale=0.5)
        x = np.random.default_rng(2).normal(size=5)
        X = np.vstack([x, x])
        J = mlp.error_jacobian(net, mlp.forward_layers(net, X))
        assert np.array_equal(J[0], J[1])

    def test_empty_dataset_raises(self):
        net = mlp.init_weights([5, 8, 1], ["tanh", "linear"], seed=1, scale=0.5)
        with pytest.raises(ValueError):
            mlp.error_jacobian(net, mlp.forward_layers(net, np.empty((0, 5))))

    def test_out_must_be_a_c_contiguous_buffer_of_j_shape(self):
        net = mlp.init_weights([5, 8, 1], ["tanh", "linear"], seed=1, scale=0.5)
        acts = mlp.forward_layers(net, np.random.default_rng(4).normal(size=(4, 5)))
        # J is built transposed, so `out` holds J' at (n_weights, P)
        for bad in (np.empty((4, net.n_weights)), np.empty((net.n_weights + 1, 4)),
                    np.empty((net.n_weights, 4), order="F")):
            with pytest.raises(ValueError, match="out must be"):
                mlp.error_jacobian(net, acts, out=bad)

    @pytest.mark.parametrize("sizes,P", [([5, 1, 1], 30), ([3, 4, 1, 1], 20), ([5, 10, 1], 1),
                                         ([5, 10, 1], 200)])
    def test_never_writes_its_activations(self, sizes, P):
        # the tanh slope is formed in place in a transposed copy of each
        # layer's activations; for a one-unit layer, or one pattern, that
        # transpose is a view of the caller's array, which must stay as it was
        activations = ["tanh"] * (len(sizes) - 2) + ["linear"]
        net = mlp.init_weights(sizes, activations, seed=3, scale=0.7)
        acts = mlp.forward_layers(net, np.random.default_rng(5).normal(size=(P, sizes[0])))
        before = [a.tobytes() for a in acts]
        mlp.error_jacobian(net, acts)
        assert [a.tobytes() for a in acts] == before

    def test_two_hidden_layers(self):
        rng = np.random.default_rng(9)
        net = mlp.init_weights([3, 6, 4, 1], ["tanh", "tanh", "linear"], seed=9, scale=0.6)
        X = rng.normal(size=(10, 3))
        D = rng.normal(size=(10, 1))
        J = mlp.error_jacobian(net, mlp.forward_layers(net, X))
        Jfd = finite_difference_jacobian(net, X, D)
        assert np.max(np.abs(J - Jfd) / (1.0 + np.abs(Jfd))) < 1e-6


# The shape errors of the batch forward pass and the Jacobian.
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: mlp.forward_layers(mlp.init_weights([5, 3, 1], ["tanh", "linear"], 0, 0.5),
                                    np.zeros((2, 4))), "does not match network input width 5"),
        (lambda: mlp.forward_layers(mlp.init_weights([5, 3, 1], ["tanh", "linear"], 0, 0.5),
                                    np.zeros(5)), "does not match network input width 5"),
        (lambda: mlp.error_jacobian(mlp.init_weights([2, 3, 2], ["tanh", "linear"], 0, 0.5),
                                    [np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 2))]),
         "single-output"),
    ],
    ids=["forward-width", "forward-1d", "jacobian-two-outputs"],
)
def test_shape_errors_rejected(build, message):
    with pytest.raises(ArchitectureError, match=message):
        build()


def test_network_equality_with_another_type_is_not_implemented():
    net = mlp.init_weights([5, 3, 1], ["tanh", "linear"], 0, 0.5)
    assert net.__eq__(net.weights) is NotImplemented
    assert net != "net"


class TestFlattenUnflatten:
    def test_round_trip(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=6, scale=0.5)
        again = MlpNetwork(net.layer_sizes, net.activations, net.weights.copy())
        assert again == net

    def test_wrong_length_raises(self):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=6, scale=0.5)
        with pytest.raises(ArchitectureError):
            net.with_weights(net.weights[:-1])

    def test_perturbing_one_index_changes_one_connection(self):
        # bumping the weight x0 -> hidden0 only matters when x0 is nonzero
        net = mlp.init_weights([2, 3, 1], ["tanh", "linear"], seed=0, scale=0.5)
        w = net.weights.copy()
        w[0] += 0.1
        assert net.weights[0] != w[0]  # editing the copy leaves the network alone
        bumped = net.with_weights(w)
        x_active = np.array([1.0, 0.0])
        x_inactive = np.array([0.0, 1.0])
        assert mlp.forward(bumped, x_active) != mlp.forward(net, x_active)
        assert mlp.forward(bumped, x_inactive) == mlp.forward(net, x_inactive)


def unit_scaling(width):
    return AffineScaling(np.zeros(width), np.ones(width))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=13, scale=0.9)
        in_s = AffineScaling(np.arange(5.0), np.full(5, 0.5))
        out_s = AffineScaling(np.array([4.5]), np.array([2.0]))
        path = tmp_path / "net.txt"
        mlp.save_network(path, net, in_s, out_s)
        loaded, in_l, out_l = mlp.load_network(path)
        assert loaded == net
        assert in_l == in_s
        assert out_l == out_s

    @pytest.mark.parametrize(
        "sizes,acts",
        [([5, 10, 1], ["tanh", "linear"]), ([3, 4, 4, 2], ["tanh", "linear", "tanh"]),
         ([1, 1, 1], ["linear", "linear"])],
        ids=["5-10-1", "3-4-4-2", "1-1-1"],
    )
    def test_save_load_save_is_byte_identical(self, tmp_path, sizes, acts):
        net = mlp.init_weights(sizes, acts, seed=7, scale=0.8)
        n_in, n_out = sizes[0], sizes[-1]
        in_s = AffineScaling(np.linspace(-1.5, 2.25, n_in), np.linspace(0.1, 3.0, n_in))
        out_s = AffineScaling(np.full(n_out, 4.5), np.linspace(0.3, 2.0, n_out))
        first, second = tmp_path / "first.net", tmp_path / "second.net"
        mlp.save_network(first, net, in_s, out_s)
        mlp.save_network(second, *mlp.load_network(first))
        assert second.read_bytes() == first.read_bytes()

    def test_header_lines_load_in_any_order(self, tmp_path):
        net = mlp.init_weights([2, 3, 1], ["tanh", "linear"], seed=1, scale=0.5)
        path = tmp_path / "net.txt"
        mlp.save_network(path, net, unit_scaling(2), unit_scaling(1))
        lines = path.read_text().splitlines()
        lines[1], lines[4] = lines[4], lines[1]  # layers <-> input_gain
        path.write_text("\n".join(lines) + "\n")
        loaded, in_l, out_l = mlp.load_network(path)
        assert loaded == net
        assert in_l == unit_scaling(2)
        assert out_l == unit_scaling(1)

    def test_missing_header_field_named(self, tmp_path):
        net = mlp.init_weights([2, 2, 1], ["tanh", "linear"], seed=0, scale=0.5)
        path = tmp_path / "net.txt"
        mlp.save_network(path, net, unit_scaling(2), unit_scaling(1))
        lines = [line for line in path.read_text().splitlines() if not line.startswith("weights")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            mlp.load_network(path)
        assert str(exc.value) == f"{path}: missing header field(s) ['weights']"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a network\n")
        with pytest.raises(ValueError):
            mlp.load_network(path)

    def test_truncated_weights_rejected(self, tmp_path):
        net = mlp.init_weights([2, 2, 1], ["tanh", "linear"], seed=0, scale=0.5)
        path = tmp_path / "net.txt"
        mlp.save_network(path, net, unit_scaling(2), unit_scaling(1))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            mlp.load_network(path)

    def test_trailing_content_rejected(self, tmp_path):
        net = mlp.init_weights([2, 2, 1], ["tanh", "linear"], seed=0, scale=0.5)
        path = tmp_path / "net.txt"
        mlp.save_network(path, net, unit_scaling(2), unit_scaling(1))
        n_lines = len(path.read_text().splitlines())
        with path.open("a") as fh:
            fh.write("0.25\nmore\n")
        with pytest.raises(ValueError, match=rf"net\.txt: line {n_lines + 1}: .*'0\.25'"):
            mlp.load_network(path)
