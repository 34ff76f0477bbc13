"""Feed-forward perceptron: evaluation, exact error Jacobian, serialization.

Flat weight order is canonical: layers from input side to output side, within a
layer one neuron at a time, each neuron contributing its incoming weights
followed by its bias.  A network with layer sizes (n0, n1, ..., nL) therefore
has sum((n_{i}+1) * n_{i+1}) weights.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .scaling import AffineScaling


class ActivationKind(Enum):
    TANH = "tanh"
    LINEAR = "linear"


class ArchitectureError(ValueError):
    """Raised for invalid layer shapes or mismatched weight vectors."""


def weight_count(layer_sizes) -> int:
    return sum((fi + 1) * fo for fi, fo in zip(layer_sizes, layer_sizes[1:]))


def check_architecture(layer_sizes, activations) -> tuple:
    """The one shape rule of a network: at least an input and an output layer,
    every width a positive integer, one tanh or linear activation per
    non-input layer.  Returns (layer_sizes, activations) as a tuple of ints
    and a tuple of ActivationKind; an ArchitectureError names the field.
    A width is an int or a numpy integer; a bool, float or str is not."""
    try:
        sizes = tuple(layer_sizes)
        if any(isinstance(n, bool) for n in sizes):
            raise TypeError
        sizes = tuple(operator.index(n) for n in sizes)
    except TypeError:
        raise ArchitectureError(f"layer_sizes must be integers, got {layer_sizes!r}") from None
    if len(sizes) < 2:
        raise ArchitectureError(
            f"layer_sizes needs at least an input and an output layer, got {sizes}")
    if any(n < 1 for n in sizes):
        raise ArchitectureError(f"layer_sizes must be positive, got {sizes}")
    activations = tuple(activations)
    if len(activations) != len(sizes) - 1:
        raise ArchitectureError(
            f"activations needs {len(sizes) - 1} entries (one per non-input layer), "
            f"got {len(activations)}")
    try:
        return sizes, tuple(ActivationKind(a) for a in activations)
    except ValueError:
        raise ArchitectureError(
            f"activations must each be tanh or linear, got {activations}") from None


@dataclass(frozen=True, eq=False)
class MlpNetwork:
    layer_sizes: tuple
    activations: tuple
    weights: np.ndarray

    def __post_init__(self):
        layer_sizes, activations = check_architecture(self.layer_sizes, self.activations)
        object.__setattr__(self, "layer_sizes", layer_sizes)
        object.__setattr__(self, "activations", activations)
        self._bind(self.weights)

    def _bind(self, weights):
        """Set the flat weight vector and the (W.T, W, b, is_tanh) layer views
        into it that the forward passes and the Jacobian use.  W alone is a
        contiguous copy of the layer's rows, for `forward`: `W.dot(a)` on it
        rounds like `@` on the strided rows, in half the time.  A copy is safe
        because a network's weights are never edited in place."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (weight_count(self.layer_sizes),):
            raise ArchitectureError(
                f"weight vector has length {weights.size}, "
                f"expected {weight_count(self.layer_sizes)}"
            )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_views", tuple(
            (W.T, np.ascontiguousarray(W), b, kind is ActivationKind.TANH)
            for (W, b), kind in zip(self.layers(), self.activations)
        ))

    @property
    def n_weights(self) -> int:
        return self.weights.size

    @property
    def input_width(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_width(self) -> int:
        return self.layer_sizes[-1]

    def layers(self):
        """Yield (W, b) views into the flat vector, one pair per layer."""
        pos = 0
        for fi, fo in zip(self.layer_sizes, self.layer_sizes[1:]):
            block = self.weights[pos : pos + (fi + 1) * fo].reshape(fo, fi + 1)
            yield block[:, :fi], block[:, fi]
            pos += (fi + 1) * fo

    def with_weights(self, weights: np.ndarray) -> "MlpNetwork":
        """The same architecture with new weights.  The architecture was
        validated when this network was built, so only the length is checked."""
        return _checked_network(self.layer_sizes, self.activations, weights)

    def __eq__(self, other):
        if not isinstance(other, MlpNetwork):
            return NotImplemented
        return (
            self.layer_sizes == other.layer_sizes
            and self.activations == other.activations
            and np.array_equal(self.weights, other.weights)
        )


def _checked_network(layer_sizes, activations, weights) -> MlpNetwork:
    """An MlpNetwork on the normalized tuples of `check_architecture`, which
    are not checked again; only the weight vector's length is."""
    net = object.__new__(MlpNetwork)
    object.__setattr__(net, "layer_sizes", layer_sizes)
    object.__setattr__(net, "activations", activations)
    net._bind(weights)
    return net


def init_weights(layer_sizes, activations, seed: int, scale: float) -> MlpNetwork:
    """Uniform weights on [-scale, scale] from a PRNG seeded with `seed`."""
    layer_sizes, activations = check_architecture(layer_sizes, activations)
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be finite and nonnegative, got {scale!r}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(-scale, scale, weight_count(layer_sizes))
    return _checked_network(layer_sizes, activations, w)


def _width_error(net: MlpNetwork, shape) -> ArchitectureError:
    return ArchitectureError(
        f"input of shape {shape} does not match network input width {net.input_width}"
    )


def forward_layers(net: MlpNetwork, inputs: np.ndarray) -> list:
    """Evaluate the network on a (P, n_in) matrix; returns the inputs followed
    by every layer's (P, n_i) activations, the last being `forward_batch`'s."""
    a = np.asarray(inputs, dtype=float)
    if a.ndim != 2 or a.shape[1] != net.input_width:
        raise _width_error(net, a.shape)
    acts = [a]
    for WT, _, b, is_tanh in net._views:
        # in place on the new array `a @ WT`, so `inputs` is never written;
        # rounds exactly like `np.tanh(a @ WT + b)`
        a = a @ WT
        a += b
        if is_tanh:
            np.tanh(a, out=a)
        acts.append(a)
    return acts


def forward_batch(net: MlpNetwork, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a (P, n_in) matrix; returns (P, n_out)."""
    return forward_layers(net, inputs)[-1]


def forward(net: MlpNetwork, x) -> float:
    """Single-pattern evaluation of a length-n_in vector; returns a scalar for
    a one-output network.  tests/test_properties.py checks that it rounds
    exactly like the pattern's row in `forward_batch`.

    Each layer is W.dot(a) on the layer's rows W, which rounds like the row
    a @ W.T of `forward_batch`; a.dot(W.T) and a @ np.ascontiguousarray(W.T)
    do not."""
    a = np.asarray(x, dtype=float)
    if a.shape != (net.input_width,):
        raise _width_error(net, a.shape)
    for _, W, b, is_tanh in net._views:
        a = W.dot(a) + b
        if is_tanh:
            a = np.tanh(a)
    return float(a[0]) if net.output_width == 1 else a


def stack_layers(nets) -> tuple:
    """The layers of networks of one architecture, stacked for
    `forward_stacked`: per layer (W, b, is_tanh) with W of shape
    (G, n_out, n_in) and b of shape (G, n_out, 1), network g at index g."""
    first = nets[0]
    if any((net.layer_sizes, net.activations) != (first.layer_sizes, first.activations)
           for net in nets):
        raise ArchitectureError("stacked networks must share one architecture")
    return tuple(
        (np.stack([net._views[i][1] for net in nets]),
         np.stack([net._views[i][2] for net in nets])[:, :, None], is_tanh)
        for i, (_, _, _, is_tanh) in enumerate(first._views)
    )


def forward_stacked(layers, inputs: np.ndarray) -> np.ndarray:
    """Evaluate G stacked networks (`stack_layers`) on a (G, n_in) matrix,
    row g through network g; returns (G, n_out).  tests/test_properties.py
    checks that row g rounds exactly like `forward` of network g.

    Each layer is one np.matmul of the stacked W with the rows as column
    vectors, which makes per network the BLAS call of `forward`'s W.dot(a)."""
    a = inputs[:, :, None]
    for W, b, is_tanh in layers:
        a = np.matmul(W, a) + b
        if is_tanh:
            a = np.tanh(a)
    return a[:, :, 0]


def error_jacobian(net: MlpNetwork, activations, out=None) -> np.ndarray:
    """Analytic Jacobian J of the per-pattern errors e_p = d_p - y_p.

    Row p holds de_p/dw over the flat weight vector.  Single-output networks
    only (one error per pattern).  `activations` is `forward_layers(net, X)`,
    so `activations[0]` is X, in either layout: a column-major X is read
    without a copy.  J is built transposed in `out`, a C-contiguous
    (n_weights, P) array (a new one when None), and its (P, n_weights) view
    `out.T` is returned: `out @ out.T` is J'J without a transposed read.
    `J.T @ e` on that view reads J' row-major and rounds differently from
    `J.T @ e` on a pattern-major copy of J.

    A linear output has delta 1, so nothing is multiplied by it: its bias
    entries are -1.0, its weight entries -a (which is (-1)*a exactly) and the
    delta of the layer below is (W' + 0.0) times that layer's tanh slope.
    """
    if net.output_width != 1:
        raise ArchitectureError("error_jacobian supports single-output networks")
    P, N = activations[0].shape[0], net.n_weights
    if P == 0:
        raise ValueError("empty dataset")
    if out is None:
        out = np.empty((N, P))
    elif out.shape != (N, P) or not out.flags.c_contiguous:
        # the blocks below are reshaped views of `out`; on any other layout
        # the reshape would copy, and J would be written into the copy
        raise ValueError(f"out must be a C-contiguous array of shape {(N, P)}")

    views = net._views
    # dy/dz for the output layer; delta is held transposed, (n_out, P) like
    # the blocks of J' it fills, so every product below runs along patterns.
    # None stands for a linear output's delta of 1.
    deltaT = (1.0 - activations[-1] ** 2).T if views[-1][3] else None

    # J is built transposed, pattern axis inner, so each layer's weight block
    # is one contiguous broadcast product.  Every entry is the single product
    # (-d)*a, which equals -(d*a) exactly, so J is unchanged by the layout.
    end = N
    for layer in range(len(views) - 1, -1, -1):
        WT = views[layer][0]
        fi, fo = WT.shape
        start = end - (fi + 1) * fo
        block = out[start:end].reshape(fo, fi + 1, P)
        aT = np.ascontiguousarray(activations[layer].T)
        if deltaT is None:
            block[:, fi, :] = -1.0
            np.negative(aT, out=block[:, :fi, :])
        else:
            neg = block[:, fi, :]  # the bias entries, -delta per neuron
            np.negative(deltaT, out=neg)
            np.multiply(neg[:, None, :], aT, out=block[:, :fi, :])
        if layer > 0:
            if deltaT is None:
                # WT * 1 + 0.0 without the multiply, as an (fi, 1) column
                deltaT = WT + 0.0
            else:
                # a gemm on the pattern-major, C-contiguous delta: one on the
                # transposed operands rounds differently
                deltaT = (np.ascontiguousarray(deltaT.T) @ WT.T).T
            if views[layer - 1][3]:
                # times the tanh slope 1 - a'^2, formed in place in aT, which
                # is not read again; where aT is a view of `activations` (a
                # one-unit layer, or P = 1) it is copied first
                if np.may_share_memory(aT, activations[layer]):
                    aT = aT.copy()
                np.square(aT, out=aT)
                np.subtract(1.0, aT, out=aT)
                deltaT = np.multiply(deltaT, aT, out=aT)
            else:
                # the layers below read delta as (fi, P), never as a column
                deltaT = np.broadcast_to(deltaT, (fi, P))
        end = start
    return out.T


# --- serialization ---------------------------------------------------------

_MAGIC = "servoneuro-net 1"
# The header keys, one a line in this order after the magic line; then the weights.
_HEADER = ("layers", "activations", "input_offset", "input_gain", "target_offset",
           "target_gain", "weights")


def save_network(path, net: MlpNetwork, input_scaling, target_scaling):
    """Write a network plus its scaling metadata as round-trip-exact text."""
    values = (net.layer_sizes, [a.value for a in net.activations],
              input_scaling.offset.tolist(), input_scaling.gain.tolist(),
              target_scaling.offset.tolist(), target_scaling.gain.tolist(), [net.n_weights])
    # a Python float's str is its round-trip-exact repr
    header = zip(_HEADER, values, strict=True)
    lines = [_MAGIC, *(f"{key} {' '.join(map(str, v))}" for key, v in header)]
    lines.extend(map(str, net.weights.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse(path, number, key, text, convert):
    """convert(text), or a ValueError naming the file, the line and the field."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{path}: line {number}: invalid {key} value {text!r}") from None


def load_network(path):
    """Read a serialized network; returns (net, input_scaling, target_scaling).
    A ValueError names the file and, for a bad value, its line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a servoneuro network file")

    start = 1 + len(_HEADER)  # the index of the first weight line
    fields = {}
    for number, line in enumerate(lines[1:start], start=2):
        key, _, rest = line.partition(" ")
        fields[key] = number, rest.split()
    missing = [k for k in _HEADER if k not in fields]
    if missing:
        raise ValueError(f"{path}: missing header field(s) {missing}")

    def header(key, convert):
        number, texts = fields[key]
        return number, [_parse(path, number, key, t, convert) for t in texts]

    layer_sizes = tuple(header("layers", int)[1])
    activations = tuple(header("activations", ActivationKind)[1])
    number, counts = header("weights", int)
    if len(counts) != 1 or counts[0] < 0:
        raise ValueError(
            f"{path}: line {number}: header field 'weights' must hold one nonnegative count")
    count = counts[0]
    end = start + count
    values = [_parse(path, n, "weight", t, float)
              for n, t in enumerate(lines[start:end], start + 1)]
    if len(values) != count:
        raise ValueError(f"{path}: expected {count} weights, found {len(values)}")
    if len(lines) > end:
        raise ValueError(
            f"{path}: line {end + 1}: unexpected content after the {count} weights: "
            f"{lines[end]!r}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: weights must be finite")
    try:
        net = MlpNetwork(layer_sizes, activations, np.array(values))
    except ArchitectureError as exc:
        raise ValueError(f"{path}: {exc}") from None

    scalings = []
    for side, width in (("input", net.input_width), ("target", net.output_width)):
        parts = []
        for key in (f"{side}_offset", f"{side}_gain"):
            number, part = header(key, float)
            if len(part) != width:
                raise ValueError(
                    f"{path}: line {number}: {key} has {len(part)} value(s), "
                    f"but the network's {side} width is {width}"
                )
            parts.append(np.array(part))
        try:
            scalings.append(AffineScaling(*parts))
        except ValueError as exc:
            raise ValueError(f"{path}: {side} scaling: {exc}") from None
    return (net, *scalings)
