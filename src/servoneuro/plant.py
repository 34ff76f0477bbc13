"""Discrete-time DC servo stand-in: first-order dynamics behind a static
dead-zone/saturation map, with Gaussian tachometer noise on the measurement."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Largest series length (a step experiment, a reference profile) and layer
# width a config may ask for, far past any run of this workbench.  A run
# within it can still run out of memory; the CLI reports that as exit 1.
MAX_SIZE = 10**7

_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "tuple": (list, tuple)}


def check_value(value, kind, name):
    """Raise a ValueError naming `name` unless `value` has the field type `kind`:
    int, float, str or tuple (a list or a tuple).  A bool is never a number."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def check_fields(config):
    """Check each int, float, str and tuple field of a config dataclass with
    `check_value`; a float must also be finite and an int (a count or a seed)
    nonnegative.  A list given for a tuple field is stored as a tuple."""
    for f in dataclasses.fields(config):
        kind, value = getattr(f.type, "__name__", f.type), getattr(config, f.name)
        if kind in _KINDS:
            check_value(value, kind, f.name)
        if kind == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if kind == "int" and value < 0:
            raise ValueError(f"{f.name} must be nonnegative, got {value!r}")
        if kind == "tuple":
            object.__setattr__(config, f.name, tuple(value))


@dataclass(frozen=True)
class MotorParams:
    gain: float = 1.0  # steady-state tach volts per effective input volt
    tau: float = 0.5  # dominant time constant, seconds
    ts: float = 0.05  # sample period, seconds
    dead_zone: float = 2.5  # volts
    saturation: float = 6.5  # volts
    noise_sigma: float = 0.02  # tach noise std, volts

    def __post_init__(self):
        check_fields(self)
        if self.gain <= 0:
            raise ValueError("gain must be positive")
        if self.tau <= 0 or self.ts <= 0:
            raise ValueError("tau and ts must be positive")
        if self.ts >= self.tau:
            raise ValueError("ts must be smaller than tau")
        if self.dead_zone < 0:
            raise ValueError("dead_zone must be nonnegative")
        if self.saturation <= self.dead_zone:
            raise ValueError("saturation must exceed dead_zone")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.drive == 0.0:
            raise ValueError(
                f"ts, tau and gain leave no drive: (1 - exp(-ts/tau)) * gain rounds to 0 "
                f"for ts={self.ts!r}, tau={self.tau!r}, gain={self.gain!r}, so the input "
                f"cannot move the output")

    @functools.cached_property
    def decay(self) -> float:
        """Per-sample pole a = exp(-ts/tau), computed once."""
        return float(np.exp(-self.ts / self.tau))

    @functools.cached_property
    def drive(self) -> float:
        """Per-sample input weight (1 - a) * gain, computed once."""
        return (1.0 - self.decay) * self.gain


@dataclass
class PlantState:
    y: float  # noise-free internal tach voltage
    rng: np.random.Generator


def make_state(seed: int) -> PlantState:
    """A plant at rest (y = 0) whose tach noise is drawn from `seed`."""
    return PlantState(0.0, np.random.default_rng(seed))


def static_map(params: MotorParams, u: float) -> float:
    """Effective drive after the dead zone and saturation (unidirectional);
    elementwise on an array of lockstep loops' inputs, with the same bits."""
    if isinstance(u, np.ndarray):  # rounding is monotonic, so the clip picks each value
        dead_zone = params.dead_zone
        return np.minimum(np.maximum(u - dead_zone, 0.0), params.saturation - dead_zone)
    if u <= params.dead_zone:
        return 0.0
    if u >= params.saturation:
        return params.saturation - params.dead_zone
    return u - params.dead_zone


def steady_state(params: MotorParams, u: float) -> float:
    """Noise-free fixed point of `step` under constant input u."""
    return params.gain * static_map(params, u)


def advance(params: MotorParams, y: float, u: float) -> float:
    """Noise-free internal output a*y + drive*s(u) one sample after y."""
    return params.decay * y + params.drive * static_map(params, u)


def noise(params: MotorParams, seed: int, n: int) -> np.ndarray:
    """A loop's n tach-noise draws: the numbers n `step`s from `make_state(seed)` add."""
    return np.random.default_rng(seed).normal(0.0, params.noise_sigma, n)


def step(state: PlantState, params: MotorParams, u: float):
    """Advance one sample; returns (new_state, measured_y), the measurement
    being y plus a N(0, noise_sigma) draw.  The draw is made at sigma 0 too:
    it is then +0.0, and y is never -0.0, so y is measured unchanged."""
    if not math.isfinite(u):
        raise ValueError("plant input must be finite")
    y_next = advance(params, state.y, u)
    measured = y_next + state.rng.normal(0.0, params.noise_sigma)
    return PlantState(y_next, state.rng), float(measured)
