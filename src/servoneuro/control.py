"""Closed-loop execution of an inverse controller against the plant, plus the
two scalar performance indices (mean absolute tracking error, mean absolute
control effort)."""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mlp import MlpNetwork, forward
from .plant import MotorParams, make_state, step
from .scaling import AffineScaling

# Valid actuation band; controller outputs are clamped here before application.
U_MIN = 2.5
U_MAX = 6.5

# Width of the regressor [r(k), y(k), y(k-1), u(k-1), u(k-2)] an inverse
# controller maps to u(k).
REGRESSOR_WIDTH = 5


@dataclass(frozen=True)
class ReferenceProfile:
    """Piecewise-constant reference: sequence of (level_volts, duration_samples)."""

    steps: tuple

    def __post_init__(self):
        steps = tuple((float(level), int(dur)) for level, dur in self.steps)
        if not steps:
            raise ValueError("reference profile must be nonempty")
        if any(dur < 1 for _, dur in steps):
            raise ValueError("step durations must be positive")
        if not all(math.isfinite(level) for level, _ in steps):
            raise ValueError("step levels must be finite")
        object.__setattr__(self, "steps", steps)

    def series(self) -> np.ndarray:
        return np.repeat(
            [level for level, _ in self.steps], [dur for _, dur in self.steps]
        ).astype(float)

    def __len__(self):
        return sum(dur for _, dur in self.steps)


# Four levels across the reachable output band, each held well past settling
# so clamped transition transients stay a small share of the trace.
DEFAULT_PROFILE = ReferenceProfile(((1.0, 1000), (3.0, 1000), (1.5, 1000), (3.5, 1000)))


@dataclass(eq=False)
class ClosedLoopTrace:
    r: np.ndarray
    y: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if not (self.r.shape == self.y.shape == self.u.shape) or self.r.ndim != 1:
            raise ValueError("r, y, u must be 1-D series of equal length")

    def __len__(self):
        return self.r.size


@dataclass(frozen=True)
class PerformanceIndices:
    mean_abs_error: float
    control_effort: float


class ControllerDivergedError(RuntimeError):
    """Controller produced a non-finite output; carries the partial trace."""

    def __init__(self, message, trace: ClosedLoopTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class NeuralController:
    """Trained inverse model: scale regressor, evaluate, de-scale to volts."""

    net: MlpNetwork
    input_scaling: AffineScaling
    target_scaling: AffineScaling

    def __post_init__(self):
        if self.net.input_width != REGRESSOR_WIDTH:
            raise ValueError(f"inverse controller network must have {REGRESSOR_WIDTH} inputs")
        if self.net.output_width != 1:
            raise ValueError("inverse controller network must have 1 output")
        # target_scaling.invert on one value, as Python floats (same IEEE bits)
        object.__setattr__(self, "_out_gain", float(self.target_scaling.gain[0]))
        object.__setattr__(self, "_out_offset", float(self.target_scaling.offset[0]))

    def __call__(self, regressor: np.ndarray) -> float:
        scaled = self.input_scaling.apply(regressor)
        out = forward(self.net, scaled)
        return out / self._out_gain + self._out_offset


def analytic_inverse_controller(params: MotorParams) -> Callable:
    """Exact inverse of the noise-free plant: the u that drives the next
    output to the reference in one sample (before clamping)."""
    a = params.decay

    def control(regressor):
        r, y = regressor[0], regressor[1]
        return params.dead_zone + (r - a * y) / ((1.0 - a) * params.gain)

    return control


def run_closed_loop(
    params: MotorParams,
    controller: Callable,
    profile: ReferenceProfile,
    seed: int,
    y0: float = 0.0,
) -> ClosedLoopTrace:
    """Feed the controller's (clamped) output to the plant sample by sample.

    Regressor is [r(k), y(k), y(k-1), u(k-1), u(k-2)] in raw volts; history
    starts quiescent (y lags at the initial output, u lags at the dead-zone
    floor).  y(k) in the trace is the measured response to u(k).
    """
    r = profile.series()
    state = make_state(seed, y0)
    y_now = y_prev = float(y0)
    u1 = u2 = U_MIN
    ys = []
    us = []
    for k, r_k in enumerate(r.tolist()):
        u = float(controller(np.array([r_k, y_now, y_prev, u1, u2])))
        if not math.isfinite(u):
            partial = ClosedLoopTrace(r[:k], ys, us)
            raise ControllerDivergedError(
                f"controller output not finite at sample {k}", partial
            )
        u = min(max(u, U_MIN), U_MAX)
        state, measured = step(state, params, u)
        ys.append(measured)
        us.append(u)
        y_prev, y_now = y_now, measured
        u2, u1 = u1, u
    return ClosedLoopTrace(r, ys, us)


def compute_indices(trace: ClosedLoopTrace) -> PerformanceIndices:
    if len(trace) == 0:
        raise ValueError("empty trace")
    return PerformanceIndices(
        mean_abs_error=float(np.mean(np.abs(trace.r - trace.y))),
        control_effort=float(np.mean(np.abs(trace.u))),
    )


# --- controller comparison -------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    seed: int
    mean_abs_error: float
    control_effort: float
    error: Optional[str] = None


@dataclass
class ComparisonReport:
    rows: list
    medians: dict  # name -> (median mae, median effort)
    ranking: list  # names sorted by median mae

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["controller", "seed", "mean_abs_error", "control_effort", "error"])
            for row in self.rows:
                writer.writerow(
                    [
                        row.name,
                        row.seed,
                        "" if np.isnan(row.mean_abs_error) else repr(row.mean_abs_error),
                        "" if np.isnan(row.control_effort) else repr(row.control_effort),
                        row.error or "",
                    ]
                )

    def format_table(self) -> str:
        lines = [f"{'rank':<5} {'controller':<30} {'median |r-y|':>14} {'median |u|':>12}"]
        for i, name in enumerate(self.ranking, start=1):
            mae, effort = self.medians[name]
            lines.append(f"{i:<5} {name:<30} {mae:>14.6f} {effort:>12.6f}")
        return "\n".join(lines)


def compare_controllers(
    params: MotorParams, controllers, profile: ReferenceProfile, seeds
) -> ComparisonReport:
    """Run every (controller, seed) closed loop and rank by median tracking
    error.  `controllers` is a list of (name, callable) pairs; a failed run is
    recorded with its error message and excluded from the medians."""
    if len(controllers) < 2:
        raise ValueError("need at least two controllers to compare")
    rows = []
    for name, controller in controllers:
        for seed in seeds:
            try:
                trace = run_closed_loop(params, controller, profile, seed)
                idx = compute_indices(trace)
                rows.append(ComparisonRow(name, seed, idx.mean_abs_error, idx.control_effort))
            except ControllerDivergedError as exc:
                rows.append(ComparisonRow(name, seed, float("nan"), float("nan"), str(exc)))
    medians = {}
    for name, _ in controllers:
        maes = [r.mean_abs_error for r in rows if r.name == name and r.error is None]
        efforts = [r.control_effort for r in rows if r.name == name and r.error is None]
        if maes:
            medians[name] = (statistics.median(maes), statistics.median(efforts))
        else:
            medians[name] = (float("inf"), float("inf"))
    ranking = sorted(medians, key=lambda n: medians[n][0])
    return ComparisonReport(rows, medians, ranking)


def trace_to_csv(trace: ClosedLoopTrace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "r", "y", "u"])
        for k in range(len(trace)):
            writer.writerow(
                [k, repr(float(trace.r[k])), repr(float(trace.y[k])), repr(float(trace.u[k]))]
            )
