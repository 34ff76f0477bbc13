"""Closed-loop execution of an inverse controller against the plant, plus the
two scalar performance indices (mean absolute tracking error, mean absolute
control effort)."""

from __future__ import annotations

import csv
import math
import operator
import statistics
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .mlp import MlpNetwork, forward, forward_stacked, stack_layers
from .plant import MAX_SIZE, MotorParams, advance, check_fields, check_value, noise
from .scaling import AffineScaling

# Valid actuation band; controller outputs are clamped here before application.
U_MIN = 2.5
U_MAX = 6.5

# An inverse controller maps the regressor [r(k), y(k), y(k-1), u(k-1), u(k-2)]
# to u(k): the reference, then LAGS outputs and LAGS inputs, newest first.
LAGS = 2
REGRESSOR_WIDTH = 1 + 2 * LAGS


def lag_windows(hist):
    """The regressor's lags in a history of (y, u) samples, samples first and
    (y, u) last: entry j of this view holds, as (..., (y, u), lag), the lags
    read from rows j ... j + LAGS - 1, newest first."""
    return np.lib.stride_tricks.sliding_window_view(hist, LAGS, axis=0)[..., ::-1]


def check_controller_shape(layer_sizes):
    """Raise a ValueError naming layer_sizes unless a network of these layer
    sizes maps the regressor to one output, as an inverse controller must."""
    if layer_sizes[0] != REGRESSOR_WIDTH or layer_sizes[-1] != 1:
        raise ValueError(
            f"layer_sizes must have {REGRESSOR_WIDTH} inputs (the regressor width) "
            f"and 1 output, got {tuple(layer_sizes)}"
        )


@dataclass(frozen=True)
class ReferenceProfile:
    """Piecewise-constant reference: sequence of (level_volts, duration_samples)."""

    steps: tuple

    def __post_init__(self):
        check_fields(self)
        for i, (level, dur) in enumerate(self.steps):
            check_value(level, "float", f"step {i} level")
            check_value(dur, "int", f"step {i} duration")
        steps = tuple((float(level), int(dur)) for level, dur in self.steps)
        if not steps:
            raise ValueError("reference profile must be nonempty")
        if any(dur < 1 for _, dur in steps):
            raise ValueError("step durations must be positive")
        if sum(dur for _, dur in steps) > MAX_SIZE:
            raise ValueError(f"reference profile must be at most {MAX_SIZE} samples long")
        if not all(math.isfinite(level) for level, _ in steps):
            raise ValueError("step levels must be finite")
        object.__setattr__(self, "steps", steps)

    def series(self) -> np.ndarray:
        levels, durations = zip(*self.steps)
        return np.repeat(levels, durations)

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
    """The closed loop produced a non-finite controller output or performance
    index; carries the trace up to that point."""

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
        check_controller_shape(self.net.layer_sizes)
        # target_scaling.invert as Python floats: the same bits, without small-array calls
        object.__setattr__(self, "_out_gain", float(self.target_scaling.gain[0]))
        object.__setattr__(self, "_out_offset", float(self.target_scaling.offset[0]))

    def __call__(self, regressor) -> float:
        # input_scaling.apply in place, so a regressor of the wrong width raises a ValueError
        scaled = np.array(regressor, dtype=float)
        scaled -= self.input_scaling.offset
        scaled *= self.input_scaling.gain
        out = forward(self.net, scaled)
        return out / self._out_gain + self._out_offset


def analytic_inverse_controller(params: MotorParams) -> Callable:
    """Exact inverse of the noise-free plant: the u that drives the next
    output to the reference in one sample (before clamping)."""
    a, drive = params.decay, params.drive

    def control(regressor):
        r, y = regressor[0], regressor[1]
        return params.dead_zone + (r - a * y) / drive

    return control


def run_closed_loop(
    params: MotorParams,
    controller: Callable,
    profile: ReferenceProfile,
    seed: int,
) -> ClosedLoopTrace:
    """Feed the controller's (clamped) output to the plant sample by sample.

    The controller gets the regressor [r(k), y(k), y(k-1), u(k-1), u(k-2)] as
    a sequence of REGRESSOR_WIDTH floats in raw volts and returns u(k), its
    lags read from the loop's history of (y, u).  The history starts at rest:
    LAGS samples of y = 0 V and u = the actuator floor U_MIN, which the trace
    leaves out.  y(k) in the trace is the measured response to u(k), its noise
    drawn by `plant.noise`.
    """
    r = profile.series()
    draws = noise(params, seed, r.size).tolist()
    y_state = 0.0
    ys = [0.0] * LAGS  # the rest state, then each sample's y(k)
    us = [U_MIN] * LAGS
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging loop warns nothing
        for k, r_k in enumerate(r.tolist()):
            u = float(controller((r_k, *ys[:-LAGS - 1:-1], *us[:-LAGS - 1:-1])))
            if not math.isfinite(u):
                partial = ClosedLoopTrace(r[:k], ys[LAGS:], us[LAGS:])
                raise ControllerDivergedError(
                    f"controller output not finite at sample {k}", partial
                )
            u = min(max(u, U_MIN), U_MAX)
            y_state = advance(params, y_state, u)
            ys.append(y_state + draws[k])
            us.append(u)
    return ClosedLoopTrace(r, ys[LAGS:], us[LAGS:])


def compute_indices(trace: ClosedLoopTrace) -> PerformanceIndices:
    """Mean |r-y| and mean |u|; a mean that overflows (a finite but huge
    output) is a numeric failure, raised as ControllerDivergedError."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    with np.errstate(over="ignore"):
        indices = PerformanceIndices(
            mean_abs_error=float(np.mean(np.abs(trace.r - trace.y))),
            control_effort=float(np.mean(np.abs(trace.u))),
        )
    if not (math.isfinite(indices.mean_abs_error) and math.isfinite(indices.control_effort)):
        raise ControllerDivergedError(
            f"performance index not finite: mean_abs_error = {indices.mean_abs_error!r}, "
            f"control_effort = {indices.control_effort!r}",
            trace,
        )
    return indices


# Smallest group of NeuralController loops that run_closed_loops runs in
# lockstep: below it, one loop at a time is faster (measured in BENCH_13.json).
LOCKSTEP_MIN = 3


def _run_lockstep(params: MotorParams, profile: ReferenceProfile, jobs) -> list:
    """run_closed_loop for (NeuralController, seed) jobs of one architecture,
    all loops in one pass over the samples; returns each loop's trace or its
    ControllerDivergedError.

    Each layer of the controllers is one `forward_stacked` call for the whole
    group; everything else is elementwise and makes the IEEE operations of
    run_closed_loop in its order, so each loop gets the same bits.  A loop
    whose output is not finite stops there; the others go on."""
    controllers = [c for c, _ in jobs]
    r = profile.series()
    n, G = r.size, len(jobs)
    in_offset = np.array([c.input_scaling.offset for c in controllers])
    in_gain = np.array([c.input_scaling.gain for c in controllers])
    out_gain = np.array([c._out_gain for c in controllers])
    out_offset = np.array([c._out_offset for c in controllers])
    layers = stack_layers([c.net for c in controllers])
    # hist[k + LAGS] holds each loop's (y(k), u(k)) and rows 0 ... LAGS - 1 the rest
    # state; y(k) starts as the loop's noise draw and gets the plant output added
    hist = np.empty((n + LAGS, G, 2))
    hist[:LAGS] = 0.0, U_MIN
    for g, (_, seed) in enumerate(jobs):
        hist[LAGS:, g, 0] = noise(params, seed, n)
    windows = lag_windows(hist)
    # reg holds each loop's regressor, whose lags are (G, (y, u), lag)
    reg = np.empty((G, REGRESSOR_WIDTH))
    lags = reg[:, 1:].reshape(G, 2, LAGS)
    y = np.zeros(G)  # noise-free plant output
    ones = np.ones(G)
    stop = np.full(G, n)  # first sample with a non-finite output
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging loop warns nothing
        for k, r_k in enumerate(r.tolist()):
            reg[:, 0] = r_k
            lags[...] = windows[k]
            u = forward_stacked(layers, (reg - in_offset) * in_gain)[:, 0] / out_gain + out_offset
            if not math.isfinite(u.dot(ones)):  # a sum, not finite if any u is not
                stop[~np.isfinite(u) & (stop == n)] = k
                if (stop < n).all():
                    break
            row = hist[k + LAGS]
            u = np.minimum(np.maximum(u, U_MIN), U_MAX, out=row[:, 1])
            y = advance(params, y, u)
            row[:, 0] += y  # noise + y: the bits of y + noise
    loops = []
    for g, m in enumerate(stop.tolist()):
        trace = ClosedLoopTrace(r[:m], hist[LAGS : m + LAGS, g, 0], hist[LAGS : m + LAGS, g, 1])
        if m < n:
            trace = ControllerDivergedError(f"controller output not finite at sample {m}", trace)
        loops.append(trace)
    return loops


def _lockstep_batches(profile: ReferenceProfile, jobs):
    """Lists of indices of the jobs to run in lockstep: NeuralController loops
    grouped by architecture, cut to plant.MAX_SIZE samples, and LOCKSTEP_MIN long."""
    groups = {}
    for i, (controller, _) in enumerate(jobs):
        if type(controller) is NeuralController:
            net = controller.net
            groups.setdefault((net.layer_sizes, net.activations), []).append(i)
    size = MAX_SIZE // len(profile)
    batches = [group[i : i + size] for group in groups.values()
               for i in range(0, len(group), size)]
    return [batch for batch in batches if len(batch) >= LOCKSTEP_MIN]


def _summarize(summarize, loop):
    """summarize(trace) of a loop that ran to its end, or the
    ControllerDivergedError of the loop or of its summary."""
    if isinstance(loop, ControllerDivergedError):
        return loop
    try:
        return summarize(loop)
    except ControllerDivergedError as exc:
        return exc


def run_closed_loops(params: MotorParams, profile: ReferenceProfile, jobs, summarize) -> list:
    """Run each (controller, seed) job as run_closed_loop does on `params`
    and `profile` and return, in job order, summarize(trace), or the
    ControllerDivergedError of a loop or summary that diverged.  Any other
    exception is raised.

    NeuralController loops of one architecture run in lockstep
    (`_run_lockstep`), with the same bits as one at a time; every other job
    runs run_closed_loop.  Each lockstep batch is summarized before the next
    runs."""
    results = {}
    for batch in _lockstep_batches(profile, jobs):
        for i, loop in zip(batch, _run_lockstep(params, profile, [jobs[i] for i in batch])):
            results[i] = _summarize(summarize, loop)
    for i, (controller, seed) in enumerate(jobs):
        if i not in results:
            try:
                loop = run_closed_loop(params, controller, profile, seed)
            except ControllerDivergedError as exc:
                loop = exc
            results[i] = _summarize(summarize, loop)
    return [results[i] for i in range(len(jobs))]


# --- controller comparison -------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    # field order is column order in comparison.csv; a failed run's indices are None
    name: str
    seed: int
    mean_abs_error: Optional[float]
    control_effort: Optional[float]
    error: Optional[str] = None


@dataclass
class ComparisonReport:
    rows: list
    medians: dict  # name -> (median mae, median effort)
    ranking: list  # names sorted by median mae

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["controller", "seed", "mean_abs_error", "control_effort", "error"])
            # shallow rows: dataclasses.astuple would deep-copy every row
            row = operator.attrgetter(*(f.name for f in fields(ComparisonRow)))
            writer.writerows(map(row, self.rows))

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
    names = [name for name, _ in controllers]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"controller {name!r} is named more than once")
    keys = [(name, seed) for name in names for seed in seeds]
    jobs = [(controller, seed) for _, controller in controllers for seed in seeds]
    rows = []
    for (name, seed), idx in zip(keys, run_closed_loops(params, profile, jobs, compute_indices)):
        if isinstance(idx, ControllerDivergedError):
            rows.append(ComparisonRow(name, seed, None, None, str(idx)))
        else:
            rows.append(ComparisonRow(name, seed, idx.mean_abs_error, idx.control_effort))
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
    # the rows csv.writer would write: a float's repr never needs quoting
    rows = zip(trace.r.tolist(), trace.y.tolist(), trace.u.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("k,r,y,u\r\n")
        fh.writelines(f"{k},{r!r},{y!r},{u!r}\r\n" for k, (r, y, u) in enumerate(rows))
