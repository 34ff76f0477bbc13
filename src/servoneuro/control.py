"""Closed-loop execution of an inverse controller against the plant, plus the
two scalar performance indices (mean absolute tracking error, mean absolute
control effort)."""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
import statistics
from dataclasses import astuple, dataclass
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
    """The closed loop produced a non-finite controller output or performance
    index; carries the trace up to that point."""

    def __init__(self, message, trace: ClosedLoopTrace):
        super().__init__(message)
        self.trace = trace

    def __reduce__(self):  # pickles with its trace (a forked worker sends it back)
        return type(self), (str(self), self.trace)


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


def _run_jobs(jobs, summarize):
    results = []
    for job in jobs:
        try:
            results.append(summarize(run_closed_loop(*job)))
        except ControllerDivergedError as exc:
            results.append(exc)
    return results


def _transportable(exc):
    """`exc` if it survives pickling, else a ChildProcessError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ChildProcessError(f"closed-loop worker failed: {type(exc).__name__}: {exc}")


def _serve(write_fd, jobs, summarize):
    """Forked child: run `jobs` and send (ok, results or exception) pickled
    down the pipe.  Every exception, an interrupt too, goes to the parent
    instead of unwinding into the caller's stack, and the child leaves through
    os._exit so that no inherited atexit handler or stdio buffer runs twice."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, _run_jobs(jobs, summarize)))
        except BaseException as exc:
            payload = pickle.dumps((False, _transportable(exc)))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _unpack(pid, payload):
    try:
        ok, value = pickle.loads(payload)
    except Exception:  # nothing or a cut-off payload: the child died
        raise ChildProcessError(f"closed-loop worker {pid} ended without its results") from None
    if not ok:
        raise value
    return value


def run_closed_loops(jobs, summarize) -> list:
    """Run each (params, controller, profile, seed) job with run_closed_loop
    and return, in job order, summarize(trace), or the ControllerDivergedError
    of a loop or summary that diverged.  Any other exception is raised.

    The jobs are dealt round-robin to this process and to one forked child
    per further CPU it may run on; each child pickles its results back over a
    pipe.  A loop runs the same arithmetic in any process, so the results do
    not depend on the number of CPUs.  Children inherit the controllers and
    `summarize`, so closures work; only what `summarize` returns crosses the
    pipe.
    """
    jobs = list(jobs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(len(jobs), cpus))
    results = [None] * len(jobs)
    children = []  # (pid, read end of its pipe)
    try:
        for i in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(write_fd, jobs[i::workers], summarize)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results[0::workers] = _run_jobs(jobs[0::workers], summarize)
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    for i, ((pid, _), payload) in enumerate(zip(children, payloads), start=1):
        results[i::workers] = _unpack(pid, payload)
    return results


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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["controller", "seed", "mean_abs_error", "control_effort", "error"])
            writer.writerows(astuple(row) for row in self.rows)

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
    keys = [(name, seed) for name, _ in controllers for seed in seeds]
    jobs = [(params, controller, profile, seed) for _, controller in controllers for seed in seeds]
    rows = []
    for (name, seed), idx in zip(keys, run_closed_loops(jobs, compute_indices)):
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
    with open(path, "w", newline="") as fh:
        fh.write("k,r,y,u\r\n")
        fh.writelines(f"{k},{r!r},{y!r},{u!r}\r\n" for k, (r, y, u) in enumerate(rows))
