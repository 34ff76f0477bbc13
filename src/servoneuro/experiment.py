"""Open-loop step experiment on the plant and assembly of the inverse-model
training set from the logged input/output series."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .plant import MotorParams, make_state, step
from .training import Dataset

# The shortest log that forms one lagged training pattern (see
# build_inverse_dataset).
MIN_LOG_SAMPLES = 4


@dataclass(frozen=True)
class StepExperimentConfig:
    num_steps: int = 40
    amplitude_min: float = 2.5
    amplitude_max: float = 6.5
    dwell_samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be positive")
        if self.dwell_samples < 1:
            raise ValueError("dwell_samples must be positive")
        if self.num_steps * self.dwell_samples < MIN_LOG_SAMPLES:
            raise ValueError(
                f"num_steps * dwell_samples must be at least {MIN_LOG_SAMPLES} samples"
            )
        for name in ("amplitude_min", "amplitude_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.amplitude_min >= self.amplitude_max:
            raise ValueError("amplitude_min must be below amplitude_max")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(eq=False)
class IoLog:
    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.shape != self.y.shape or self.u.ndim != 1:
            raise ValueError("u and y must be 1-D series of equal length")
        if self.u.size < MIN_LOG_SAMPLES:
            raise ValueError(
                f"log too short ({self.u.size} samples, need at least {MIN_LOG_SAMPLES})"
            )

    def __len__(self):
        return self.u.size


class ExperimentDivergedError(RuntimeError):
    """The plant output left the finite range during the step experiment."""


def run_step_experiment(params: MotorParams, cfg: StepExperimentConfig) -> IoLog:
    """Drive the plant with random-amplitude steps, each held for
    dwell_samples, and log the measured response.  Raises
    ExperimentDivergedError, naming the first sample, if the output overflows."""
    amp_seed, noise_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    amplitudes = np.random.default_rng(amp_seed).uniform(
        cfg.amplitude_min, cfg.amplitude_max, cfg.num_steps
    )
    state = make_state(noise_seed)
    u = np.repeat(amplitudes, cfg.dwell_samples)
    y = np.empty_like(u)
    # Python floats: an overflow becomes inf without a numpy warning, and the
    # finished series is checked once below
    for k, uk in enumerate(u.tolist()):
        state, y[k] = step(state, params, uk)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        k = int(bad[0])
        raise ExperimentDivergedError(
            f"plant output is not finite from sample k={k} (u={float(u[k])!r} V, "
            f"y={float(y[k])!r}); check the plant parameters"
        )
    return IoLog(u, y)


def build_inverse_dataset(log: IoLog) -> Dataset:
    """One pattern per sample with two lags on both sides:
    input [y(k+1), y(k), y(k-1), u(k-1), u(k-2)] -> target u(k).

    Offline training fills the reference slot with the realized next
    output.  Early samples without full lag history are dropped.
    """
    L = len(log)
    u, y = log.u, log.y
    k = np.arange(2, L - 1)
    inputs = np.column_stack([y[k + 1], y[k], y[k - 1], u[k - 1], u[k - 2]])
    targets = u[k][:, None]
    return Dataset.from_raw(inputs, targets)


def save_iolog(log: IoLog, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "u", "y"])
        writer.writerows(zip(range(len(log)), log.u.tolist(), log.y.tolist()))


def load_iolog(path) -> IoLog:
    """Read a log written by `save_iolog`.  Every u and y must be a finite
    number and the log must be long enough to train on; a ValueError names the
    file and, for a bad value, its line."""
    u, y = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not {"k", "u", "y"} <= set(reader.fieldnames):
                raise ValueError(f"{path}: expected CSV header with columns k,u,y")
            for row in reader:
                try:
                    uk, yk = float(row["u"]), float(row["y"])
                    finite = math.isfinite(uk) and math.isfinite(yk)
                except (TypeError, ValueError):
                    finite = False
                if not finite:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: u and y must be finite "
                        f"numbers, got u={row['u']!r}, y={row['y']!r}"
                    )
                u.append(uk)
                y.append(yk)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    try:
        return IoLog(np.array(u), np.array(y))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
