"""Open-loop step experiment on the plant and assembly of the inverse-model
training set from the logged input/output series."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .plant import MotorParams, make_state, step
from .training import Dataset


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
        if self.amplitude_min >= self.amplitude_max:
            raise ValueError("amplitude_min must be below amplitude_max")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(eq=False)
class IoLog:
    u: np.ndarray
    y: np.ndarray
    ts: float

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.u.shape != self.y.shape or self.u.ndim != 1:
            raise ValueError("u and y must be 1-D series of equal length")
        if self.u.size < 3:
            raise ValueError("log too short (need at least 3 samples)")

    def __len__(self):
        return self.u.size


def run_step_experiment(params: MotorParams, cfg: StepExperimentConfig) -> IoLog:
    """Drive the plant with random-amplitude steps, each held for
    dwell_samples, and log the measured response."""
    amp_seed, noise_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    amplitudes = np.random.default_rng(amp_seed).uniform(
        cfg.amplitude_min, cfg.amplitude_max, cfg.num_steps
    )
    state = make_state(noise_seed)
    u = np.repeat(amplitudes, cfg.dwell_samples)
    y = np.empty_like(u)
    for k, uk in enumerate(u):
        state, y[k] = step(state, params, uk)
    return IoLog(u, y, params.ts)


def build_inverse_dataset(log: IoLog) -> Dataset:
    """One pattern per sample with two lags on both sides:
    input [y(k+1), y(k), y(k-1), u(k-1), u(k-2)] -> target u(k).

    Offline training fills the reference slot with the realized next
    output.  Early samples without full lag history are dropped.
    """
    L = len(log)
    if L < 4:
        raise ValueError("log too short to form lagged patterns (need >= 4 samples)")
    u, y = log.u, log.y
    k = np.arange(2, L - 1)
    inputs = np.column_stack([y[k + 1], y[k], y[k - 1], u[k - 1], u[k - 2]])
    targets = u[k][:, None]
    return Dataset.from_raw(inputs, targets)


def save_iolog(log: IoLog, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "u", "y"])
        for k in range(len(log)):
            writer.writerow([k, repr(float(log.u[k])), repr(float(log.y[k]))])


def load_iolog(path, ts: float) -> IoLog:
    u, y = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"k", "u", "y"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected CSV header with columns k,u,y")
        for row in reader:
            u.append(float(row["u"]))
            y.append(float(row["y"]))
    return IoLog(np.array(u), np.array(y), ts)
