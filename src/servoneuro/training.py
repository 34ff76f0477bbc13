"""Batch training of an MlpNetwork: damped Gauss-Newton least squares, with
optional weight-decay regularization whose strengths are re-estimated
automatically (Bayesian scheme) or controlled by early stopping."""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .mlp import MlpNetwork, error_jacobian, forward_batch, forward_layers
from .scaling import AffineScaling

_TINY = 1e-30
_HYPER_LO = 1e-12
_HYPER_HI = 1e12


class TrainingDivergedError(RuntimeError):
    """Non-finite loss; carries the partial report accumulated so far."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(eq=False)
class Dataset:
    """Regressor matrix plus targets in raw volts, with scaling metadata."""

    inputs: np.ndarray  # P x n_in
    targets: np.ndarray  # P x n_out
    input_scaling: AffineScaling
    target_scaling: AffineScaling

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree on pattern count")
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one pattern")
        if self.input_scaling.width != self.inputs.shape[1]:
            raise ValueError("input scaling width mismatch")
        if self.target_scaling.width != self.targets.shape[1]:
            raise ValueError("target scaling width mismatch")

    @classmethod
    def from_raw(cls, inputs, targets) -> "Dataset":
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        in_s, out_s = AffineScaling.to_unit_range(inputs), AffineScaling.to_unit_range(targets)
        return cls(inputs, targets, in_s, out_s)

    @property
    def n_patterns(self) -> int:
        return self.inputs.shape[0]

    def scaled_inputs(self) -> np.ndarray:
        return self.input_scaling.apply(self.inputs)

    def scaled_targets(self) -> np.ndarray:
        return self.target_scaling.apply(self.targets)


@dataclass(frozen=True)
class LmConfig:
    lambda_init: float = 1e-3
    lambda_increase: float = 10.0
    lambda_decrease: float = 0.1
    lambda_max: float = 1e10
    max_epochs: int = 100
    goal_ed: float = 0.0

    def __post_init__(self):
        # a NaN or infinite lambda never passes lambda_max, so the run would not end
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.lambda_init <= 0 or self.lambda_max <= 0:
            raise ValueError("lambda_init and lambda_max must be positive")
        if self.lambda_init > self.lambda_max:
            raise ValueError("lambda_init must not exceed lambda_max")
        if self.lambda_increase <= 1.0:
            raise ValueError("lambda_increase must exceed 1")
        if not 0.0 < self.lambda_decrease < 1.0:
            raise ValueError("lambda_decrease must be in (0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.goal_ed < 0:
            raise ValueError("goal_ed must be nonnegative")


@dataclass(frozen=True)
class BrConfig:
    lm: LmConfig = field(default_factory=LmConfig)
    alpha_init: float = 1.0  # data-term strength
    beta_init: float = 1e-3  # weight-decay strength
    reestimate_every: int = 1

    def __post_init__(self):
        for name in ("alpha_init", "beta_init"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha_init <= 0 or self.beta_init <= 0:
            raise ValueError("alpha_init and beta_init must be positive")
        if self.reestimate_every < 1:
            raise ValueError("reestimate_every must be positive")


@dataclass(frozen=True)
class EarlyStopConfig:
    lm: LmConfig = field(default_factory=LmConfig)
    validation_fraction: float = 0.3
    patience: int = 5
    split_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if self.split_seed < 0:
            raise ValueError("split_seed must be nonnegative")


class StopReason(Enum):
    GOAL_REACHED = "GoalReached"
    MAX_EPOCHS = "MaxEpochs"
    LAMBDA_OVERFLOW = "LambdaOverflow"
    EARLY_STOP = "EarlyStop"


@dataclass
class EpochRecord:
    # field order is column order in train_report.csv; None is a blank cell
    epoch: int
    ed: float
    ew: float
    er: float
    lam: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    val_ed: Optional[float] = None


@dataclass
class TrainReport:
    records: list
    stop_reason: StopReason

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["epoch", "E_D", "E_W", "E_R", "lambda", "alpha", "beta", "gamma", "val_ED"]
            )
            writer.writerows(dataclasses.astuple(r) for r in self.records)


# --- error functionals -----------------------------------------------------


def _ed(net, X, D):
    """(1/2P) sum of squared residuals of `net` on scaled patterns X, D."""
    e = (D - forward_batch(net, X)).ravel()
    return float(np.dot(e, e) / (2.0 * X.shape[0]))


def compute_ed(net: MlpNetwork, data: Dataset) -> float:
    """Mean squared error (1/2P) sum of squared residuals, in scaled units."""
    return _ed(net, data.scaled_inputs(), data.scaled_targets())


def _hessian(JtJ, scale, beta):
    """Gauss-Newton Hessian H = scale*J'J + 2*beta*I of
    alpha/(2*norm)*sum(e^2) + beta*sum(w^2), given scale = alpha/norm.
    Its exact gradient is G = scale*J'e + 2*beta*w."""
    H = scale * JtJ
    H.flat[:: H.shape[0] + 1] += 2.0 * beta
    return H


def _damped(H, lam):
    """H + lam*I as a new matrix; H is left alone for the next lambda trial."""
    A = H.copy()
    A.flat[:: H.shape[0] + 1] += lam
    return A


def _solve_step(H, G, lam):
    """Solve (H + lam*I) delta = -G for the damped Gauss-Newton step.  A
    singular system or a non-finite step raises LinAlgError."""
    delta = np.linalg.solve(_damped(H, lam), -G)
    if not np.all(np.isfinite(delta)):
        raise np.linalg.LinAlgError("non-finite step")
    return delta


# --- trainers --------------------------------------------------------------


def _gauss_newton(net, X, D, lm: LmConfig, norm, alpha=1.0, beta=0.0,
                  reestimate=None, epoch_hook=None):
    """Damped Gauss-Newton accept/reject loop shared by every trainer.

    Minimizes F = alpha*sum(e^2)/(2*norm) + beta*w'w.  Each epoch forms J'J
    and J'e once; each lambda trial solves the damped system and keeps the
    candidate only if F drops, otherwise raises lambda and retries, giving up
    with LAMBDA_OVERFLOW once lambda passes lambda_max.

    `reestimate(epoch, H, lam, sse, ww, alpha, beta)` runs once per epoch,
    before the first lambda trial, with the Hessian of the current objective,
    and returns (alpha, beta, gamma) for that epoch.  A LinAlgError there is a
    failed trial: lambda is raised and the re-estimate retried.
    `epoch_hook(epoch, w, rec)` runs after each accepted epoch and may return
    True to request an early stop.  Returns (weights, records, stop reason).
    """

    def objective(sse, ww):  # with alpha and beta as re-estimated so far
        return alpha * (sse / (2.0 * norm)) + beta * ww

    def losses(w, acts):  # (e, sse, ww); an overflow is inf, which callers check
        e = (D - acts[-1]).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            return e, float(np.dot(e, e)), float(np.dot(w, w))

    P = X.shape[0]
    w = net.weights.copy()
    lam = lm.lambda_init
    records = []
    acts = forward_layers(net, X)
    e, sse, ww = losses(w, acts)
    if not np.isfinite(objective(sse, ww)):
        raise TrainingDivergedError(
            "initial loss is not finite", TrainReport(records, StopReason.MAX_EPOCHS)
        )

    stop = StopReason.MAX_EPOCHS
    gamma = None
    # One J for the whole run: a fresh one per epoch sits next to the
    # Jacobian's transposed scratch (one more J of peak memory), and freeing
    # it between epochs lets the allocator return and re-fault the pages.
    J = np.empty((P, net.n_weights))
    for epoch in range(1, lm.max_epochs + 1):
        # acts are the accepted weights' activations, so J needs no forward pass
        error_jacobian(net.with_weights(w), X, D, acts, J)
        JtJ, Jte = J.T @ J, J.T @ e
        system = None
        while True:
            try:
                if system is None:
                    if reestimate is not None:  # H at the old alpha, beta; the step's at the new
                        H = _hessian(JtJ, alpha / norm, beta)
                        alpha, beta, gamma = reestimate(epoch, H, lam, sse, ww, alpha, beta)
                    f = objective(sse, ww)
                    scale = alpha / norm
                    system = _hessian(JtJ, scale, beta), scale * Jte + 2.0 * beta * w
                w_cand = w + _solve_step(*system, lam)
                acts_cand = forward_layers(net.with_weights(w_cand), X)
                e_cand, sse_cand, ww_cand = losses(w_cand, acts_cand)
                f_cand = objective(sse_cand, ww_cand)
                ok = np.isfinite(f_cand) and f_cand < f
            except np.linalg.LinAlgError:
                ok = False
            if ok:
                w, acts, e, sse, ww, f = w_cand, acts_cand, e_cand, sse_cand, ww_cand, f_cand
                lam = max(lam * lm.lambda_decrease, _TINY)
                break
            lam *= lm.lambda_increase
            if lam > lm.lambda_max:
                break
        if not ok:
            stop = StopReason.LAMBDA_OVERFLOW
            break

        ed = sse / (2.0 * P)
        rec = EpochRecord(epoch, ed, ww, f, lam)
        if reestimate is not None:
            rec.alpha, rec.beta, rec.gamma = alpha, beta, gamma
        hook_stop = bool(epoch_hook(epoch, w, rec)) if epoch_hook else False
        records.append(rec)
        if ed <= lm.goal_ed:
            stop = StopReason.GOAL_REACHED
            break
        if hook_stop:
            stop = StopReason.EARLY_STOP
            break
    return w, records, stop


def train_lm(net: MlpNetwork, data: Dataset, cfg: LmConfig):
    """Plain Levenberg-Marquardt on E_D."""
    X, D = data.scaled_inputs(), data.scaled_targets()
    w, records, stop = _gauss_newton(net, X, D, cfg, data.n_patterns)
    return net.with_weights(w), TrainReport(records, stop)


def train_early_stopping(net: MlpNetwork, data: Dataset, cfg: EarlyStopConfig):
    """LM on a train split, returning the best-validation-error snapshot.

    Stops once validation E_D has risen for `patience` consecutive epochs.
    Ties on validation error keep the earlier snapshot."""
    train_set, val_set = split_dataset(data, cfg.validation_fraction, cfg.split_seed)
    X, D = train_set.scaled_inputs(), train_set.scaled_targets()
    Xv, Dv = val_set.scaled_inputs(), val_set.scaled_targets()

    best_val = np.inf
    best_w = net.weights.copy()
    prev_val = np.inf
    rises = 0

    def hook(epoch, w, rec):
        nonlocal best_val, best_w, prev_val, rises
        val = rec.val_ed = _ed(net.with_weights(w), Xv, Dv)
        if val < best_val:
            best_val = val
            best_w = w.copy()
        rises = rises + 1 if val > prev_val else 0
        prev_val = val
        return rises >= cfg.patience

    _, records, stop = _gauss_newton(net, X, D, cfg.lm, train_set.n_patterns, epoch_hook=hook)
    return net.with_weights(best_w), TrainReport(records, stop)


def train_br(net: MlpNetwork, data: Dataset, cfg: BrConfig):
    """LM on the regularized objective with automatic re-estimation of the
    data/weight trade-off from the effective number of parameters.

    The data term minimized is the half sum of squares (not divided by P), so
    the report's E_R, alpha and beta refer to alpha*sum(e^2)/2 + beta*E_W,
    while its E_D column keeps the (1/2P)-normalized convention.
    """
    X, D = data.scaled_inputs(), data.scaled_targets()
    N = net.n_weights

    def reestimate(epoch, H, lam, sse, ww, alpha, beta):
        # effective parameter count from the damped Hessian trace
        Hinv = np.linalg.inv(_damped(H, lam))
        gamma = float(np.clip(N - 2.0 * beta * np.trace(Hinv), 0.0, N))
        if epoch > 1 and (epoch - 1) % cfg.reestimate_every == 0:
            eds = 0.5 * sse
            beta = float(np.clip(gamma / (2.0 * max(ww, _TINY)), _HYPER_LO, _HYPER_HI))
            alpha = float(
                np.clip((D.size - gamma) / (2.0 * max(eds, _TINY)), _HYPER_LO, _HYPER_HI)
            )
        return alpha, beta, gamma

    w, records, stop = _gauss_newton(
        net, X, D, cfg.lm, 1.0, cfg.alpha_init, cfg.beta_init, reestimate=reestimate
    )
    return net.with_weights(w), TrainReport(records, stop)


def split_dataset(data: Dataset, fraction: float, seed: int):
    """Deterministic shuffled split; returns (kept, held_out) datasets sharing
    the parent's scaling metadata."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    P = data.n_patterns
    n_held = int(round(fraction * P))
    if n_held == 0 or n_held == P:
        raise ValueError(f"split leaves an empty partition (P={P}, fraction={fraction})")
    perm = np.random.default_rng(seed).permutation(P)
    held, kept = perm[:n_held], perm[n_held:]
    return (
        Dataset(data.inputs[kept], data.targets[kept], data.input_scaling, data.target_scaling),
        Dataset(data.inputs[held], data.targets[held], data.input_scaling, data.target_scaling),
    )
