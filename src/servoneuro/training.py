"""Batch training of an MlpNetwork: damped Gauss-Newton least squares, with
optional weight-decay regularization whose strengths are re-estimated
automatically (Bayesian scheme) or controlled by early stopping."""

from __future__ import annotations

import csv
import dataclasses
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .mlp import MlpNetwork, error_jacobian, forward_batch, forward_layers
from .plant import check_fields
from .scaling import AffineScaling

_TINY = 1e-30
_HYPER_LO = 1e-12
_HYPER_HI = 1e12


class TrainingDivergedError(RuntimeError):
    """The initial loss is not finite, so no epoch can be run."""


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
        check_fields(self)
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

    def __post_init__(self):
        check_fields(self)
        if self.alpha_init <= 0 or self.beta_init <= 0:
            raise ValueError("alpha_init and beta_init must be positive")


@dataclass(frozen=True)
class EarlyStopConfig:
    lm: LmConfig = field(default_factory=LmConfig)
    validation_fraction: float = 0.3
    patience: int = 5
    split_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be positive")


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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["epoch", "E_D", "E_W", "E_R", "lambda", "alpha", "beta", "gamma", "val_ED"]
            )
            # shallow rows: dataclasses.astuple would deep-copy every record
            row = operator.attrgetter(*(f.name for f in dataclasses.fields(EpochRecord)))
            writer.writerows(map(row, self.records))


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


def _solve_step(H, G, lam):
    """Solve (H + lam*I) delta = -G for the damped Gauss-Newton step; H is
    left alone for the next lambda trial.  A singular system or a non-finite
    step raises LinAlgError."""
    A = H.copy()
    A.flat[:: H.shape[0] + 1] += lam
    delta = np.linalg.solve(A, -G)
    if not np.isfinite(delta).all():
        raise np.linalg.LinAlgError("non-finite step")
    return delta


_JTE_BLOCK = 16  # weights per block of J'e; see _jte_buffers


def _jte_buffers(JT):
    """Run-long buffers for J'e from JT, the (n_weights, P) J' of
    error_jacobian, without a pattern-major copy of the whole J.

    Returns (Jte, blocks), one (src, scratch, out) triple per block of
    weights: src is the block of J as a (P, width) view of JT, scratch the
    first `width` columns of one pattern-major buffer as wide as the widest
    block, and out the block's slice of Jte.  Blocks hold 16 weights and a
    one-weight remainder joins the block before it: then each gemv row rounds
    like the same row of a one-thread J.T @ e on a pattern-major J, which a
    lone last row, or a scratch narrower than its block, need not.  A net of
    at most 17 weights is one block, whose scratch is all of J.
    """
    N, P = JT.shape
    bounds = [*range(0, N, _JTE_BLOCK), N]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    ranges = list(zip(bounds, bounds[1:]))
    scratch = np.empty((P, max(b - a for a, b in ranges)))
    Jte = np.empty(N)
    return Jte, [(JT[a:b].T, scratch[:, :b - a], Jte[a:b]) for a, b in ranges]


def _jte(blocks, e):
    """Fill the Jte of _jte_buffers with J'e, copying J' one block at a time
    into the pattern-major scratch (J'-major forms round differently)."""
    for src, scratch, out in blocks:
        np.copyto(scratch, src)
        np.matmul(scratch.T, e, out=out)


def _patterns(net, X):
    """The patterns X as the trainers hold them: column-major, or row-major
    for a one-unit first layer (see _gauss_newton)."""
    return X if net.layer_sizes[1] == 1 else np.asfortranarray(X)


# --- trainers --------------------------------------------------------------


def _gauss_newton(net, data: Dataset, lm: LmConfig, norm, alpha=1.0, beta=0.0,
                  reestimate=None, epoch_hook=None):
    """Damped Gauss-Newton accept/reject loop shared by every trainer.

    Minimizes F = alpha*sum(e^2)/(2*norm) + beta*w'w.  Each epoch forms J'J
    and J'e once; each lambda trial solves the damped system and keeps the
    candidate network only if F drops, otherwise raises lambda and retries,
    giving up with LAMBDA_OVERFLOW once lambda passes lambda_max.

    `reestimate(epoch, JtJ, lam, sse, ww, alpha, beta)` runs once per epoch,
    before the first lambda trial, and returns (alpha, beta, gamma) for that
    epoch and its record.  A LinAlgError there is a failed trial: lambda is
    raised and the re-estimate retried.  `epoch_hook(net, rec)` runs after
    each accepted epoch and may return True to request an early stop.
    Returns (network, TrainReport) where the run stops.
    """

    def objective(sse, ww):  # with alpha and beta as re-estimated so far
        return alpha * (sse / (2.0 * norm)) + beta * ww

    def evaluate(net):  # (acts, e, sse, ww); an overflow is inf, which callers check
        acts = forward_layers(net, X)
        e = (D - acts[-1]).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            return acts, e, float(np.dot(e, e)), float(np.dot(net.weights, net.weights))

    P = data.n_patterns
    # One column-major copy of X per run: the first layer's gemm X @ W' runs
    # about twice as fast on it and rounds the same, and error_jacobian reads
    # X' (acts[0].T) without a copy.  A one-unit first layer is a gemv instead,
    # whose rounding depends on the layout, so there X stays row-major.
    X, D = _patterns(net, data.scaled_inputs()), data.scaled_targets()
    net = net.with_weights(net.weights.copy())
    lam = lm.lambda_init
    records = []
    acts, e, sse, ww = evaluate(net)
    if not np.isfinite(objective(sse, ww)):
        raise TrainingDivergedError("initial loss is not finite")

    hyper = ()  # the epoch's re-estimated (alpha, beta, gamma), for its record
    # One J' and one J'e scratch for the whole run: freeing them between
    # epochs lets the allocator return and re-fault the pages.  J' is the only
    # full-size Jacobian buffer; the scratch is P by at most 17 weights.
    JT = np.empty((net.n_weights, P))
    Jte, jte_blocks = _jte_buffers(JT)
    for epoch in range(1, lm.max_epochs + 1):
        # acts are the accepted network's activations, so J needs no forward
        # pass.  J' is built in JT; J'e is formed from it block by block, and
        # J'J is the syrk of J', which rounds like J.T @ J and reads J'
        # contiguously.
        error_jacobian(net, acts, out=JT)
        _jte(jte_blocks, e)
        JtJ = JT @ JT.T
        # nothing reads the accepted network's activations and residuals
        # again: dropping them keeps one activation set live in the epoch
        acts = e = evaluated = None
        system = None
        while True:
            try:
                if system is None:
                    if reestimate is not None:  # at the old alpha, beta; the step at the new
                        alpha, beta, _ = hyper = reestimate(epoch, JtJ, lam, sse, ww, alpha, beta)
                    f = objective(sse, ww)
                    scale = alpha / norm
                    system = _hessian(JtJ, scale, beta), scale * Jte + 2.0 * beta * net.weights
                cand = net.with_weights(net.weights + _solve_step(*system, lam))
                evaluated = evaluate(cand)
                f_cand = objective(*evaluated[2:])
                if math.isfinite(f_cand) and f_cand < f:
                    break
            except np.linalg.LinAlgError:  # a rejected trial
                pass
            evaluated = None  # freed before the next trial's forward pass
            lam *= lm.lambda_increase
            if lam > lm.lambda_max:
                return net, TrainReport(records, StopReason.LAMBDA_OVERFLOW)
        net, (acts, e, sse, ww) = cand, evaluated
        lam = max(lam * lm.lambda_decrease, _TINY)

        ed = sse / (2.0 * P)
        rec = EpochRecord(epoch, ed, ww, f_cand, lam, *hyper)
        stop_early = epoch_hook is not None and epoch_hook(net, rec)
        records.append(rec)
        if ed <= lm.goal_ed:
            return net, TrainReport(records, StopReason.GOAL_REACHED)
        if stop_early:
            return net, TrainReport(records, StopReason.EARLY_STOP)
    return net, TrainReport(records, StopReason.MAX_EPOCHS)


def train_lm(net: MlpNetwork, data: Dataset, cfg: LmConfig):
    """Plain Levenberg-Marquardt on E_D."""
    return _gauss_newton(net, data, cfg, data.n_patterns)


def train_early_stopping(net: MlpNetwork, data: Dataset, cfg: EarlyStopConfig):
    """LM on a train split, returning the best-validation-error snapshot.

    Stops once validation E_D has risen for `patience` consecutive epochs.
    Ties on validation error keep the earlier snapshot."""
    train_set, val_set = split_dataset(data, cfg.validation_fraction, cfg.split_seed)
    Xv, Dv = _patterns(net, val_set.scaled_inputs()), val_set.scaled_targets()

    best_val = np.inf
    best = net.with_weights(net.weights.copy())
    prev_val = np.inf
    rises = 0

    def hook(net, rec):  # the driver never edits an accepted network
        nonlocal best_val, best, prev_val, rises
        val = rec.val_ed = _ed(net, Xv, Dv)
        if val < best_val:
            best_val, best = val, net
        rises = rises + 1 if val > prev_val else 0
        prev_val = val
        return rises >= cfg.patience

    _, report = _gauss_newton(net, train_set, cfg.lm, train_set.n_patterns, epoch_hook=hook)
    return best, report


def train_br(net: MlpNetwork, data: Dataset, cfg: BrConfig):
    """LM on the regularized objective with automatic re-estimation of the
    data/weight trade-off from the effective number of parameters.

    The data term minimized is the half sum of squares (not divided by P), so
    the report's E_R, alpha and beta refer to alpha*sum(e^2)/2 + beta*E_W,
    while its E_D column keeps the (1/2P)-normalized convention.
    """
    N, n_errors = net.n_weights, data.targets.size

    def reestimate(epoch, JtJ, lam, sse, ww, alpha, beta):
        # effective parameter count from the damped Hessian trace (norm is 1);
        # min(max(x, lo), hi) keeps a NaN x, as np.clip did
        A = _hessian(JtJ, alpha, beta)
        A.flat[:: N + 1] += lam
        gamma = min(max(float(N - 2.0 * beta * np.trace(np.linalg.inv(A))), 0.0), float(N))
        if epoch > 1:  # every epoch after the first, as Foresee & Hagan (1997) do
            eds = 0.5 * sse
            beta = min(max(gamma / (2.0 * max(ww, _TINY)), _HYPER_LO), _HYPER_HI)
            alpha = min(max((n_errors - gamma) / (2.0 * max(eds, _TINY)), _HYPER_LO), _HYPER_HI)
        return alpha, beta, gamma

    return _gauss_newton(net, data, cfg.lm, 1.0, cfg.alpha_init, cfg.beta_init,
                         reestimate=reestimate)


def split_dataset(data: Dataset, fraction: float, seed: int):
    """Deterministic shuffled split; returns (kept, held_out) datasets sharing
    the parent's scaling metadata."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    P = data.n_patterns
    n_held = int(round(fraction * P))
    if n_held == 0 or n_held == P:
        raise ValueError(
            f"validation_fraction {fraction} leaves an empty partition of {P} patterns")
    perm = np.random.default_rng(seed).permutation(P)
    held, kept = perm[:n_held], perm[n_held:]
    return (
        Dataset(data.inputs[kept], data.targets[kept], data.input_scaling, data.target_scaling),
        Dataset(data.inputs[held], data.targets[held], data.input_scaling, data.target_scaling),
    )
