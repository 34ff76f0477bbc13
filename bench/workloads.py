"""The benchmark's workloads: inputs made from a seed, one unit of work each,
and the correctness checks on their outputs.

A workload is a list of units; running every unit once is one pass.  The
workload seed selects one of INPUT_SETS recorded input sets (seed mod
INPUT_SETS), so every run can be checked against reference values stored in
reference.json.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from servoneuro import cli, control, experiment, mlp, training
from servoneuro.plant import MotorParams

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"
INPUT_SETS = 20
# Medians may move this much (relative) before they count as a mismatch: wide
# enough for a reordered floating-point sum, far below a changed algorithm.
REFERENCE_TOLERANCE = 0.02

# Criterion-6 setting of the acceptance tests: 0.02 V sensor noise on a 0.8 V
# output span, 60 steps x 30 samples (P = 1797 patterns), 150 epochs.
PLANT = MotorParams(gain=0.2, tau=0.25, noise_sigma=0.02)
EXPERIMENT = dict(num_steps=60, dwell_samples=30)
EPOCHS = 150
PROFILE = control.ReferenceProfile(((0.6, 120), (0.2, 120), (0.68, 120), (0.32, 120)))
HEADLINE_SEEDS = 10


class OpFailed(RuntimeError):
    """An operation raised, exited non-zero or failed its own check."""


class Ops:
    """Counts operations: trainer calls, closed-loop runs and CLI commands."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, name, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:  # any failure of the program under test
            self.record_failure(name, exc)
            raise OpFailed(name) from exc
        self.attempted += 1
        return result

    def record_failure(self, name, exc):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{name}: {exc!r}")


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# --- library workload: headline ----------------------------------------------


def _train(name, train, net, data, cfg):
    trained, report = train(net, data, cfg)
    if not report.records:
        raise ValueError("trainer report has no epochs")
    if not np.all(np.isfinite(trained.weights)):
        raise ValueError("trained weights are not finite")
    if name != "br":  # BR minimises E_R, so its E_D may rise
        eds = [r.ed for r in report.records]
        if any(b > a for a, b in zip(eds, eds[1:])):
            raise ValueError("E_D rose between accepted epochs")
    return trained


def _closed_loop(trained, data, seed):
    controller = control.NeuralController(trained, data.input_scaling, data.target_scaling)
    trace = control.run_closed_loop(PLANT, controller, PROFILE, seed)
    if len(trace) != len(PROFILE) or not np.all(np.isfinite(trace.y)):
        raise ValueError("closed-loop trace is truncated or not finite")
    idx = control.compute_indices(trace)
    return idx.mean_abs_error, idx.control_effort


def headline_unit(data_seed, ops, tracer):
    log = experiment.run_step_experiment(
        PLANT, experiment.StepExperimentConfig(seed=data_seed, **EXPERIMENT)
    )
    data = experiment.build_inverse_dataset(log)
    net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=data_seed, scale=0.5)
    lm_cfg = training.LmConfig(max_epochs=EPOCHS)
    trainers = (
        ("lm", training.train_lm, lm_cfg),
        ("br", training.train_br, training.BrConfig(lm=lm_cfg)),
    )
    nets = {
        name: ops(f"train {name}", _train, name, fn, net, data, cfg) for name, fn, cfg in trainers
    }
    return {
        name: ops(f"closed loop {name}", _closed_loop, trained, data, data_seed + 1000)
        for name, trained in nets.items()
    }


def _median_indices(outputs, names):
    """Median mae and effort per controller over the units' first outputs."""
    result = {}
    for name in names:
        rows = [out[name] for out in outputs if out is not None]
        if rows:
            result[f"mae.{name}"] = statistics.median(r[0] for r in rows)
            result[f"effort.{name}"] = statistics.median(r[1] for r in rows)
    return result


# --- CLI workload: pipeline ---------------------------------------------------


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_rows(path):
    return [line.split(",") for line in Path(path).read_text().splitlines()[1:]]


PIPELINE_TRAINERS = ("lm", "br", "early_stop")


def _pipeline_dir():
    # Relative to the checkout root, so file names written into
    # comparison.csv (and its hash) do not depend on where the checkout is.
    return WORK.relative_to(BENCH.parent) / "pipeline"


def _pipeline_net(trainer):
    return str(_pipeline_dir() / trainer / "controller.net")


def prepare_pipeline(input_set):
    """One unit per command of the README CLI pipeline on the default config:
    (span name, argv, file the command writes).  The BR and early-stop nets
    come from one-line configs; the input set picks the experiment and init
    seed."""
    work = _pipeline_dir()
    work.mkdir(parents=True, exist_ok=True)
    seed = ["--seed", str(input_set)]
    iolog = work / "lm" / "iolog.csv"
    units = [("collect", seed + ["--out", str(work / "lm"), "collect"], iolog)]
    for trainer in PIPELINE_TRAINERS:
        argv = seed + ["--out", str(work / trainer)]
        if trainer != "lm":
            config = work / f"{trainer}.yaml"
            config.write_text(f"trainer: {{algorithm: {trainer}}}\n")
            argv += ["--config", str(config)]
        net = work / trainer / "controller.net"
        units.append(("train", argv + ["train", "--iolog", str(iolog)], net))
    control_argv = seed + ["--out", str(work / "br"), "control", _pipeline_net("br")]
    units.append(("control", control_argv, work / "br" / "indices.csv"))
    nets = [_pipeline_net(t) for t in PIPELINE_TRAINERS]
    compare_argv = seed + ["--out", str(work / "cmp"), "compare"] + nets
    units.append(("compare", compare_argv, work / "cmp" / "comparison.csv"))
    return units


def pipeline_unit(unit, ops, tracer):
    name, argv, written = unit
    with _span(tracer, f"cli.{name}"):
        ops(f"cli {' '.join(argv)}", _cli, argv)
    rows = _csv_rows(written) if name in ("control", "compare") else None
    return {"file": str(written), "sha256": _sha256(written), "rows": rows}


def pipeline_summary(outputs):
    compare = outputs[-1]
    if compare is None:
        return {}
    result = {}
    for trainer in PIPELINE_TRAINERS:
        rows = [r for r in compare["rows"] if r[0] == _pipeline_net(trainer) and not r[4]]
        if rows:
            result[f"mae.{trainer}"] = statistics.median(float(r[2]) for r in rows)
            result[f"effort.{trainer}"] = statistics.median(float(r[3]) for r in rows)
    return result


def pipeline_checks(outputs, input_set):
    control_out, compare = outputs[-2:]
    if control_out is None or compare is None:
        return {}
    br_rows = [r[1:4] for r in compare["rows"] if r[0] == _pipeline_net("br")]
    return {"BR rows of indices.csv equal those of comparison.csv": br_rows == control_out["rows"]}


# --- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable  # input set -> list of unit inputs
    run_unit: Callable  # (unit input, Ops, tracer or None) -> output
    summary: Callable  # first output of every unit -> behaviour metrics
    checks: Callable  # (first output of every unit, input set) -> {check name: passed}
    sizes: dict


def _headline_checks(outputs, input_set):
    """The paper's ordering, gated on the criterion-6 seeds 0-9 only: at this
    commit it holds for input set 0 and fails for most other sets of ten
    seeds, which run.py reports as information."""
    m = _median_indices(outputs, ("lm", "br"))
    if not m or input_set != 0:
        return {}
    return {
        "ordering mae.br < mae.lm": m["mae.br"] < m["mae.lm"],
        "ordering effort.br <= effort.lm": m["effort.br"] <= m["effort.lm"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "headline",
            "criterion-6 LM vs BR over 10 seeds through library calls; training is the hot path",
            lambda input_set: [HEADLINE_SEEDS * input_set + k for k in range(HEADLINE_SEEDS)],
            headline_unit,
            lambda outputs: _median_indices(outputs, ("lm", "br")),
            _headline_checks,
            {"P": 1797, "N": 71, "closed_loop_samples": 2 * HEADLINE_SEEDS * len(PROFILE)},
        ),
        Workload(
            "pipeline",
            "README CLI collect, train lm/br/early_stop, control, compare on the default config;"
            " closed loop dominates",
            prepare_pipeline,
            pipeline_unit,
            pipeline_summary,
            pipeline_checks,
            {"P": 3997, "N": 71, "closed_loop_samples": (10 + 30) * 4000},
        ),
    )
}


def load_reference(workload, input_set):
    table = json.loads(REFERENCE.read_text())
    return table.get(workload, {}).get(str(input_set))


def reference_mismatches(summary, reference):
    """Names of behaviour metrics that miss their reference value."""
    return sorted(
        key
        for key, expected in reference.items()
        if key not in summary
        or abs(summary[key] - expected) > REFERENCE_TOLERANCE * abs(expected)
    )


def warm_up():
    """Run each numeric path once on a tiny problem, so first-call costs
    (BLAS initialisation, lazy imports) are not timed."""
    log = experiment.run_step_experiment(
        PLANT, experiment.StepExperimentConfig(num_steps=4, dwell_samples=10)
    )
    data = experiment.build_inverse_dataset(log)
    net = mlp.init_weights([5, 4, 1], ["tanh", "linear"], seed=0, scale=0.5)
    cfg = training.LmConfig(max_epochs=3)
    training.train_lm(net, data, cfg)
    training.train_early_stopping(net, data, training.EarlyStopConfig(lm=cfg))
    trained, _ = training.train_br(net, data, training.BrConfig(lm=cfg))
    controller = control.NeuralController(trained, data.input_scaling, data.target_scaling)
    control.run_closed_loop(PLANT, controller, control.ReferenceProfile(((0.5, 20),)), 0)
