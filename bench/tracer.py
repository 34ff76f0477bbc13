"""In-memory span tracer that wraps servoneuro's public functions from outside.

Each target is patched at the module attribute where the program looks it up
(for example ``servoneuro.training.error_jacobian``, not ``servoneuro.mlp``),
so a span measures exactly the calls made through that name.  A target whose
module or attribute no longer exists is reported as absent instead of failing,
so the benchmark keeps running across refactors that rename or remove a layer.

Spans are kept in flat arrays (id, parent, name, start, end) and written out at
the end of a run.  Aggregates (count, total, self time) and the time covered by
each module's outermost spans are accumulated as spans close, so they stay
exact even when span storage is capped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, module the name is looked up in, attribute path in that module).
# Two rows may share a span name when the program looks one function up in two
# places (plant.step is called from both the experiment and the closed loop).
TARGETS = (
    ("plant.step", "servoneuro.experiment", "step"),
    ("plant.step", "servoneuro.control", "step"),
    ("experiment.run_step_experiment", "servoneuro.experiment", "run_step_experiment"),
    ("experiment.build_inverse_dataset", "servoneuro.experiment", "build_inverse_dataset"),
    ("experiment.save_iolog", "servoneuro.experiment", "save_iolog"),
    ("experiment.load_iolog", "servoneuro.experiment", "load_iolog"),
    ("scaling.apply", "servoneuro.scaling", "AffineScaling.apply"),
    ("scaling.invert", "servoneuro.scaling", "AffineScaling.invert"),
    ("scaling.to_unit_range", "servoneuro.scaling", "AffineScaling.to_unit_range"),
    ("mlp.init_weights", "servoneuro.mlp", "init_weights"),
    ("mlp.forward", "servoneuro.control", "forward"),
    ("mlp.forward_batch", "servoneuro.training", "forward_batch"),
    ("mlp.error_jacobian", "servoneuro.training", "error_jacobian"),
    ("mlp.save_network", "servoneuro.mlp", "save_network"),
    ("mlp.load_network", "servoneuro.mlp", "load_network"),
    ("training.lm", "servoneuro.training", "train_lm"),
    ("training.br", "servoneuro.training", "train_br"),
    ("training.early_stop", "servoneuro.training", "train_early_stopping"),
    ("training.split_dataset", "servoneuro.training", "split_dataset"),
    ("control.run_closed_loop", "servoneuro.control", "run_closed_loop"),
    ("control.controller_call", "servoneuro.control", "NeuralController.__call__"),
    ("control.compute_indices", "servoneuro.control", "compute_indices"),
    ("control.compare_controllers", "servoneuro.control", "compare_controllers"),
    ("control.trace_to_csv", "servoneuro.control", "trace_to_csv"),
    ("cli.load_config", "servoneuro.cli", "load_config"),
)

TRAINERS = ("lm", "br", "early_stop")
MAX_SPANS = 1_000_000  # stored spans per run (36 bytes each); aggregates count all
U_MIN, U_MAX = 2.5, 6.5  # actuator clamp of servoneuro.control


def lambda_trials(lambdas, lam0, increase, decrease):
    """Damped-solve trials implied by a trainer report's lambda column.

    Every accepted epoch multiplies lambda by `increase` once per rejected
    trial and by `decrease` once for the accepted one, so the rejections in
    epoch k are log(lam_k / (lam_{k-1} * decrease)) / log(increase).  Exact
    unless lambda hit the trainer's 1e-30 floor.  An epoch that ended the run
    by lambda overflow is not in the report and is not counted.
    """
    trials = 0
    prev = lam0
    for lam in lambdas:
        trials += round(math.log(lam / (prev * decrease)) / math.log(increase)) + 1
        prev = lam
    return trials


def _observe_trainer(kind):
    def observe(counters, args, result):
        cfg = args[2]
        lm = getattr(cfg, "lm", cfg)
        records = result[1].records
        counters[f"training.{kind}.epochs"] += len(records)
        counters[f"training.{kind}.lambda_trials"] += lambda_trials(
            [r.lam for r in records], lm.lambda_init, lm.lambda_increase, lm.lambda_decrease
        )

    return observe


def _observe_jacobian(counters, args, result):
    counters["mlp.error_jacobian.bytes_computed"] += result.size * 8


def _observe_closed_loop(counters, args, result):
    u = result.u
    counters["control.samples"] += u.size
    counters["control.clamped"] += int(((u == U_MIN) | (u == U_MAX)).sum())


OBSERVERS = {
    "training.lm": _observe_trainer("lm"),
    "training.br": _observe_trainer("br"),
    "training.early_stop": _observe_trainer("early_stop"),
    "mlp.error_jacobian": _observe_jacobian,
    "control.run_closed_loop": _observe_closed_loop,
}


def _resolve(module_name, path):
    """Return (owner, attribute, raw value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dropped = 0
        self._next_id = 0
        self._stack = []  # frames: [span id, time covered by children]
        self.absent_targets = []
        self.absent_spans = []
        self._module_depth = defaultdict(int)  # open spans per module; 0 between passes
        self.reset_counts()

    def reset_counts(self):
        """Start a new aggregation window (one workload pass)."""
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.module_cover = defaultdict(float)

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, module):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._module_depth[module] += 1
        return frame

    def _close(self, name, nid, module, frame, t0, t1):
        self._module_depth[module] -= 1
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if self._module_depth[module] == 0:
            self.module_cover[module] += dur
        if len(self.start) < MAX_SPANS:
            self.span_id.append(frame[0])
            self.parent_id.append(stack[-1][0] if stack else -1)
            self.name_id.append(nid)
            self.start.append(t0)
            self.end.append(t1)
        else:
            self.dropped += 1

    def wrap(self, name, fn):
        nid = self._intern(name)
        module = name.split(".", 1)[0]
        observe = OBSERVERS.get(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(module)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, nid, module, frame, t0, perf())
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (a CLI command, a unit)."""
        nid = self._intern(name)
        module = name.split(".", 1)[0]
        frame = self._open(module)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, nid, module, frame, t0, time.perf_counter())

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Patch every target that exists; restore the originals on exit."""
        patched = []
        found = set()
        self.absent_targets = []
        for name, module_name, path in targets:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.absent_targets.append(f"{module_name}.{path}")
                continue
            owner, attr, raw = resolved
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(name, raw.__func__))
            else:
                replacement = self.wrap(name, raw)
            setattr(owner, attr, replacement)
            patched.append((owner, attr, raw))
            found.add(name)
        self.absent_spans = sorted({name for name, _, _ in targets} - found)
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)

    def save(self, path):
        """Write every stored span as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.parent_id, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            dropped=np.array(self.dropped),
        )
