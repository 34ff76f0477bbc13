"""Per-layer metrics derived from one traced pass.

Each entry names the span it is computed from; when that span's function no
longer exists in the program (tracer.absent_spans) the metric is left out of
the result and listed as absent.  README.md says which end-to-end metric each
one should move, on which workload.  Times are per pass unless the unit says
per call or per sample.
"""

from __future__ import annotations

import statistics

from tracer import TRAINERS


def _ms(span):
    return lambda t, wall: t.total[span] * 1e3


def _s(span):
    return lambda t, wall: t.total[span]


def _calls(span):
    return lambda t, wall: t.count[span]


def _us_per_call(span):
    return lambda t, wall: t.total[span] / t.count[span] * 1e6 if t.count[span] else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _trainer_metrics(kind):
    span = f"training.{kind}"

    def epochs(t):
        return t.counters[f"{span}.epochs"]

    def trials(t):
        return t.counters[f"{span}.lambda_trials"]

    return [
        (f"{span}.s", "s", span, _s(span)),
        (f"{span}.epochs", "count", span, lambda t, w: epochs(t)),
        (f"{span}.epoch_ms", "ms", span, lambda t, w: _ratio(t.total[span] * 1e3, epochs(t))),
        (
            f"{span}.self_ms_per_epoch",
            "ms",
            span,
            lambda t, w: _ratio(t.self_time[span] * 1e3, epochs(t)),
        ),
        (f"{span}.self_share", "ratio", span, lambda t, w: _ratio(t.self_time[span], t.total[span])),
        (f"{span}.lambda_trials", "count", span, lambda t, w: trials(t)),
        (f"{span}.accept_ratio", "ratio", span, lambda t, w: _ratio(epochs(t), trials(t))),
    ]


_LOOP = "control.run_closed_loop"

# (metric name, unit, span it derives from, fn(tracer, traced pass wall time))
METRICS = [m for kind in TRAINERS for m in _trainer_metrics(kind)] + [
    ("mlp.error_jacobian.calls", "count", "mlp.error_jacobian", _calls("mlp.error_jacobian")),
    ("mlp.error_jacobian.ms", "ms", "mlp.error_jacobian", _ms("mlp.error_jacobian")),
    (
        "mlp.error_jacobian.ms_per_call",
        "ms/call",
        "mlp.error_jacobian",
        lambda t, w: _us_per_call("mlp.error_jacobian")(t, w) / 1e3,
    ),
    (
        "mlp.error_jacobian.mb_computed",
        "MB",
        "mlp.error_jacobian",
        lambda t, w: t.counters["mlp.error_jacobian.bytes_computed"] / 1e6,
    ),
    ("mlp.forward_batch.calls", "count", "mlp.forward_batch", _calls("mlp.forward_batch")),
    ("mlp.forward_batch.ms", "ms", "mlp.forward_batch", _ms("mlp.forward_batch")),
    ("plant.step.calls", "count", "plant.step", _calls("plant.step")),
    ("plant.step.us", "us/call", "plant.step", _us_per_call("plant.step")),
    ("mlp.forward.us", "us/call", "mlp.forward", _us_per_call("mlp.forward")),
    ("scaling.apply.us", "us/call", "scaling.apply", _us_per_call("scaling.apply")),
    ("scaling.invert.us", "us/call", "scaling.invert", _us_per_call("scaling.invert")),
    (
        "control.controller_call.us",
        "us/call",
        "control.controller_call",
        _us_per_call("control.controller_call"),
    ),
    ("control.samples", "count", _LOOP, lambda t, w: t.counters["control.samples"]),
    (
        "control.us_per_sample",
        "us/sample",
        _LOOP,
        lambda t, w: _ratio(t.total[_LOOP] * 1e6, t.counters["control.samples"]),
    ),
    (
        "control.self_us_per_sample",
        "us/sample",
        _LOOP,
        lambda t, w: _ratio(t.self_time[_LOOP] * 1e6, t.counters["control.samples"]),
    ),
    (
        "control.clamp_frac",
        "ratio",
        _LOOP,
        lambda t, w: _ratio(t.counters["control.clamped"], t.counters["control.samples"]),
    ),
] + [
    (f"{span}.ms", "ms", span, _ms(span))
    for span in (
        "experiment.run_step_experiment",
        "experiment.build_inverse_dataset",
        "experiment.save_iolog",
        "experiment.load_iolog",
        "mlp.save_network",
        "mlp.load_network",
        "control.trace_to_csv",
        "cli.load_config",
    )
] + [
    # cli.<command> spans are opened by the benchmark around each cli.main call.
    (f"cli.{cmd}.s", "s", None, _s(f"cli.{cmd}"))
    for cmd in ("collect", "train", "control", "compare")
] + [
    # Share of the traced pass covered by each module's outermost spans.
    (f"share.{module}", "ratio", None, lambda t, w, m=module: t.module_cover[m] / w)
    for module in ("training", "control", "experiment")
]

# Reported by run.py after all passes, not per pass.
RUN_METRICS = [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]


def layer_metrics(tracer, wall):
    absent = set(tracer.absent_spans)
    return {
        name: (float(fn(tracer, wall)), unit)
        for name, unit, span, fn in METRICS
        if span not in absent
    }


def absent_metrics(tracer):
    absent = set(tracer.absent_spans)
    return [name for name, _, span, _ in METRICS if span in absent]


def combine(per_pass):
    """Median of each metric over traced passes, and whether every count
    repeated exactly between passes."""
    names = per_pass[0].keys()
    combined = {
        name: (statistics.median(p[name][0] for p in per_pass), per_pass[0][name][1])
        for name in names
    }
    counts_repeat = all(
        p[name][0] == per_pass[0][name][0]
        for p in per_pass
        for name in names
        if per_pass[0][name][1] == "count"
    )
    return combined, counts_repeat
