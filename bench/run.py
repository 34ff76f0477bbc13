"""servoneuro benchmark.

    python3 bench/run.py --workload {headline,pipeline} --seed N --seconds S --trace {0,1}

Runs the workload's units in a closed loop (one client, each call waits for
the previous one) for S seconds, and always at least one whole pass.  Checks
the outputs, writes a result file to bench/results/, and prints the metrics,
ending with one JSON line.  --trace 0 reports the end-to-end metrics with
tracing off; --trace 1 alternates untraced and traced passes and reports the
per-layer metrics.  See bench/README.md.
"""

import os

# Chosen, not inherited: single-threaded OpenBLAS measured faster and
# steadier than the default two threads on a 2-core machine.  Set before
# numpy is imported; setup probes inherit it.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 9
# A fresh interpreter imports the CLI (and with it numpy and PyYAML) and
# makes the workload's inputs; the parent times it until "ready" is read.
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import servoneuro.cli, workloads; "
    "workloads.WORKLOADS[sys.argv[3]].prepare(int(sys.argv[4])); print('ready', flush=True)"
)
WORKLOAD_NAMES = ("headline", "pipeline")
# Median time of calibrate() on the machine the benchmark was built on (Intel
# Xeon vCPU at 2.0 GHz, 2 cores, numpy 2.4 with OpenBLAS, one thread).
CALIBRATION_REF_S = 0.016
_CAL_MATRIX = np.random.default_rng(0).normal(size=(1800, 64))


def calibrate():
    """Seconds taken by a fixed kernel that runs no servoneuro code: BLAS,
    element-wise numpy and interpreted Python, like the workloads.

    The machine's speed drifts: one headline unit took either about 1.0 s or
    about 1.4 s, in phases lasting from seconds to minutes.  Timing this
    kernel next to every unit measures the speed the unit ran at.
    """
    t0 = time.perf_counter()
    for _ in range(12):
        _CAL_MATRIX.T @ _CAL_MATRIX
    np.tanh(_CAL_MATRIX).sum()
    total = 0.0
    for i in range(90_000):
        total += math.sqrt(i)
    for _ in range(900):
        np.array([1.0, 2.0, 3.0, 4.0, 5.0]) * 2.0
    return time.perf_counter() - t0


def _parse(argv):
    parser = argparse.ArgumentParser(description="servoneuro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup(workload, input_set):
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(input_set)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def run_pass(wl, units, ops, tracer, outputs):
    """Run every unit once; returns the wall time of each unit."""
    import workloads

    times = []
    for k, unit in enumerate(units):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run_unit(unit, ops, None)
            else:
                with tracer.span(f"unit.{wl.name}"):
                    out = wl.run_unit(unit, ops, tracer)
        except workloads.OpFailed:
            out = None
        except Exception as exc:  # a failure outside any operation still ends only this unit
            ops.record_failure(f"unit {k}", exc)
            out = None
        times.append(time.perf_counter() - t0)
        outputs[k].append(out)
    return times


def measure_untraced(wl, units, seconds, ops, outputs, probe):
    """Cycle through the units until the next one would overrun `seconds`
    (after at least one whole pass).  Every unit run and every setup probe is
    timed between two runs of calibrate() and rescaled to the reference speed
    by the mean of the two; the raw times are returned as well.  wall_s is the
    sum over units of each unit's mean rescaled time; setup_s is the median
    rescaled probe, with the probes spread over the run."""
    n = len(units)
    samples = [[] for _ in units]  # (raw seconds, calibration seconds)
    setup = []
    last_cal = [calibrate()]

    def timed(fn):
        before = last_cal[0]
        result = fn()
        last_cal[0] = calibrate()
        return result, (before + last_cal[0]) / 2

    setup.append(timed(probe))
    start = time.perf_counter()
    i = 0
    while True:
        k = i % n
        elapsed = time.perf_counter() - start
        if i >= n and elapsed + statistics.fmean(t for t, _ in samples[k]) > seconds:
            break
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(timed(probe))
        samples[k].append(timed(lambda: run_pass(wl, [units[k]], ops, None, [outputs[k]])[0]))
        i += 1
    while len(setup) < SETUP_PROBES:
        setup.append(timed(probe))

    def rescaled(pairs):
        return [t * CALIBRATION_REF_S / cal for t, cal in pairs]

    return {
        "wall_s": sum(statistics.fmean(rescaled(s)) for s in samples),
        "setup_s": statistics.median(rescaled(setup)),
        "raw_wall_s": sum(statistics.fmean(t for t, _ in s) for s in samples),
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "unit_runs": sum(map(len, samples)),
        "unit_times_s": [[t for t, _ in s] for s in samples],
        "calibration_s": [cal for s in samples for _, cal in s],
        "setup_probe_s": [t for t, _ in setup],
        "setup_calibration_s": [cal for _, cal in setup],
    }


def measure_traced(wl, units, seconds, ops, outputs):
    """Alternate an untraced and a traced pass until the next pair would
    overrun `seconds` (at least one pair).  Layer metrics are the median over
    traced passes; counts must repeat exactly between traced passes."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(sum(run_pass(wl, units, ops, None, outputs)))
        tracer.reset_counts()
        with tracer.installed():
            traced.append(sum(run_pass(wl, units, ops, tracer, outputs)))
        per_pass.append(layers.layer_metrics(tracer, traced[-1]))
        pair = untraced[-1] + traced[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    metrics, counts_repeat = layers.combine(per_pass)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(untraced), "ratio")
    info = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "absent_targets": tracer.absent_targets,
        "absent_metrics": layers.absent_metrics(tracer),
        "spans_stored": len(tracer.start),
        "spans_dropped": tracer.dropped,
    }
    return metrics, counts_repeat, info, tracer


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = "unavailable"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": blas,
        "thread_env": {k: os.environ.get(k) for k in sorted(BLAS_THREADS)},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def _print_metric(name, value, unit, note=""):
    print(f"{name:<40} {value:>16.6f} {unit}{note}")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "servoneuro" / "__init__.py").is_file():
        print(f"bench: no servoneuro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import servoneuro
    import workloads

    if Path(servoneuro.__file__).resolve().parent != SRC / "servoneuro":
        print(f"bench: imported servoneuro from {servoneuro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    input_set = args.seed % workloads.INPUT_SETS
    shutil.rmtree(workloads.WORK / args.workload, ignore_errors=True)
    units = wl.prepare(input_set)
    workloads.warm_up()

    ops = workloads.Ops()
    outputs = [[] for _ in units]
    if args.trace:
        metrics, counts_repeat, trace_info, tracer = measure_traced(
            wl, units, args.seconds, ops, outputs
        )
    else:
        timing = measure_untraced(
            wl, units, args.seconds, ops, outputs,
            lambda: measure_setup(args.workload, input_set),
        )
        metrics = {
            "wall_s": (timing["wall_s"], "s"),
            "setup_s": (timing["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    # --- correctness ---------------------------------------------------------
    first = [outs[0] if outs else None for outs in outputs]
    checks = dict(wl.checks(first, input_set))
    checks["repeats identical"] = all(
        all(o == outs[0] for o in outs) for outs in outputs if outs
    )
    if args.trace:
        checks["layer counts repeat"] = counts_repeat
    summary = wl.summary(first)
    reference = workloads.load_reference(args.workload, input_set)
    if reference is None:
        checks["reference recorded"] = False
        mismatches = []
    else:
        mismatches = workloads.reference_mismatches(summary, reference)
        checks["behaviour matches reference"] = not mismatches
    # Each run-level check counts as one operation, next to the program's own.
    attempted = ops.attempted + len(checks)
    failed = ops.failed + sum(not ok for ok in checks.values())
    correct = failed == 0 and ops.attempted > 0

    # --- report ----------------------------------------------------------------
    sizes = dict(wl.sizes)
    sizes["units_per_pass"] = len(units)
    print(f"workload {wl.name} seed {args.seed} (input set {input_set}) trace {args.trace}")
    print(f"sizes {json.dumps(sizes)}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "wall_s":
            note = f"  (sum of per-unit means at reference speed; {timing['unit_runs']} unit runs)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_PROBES} fresh interpreters at reference speed)"
        _print_metric(name, value, unit, note)
    if not args.trace:
        _print_metric("raw_wall_s", timing["raw_wall_s"], "s", "  (not rescaled)")
        _print_metric("raw_setup_s", timing["raw_setup_s"], "s", "  (not rescaled)")
    for name, value in sorted(summary.items()):
        _print_metric(name, value, "V", "  (median over the workload's seeds)")
    _print_metric("failed_frac", failed / attempted, "ratio", f"  ({failed}/{attempted})")
    for name, ok in checks.items():
        print(f"check {'PASS' if ok else 'FAIL'} {name}")
    if mismatches:
        print(f"reference mismatch: {', '.join(mismatches)}")
    if wl.name == "headline":
        print(f"info headline ordering holds: {_ordering(summary)}")
    for err in ops.errors:
        print(f"error {err}")

    result = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "input_set": input_set,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop, one client, single process, no added threads",
        "sizes": sizes,
        "environment": _environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "behaviour": summary,
        "reference": reference,
        "reference_tolerance_rel": workloads.REFERENCE_TOLERANCE,
        "checks": checks,
        "errors": ops.errors,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
    }
    if wl.name == "headline":
        result["ordering_holds"] = _ordering(summary)
    if wl.name == "pipeline":
        result["sha256"] = {out["file"]: out["sha256"] for out in first if out is not None}
        for name, digest in result["sha256"].items():
            print(f"sha256 {name} {digest}")
    if args.trace:
        result["trace_info"] = trace_info
    else:
        result["timing"] = timing
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        tracer.save(f"{stem}_spans.npz")
        trace_info["spans_file"] = f"{stem.name}_spans.npz"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(f"result file {stem.with_suffix('.json').relative_to(ROOT)}")

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


def _ordering(summary):
    if "mae.lm" not in summary or "mae.br" not in summary:
        return None
    return summary["mae.br"] < summary["mae.lm"] and summary["effort.br"] <= summary["effort.lm"]


if __name__ == "__main__":
    sys.exit(main())
