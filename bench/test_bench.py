"""Self-checks of the benchmark itself: python3 -m pytest bench -q"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, lambda_trials  # noqa: E402


def test_lambda_trials_from_report_column():
    lam0, inc, dec = 1e-3, 10.0, 0.1
    rejections = [0, 2, 0, 1, 3]
    lambdas, lam = [], lam0
    for r in rejections:
        lam = lam * inc**r * dec
        lambdas.append(lam)
    assert lambda_trials(lambdas, lam0, inc, dec) == sum(rejections) + len(rejections)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return sum(range(x))

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_self_time_is_duration_minus_children(fake_module):
    tracer = Tracer()
    targets = (("fake.outer", "fake_layers", "outer"), ("fake.inner", "fake_layers", "inner"))
    with tracer.installed(targets):
        fake_module.outer(20000)
    assert tracer.count["fake.outer"] == 1 and tracer.count["fake.inner"] == 2
    assert tracer.self_time["fake.outer"] == pytest.approx(
        tracer.total["fake.outer"] - tracer.total["fake.inner"], abs=1e-9
    )
    assert tracer.module_cover["fake"] == pytest.approx(tracer.total["fake.outer"])
    spans = list(zip(tracer.name_id, tracer.span_id, tracer.parent_id))
    (outer_id,) = [sid for nid, sid, _ in spans if tracer.names[nid] == "fake.outer"]
    assert sorted(pid for _, _, pid in spans) == [-1, outer_id, outer_id]


def test_originals_restored_and_absent_targets_reported(fake_module):
    original = fake_module.outer
    tracer = Tracer()
    targets = (
        ("fake.outer", "fake_layers", "outer"),
        ("fake.gone", "fake_layers", "renamed_away"),
        ("missing.mod", "no_such_module_anywhere", "f"),
    )
    with tracer.installed(targets):
        assert fake_module.outer is not original
        fake_module.outer(10)
    assert fake_module.outer is original
    assert tracer.absent_spans == ["fake.gone", "missing.mod"]
    assert tracer.absent_targets == ["fake_layers.renamed_away", "no_such_module_anywhere.f"]


def test_removed_layer_is_absent_not_a_crash(monkeypatch):
    import servoneuro.training

    monkeypatch.delattr(servoneuro.training, "error_jacobian")
    tracer = Tracer()
    with tracer.installed():
        pass
    metrics = layers.layer_metrics(tracer, 1.0)
    assert "mlp.error_jacobian.calls" in layers.absent_metrics(tracer)
    assert "mlp.error_jacobian.calls" not in metrics
    assert "training.lm.epochs" in metrics


def _traced_counts(wl, units):
    tracer = Tracer()
    outputs = [[] for _ in units]
    with tracer.installed():
        wall = sum(run.run_pass(wl, units, workloads.Ops(), tracer, outputs))
    metrics = layers.layer_metrics(tracer, wall)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}, outputs


@pytest.mark.parametrize("name", ["headline", "pipeline"])
def test_counts_repeat_exactly_on_one_seed(name, monkeypatch):
    monkeypatch.chdir(BENCH.parent)
    wl = workloads.WORKLOADS[name]
    units = wl.prepare(7)
    if name == "headline":
        units = units[:1]  # one data seed
    first, out1 = _traced_counts(wl, units)
    second, out2 = _traced_counts(wl, units)
    assert first == second
    assert out1 == out2
    assert first["control.samples"] > 0 and first["mlp.error_jacobian.calls"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u) for n, u, _, _ in layers.METRICS] + layers.RUN_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_reference_covers_every_input_set():
    table = json.loads(workloads.REFERENCE.read_text())
    for name in workloads.WORKLOADS:
        assert sorted(map(int, table[name])) == list(range(workloads.INPUT_SETS))


def test_fails_without_program_sources(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in BENCH.glob("*.py"):
        (bench_copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
