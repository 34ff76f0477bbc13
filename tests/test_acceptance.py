"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` to see them."""

import statistics
import time

import numpy as np

from servoneuro import mlp
from servoneuro import training as tr
from servoneuro.cli import main as cli_main
from servoneuro.control import (
    NeuralController,
    ReferenceProfile,
    analytic_inverse_controller,
    compute_indices,
    run_closed_loop,
    DEFAULT_PROFILE,
)
from servoneuro.experiment import StepExperimentConfig, build_inverse_dataset, run_step_experiment
from servoneuro.plant import MotorParams, make_state, static_map, steady_state, step


def report(criterion, passed):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


# Small plant used for the end-to-end comparison: the 0.02 V sensor noise is
# a meaningful fraction of the 0.8 V output span, which is where the
# generalization gap between the two trainers shows.
PIPELINE_PLANT = MotorParams(gain=0.2, tau=0.25, noise_sigma=0.02)
PIPELINE_EXPERIMENT = dict(num_steps=60, dwell_samples=30)
PIPELINE_EPOCHS = 150
PIPELINE_PROFILE = ReferenceProfile(((0.6, 120), (0.2, 120), (0.68, 120), (0.32, 120)))


def test_criterion_1_jacobian_matches_finite_differences():
    start = time.monotonic()
    worst = 0.0
    h = 1e-6
    for seed in range(100):
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(3, 11))
        net = mlp.init_weights([5, hidden, 1], ["tanh", "linear"], seed=seed, scale=0.8)
        X = rng.normal(size=(20, 5))
        D = rng.normal(size=(20, 1))
        J = mlp.error_jacobian(net, mlp.forward_layers(net, X))
        Jfd = np.zeros_like(J)
        w = net.weights
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            ep = (D - mlp.forward_batch(net.with_weights(wp), X)).ravel()
            em = (D - mlp.forward_batch(net.with_weights(wm), X)).ravel()
            Jfd[:, i] = (ep - em) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(J - Jfd) / (1.0 + np.abs(Jfd)))))
    elapsed = time.monotonic() - start
    report(
        f"1 Jacobian vs finite differences (worst {worst:.2e}, {elapsed:.1f}s)",
        worst < 1e-6 and elapsed < 10.0,
    )


def test_criterion_2_lm_contract():
    start = time.monotonic()
    monotone = True
    for seed in range(5):
        x = np.linspace(-np.pi, np.pi, 50)[:, None]
        ds = tr.Dataset.from_raw(x, np.sin(x))
        net = mlp.init_weights([1, 10, 1], ["tanh", "linear"], seed=seed, scale=0.5)
        _, rep = tr.train_lm(net, ds, tr.LmConfig(max_epochs=200))
        eds = [r.ed for r in rep.records]
        monotone &= all(b <= a for a, b in zip(eds, eds[1:]))
        if seed == 0:
            final_ed = eds[-1]
    elapsed = time.monotonic() - start
    report(
        f"2 LM contract (final E_D {final_ed:.2e}, monotone={monotone}, {elapsed:.1f}s)",
        monotone and final_ed < 1e-3 and elapsed < 30.0,
    )


def test_criterion_3_br_regularization_effect():
    ew_lm, ew_br = [], []
    gamma_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.linspace(-2, 2, 40)[:, None]
        d = x**2 + rng.normal(0.0, 0.1, x.shape)
        ds = tr.Dataset.from_raw(x, d)
        net = mlp.init_weights([1, 10, 1], ["tanh", "linear"], seed=seed, scale=0.5)
        _, rep_lm = tr.train_lm(net, ds, tr.LmConfig(max_epochs=100))
        _, rep_br = tr.train_br(net, ds, tr.BrConfig(lm=tr.LmConfig(max_epochs=100)))
        ew_lm.append(rep_lm.records[-1].ew)
        ew_br.append(rep_br.records[-1].ew)
        gamma_ok &= all(0.0 <= r.gamma <= net.n_weights for r in rep_br.records)
    med_lm, med_br = statistics.median(ew_lm), statistics.median(ew_br)
    report(
        f"3 BR shrinkage (median E_W: BR {med_br:.2f} vs LM {med_lm:.2f}, gamma ok={gamma_ok})",
        med_br < med_lm and gamma_ok,
    )


def test_criterion_4_early_stopping_contract():
    stopped = 0
    snapshot_ok = True
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = np.linspace(-np.pi, np.pi, 40)[:, None]
        d = np.sin(x) + rng.normal(0.0, 0.15, x.shape)
        ds = tr.Dataset.from_raw(x, d)
        net = mlp.init_weights([1, 15, 1], ["tanh", "linear"], seed=seed, scale=0.5)
        cfg = tr.EarlyStopConfig(lm=tr.LmConfig(max_epochs=150), patience=5, split_seed=seed)
        trained, rep = tr.train_early_stopping(net, ds, cfg)
        vals = [r.val_ed for r in rep.records]
        _, val_set = tr.split_dataset(ds, cfg.validation_fraction, cfg.split_seed)
        snapshot_ok &= tr.compute_ed(trained, val_set) <= vals[-1] + 1e-15
        if rep.stop_reason is tr.StopReason.EARLY_STOP:
            stopped += 1
    report(
        f"4 early stopping (snapshot ok={snapshot_ok}, stopped early {stopped}/10)",
        snapshot_ok and stopped >= 8,
    )


def test_criterion_5_harness_soundness():
    start = time.monotonic()
    params = MotorParams(noise_sigma=0.0)
    trace = run_closed_loop(params, analytic_inverse_controller(params), DEFAULT_PROFILE, seed=0)
    mae = compute_indices(trace).mean_abs_error
    settled = np.abs(trace.r[500:1000] - trace.y[500:1000]).max()
    elapsed = time.monotonic() - start
    report(
        f"5 harness soundness (oracle mae {mae:.4f} V, settled err {settled:.1e}, {elapsed:.1f}s)",
        mae < 0.01 and settled == 0.0 and elapsed < 5.0,
    )


def test_criterion_6_paper_headline_ordering():
    start = time.monotonic()
    maes = {"lm": [], "br": []}
    efforts = {"lm": [], "br": []}
    for seed in range(10):
        log = run_step_experiment(
            PIPELINE_PLANT, StepExperimentConfig(seed=seed, **PIPELINE_EXPERIMENT)
        )
        ds = build_inverse_dataset(log)
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=seed, scale=0.5)
        lm_net, _ = tr.train_lm(net, ds, tr.LmConfig(max_epochs=PIPELINE_EPOCHS))
        br_net, _ = tr.train_br(net, ds, tr.BrConfig(lm=tr.LmConfig(max_epochs=PIPELINE_EPOCHS)))
        for name, trained in (("lm", lm_net), ("br", br_net)):
            controller = NeuralController(trained, ds.input_scaling, ds.target_scaling)
            trace = run_closed_loop(PIPELINE_PLANT, controller, PIPELINE_PROFILE, seed + 1000)
            idx = compute_indices(trace)
            maes[name].append(idx.mean_abs_error)
            efforts[name].append(idx.control_effort)
    mae_lm, mae_br = statistics.median(maes["lm"]), statistics.median(maes["br"])
    eff_lm, eff_br = statistics.median(efforts["lm"]), statistics.median(efforts["br"])
    elapsed = time.monotonic() - start
    report(
        f"6 headline ordering (mae BR {mae_br:.4f} < LM {mae_lm:.4f}; "
        f"effort BR {eff_br:.4f} <= LM {eff_lm:.4f}; {elapsed:.0f}s)",
        mae_br < mae_lm and eff_br <= eff_lm and elapsed < 300.0,
    )


def test_criterion_7_compare_determinism(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.yaml"
    config.write_text(
        "experiment: {num_steps: 6, dwell_samples: 30, seed: 3}\n"
        "trainer: {algorithm: lm, max_epochs: 15}\n"
        "evaluation:\n"
        "  profile: [{level: 1.0, duration: 60}, {level: 3.0, duration: 60}]\n"
        "  seeds: [0, 1]\n"
        f"output_dir: {out}\n"
    )
    args = ["--config", str(config)]
    assert cli_main(args + ["collect"]) == 0
    assert cli_main(args + ["train"]) == 0
    net = out / "controller.net"
    twin = out / "twin.net"
    twin.write_bytes(net.read_bytes())
    assert cli_main(args + ["compare", str(net), str(twin)]) == 0
    first = (out / "comparison.csv").read_bytes()
    assert cli_main(args + ["compare", str(net), str(twin)]) == 0
    identical = (out / "comparison.csv").read_bytes() == first
    report(f"7 compare determinism (byte-identical={identical})", identical)


def test_criterion_8_plant_properties():
    params = MotorParams(noise_sigma=0.0)
    us = np.linspace(-1.0, 9.0, 500)
    vals = [static_map(params, u) for u in us]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    flat_below = all(static_map(params, u) == 0.0 for u in (-1.0, 0.0, 2.0, 2.5))
    flat_above = all(
        static_map(params, u) == static_map(params, 6.5) for u in (6.5, 7.0, 9.0)
    )
    step_ok = True
    for u in (3.0, 4.5, 6.0):
        state = make_state(seed=0)
        ys = []
        for _ in range(200):
            state, y = step(state, params, u)
            ys.append(y)
        target = steady_state(params, u)
        step_ok &= all(b >= a for a, b in zip(ys, ys[1:]))
        step_ok &= abs(ys[-1] - target) < 1e-6
    report(
        f"8 plant properties (monotone={monotone}, flat outside band="
        f"{flat_below and flat_above}, step ok={step_ok})",
        monotone and flat_below and flat_above and step_ok,
    )
