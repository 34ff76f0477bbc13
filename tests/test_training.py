import statistics
import tracemalloc

import numpy as np
import pytest

from servoneuro import mlp
from servoneuro import training as tr
from servoneuro.experiment import StepExperimentConfig, build_inverse_dataset, run_step_experiment
from servoneuro.mlp import ActivationKind, MlpNetwork
from servoneuro.plant import MotorParams
from servoneuro.scaling import AffineScaling
from servoneuro.training import (
    BrConfig,
    Dataset,
    EarlyStopConfig,
    LmConfig,
    StopReason,
    compute_ed,
    split_dataset,
    train_br,
    train_early_stopping,
    train_lm,
)


def unit_scaling(width):
    return AffineScaling(np.zeros(width), np.ones(width))


def identity_dataset(inputs, targets):
    inputs, targets = np.atleast_2d(inputs), np.atleast_2d(targets)
    return Dataset(inputs, targets, unit_scaling(inputs.shape[1]), unit_scaling(targets.shape[1]))


def sine_dataset(noise=0.0, n=50, seed=0):
    x = np.linspace(-np.pi, np.pi, n)[:, None]
    d = np.sin(x)
    if noise > 0:
        d = d + np.random.default_rng(seed).normal(0.0, noise, d.shape)
    return Dataset.from_raw(x, d)


class TestErrorFunctionals:
    def test_ed_zero_for_perfect_fit(self):
        net = MlpNetwork((1, 1), (ActivationKind.LINEAR,), np.array([1.0, 0.0]))
        ds = identity_dataset([[2.0]], [[2.0]])
        assert compute_ed(net, ds) == 0.0

    def test_ed_single_pattern(self):
        # d=1, y=0 -> (1/2)(1)^2 = 0.5
        net = MlpNetwork((1, 1), (ActivationKind.LINEAR,), np.array([0.0, 0.0]))
        ds = identity_dataset([[5.0]], [[1.0]])
        assert compute_ed(net, ds) == 0.5

    def test_ed_two_patterns(self):
        # errors {1, -1} -> (1/4)(1 + 1) = 0.5
        net = MlpNetwork((1, 1), (ActivationKind.LINEAR,), np.array([0.0, 0.0]))
        ds = identity_dataset([[0.0], [0.0]], [[1.0], [-1.0]])
        assert compute_ed(net, ds) == 0.5

    @pytest.mark.parametrize("algorithm", ["lm", "br", "early_stop"])
    def test_ew_is_squared_norm_of_returned_weights(self, algorithm):
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        lm = LmConfig(max_epochs=10)
        train, cfg = {
            "lm": (train_lm, lm),
            "br": (train_br, BrConfig(lm=lm)),
            "early_stop": (train_early_stopping, EarlyStopConfig(lm=lm)),
        }[algorithm]
        trained, report = train(net, ds, cfg)
        rec = report.records[-1]
        if algorithm == "early_stop":  # the snapshot is the first best-validation epoch
            rec = min(report.records, key=lambda r: r.val_ed)
        w = trained.weights
        assert rec.ew == w @ w

    @pytest.mark.parametrize("algorithm", ["lm", "br", "early_stop"])
    def test_one_jacobian_per_epoch_into_one_buffer(self, algorithm, monkeypatch):
        # the bench traces error_jacobian through this module global
        calls = []

        def spy(net, activations, out):
            # the reused activations are those of the weights J is taken at
            assert np.array_equal(activations[-1], mlp.forward_batch(net, activations[0]))
            calls.append(out)
            return mlp.error_jacobian(net, activations, out)

        monkeypatch.setattr(tr, "error_jacobian", spy)
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        lm = LmConfig(max_epochs=12)
        train, cfg = {
            "lm": (train_lm, lm),
            "br": (train_br, BrConfig(lm=lm)),
            "early_stop": (train_early_stopping, EarlyStopConfig(lm=lm, patience=2)),
        }[algorithm]
        _, report = train(net, ds, cfg)
        assert report.stop_reason is not StopReason.LAMBDA_OVERFLOW
        assert len(calls) == len(report.records) > 1
        # one J' buffer for the whole run
        out, *rest = calls
        assert out.shape[0] == net.n_weights and out.flags.c_contiguous
        assert all(o is out for o in rest)

    def test_the_only_full_size_jacobian_buffer_is_j_transposed(self):
        # J'e comes from J' through a P x 16 scratch, so a run holds one P x N
        # Jacobian and peaks near 2.0x its size; a pattern-major J beside J'
        # took it to 2.8x
        rng = np.random.default_rng(0)
        P = 4000
        ds = Dataset.from_raw(rng.normal(size=(P, 5)), rng.normal(size=(P, 1)))
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=0.5)
        tracemalloc.start()
        try:
            train_lm(net, ds, LmConfig(max_epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * P * net.n_weights * 8

    @pytest.mark.parametrize("train,cfg", [(train_lm, LmConfig(max_epochs=5)),
                                           (train_br, BrConfig(lm=LmConfig(max_epochs=5)))])
    def test_an_epoch_holds_one_activation_set(self, train, cfg):
        # J' (N), the J'e scratch (w), the patterns (6), one activation set
        # with its residual (h + 2), one h x P transposed copy for the tanh
        # slope (h) and the N x N systems: 120 doubles a pattern at h = 10.
        # The accepted network's activations kept through the lambda trials,
        # and the slope formed in two new arrays, took it to 138.
        ds = build_inverse_dataset(run_step_experiment(MotorParams(), StepExperimentConfig()))
        net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=0.5)
        P, N, h = ds.n_patterns, net.n_weights, net.layer_sizes[1]
        _, blocks = tr._jte_buffers(np.empty((N, 1)))
        w = max(scratch.shape[1] for _, scratch, _ in blocks)
        tracemalloc.start()
        try:
            train(net, ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * P * (N + w + 3 * h + 8)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1e-12), (1e-12, 1.0), (2.0, 3.0)])
    def test_er_of_one_br_epoch(self, alpha, beta):
        # E_R = alpha*sum(e^2)/2 + beta*E_W; epoch 1 keeps the initial strengths
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        cfg = BrConfig(lm=LmConfig(max_epochs=1), alpha_init=alpha, beta_init=beta)
        trained, report = train_br(net, ds, cfg)
        (rec,) = report.records
        assert (rec.alpha, rec.beta) == (alpha, beta)
        e = (ds.scaled_targets() - mlp.forward_batch(trained, ds.scaled_inputs())).ravel()
        assert rec.er == rec.alpha * (e @ e) / 2 + rec.beta * rec.ew


class TestLmStep:
    @staticmethod
    def lm_system(net, ds, lam):
        """The damped system train_lm solves in its first epoch."""
        X, D = ds.scaled_inputs(), ds.scaled_targets()
        # pattern-major, whose J.T @ e the driver's blocked J'e matches: it rounds by layout
        J = np.ascontiguousarray(mlp.error_jacobian(net, mlp.forward_layers(net, X)))
        e = (D - mlp.forward_batch(net, X)).ravel()
        scale = 1.0 / ds.n_patterns
        H, G = tr._hessian(J.T @ J, scale, 0.0), scale * (J.T @ e)
        return H, G, tr._solve_step(H, G, lam)

    def test_one_weight_hand_algebra(self):
        # x=1, d=1, w=0: J=[-1], H=1, G=-1, so the undamped step lands at w=1
        J, e = np.array([[-1.0]]), np.array([1.0])
        H, G = tr._hessian(J.T @ J, 1.0, 0.0), J.T @ e
        assert H[0, 0] == 1.0
        assert G[0] == -1.0
        assert tr._solve_step(H, G, 0.0)[0] == 1.0
        # weight decay adds 2*beta on the diagonal only
        H = tr._hessian(np.array([[1.0, 2.0], [2.0, 4.0]]), 0.5, 1.5)
        assert np.array_equal(H, [[3.5, 1.0], [1.0, 5.0]])

    def test_newton_solves_linear_problem_in_one_step(self):
        net = MlpNetwork((1, 1), (ActivationKind.LINEAR,), np.array([0.0, 0.0]))
        ds = identity_dataset([[1.0], [2.0]], [[1.0], [2.0]])
        # the model is linear in (w, b), so one barely damped epoch is exact
        trained, report = train_lm(net, ds, LmConfig(lambda_init=1e-12, max_epochs=1))
        assert report.records[0].ed == pytest.approx(0.0, abs=1e-12)
        assert mlp.forward(trained, [1.0]) == pytest.approx(1.0)
        assert mlp.forward(trained, [2.0]) == pytest.approx(2.0)

    def test_singular_system_signals_step_failure(self):
        # one pattern, two parameters, no damping: rank-deficient normal matrix
        net = MlpNetwork((1, 1), (ActivationKind.LINEAR,), np.array([0.0, 0.0]))
        ds = identity_dataset([[1.0]], [[1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            self.lm_system(net, ds, lam=0.0)

    def test_non_finite_step_signals_step_failure(self):
        # finite inputs whose solve overflows: -1e308 / 1e-30
        with pytest.raises(np.linalg.LinAlgError, match="non-finite step"):
            tr._solve_step(np.eye(3) * 1e-300, np.array([1e308, 1.0, 1.0]), 1e-30)

    def test_non_finite_step_is_a_rejected_trial(self, monkeypatch):
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        lm = LmConfig(max_epochs=5)
        raised = LmConfig(max_epochs=5, lambda_init=lm.lambda_init * lm.lambda_increase)
        expected_net, expected = train_lm(net, ds, raised)
        real_solve = np.linalg.solve
        systems = []

        def solve_overflowing_once(a, b):
            systems.append(a)
            if len(systems) == 1:  # the overflow above, at this net's size
                n = b.shape[0]
                return real_solve(np.eye(n) * 1e-300, np.full(n, 1e308))
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_overflowing_once)
        trained, report = train_lm(net, ds, lm)
        # the inf step was not taken: the same system was retried at the next
        # lambda, and the run went on as if started there
        step_up = lm.lambda_init * (lm.lambda_increase - 1.0)
        assert np.allclose(systems[1] - systems[0], step_up * np.eye(net.n_weights))
        assert np.array_equal(trained.weights, expected_net.weights)
        assert [r.lam for r in report.records] == [r.lam for r in expected.records]

    def test_step_norm_shrinks_with_lambda(self):
        net = mlp.init_weights([2, 4, 1], ["tanh", "linear"], seed=0, scale=0.5)
        rng = np.random.default_rng(1)
        ds = identity_dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)))
        norms = [np.linalg.norm(self.lm_system(net, ds, lam)[2]) for lam in (1e-3, 1.0, 1e3, 1e6)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_beta_zero_matches_plain_lm_on_ed(self):
        net = mlp.init_weights([2, 4, 1], ["tanh", "linear"], seed=3, scale=0.5)
        rng = np.random.default_rng(4)
        ds = identity_dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 1)))
        delta_damped = self.lm_system(net, ds, lam=0.1)[2]
        assert not np.array_equal(delta_damped, self.lm_system(net, ds, lam=1.0)[2])
        # one accepted train_lm epoch takes exactly the damped step on E_D
        trained, report = train_lm(net, ds, LmConfig(lambda_init=0.1, max_epochs=1))
        assert np.array_equal(trained.weights, net.weights + delta_damped)
        assert compute_ed(trained, ds) < compute_ed(net, ds)

    def test_gradient_consistency_with_finite_differences(self):
        # G at beta=0 must be the finite-difference gradient of E_D
        net = mlp.init_weights([3, 5, 1], ["tanh", "linear"], seed=5, scale=0.5)
        rng = np.random.default_rng(6)
        ds = identity_dataset(rng.normal(size=(12, 3)), rng.normal(size=(12, 1)))
        _, G, _ = self.lm_system(net, ds, lam=1.0)
        h = 1e-6
        for i in range(0, net.n_weights, 7):
            wp, wm = net.weights.copy(), net.weights.copy()
            wp[i] += h
            wm[i] -= h
            fd = (compute_ed(net.with_weights(wp), ds) - compute_ed(net.with_weights(wm), ds)) / (2 * h)
            assert abs(G[i] - fd) / (1.0 + abs(fd)) < 1e-6


class TestTrainLm:
    def test_sine_regression_converges(self):
        net = mlp.init_weights([1, 10, 1], ["tanh", "linear"], seed=0, scale=0.5)
        trained, report = train_lm(net, sine_dataset(), LmConfig(max_epochs=200))
        assert report.records[-1].ed < 1e-3

    def test_huge_goal_stops_first_epoch(self):
        net = mlp.init_weights([1, 5, 1], ["tanh", "linear"], seed=0, scale=0.5)
        _, report = train_lm(net, sine_dataset(), LmConfig(max_epochs=50, goal_ed=1e12))
        assert report.stop_reason is StopReason.GOAL_REACHED
        assert len(report.records) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_accepted_ed_non_increasing(self, seed):
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=seed, scale=0.5)
        _, report = train_lm(net, sine_dataset(noise=0.1, seed=seed), LmConfig(max_epochs=30))
        eds = [r.ed for r in report.records]
        assert all(b <= a for a, b in zip(eds, eds[1:]))

    def test_deterministic_reports(self):
        ds = sine_dataset(noise=0.05)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=1, scale=0.5)
        net_a, a = train_lm(net, ds, LmConfig(max_epochs=20))
        net_b, b = train_lm(net, ds, LmConfig(max_epochs=20))
        assert a.stop_reason == b.stop_reason
        assert np.array_equal(net_a.weights, net_b.weights)
        assert [(r.ed, r.ew, r.lam) for r in a.records] == [(r.ed, r.ew, r.lam) for r in b.records]

    def test_does_not_mutate_input_network(self):
        ds = sine_dataset()
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=1, scale=0.5)
        before = net.weights.copy()
        train_lm(net, ds, LmConfig(max_epochs=5))
        assert np.array_equal(net.weights, before)

    def test_lambda_overflow_returns_the_last_accepted_epoch(self):
        # with lambda_max 1e-3 the second epoch's trials at 1e-4 and 1e-3 are
        # both rejected, so the run ends on the first epoch's network
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        trained, report = train_lm(net, ds, LmConfig(lambda_max=1e-3))
        one_net, one = train_lm(net, ds, LmConfig(lambda_max=1e-3, max_epochs=1))
        assert report.stop_reason is StopReason.LAMBDA_OVERFLOW
        assert one.stop_reason is StopReason.MAX_EPOCHS
        assert np.array_equal(trained.weights, one_net.weights)
        assert report.records == one.records


class TestTrainBr:
    def test_shrinks_weights_on_noisy_data(self):
        # over-parameterized quadratic fit with noisy targets
        ew_lm, ew_br = [], []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = np.linspace(-2, 2, 40)[:, None]
            d = x**2 + rng.normal(0.0, 0.1, x.shape)
            ds = Dataset.from_raw(x, d)
            net = mlp.init_weights([1, 10, 1], ["tanh", "linear"], seed=seed, scale=0.5)
            _, rep_lm = train_lm(net, ds, LmConfig(max_epochs=100))
            _, rep_br = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=100)))
            ew_lm.append(rep_lm.records[-1].ew)
            ew_br.append(rep_br.records[-1].ew)
        assert statistics.median(ew_br) < statistics.median(ew_lm)

    @pytest.mark.parametrize("seed", range(3))
    def test_gamma_stays_in_range(self, seed):
        ds = sine_dataset(noise=0.1, seed=seed)
        net = mlp.init_weights([1, 10, 1], ["tanh", "linear"], seed=seed, scale=0.5)
        _, report = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=40)))
        for rec in report.records:
            assert 0.0 <= rec.gamma <= net.n_weights

    def test_records_carry_hyperparameters(self):
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        _, report = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=10)))
        assert all(r.alpha is not None and r.beta is not None for r in report.records)

    def test_deterministic(self):
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        a, _ = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=15)))
        b, _ = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=15)))
        assert np.array_equal(a.weights, b.weights)

    def test_gamma_inverse_failure_is_a_failed_lambda_trial(self, monkeypatch):
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        lm = LmConfig(max_epochs=5)
        raised = LmConfig(max_epochs=5, lambda_init=lm.lambda_init * lm.lambda_increase)
        expected_net, expected = train_br(net, ds, BrConfig(lm=raised))
        real_inv = np.linalg.inv
        calls = []

        def inv_failing_once(a):
            calls.append(a)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", inv_failing_once)
        trained, report = train_br(net, ds, BrConfig(lm=lm))
        # the failed trial raised lambda once, then the run went on as if started there
        assert np.array_equal(trained.weights, expected_net.weights)
        assert [(r.lam, r.gamma) for r in report.records] == [
            (r.lam, r.gamma) for r in expected.records
        ]

    def test_gamma_inverse_always_failing_overflows_lambda(self, monkeypatch):
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        calls = []

        def broken_inv(a):
            calls.append(a)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", broken_inv)
        _, report = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=5)))
        assert report.stop_reason is StopReason.LAMBDA_OVERFLOW
        assert report.records == []
        assert len(calls) > 1  # retried at growing lambda before giving up

    def test_clipped_hyperparameters_stay_python_floats(self, monkeypatch, tmp_path):
        # with the upper clip at 1.0, alpha and beta (about 5.5 and 156-209
        # unclipped) both clip from epoch 2; three epochs, since on some BLAS
        # kernels the fourth ends in a lambda overflow
        monkeypatch.setattr(tr, "_HYPER_HI", 1.0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 5))
        ds = Dataset.from_raw(x, x @ np.arange(1.0, 6.0)[:, None])
        net = mlp.init_weights([5, 3, 1], ["tanh", "linear"], seed=0, scale=0.0)
        _, report = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=3)))
        assert len(report.records) == 3
        for rec in report.records:
            assert all(type(v) is float for v in (rec.alpha, rec.beta, rec.gamma))
        assert [(r.alpha, r.beta) for r in report.records[1:]] == [(1.0, 1.0)] * 2
        path = tmp_path / "train_report.csv"
        report.to_csv(path)
        for line in path.read_text().splitlines()[2:]:
            assert line.split(",")[5:7] == ["1.0", "1.0"]

    def test_tiny_linear_evidence_fixed_point(self):
        # Single linear weight, no bias possible with this net shape, so use
        # a brute-force check of the re-estimation identities instead:
        # after convergence gamma ~ N - 2*beta*tr(inv(H)) must be consistent
        # with beta = gamma/(2 E_W) and alpha = (P - gamma)/(2 E_D_sum).
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 1))
        d = 0.8 * x + rng.normal(0.0, 0.2, x.shape)
        ds = identity_dataset(x, d)
        net = MlpNetwork((1, 1), (ActivationKind.LINEAR,), np.array([0.0, 0.0]))
        trained, report = train_br(net, ds, BrConfig(lm=LmConfig(max_epochs=200)))
        rec = report.records[-1]
        w = trained.weights
        eww = float(w @ w)
        e = (ds.targets - mlp.forward_batch(trained, ds.inputs)).ravel()
        eds = 0.5 * float(e @ e)
        assert rec.beta == pytest.approx(rec.gamma / (2 * eww), rel=0.15)
        assert rec.alpha == pytest.approx((ds.n_patterns - rec.gamma) / (2 * eds), rel=0.15)


class TestEarlyStopping:
    def noisy_overparam(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = np.linspace(-np.pi, np.pi, 40)[:, None]
        d = np.sin(x) + rng.normal(0.0, 0.15, x.shape)
        return Dataset.from_raw(x, d)

    def test_returned_snapshot_beats_final_epoch(self):
        for seed in range(5):
            ds = self.noisy_overparam(seed)
            net = mlp.init_weights([1, 15, 1], ["tanh", "linear"], seed=seed, scale=0.5)
            cfg = EarlyStopConfig(lm=LmConfig(max_epochs=80), patience=5, split_seed=seed)
            trained, report = train_early_stopping(net, ds, cfg)
            _, val = split_dataset(ds, cfg.validation_fraction, cfg.split_seed)
            returned = compute_ed(trained, val)
            vals = [r.val_ed for r in report.records]
            assert returned == pytest.approx(min(vals), rel=1e-9)
            assert returned <= vals[-1] + 1e-15

    def test_stops_before_max_epochs_most_seeds(self):
        stopped = 0
        for seed in range(10):
            ds = self.noisy_overparam(seed)
            net = mlp.init_weights([1, 15, 1], ["tanh", "linear"], seed=seed, scale=0.5)
            cfg = EarlyStopConfig(lm=LmConfig(max_epochs=150), patience=5, split_seed=seed)
            _, report = train_early_stopping(net, ds, cfg)
            if report.stop_reason is StopReason.EARLY_STOP:
                stopped += 1
        assert stopped >= 8

    def test_lambda_overflow_returns_the_best_snapshot(self):
        # validation E_D rises on epoch 2, then the third epoch overflows lambda
        ds = sine_dataset(noise=0.1, seed=2)
        net = mlp.init_weights([1, 10, 1], ["tanh", "linear"], seed=2, scale=0.5)
        cfg = EarlyStopConfig(lm=LmConfig(lambda_max=1e-2, lambda_decrease=0.5))
        trained, report = train_early_stopping(net, ds, cfg)
        _, val = split_dataset(ds, cfg.validation_fraction, cfg.split_seed)
        vals = [r.val_ed for r in report.records]
        assert report.stop_reason is StopReason.LAMBDA_OVERFLOW
        assert len(vals) == 2 and vals[0] < vals[1]
        assert compute_ed(trained, val) == min(vals)

    def test_goal_wins_over_an_early_stop_on_the_same_epoch(self):
        ds = sine_dataset(noise=0.1)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        cfg = EarlyStopConfig(patience=1, lm=LmConfig(max_epochs=60))
        stopped, report = train_early_stopping(net, ds, cfg)
        assert report.stop_reason is StopReason.EARLY_STOP
        assert len(report.records) == 13
        goal = EarlyStopConfig(patience=1, lm=LmConfig(max_epochs=60, goal_ed=report.records[-1].ed))
        reached, goal_report = train_early_stopping(net, ds, goal)
        assert goal_report.stop_reason is StopReason.GOAL_REACHED
        assert goal_report.records == report.records
        assert np.array_equal(reached.weights, stopped.weights)

    def test_huge_patience_matches_train_lm_trace(self):
        ds = self.noisy_overparam(0)
        net = mlp.init_weights([1, 8, 1], ["tanh", "linear"], seed=0, scale=0.5)
        cfg = EarlyStopConfig(lm=LmConfig(max_epochs=30), patience=10**9, split_seed=0)
        _, report_es = train_early_stopping(net, ds, cfg)
        train_split, _ = split_dataset(ds, cfg.validation_fraction, cfg.split_seed)
        _, report_lm = train_lm(net, train_split, cfg.lm)
        assert report_es.stop_reason is StopReason.MAX_EPOCHS
        assert [r.ed for r in report_es.records] == [r.ed for r in report_lm.records]


class TestSplitDataset:
    def make(self, n=10):
        rng = np.random.default_rng(0)
        return Dataset.from_raw(rng.normal(size=(n, 2)), rng.normal(size=(n, 1)))

    def test_half_split_sizes(self):
        kept, held = split_dataset(self.make(10), 0.5, seed=0)
        assert kept.n_patterns == 5
        assert held.n_patterns == 5

    def test_same_seed_same_split(self):
        ds = self.make(20)
        a1, b1 = split_dataset(ds, 0.3, seed=4)
        a2, b2 = split_dataset(ds, 0.3, seed=4)
        assert np.array_equal(a1.inputs, a2.inputs)
        assert np.array_equal(b1.inputs, b2.inputs)

    def test_union_is_original_multiset(self):
        ds = self.make(11)
        kept, held = split_dataset(ds, 0.4, seed=1)
        union = np.vstack([kept.inputs, held.inputs])
        original = ds.inputs
        order_u = np.lexsort(union.T)
        order_o = np.lexsort(original.T)
        assert np.allclose(union[order_u], original[order_o])

    def test_scaling_shared(self):
        ds = self.make(10)
        kept, held = split_dataset(ds, 0.5, seed=0)
        assert kept.input_scaling == ds.input_scaling
        assert held.target_scaling == ds.target_scaling

    def test_degenerate_fraction_rejected(self):
        ds = self.make(3)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.01, seed=0)


# The shape rules of a dataset and the fraction rule of a split.
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Dataset(np.zeros((3, 2)), np.zeros((2, 1)), unit_scaling(2), unit_scaling(1)),
         "pattern count"),
        (lambda: Dataset(np.zeros((0, 2)), np.zeros((0, 1)), unit_scaling(2), unit_scaling(1)),
         "at least one pattern"),
        (lambda: Dataset(np.zeros((3, 2)), np.zeros((3, 1)), unit_scaling(3), unit_scaling(1)),
         "input scaling width"),
        (lambda: Dataset(np.zeros((3, 2)), np.zeros((3, 1)), unit_scaling(2), unit_scaling(2)),
         "target scaling width"),
        (lambda: split_dataset(identity_dataset(np.zeros((4, 2)), np.zeros((4, 1))), 0.0, 0),
         r"fraction must be in \(0, 1\)"),
        (lambda: split_dataset(identity_dataset(np.zeros((4, 2)), np.zeros((4, 1))), 1.0, 0),
         r"fraction must be in \(0, 1\)"),
    ],
    ids=["pattern-count", "empty", "input-width", "target-width", "fraction-0", "fraction-1"],
)
def test_invalid_dataset_or_split_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestReportCsv:
    def test_columns_and_blanks(self, tmp_path):
        ds = sine_dataset(noise=0.05)
        net = mlp.init_weights([1, 6, 1], ["tanh", "linear"], seed=0, scale=0.5)
        _, report = train_lm(net, ds, LmConfig(max_epochs=5))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,E_D,E_W,E_R,lambda,alpha,beta,gamma,val_ED"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[5] == "" and first[8] == ""  # no alpha, no val for plain LM
        assert float(first[1]) == report.records[0].ed
