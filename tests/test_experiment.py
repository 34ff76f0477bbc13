import numpy as np
import pytest

from servoneuro.control import ReferenceProfile, analytic_inverse_controller, run_closed_loop
from servoneuro.experiment import (
    IoLog,
    StepExperimentConfig,
    build_inverse_dataset,
    load_iolog,
    run_step_experiment,
    save_iolog,
)
from servoneuro.plant import MotorParams, steady_state


@pytest.mark.parametrize(
    "u,y",
    [(np.zeros(10), np.zeros(9)), (np.zeros((10, 2)), np.zeros((10, 2)))],
    ids=["unequal-lengths", "two-dimensional"],
)
def test_iolog_shape_rejected(u, y):
    with pytest.raises(ValueError, match="u and y must be 1-D series of equal length"):
        IoLog(u, y)


class TestStepExperiment:
    def test_series_length(self, quiet):
        cfg = StepExperimentConfig(num_steps=3, dwell_samples=100, seed=0)
        log = run_step_experiment(quiet, cfg)
        assert len(log) == 300

    def test_amplitudes_within_operating_band(self, quiet):
        cfg = StepExperimentConfig(num_steps=25, dwell_samples=10, seed=1)
        log = run_step_experiment(quiet, cfg)
        assert np.all(log.u >= 2.5)
        assert np.all(log.u <= 6.5)

    def test_dwell_settles_to_steady_state(self, quiet):
        cfg = StepExperimentConfig(num_steps=5, dwell_samples=100, seed=2)
        log = run_step_experiment(quiet, cfg)
        for i in range(cfg.num_steps):
            last = (i + 1) * cfg.dwell_samples - 1
            target = steady_state(quiet, log.u[last])
            assert abs(log.y[last] - target) <= 0.01 * max(target, 1e-12)

    def test_deterministic_under_seed(self):
        params = MotorParams(noise_sigma=0.05)
        cfg = StepExperimentConfig(num_steps=4, dwell_samples=20, seed=7)
        a = run_step_experiment(params, cfg)
        b = run_step_experiment(params, cfg)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.y, b.y)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StepExperimentConfig(amplitude_min=6.5, amplitude_max=2.5)


class TestBuildInverseDataset:
    def test_pattern_count(self, quiet):
        cfg = StepExperimentConfig(num_steps=2, dwell_samples=10, seed=0)
        log = run_step_experiment(quiet, cfg)
        assert build_inverse_dataset(log).n_patterns == len(log) - 3

    def test_hand_indexed_pattern(self):
        # 6-sample log: first pattern is (y3, y2, y1, u1, u0) -> u2
        u = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        ds = build_inverse_dataset(IoLog(u, y))
        assert ds.n_patterns == 3
        assert np.array_equal(ds.inputs[0], [40.0, 30.0, 20.0, 2.0, 1.0])
        assert ds.targets[0, 0] == 3.0

    def test_patterns_read_y_one_sample_ahead_of_the_closed_loop(self):
        # the pattern for target u[k] holds y one sample ahead of the
        # regressor the closed loop gives u(k), and the u lags level with it
        params = MotorParams(noise_sigma=0.02)
        oracle, regressors = analytic_inverse_controller(params), []

        def recording(regressor):
            regressors.append(regressor)
            return oracle(regressor)

        profile = ReferenceProfile(((1.0, 20), (3.0, 20)))
        trace = run_closed_loop(params, recording, profile, seed=0)
        ds = build_inverse_dataset(IoLog(trace.u, trace.y))
        ks = np.arange(2, len(trace) - 1)
        expected = [[trace.y[k + 1], *regressors[k + 1][1:3], *regressors[k][3:5]] for k in ks]
        assert np.array_equal(ds.inputs, expected)
        assert np.array_equal(ds.targets[:, 0], trace.u[ks])

    def test_constant_settled_log_targets_constant(self, quiet):
        u = np.full(50, 4.5)
        y = np.full(50, steady_state(quiet, 4.5))
        ds = build_inverse_dataset(IoLog(u, y))
        assert np.all(ds.targets == 4.5)

    def test_too_short_log_rejected(self):
        with pytest.raises(ValueError):
            build_inverse_dataset(IoLog([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]))

    def test_scaled_inputs_in_unit_range(self, quiet):
        cfg = StepExperimentConfig(num_steps=5, dwell_samples=30, seed=3)
        ds = build_inverse_dataset(run_step_experiment(quiet, cfg))
        scaled = ds.scaled_inputs()
        assert scaled.min() >= -1.0 - 1e-12
        assert scaled.max() <= 1.0 + 1e-12


_U, _Y = [3.0, 3.5, 4.0, 4.5, 5.0], [0.5, 0.25, 0.125, 1.5, 2.5]
_ROWS = [f"{k},{u},{y}" for k, (u, y) in enumerate(zip(_U, _Y))]


def _text(header, rows, end="\n"):
    return end.join([header, *rows]) + end


# the text of an I/O log -> the (u, y) it loads as, or its error after the path
_IOLOG_SHAPES = {
    "any-column-order": (_text("y,extra,k,u", [f"{y},x,{k},{u}" for k, (u, y)
                                               in enumerate(zip(_U, _Y))]), (_U, _Y)),
    "repeated-name-reads-last": (_text("k,u,y,u", [f"{r},9.0" for r in _ROWS]),
                                 ([9.0] * 5, _Y)),
    "blank-lines": ("k,u,y\n\n" + "\n\n".join(_ROWS) + "\n\n", (_U, _Y)),
    "crlf": (_text("k,u,y", _ROWS, end="\r\n"), (_U, _Y)),
    # as spreadsheet tools export CSV
    "byte-order-mark": ("\ufeff" + _text("k,u,y", _ROWS), (_U, _Y)),
    "extra-field": (_text("k,u,y", [*_ROWS[:2], _ROWS[2] + ",7.0", *_ROWS[3:]]), (_U, _Y)),
    "quoted-newline": (_text("k,u,y", ['0,"3.0\n",0.5', *_ROWS[1:]]), (_U, _Y)),
    "short-row": (_text("k,u,y", [*_ROWS, "5,8.0"]),
                  "line 7: u and y must be finite numbers, got u='8.0', y=None"),
    "short-row-u-last": (_text("k,y,u", [*_ROWS, "5,8.0"]),
                         "line 7: u and y must be finite numbers, got u=None, y='8.0'"),
    "empty": ("", "expected CSV header with columns k,u,y"),
    "blank-first-line": ("\n" + _text("k,u,y", _ROWS), "expected CSV header with columns k,u,y"),
    "header-only": ("k,u,y\n", "log too short (0 samples, need at least 4)"),
}


class TestIoLogCsv:
    @pytest.mark.parametrize("case", sorted(_IOLOG_SHAPES))
    def test_accepted_and_rejected_shapes(self, tmp_path, case):
        text, expected = _IOLOG_SHAPES[case]
        path = tmp_path / "iolog.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc:
                load_iolog(path)
            assert str(exc.value) == f"{path}: {expected}"
            return
        log = load_iolog(path)
        assert np.array_equal(log.u, expected[0]) and np.array_equal(log.y, expected[1])

    def test_round_trip_exact(self, tmp_path):
        params = MotorParams(noise_sigma=0.02)
        cfg = StepExperimentConfig(num_steps=3, dwell_samples=15, seed=5)
        log = run_step_experiment(params, cfg)
        path = tmp_path / "iolog.csv"
        save_iolog(log, path)
        again = load_iolog(path)
        assert np.array_equal(log.u, again.u)
        assert np.array_equal(log.y, again.y)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ValueError):
            load_iolog(path)
