import numpy as np
import pytest

from servoneuro import mlp
from servoneuro.control import (
    DEFAULT_PROFILE,
    ClosedLoopTrace,
    ControllerDivergedError,
    NeuralController,
    ReferenceProfile,
    U_MAX,
    U_MIN,
    analytic_inverse_controller,
    compare_controllers,
    compute_indices,
    run_closed_loop,
    trace_to_csv,
)
from servoneuro.plant import MotorParams
from servoneuro.scaling import AffineScaling


@pytest.fixture
def quiet():
    return MotorParams(noise_sigma=0.0)


PROFILE = ReferenceProfile(((1.0, 100), (3.0, 100), (2.0, 100)))


class TestReferenceProfile:
    def test_series_layout(self):
        prof = ReferenceProfile(((1.5, 3), (0.5, 2)))
        assert np.array_equal(prof.series(), [1.5, 1.5, 1.5, 0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReferenceProfile(())


class TestRunClosedLoop:
    def test_oracle_tracks_constant_reference_exactly(self, quiet):
        oracle = analytic_inverse_controller(quiet)
        prof = ReferenceProfile(((2.0, 200),))
        trace = run_closed_loop(quiet, oracle, prof, seed=0)
        # deadbeat inverse: exact from the first unclamped sample onward
        assert abs(trace.y[-1] - 2.0) < 1e-12
        assert np.all(np.abs(trace.y[50:] - 2.0) < 1e-9)

    def test_zero_reference_clamps_at_floor(self, quiet):
        oracle = analytic_inverse_controller(quiet)
        trace = run_closed_loop(quiet, oracle, ReferenceProfile(((0.0, 50),)), seed=0)
        assert np.all(trace.u == U_MIN)
        assert np.all(trace.y == 0.0)

    def test_trace_length_is_total_duration(self, quiet):
        trace = run_closed_loop(quiet, analytic_inverse_controller(quiet), PROFILE, seed=0)
        assert len(trace) == len(PROFILE) == 300

    def test_clamp_invariant(self):
        params = MotorParams(noise_sigma=0.05)
        wild = lambda reg: 100.0 * np.sin(reg[0] + reg[3])
        trace = run_closed_loop(params, wild, PROFILE, seed=3)
        assert np.all(trace.u >= U_MIN)
        assert np.all(trace.u <= U_MAX)

    def test_deterministic_under_seed(self):
        params = MotorParams(noise_sigma=0.05)
        oracle = analytic_inverse_controller(params)
        a = run_closed_loop(params, oracle, PROFILE, seed=9)
        b = run_closed_loop(params, oracle, PROFILE, seed=9)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.u, b.u)

    def test_non_finite_controller_aborts_with_partial_trace(self, quiet):
        def broken(reg, count=[0]):
            count[0] += 1
            return float("nan") if count[0] > 10 else 4.0

        with pytest.raises(ControllerDivergedError) as err:
            run_closed_loop(quiet, broken, PROFILE, seed=0)
        assert len(err.value.trace) == 10

    def test_neural_controller_width_checked(self):
        net = mlp.init_weights([3, 4, 1], ["tanh", "linear"], seed=0, scale=0.5)
        with pytest.raises(ValueError):
            NeuralController(
                net, AffineScaling(np.zeros(3), np.ones(3)), AffineScaling(np.zeros(1), np.ones(1))
            )


class TestComputeIndices:
    def test_perfect_tracking_gives_zero_error(self):
        y = np.linspace(0, 1, 10)
        trace = ClosedLoopTrace(y, y, np.full(10, 4.0))
        idx = compute_indices(trace)
        assert idx.mean_abs_error == 0.0
        assert idx.control_effort == 4.0

    def test_mean_abs_definitions(self):
        trace = ClosedLoopTrace(
            np.array([1.0, 1.0]), np.array([0.5, 1.5]), np.array([3.0, 5.0])
        )
        idx = compute_indices(trace)
        assert idx.mean_abs_error == 0.5
        assert idx.control_effort == 4.0

    def test_time_reversal_invariant(self):
        rng = np.random.default_rng(0)
        r, y, u = rng.normal(2, 1, 50), rng.normal(2, 1, 50), rng.uniform(2.5, 6.5, 50)
        fwd = compute_indices(ClosedLoopTrace(r, y, u))
        rev = compute_indices(ClosedLoopTrace(r[::-1], y[::-1], u[::-1]))
        # summation order flips, so allow float round-off
        assert fwd.mean_abs_error == pytest.approx(rev.mean_abs_error, rel=1e-12)
        assert fwd.control_effort == pytest.approx(rev.control_effort, rel=1e-12)


class TestCompareControllers:
    def test_identical_controllers_identical_rows(self, quiet):
        oracle = analytic_inverse_controller(quiet)
        report = compare_controllers(
            quiet, [("a", oracle), ("b", oracle)], PROFILE, seeds=[0, 1]
        )
        rows_a = [(r.seed, r.mean_abs_error, r.control_effort) for r in report.rows if r.name == "a"]
        rows_b = [(r.seed, r.mean_abs_error, r.control_effort) for r in report.rows if r.name == "b"]
        assert rows_a == rows_b

    def test_oracle_beats_constant_controller(self, quiet):
        oracle = analytic_inverse_controller(quiet)
        constant = lambda reg: 4.0
        report = compare_controllers(
            quiet, [("constant", constant), ("oracle", oracle)], PROFILE, seeds=[0, 1, 2]
        )
        assert report.ranking[0] == "oracle"

    def test_failure_isolated_per_controller(self, quiet):
        oracle = analytic_inverse_controller(quiet)
        broken = lambda reg: float("nan")
        report = compare_controllers(
            quiet, [("broken", broken), ("oracle", oracle)], PROFILE, seeds=[0]
        )
        broken_rows = [r for r in report.rows if r.name == "broken"]
        assert broken_rows[0].error is not None
        assert report.ranking[0] == "oracle"

    def test_needs_two_controllers(self, quiet):
        with pytest.raises(ValueError):
            compare_controllers(quiet, [("only", lambda r: 4.0)], PROFILE, seeds=[0])


class TestCsvExports:
    def test_trace_csv_columns(self, quiet, tmp_path):
        trace = run_closed_loop(quiet, analytic_inverse_controller(quiet), PROFILE, seed=0)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,r,y,u"
        assert len(lines) == len(trace) + 1

    def test_comparison_csv_row_count(self, quiet, tmp_path):
        oracle = analytic_inverse_controller(quiet)
        report = compare_controllers(
            quiet, [("a", oracle), ("b", oracle)], PROFILE, seeds=[0, 1, 2]
        )
        path = tmp_path / "cmp.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3


class TestHarnessSoundness:
    def test_oracle_error_decays_geometrically_in_band(self, quiet):
        # reachable band transitions, no clamping: one-sample deadbeat
        oracle = analytic_inverse_controller(quiet)
        prof = ReferenceProfile(((1.0, 50), (1.2, 50)))
        trace = run_closed_loop(quiet, oracle, prof, seed=0)
        err = np.abs(trace.r - trace.y)
        assert np.all(err[60:] < 1e-12)
