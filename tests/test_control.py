import os
import time
import warnings

import numpy as np
import pytest

from servoneuro import mlp
from servoneuro.control import (
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
    run_closed_loops,
    trace_to_csv,
)
from servoneuro.plant import MotorParams
from servoneuro.scaling import AffineScaling


@pytest.fixture
def quiet():
    return MotorParams(noise_sigma=0.0)


PROFILE = ReferenceProfile(((1.0, 100), (3.0, 100), (2.0, 100)))


def _keep(trace):
    return trace


def _nan_after(n_samples, controller):
    """`controller` until it has made n_samples outputs, NaN after that."""
    calls = [0]

    def control(regressor):
        calls[0] += 1
        return float("nan") if calls[0] > n_samples else controller(regressor)

    return control


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

    def test_overflowing_mean_is_a_divergence_without_warning(self):
        big = np.full(8, 1.0e308)
        trace = ClosedLoopTrace(np.zeros(8), big, np.full(8, 4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ControllerDivergedError, match="mean_abs_error = inf") as err:
                compute_indices(trace)
        assert err.value.trace is trace


class TestRunClosedLoops:
    def test_children_match_in_process_bit_for_bit(self, cpus):
        params = MotorParams(noise_sigma=0.05)
        wild = lambda reg: 100.0 * np.sin(reg[0] + reg[3])
        jobs = [(params, c, PROFILE, seed) for c in (analytic_inverse_controller(params), wild)
                for seed in range(3)]
        cpus(1)
        alone = run_closed_loops(jobs, _keep)
        cpus(3)
        forked = run_closed_loops(jobs, _keep)
        for a, b in zip(alone, forked, strict=True):
            for series in ("r", "y", "u"):
                assert getattr(a, series).tobytes() == getattr(b, series).tobytes()

    def test_jobs_dealt_round_robin_to_this_process_and_a_child_per_cpu(self, quiet, cpus):
        cpus(3)
        jobs = [(quiet, lambda reg: 4.0, PROFILE, seed) for seed in range(7)]
        pids = run_closed_loops(jobs, lambda trace: os.getpid())
        assert len(set(pids)) == 3 and pids[0] == os.getpid()
        assert all(pids[i] == pids[i % 3] for i in range(7))
        with pytest.raises(ChildProcessError):  # every child reaped
            os.waitpid(-1, os.WNOHANG)

    def test_divergence_returns_with_its_partial_trace(self, quiet, cpus):
        cpus(2)
        oracle = analytic_inverse_controller(quiet)
        jobs = [(quiet, oracle, PROFILE, 0), (quiet, _nan_after(10, oracle), PROFILE, 1)]
        trace, diverged = run_closed_loops(jobs, _keep)
        assert len(trace) == len(PROFILE)
        assert isinstance(diverged, ControllerDivergedError)
        assert str(diverged) == "controller output not finite at sample 10"
        assert len(diverged.trace) == 10

    def test_other_exception_in_a_child_reaches_the_caller(self, quiet, cpus):
        def bad(reg):
            raise ValueError("bad regressor")

        cpus(2)
        jobs = [(quiet, lambda reg: 4.0, PROFILE, 0), (quiet, bad, PROFILE, 1)]
        with pytest.raises(ValueError, match="bad regressor"):
            run_closed_loops(jobs, _keep)
        with pytest.raises(ChildProcessError):  # every child reaped
            os.waitpid(-1, os.WNOHANG)

    def test_exception_in_this_process_stops_the_children(self, quiet, cpus):
        def bad(reg):
            raise ValueError("bad regressor")

        def slow(reg, calls=[0]):
            calls[0] += 1
            if calls[0] == 1:
                time.sleep(20)
            return 4.0

        cpus(2)
        start = time.monotonic()
        with pytest.raises(ValueError, match="bad regressor"):
            run_closed_loops([(quiet, bad, PROFILE, 0), (quiet, slow, PROFILE, 1)], _keep)
        assert time.monotonic() - start < 10  # the child was killed, not awaited
        with pytest.raises(ChildProcessError):  # and reaped
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_exception_is_named(self, quiet, cpus):
        class NeedsTwo(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} {b}")

        def bad(reg):
            raise NeedsTwo("left", "right")

        cpus(2)
        jobs = [(quiet, lambda reg: 4.0, PROFILE, 0), (quiet, bad, PROFILE, 1)]
        with pytest.raises(ChildProcessError, match="NeedsTwo: left right"):
            run_closed_loops(jobs, _keep)

    def test_child_that_dies_is_an_error(self, quiet, cpus):
        parent = os.getpid()

        def die(reg):
            if os.getpid() == parent:  # never end the test process itself
                raise AssertionError("job ran in the parent")
            os._exit(7)

        cpus(2)
        jobs = [(quiet, lambda reg: 4.0, PROFILE, 0), (quiet, die, PROFILE, 1)]
        with pytest.raises(ChildProcessError, match="ended without its results"):
            run_closed_loops(jobs, _keep)


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

    def test_forked_report_equals_in_process(self, quiet, cpus):
        controllers = [("constant", lambda reg: 4.0),
                       ("oracle", analytic_inverse_controller(quiet))]
        reports = []
        for n in (1, 3):
            cpus(n)
            reports.append(compare_controllers(quiet, controllers, PROFILE, seeds=[0, 1, 2]))
        assert reports[0].rows == reports[1].rows
        assert reports[0].medians == reports[1].medians

    def test_overflowing_index_is_an_error_row(self, cpus):
        params = MotorParams(gain=1.0e307)
        cpus(2)
        report = compare_controllers(
            params, [("high", lambda reg: 7.0), ("low", lambda reg: 2.0)], PROFILE, seeds=[0, 1]
        )
        high = [r for r in report.rows if r.name == "high"]
        assert all("not finite" in r.error for r in high)
        assert report.medians["high"] == (float("inf"), float("inf"))
        assert report.ranking == ["low", "high"]

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
