import ast
import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servoneuro import control as ctl
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
from servoneuro.plant import MotorParams, make_state, step
from servoneuro.scaling import AffineScaling


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

    def test_library_callers_get_the_step_checks(self):
        for steps, field in [(((1.0, 2.5),), "step 0 duration"),
                             (((1.0, 3), (1.0, True)), "step 1 duration"),
                             (((1.0, 3), (2.0, "3")), "step 1 duration"),
                             ((("1.5", 3),), "step 0 level"),
                             (((True, 3),), "step 0 level")]:
            with pytest.raises(ValueError, match=field):
                ReferenceProfile(steps)

    def test_numpy_and_int_entries_are_accepted(self):
        prof = ReferenceProfile(((np.float64(1.5), np.int64(2)), (2, 1)))
        assert prof.steps == ((1.5, 2), (2.0, 1))
        assert type(prof.steps[0][1]) is int
        assert prof.series().tobytes() == np.array([1.5, 1.5, 2.0]).tobytes()


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


def plant_fields_read(source, function):
    """The attributes of `params` that `function`, a def in `source`, reads."""
    node = next(n for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return sorted({n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id == "params"})


def test_finds_a_plant_field_read():
    source = (
        "def f(params, other):\n"
        "    def g():\n"
        "        return params.decay\n"
        "    return other.gain, params.dead_zone, g\n"
        "def h(params):\n"
        "    return params.ts\n"
    )
    assert plant_fields_read(source, "f") == ["dead_zone", "decay"]


# The plant's sample rule lives in `plant` alone: the closed-loop engines step
# and draw the plant through its functions and read none of its fields.
@pytest.mark.parametrize("function", ["run_closed_loop", "_run_lockstep"])
def test_closed_loop_engines_read_no_plant_field(function):
    with open(ctl.__file__, encoding="utf-8") as fh:
        assert plant_fields_read(fh.read(), function) == []


def _reference_loop(params, controller, profile, seed):
    """The closed loop as first written: an array regressor, one `plant.step`
    per sample.  Returns (r, y, u) up to the first non-finite output, and the
    index of that sample (None if there is none)."""
    r = profile.series()
    state = make_state(seed)
    y_now = y_prev = 0.0
    u1 = u2 = U_MIN
    ys, us = [], []
    for k, r_k in enumerate(r):
        u = float(controller(np.array([r_k, y_now, y_prev, u1, u2])))
        if not np.isfinite(u):
            return (r[:k], ys, us), k
        u = min(max(u, U_MIN), U_MAX)
        state, measured = step(state, params, u)
        ys.append(measured)
        us.append(u)
        y_prev, y_now = y_now, measured
        u2, u1 = u1, u
    return (r, ys, us), None


def _batch_controller(net, input_scaling, target_scaling):
    """NeuralController's arithmetic through the array paths: the scaling's
    `apply` and `invert` and a one-row `forward_batch`."""

    def control(regressor):
        out = mlp.forward_batch(net, input_scaling.apply(regressor)[None])[0]
        return target_scaling.invert(out)[0]

    return control


@st.composite
def _neural_parts(draw):
    """A [5, h, 1] net with a tanh hidden layer and a tanh or linear output,
    and scalings that map a plausible regressor and u onto about [-1, 1]."""
    hidden = draw(st.integers(1, 12))
    output = draw(st.sampled_from(["tanh", "linear"]))
    net = mlp.init_weights([5, hidden, 1], ["tanh", output],
                           seed=draw(st.integers(0, 2**31 - 1)),
                           scale=draw(st.sampled_from([0.1, 0.5, 1.0, 3.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    input_scaling = AffineScaling(rng.uniform([0, 0, 0, 4, 4], [4, 4, 4, 5, 5]),
                                  rng.uniform(0.2, 1.5, 5))
    target_scaling = AffineScaling(rng.uniform(4.0, 5.0, 1), rng.uniform(0.3, 1.0, 1))
    return net, input_scaling, target_scaling


_profiles = st.lists(st.tuples(st.floats(0.0, 4.0), st.integers(1, 60)), min_size=1,
                     max_size=3).map(lambda steps: ReferenceProfile(tuple(steps)))


class TestLoopMatchesReference:
    """run_closed_loop with a NeuralController gives the reference loop's
    bytes: the Python-float scaling, the row-wise `forward` and the one noise
    draw per loop change no bit."""

    @given(parts=_neural_parts(), profile=_profiles, seed=st.integers(0, 2**31 - 1),
           sigma=st.sampled_from([0.0, 0.02, 0.1]))
    @settings(max_examples=60, deadline=None)
    def test_trace_bit_for_bit(self, parts, profile, seed, sigma):
        params = MotorParams(noise_sigma=sigma)
        trace = run_closed_loop(params, NeuralController(*parts), profile, seed)
        (r, y, u), diverged_at = _reference_loop(
            params, _batch_controller(*parts), profile, seed)
        assert diverged_at is None
        for got, want in ((trace.r, r), (trace.y, y), (trace.u, u)):
            assert got.tobytes() == np.asarray(want, dtype=float).tobytes()

    @given(parts=_neural_parts(), seed=st.integers(0, 2**31 - 1), n_samples=st.integers(0, 80),
           sigma=st.sampled_from([0.0, 0.02]))
    @settings(max_examples=25, deadline=None)
    def test_divergence_bit_for_bit(self, parts, seed, n_samples, sigma):
        params = MotorParams(noise_sigma=sigma)
        with pytest.raises(ControllerDivergedError) as err:
            run_closed_loop(params, _nan_after(n_samples, NeuralController(*parts)), PROFILE, seed)
        (r, y, u), diverged_at = _reference_loop(
            params, _nan_after(n_samples, _batch_controller(*parts)), PROFILE, seed)
        assert diverged_at == n_samples
        assert str(err.value) == f"controller output not finite at sample {diverged_at}"
        partial = err.value.trace
        for got, want in ((partial.r, r), (partial.y, y), (partial.u, u)):
            assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


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


_ARCHITECTURES = [([5, 2, 1], ["tanh", "linear"]), ([5, 4, 1], ["tanh", "tanh"]),
                  ([5, 3, 1], ["linear", "linear"])]
_PLANTS = st.builds(MotorParams, gain=st.sampled_from([1.0, 0.2, 1.0e307]),
                    tau=st.sampled_from([0.5, 0.25]), dead_zone=st.sampled_from([2.5, 3.0, 0.0]),
                    saturation=st.sampled_from([6.5, 5.0]),
                    noise_sigma=st.sampled_from([0.0, 0.02, 0.05]))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ClosedLoopTrace(np.zeros(3), np.zeros(3), np.zeros(2)), "equal length"),
        (lambda: ClosedLoopTrace(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))), "1-D"),
        (lambda: compute_indices(ClosedLoopTrace([], [], [])), "empty trace"),
    ],
    ids=["unequal-lengths", "two-dimensional", "empty"],
)
def test_invalid_trace_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@st.composite
def _closed_loop_jobs(draw):
    """A plant, a profile and up to 2 * LOCKSTEP_MIN + 2 (controller, seed)
    jobs on them.  Most controllers are NeuralControllers, and most of those
    share one architecture, so that they run in lockstep from LOCKSTEP_MIN
    on.  The all-linear architecture diverges at once with huge weights, and
    later on the 1e307-gain plant."""
    params, profile = draw(_PLANTS), draw(_profiles)
    shared = draw(st.sampled_from(_ARCHITECTURES))
    jobs = []
    for _ in range(draw(st.integers(1, 2 * ctl.LOCKSTEP_MIN + 2))):
        if draw(st.integers(0, 4)) == 0:
            controller = analytic_inverse_controller(params)
        else:
            architecture = shared if draw(st.integers(0, 3)) else draw(
                st.sampled_from(_ARCHITECTURES))
            net = mlp.init_weights(*architecture, seed=draw(st.integers(0, 2**31 - 1)),
                                   scale=draw(st.sampled_from([0.5, 3.0, 1e155])))
            _, input_scaling, target_scaling = draw(_neural_parts())
            controller = NeuralController(net, input_scaling, target_scaling)
        jobs.append((controller, draw(st.integers(0, 2**31 - 1))))
    return params, profile, jobs


def _neural(architecture, seed, scale=0.5):
    """A NeuralController with unit input scaling and its output about 4.5 V."""
    net = mlp.init_weights(*architecture, seed=seed, scale=scale)
    return NeuralController(net, AffineScaling(np.zeros(5), np.ones(5)),
                            AffineScaling([4.5], [1.0]))


class TestNeuralController:
    @pytest.mark.parametrize("regressor", [[1.0], [1.0] * 4, [1.0] * 6, 1.0],
                             ids=["1", "4", "6", "float"])
    def test_regressor_of_the_wrong_width_is_rejected(self, regressor):
        # scaling by broadcasting would stretch one entry to all five
        with pytest.raises(ValueError):
            _neural(_ARCHITECTURES[0], 0)(regressor)


def _trace_or_divergence(params, controller, profile, seed):
    try:
        return run_closed_loop(params, controller, profile, seed)
    except ControllerDivergedError as exc:
        return exc


def _assert_same_loops(got, expected):
    """Each loop is the same trace, or the same divergence with the same
    partial trace, bit for bit."""
    for want, have in zip(expected, got, strict=True):
        assert type(have) is type(want)
        if isinstance(want, ControllerDivergedError):
            assert str(have) == str(want)
            want, have = want.trace, have.trace
        for series in ("r", "y", "u"):
            assert getattr(have, series).tobytes() == getattr(want, series).tobytes()


class TestRunClosedLoops:
    @given(case=_closed_loop_jobs())
    @settings(max_examples=100, deadline=None)
    def test_lockstep_matches_one_at_a_time_bit_for_bit(self, case):
        params, profile, jobs = case
        expected = [_trace_or_divergence(params, controller, profile, seed)
                    for controller, seed in jobs]
        got = run_closed_loops(params, profile, jobs, _keep)
        _assert_same_loops(got, expected)

    def test_lockstep_divergence_warns_nothing(self):
        # On a plant whose output nears 4e307 V, the first and last of these
        # all-linear nets overflow; the sample depends on the BLAS kernel's
        # rounding, so the one-at-a-time runs are the reference.
        params = MotorParams(gain=1.0e307, noise_sigma=0.0)
        jobs = [(_neural(_ARCHITECTURES[2], seed, scale=3.0), 0) for seed in (2, 0, 4)]
        assert ctl._lockstep_batches(PROFILE, jobs) == [[0, 1, 2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_closed_loops(params, PROFILE, jobs, _keep)
            expected = [_trace_or_divergence(params, c, PROFILE, seed) for c, seed in jobs]
        assert [type(loop) for loop in expected] == [
            ControllerDivergedError, ClosedLoopTrace, ControllerDivergedError]
        _assert_same_loops(results, expected)

    def test_lockstep_stops_once_every_loop_has_diverged(self):
        # 5-1 linear nets: a NaN bias diverges at once, and a weight of 1e308
        # or 0.7e308 on r(k) at the first reference level that overflows it
        # (2 V at sample 50, 3 V at sample 100); the last 50 samples never run.
        profile = ReferenceProfile(((1.0, 50), (2.0, 50), (3.0, 50), (1.0, 50)))
        params = MotorParams(noise_sigma=0.02)
        unit = AffineScaling(np.zeros(5), np.ones(5)), AffineScaling([0.0], [1.0])
        jobs = [(NeuralController(mlp.MlpNetwork([5, 1], ["linear"], weights), *unit), seed)
                for weights, seed in [([0.0] * 5 + [float("nan")], 3),
                                      ([1e308] + [0.0] * 5, 4), ([0.7e308] + [0.0] * 5, 5)]]
        assert ctl._lockstep_batches(profile, jobs) == [[0, 1, 2]]
        expected = [_trace_or_divergence(params, c, profile, seed) for c, seed in jobs]
        assert [len(loop.trace) for loop in expected] == [0, 50, 100]
        _assert_same_loops(run_closed_loops(params, profile, jobs, _keep), expected)

    def test_lockstep_keeps_one_history_of_y_and_u(self, quiet):
        # each loop's y and u are stored once, in an (n + LAGS, G, 2) history, so
        # the run peaks at about 2.2x n * G doubles; separate noise, y and u
        # buffers took it to 3.2x
        profile, G = ctl.DEFAULT_PROFILE, 30
        jobs = [(_neural(_ARCHITECTURES[0], seed), seed) for seed in range(G)]
        tracemalloc.start()
        try:
            loops = ctl._run_lockstep(quiet, profile, jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(len(loop) == len(profile) for loop in loops)
        assert peak < 2.5 * len(profile) * G * 8

    def test_lockstep_groups_share_architecture(self):
        # layer sizes and activations both set the group; the weights do not
        architectures = [_ARCHITECTURES[0], _ARCHITECTURES[1], ([5, 2, 1], ["tanh", "tanh"])]
        jobs = [(_neural(architecture, seed), seed)
                for seed in range(ctl.LOCKSTEP_MIN) for architecture in architectures]
        assert ctl._lockstep_batches(PROFILE, jobs) == [
            list(range(k, len(jobs), 3)) for k in range(3)]

    def test_other_controllers_run_one_at_a_time(self, quiet):
        class Offset(NeuralController):
            def __call__(self, regressor):
                return super().__call__(regressor) + 0.5

        base = _neural(_ARCHITECTURES[0], 0)
        offset = Offset(base.net, base.input_scaling, base.target_scaling)
        jobs = [(offset, seed) for seed in range(ctl.LOCKSTEP_MIN)]
        assert ctl._lockstep_batches(PROFILE, jobs) == []
        trace = run_closed_loops(quiet, PROFILE, jobs, _keep)[0]
        assert trace.u.tobytes() == run_closed_loop(quiet, offset, PROFILE, 0).u.tobytes()
        assert trace.u.tobytes() != run_closed_loop(quiet, base, PROFILE, 0).u.tobytes()

    def test_divergence_returns_with_its_partial_trace(self, quiet):
        oracle = analytic_inverse_controller(quiet)
        jobs = [(oracle, 0), (_nan_after(10, oracle), 1)]
        trace, diverged = run_closed_loops(quiet, PROFILE, jobs, _keep)
        assert len(trace) == len(PROFILE)
        assert isinstance(diverged, ControllerDivergedError)
        assert str(diverged) == "controller output not finite at sample 10"
        assert len(diverged.trace) == 10

    def test_other_exception_reaches_the_caller(self, quiet):
        def bad(reg):
            raise ValueError("bad regressor")

        jobs = [(lambda reg: 4.0, 0), (bad, 1)]
        with pytest.raises(ValueError, match="bad regressor"):
            run_closed_loops(quiet, PROFILE, jobs, _keep)

    def test_lockstep_batches_hold_at_most_max_size_samples(self, quiet, monkeypatch):
        monkeypatch.setattr(ctl, "MAX_SIZE", 2 * len(PROFILE))
        neural = _neural(_ARCHITECTURES[0], seed=0)
        jobs = [(neural, seed) for seed in range(7)]
        jobs.insert(3, (analytic_inverse_controller(quiet), 0))
        monkeypatch.setattr(ctl, "LOCKSTEP_MIN", 2)
        assert ctl._lockstep_batches(PROFILE, jobs) == [[0, 1], [2, 4], [5, 6]]
        monkeypatch.setattr(ctl, "LOCKSTEP_MIN", 3)
        assert ctl._lockstep_batches(PROFILE, jobs) == []


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

    def test_lockstep_report_equals_one_at_a_time(self, monkeypatch):
        params = MotorParams(noise_sigma=0.02)
        controllers = [(str(seed), _neural(_ARCHITECTURES[0], seed)) for seed in range(3)]
        controllers.append(("oracle", analytic_inverse_controller(params)))
        reports = []
        for smallest in (1, 10**9):
            monkeypatch.setattr(ctl, "LOCKSTEP_MIN", smallest)
            reports.append(compare_controllers(params, controllers, PROFILE, seeds=[0, 1, 2]))
        assert reports[0].rows == reports[1].rows
        assert reports[0].medians == reports[1].medians

    def test_overflowing_index_is_an_error_row(self):
        params = MotorParams(gain=1.0e307)
        report = compare_controllers(
            params, [("high", lambda reg: 7.0), ("low", lambda reg: 2.0)], PROFILE, seeds=[0, 1]
        )
        high = [r for r in report.rows if r.name == "high"]
        assert all("not finite" in r.error for r in high)
        assert report.medians["high"] == (float("inf"), float("inf"))
        assert report.ranking == ["low", "high"]

    def test_overflowing_index_in_lockstep_is_an_error_row(self):
        params = MotorParams(gain=1.0e307)
        high, low = (NeuralController(mlp.MlpNetwork([5, 1], ["linear"], [0.0] * 5 + [volts]),
                                      AffineScaling(np.zeros(5), np.ones(5)),
                                      AffineScaling([0.0], [1.0])) for volts in (7.0, 2.0))
        seeds = range(ctl.LOCKSTEP_MIN)
        jobs = [(c, seed) for c in (high, low) for seed in seeds]
        assert ctl._lockstep_batches(PROFILE, jobs) == [list(range(len(jobs)))]
        report = compare_controllers(params, [("high", high), ("low", low)], PROFILE, seeds)
        assert all("mean_abs_error = inf" in r.error for r in report.rows if r.name == "high")
        assert all(r.error is None for r in report.rows if r.name == "low")
        assert report.ranking == ["low", "high"]

    @pytest.mark.parametrize("names, message", [
        (["only"], "at least two controllers"),
        (["a", "b", "a"], "controller 'a' is named more than once"),
    ])
    def test_needs_two_controllers_of_distinct_names(self, quiet, names, message):
        controllers = [(name, lambda r: 4.0) for name in names]
        with pytest.raises(ValueError, match=message):
            compare_controllers(quiet, controllers, PROFILE, seeds=[0])


class TestCsvExports:
    def test_trace_csv_columns(self, quiet, tmp_path):
        trace = run_closed_loop(quiet, analytic_inverse_controller(quiet), PROFILE, seed=0)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,r,y,u"
        assert len(lines) == len(trace) + 1

    def test_trace_csv_is_what_csv_writer_writes(self, tmp_path):
        values = [0.0, -0.0, 1e-300, 5e-324, -2.5, 1 / 3, 1e300, np.inf, -np.inf, np.nan]
        trace = ClosedLoopTrace(values, values[::-1], values[3:] + values[:3])
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "r", "y", "u"])
            for k in range(len(trace)):
                writer.writerow([k, *(repr(float(s[k])) for s in (trace.r, trace.y, trace.u))])
        trace_to_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == expected.read_bytes()

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
