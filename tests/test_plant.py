import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from servoneuro.plant import (
    MotorParams, advance, make_state, noise, static_map, steady_state, step,
)


class TestStaticMap:
    def test_inside_dead_zone(self, quiet):
        assert static_map(quiet, 2.0) == 0.0

    def test_dead_zone_boundary(self, quiet):
        assert static_map(quiet, 2.5) == 0.0

    def test_saturated_equals_saturation(self, quiet):
        assert static_map(quiet, 7.0) == static_map(quiet, 6.5)

    def test_negative_input_gives_zero(self, quiet):
        assert static_map(quiet, -3.0) == 0.0

    def test_linear_in_band(self, quiet):
        assert static_map(quiet, 4.5) == pytest.approx(2.0)

    def test_monotone_nondecreasing(self, quiet):
        us = np.linspace(-2.0, 9.0, 400)
        vals = [static_map(quiet, u) for u in us]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


@st.composite
def _motor_params(draw):
    """A valid plant of any dead zone, saturation, gain and time constants."""
    dead_zone = draw(st.floats(0.0, 10.0))
    tau = draw(st.floats(0.01, 10.0))
    return MotorParams(gain=draw(st.floats(1e-3, 1e3)), tau=tau,
                       ts=draw(st.floats(tau / 1000, tau, exclude_max=True)),
                       dead_zone=dead_zone,
                       saturation=draw(st.floats(dead_zone, 20.0, exclude_min=True)))


# The lockstep engine steps its loops' array through the float rule's own
# function: on an array, static_map and advance give each element the bits
# of the float form, at every edge of the map as well.
@given(params=_motor_params(), us=st.lists(st.floats(-10.0, 20.0), max_size=20),
       y=st.floats(-10.0, 10.0))
@example(params=MotorParams(dead_zone=0.0), us=[-0.0, 0.0, -5e-324, 5e-324], y=0.0)
@example(params=MotorParams(), us=[-0.0, 0.0, 2.5, 6.5], y=-0.0)
@example(params=MotorParams(dead_zone=1e308, saturation=1.5e308), us=[-1e308, 1.2e308], y=1.0)
def test_array_forms_match_the_float_forms_bit_for_bit(params, us, y):
    edges = [params.dead_zone, params.saturation]
    u = np.array([*us, *edges, *np.nextafter(edges, -np.inf), *np.nextafter(edges, np.inf),
                  -np.inf, np.inf, -1e308, 1e308])
    with np.errstate(over="ignore"):  # as a float overflows, without a warning
        mapped, advanced = static_map(params, u), advance(params, np.full(u.size, y), u)
    floats = u.tolist()
    assert mapped.tobytes() == np.array([static_map(params, x) for x in floats]).tobytes()
    assert advanced.tobytes() == np.array([advance(params, y, x) for x in floats]).tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.02, 0.1])
def test_noise_and_advance_give_the_bytes_of_step(sigma):
    params = MotorParams(noise_sigma=sigma)
    us = np.random.default_rng(7).uniform(-1.0, 9.0, 50).tolist()
    for seed in range(20):
        state, stepped = make_state(seed), []
        for u in us:
            state, measured = step(state, params, u)
            stepped.append(measured)
        y, drawn = 0.0, []
        for u, draw in zip(us, noise(params, seed, len(us)).tolist()):
            y = advance(params, y, u)
            drawn.append(y + draw)
        assert np.array(drawn).tobytes() == np.array(stepped).tobytes()


class TestStep:
    def test_decay_factor_value(self):
        # exp(-0.05/0.5) = exp(-0.1)
        assert MotorParams().decay == pytest.approx(0.9048374180359595, rel=1e-12)

    def test_dead_zone_input_keeps_zero(self, quiet):
        state = make_state(seed=0)
        for _ in range(50):
            state, y = step(state, quiet, 2.0)
        assert y == 0.0

    def test_monotone_convergence_to_steady_state(self, quiet):
        state = make_state(seed=0)
        target = steady_state(quiet, 4.5)
        ys = []
        for _ in range(200):
            state, y = step(state, quiet, 4.5)
            ys.append(y)
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert all(y <= target + 1e-12 for y in ys)
        assert abs(ys[-1] - target) < 1e-6

    def test_noise_free_measurement_equals_state(self, quiet):
        state = make_state(seed=0)
        state, y = step(state, quiet, 5.0)
        assert y == state.y

    def test_fixed_seed_bit_identical(self):
        params = MotorParams(noise_sigma=0.05)
        runs = []
        for _ in range(2):
            state = make_state(seed=42)
            ys = []
            for _ in range(100):
                state, y = step(state, params, 5.0)
                ys.append(y)
            runs.append(ys)
        assert runs[0] == runs[1]

    def test_non_finite_input_rejected(self, quiet):
        with pytest.raises(ValueError):
            step(make_state(seed=0), quiet, float("nan"))


class TestSteadyState:
    def test_dead_zone_boundary_zero(self, quiet):
        assert steady_state(quiet, 2.5) == 0.0

    def test_saturation_plateau(self, quiet):
        assert steady_state(quiet, 6.5) == steady_state(quiet, 8.0)

    def test_simulation_fixed_point(self, quiet):
        state = make_state(seed=0)
        for _ in range(200):
            state, y = step(state, quiet, 3.7)
        assert abs(y - steady_state(quiet, 3.7)) < 1e-6

    def test_scales_with_gain(self):
        p = MotorParams(gain=0.2, noise_sigma=0.0)
        assert steady_state(p, 4.5) == pytest.approx(0.4)


class TestParamsValidation:
    def test_saturation_must_exceed_dead_zone(self):
        with pytest.raises(ValueError):
            MotorParams(dead_zone=6.5, saturation=2.5)

    def test_ts_must_resolve_dynamics(self):
        with pytest.raises(ValueError):
            MotorParams(tau=0.01, ts=0.05)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            MotorParams(noise_sigma=-0.1)
