"""Taut-cable dynamics and tension functional."""

import math

import pytest
from hypothesis import given, strategies as st

import tautuav as tu
from tautuav.plant import wrap_angle

from conftest import sample_attainable


def test_hover_balance_zero_tension(plant):
    state = tu.FullState(1.0, 0.0, math.pi / 2.0, 0.0, 0.0, 0.0)
    assert tu.tension(state, plant.m * plant.g, 0.0, plant) == pytest.approx(0.0, abs=1e-12)


def test_excess_thrust_tension(plant):
    state = tu.FullState(1.0, 0.0, math.pi / 2.0, 0.0, 0.0, 0.0)
    assert tu.tension(state, plant.m * plant.g + 5.0, 0.0, plant) == pytest.approx(5.0, abs=1e-12)


def test_centrifugal_tension():
    p = tu.PlantParams(m=2.0)
    state = tu.FullState(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    # pure m*r*alpha_dot^2 term: gravity and thrust terms vanish at alpha=0, u1=0
    assert tu.tension(state, 0.0, 0.0, p) == pytest.approx(2.0, abs=1e-12)


def test_tension_may_be_negative(plant):
    state = tu.FullState(1.0, 0.0, math.pi / 2.0, 0.0, 0.0, 0.0)
    assert tu.tension(state, 0.0, 0.0, plant) < 0.0


def test_unit_torque_attitude_acceleration(plant):
    state = tu.FullState(1.0, 0.1, 0.7, 0.2, 0.3, 0.4)
    u = tu.ControlInputs(u1=5.0, u2=plant.j_uav, u3=0.0)
    d = tu.taut_rhs(state, u, 10.0, plant)
    assert d.theta_ddot == pytest.approx(1.0, abs=1e-12)


def test_pendulum_term(plant):
    state = tu.FullState(2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    u = tu.ControlInputs(u1=0.0, u2=0.0, u3=0.0)
    d = tu.taut_rhs(state, u, 0.0, plant)
    assert d.alpha_ddot == pytest.approx(-plant.g / 2.0, rel=1e-12)


def test_taut_rhs_rejects_nonpositive_radius(plant):
    bad = tu.FullState(0.0, 0.0, 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="r > 0"):
        tu.taut_rhs(bad, tu.ControlInputs(1.0, 0.0, 0.0), 1.0, plant)
    with pytest.raises(ValueError, match="r > 0"):
        tu.resolve_taut_coupling(bad, tu.ControlInputs(1.0, 0.0, 0.0), plant)


def test_rate_entries_mirror_state(plant):
    state = tu.FullState(1.3, -0.2, 0.9, 0.7, -0.1, 0.5)
    d = tu.taut_rhs(state, tu.ControlInputs(3.0, 0.1, -0.2), 4.0, plant)
    assert d.r_dot == state.r_dot
    assert d.alpha_dot == state.alpha_dot
    assert d.theta_dot == state.theta_dot


def test_equilibrium_residual_random_setpoints(plant):
    import numpy as np

    rng = np.random.default_rng(42)
    eps = 0.5
    for _ in range(100):
        sp = sample_attainable(rng, eps, plant)
        u = tu.equilibrium_inputs(sp, plant)
        t_bar = tu.equilibrium_tension(sp, plant)
        assert t_bar > eps
        state = tu.FullState(sp.r_bar, 0.0, sp.alpha_bar, 0.0, sp.theta_bar, 0.0)
        d = tu.taut_rhs(state, u, t_bar, plant)
        assert max(abs(v) for v in d.as_tuple()) < 1e-10


def test_open_loop_coupling_consistency(plant):
    """The jointly solved (r_ddot, T) pair is a fixed point of both equations."""
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(50):
        state = tu.FullState(
            r=float(rng.uniform(0.2, 2.0)), r_dot=float(rng.uniform(-1, 1)),
            alpha=float(rng.uniform(0, math.pi)),
            alpha_dot=float(rng.uniform(-3, 3)),
            theta=float(rng.uniform(-1.5, 1.5)),
            theta_dot=float(rng.uniform(-3, 3)))
        u = tu.ControlInputs(u1=float(rng.uniform(0, 50)),
                             u2=float(rng.uniform(-1, 1)),
                             u3=float(rng.uniform(-5, 5)))
        r_ddot, t_value = tu.resolve_taut_coupling(state, u, plant)
        d = tu.taut_rhs(state, u, t_value, plant)
        assert abs(d.r_ddot - r_ddot) < 1e-12
        assert abs(tu.tension(state, u.u1, r_ddot, plant) - t_value) < 1e-12


@given(alpha=st.floats(0.0, math.pi), theta=st.floats(-1.5, 1.5),
       alpha_dot=st.floats(-5.0, 5.0), u1=st.floats(0.0, 100.0),
       r=st.floats(0.1, 3.0), r_ddot=st.floats(-2.0, 2.0))
def test_tension_mirror_symmetry(alpha, theta, alpha_dot, u1, r, r_ddot):
    """Reflecting the geometry across the vertical leaves the tension unchanged."""
    p = tu.PlantParams()
    a = tu.FullState(r, 0.0, alpha, alpha_dot, theta, 0.0)
    b = tu.FullState(r, 0.0, math.pi - alpha, alpha_dot, -theta, 0.0)
    assert tu.tension(a, u1, r_ddot, p) == pytest.approx(
        tu.tension(b, u1, r_ddot, p), rel=1e-12, abs=1e-9)


def test_initial_state_validation():
    with pytest.raises(ValueError, match="r must be positive"):
        tu.FullState.initial(r=0.0, alpha=0.5, theta=0.0)
    with pytest.raises(ValueError, match="alpha"):
        tu.FullState.initial(r=1.0, alpha=-0.1, theta=0.0)
    wrapped = tu.FullState.initial(r=1.0, alpha=0.5, theta=3.0 * math.pi)
    assert wrapped.theta == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("field", ["r", "alpha", "theta", "r_dot",
                                   "alpha_dot", "theta_dot"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_initial_state_rejects_non_finite_entries(field, value):
    entries = dict(r=1.0, alpha=0.5, theta=0.0)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        tu.FullState.initial(**{**entries, field: value})


@given(x=st.floats(-50.0, 50.0))
def test_wrap_angle_range_and_identity(x):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi
    assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)
    assert math.sin(w) == pytest.approx(math.sin(x), abs=1e-9)


def test_control_inputs_reject_negative_thrust():
    with pytest.raises(ValueError, match="u1"):
        tu.ControlInputs(u1=-1.0, u2=0.0, u3=0.0)


def test_plant_params_validation():
    with pytest.raises(ValueError, match="m must be positive"):
        tu.PlantParams(m=0.0)
    with pytest.raises(ValueError, match="rho"):
        tu.PlantParams(rho=-0.1)


@pytest.mark.parametrize("name", ["m", "j_uav", "i_winch", "rho", "g"])
def test_plant_params_reject_infinite(name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        tu.PlantParams(**{name: math.inf})
