"""Cascade controller: winch law, thrust vectoring, attitude loop, composition."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tautuav as tu
from tautuav import analysis, control
from tautuav.cli import ConfigError, parse_config
from tautuav.control import PreconditionError

from conftest import sample_attainable


class TestSaturate:
    def test_clamp_above(self):
        assert tu.saturate(3.0, 2.0) == 2.0

    def test_odd_symmetry(self):
        assert tu.saturate(-3.0, 2.0) == -2.0

    def test_identity_inside_band(self):
        assert tu.saturate(1.0, 2.0) == 1.0

    @given(x=st.floats(-1e6, 1e6), level=st.floats(1e-6, 1e3))
    def test_bound_and_sign(self, x, level):
        y = tu.saturate(x, level)
        assert abs(y) <= level
        assert y * x >= 0.0
        if abs(x) <= level:
            assert y == x

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            tu.saturate(1.0, 0.0)


class TestGainConfig:
    def test_defaults_satisfy_invariants(self):
        g = tu.GainConfig()
        assert g.k_dr == pytest.approx(2.0 * math.sqrt(g.k_pr))
        assert g.k_dt == pytest.approx(2.0 * g.zeta * math.sqrt(g.k_pt))

    def test_derives_damping_gains_and_hover_tension(self):
        g = tu.GainConfig(k_pr=20.0, k_pa=15.0, k_pt=150.0, zeta=0.7,
                          lambda1=0.3, lambda2=1.0)
        assert g.k_dr == pytest.approx(2.0 * math.sqrt(20.0))
        assert g.k_da == pytest.approx(2.0 * 0.7 * math.sqrt(15.0))
        assert g.k_dt == pytest.approx(2.0 * 0.7 * math.sqrt(150.0))
        # a stiffness gain or zeta alone re-derives the gains tied to it
        g = tu.GainConfig(k_pr=50.0, zeta=0.7)
        assert g.k_dr == pytest.approx(2.0 * math.sqrt(50.0))
        assert g.k_da == pytest.approx(2.0 * 0.7 * math.sqrt(30.0))
        assert g.k_dt == pytest.approx(2.0 * 0.7 * math.sqrt(200.0))
        # the hover tension follows eps, as the config parser's does
        g = tu.GainConfig(eps=0.5)
        assert g.hover_tension == 1.0
        assert g == parse_config("eps = 0.5")[1]
        with pytest.raises(ConfigError, match="zeta"):
            parse_config("zeta = -0.5")

    def test_rejects_bad_zeta(self):
        with pytest.raises(ValueError, match="zeta"):
            tu.GainConfig(zeta=1.2)

    def test_rejects_untied_radial_damping(self):
        with pytest.raises(ValueError, match="k_dr"):
            tu.GainConfig(k_dr=5.0)

    def test_rejects_saturation_ordering(self):
        with pytest.raises(ValueError, match="lambda2"):
            tu.GainConfig(lambda1=2.0, lambda2=1.0)


class TestGroundControl:
    def test_zero_at_target_zero_tension(self, plant, gains):
        state = tu.FullState(0.7, 0.0, 0.5, 0.0, 0.0, 0.0)
        assert control.ground_control(state, 0.7, 0.0, gains, plant) == 0.0

    def test_equilibrium_torque_cancels_tension(self, plant, gains):
        state = tu.FullState(0.7, 0.0, 0.5, 0.0, 0.0, 0.0)
        t_bar = 3.0
        u3 = control.ground_control(state, 0.7, t_bar, gains, plant)
        assert u3 == pytest.approx(-plant.rho * t_bar, rel=1e-12)

    def test_composition_recovers_saturated_acceleration(self, plant, gains):
        rng = np.random.default_rng(1)
        for _ in range(200):
            state = tu.FullState(
                r=float(rng.uniform(0.2, 2.0)),
                r_dot=float(rng.uniform(-0.5, 0.5)),
                alpha=float(rng.uniform(0.0, math.pi)),
                alpha_dot=float(rng.uniform(-3, 3)),
                theta=float(rng.uniform(-1, 1)),
                theta_dot=float(rng.uniform(-2, 2)))
            r_bar = float(rng.uniform(0.2, 2.0))
            u1 = float(rng.uniform(0, 60))
            expected = control.radial_acceleration(state.r, state.r_dot, r_bar, gains)
            t_value = tu.tension(state, u1, expected, plant)
            u3 = control.ground_control(state, r_bar, t_value, gains, plant)
            d = tu.taut_rhs(state, tu.ControlInputs(u1, 0.0, u3), t_value, plant)
            assert d.r_ddot == pytest.approx(expected, abs=1e-10)
            assert abs(d.r_ddot) <= gains.lambda1 + 1e-12

    def test_deep_saturation_pins_acceleration(self, plant, gains):
        state = tu.FullState(2.0, 0.0, 0.5, 0.0, 0.0, 0.0)  # far above target
        acc = control.radial_acceleration(state.r, state.r_dot, 0.5, gains)
        assert acc == -gains.lambda1
        state2 = tu.FullState(0.1, 0.0, 0.5, 0.0, 0.0, 0.0)  # far below target
        assert control.radial_acceleration(state2.r, state2.r_dot, 2.0, gains) == gains.lambda1


class TestOuterLoop:
    def test_equilibrium_fixed_point(self, plant, gains):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sp = sample_attainable(rng, gains.eps, plant)
            state = tu.FullState(sp.r_bar, 0.0, sp.alpha_bar, 0.0, sp.theta_bar, 0.0)
            u1, theta_c, diag = control.outer_loop(state, sp, 0.0, gains, plant)
            u_bar = tu.equilibrium_inputs(sp, plant)
            assert u1 == pytest.approx(u_bar.u1, rel=1e-9)
            assert theta_c == pytest.approx(sp.theta_bar, abs=1e-9)

    def test_vertical_hover_geometry(self, plant, gains):
        sp = tu.Setpoint(1.0, math.pi / 2.0, 0.0)
        state = tu.FullState(1.0, 0.0, math.pi / 2.0, 0.0, 0.0, 0.0)
        u1, theta_c, diag = control.outer_loop(state, sp, 0.0, gains, plant)
        assert diag.u_alpha == pytest.approx(0.0, abs=1e-12)
        assert theta_c == pytest.approx(0.0, abs=1e-12)
        assert u1 == pytest.approx(gains.hover_tension + plant.m * plant.g, rel=1e-12)

    def test_tension_channel_positive(self, plant, gains):
        rng = np.random.default_rng(3)
        for _ in range(300):
            sp = sample_attainable(rng, gains.eps, plant)
            state = tu.FullState(
                r=float(rng.uniform(0.3, 1.5)), r_dot=float(rng.uniform(-0.18, 0.18)),
                alpha=float(rng.uniform(0.0, math.pi)),
                alpha_dot=float(rng.uniform(-5, 5)),
                theta=float(rng.uniform(-1, 1)), theta_dot=float(rng.uniform(-3, 3)))
            r_ddot = control.radial_acceleration(state.r, state.r_dot, sp.r_bar, gains)
            _, _, diag = control.outer_loop(state, sp, r_ddot, gains, plant)
            t_bar = tu.equilibrium_tension(sp, plant)
            assert diag.u_t >= t_bar - plant.m * gains.lambda1 - 1e-12
            assert diag.u_t > 0.0

    def test_thrust_reconstruction(self, plant, gains):
        rng = np.random.default_rng(4)
        for _ in range(300):
            sp = sample_attainable(rng, gains.eps, plant)
            state = tu.FullState(
                r=float(rng.uniform(0.3, 1.5)), r_dot=float(rng.uniform(-0.18, 0.18)),
                alpha=float(rng.uniform(0.0, math.pi)),
                alpha_dot=float(rng.uniform(-5, 5)),
                theta=float(rng.uniform(-1, 1)), theta_dot=float(rng.uniform(-3, 3)))
            r_ddot = control.radial_acceleration(state.r, state.r_dot, sp.r_bar, gains)
            u1, theta_c, diag = control.outer_loop(state, sp, r_ddot, gains, plant)
            assert u1 * math.cos(state.alpha + theta_c) == pytest.approx(
                diag.u_alpha, abs=1e-10 * max(1.0, abs(diag.u_alpha)))
            assert u1 * math.sin(state.alpha + theta_c) == pytest.approx(
                diag.u_t, abs=1e-10 * max(1.0, abs(diag.u_t)))

    def test_precondition_violation_raises(self, plant):
        g = tu.GainConfig(lambda1=1.75, lambda2=3.0)  # t_bar/m = 1.722
        sp = tu.Setpoint(0.5, 9.0 * math.pi / 10.0, -math.pi / 20.0)
        state = tu.FullState(0.5, 0.0, sp.alpha_bar, 0.0, sp.theta_bar, 0.0)
        with pytest.raises(PreconditionError, match="lambda1"):
            control.outer_loop(state, sp, 0.0, g, plant)


class TestInnerLoop:
    def test_zero_error_zero_torque(self, plant, gains):
        state = tu.FullState(1.0, 0.0, 0.5, 0.0, 0.3, 0.0)
        assert control.inner_loop(state, 0.3, gains, plant) == 0.0

    def test_proportional_torque_value(self):
        p = tu.PlantParams(j_uav=0.015)
        g = tu.GainConfig(k_pt=200.0, zeta=0.9)
        state = tu.FullState(1.0, 0.0, 0.5, 0.0, 0.1, 0.0)
        # torque = -J * k_pt * theta_err = -0.015 * 200 * 0.1
        assert control.inner_loop(state, 0.0, g, p) == pytest.approx(-0.3, rel=1e-12)

    def test_step_response_converges_with_damped_oscillation(self, plant, gains):
        dt = 1e-3
        theta, theta_dot = 0.0, 0.0
        target = 0.5
        crossed = False

        def attitude(t, y):
            th, thd = y
            return thd, -gains.k_pt * (th - target) - gains.k_dt * thd

        for k in range(4000):
            theta, theta_dot = tu.rk4_step(attitude, k * dt, (theta, theta_dot),
                                           dt)
            if theta > target:
                crossed = True
        assert crossed  # underdamped: at least one overshoot
        assert abs(theta - target) < 1e-9
        assert abs(theta_dot) < 1e-8


class TestClosedLoop:
    def test_equilibrium_is_fixed_point(self, plant, gains):
        rng = np.random.default_rng(6)
        for _ in range(50):
            sp = sample_attainable(rng, gains.eps, plant)
            state = tu.FullState(sp.r_bar, 0.0, sp.alpha_bar, 0.0, sp.theta_bar, 0.0)
            deriv, inputs, t_val, diag = tu.closed_loop_rhs(state, sp, gains, plant)
            assert max(abs(v) for v in deriv.as_tuple()) < 1e-9
            assert t_val == pytest.approx(tu.equilibrium_tension(sp, plant), rel=1e-9)

    def test_ideal_mode_tension_law(self, plant, gains, ideal_log):
        """Ideal attitude makes the raw tension formula collapse to
        t_bar + m*r*alpha_dot^2; verify against the raw formula per row."""
        sp = tu.Setpoint(0.5, 9.0 * math.pi / 10.0, -math.pi / 20.0)
        t_bar = tu.equilibrium_tension(sp, plant)
        log = ideal_log
        idx = np.arange(0, len(log), 97)
        for i in idx:
            state = tu.FullState(log.r[i], log.r_dot[i], log.alpha[i],
                                 log.alpha_dot[i], log.theta[i], 0.0)
            r_ddot = (plant.rho * log.u3[i]
                      + plant.rho ** 2 * log.tension[i]) / plant.i_winch
            raw = tu.tension(state, log.u1[i], r_ddot, plant)
            assert raw == pytest.approx(log.tension[i], abs=1e-9)
            assert log.tension[i] == pytest.approx(
                t_bar + plant.m * log.r[i] * log.alpha_dot[i] ** 2, abs=1e-9)

    def test_radial_acceleration_bounded_along_trajectory(self, plant, gains,
                                                          no_rg_log):
        r_ddot = (plant.rho * no_rg_log.u3
                  + plant.rho ** 2 * no_rg_log.tension) / plant.i_winch
        assert np.abs(r_ddot).max() <= gains.lambda1 + 1e-12

    def test_rejects_nonpositive_radius(self, plant, gains, ref_setpoint):
        state = tu.FullState(-0.1, 0.0, 0.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="r > 0"):
            tu.closed_loop_rhs(state, ref_setpoint, gains, plant)


def test_error_dynamics_equivalence(plant, gains, ref_setpoint, start_setpoint):
    """Reduced elevation-error model integrates to the full trajectory.

    The reduced pair (a_err, a_dot) evolves under the PD-with-pitch-error
    form using the perturbation coefficients, driven by the exogenous
    signals (r, r_dot, theta_err, u_t) of the full simulation; exactness of
    the coefficient formulas keeps the two aligned to integrator precision.
    """
    t_bar = tu.equilibrium_tension(ref_setpoint, plant)
    state = tu.FullState.initial(start_setpoint.r_bar, start_setpoint.alpha_bar,
                                 start_setpoint.theta_bar)
    red = (state.alpha - ref_setpoint.alpha_bar, 0.0)
    dt = 1e-3
    max_dev = 0.0

    def reduced_rhs(red_state, full_state):
        a_err, a_dot = red_state
        r_ddot = control.radial_acceleration(full_state.r, full_state.r_dot,
                                             ref_setpoint.r_bar, gains)
        _, theta_c, diag = control.outer_loop(full_state, ref_setpoint, r_ddot,
                                              gains, plant)
        theta_err = full_state.theta - theta_c
        delta, _, _ = analysis.error_terms(full_state, t_bar, theta_err,
                                           diag.u_t, diag.u_alpha, plant)
        gamma = ((plant.g * math.cos(a_err + ref_setpoint.alpha_bar)
                  / full_state.r) * (math.cos(theta_err) - 1.0)
                 - diag.u_t * math.sin(theta_err) / (plant.m * full_state.r))
        a_ddot = (-(gains.k_pa * a_err + gains.k_da * a_dot)
                  * math.cos(theta_err) + delta * a_dot + gamma)
        return a_dot, a_ddot

    def joint_rhs(t, y):
        # full closed loop (first six entries) beside the reduced form
        full_state = tu.FullState(*y[:6])
        d = tu.closed_loop_rhs(full_state, ref_setpoint, gains, plant)[0]
        return d.as_tuple() + reduced_rhs(y[6:], full_state)

    y = state.as_tuple() + red
    for k in range(2000):
        y = tu.rk4_step(joint_rhs, k * dt, y, dt)
        max_dev = max(max_dev, abs(y[6] - (y[2] - ref_setpoint.alpha_bar)))
    assert max_dev < 1e-6
