"""Cascade controller: winch law, thrust vectoring, attitude loop, composition."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tautuav as tu
from tautuav import control
from tautuav.cli import ConfigError, parse_config
from tautuav.control import PreconditionError
from tautuav.plant import elevation_acceleration

from conftest import sample_attainable
from oracles import error_terms


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

    @pytest.mark.parametrize("key", ["eps", "gamma_out"])
    def test_rejects_nan_margin_and_outer_gain(self, key):
        with pytest.raises(ValueError, match=f"{key} must be non-negative"):
            tu.GainConfig(**{key: math.nan})

    def test_rejects_untied_radial_damping(self):
        # the tied values are derived, so none can be given to break the
        # tie (the config parser checks an explicit one)
        for key, value in (("k_dr", 5.0), ("k_da", 5.0),
                           ("hover_tension", 0.5)):
            with pytest.raises(TypeError, match=key):
                tu.GainConfig(**{key: value})

    def test_replace_rederives_tied_gains(self):
        g = dataclasses.replace(tu.GainConfig(), k_pr=50.0, k_pt=150.0)
        assert g.k_dr == 2.0 * math.sqrt(50.0)
        assert g.k_dt == 2.0 * g.zeta * math.sqrt(150.0)
        assert dataclasses.replace(g, zeta=0.7).k_dt == (
            2.0 * 0.7 * math.sqrt(150.0))

    def test_replace_rederives_elevation_damping_and_hover_tension(self):
        g = dataclasses.replace(tu.GainConfig(), zeta=0.7)
        assert g == tu.GainConfig(zeta=0.7)
        assert g.k_da == tu.GainConfig(zeta=0.7).k_da == (
            2.0 * 0.7 * math.sqrt(30.0))
        assert dataclasses.replace(tu.GainConfig(), eps=0.5).hover_tension == 1.0

    @given(st.floats(min_value=0.0, allow_infinity=False))
    def test_hover_tension_above_margin(self, eps):
        # the governor's radius floor needs every waypoint's tension,
        # the vertical hover's too, above eps
        if 2.0 * eps == math.inf:
            with pytest.raises(ValueError, match="^eps must"):
                tu.GainConfig(eps=eps)
        else:
            assert tu.GainConfig(eps=eps).hover_tension > eps

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


def random_state(rng):
    return (float(rng.uniform(0.3, 1.5)), float(rng.uniform(-0.18, 0.18)),
            float(rng.uniform(0.0, math.pi)), float(rng.uniform(-5, 5)),
            float(rng.uniform(-1, 1)), float(rng.uniform(-3, 3)))


def channels(y, sp, g, p):
    """Tension and elevation channels (u_t, u_alpha) of the outer loop,
    written out from the control law."""
    r, r_dot, alpha, alpha_dot, _, _ = y
    r_ddot = control.radial_acceleration(r, r_dot, sp.r_bar, g)
    t_bar = tu.equilibrium_tension(sp, p, g.hover_tension)
    u_t = t_bar + p.m * p.g * math.sin(alpha) + p.m * r_ddot
    u_alpha = (p.m * (2.0 * r_dot * alpha_dot + p.g * math.cos(alpha))
               - p.m * r * (g.k_pa * (alpha - sp.alpha_bar)
                            + g.k_da * alpha_dot))
    return u_t, u_alpha


class TestOuterLoop:
    def test_equilibrium_fixed_point(self, plant, gains):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sp = sample_attainable(rng, gains.eps, plant)
            state = tu.FullState(sp.r_bar, 0.0, sp.alpha_bar, 0.0,
                                 sp.theta_bar, 0.0)
            _, inputs, _, diag = tu.evaluate(state, sp, gains, plant)
            u_bar = tu.equilibrium_inputs(sp, plant)
            assert inputs.u1 == pytest.approx(u_bar.u1, rel=1e-9)
            assert diag.theta_c == pytest.approx(sp.theta_bar, abs=1e-9)

    def test_vertical_hover_geometry(self, plant, gains):
        sp = tu.Setpoint(1.0, math.pi / 2.0, 0.0)
        state = tu.FullState(1.0, 0.0, math.pi / 2.0, 0.0, 0.0, 0.0)
        _, inputs, _, diag = tu.evaluate(state, sp, gains, plant)
        assert diag.u_alpha == pytest.approx(0.0, abs=1e-12)
        assert diag.theta_c == pytest.approx(0.0, abs=1e-12)
        assert inputs.u1 == pytest.approx(gains.hover_tension + plant.m * plant.g,
                                          rel=1e-12)

    def test_tension_channel_positive(self, plant, gains):
        rng = np.random.default_rng(3)
        for _ in range(300):
            sp = sample_attainable(rng, gains.eps, plant)
            state = tu.FullState(*random_state(rng))
            u_t = tu.evaluate(state, sp, gains, plant)[3].u_t
            t_bar = tu.equilibrium_tension(sp, plant)
            assert u_t >= t_bar - plant.m * gains.lambda1 - 1e-12
            assert u_t > 0.0

    def test_thrust_reconstruction(self, plant, gains):
        rng = np.random.default_rng(4)
        for _ in range(300):
            sp = sample_attainable(rng, gains.eps, plant)
            state = tu.FullState(*random_state(rng))
            _, inputs, _, diag = tu.evaluate(state, sp, gains, plant)
            heading = state.alpha + diag.theta_c
            assert inputs.u1 * math.cos(heading) == pytest.approx(
                diag.u_alpha, abs=1e-10 * max(1.0, abs(diag.u_alpha)))
            assert inputs.u1 * math.sin(heading) == pytest.approx(
                diag.u_t, abs=1e-10 * max(1.0, abs(diag.u_t)))

    def test_precondition_violation_raises(self, plant):
        g = tu.GainConfig(lambda1=1.75, lambda2=3.0)  # t_bar/m = 1.722
        sp = tu.Setpoint(0.5, 9.0 * math.pi / 10.0, -math.pi / 20.0)
        with pytest.raises(PreconditionError, match="lambda1"):
            tu.closed_loop(sp, g, plant)


class TestInnerLoop:
    def test_zero_error_zero_torque(self, plant, gains):
        law = tu.closed_loop(tu.Setpoint(0.7, 0.5, 0.2), gains, plant)
        theta_c = tu.closed_loop_rhs((1.0, 0.0, 0.5, 0.0, 0.0, 0.0), law)[3][2]
        # the command does not depend on the measured pitch
        _, (_, u2, _), _, (_, _, theta_c2) = tu.closed_loop_rhs(
            (1.0, 0.0, 0.5, 0.0, theta_c, 0.0), law)
        assert theta_c2 == theta_c
        assert u2 == 0.0

    def test_proportional_torque_value(self):
        p = tu.PlantParams(j_uav=0.015)
        g = tu.GainConfig(k_pt=200.0, zeta=0.9)
        law = tu.closed_loop(tu.Setpoint(0.7, 0.5, 0.2), g, p)
        theta_c = tu.closed_loop_rhs((1.0, 0.0, 0.5, 0.0, 0.0, 0.0), law)[3][2]
        u2 = tu.closed_loop_rhs((1.0, 0.0, 0.5, 0.0, theta_c + 0.1, 0.0),
                                law)[1][1]
        # torque = -J * k_pt * theta_err = -0.015 * 200 * 0.1
        assert u2 == pytest.approx(-0.3, rel=1e-12)

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
            state = tu.FullState(sp.r_bar, 0.0, sp.alpha_bar, 0.0,
                                 sp.theta_bar, 0.0)
            deriv, _, t_val, _ = tu.evaluate(state, sp, gains, plant)
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
        state = (-0.1, 0.0, 0.5, 0.0, 0.0, 0.0)
        law = tu.closed_loop(ref_setpoint, gains, plant)
        with pytest.raises(ValueError, match="r > 0"):
            tu.closed_loop_rhs(state, law)

    @pytest.mark.parametrize("layer", ["inner", "outer"])
    def test_kernel_saturation_edges_keep_bits(self, plant, ref_setpoint,
                                               layer):
        """The kernel's saturations, written as comparisons, against the
        copysign form of radial_acceleration, sign of zero included: each
        saturation's argument at +-0.0, exactly at +-lambda1 and +-lambda2,
        and one ulp to either side of each level."""
        g = tu.GainConfig(k_pr=0.25)  # k_dr = 1: r_dot passes unscaled
        assert g.k_dr == 1.0
        base = tu.closed_loop(ref_setpoint, g, plant, ideal_attitude=True)
        edges = [v for lam in (g.lambda1, g.lambda2)
                 for v in (math.nextafter(lam, 0.0), lam,
                           math.nextafter(lam, math.inf))]

        def radii(x):
            """Positive (r, r_bar) with k_pr*(r - r_bar) == x bit for bit;
            -0.0 comes only from underflow, hence subnormal radii, which
            the ideal-attitude kernel never divides by."""
            if x > 0.0:
                return 8.0 * x, 4.0 * x
            if x < 0.0:
                return -4.0 * x, -8.0 * x
            return (1.0, 1.0) if math.copysign(1.0, x) > 0.0 \
                else (5e-324, 1e-323)

        for x in [0.0, -0.0] + edges + [-v for v in edges]:
            if layer == "inner":
                (r, r_bar), r_dot = radii(x), -0.0  # -0.0 adds nothing
                arg = g.k_pr * (r - r_bar)
            else:
                (r, r_bar), r_dot = radii(-0.0), x
                arg = g.k_dr * r_dot + control.saturate(
                    g.k_pr * (r - r_bar), g.lambda2)
            assert arg == x and math.copysign(1.0, arg) == math.copysign(1.0, x)
            law = base[:1] + (r_bar,) + base[2:]
            got = tu.closed_loop_rhs((r, r_dot, 1.0, 0.0, 0.0, 0.0), law)[0][1]
            want = control.radial_acceleration(r, r_dot, r_bar, g)
            assert got == want and np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("ideal", [False, True])
    def test_kernel_matches_plant_model_and_winch_law(self, plant, gains,
                                                      ideal):
        """The kernel against the model stated one law at a time: the same
        operations give the same bits, and the taut-cable equations of
        motion driven by the kernel's inputs and tension give its
        derivative within 1e-12 relative."""
        rng = np.random.default_rng(7 + ideal)
        setpoints = [tu.Setpoint(0.8, math.pi / 2.0, 0.0)]
        setpoints += [sample_attainable(rng, gains.eps, plant)
                      for _ in range(40)]
        for i in range(240):
            sp = setpoints[i % len(setpoints)]
            y = random_state(rng)
            deriv, (u1, u2, u3), t_val, (u_t, u_alpha, theta_c) = \
                tu.closed_loop_rhs(y, tu.closed_loop(sp, gains, plant,
                                                     ideal_attitude=ideal))
            # with the pitch pinned to its command the model sees theta_c
            state = tu.FullState(*y[:4], theta_c, 0.0) if ideal \
                else tu.FullState(*y)
            r_ddot = control.radial_acceleration(y[0], y[1], sp.r_bar, gains)
            assert deriv[1] == r_ddot
            assert (u_t, u_alpha) == channels(y, sp, gains, plant)
            assert u1 == math.hypot(u_t, u_alpha)
            assert theta_c == math.pi / 2.0 - y[2] - math.atan2(u_alpha, u_t)
            assert u3 == control.ground_control(state, sp.r_bar, t_val,
                                                gains, plant)
            if ideal:
                assert (u2, deriv[4], deriv[5]) == (0.0, 0.0, 0.0)
                assert t_val == pytest.approx(
                    tu.tension(state, u1, r_ddot, plant), rel=1e-12, abs=1e-12)
            else:
                assert u2 == -plant.j_uav * (gains.k_pt * (y[4] - theta_c)
                                             + gains.k_dt * y[5])
                assert t_val == tu.tension(state, u1, r_ddot, plant)
                assert deriv[3] == elevation_acceleration(state, u1, plant)
            want = tu.taut_rhs(state, tu.ControlInputs(u1, u2, u3), t_val,
                               plant).as_tuple()
            for got, ref in zip(deriv, want):
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


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
    law = tu.closed_loop(ref_setpoint, gains, plant)

    def reduced_rhs(red_state, full_state, diag):
        a_err, a_dot = red_state
        u_t, u_alpha, theta_c = diag
        theta_err = full_state.theta - theta_c
        delta, _, _ = error_terms(full_state, t_bar, theta_err,
                                  u_t, u_alpha, plant)
        gamma = ((plant.g * math.cos(a_err + ref_setpoint.alpha_bar)
                  / full_state.r) * (math.cos(theta_err) - 1.0)
                 - u_t * math.sin(theta_err) / (plant.m * full_state.r))
        a_ddot = (-(gains.k_pa * a_err + gains.k_da * a_dot)
                  * math.cos(theta_err) + delta * a_dot + gamma)
        return a_dot, a_ddot

    def joint_rhs(t, y):
        # full closed loop (first six entries) beside the reduced form
        d, _, _, diag = tu.closed_loop_rhs(y[:6], law)
        return d + reduced_rhs(y[6:], tu.FullState(*y[:6]), diag)

    y = state.as_tuple() + red
    for k in range(2000):
        y = tu.rk4_step(joint_rhs, k * dt, y, dt)
        max_dev = max(max_dev, abs(y[6] - (y[2] - ref_setpoint.alpha_bar)))
    assert max_dev < 1e-6
