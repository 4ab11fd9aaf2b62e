"""Integrator correctness, scenario runs, event detection, invariant monitor."""

import dataclasses
import math

import numpy as np
import pytest

import tautuav as tu
from tautuav import sim
from tautuav.sim import SimEvents, SimulationDiverged

from conftest import sample_attainable


class TestRK4:
    def test_fixed_point(self):
        y = (1.0, 0.2, 0.5, -0.1, 0.3, 0.7)
        out = tu.rk4_step(lambda t, y: (0.0,) * 6, 0.0, y, 0.1)
        assert out == y

    def test_polynomial_exactness(self):
        c = 2.5
        dt = 0.05
        out = tu.rk4_step(lambda t, y: (y[1], c), 0.0, (0.3, 0.4), dt)
        assert out[1] == pytest.approx(0.4 + c * dt, rel=1e-15)
        assert out[0] == pytest.approx(0.3 + 0.4 * dt + 0.5 * c * dt * dt,
                                       rel=1e-15)

    def test_harmonic_oscillator_fourth_order(self):
        def harmonic(t, y):
            return y[1], -y[0]

        def final_error(dt):
            y = (1.0, 0.0)
            n = int(round(2.0 * math.pi / dt))
            for k in range(n):
                y = tu.rk4_step(harmonic, k * dt, y, dt)
            return math.hypot(y[0] - 1.0, y[1])

        e1 = final_error(2.0 * math.pi / 100)
        e2 = final_error(2.0 * math.pi / 200)
        assert 12.0 < e1 / e2 < 20.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            tu.rk4_step(lambda t, y: (0.0,), 0.0, (1.0,), 0.0)

    def test_batch_equals_scalar_steps_bit_for_bit(self):
        """A tuple of (N,) arrays advances exactly as N scalar steps."""
        def duffing(t, y):
            x, v = y
            return v, -0.3 * v - x - x * x * x + 0.7 * t

        rng = np.random.default_rng(3)
        batch = (rng.uniform(-2.0, 2.0, 64), rng.uniform(-2.0, 2.0, 64))
        scalars = list(zip(batch[0].tolist(), batch[1].tolist()))
        dt = 0.01
        for k in range(100):
            batch = tu.rk4_step(duffing, k * dt, batch, dt)
            scalars = [tu.rk4_step(duffing, k * dt, y, dt) for y in scalars]
        assert np.array_equal(batch[0], [y[0] for y in scalars])
        assert np.array_equal(batch[1], [y[1] for y in scalars])

    def test_reuses_given_first_stage(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (-y[0],)

        y = (2.0,)
        assert (tu.rk4_step(rhs, 0.0, y, 0.1, k1=rhs(0.0, y))
                == tu.rk4_step(rhs, 0.0, y, 0.1))
        assert calls == [0.0, 0.05, 0.05, 0.1, 0.0, 0.05, 0.05, 0.1]


class TestClosedLoopStep:
    @staticmethod
    def states(rng, sp, g):
        """Random states, then states on both kinks of each saturation of
        the winch law and deep in both saturated corners."""
        for _ in range(20):
            yield (float(rng.uniform(0.3, 1.5)), float(rng.uniform(-0.2, 0.2)),
                   float(rng.uniform(0.0, math.pi)), float(rng.uniform(-5, 5)),
                   float(rng.uniform(-1, 1)), float(rng.uniform(-3, 3)))
        angles = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 4))
        for sign in (1.0, -1.0):
            r = sp.r_bar + sign * g.lambda2 / g.k_pr  # inner kink
            if r > 0.0:
                yield (r, 0.0) + angles
                # outer kink: k_dr*r_dot +- lambda2 = +-lambda1
                yield (r, sign * (g.lambda1 - g.lambda2) / g.k_dr) + angles
            yield (sp.r_bar + sign * 2.0, sign * 1.0) + angles
            yield (sp.r_bar + sign * 2.0, -sign * 1.0) + angles

    @pytest.mark.parametrize("ideal", [False, True])
    def test_equals_generic_rk4_bit_for_bit(self, plant, gains, ideal):
        """The simulator's unrolled step is plant.rk4_step, bit for bit."""
        rng = np.random.default_rng(11 + ideal)
        setpoints = [tu.Setpoint(0.8, math.pi / 2.0, 0.0)]  # vertical hover
        setpoints += [sample_attainable(rng, gains.eps, plant)
                      for _ in range(14)]
        checked = 0
        for sp in setpoints:
            law = tu.closed_loop(sp, gains, plant, ideal_attitude=ideal)
            states = list(self.states(rng, sp, gains))
            if sp.alpha_bar == math.pi / 2.0:
                states.append((sp.r_bar, 0.0, sp.alpha_bar, 0.0,
                               sp.theta_bar, 0.0))
            for y in states:
                if not y[0] > 0.0:
                    continue
                for dt in (1e-3, 5e-4, 0.01, 0.05):
                    deriv = tu.closed_loop_rhs(y, law)[0]
                    want = tu.rk4_step(
                        lambda t, yy: tu.closed_loop_rhs(yy, law)[0],
                        0.0, y, dt)
                    assert sim.closed_loop_rk4_step(y, deriv, law, dt) == want
                    checked += 1
        assert checked >= 200 * 4


class TestScenarios:
    def test_ideal_reference_run(self, ideal_log):
        log = ideal_log
        assert log.events.first_tension_violation is None
        assert log.tension.min() > 0.0
        assert log.events.convergence_time is not None
        assert log.events.convergence_time <= 10.0

    def test_inner_no_rg_violates(self, no_rg_log):
        log = no_rg_log
        assert log.events.first_tension_violation is not None
        assert log.tension.min() < 0.0
        # run continues to the horizon after the violation
        assert len(log) == int(round(10.0 / 1e-3)) + 1
        assert log.t[-1] == pytest.approx(10.0)

    def test_violation_time_matches_interpolation(self, no_rg_log):
        log = no_rg_log
        T = log.tension
        idx = np.flatnonzero((T[:-1] > 0.0) & (T[1:] <= 0.0))[0]
        frac = T[idx] / (T[idx] - T[idx + 1])
        expected = round(log.t[idx] + frac * 1e-3, 4)
        assert log.events.first_tension_violation == expected

    def test_cable_taut_at_every_rk4_stage_of_governed_run(
            self, default_bundle, rg_bundle, monkeypatch):
        """The tension stays positive between the logged rows too: its
        minimum over every RK4 stage dips only just below the logged one."""
        p, g, cfg = default_bundle
        plan, _, _, log = rg_bundle
        real_rhs = sim.closed_loop_rhs
        stage_tensions = []

        def recording(y, law):
            out = real_rhs(y, law)
            stage_tensions.append(out[2])
            return out

        monkeypatch.setattr(sim, "closed_loop_rhs", recording)
        again = tu.run_scenario(
            dataclasses.replace(cfg, mode=tu.ScenarioMode.INNER_WITH_RG,
                                t_final=30.0), g, p, plan=plan)
        assert np.array_equal(again.tension, log.tension)
        assert len(stage_tensions) == 4 * (len(log) - 1) + 1
        assert 0.0 < min(stage_tensions) <= log.tension.min()
        assert min(stage_tensions) == pytest.approx(1.59388, abs=1e-5)
        assert log.tension.min() == pytest.approx(1.59390, abs=1e-5)

    def test_log_grid_uniform(self, ideal_log):
        dt = np.diff(ideal_log.t)
        assert np.allclose(dt, 1e-3, rtol=0.0, atol=1e-12)

    def test_determinism(self, plant, gains):
        cfg = tu.SimConfig(t_final=1.0)
        a = tu.run_scenario(cfg, gains, plant)
        b = tu.run_scenario(cfg, gains, plant)
        for ca, cb in zip(a.columns(), b.columns()):
            assert np.array_equal(ca, cb)
        assert a.events == b.events

    def test_step_size_robustness(self, plant, gains):
        final = []
        for dt in (1e-3, 5e-4):
            cfg = tu.SimConfig(dt=dt, t_final=3.0, mode=tu.ScenarioMode.INNER_NO_RG)
            log = tu.run_scenario(cfg, gains, plant)
            final.append(np.array([log.r[-1], log.r_dot[-1], log.alpha[-1],
                                   log.alpha_dot[-1], log.theta[-1],
                                   log.theta_dot[-1]]))
        assert np.abs(final[0] - final[1]).max() < 1e-6

    def test_requires_plan_for_governed_mode(self, plant, gains):
        cfg = tu.SimConfig(mode=tu.ScenarioMode.INNER_WITH_RG)
        with pytest.raises(ValueError, match="plan"):
            tu.run_scenario(cfg, gains, plant)

    def test_rejects_inadmissible_initial_speed(self, plant, gains):
        cfg = tu.SimConfig(initial=tu.FullState.initial(
            1.0, math.pi / 8.0, 0.0, r_dot=1.0))
        with pytest.raises(ValueError, match="radial speed"):
            tu.run_scenario(cfg, gains, plant)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dt"):
            tu.SimConfig(dt=0.0)
        with pytest.raises(ValueError, match="t_final"):
            tu.SimConfig(dt=0.1, t_final=0.05)

    def test_rejects_step_that_does_not_divide_horizon(self):
        with pytest.raises(ValueError, match=r"dt=0\.003 .*t_final=10\.0"):
            tu.SimConfig(dt=0.003, t_final=10.0)
        with pytest.raises(ValueError, match="t_final"):
            tu.SimConfig(t_final=math.inf)
        # float quotients such as 30/1e-3 = 29999.999999999996 pass
        for t_final in (1.0, 1.5, 3.0, 4.0, 10.0, 30.0, 40.0, 120.0):
            assert tu.SimConfig(dt=1e-3, t_final=t_final).t_final == t_final

    def test_rejects_dwell_that_is_not_whole_steps(self):
        with pytest.raises(ValueError,
                           match=r"dt=0\.001 .*convergence_dwell=0\.0015"):
            tu.SimConfig(convergence_dwell=0.0015)
        with pytest.raises(ValueError, match="convergence_dwell must be finite"):
            tu.SimConfig(convergence_dwell=math.inf)
        for dwell in (0.0, 0.002, 0.5):
            assert tu.SimConfig(convergence_dwell=dwell).convergence_dwell == dwell

    def test_non_finite_rhs_raises_diverged_with_time(self, plant, gains,
                                                      monkeypatch):
        real_rhs = sim.closed_loop_rhs
        calls = []

        def blows_up(y, law):
            # four evaluations a step: call 402 is the second RK4 stage of
            # the step from t = 0.100 to t = 0.101
            calls.append(y)
            if len(calls) < 402:
                return real_rhs(y, law)
            return ((math.nan,) * 6, (math.nan,) * 3, math.nan,
                    (math.nan,) * 3)

        monkeypatch.setattr(sim, "closed_loop_rhs", blows_up)
        cfg = tu.SimConfig(t_final=1.0, mode=tu.ScenarioMode.INNER_NO_RG)
        with pytest.raises(SimulationDiverged,
                           match=r"non-finite state at t=0\.101"):
            tu.run_scenario(cfg, gains, plant)


def test_free_fall_energy_conservation(plant):
    """Unforced flight with zero cable force conserves the vehicle energy.

    With thrust and tension removed, the radial equation reduces to free
    polar motion (r_ddot = r*alpha_dot^2 - g*sin(alpha)); the integrator
    must hold the mechanical energy of the simulated coordinates to 1e-6
    relative over one second.
    """
    def free_fall(t, y):
        r, r_dot, alpha, alpha_dot = y
        r_ddot = r * alpha_dot ** 2 - plant.g * math.sin(alpha)
        alpha_ddot = -(2.0 * r_dot * alpha_dot
                       + plant.g * math.cos(alpha)) / r
        return r_dot, r_ddot, alpha_dot, alpha_ddot

    def energy(y):
        r, r_dot, alpha, alpha_dot = y
        kinetic = 0.5 * plant.m * (r_dot ** 2 + (r * alpha_dot) ** 2)
        potential = plant.m * plant.g * r * math.sin(alpha)
        return kinetic + potential

    # mostly tangential launch: the ballistic arc stays clear of the anchor
    y = (1.0, 0.3, math.pi / 3.0, 2.0)
    e0 = energy(y)
    for k in range(1000):
        y = tu.rk4_step(free_fall, k * 1e-3, y, 1e-3)
    assert y[0] > 0.3
    assert abs(energy(y) - e0) / abs(e0) < 1e-6


class TestMonitor:
    def test_synthetic_constant_tension_passes(self, gains, plant):
        n = 11
        t = np.linspace(0.0, 1.0, n)
        ones = np.ones(n)
        env = tu.RadialEnvelope(r_min=0.5, r_max=1.0, r_star=1.0,
                                tau_star=0.0, vel_bound=0.2)
        log = tu.TrajectoryLog(
            t=t, r=0.8 * ones, r_dot=0.0 * ones, alpha=ones, alpha_dot=0.0 * ones,
            theta=0.0 * ones, theta_dot=0.0 * ones, u1=ones, u2=0.0 * ones,
            u3=-plant.rho * ones, tension=ones,
            theta_c=0.0 * ones, waypoint=-np.ones(n, dtype=int),
            events=SimEvents(None, (), 0.2))
        report = tu.monitor_invariants(log, gains, env, plant)
        assert report["tension_positive"].passed
        assert report["convergence"].passed
        assert report.all_passed

    def test_ideal_run_all_pass(self, ideal_log, gains, plant):
        env = tu.radial_envelope(1.0, 0.0, 0.5, gains)
        report = tu.monitor_invariants(ideal_log, gains, env, plant)
        assert report.all_passed, report.render()

    def test_no_rg_run_fails_only_tension(self, no_rg_log, gains, plant):
        env = tu.radial_envelope(1.0, 0.0, 0.5, gains)
        report = tu.monitor_invariants(no_rg_log, gains, env, plant)
        tension = report["tension_positive"]
        assert not tension.passed
        assert tension.first_failure_time == pytest.approx(
            no_rg_log.events.first_tension_violation, abs=2e-3)
        assert report["radial_envelope"].passed
        assert report["radial_velocity"].passed
        assert report["radial_acceleration"].passed
        assert report["convergence"].passed

    def test_render_mentions_failures(self, no_rg_log, gains, plant):
        env = tu.radial_envelope(1.0, 0.0, 0.5, gains)
        report = tu.monitor_invariants(no_rg_log, gains, env, plant)
        text = report.render()
        assert "tension_positive: FAIL" in text
        assert "all: FAIL" in text
