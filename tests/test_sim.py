"""Integrator correctness, scenario runs, event detection, invariant monitor."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tautuav as tu
from tautuav import sim
from tautuav.plant import wrap_angle
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
            self, default_bundle, rg_bundle, rg_every_step, monkeypatch):
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
        # four evaluations a step up to and including the step that maps
        # the state to itself; the fast-forward copies the rest
        assert len(stage_tensions) == 4 * (rg_every_step[1] + 1)
        assert 0.0 < min(stage_tensions) <= log.tension.min()
        assert min(stage_tensions) == pytest.approx(1.59388, abs=1e-5)
        assert log.tension.min() == pytest.approx(1.59390, abs=1e-5)

    def test_switch_at_start_settles_one_law(self, default_bundle, rg_bundle,
                                             monkeypatch):
        """A flight that starts inside the final reference's ball switches
        to it at t = 0, which the index column alone cannot show, and
        settles the control law once, for the final reference only."""
        p, g, cfg = default_bundle
        plan = rg_bundle[0]
        final = plan.waypoints[0].sp
        real_law = sim.closed_loop
        settled = []

        def recording(sp, *args, **kwargs):
            settled.append(sp)
            return real_law(sp, *args, **kwargs)

        monkeypatch.setattr(sim, "closed_loop", recording)
        log = tu.run_scenario(dataclasses.replace(
            cfg, mode=tu.ScenarioMode.INNER_WITH_RG, t_final=1.0,
            initial=tu.FullState.initial(final.r_bar, final.alpha_bar,
                                         final.theta_bar)), g, p, plan=plan)
        assert len(plan.waypoints) > 1
        assert log.events.switch_times == (0.0,)
        assert (log.waypoint == 0).all()
        assert settled == [final]

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


def every_step(cfg, g, p, plan=None):
    """run_scenario's step loop without its fast-forward: it integrates
    every step to the horizon.  Returns the finished log and the first step
    ``k`` that run_scenario may stop at -- the law was not settled at ``k``
    and one RK4 step maps the state to itself bit for bit -- or None.  The
    model functions are looked up on ``sim``, so a test's monkeypatch acts
    on both loops."""
    governed = cfg.mode is tu.ScenarioMode.INNER_WITH_RG
    wp_index = len(plan.waypoints) - 1 if governed else -1
    dt = cfg.dt
    n_steps = int(round(cfg.t_final / dt))
    y = cfg.initial.as_tuple()
    fixed = None
    switch_times = []
    rows = []
    for k in range(n_steps + 1):
        t = k * dt
        settled = k == 0
        if wp_index > 0:
            index = sim.governor_step(y, plan, wp_index)
            if index != wp_index:
                wp_index = index
                switch_times.append(t)
                settled = True
        if settled:
            sp = cfg.reference if wp_index < 0 else plan.waypoints[wp_index].sp
            law = sim.closed_loop(sp, g, p, ideal_attitude=cfg.mode
                                  is tu.ScenarioMode.IDEAL_ATTITUDE)
        deriv, inputs, tension, diag = sim.closed_loop_rhs(y, law)
        rows.append((t, *y, *inputs, tension, diag[2], wp_index))
        if k < n_steps:
            y_next = sim.closed_loop_rk4_step(y, deriv, law, dt)
            if (fixed is None and not settled
                    and np.array(y_next).tobytes() == np.array(y).tobytes()):
                fixed = k
            y = y_next
    return sim._finish_log(np.array(rows).T, cfg, tuple(switch_times)), fixed


@pytest.fixture(scope="module")
def rg_every_step(default_bundle, rg_bundle):
    """The governed reference run integrated at every step."""
    p, g, cfg = default_bundle
    return every_step(dataclasses.replace(
        cfg, mode=tu.ScenarioMode.INNER_WITH_RG, t_final=30.0), g, p,
        rg_bundle[0])


def assert_same_log(got, want):
    """Every column equal bit for bit, the sign of zero included, and the
    same events."""
    for a, b in zip(got.columns(), want.columns()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.events == want.events


class TestFastForward:
    """Once a step maps the state to itself, run_scenario copies the rows
    instead of integrating them; the log equals that of the loop that
    integrates every step, bit for bit."""

    def test_governed_reference_run(self, rg_bundle, rg_every_step):
        want, fixed = rg_every_step
        assert fixed is not None and fixed < 0.9 * (len(want) - 1)
        assert_same_log(rg_bundle[3], want)

    def test_reference_runs_that_never_repeat(self, default_bundle,
                                              ideal_log, no_rg_log):
        p, g, cfg = default_bundle
        for mode, log in ((tu.ScenarioMode.IDEAL_ATTITUDE, ideal_log),
                          (tu.ScenarioMode.INNER_NO_RG, no_rg_log)):
            want, fixed = every_step(dataclasses.replace(cfg, mode=mode), g, p)
            assert fixed is None
            assert_same_log(log, want)

    def test_governed_missions_that_settle(self, default_bundle):
        from tautuav.cli import _certificate

        p, g, _ = default_bundle
        rng = np.random.default_rng(5)
        for _ in range(3):
            start = sample_attainable(rng, g.eps, p)
            final = sample_attainable(rng, g.eps, p)
            cfg = tu.SimConfig(
                mode=tu.ScenarioMode.INNER_WITH_RG, t_final=40.0,
                initial=tu.FullState.initial(start.r_bar, start.alpha_bar,
                                             start.theta_bar),
                reference=final)
            cert, env, _ = _certificate(p, g, cfg, estimate=False)
            plan = tu.backtrack_plan(start, final, g, p, cert, env)
            want, fixed = every_step(cfg, g, p, plan)
            assert fixed is not None
            assert_same_log(tu.run_scenario(cfg, g, p, plan=plan), want)

    def test_no_stop_on_the_step_of_a_switch(self, default_bundle, rg_bundle,
                                             monkeypatch):
        """A state that repeats on the step of a switch may still switch
        again on the next: here a supervisor that is pure but moves one
        waypoint a step, and a step that holds every state."""
        p, g, cfg = default_bundle
        plan = rg_bundle[0]
        monkeypatch.setattr(sim, "governor_step",
                            lambda y, plan, index: index - 1)
        monkeypatch.setattr(sim, "closed_loop_rk4_step",
                            lambda y, deriv, law, dt: tuple(y))
        cfg = dataclasses.replace(cfg, mode=tu.ScenarioMode.INNER_WITH_RG,
                                  t_final=0.1)
        want, fixed = every_step(cfg, g, p, plan)
        # index 0 is reached on step W - 2 and no longer supervised after
        assert fixed == len(plan.waypoints) - 1
        assert len(want.events.switch_times) == len(plan.waypoints) - 1
        assert_same_log(tu.run_scenario(cfg, g, p, plan=plan), want)

    def test_no_stop_on_a_repeat_up_to_the_sign_of_zero(
            self, default_bundle, monkeypatch):
        """A step that only flips the sign of the state's zeros compares
        equal with == but does not repeat the state."""
        p, g, cfg = default_bundle
        monkeypatch.setattr(sim, "closed_loop_rk4_step",
                            lambda y, deriv, law, dt: tuple(
                                -v if v == 0.0 else v for v in y))
        cfg = dataclasses.replace(cfg, mode=tu.ScenarioMode.INNER_NO_RG,
                                  t_final=0.01)
        assert cfg.initial.r_dot == 0.0
        want, fixed = every_step(cfg, g, p)
        assert fixed is None
        assert_same_log(tu.run_scenario(cfg, g, p), want)


def fly_both(cfg, g, p, plan=None):
    """What the compiled loop and the Python loop give for one flight: each
    a log, or the type and message of the exception it raised."""
    outcomes = []
    for compiled in (True, False):
        try:
            outcomes.append(sim._run(cfg, g, p, plan, compiled=compiled))
        except (ArithmeticError, ValueError, SimulationDiverged) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


@pytest.fixture(scope="module")
def flight_library():
    library = sim._flight_library()
    if library is None:
        pytest.skip("no C compiler to build the flight loop")
    return library


class TestCompiledLoop:
    """The compiled flight loop gives the Python loop's log bit for bit, the
    events included, and raises the same exception with the same message."""

    def test_criterion_8_missions(self, flight_library, default_bundle):
        from tautuav.cli import _certificate

        p, g, _ = default_bundle
        rng = np.random.default_rng(31)  # criterion 8's draws, 6 s each
        switches = 0
        for _ in range(10):
            same_half = bool(rng.uniform() < 0.5)
            half = "low" if rng.uniform() < 0.5 else "high"
            start = sample_attainable(rng, g.eps, p, half=half)
            other = half if same_half else ("high" if half == "low" else "low")
            final = sample_attainable(rng, g.eps, p, half=other)
            cfg = tu.SimConfig(
                mode=tu.ScenarioMode.INNER_WITH_RG, t_final=6.0,
                initial=tu.FullState.initial(start.r_bar, start.alpha_bar,
                                             start.theta_bar),
                reference=final)
            cert, env, _ = _certificate(p, g, cfg, estimate=False)
            plan = tu.backtrack_plan(start, final, g, p, cert, env)
            compiled, python = fly_both(cfg, g, p, plan)
            assert_same_log(compiled, python)
            switches += len(python.events.switch_times)
        assert switches >= 10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.tuples(st.floats(0.05, 2.0), st.floats(-0.03, 0.03),
                     st.floats(-0.5, 3.6), st.floats(-2.0, 2.0),
                     st.floats(-1.5, 1.5), st.floats(-5.0, 5.0)),
           st.sampled_from((tu.ScenarioMode.IDEAL_ATTITUDE,
                            tu.ScenarioMode.INNER_NO_RG)))
    def test_ungoverned_flights_from_drawn_states(
            self, flight_library, default_bundle, state, mode):
        p, g, cfg = default_bundle
        cfg = dataclasses.replace(cfg, mode=mode, t_final=1.0,
                                  initial=tu.FullState(*state))
        compiled, python = fly_both(cfg, g, p)
        if isinstance(python, tuple):
            assert compiled == python
        else:
            assert_same_log(compiled, python)

    def test_slack_cable_raises_alike(self, flight_library, plant, gains):
        cfg = tu.SimConfig(
            mode=tu.ScenarioMode.INNER_NO_RG, t_final=1.0,
            initial=tu.FullState(0.001, -0.03, math.pi / 8.0, 0.0,
                                 math.pi / 10.0, 0.0))
        compiled, python = fly_both(cfg, gains, plant)
        assert python[0] is ValueError
        assert python[1].startswith("taut model requires r > 0, got r=-")
        assert compiled == python

    @pytest.mark.parametrize("gain, error", [
        ("k_pt", SimulationDiverged), ("k_pa", OverflowError)])
    def test_overflow_raises_alike(self, flight_library, plant, gains, gain,
                                   error):
        cfg = tu.SimConfig(mode=tu.ScenarioMode.INNER_NO_RG, t_final=1.0)
        compiled, python = fly_both(
            cfg, dataclasses.replace(gains, **{gain: 1e200}), plant)
        assert python[0] is error
        assert compiled == python


def loop_finish(raw, cfg):
    """The oracle for ``sim._finish_log``: the step loop's row and event
    logic as it ran before it moved to the columns, one row at a time.
    Returns the finished columns and ``(violation, convergence)``."""
    ideal = cfg.mode is tu.ScenarioMode.IDEAL_ATTITUDE
    dt = cfg.dt
    ref = cfg.reference
    dwell_steps = int(round(cfg.convergence_dwell / dt))
    prev_theta_c = prev_tension = first_violation = None
    streak_start = convergence_time = None
    rows = []
    for k, (t, r, r_dot, alpha, alpha_dot, theta, theta_dot, u1, u2, u3,
            tension_value, theta_c, wp) in enumerate(raw.T.tolist()):
        if ideal:
            theta = theta_c
            theta_dot = (0.0 if prev_theta_c is None
                         else (theta_c - prev_theta_c) / dt)
        prev_theta_c = theta_c
        row = (r, r_dot, alpha, alpha_dot, wrap_angle(theta), theta_dot)
        rows.append((t, *row, u1, u2, u3, tension_value,
                     wrap_angle(theta_c), wp))
        if (prev_tension is not None and first_violation is None
                and prev_tension > cfg.tension_min >= tension_value):
            frac = ((prev_tension - cfg.tension_min)
                    / (prev_tension - tension_value))
            first_violation = round(t - dt + frac * dt, 4)
        prev_tension = tension_value
        if convergence_time is None:
            err = math.sqrt((r - ref.r_bar) ** 2 + r_dot ** 2
                            + (alpha - ref.alpha_bar) ** 2 + alpha_dot ** 2
                            + (row[4] - ref.theta_bar) ** 2
                            + theta_dot ** 2)
            if err < cfg.convergence_tol:
                if streak_start is None:
                    streak_start = k
                if k - streak_start >= dwell_steps:
                    convergence_time = streak_start * dt
            else:
                streak_start = None
    return np.array(rows).T, (first_violation, convergence_time)


class TestFinishLog:
    """Event detection on the logged columns against the loop it replaced."""

    DT = 0.01

    def config(self, n, dwell=3, mode=tu.ScenarioMode.INNER_NO_RG,
               tension_min=0.0):
        return tu.SimConfig(dt=self.DT, t_final=(n - 1) * self.DT, mode=mode,
                            convergence_dwell=dwell * self.DT,
                            tension_min=tension_min)

    def raw(self, cfg, inside, tension, rng=None):
        """Raw columns whose rows lie inside the convergence ball where
        ``inside`` is true and well outside it elsewhere."""
        n = len(inside)
        ref = cfg.reference
        tol = cfg.convergence_tol
        offset = np.where(inside, 0.1 * tol, 10.0 * tol)
        if rng is not None:  # spread the offset over the six entries
            offset = offset * rng.uniform(0.5, 1.0, n)
        cols = np.zeros((13, n))
        cols[0] = np.arange(n) * cfg.dt
        cols[1] = ref.r_bar + offset
        cols[3] = ref.alpha_bar
        cols[5] = ref.theta_bar
        cols[7] = 20.0
        cols[10] = tension
        cols[11] = ref.theta_bar
        cols[12] = -1.0
        return cols

    def check(self, raw, cfg):
        want_cols, want_events = loop_finish(raw, cfg)
        log = sim._finish_log(raw.copy(), cfg, ())
        for got, want in zip(log.columns(), want_cols):
            assert np.array_equal(got, want)
        events = (log.events.first_tension_violation,
                  log.events.convergence_time)
        assert events == want_events
        assert all(e is None or type(e) is float for e in events)
        return log.events

    @pytest.mark.parametrize("mode", list(tu.ScenarioMode))
    def test_random_sequences_match_loop(self, mode):
        rng = np.random.default_rng(11)
        seen = {"violation": 0, "convergence": 0}
        for _ in range(200):
            n = int(rng.integers(3, 120))
            cfg = self.config(n, dwell=int(rng.integers(0, 6)), mode=mode,
                              tension_min=float(rng.choice([-0.5, 0.0, 0.5])))
            # runs of rows inside or outside the ball, of random lengths
            inside = np.repeat(rng.uniform(size=n) < 0.6,
                               rng.integers(1, 8, n))[:n]
            # a walk on a 0.5 N grid, so that rows land on tension_min
            tension = np.round(np.cumsum(rng.normal(0.0, 0.6, n)) * 2.0) / 2.0
            raw = self.raw(cfg, inside, tension, rng)
            raw[1:7] += rng.normal(0.0, 1e-5, (6, n)) * (rng.uniform() < 0.3)
            raw[5] += 2.0 * math.pi * rng.integers(-2, 3, n)
            # with ideal attitude the pitch command moves only outside the
            # ball, so that the pitch rate can be small inside it
            still = inside & (mode is tu.ScenarioMode.IDEAL_ATTITUDE)
            raw[11] += np.where(still, 0.0, rng.normal(0.0, 0.01, n)
                                + 2.0 * math.pi * rng.integers(-2, 3, n))
            events = self.check(raw, cfg)
            seen["violation"] += events.first_tension_violation is not None
            seen["convergence"] += events.convergence_time is not None
        assert min(seen.values()) > 20

    def test_tension_exactly_at_threshold(self):
        cfg = self.config(6, tension_min=0.5)
        raw = self.raw(cfg, [False] * 6, [2.0, 1.0, 0.5, 0.3, -1.0, -2.0])
        # the row at the threshold is the violation: no interpolation needed
        assert self.check(raw, cfg).first_tension_violation == 0.02
        raw = self.raw(cfg, [False] * 6, [0.5, 0.2, 0.5, 0.5, 0.6, 0.6])
        # starting at the threshold is not a crossing; 0.2 -> 0.5 neither
        assert self.check(raw, cfg).first_tension_violation is None

    def test_error_exactly_at_tolerance_is_outside(self):
        tol = 2.0 ** -10  # r - r_bar = tol exactly, and so is its norm
        cfg = dataclasses.replace(self.config(5, dwell=0), convergence_tol=tol)
        raw = self.raw(cfg, [False] * 5, np.ones(5))
        raw[1] = cfg.reference.r_bar + tol
        assert self.check(raw, cfg).convergence_time is None
        raw[1, 3] = cfg.reference.r_bar + tol / 2.0
        assert self.check(raw, cfg).convergence_time == 3 * self.DT

    def test_crossing_at_row_one(self):
        cfg = self.config(4)
        raw = self.raw(cfg, [False] * 4, [3.0, -1.0, 2.0, -5.0])
        assert self.check(raw, cfg).first_tension_violation == 0.0075

    @pytest.mark.parametrize("dwell", [0, 1, 4])
    def test_streak_of_dwell_rows_does_not_converge(self, dwell):
        n = 20
        cfg = self.config(n, dwell=dwell)
        inside = np.zeros(n, dtype=bool)
        inside[3:3 + dwell] = True      # dwell rows: too short
        inside[9:9 + dwell + 1] = True  # dwell + 1 rows: long enough
        events = self.check(self.raw(cfg, inside, np.ones(n)), cfg)
        assert events.convergence_time == 9 * self.DT

    @pytest.mark.parametrize("dwell", [0, 2, 5])
    def test_streak_cut_off_by_horizon(self, dwell):
        n = 15
        cfg = self.config(n, dwell=dwell)
        inside = np.zeros(n, dtype=bool)
        inside[n - dwell:] = True  # dwell rows up to the horizon
        events = self.check(self.raw(cfg, inside, np.ones(n)), cfg)
        assert events.convergence_time is None
        inside[n - dwell - 1] = True  # one more row: it converges
        events = self.check(self.raw(cfg, inside, np.ones(n)), cfg)
        assert events.convergence_time == (n - dwell - 1) * self.DT

    def test_zero_dwell_converges_on_first_row_inside(self):
        cfg = self.config(8, dwell=0)
        inside = [False, False, False, False, True, False, True, True]
        events = self.check(self.raw(cfg, inside, np.ones(8)), cfg)
        assert events.convergence_time == 4 * self.DT
        cfg = self.config(8, dwell=0)
        events = self.check(self.raw(cfg, [True] + [False] * 7, np.ones(8)),
                            cfg)
        assert events.convergence_time == 0.0

    def test_wrap_equals_scalar_wrap_bit_for_bit(self):
        rng = np.random.default_rng(2)
        edges = [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -3.0 * math.pi,
                 np.nextafter(math.pi, 4.0), np.nextafter(-math.pi, -4.0),
                 1e-300, -1e-300, 1e6, -1e6]
        x = np.concatenate((edges, rng.uniform(-20.0, 20.0, 5000),
                            rng.normal(0.0, 1e4, 500)))
        got = sim._wrap_angles(x)
        want = [wrap_angle(v) for v in x.tolist()]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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
