"""Waypoint governor: ball radii, backtracking chains, switching supervisor."""

import dataclasses
import math

import numpy as np
import pytest

import tautuav as tu
from tautuav import governor
from tautuav.governor import (InfeasibleRadiiError, PlanError,
                              _radii_for_tension)

from conftest import sample_attainable


def plan_offsets_within_balls(plan):
    """Every consecutive waypoint offset lies inside the predecessor's ball."""
    for prev, nxt in zip(plan.waypoints, plan.waypoints[1:]):
        if abs(nxt.sp.alpha_bar - prev.sp.alpha_bar) > prev.dx_alpha + 1e-12:
            return False
        if abs(nxt.sp.theta_bar - prev.sp.theta_bar) > prev.dx_theta + 1e-12:
            return False
    return True


class TestBallRadii:
    def test_radii_floor_domination(self, plant, gains, default_certificate):
        cert, env = default_certificate
        floor = tu.min_radii(gains, plant, cert, env)
        assert floor[0] > 0.0 and floor[1] > 0.0
        rng = np.random.default_rng(21)
        for _ in range(50):
            sp = sample_attainable(rng, gains.eps, plant)
            radii = tu.ball_radii(sp, gains, plant, cert, env)
            assert radii[0] >= floor[0] - 1e-15
            assert radii[1] >= floor[1] - 1e-15

    def test_radii_monotone_and_saturating_in_tension(self, plant, gains,
                                                      default_certificate):
        cert, env = default_certificate
        values = [_radii_for_tension(t, gains, plant, cert, env)
                  for t in (0.5, 1.0, 3.0, 10.0, 1e3, 1e6, 1e7)]
        for (a1, t1), (a2, t2) in zip(values, values[1:]):
            assert a2 >= a1 and t2 >= t1
        # saturation: the attitude-budget cap binds for huge tensions
        assert values[-1][1] == pytest.approx(values[-2][1], rel=1e-3)

    def test_tension_ratio_limit_monotone_to_one(self, plant, gains):
        feed = plant.m * gains.lambda1
        c = math.sqrt(2.0) * plant.m * plant.g + feed
        ratios = [t / (t + c) for t in (1.0, 10.0, 100.0, 1e4, 1e8)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_tension(self, plant, gains, default_certificate):
        cert, env = default_certificate
        with pytest.raises(InfeasibleRadiiError):
            _radii_for_tension(0.0, gains, plant, cert, env)

    def test_min_radii_requires_positive_margin(self, plant, default_certificate):
        cert, env = default_certificate
        g0 = tu.GainConfig(eps=0.0)
        with pytest.raises(InfeasibleRadiiError, match="eps"):
            tu.min_radii(g0, plant, cert, env)

    def test_min_radii_monotone_in_margin(self, plant, default_certificate):
        cert, env = default_certificate
        r1 = tu.min_radii(tu.GainConfig(eps=0.5), plant, cert, env)
        r2 = tu.min_radii(tu.GainConfig(eps=1.5), plant, cert, env)
        assert r2[0] >= r1[0] and r2[1] >= r1[1]

    def test_requires_established_certificate(self, plant, gains,
                                              default_certificate):
        import dataclasses

        cert, env = default_certificate
        broken = dataclasses.replace(cert, small_gain_ok=False)
        with pytest.raises(InfeasibleRadiiError, match="small-gain"):
            tu.ball_radii(tu.Setpoint(1.0, 0.4, 0.2), gains, plant, broken, env)


class TestBacktrackPlan:
    def test_identity_plan(self, plant, gains, default_certificate):
        cert, env = default_certificate
        sp = tu.Setpoint(0.8, 0.5, 0.2)
        plan = tu.backtrack_plan(sp, sp, gains, plant, cert, env)
        assert len(plan.waypoints) == 1
        assert plan.waypoints[0].sp == sp

    def test_direct_reachability_single_waypoint(self, plant, gains,
                                                 default_certificate):
        cert, env = default_certificate
        final = tu.Setpoint(0.8, 0.5, 0.2)
        radii = tu.ball_radii(final, gains, plant, cert, env)
        start = tu.Setpoint(0.8, 0.5 + 0.2 * radii[0], 0.2 + 0.2 * radii[1])
        assert tu.is_attainable(start, gains.eps, plant)
        plan = tu.backtrack_plan(start, final, gains, plant, cert, env)
        assert len(plan.waypoints) == 1

    def test_reference_mission_plan(self, plant, gains, default_certificate,
                                    start_setpoint, ref_setpoint):
        cert, env = default_certificate
        plan = tu.backtrack_plan(start_setpoint, ref_setpoint, gains, plant,
                                 cert, env)
        assert len(plan.waypoints) > 2
        assert plan.waypoints[0].sp == ref_setpoint
        # the chain crosses the vertical apex of the two-segment path
        assert any(w.sp.alpha_bar == math.pi / 2.0 and w.sp.theta_bar == 0.0
                   for w in plan.waypoints)
        assert plan_offsets_within_balls(plan)
        s = [w.s for w in plan.waypoints]
        assert all(b > a for a, b in zip(s, s[1:]))
        # last waypoint is start-adjacent: the start offset fits its ball
        last = plan.waypoints[-1]
        assert abs(start_setpoint.alpha_bar - last.sp.alpha_bar) <= last.dx_alpha
        assert abs(start_setpoint.theta_bar - last.sp.theta_bar) <= last.dx_theta

    @pytest.mark.parametrize("eps", [0.25, 1.0, 2.0])
    def test_vertical_crossing_radii_clear_the_floor(
            self, plant, default_bundle, start_setpoint, ref_setpoint, eps):
        """min_radii floors every waypoint's radii, the apex's too: its
        tension is the hover tension, which GainConfig keeps above eps."""
        from tautuav.cli import _certificate

        g = tu.GainConfig(eps=eps)
        cert, env, _ = _certificate(plant, g, default_bundle[2],
                                    estimate=False)
        plan = tu.backtrack_plan(start_setpoint, ref_setpoint, g, plant,
                                 cert, env)
        assert any(w.sp.alpha_bar == math.pi / 2.0 for w in plan.waypoints)
        d_alpha, d_theta = plan.min_radii
        for w in plan.waypoints:
            assert w.dx_alpha >= d_alpha and w.dx_theta >= d_theta

    def test_growth_proxy_centers_separate(self, plant, gains,
                                           default_certificate, start_setpoint,
                                           ref_setpoint):
        cert, env = default_certificate
        plan = tu.backtrack_plan(start_setpoint, ref_setpoint, gains, plant,
                                 cert, env)
        for prev, nxt in zip(plan.waypoints, plan.waypoints[1:]):
            sep = math.hypot(nxt.sp.alpha_bar - prev.sp.alpha_bar,
                             nxt.sp.theta_bar - prev.sp.theta_bar)
            assert sep > 0.0

    def test_waypoint_cap(self, plant, gains, default_certificate,
                          start_setpoint, ref_setpoint, monkeypatch):
        cert, env = default_certificate
        monkeypatch.setattr(governor, "MAX_WAYPOINTS", 3)
        with pytest.raises(PlanError, match="exceeded 3"):
            tu.backtrack_plan(start_setpoint, ref_setpoint, gains, plant,
                              cert, env)

    @pytest.mark.parametrize("seed, halves", [
        (31, ("low", "low")), (32, ("high", "high")),
        (33, ("low", "high")), (34, ("high", "low"))])
    def test_offsets_keep_half_the_floor(self, plant, gains,
                                         default_certificate, seed, halves):
        """Each step is the predecessor's radius minus half the floor, so
        every offset clears the ball by floor/2 on both axes; the ball
        containment check behind it can therefore never fail."""
        cert, env = default_certificate
        rng = np.random.default_rng(seed)
        for _ in range(30):
            start = sample_attainable(rng, gains.eps, plant, half=halves[0])
            final = sample_attainable(rng, gains.eps, plant, half=halves[1])
            plan = tu.backtrack_plan(start, final, gains, plant, cert, env)
            d_alpha, d_theta = plan.min_radii
            for prev, nxt in zip(plan.waypoints, plan.waypoints[1:]):
                assert (abs(nxt.sp.alpha_bar - prev.sp.alpha_bar)
                        <= prev.dx_alpha - d_alpha / 2.0 + 1e-12)
                assert (abs(nxt.sp.theta_bar - prev.sp.theta_bar)
                        <= prev.dx_theta - d_theta / 2.0 + 1e-12)

    def test_radial_only_move_needs_no_intermediates(self, plant, gains,
                                                     default_certificate):
        cert, env = default_certificate
        final = tu.Setpoint(0.5, 0.6, 0.15)
        start = tu.Setpoint(1.2, 0.6, 0.15)
        plan = tu.backtrack_plan(start, final, gains, plant, cert, env)
        assert len(plan.waypoints) == 1


class TestSwitching:
    def test_ready_at_equilibrium(self):
        wp = tu.Waypoint(tu.Setpoint(1.0, 0.5, 0.2), s=0.0,
                         dx_alpha=0.1, dx_theta=0.05)
        state = (1.0, 0.0, 0.5, 0.0, 0.2, 0.0)
        assert tu.switch_ready(state, wp)

    def test_rate_term_blocks(self):
        wp = tu.Waypoint(tu.Setpoint(1.0, 0.5, 0.2), s=0.0,
                         dx_alpha=0.1, dx_theta=0.05)
        state = (1.0, 0.0, 0.5, 0.2, 0.2, 0.0)  # alpha_dot too big
        assert not tu.switch_ready(state, wp)
        state2 = (1.0, 0.0, 0.5, 0.0, 0.2, 0.06)  # theta_dot too big
        assert not tu.switch_ready(state2, wp)
        # each ball is closed: a state on its rim is admitted
        assert tu.switch_ready((1.0, 0.0, 0.5, 0.0, 0.2, 0.05), wp)

    def test_becomes_ready_in_finite_time(self, plant, gains,
                                          default_certificate):
        """Tracking waypoint k, the state enters waypoint k-1's ball."""
        cert, env = default_certificate
        final = tu.Setpoint(0.8, 0.7, 0.1)
        start = tu.Setpoint(0.8, 1.1, 0.05)
        plan = tu.backtrack_plan(start, final, gains, plant, cert, env)
        assert len(plan.waypoints) >= 2
        active = plan.waypoints[-1]
        target = plan.waypoints[-2]
        cfg = tu.SimConfig(mode=tu.ScenarioMode.INNER_NO_RG, t_final=4.0,
                           initial=tu.FullState.initial(
                               start.r_bar, start.alpha_bar, start.theta_bar),
                           reference=active.sp)
        log = tu.run_scenario(cfg, gains, plant)
        ready = [tu.switch_ready(
            (log.r[i], log.r_dot[i], log.alpha[i], log.alpha_dot[i],
             log.theta[i], log.theta_dot[i]), target) for i in range(len(log))]
        assert any(ready)

    def test_governor_jumps_to_final_from_inside(self, plant, gains,
                                                 default_certificate):
        cert, env = default_certificate
        final = tu.Setpoint(0.8, 0.7, 0.1)
        start = tu.Setpoint(0.8, 1.3, 0.03)
        plan = tu.backtrack_plan(start, final, gains, plant, cert, env)
        state = (final.r_bar, 0.0, final.alpha_bar, 0.0, final.theta_bar, 0.0)
        assert tu.governor_step(state, plan, len(plan.waypoints) - 1) == 0

    def test_governor_holds_when_far(self, plant, gains, default_certificate):
        cert, env = default_certificate
        final = tu.Setpoint(0.8, 0.7, 0.1)
        start = tu.Setpoint(0.8, 1.3, 0.03)
        plan = tu.backtrack_plan(start, final, gains, plant, cert, env)
        last = len(plan.waypoints) - 1
        state = (start.r_bar, 0.0, start.alpha_bar, 1.5,
                 start.theta_bar, 0.0)  # large rates: no ball admits
        assert tu.governor_step(state, plan, last) == last


    @pytest.mark.parametrize("widest_first", [False, True])
    def test_rate_prefilter_matches_plain_scan(self, rg_bundle, widest_first):
        """States on, just inside and just outside the ball rims, and pure
        rates on the plan's largest radii: the supervisor, whose rate
        prefilter skips the scan, agrees with a plain scan of the balls.
        The reference plan's largest balls are at its far end, where no
        scan reaches; with the radii reversed they are at the final
        reference, where every scan does."""
        plan = rg_bundle[0]
        if widest_first:
            wps = plan.waypoints
            plan = tu.WaypointPlan(tuple(
                dataclasses.replace(w, dx_alpha=v.dx_alpha, dx_theta=v.dx_theta)
                for w, v in zip(wps, wps[::-1])), plan.min_radii)
        wps = plan.waypoints
        assert plan.rate_bounds == (max(w.dx_alpha ** 2 for w in wps),
                                    max(w.dx_theta ** 2 for w in wps))
        rng = np.random.default_rng(5)
        scales = (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5)
        states = []
        for _ in range(3000):
            w = wps[int(rng.integers(len(wps)))]
            sa, st = rng.choice(scales, 2)
            pa, pt = rng.uniform(0.0, 2.0 * math.pi, 2)
            states.append((
                w.sp.r_bar, 0.0,
                w.sp.alpha_bar + sa * w.dx_alpha * math.cos(pa),
                sa * w.dx_alpha * math.sin(pa),
                w.sp.theta_bar + st * w.dx_theta * math.cos(pt),
                st * w.dx_theta * math.sin(pt)))
        wide_a = max(wps, key=lambda w: w.dx_alpha)
        wide_t = max(wps, key=lambda w: w.dx_theta)
        for sign in (1.0, -1.0):
            for scale in scales:
                states.append((wide_a.sp.r_bar, 0.0, wide_a.sp.alpha_bar,
                               sign * scale * wide_a.dx_alpha,
                               wide_a.sp.theta_bar, 0.0))
                states.append((wide_t.sp.r_bar, 0.0, wide_t.sp.alpha_bar,
                               0.0, wide_t.sp.theta_bar,
                               sign * scale * wide_t.dx_theta))
        outcomes = {"filtered": 0, "switched": 0, "held": 0}
        for y in states:
            i = int(rng.integers(1, len(wps)))
            got = tu.governor_step(y, plan, i)
            want = next((k for k in range(i) if tu.switch_ready(y, wps[k])),
                        None)
            if want is None:
                assert got == i
                outcomes["held"] += 1
            else:
                assert got == want
                outcomes["switched"] += 1
            if (y[3] ** 2 > plan.rate_bounds[0]
                    or y[5] ** 2 > plan.rate_bounds[1]):
                outcomes["filtered"] += 1
        assert min(outcomes.values()) > 100


class TestGovernedRun:
    def test_reference_mission_is_safe_and_converges(self, rg_bundle, plant,
                                                     gains):
        plan, cert, env, log = rg_bundle
        assert log.tension.min() > 0.0
        assert log.events.convergence_time is not None
        # supervisor index trace is monotone non-increasing and reaches 0
        wp = log.waypoint
        assert (np.diff(wp) <= 0).all()
        assert wp[0] == len(plan.waypoints) - 1
        assert wp[-1] == 0
        assert 1 <= len(log.events.switch_times) <= len(plan.waypoints) - 1
        # the run records a switch at each row where the index drops
        drops = np.flatnonzero(np.diff(wp)) + 1
        assert log.events.switch_times == tuple(log.t[drops].tolist())

    def test_monitor_passes(self, rg_bundle, plant, gains):
        plan, cert, env, log = rg_bundle
        report = tu.monitor_invariants(log, gains, env, plant)
        assert report.all_passed, report.render()

    def test_mission_into_vertical_hover(self, plant, gains):
        """The singular vertical setpoint works as a governed final reference."""
        from tautuav.cli import _certificate

        start = tu.Setpoint(1.0, math.pi / 8.0, math.pi / 10.0)
        final = tu.Setpoint(0.6, math.pi / 2.0, 0.0)
        cfg = tu.SimConfig(
            mode=tu.ScenarioMode.INNER_WITH_RG, t_final=25.0,
            initial=tu.FullState.initial(start.r_bar, start.alpha_bar,
                                         start.theta_bar),
            reference=final)
        cert, env, _ = _certificate(plant, gains, cfg, estimate=False)
        plan = tu.backtrack_plan(start, final, gains, plant, cert, env)
        assert plan.waypoints[0].sp == final
        log = tu.run_scenario(cfg, gains, plant, plan=plan)
        assert log.tension.min() > 0.0
        assert log.events.convergence_time is not None
        # the hover leg settles at the configured vertical tension
        assert log.tension[-1] == pytest.approx(gains.hover_tension, abs=1e-2)


class TestTypes:
    def test_waypoint_validation(self):
        sp = tu.Setpoint(1.0, 0.5, 0.2)
        with pytest.raises(ValueError, match="positive"):
            tu.Waypoint(sp, s=0.0, dx_alpha=0.0, dx_theta=0.1)
        with pytest.raises(ValueError, match="s must"):
            tu.Waypoint(sp, s=1.5, dx_alpha=0.1, dx_theta=0.1)

    def test_plan_ordering_enforced(self):
        sp = tu.Setpoint(1.0, 0.5, 0.2)
        a = tu.Waypoint(sp, s=0.5, dx_alpha=0.1, dx_theta=0.1)
        b = tu.Waypoint(sp, s=0.2, dx_alpha=0.1, dx_theta=0.1)
        with pytest.raises(ValueError, match="increase"):
            tu.WaypointPlan(waypoints=(a, b), min_radii=(0.05, 0.05))

    def test_governor_state_bounds_checked(self, rg_bundle):
        plan, _, _, _ = rg_bundle
        state = (1.0, 0.0, 0.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="active_index"):
            tu.governor_step(state, plan, 99)
