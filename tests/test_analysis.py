"""Certification math: envelopes, restrictions, gains, small-gain bounds."""

import dataclasses
import math

import numpy as np
import pytest

import tautuav as tu
from tautuav import analysis
from tautuav.analysis import SmallGainError

from conftest import simulate_radial_batch
from oracles import empirical_inner_peak_gain, error_terms


def tv_gamma_in(zeta: float, k_pt: float) -> float:
    """Independent closed form for the impulse-response L1 norm.

    The integrand is the derivative of g(t) = exp(-zeta*q*t)*sin(w*t)/w, so
    its L1 norm is the total variation of g: extrema at w*t = acos(zeta)+k*pi
    with |g| = exp(-zeta*q*t)/q there, summing to a geometric series.
    """
    q = math.sqrt(k_pt)
    e0 = math.exp(-zeta * math.acos(zeta) / math.sqrt(1.0 - zeta ** 2))
    rho = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta ** 2))
    return 2.0 * e0 / (q * (1.0 - rho))


class TestRadialEnvelope:
    def test_reference_experiment_branch(self, gains):
        env = tu.radial_envelope(1.0, 0.0, 0.5, gains)
        assert env.r_star == 1.0
        assert env.r_min == 0.5
        assert env.r_max == 1.0
        assert env.vel_bound == pytest.approx(
            max(gains.lambda1, gains.lambda2) / gains.k_dr)

    def test_degenerate_at_target(self, gains):
        env = tu.radial_envelope(0.8, 0.0, 0.8, gains)
        assert env.r_min == env.r_max == env.r_star == 0.8

    def test_rejects_excess_initial_speed(self, gains):
        with pytest.raises(ValueError, match="lambda1/k_dr"):
            tu.radial_envelope(1.0, 2.0 * gains.lambda1 / gains.k_dr, 0.5, gains)

    def test_overshoot_branch_matches_simulation(self, gains):
        # inward speed with tiny offset: the critically damped solution overshoots
        r0, rdot0, r_bar = 0.801, -0.03, 0.8
        assert math.sqrt(gains.k_pr) * (r0 - r_bar) + rdot0 < 0.0
        env = tu.radial_envelope(r0, rdot0, r_bar, gains)
        assert env.tau_star > 0.0
        assert env.r_min == env.r_star < r_bar
        rs, _ = simulate_radial_batch([r0], [rdot0], [r_bar], gains, t_final=4.0)
        assert rs.min() == pytest.approx(env.r_star, abs=1e-6)
        assert rs.min() >= env.r_min - 1e-6

    def test_envelope_soundness_random(self, gains):
        rng = np.random.default_rng(12)
        n = 100
        r0 = rng.uniform(0.2, 2.0, n)
        r_bar = rng.uniform(0.2, 2.0, n)
        v_adm = gains.lambda1 / gains.k_dr
        rdot0 = rng.uniform(-v_adm, v_adm, n)
        envs = [tu.radial_envelope(float(r0[i]), float(rdot0[i]),
                                   float(r_bar[i]), gains) for i in range(n)]
        rs, vs = simulate_radial_batch(r0, rdot0, r_bar, gains,
                                       t_final=20.0 / math.sqrt(gains.k_pr))
        lo = np.array([e.r_min for e in envs])
        hi = np.array([e.r_max for e in envs])
        assert (rs >= lo - 1e-6).all()
        assert (rs <= hi + 1e-6).all()
        assert np.abs(vs).max() <= max(gains.lambda1, gains.lambda2) / gains.k_dr + 1e-9

    def test_mission_envelope_covers_references(self, gains):
        env = analysis.mission_radial_envelope(1.0, 0.0, [0.5, 0.75, 1.0], gains)
        assert env.r_min < 0.5
        assert env.r_max > 1.0


class TestRestrictionAndBudget:
    def test_restriction_value(self):
        g = tu.GainConfig(theta_tilde_max=0.5, nu=0.5)
        assert tu.restriction_r(g) == pytest.approx(17.66923876936028, rel=1e-12)

    def test_restriction_linear_in_nu(self):
        g1 = tu.GainConfig(nu=0.2, theta_tilde_max=0.7)
        g2 = tu.GainConfig(nu=0.4, theta_tilde_max=0.7)
        assert tu.restriction_r(g2) == pytest.approx(2.0 * tu.restriction_r(g1),
                                                     rel=1e-12)

    def test_restriction_decreasing_in_budget(self):
        values = [tu.restriction_r(tu.GainConfig(theta_tilde_max=t))
                  for t in (0.3, 0.6, 0.9, 1.2, 1.5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_budget_bracket_signs(self):
        # at x=0 the cubic side vanishes and -b(1-x)^2 < 0; at x=1 it equals a > 0
        for zeta, nu in ((0.9, 0.5), (0.5, 0.2), (1.0, 0.0)):
            a = (1 - nu) ** 2 * zeta ** 2
            b = 0.25 * (1 + 2 * (1 - nu) ** 2 * zeta ** 2) ** 2
            assert a * 0.0 ** 3 - b * 1.0 ** 2 < 0.0
            assert a * 1.0 ** 3 - b * 0.0 ** 2 > 0.0

    def test_budget_boundary_example(self):
        root = tu.theta_budget(1.0, 0.0)
        assert 0.6 < root < 0.7
        assert root == pytest.approx(0.6503518160382802, abs=1e-8)

    def test_budget_root_flips_inequality(self):
        for zeta, nu in ((0.9, 0.5), (0.7, 0.3)):
            root = tu.theta_budget(zeta, nu)
            a = (1 - nu) ** 2 * zeta ** 2
            b = 0.25 * (1 + 2 * (1 - nu) ** 2 * zeta ** 2) ** 2
            f = lambda x: a * x ** 3 - b * (1 - x) ** 2
            assert f(root + 1e-6) > 0.0
            assert f(root - 1e-6) < 0.0

    def test_budget_monotone_in_ratio(self):
        """The root grows with b/a: a harder damping inequality needs more budget."""
        entries = []
        for nu in (0.0, 0.2, 0.4, 0.6, 0.8):
            zeta = 0.9
            a = (1 - nu) ** 2 * zeta ** 2
            b = 0.25 * (1 + 2 * a) ** 2
            entries.append((b / a, tu.theta_budget(zeta, nu)))
        entries.sort()
        roots = [r for _, r in entries]
        assert all(y > x for x, y in zip(roots, roots[1:]))

    def test_default_budget_clears_root(self, gains):
        assert gains.theta_tilde_max > tu.theta_budget(gains.zeta, gains.nu)


class TestInnerGain:
    def test_bound_reference_value(self):
        g = tu.GainConfig(k_pt=200.0, zeta=0.9)
        assert tu.gamma_in_bound(g) == pytest.approx(0.07856742013183861, rel=1e-12)

    def test_bound_inverse_square_root(self):
        g1 = tu.GainConfig(k_pt=100.0, zeta=0.8)
        g2 = tu.GainConfig(k_pt=400.0, zeta=0.8)
        assert tu.gamma_in_bound(g2) == pytest.approx(tu.gamma_in_bound(g1) / 2.0,
                                                      rel=1e-12)

    def test_l1_matches_total_variation_oracle(self):
        for zeta in (0.3, 0.6, 0.9, 0.99):
            for k_pt in (10.0, 200.0, 900.0):
                g = tu.GainConfig(k_pt=k_pt, zeta=zeta)
                quad = tu.gamma_in_l1(g)
                assert quad == pytest.approx(tv_gamma_in(zeta, k_pt),
                                             rel=1e-5, abs=1e-9)

    def test_l1_below_bound_small_grid(self):
        for zeta in (0.2, 0.5, 0.8, 0.99):
            for k_pt in (2.0, 50.0, 1000.0):
                g = tu.GainConfig(k_pt=k_pt, zeta=zeta)
                assert tu.gamma_in_bound(g) - tu.gamma_in_l1(g) >= 0.0

    def test_l1_near_critical_damping_stays_bounded(self):
        g = tu.GainConfig(k_pt=200.0, zeta=0.99)
        q = math.sqrt(200.0)
        assert tu.gamma_in_l1(g) <= 1.0 / (0.99 * q) + 1e-6

    def test_l1_time_scaling(self):
        # quadrupling the stiffness halves the time scale and the norm
        g1 = tu.GainConfig(k_pt=100.0, zeta=0.6)
        g2 = tu.GainConfig(k_pt=400.0, zeta=0.6)
        assert tu.gamma_in_l1(g2) == pytest.approx(tu.gamma_in_l1(g1) / 2.0,
                                                   rel=1e-6)

    def test_l1_cached_on_stiffness_damping_and_grid(self):
        analysis._impulse_l1.cache_clear()
        g = tu.GainConfig()
        first = tu.gamma_in_l1(g)
        assert analysis._impulse_l1.cache_info().misses == 1
        assert tu.gamma_in_l1(g) == first
        assert tu.gamma_in_l1(dataclasses.replace(g, gamma_out=1.5)) == first
        assert analysis._impulse_l1.cache_info().hits == 2
        for other in (dataclasses.replace(g, zeta=0.8),
                      dataclasses.replace(g, k_pt=300.0)):
            misses = analysis._impulse_l1.cache_info().misses
            value = tu.gamma_in_l1(other)
            assert analysis._impulse_l1.cache_info().misses == misses + 1
            assert value != first
            assert value == pytest.approx(tv_gamma_in(other.zeta, other.k_pt),
                                          rel=1e-5)

    def test_empirical_peak_below_l1(self, gains):
        q = math.sqrt(gains.k_pt)
        freqs = q * np.logspace(-1.0, 0.7, 12)
        peak = empirical_inner_peak_gain(gains, freqs=freqs)
        assert peak <= tu.gamma_in_l1(gains) + 1e-3
        # the peak is near the resonant value 1/(2*zeta*q)
        assert peak == pytest.approx(1.0 / (2.0 * gains.zeta * q), rel=0.05)


class TestLambda1Bound:
    def test_identity_with_restriction(self, gains):
        for r_min in (0.2, 0.5, 1.0):
            assert tu.lambda1_bound(gains, r_min) == pytest.approx(
                tu.restriction_r(gains) * gains.k_dr * r_min, rel=1e-12)

    def test_reference_gains_pass(self, gains):
        bound = tu.lambda1_bound(gains, r_min=0.5)
        assert bound > 0.0
        assert gains.lambda1 < bound

    def test_proportional_to_radius(self, gains):
        assert tu.lambda1_bound(gains, 1e-9) < 1e-6


class TestSmallGain:
    def test_zero_initials(self, gains):
        cert = tu.small_gain_certificate(gains, gamma_out=2.0,
                                         x_alpha0=0.0, x_theta0=0.0, r_min=0.5)
        assert cert.bound_alpha == 0.0
        assert cert.bound_theta == 0.0
        assert cert.init_ok
        assert cert.small_gain_ok

    def test_worked_bound_matrix(self, gains):
        cert = tu.small_gain_certificate(gains, gamma_out=1.0, x_alpha0=0.1,
                                         x_theta0=0.05, r_min=0.5,
                                         gamma_in=0.5)
        assert cert.bound_alpha == pytest.approx(0.3, rel=1e-12)
        assert cert.bound_theta == pytest.approx(0.2, rel=1e-12)

    def test_gain_product_at_or_above_one_raises(self, gains):
        with pytest.raises(SmallGainError):
            tu.small_gain_certificate(gains, gamma_out=2.0, x_alpha0=0.0,
                                      x_theta0=0.0, r_min=0.5, gamma_in=0.5)

    @pytest.mark.parametrize("gamma_out", [math.nan, math.inf])
    def test_rejects_non_finite_outer_gain(self, gains, gamma_out):
        with pytest.raises(ValueError, match="^gamma_out must be non-negative"):
            tu.small_gain_certificate(gains, gamma_out=gamma_out, x_alpha0=0.0,
                                      x_theta0=0.0, r_min=0.5)

    def test_stiffness_condition_flag(self, gains):
        cert = tu.small_gain_certificate(gains, gamma_out=14.0, x_alpha0=0.0,
                                         x_theta0=0.0, r_min=0.5)
        # k_pt = 200 < (14/0.9)^2 = 242: inner loop not stiff enough
        assert not cert.small_gain_ok

    def test_init_ball_value(self, gains):
        cert = tu.small_gain_certificate(gains, gamma_out=2.0, x_alpha0=0.0,
                                         x_theta0=0.0, r_min=0.5)
        product = cert.gamma_in * 2.0
        assert cert.init_ball == pytest.approx(
            (1.0 - product) * gains.theta_tilde_max, rel=1e-12)


class TestErrorTerms:
    def test_zero_pitch_error(self, plant):
        state = tu.FullState(0.8, 0.1, 1.0, 0.5, 0.0, 0.0)
        t_bar = 3.0
        delta, gamma, t_pred = error_terms(state, t_bar, 0.0,
                                           u_t=10.0, u_alpha=-4.0, p=plant)
        assert delta == 0.0
        assert gamma == 0.0
        assert t_pred == pytest.approx(
            t_bar + plant.m * state.r * state.alpha_dot ** 2, rel=1e-12)

    def test_small_error_linearization(self, plant):
        state = tu.FullState(0.8, 0.1, 1.0, 0.5, 0.0, 0.0)
        tt = 1e-5
        _, gamma, _ = error_terms(state, 3.0, tt, u_t=10.0,
                                  u_alpha=-4.0, p=plant)
        assert gamma == pytest.approx(-10.0 * tt / (plant.m * state.r), rel=1e-4)

    def test_prediction_matches_raw_tension_along_run(self, plant, gains,
                                                      no_rg_log, ref_setpoint):
        t_bar = tu.equilibrium_tension(ref_setpoint, plant)
        log = no_rg_log
        for i in range(0, len(log), 53):
            state = tu.FullState(log.r[i], log.r_dot[i], log.alpha[i],
                                 log.alpha_dot[i], log.theta[i], log.theta_dot[i])
            diag = tu.evaluate(state, ref_setpoint, gains, plant)[3]
            theta_err = state.theta - diag.theta_c
            _, _, t_pred = error_terms(state, t_bar, theta_err,
                                       diag.u_t, diag.u_alpha, plant)
            assert t_pred == pytest.approx(log.tension[i], abs=1e-8)


def sweep_model(sp, g, p, freqs):
    """The forced elevation error dynamics that estimate_gamma_out sweeps
    over ``freqs``: the derivative of ``[a_err; a_dot]``, the commanded
    pitch and the magnitude of its rate by the chain rule, in the sweep's
    float operations."""
    t_bar = tu.equilibrium_tension(sp, p, hover_tension=g.hover_tension)
    amp = g.theta_tilde_max
    r = sp.r_bar

    def deriv(t, y):
        a_err, a_dot = y
        tt = amp * np.sin(freqs * t)
        cos_tt = np.cos(tt)
        alpha = sp.alpha_bar + a_err
        u_t = t_bar + p.m * p.g * np.sin(alpha)
        gam = ((p.g * np.cos(alpha) / r) * (cos_tt - 1.0)
               - u_t * np.sin(tt) / (p.m * r))
        return a_dot, -(g.k_pa * a_err + g.k_da * a_dot) * cos_tt + gam

    def theta_c(a_err, a_dot):
        alpha = sp.alpha_bar + a_err
        u_t = t_bar + p.m * p.g * np.sin(alpha)
        u_alpha = (p.m * p.g * np.cos(alpha)
                   - p.m * r * (g.k_pa * a_err + g.k_da * a_dot))
        return math.pi / 2.0 - alpha - np.arctan2(u_alpha, u_t)

    def rate(a_err, a_dot, a_ddot):
        alpha = sp.alpha_bar + a_err
        sin_a, cos_a = np.sin(alpha), np.cos(alpha)
        u_t = t_bar + p.m * p.g * sin_a
        u_alpha = (p.m * p.g * cos_a
                   - p.m * r * (g.k_pa * a_err + g.k_da * a_dot))
        du_t = p.m * p.g * cos_a * a_dot
        du_alpha = (-p.m * p.g * sin_a * a_dot
                    - p.m * r * (g.k_pa * a_dot + g.k_da * a_ddot))
        return np.abs(-a_dot - (u_t * du_alpha - u_alpha * du_t)
                      / (u_t * u_t + u_alpha * u_alpha))

    return deriv, theta_c, rate


def vertex(r0, r1, r2):
    """Top of the parabola through three equally spaced rates where ``r1``
    is a local maximum with positive curvature, else ``r1``."""
    curv = 2.0 * r1 - r0 - r2
    top = (r1 >= r0) & (r1 >= r2) & (curv > 0.0)
    return np.where(top, r1 + (r2 - r0) ** 2 / (8.0 * np.where(top, curv, 1.0)),
                    r1)


def band_split(g, freqs):
    """The settling time and the two bands of estimate_gamma_out's grid."""
    t_settle = 8.0 / (g.zeta * math.sqrt(g.k_pa))
    slow = freqs <= 10.0 * math.pi / t_settle
    return t_settle, [band for band in (freqs[slow], freqs[~slow]) if band.size]


def direct_gamma_out(sp, g, p, freqs):
    """One band of the sweep of estimate_gamma_out, written as one
    plant.rk4_step per step with the rate and vertex read after every step.

    Returns the per-frequency peaks and largest samples, the final
    ``[a_err; a_dot]``, the step and its count, the first settled step and, per
    frequency, the state index of the middle rate of the largest vertex.
    """
    deriv, _, rate_of = sweep_model(sp, g, p, freqs)
    t_settle = 8.0 / (g.zeta * math.sqrt(g.k_pa))
    t_final = t_settle + 4.0 * 2.0 * math.pi / freqs.min()
    dt = min(2.0 * math.pi / freqs.max() / 80.0, t_settle / 400.0)
    n = int(math.ceil(t_final / dt))

    y = (np.zeros_like(freqs), np.zeros_like(freqs))
    peak, sample_peak, top = (np.zeros_like(freqs) for _ in range(3))
    last = []  # the last two settled rates
    t = 0.0
    first_settled = None
    for k in range(n):
        y = tu.rk4_step(deriv, t, y, dt)
        t += dt
        if t >= t_settle:
            first_settled = k if first_settled is None else first_settled
            rate = rate_of(*y, deriv(t, y)[1])
            np.maximum(sample_peak, rate, out=sample_peak)
            np.maximum(peak, rate, out=peak)
            if len(last) == 2:
                v = vertex(*last, rate)
                top[v > peak] = k  # state k lies between states k - 1, k + 1
                np.maximum(peak, v, out=peak)
            last = [*last[-1:], rate]
    return dict(peak=peak, sample_peak=sample_peak, final=np.array(y), dt=dt,
                n=n, settled=first_settled, top=top)


class TestEstimateGammaOut:
    """The chunked, in-place sweep equals the direct RK4 loop bit for bit in
    each band: the peak at every frequency and the final state, not only the
    estimate, which is blind to changes below one ulp of the pitch rate."""

    @staticmethod
    def check(sp, g, p, freqs):
        t_bar = tu.equilibrium_tension(sp, p, hover_tension=g.hover_tension)
        t_settle, bands = band_split(g, freqs)
        runs = []
        for band in bands:
            want = direct_gamma_out(sp, g, p, band)
            got_peak, got_final = analysis._gamma_out_sweep(sp, g, p, band,
                                                            t_bar, t_settle)
            assert got_peak.tobytes() == want["peak"].tobytes()
            assert got_final.tobytes() == want["final"].tobytes()
            runs.append(want)
        assert (analysis.estimate_gamma_out(sp, g, p, freqs=freqs)
                == 2.0 * max(float(w["peak"].max()) for w in runs)
                / g.theta_tilde_max)
        return runs

    @pytest.mark.parametrize("index, zeta", [(0, 0.1), (12, 0.9), (24, 0.9)])
    def test_single_default_frequency(self, plant, gains, ref_setpoint,
                                      index, zeta):
        # the lowest entry's sweep is settling-limited: 18k steps at the
        # default damping, 2.4k at zeta = 0.1
        g = dataclasses.replace(gains, zeta=zeta)
        grid = math.sqrt(g.k_pa) * np.logspace(-1.2, 1.2, 25)
        self.check(ref_setpoint, g, plant, grid[index:index + 1])

    def test_sweep_shorter_than_one_chunk(self, plant, gains, ref_setpoint,
                                          monkeypatch):
        monkeypatch.setattr(analysis, "SWEEP_CHUNK", 1024)
        [run] = self.check(ref_setpoint, gains, plant,
                           math.sqrt(gains.k_pa) * np.array([3.0, 3.3, 3.5]))
        assert run["n"] < analysis.SWEEP_CHUNK

    def test_settling_inside_a_ragged_chunk(self, plant, gains, ref_setpoint):
        [run] = self.check(ref_setpoint, gains, plant,
                           math.sqrt(gains.k_pa) * np.array([3.0, 3.5]))
        assert run["n"] % analysis.SWEEP_CHUNK
        assert run["settled"] % analysis.SWEEP_CHUNK

    def test_grid_across_the_band_split(self, plant, gains, ref_setpoint):
        # f_cap is 3.54 sqrt(k_pa) at the default damping: the slow band
        # steps at the settling cap, the fast band at 1/80 of its own period
        slow, fast = self.check(ref_setpoint, gains, plant,
                                math.sqrt(gains.k_pa) * np.array([2.0, 4.0, 6.0]))
        assert fast["dt"] < slow["dt"] == 8.0 / (gains.zeta * math.sqrt(
            gains.k_pa)) / 400.0

    @pytest.mark.parametrize("offset", [0, 1])
    def test_local_maximum_straddling_a_chunk_boundary(
            self, plant, gains, ref_setpoint, monkeypatch, offset):
        # a chunk ends at the winning triple's middle (offset 0) or first
        # (offset 1) state, so its vertex needs the rates carried over
        freqs = math.sqrt(gains.k_pa) * np.array([10.0])
        [band] = band_split(gains, freqs)[1]
        want = direct_gamma_out(ref_setpoint, gains, plant, band)
        assert want["peak"][0] > want["sample_peak"][0]
        monkeypatch.setattr(analysis, "SWEEP_CHUNK", int(want["top"][0]) - offset)
        self.check(ref_setpoint, gains, plant, freqs)


@pytest.mark.parametrize("freqs", [[], [0.0], [-5.0], [-5.0, 5.0],
                                   [math.nan], [5.0, math.inf]])
def test_estimate_gamma_out_rejects_bad_grid(plant, gains, ref_setpoint, freqs):
    with pytest.raises(ValueError, match="^freqs must be a non-empty grid of "
                                         "positive, finite frequencies, got "):
        analysis.estimate_gamma_out(ref_setpoint, gains, plant, freqs=freqs)


@pytest.mark.parametrize("freqs, steps", [
    ([1e-6], r"6\.195e\+09"),      # settling-limited step, 4 long periods
    ([1.0, 1e6], r"2\.066e\+07"),  # the slow band fits, the fast does not
], ids=["slow", "fast"])
def test_estimate_gamma_out_rejects_unbounded_sweep(
        plant, gains, ref_setpoint, monkeypatch, freqs, steps):
    def no_sweep(*args):
        raise AssertionError("a band was swept")

    monkeypatch.setattr(analysis, "_gamma_out_sweep", no_sweep)
    with pytest.raises(ValueError, match=f"need {steps} RK4 steps, more than "
                                         "MAX_SWEEP_STEPS = 10000000$"):
        analysis.estimate_gamma_out(ref_setpoint, gains, plant, freqs=freqs)


# estimate_gamma_out on the default grid by the single-band sweep with a
# backward-differenced pitch rate, which under-reads a peak between steps
BACKWARD_DIFFERENCE_ESTIMATE = {
    (30.0, 0.9): 2.7262258006399236,
    (10.0, 0.9): 2.8112950211187124,
    (100.0, 0.6): 5.93257888860952,
}


@pytest.mark.parametrize("k_pa, zeta", list(BACKWARD_DIFFERENCE_ESTIMATE))
def test_estimate_gamma_out_never_below_backward_difference(
        plant, gains, ref_setpoint, k_pa, zeta):
    old = BACKWARD_DIFFERENCE_ESTIMATE[k_pa, zeta]
    g = dataclasses.replace(gains, k_pa=k_pa, zeta=zeta)
    new = analysis.estimate_gamma_out(ref_setpoint, g, plant)
    assert old <= new <= old * (1.0 + 1e-3)


def test_chain_rule_rate_matches_centred_difference(plant, gains,
                                                    ref_setpoint):
    freqs = math.sqrt(gains.k_pa) * np.array([0.5, 2.0, 8.0])
    deriv, theta_c, rate = sweep_model(ref_setpoint, gains, plant, freqs)
    t_settle = 8.0 / (gains.zeta * math.sqrt(gains.k_pa))
    h = min(2.0 * math.pi / freqs.max() / 80.0, t_settle / 400.0) / 100.0
    t, y = 0.3, (np.full(3, 0.05), np.full(3, -0.2))
    states = [y]
    for _ in range(400):
        y = tu.rk4_step(deriv, t, y, h)
        t += h
        states.append(y)
    a_err, a_dot = np.array(states).transpose(1, 0, 2)
    a_ddot = np.array([deriv(0.3 + k * h, s)[1] for k, s in enumerate(states)])
    chain = rate(a_err, a_dot, a_ddot)[1:-1]
    theta = theta_c(a_err, a_dot)
    centred = np.abs(theta[2:] - theta[:-2]) / (2.0 * h)
    assert np.abs(chain - centred).max() <= 1e-6 * chain.max()


def test_estimate_gamma_out_sane(plant, gains, ref_setpoint):
    freqs = math.sqrt(gains.k_pa) * np.logspace(-0.7, 0.7, 8)
    value = analysis.estimate_gamma_out(ref_setpoint, gains, plant, freqs=freqs)
    assert 0.0 < value < 50.0
    assert math.isfinite(value)


def test_bound_matrix_is_not_transient_tight(plant, gains):
    """The linear bound matrix understates transient pitch-error peaks.

    The asymptotic-gain composition bounds steady behaviour, but an
    elevation-error transient drives the commanded pitch rate with an
    amplification well above the steady-state gain, so the literal
    initial-norm bound on the peak pitch error is exceeded in simulation.
    This pins why governed-mission safety is certified by the interior
    margins of the ball construction plus the end-to-end simulation suite,
    not by the bound matrix alone (see the project decision notes).
    """
    ref = tu.Setpoint(0.8, 2.2, -0.05)
    a_err0 = 0.05
    state = tu.FullState(ref.r_bar, 0.0, ref.alpha_bar + a_err0, 0.0, 0.0, 0.0)
    theta_c0 = tu.evaluate(state, ref, gains, plant)[3].theta_c
    init = tu.FullState(ref.r_bar, 0.0, ref.alpha_bar + a_err0, 0.0,
                        theta_c0 + 0.01, 0.0)
    cfg = tu.SimConfig(mode=tu.ScenarioMode.INNER_NO_RG, t_final=4.0,
                       initial=init, reference=ref)
    log = tu.run_scenario(cfg, gains, plant)
    peak_theta = np.hypot(log.theta - log.theta_c, log.theta_dot).max()
    cert = tu.small_gain_certificate(gains, gains.gamma_out,
                                     x_alpha0=a_err0, x_theta0=0.01, r_min=0.5)
    assert peak_theta > cert.bound_theta
    # the run itself stays healthy: taut throughout and convergent
    assert log.tension.min() > 0.0
    assert log.events.convergence_time is not None
