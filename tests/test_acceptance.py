"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s``
to see them live) and asserts the criterion at its stated tolerance.

Criterion 2 asserts the target first-violation window [1.0, 2.0] s as
stated.  With every pinned gain in place (k_pr = k_pa = 30, k_pt = 200,
zeta = 0.9 and the tied derivative gains), the violation is phase-locked to
the elevation transient at t ~ 0.52 s and no admissible convention moves it
into the window (the winch saturation levels shift it by < 0.04 s; slower
elevation gains remove the violation altogether), so this criterion
documents an irreproducible target rather than a code defect.  The full
analysis lives in the project decision notes.
"""

import math
import time

import numpy as np
import pytest

import tautuav as tu
from tautuav.cli import _certificate, parse_config

from conftest import sample_attainable, simulate_radial_batch
from oracles import empirical_inner_peak_gain


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def bundle():
    return parse_config("")


def test_criterion_01_ideal_attitude_reproduction(bundle):
    p, g, cfg = bundle
    assert (p.m, p.j_uav, p.rho) == (2.0, 0.015, 0.1)
    assert (g.k_pr, g.k_pa, g.k_pt, g.zeta) == (30.0, 30.0, 200.0, 0.9)
    t0 = time.perf_counter()
    log = tu.run_scenario(cfg, g, p)
    elapsed = time.perf_counter() - t0
    conv = log.events.convergence_time
    ok = (conv is not None and conv <= 10.0
          and log.tension.min() > 0.0 and elapsed < 5.0)
    report(1, ok, f"ideal attitude: converged at t={conv}, "
                  f"min tension={log.tension.min():.3f} N, "
                  f"runtime={elapsed:.2f} s")


def test_criterion_02_violation_time_window(no_rg_log):
    t_viol = no_rg_log.events.first_tension_violation
    ok = t_viol is not None and 1.0 <= t_viol <= 2.0
    report(2, ok, f"inner loop without governor: first tension violation at "
                  f"t={t_viol} s (target window 1.5 +/- 0.5 s; see the "
                  f"decision notes for the irreproducibility analysis)")


def test_criterion_03_governed_run(rg_bundle, no_rg_log):
    plan, cert, env, log = rg_bundle
    peak_rg = log.tension.max()
    peak_no_rg = no_rg_log.tension.max()
    ok = (log.tension.min() > 0.0
          and log.events.convergence_time is not None
          and peak_rg < peak_no_rg)
    report(3, ok, f"governed run: min tension={log.tension.min():.3f} N, "
                  f"converged at t={log.events.convergence_time}, "
                  f"peak tension {peak_rg:.1f} N < {peak_no_rg:.1f} N without "
                  f"the governor")


def test_criterion_04_radial_envelope_suite(bundle):
    p, g, _ = bundle
    rng = np.random.default_rng(2024)
    n = 1000
    r0 = rng.uniform(0.2, 2.0, n)
    r_bar = rng.uniform(0.2, 2.0, n)
    v_adm = g.lambda1 / g.k_dr
    rdot0 = rng.uniform(-v_adm, v_adm, n)
    envs = [tu.radial_envelope(float(r0[i]), float(rdot0[i]), float(r_bar[i]), g)
            for i in range(n)]
    rs, vs = simulate_radial_batch(r0, rdot0, r_bar, g,
                                   t_final=20.0 / math.sqrt(g.k_pr))
    lo = np.array([e.r_min for e in envs])
    hi = np.array([e.r_max for e in envs])
    inner = np.clip(g.k_pr * (rs - r_bar[None, :]), -g.lambda2, g.lambda2)
    acc = -np.clip(g.k_dr * vs + inner, -g.lambda1, g.lambda1)
    contained = bool((rs >= lo - 1e-6).all() and (rs <= hi + 1e-6).all())
    vel_ok = bool(np.abs(vs).max() <= max(g.lambda1, g.lambda2) / g.k_dr + 1e-9)
    acc_ok = bool(np.abs(acc).max() <= g.lambda1 + 1e-12)
    ok = contained and vel_ok and acc_ok
    report(4, ok, f"{n} random radial trajectories: envelope containment "
                  f"{contained}, velocity bound {vel_ok}, acceleration bound "
                  f"{acc_ok}")


def test_criterion_05_equilibrium_oracle(bundle):
    p, g, _ = bundle
    rng = np.random.default_rng(77)
    eps = g.eps
    worst = 0.0
    tension_ok = True
    for _ in range(100):
        sp = sample_attainable(rng, eps, p)
        assert tu.is_attainable(sp, eps, p)
        u = tu.equilibrium_inputs(sp, p)
        t_bar = tu.equilibrium_tension(sp, p)
        tension_ok &= t_bar > eps
        state = tu.FullState(sp.r_bar, 0.0, sp.alpha_bar, 0.0, sp.theta_bar, 0.0)
        residual = max(abs(v) for v in tu.taut_rhs(state, u, t_bar, p).as_tuple())
        worst = max(worst, residual)
    ok = worst < 1e-10 and tension_ok
    report(5, ok, f"100 certified setpoints: max dynamics residual "
                  f"{worst:.2e} < 1e-10, tension above margin: {tension_ok}")


def test_criterion_06_gain_analysis(bundle):
    _, g, _ = bundle
    l1_ref = tu.gamma_in_l1(g)
    bound_ref = tu.gamma_in_bound(g)
    ref_ok = bound_ref - l1_ref >= 0.0

    grid_ok = True
    min_slack = math.inf
    for zeta in np.linspace(0.1, 0.99, 10):
        for k_pt in np.linspace(2.0, 1000.0, 10):
            gi = tu.GainConfig(k_pt=float(k_pt), zeta=float(zeta))
            slack = tu.gamma_in_bound(gi) - tu.gamma_in_l1(gi)
            min_slack = min(min_slack, slack)
            grid_ok &= slack >= 0.0

    q = math.sqrt(g.k_pt)
    peak = empirical_inner_peak_gain(g, freqs=q * np.logspace(-1.2, 0.8, 15))
    peak_ok = peak <= l1_ref + 1e-3
    ok = ref_ok and grid_ok and peak_ok
    report(6, ok, f"l1 gain {l1_ref:.4f} <= bound {bound_ref:.4f}; 10x10 grid "
                  f"min slack {min_slack:.2e}; empirical peak {peak:.4f} <= "
                  f"l1 + 1e-3")


def test_criterion_07_attitude_budget_cubic(bundle):
    _, g, _ = bundle
    cases_ok = True
    for zeta, nu in ((g.zeta, g.nu), (0.5, 0.2), (1.0, 0.0)):
        a = (1.0 - nu) ** 2 * zeta ** 2
        b = 0.25 * (1.0 + 2.0 * (1.0 - nu) ** 2 * zeta ** 2) ** 2
        f = lambda x: a * x ** 3 - b * (1.0 - x) ** 2
        root = tu.theta_budget(zeta, nu)
        cases_ok &= f(0.0) < 0.0 and f(1.0) > 0.0
        cases_ok &= f(root + 1e-6) > 0.0 and f(root - 1e-6) < 0.0
    report(7, cases_ok, "cubic root brackets verified; root +/- 1e-6 flips "
                        "the inequality for all tested (zeta, nu)")


def test_criterion_08_governor_random_pairs(bundle):
    p, g, _ = bundle
    rng = np.random.default_rng(31)
    n_pairs = 50
    failures = []
    for i in range(n_pairs):
        same_half = bool(rng.uniform() < 0.5)
        half = "low" if rng.uniform() < 0.5 else "high"
        start = sample_attainable(rng, g.eps, p, half=half)
        other = half if same_half else ("high" if half == "low" else "low")
        final = sample_attainable(rng, g.eps, p, half=other)
        cfg = tu.SimConfig(
            mode=tu.ScenarioMode.INNER_WITH_RG, t_final=40.0,
            initial=tu.FullState.initial(start.r_bar, start.alpha_bar,
                                         start.theta_bar),
            reference=final)
        cert, env, _ = _certificate(p, g, cfg, estimate=False)
        plan = tu.backtrack_plan(start, final, g, p, cert, env)
        for prev, nxt in zip(plan.waypoints, plan.waypoints[1:]):
            if (abs(nxt.sp.alpha_bar - prev.sp.alpha_bar) > prev.dx_alpha + 1e-12
                    or abs(nxt.sp.theta_bar - prev.sp.theta_bar)
                    > prev.dx_theta + 1e-12):
                failures.append((i, "chain offset escaped the predecessor ball"))
                break
        log = tu.run_scenario(cfg, g, p, plan=plan)
        if log.tension.min() <= 0.0:
            failures.append((i, f"tension dipped to {log.tension.min():.3f}"))
        if log.events.convergence_time is None:
            failures.append((i, "did not converge"))
        if not (np.diff(log.waypoint) <= 0).all():
            failures.append((i, "supervisor index increased"))
    report(8, not failures,
           f"{n_pairs} random governed missions: chain validity, positive "
           f"tension, convergence, monotone supervisor ({failures[:3]})"
           if failures else
           f"{n_pairs} random governed missions all safe and convergent")


def test_criterion_09_interpolation_sampling(bundle):
    p, _, _ = bundle
    rng = np.random.default_rng(99)
    mg = p.m * p.g
    checked = 0
    ok = True
    for eps in (0.0, mg):
        for _ in range(5000):
            half = "low" if rng.uniform() < 0.5 else "high"
            a = sample_attainable(rng, eps, p, half=half, interior=0.0)
            b = sample_attainable(rng, eps, p, half=half, interior=0.0)
            lam = float(rng.uniform(0.0, 1.0))
            mid = tu.Setpoint(
                a.r_bar + lam * (b.r_bar - a.r_bar),
                a.alpha_bar + lam * (b.alpha_bar - a.alpha_bar),
                a.theta_bar + lam * (b.theta_bar - a.theta_bar))
            ok &= tu.is_attainable(mid, eps, p)
            checked += 1
    report(9, ok, f"{checked} random half-interval interpolations all "
                  f"attainable (margins 0 and m*g)")


def test_criterion_10_determinism_and_order(bundle):
    p, g, _ = bundle
    cfg = tu.SimConfig(t_final=1.5, mode=tu.ScenarioMode.INNER_NO_RG)
    a = tu.run_scenario(cfg, g, p)
    b = tu.run_scenario(cfg, g, p)
    identical = all(np.array_equal(ca, cb)
                    for ca, cb in zip(a.columns(), b.columns()))

    def harmonic(t, y):
        return y[1], -y[0]

    def final_error(dt):
        y = (1.0, 0.0)
        for k in range(int(round(2.0 * math.pi / dt))):
            y = tu.rk4_step(harmonic, k * dt, y, dt)
        return math.hypot(y[0] - 1.0, y[1])

    ratio = final_error(2.0 * math.pi / 100) / final_error(2.0 * math.pi / 200)
    order_ok = 12.0 < ratio < 20.0
    report(10, identical and order_ok,
           f"repeated runs bit-identical: {identical}; RK4 halving-error "
           f"ratio {ratio:.1f} (expected ~16)")
