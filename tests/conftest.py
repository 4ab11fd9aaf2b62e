"""Shared fixtures: default parameter bundle and cached reference-experiment runs."""

import dataclasses
import math

import numpy as np
import pytest

import tautuav as tu
from tautuav.analysis import mission_radial_envelope
from tautuav.cli import parse_config


@pytest.fixture(scope="session")
def plant():
    return tu.PlantParams()


@pytest.fixture(scope="session")
def gains():
    return tu.GainConfig()


@pytest.fixture(scope="session")
def default_bundle():
    return parse_config("")


@pytest.fixture(scope="session")
def start_setpoint():
    return tu.Setpoint(1.0, math.pi / 8.0, math.pi / 10.0)


@pytest.fixture(scope="session")
def ref_setpoint():
    return tu.Setpoint(0.5, 9.0 * math.pi / 10.0, -math.pi / 20.0)


def sample_attainable(rng, eps, p, r_range=(0.4, 1.4), interior=0.1,
                      half=None):
    """Random setpoint strictly inside the attainable set.

    ``interior`` shrinks the admissible pitch interval relatively on both
    ends; ``half`` restricts the elevation to 'low' ([0, pi/2)) or 'high'
    ((pi/2, pi]).
    """
    while True:
        if half == "low":
            a = rng.uniform(0.02, math.pi / 2.0 - 0.05)
        elif half == "high":
            a = rng.uniform(math.pi / 2.0 + 0.05, math.pi - 0.02)
        else:
            a = rng.uniform(0.02, math.pi - 0.02)
            if abs(a - math.pi / 2.0) < 0.05:
                continue
        lim = tu.theta_limit(a, eps, p)
        if a < math.pi / 2.0:
            lo, hi = lim, math.pi / 2.0 - a
        else:
            lo, hi = math.pi / 2.0 - a, lim
        width = hi - lo
        if width <= 0.0:
            continue
        t = rng.uniform(lo + interior * width, hi - interior * width)
        sp = tu.Setpoint(float(rng.uniform(*r_range)), float(a), float(t))
        if tu.is_attainable(sp, eps, p):
            return sp


@pytest.fixture(scope="session")
def ideal_log(default_bundle):
    p, g, cfg = default_bundle
    return tu.run_scenario(cfg, g, p)


@pytest.fixture(scope="session")
def no_rg_log(default_bundle):
    p, g, cfg = default_bundle
    cfg_no_rg = dataclasses.replace(cfg, mode=tu.ScenarioMode.INNER_NO_RG)
    return tu.run_scenario(cfg_no_rg, g, p)


@pytest.fixture(scope="session")
def rg_bundle(default_bundle):
    """Governed reference run: (plan, certificate, mission envelope, log)."""
    from tautuav.cli import _certificate

    p, g, cfg = default_bundle
    cert, env, _ = _certificate(p, g, cfg, estimate=False)
    start = tu.Setpoint(cfg.initial.r, cfg.initial.alpha, cfg.initial.theta)
    plan = tu.backtrack_plan(start, cfg.reference, g, p, cert, env)
    rg_cfg = dataclasses.replace(cfg, mode=tu.ScenarioMode.INNER_WITH_RG,
                                 t_final=30.0)
    mission_env = mission_radial_envelope(
        cfg.initial.r, cfg.initial.r_dot,
        [w.sp.r_bar for w in plan.waypoints] + [cfg.initial.r], g)
    log = tu.run_scenario(rg_cfg, g, p, plan=plan)
    return plan, cert, mission_env, log


@pytest.fixture(scope="session")
def default_certificate(default_bundle):
    from tautuav.cli import _certificate

    p, g, cfg = default_bundle
    cert, env, norms = _certificate(p, g, cfg, estimate=False)
    return cert, env


def simulate_radial_batch(r0, rdot0, r_bar, g, t_final, dt=1e-3):
    """Vectorized RK4 of the saturated radial loop for envelope validation.

    Returns (r_history, rdot_history) with shape (steps+1, batch).
    """
    y = (np.asarray(r0, dtype=float), np.asarray(rdot0, dtype=float))
    r_bar = np.asarray(r_bar, dtype=float)

    def radial(t, y):
        rr, vv = y
        inner = np.clip(g.k_pr * (rr - r_bar), -g.lambda2, g.lambda2)
        return vv, -np.clip(g.k_dr * vv + inner, -g.lambda1, g.lambda1)

    n = int(round(t_final / dt))
    rs = np.empty((n + 1, y[0].size))
    vs = np.empty((n + 1, y[0].size))
    rs[0], vs[0] = y
    for k in range(n):
        y = tu.rk4_step(radial, k * dt, y, dt)
        rs[k + 1], vs[k + 1] = y
    return rs, vs
