"""Reference implementations that only the tests use.

``error_terms`` states the exact pitch-error perturbation of the elevation
loop and the tension; ``empirical_inner_peak_gain`` measures the attitude
loop's peak steady-state gain, which the certificate's L1 norm must
dominate; ``parse_log`` reads an emitted trajectory CSV back.
"""

from __future__ import annotations

import math

import numpy as np

from tautuav.control import GainConfig
from tautuav.plant import FullState, PlantParams, rk4_step


def error_terms(state: FullState, t_bar: float, theta_tilde: float,
                u_t: float, u_alpha: float, p: PlantParams
                ) -> tuple[float, float, float]:
    """Exact pitch-error perturbation of the elevation loop and the tension.

    Returns ``(delta, gamma, t_predicted)`` where the elevation error obeys

        alpha_ddot = -(k_pa*a_err + k_da*alpha_dot) * cos(theta_tilde)
                     + delta * alpha_dot + gamma

    with ``delta = (2*r_dot/r) * (cos(theta_tilde) - 1)`` and

        gamma = (g*cos(alpha)/r) * (cos(theta_tilde) - 1)
                - u_t * sin(theta_tilde) / (m*r)

    and the cable tension equals

        t_predicted = m*r*alpha_dot**2 + t_bar
                      - u_t*(1 - cos(theta_tilde)) + u_alpha*sin(theta_tilde).

    Both trig factors carry ``cos(theta_tilde) - 1``; expanding the thrust
    rotation leaves no sign asymmetry between them.
    """
    if not state.r > 0.0:
        raise ValueError(f"taut model requires r > 0, got r={state.r}")
    cos_t = math.cos(theta_tilde)
    sin_t = math.sin(theta_tilde)
    delta = (2.0 * state.r_dot / state.r) * (cos_t - 1.0)
    gamma = ((p.g * math.cos(state.alpha) / state.r) * (cos_t - 1.0)
             - u_t * sin_t / (p.m * state.r))
    t_predicted = (p.m * state.r * state.alpha_dot ** 2 + t_bar
                   - u_t * (1.0 - cos_t) + u_alpha * sin_t)
    return delta, gamma, t_predicted


def empirical_inner_peak_gain(g: GainConfig,
                              freqs: np.ndarray | None = None) -> float:
    """Peak steady-state gain of the attitude error loop under sinusoidal drive.

    Simulates the error-coordinate attitude loop (the realisation whose
    impulse response :func:`gamma_in_l1` integrates) driven by a unit
    commanded-pitch-rate sinusoid at each frequency (four cycles of the
    slowest after settling, 60 steps per period of the fastest), and
    returns the largest trailing-window amplitude ratio.  The L1 norm
    dominates this peak gain for any single-input single-output linear
    system, which is what the consistency suite checks.
    """
    q = math.sqrt(g.k_pt)
    if freqs is None:
        freqs = q * np.logspace(-1.5, 1.0, 30)
    freqs = np.asarray(freqs, dtype=float)
    t_settle = 10.0 / (g.zeta * q)
    t_final = t_settle + 4.0 * 2.0 * math.pi / freqs.min()
    dt = min(2.0 * math.pi / freqs.max() / 60.0, t_settle / 200.0)
    n = int(math.ceil(t_final / dt))

    x = (np.zeros_like(freqs), np.zeros_like(freqs))
    peak = np.zeros_like(freqs)
    two_zq = 2.0 * g.zeta * q

    def deriv(t, y):
        y1, y2 = y
        u = np.sin(freqs * t)
        return y2 - u, -g.k_pt * y1 - two_zq * (y2 - u)

    t = 0.0
    for k in range(n):
        x = rk4_step(deriv, t, x, dt)
        t += dt
        if t >= t_settle:
            np.maximum(peak, np.abs(x[0]), out=peak)
    return float(peak.max())


def parse_log(text: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """Read back an emitted CSV: column arrays plus the raw event comments."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    comments = []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
        elif line.strip():
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    return {name: data[:, i] for i, name in enumerate(header)}, comments
