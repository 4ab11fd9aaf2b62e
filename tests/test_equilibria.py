"""Attainable-set membership, equilibrium quantities, interpolation paths."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tautuav as tu
from tautuav.equilibria import (SingularSetpointError, UnattainableError,
                                interpolate_setpoint, same_half_interval)

from conftest import sample_attainable


class TestThetaLimit:
    def test_zero_margin_gives_zero_limit_both_halves(self, plant):
        for a in np.linspace(0.0, math.pi, 41):
            if abs(a - math.pi / 2.0) < 1e-9:
                continue
            assert tu.theta_limit(float(a), 0.0, plant) == pytest.approx(0.0, abs=1e-9)

    def test_horizontal_with_weight_margin(self, plant):
        # eps = m*g makes the argument tan-free: atan(1) = pi/4
        assert tu.theta_limit(0.0, plant.m * plant.g, plant) == pytest.approx(
            math.pi / 4.0, rel=1e-12)

    def test_monotone_increasing_in_margin(self, plant):
        for a in (0.3, math.pi / 4.0, 1.2):
            values = [tu.theta_limit(a, e, plant) for e in np.linspace(0.0, 8.0, 30)]
            assert all(b > x for x, b in zip(values, values[1:]))

    def test_rejects_vertical(self, plant):
        with pytest.raises(SingularSetpointError):
            tu.theta_limit(math.pi / 2.0, 0.0, plant)

    def test_rejects_nan_margin(self, plant):
        with pytest.raises(ValueError, match="eps must be non-negative"):
            tu.theta_limit(0.3, math.nan, plant)

    def test_continuity(self, plant):
        eps = 2.0
        # keep a + h strictly below the vertical singularity
        for a in np.linspace(0.0, math.pi / 2.0 - 0.02, 25):
            base = tu.theta_limit(float(a), eps, plant)
            deviations = [abs(tu.theta_limit(float(a) + h, eps, plant) - base)
                          for h in (1e-2, 1e-4, 1e-6)]
            assert deviations[0] > deviations[1] > deviations[2]
            assert deviations[2] < 1e-4


class TestAttainable:
    def test_vertical_hover_any_margin(self, plant):
        for eps in (0.0, 1.0, 50.0):
            assert tu.is_attainable(tu.Setpoint(1.0, math.pi / 2.0, 0.0), eps, plant)

    def test_open_interval_boundary_excluded(self, plant):
        # theta_bar exactly at pi/2 - alpha_bar sits on the open boundary
        sp = tu.Setpoint(1.0, math.pi / 4.0, math.pi / 4.0)
        assert not tu.is_attainable(sp, 0.0, plant)

    def test_reference_experiment_target(self, plant):
        sp = tu.Setpoint(0.5, 9.0 * math.pi / 10.0, -math.pi / 20.0)
        assert tu.is_attainable(sp, 0.0, plant)
        assert tu.is_attainable(sp, 1.0, plant)

    def test_margin_parameter_tightens(self, plant):
        a = math.pi / 4.0
        hi = math.pi / 2.0 - a
        sp = tu.Setpoint(1.0, a, hi - 1e-10)
        assert tu.is_attainable(sp, 0.0, plant)
        assert not tu.is_attainable(sp, 0.0, plant, margin=1e-9)


class TestEquilibriumQuantities:
    def test_zero_pitch_zero_tension(self, plant):
        for a in (0.0, 0.4, 2.2, math.pi):
            sp = tu.Setpoint(1.0, a, 0.0)
            assert tu.equilibrium_tension(sp, plant) == pytest.approx(0.0, abs=1e-9)

    def test_horizontal_quarter_pitch(self):
        p = tu.PlantParams(m=2.0, g=9.81)
        sp = tu.Setpoint(1.0, 0.0, math.pi / 4.0)
        # tan(pi/4)*cos(0) - sin(0) = 1
        assert tu.equilibrium_tension(sp, p) == pytest.approx(19.62, rel=1e-12)

    def test_attainable_implies_tension_above_margin(self, plant):
        rng = np.random.default_rng(11)
        for eps in (0.0, 0.7, 3.0):
            for _ in range(50):
                sp = sample_attainable(rng, eps, plant)
                assert tu.equilibrium_tension(sp, plant) > eps

    def test_vertical_requires_hover_tension(self, plant):
        sp = tu.Setpoint(1.0, math.pi / 2.0, 0.0)
        with pytest.raises(SingularSetpointError):
            tu.equilibrium_tension(sp, plant)
        assert tu.equilibrium_tension(sp, plant, hover_tension=5.0) == 5.0

    def test_vertical_inputs(self, plant):
        sp = tu.Setpoint(1.0, math.pi / 2.0, 0.0)
        u = tu.equilibrium_inputs(sp, plant, hover_tension=5.0)
        assert u.u1 == pytest.approx(plant.m * plant.g + 5.0, rel=1e-12)
        assert u.u2 == 0.0
        assert u.u3 == pytest.approx(-plant.rho * 5.0, rel=1e-12)

    def test_horizontal_zero_pitch_inputs(self, plant):
        u = tu.equilibrium_inputs(tu.Setpoint(1.0, 0.0, 0.0), plant)
        assert u.u1 == pytest.approx(plant.m * plant.g, rel=1e-12)
        assert u.u3 == pytest.approx(0.0, abs=1e-12)

    def test_rejects_undefined_thrust(self, plant):
        sp = tu.Setpoint(1.0, math.pi / 4.0, math.pi / 4.0)
        with pytest.raises(UnattainableError):
            tu.equilibrium_inputs(sp, plant)


class TestPaths:
    def test_reference_experiment_path_crosses_apex(self, plant):
        start = tu.Setpoint(1.0, math.pi / 8.0, math.pi / 10.0)
        end = tu.Setpoint(0.5, 9.0 * math.pi / 10.0, -math.pi / 20.0)
        path = tu.interpolate_path(start, end, 1.0, plant)
        assert len(path.segments) == 2
        mid = path.segments[0][1]
        assert mid.r_bar == pytest.approx(0.75)
        assert mid.alpha_bar == math.pi / 2.0
        assert mid.theta_bar == 0.0

    def test_identity_path(self, plant):
        sp = tu.Setpoint(1.0, 0.3, 0.2)
        path = tu.interpolate_path(sp, sp, 0.0, plant)
        assert path.segments == ((sp, sp),)

    def test_single_segment_sampling(self, plant):
        a = tu.Setpoint(1.0, math.pi / 4.0, 0.1)
        b = tu.Setpoint(1.0, math.pi / 3.0, 0.1)
        path = tu.interpolate_path(a, b, 0.0, plant)
        assert len(path.segments) == 1
        for k in range(1, 1000):
            sp = interpolate_setpoint(a, b, k / 1000)
            assert tu.is_attainable(sp, 0.0, plant)

    def test_unattainable_endpoint_rejected(self, plant):
        good = tu.Setpoint(1.0, 0.3, 0.2)
        bad = tu.Setpoint(1.0, 0.3, -0.2)  # below the zero-margin limit angle
        with pytest.raises(UnattainableError):
            tu.interpolate_path(good, bad, 0.0, plant)

    def test_sampling_catches_mid_path_margin_loss(self, plant):
        """Boundary-hugging endpoints at an intermediate margin are rejected.

        Both endpoints clear the margin but the straight path dips below it
        (the margin band is not convex between 0 and m*g), so the sampled
        certification must fail loudly instead of returning an unsafe path.
        """
        eps = 1.0
        sp1 = tu.Setpoint(1.0, 0.0, tu.theta_limit(0.0, eps, plant) + 1e-4)
        sp2 = tu.Setpoint(1.0, 1.4, tu.theta_limit(1.4, eps, plant) + 1e-4)
        with pytest.raises(UnattainableError, match="certification"):
            tu.interpolate_path(sp1, sp2, eps, plant)

    def test_convexity_sampling(self, plant):
        """Within one half-interval, full-band interpolation stays attainable.

        Holds for the zero-margin set (both boundaries linear) and for
        margins at or above m*g (the limit-angle curve turns convex there);
        intermediate margins are covered by the counterexample test below.
        """
        rng = np.random.default_rng(5)
        for eps in (0.0, plant.m * plant.g, 2.0 * plant.m * plant.g):
            for _ in range(300):
                half = "low" if rng.uniform() < 0.5 else "high"
                a = sample_attainable(rng, eps, plant, half=half, interior=0.0)
                b = sample_attainable(rng, eps, plant, half=half, interior=0.0)
                lam = float(rng.uniform(0.0, 1.0))
                assert tu.is_attainable(interpolate_setpoint(a, b, lam), eps, plant)

    def test_interior_sampling_interpolates_for_working_margin(self, plant):
        """The governor's sampling regime: interior pairs at the working margin."""
        rng = np.random.default_rng(6)
        for _ in range(300):
            half = "low" if rng.uniform() < 0.5 else "high"
            a = sample_attainable(rng, 1.0, plant, half=half)
            b = sample_attainable(rng, 1.0, plant, half=half)
            lam = float(rng.uniform(0.0, 1.0))
            assert tu.is_attainable(interpolate_setpoint(a, b, lam), 0.0, plant)

    def test_boundary_curve_concave_for_valid_margins(self, plant):
        """Second difference of the admissible-band boundary curve is <= 1e-8.

        The curve pi/2 - alpha - theta_limit(alpha) is linear at eps = 0 and
        at eps = m*g, and concave above; between those margins it is convex,
        so the concavity certificate is asserted exactly on its validity
        domain.
        """
        mg = plant.m * plant.g
        for eps in (0.0, mg, 2.0 * mg, 5.0 * mg):
            a = np.linspace(0.0, math.pi / 2.0 - 0.01, 400)
            curve = np.array([math.pi / 2.0 - x - tu.theta_limit(float(x), eps, plant)
                              for x in a])
            second = curve[2:] - 2.0 * curve[1:-1] + curve[:-2]
            assert second.max() <= 1e-8

    def test_intermediate_margin_band_not_convex(self, plant):
        """For 0 < eps < m*g the margin band is *not* convex.

        Two boundary-hugging attainable setpoints interpolate to a point
        whose equilibrium tension falls below the margin (though it stays
        positive, i.e. inside the zero-margin set).  This pins the regime in
        which interpolation paths must keep interior clearance.
        """
        eps = 1.0
        a1, a2 = 0.0, 1.4
        sp1 = tu.Setpoint(1.0, a1, tu.theta_limit(a1, eps, plant) + 1e-4)
        sp2 = tu.Setpoint(1.0, a2, tu.theta_limit(a2, eps, plant) + 1e-4)
        assert tu.is_attainable(sp1, eps, plant)
        assert tu.is_attainable(sp2, eps, plant)
        mid = interpolate_setpoint(sp1, sp2, 0.5)
        assert not tu.is_attainable(mid, eps, plant)
        t_mid = tu.equilibrium_tension(mid, plant)
        assert 0.0 < t_mid < eps
        assert tu.is_attainable(mid, 0.0, plant)


class TestTypes:
    def test_setpoint_validation(self):
        with pytest.raises(ValueError, match="r_bar"):
            tu.Setpoint(0.0, 0.3, 0.1)
        with pytest.raises(ValueError, match="alpha_bar"):
            tu.Setpoint(1.0, -0.2, 0.1)
        with pytest.raises(ValueError, match="vertical"):
            tu.Setpoint(1.0, math.pi / 2.0, 0.1)

    @pytest.mark.parametrize("r_bar", [math.inf, math.nan])
    def test_setpoint_rejects_non_finite_radius(self, r_bar):
        with pytest.raises(ValueError, match="^r_bar must be positive"):
            tu.Setpoint(r_bar, 0.3, 0.1)

    def test_pathspec_validation(self):
        a = tu.Setpoint(1.0, 0.3, 0.1)
        b = tu.Setpoint(1.0, 0.4, 0.1)
        c = tu.Setpoint(1.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="joining"):
            tu.PathSpec(segments=((a, b), (c, a)))
        with pytest.raises(ValueError, match="segments"):
            tu.PathSpec(segments=((a, b), (b, c), (c, a)))

    def test_half_interval_helper(self):
        low = tu.Setpoint(1.0, 0.3, 0.1)
        high = tu.Setpoint(1.0, 2.8, -0.1)
        apex = tu.Setpoint(1.0, math.pi / 2.0, 0.0)
        assert not same_half_interval(low, high)
        assert same_half_interval(low, apex)
        assert same_half_interval(apex, high)


@given(a=st.floats(0.0, math.pi / 2.0 - 0.02), eps=st.floats(0.0, 10.0))
def test_limit_angle_consistent_with_tension(a, eps):
    """Mid-band setpoints are attainable and their tension clears the margin."""
    p = tu.PlantParams()
    lim = tu.theta_limit(a, eps, p)
    assert lim >= -1e-12
    hi = math.pi / 2.0 - a
    if lim + 1e-6 < hi:
        sp = tu.Setpoint(1.0, a, 0.5 * (lim + hi))
        assert tu.is_attainable(sp, eps, p)
        assert tu.equilibrium_tension(sp, p) > eps
