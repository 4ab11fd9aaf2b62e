"""Config parsing, CSV emission, attainable-set sampling, subcommand exit codes."""

import math
from pathlib import Path

import numpy as np
import pytest

import tautuav as tu
from tautuav import cli
from tautuav.cli import (ConfigError, attainable_set_sample, emit_config,
                         emit_log, parse_config, parse_value)

from oracles import parse_log


class TestParseValue:
    def test_plain_floats(self):
        assert parse_value("2.5") == 2.5
        assert parse_value("-3e-2") == -0.03

    def test_pi_expressions(self):
        assert parse_value("pi/8") == pytest.approx(math.pi / 8.0, rel=1e-15)
        assert parse_value("-pi/20") == pytest.approx(-math.pi / 20.0, rel=1e-15)
        assert parse_value("pi*9/10") == pytest.approx(9.0 * math.pi / 10.0,
                                                       rel=1e-15)
        assert parse_value("pi") == pytest.approx(math.pi)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_value("two")
        with pytest.raises(ConfigError):
            parse_value("pi/0")


class TestParseConfig:
    def test_empty_document_gives_reference_defaults(self):
        p, g, cfg = parse_config("")
        assert p.m == 2.0
        assert p.j_uav == 0.015
        assert p.rho == 0.1
        assert g.k_pr == 30.0 and g.k_pa == 30.0
        assert g.k_pt == 200.0
        assert g.zeta == 0.9
        assert cfg.mode is tu.ScenarioMode.IDEAL_ATTITUDE
        assert cfg.initial.alpha == pytest.approx(math.pi / 8.0)
        assert cfg.reference.alpha_bar == pytest.approx(9.0 * math.pi / 10.0)

    def test_defaults_are_the_dataclass_defaults(self):
        default_cfg = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
        assert (parse_config("")
                == (tu.PlantParams(), tu.GainConfig(), tu.SimConfig())
                == parse_config(default_cfg.read_text(encoding="utf-8")))

    def test_step_not_dividing_horizon_rejected(self):
        with pytest.raises(ConfigError, match=r"dt=0\.003 .*t_final=10\.0"):
            parse_config("dt = 0.003\nt_final = 10\n")

    def test_infinite_step_names_dt(self):
        with pytest.raises(ConfigError, match="^dt must be positive and finite"):
            parse_config("dt = inf")

    def test_dwell_not_whole_steps_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"dt=0\.002 .*convergence_dwell=0\.003"):
            parse_config("dt = 0.002\nconvergence_dwell = 0.003\n")

    def test_comments_and_overrides(self):
        text = """
        # plant
        m = 3.0
        alpha_bar = pi*9/10   # keep the reference
        theta_bar = -pi/20
        """
        p, g, cfg = parse_config(text)
        assert p.m == 3.0
        assert cfg.reference.alpha_bar == pytest.approx(9.0 * math.pi / 10.0)

    def test_invariant_violation_names_key(self):
        with pytest.raises(ConfigError, match="zeta"):
            parse_config("zeta = 1.2")

    @pytest.mark.parametrize("text, key", [
        ("tension_min = nan", "tension_min"),
        ("tension_min = -inf", "tension_min"),
        ("convergence_tol = nan", "convergence_tol"),
        ("convergence_tol = inf", "convergence_tol"),
        ("theta0 = nan", "theta"),
        ("alpha_dot0 = inf", "alpha_dot"),
        ("eps = nan", "eps"),
        ("gamma_out = nan", "gamma_out"),
        ("eps = 1e308", "eps"),  # finite, but its hover tension 2*eps is not
        ("theta_bar = nan", "theta_bar"),
        ("theta_bar = inf", "theta_bar"),
    ])
    def test_non_finite_value_names_key(self, text, key):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["m", "g", "k_pt", "lambda2", "k_da",
                                     "hover_tension", "eps", "gamma_out",
                                     "r_bar"])
    def test_infinite_value_names_key(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            parse_config(f"{key} = inf")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*zeta_typo"):
            parse_config("m = 2.0\nzeta_typo = 0.9")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    def test_explicit_consistent_damping_accepted(self):
        text = f"k_dr = {2.0 * math.sqrt(30.0)!r}"
        _, g, _ = parse_config(text)
        assert g.k_dr == pytest.approx(2.0 * math.sqrt(30.0))

    def test_explicit_inconsistent_damping_rejected(self):
        with pytest.raises(ConfigError, match="k_dr"):
            parse_config("k_dr = 5.0")

    @pytest.mark.parametrize("text, key", [("k_da = 5", "k_da"),
                                           ("hover_tension = 0.5",
                                            "hover_tension")])
    def test_untied_derived_value_rejected(self, text, key):
        with pytest.raises(ConfigError, match=f"^{key} must be .*, got {key}="):
            parse_config(text)

    def test_unattainable_reference_rejected(self):
        with pytest.raises(ConfigError, match="not attainable"):
            parse_config("theta_bar = 0.5")  # above the admissible band at 9pi/10

    def test_round_trip_identical_bundle(self):
        p1, g1, c1 = parse_config("m = 2.5\nalpha0 = pi/8\nmode = inner-no-rg")
        text = emit_config(p1, g1, c1)
        p2, g2, c2 = parse_config(text)
        assert p1 == p2
        assert g1 == g2
        assert c1 == c2


class TestEmitLog:
    def test_single_row_log(self, tmp_path, gains, plant):
        from tautuav.sim import SimEvents

        one = np.ones(1)
        log = tu.TrajectoryLog(
            t=np.zeros(1), r=one, r_dot=0 * one, alpha=one, alpha_dot=0 * one,
            theta=0 * one, theta_dot=0 * one, u1=one, u2=0 * one, u3=0 * one,
            tension=one, theta_c=0 * one, waypoint=-np.ones(1, dtype=int),
            events=SimEvents(None, (), None))
        dest = tmp_path / "one.csv"
        emit_log(log, dest)
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == ("t,r,r_dot,alpha,alpha_dot,theta,theta_dot,"
                            "u1,u2,u3,T,theta_c,waypoint")

    def test_round_trip_nine_significant_digits(self, tmp_path, ideal_log):
        dest = tmp_path / "ideal.csv"
        emit_log(ideal_log, dest)
        data, comments = parse_log(dest.read_text())
        for name, col in zip(tu.TrajectoryLog.COLUMNS, ideal_log.columns()):
            formatted = np.array([float(f"{v:.9g}") for v in col])
            assert np.array_equal(data[name], formatted)
        assert any(c.startswith("# convergence") for c in comments)

    def test_violation_comment_present_with_run_digits(self, tmp_path, no_rg_log):
        dest = tmp_path / "norg.csv"
        emit_log(no_rg_log, dest)
        text = dest.read_text()
        expected = f"# tension_violation t={no_rg_log.events.first_tension_violation:.4f}"
        assert expected in text


class TestAttainableSetSample:
    def test_zero_margin_lower_envelope(self, plant):
        rows = attainable_set_sample(0.0, 181, plant)
        low = rows[rows[:, 0] < math.pi / 2.0]
        assert np.abs(low[:, 1]).max() < 1e-9

    def test_vertical_row_is_singleton(self, plant):
        rows = attainable_set_sample(0.0, 181, plant)
        i = np.argmin(np.abs(rows[:, 0] - math.pi / 2.0))
        assert rows[i, 0] == math.pi / 2.0
        assert rows[i, 1] == 0.0 and rows[i, 2] == 0.0

    def test_margin_regions_nested(self, plant):
        inner = attainable_set_sample(2.0, 91, plant)
        outer = attainable_set_sample(0.5, 91, plant)
        for k in range(91):
            a = inner[k, 0]
            if a == math.pi / 2.0:
                continue
            if a < math.pi / 2.0:
                assert inner[k, 1] >= outer[k, 1] - 1e-12
                assert inner[k, 2] == outer[k, 2]
            else:
                assert inner[k, 2] <= outer[k, 2] + 1e-12
                assert inner[k, 1] == outer[k, 1]

    def test_rejects_tiny_grid(self, plant):
        with pytest.raises(ValueError):
            attainable_set_sample(0.0, 1, plant)


class TestMain:
    def test_simulate_ideal_exit_zero(self, tmp_path, capsys):
        code = cli.main(["simulate", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trajectory_ideal-attitude.csv").exists()
        assert "all: pass" in capsys.readouterr().out

    def test_simulate_no_rg_exit_two(self, tmp_path, capsys):
        code = cli.main(["simulate", "--mode", "inner-no-rg",
                         "--out", str(tmp_path)])
        assert code == 2
        out = capsys.readouterr().out
        assert "tension_positive: FAIL" in out

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("zeta = 7\n")
        code = cli.main(["simulate", "--config", str(cfg)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("tension_min = nan", "tension_min"),
        ("theta0 = nan", "theta"),
        ("alpha_dot0 = inf", "alpha_dot"),
    ])
    def test_non_finite_config_exit_one(self, tmp_path, capsys, text, key):
        # a NaN tension_min would switch the taut-cable check off, and a
        # non-finite initial state fails only once the flight is under way
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        code = cli.main(["simulate", "--mode", "inner-no-rg",
                         "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"configuration error: {key} must be" in err

    @pytest.mark.parametrize("subcommand", ["certify", "simulate"])
    def test_infinite_reference_radius_exit_one(self, tmp_path, capsys,
                                                subcommand):
        # an infinite radius would give NaN ball radii and a passing
        # certificate
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r_bar = inf\n")
        code = cli.main([subcommand, "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error: r_bar must be" in err

    def test_attainable_set_nan_margin_exit_one(self, capsys):
        code = cli.main(["attainable-set", "--eps", "nan", "--grid", "3"])
        assert code == 1
        assert "error: eps must be" in capsys.readouterr().err

    def test_attainable_set_infinite_margin_exit_one(self, capsys):
        code = cli.main(["attainable-set", "--eps", "inf", "--grid", "3"])
        assert code == 1
        assert "error: eps must be" in capsys.readouterr().err

    def test_diverging_flight_exit_one(self, tmp_path, capsys):
        # a finite but stiff attitude gain overflows the fixed-step RK4
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text("k_pt = 1e8\n")
        code = cli.main(["simulate", "--mode", "inner-no-rg", "--t-final",
                         "0.5", "--config", str(cfg)])
        assert code == 1
        assert "error: non-finite state" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["simulate", "certify",
                                            "attainable-set", "sweep"])
    def test_seed_only_on_plan(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([subcommand, "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_simulate_step_not_dividing_horizon_exit_one(self, capsys):
        code = cli.main(["simulate", "--dt", "0.003"])
        assert code == 1
        assert "t_final" in capsys.readouterr().err

    def test_plan_csv(self, tmp_path, capsys):
        code = cli.main(["plan", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "plan.csv").read_text().strip().splitlines()
        assert lines[0] == "index,s,r_bar,alpha_bar,theta_bar,dx_alpha,dx_theta"
        assert len(lines) > 3
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(0.5)

    def test_plan_validation_sampling(self, tmp_path):
        code = cli.main(["plan", "--out", str(tmp_path),
                         "--validate-samples", "200", "--seed", "3"])
        assert code == 0

    def test_certify_report(self, tmp_path, capsys):
        code = cli.main(["certify", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        text = (tmp_path / "certificate.txt").read_text()
        for key in ("gamma_in_l1:", "gamma_in_bound:", "gamma_out:",
                    "small_gain_ok: True", "theta_budget_root:",
                    "lambda1_max:", "certificate: pass"):
            assert key in text
        assert "certificate: pass" in out

    def test_attainable_set_subcommand(self, tmp_path):
        code = cli.main(["attainable-set", "--grid", "11",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "attainable_set.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha_bar,theta_min,theta_max"
        assert len(lines) == 12

    def test_sweep_directory(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a_ideal.cfg").write_text("mode = ideal-attitude\nt_final = 2.0\n")
        (cfg_dir / "b_norg.cfg").write_text("mode = inner-no-rg\nt_final = 2.0\n")
        out_dir = tmp_path / "out"
        code = cli.main(["sweep", "--config", str(cfg_dir), "--out", str(out_dir)])
        assert code == 2  # no-governor run violates; short ideal run misses convergence
        assert (out_dir / "a_ideal" / "trajectory_ideal-attitude.csv").exists()
        assert (out_dir / "b_norg" / "trajectory_inner-no-rg.csv").exists()

    def test_sweep_requires_directory(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", str(tmp_path / "nope")])
        assert code == 1
