"""Command-line surface: outputs, exit codes, config round-trips."""

import io
import warnings

import pytest

from conftest import time_limit

from omt2 import (MEASURES, AlternativeModel, ConfigError, DomainError,
                  McConfig, Omt2Error, QuadratureConfig, ToleranceNotMet,
                  Unachievable, mc_power)
from omt2.cli import main
import omt2.cli as cli_mod


def run(argv, cwd=None):
    out = io.StringIO()
    code = main(argv, out_stream=out)
    return code, out.getvalue()


class TestRegionCommand:
    def test_hommel_grid_square_is_both(self, tmp_path):
        out_csv = tmp_path / "hommel.csv"
        code, out = run(["region", "--proc", "hommel", "--alpha", "0.025",
                         "--grid", "64", "--out", str(out_csv)])
        assert code == 0
        assert "cells:" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "z1,z2,class"
        from omt2 import std_normal_quantile
        za = std_normal_quantile(0.025)
        for row in lines[1:]:
            z1, z2, cls = row.split(",")
            if float(z1) <= za and float(z2) <= za:
                assert cls == "both"

    def test_omt_one_matches_hommel_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        code1, _ = run(["region", "--proc", "omt", "--objective", "pi1",
                        "--theta1", "-2", "--theta2", "-2", "--alpha", "0.025",
                        "--grid", "128", "--out", str(a)])
        code2, _ = run(["region", "--proc", "hommel", "--alpha", "0.025",
                        "--grid", "128", "--out", str(b)])
        assert code1 == code2 == 0
        assert a.read_text() == b.read_text()

    def test_asymmetric_combo_region(self, tmp_path):
        out_csv = tmp_path / "combo.csv"
        code, out = run(["region", "--proc", "omt", "--objective", "combo",
                         "--theta1", "-3.4", "--theta2", "-2.7",
                         "--grid", "128", "--out", str(out_csv)])
        assert code == 0
        text = out_csv.read_text().splitlines()[1:]
        classes = [row.split(",")[2] for row in text]
        assert classes.count("only1") != classes.count("only2")

    def test_missing_objective_for_omt(self):
        code, _ = run(["region", "--proc", "omt", "--theta1", "-2",
                       "--theta2", "-2"])
        assert code == 2

    def test_bittman_prints_solved_z_sum(self):
        from omt2 import build_bittman
        code, out = run(["region", "--proc", "bittman", "--grid", "16",
                         "--out", "-"])
        assert code == 0
        t_sum = build_bittman(0.025).t_sum
        assert f"\nz-sum threshold = {t_sum:.6g}\n" in out

    def test_infinite_z_range_is_config_error(self):
        code, out = run(["region", "--proc", "hommel", "--z-hi", "inf",
                         "--grid", "16", "--out", "-"])
        assert code == 2
        assert out == ""


class TestPowerCommand:
    def test_null_fwer_row_hommel(self):
        code, out = run(["power", "--proc", "hommel", "--theta1", "0",
                         "--theta2", "0"])
        assert code == 0
        fwer_line = [l for l in out.splitlines() if l.startswith("fwer")][0]
        assert "0.0250" in fwer_line

    def test_large_shift_integrates_around_it(self):
        # pi_avg = (1 + Phi(za + 3)) / 2 when H1 is rejected surely
        code, out = run(["power", "--proc", "hommel", "--theta1=-1000", "--theta2=-3"])
        assert code == 0
        rows = dict(line.split() for line in out.splitlines()[2:])
        assert (rows["pi_any"], rows["pi_avg"]) == ("1.0000", "0.9254")

    def test_shift_beyond_quadrature_bound(self, capsys):
        code, _ = run(["power", "--proc", "hommel", "--theta1=-1e160", "--theta2=-3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: theta1 must lie in (-2097152, 2097152) for the "
            "quadrature, got -1e+160\n")

    def test_evaluation_error_leaves_stdout_empty(self, capsys):
        # every cell is evaluated before the table head is written
        code, out = run(["power", "--proc", "hommel", "--theta1=-3e6", "--theta2=-3"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("configuration error: theta1 must lie")

    def test_null_fwer_closed_stouffer_conservative(self):
        code, out = run(["power", "--proc", "closed_stouffer", "--theta1", "0",
                         "--theta2", "0"])
        assert code == 0
        fwer_line = [l for l in out.splitlines() if l.startswith("fwer")][0]
        val = float(fwer_line.split()[-1])
        assert val < 0.0250

    def test_benchmark_matrix_shape(self):
        code, out = run(["power", "--procedures", "benchmark",
                         "--marginal-power", "0.85"])
        assert code == 0
        lines = out.splitlines()
        header = [l for l in lines if l.lstrip().startswith("measure")][0]
        for col in ("omt_avg_any", "omt_pi1", "omt_combo", "closed_stouffer",
                    "hommel"):
            assert col in header
        for m in ("pi_avg", "pi_any", "pi_1", "pi_combo", "fwer"):
            assert any(l.startswith(m) for l in lines)

    def test_all_selector_adds_remaining_builtins(self):
        code, out = run(["power", "--procedures", "all",
                         "--theta1", "-2", "--theta2", "-2"])
        assert code == 0
        header = [l for l in out.splitlines() if l.lstrip().startswith("measure")][0]
        for col in ("bittman", "fixed_sequence", "bonferroni"):
            assert col in header

    def test_mc_appendix(self):
        code, out = run(["power", "--proc", "hommel", "--theta1", "-2",
                         "--theta2", "-2", "--mc", "--reps", "20000"])
        assert code == 0
        assert "monte carlo" in out
        assert "se " in out

    @pytest.mark.parametrize("bad", [["--reps", "5"], ["--seed", "-1"]])
    def test_bad_mc_config_leaves_stdout_empty(self, bad):
        code, out = run(["power", "--proc", "hommel", "--theta1", "-2",
                         "--theta2", "-2", "--mc", *bad])
        assert code == 2
        assert out == ""

    def test_bad_mc_config_fails_without_mc(self, capsys):
        # the Monte Carlo settings are checked whether or not --mc is set
        code, out = run(["power", "--proc", "hommel", "--theta1", "-2",
                         "--theta2", "-2", "--reps", "5", "--seed", "-3"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == ("configuration error: reps must be an integer "
                                           "in [10000, 67108864], got 5\n")

    def test_mc_lines_match_mc_power(self, monkeypatch):
        # all eight columns, decided in one pass, print what one mc_power
        # call per column gives
        monkeypatch.delenv(cli_mod.QUAD_PROFILE_ENV, raising=False)
        code, out = run(["power", "--procedures", "all", "--theta1", "-2.5",
                         "--theta2", "-3", "--mc", "--reps", "20001", "--seed", "3"])
        assert code == 0
        cols = [(name, build(QuadratureConfig())) for name, build
                in cli_mod._power_columns("all", 0.025, -2.5, -3.0)]
        model, mcc = AlternativeModel(-2.5, -3.0), McConfig(20001, 3)
        want = []
        for name, rule in cols:
            est = mc_power(rule, model, mcc)
            want.append(f"  {name}: " + " ".join(
                f"{m}={est[m][0]:.4f}(se {est[m][1]:.1e})" for m in MEASURES))
        assert len(want) == 8
        assert out.split("monte carlo (mean, se):\n")[1].splitlines() == want

    def test_design_arm_calibration(self):
        code, out = run(["power", "--proc", "hommel", "--design-arm", "1200"])
        assert code == 0
        assert "theta = (-2.67277, -2.67277)" in out

    def test_alpha_half_is_a_valid_level(self):
        code, out = run(["power", "--proc", "hommel", "--marginal-power",
                         "0.85", "--alpha", "0.5"])
        assert code == 0
        assert out.startswith("alpha = 0.5  theta = ")

    def test_requires_thetas(self):
        code, _ = run(["power", "--proc", "hommel"])
        assert code == 2

    def test_rejects_unknown_selector(self):
        code, _ = run(["power", "--procedures", "everything",
                       "--theta1", "-2", "--theta2", "-2"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--proc", "hommel", "--procedures", "all", "--theta1", "-2", "--theta2", "-2"],
        ["--proc", "hommel", "--marginal-power", "0.85", "--theta1", "-1",
         "--theta2", "-1"],
        ["--proc", "hommel", "--marginal-power", "0.85", "--theta1", "-1"],
        ["--proc", "hommel", "--design-arm", "1200", "--theta2", "-1"],
        ["--procedures", "all", "--design-arm", "1200", "--marginal-power", "0.85"],
    ])
    def test_conflicting_flags_are_config_error(self, argv, capsys):
        assert run(["power", *argv]) == (2, "")
        assert capsys.readouterr().err.startswith("configuration error: give ")

    def test_conflict_from_config_file(self, tmp_path):
        cfg = tmp_path / "power.cfg"
        cfg.write_text("proc = hommel\ntheta1 = -2\ntheta2 = -2\n")
        assert run(["power", "--config", str(cfg), "--procedures", "all"]) == (2, "")
        assert run(["power", "--config", str(cfg), "--design-arm", "1200"]) == (2, "")
        assert run(["power", "--config", str(cfg)])[0] == 0


class TestAllocateCommand:
    def test_any_prefers_extremes(self, tmp_path):
        out_csv = tmp_path / "alloc.csv"
        code, out = run(["allocate", "--N", "4800",
                         "--grid", "0,0.25,0.5,0.75,1",
                         "--measure", "pi_any", "--out", str(out_csv)])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("argmax[pi_any]")][0]
        assert line.split("=")[-1].strip() in ("0", "1")

    def test_weak_signal_pi1(self, tmp_path):
        out_csv = tmp_path / "alloc600.csv"
        code, _ = run(["allocate", "--N", "600", "--grid", "0.25,0.5",
                       "--measure", "pi_1", "--out", str(out_csv)])
        assert code == 0
        rows = out_csv.read_text().splitlines()
        vals = {float(r.split(",")[0]): float(r.split(",")[3]) for r in rows[1:]}
        assert vals[0.25] > vals[0.5]

    def test_combo_template_and_stdout_csv(self):
        code, out = run(["allocate", "--N", "1200", "--grid", "0.5",
                         "--measure", "pi_combo", "--out", "-"])
        assert code == 0
        assert "r,pi_avg,pi_any,pi_1,pi_combo" in out
        assert "objective template: pi_combo" in out

    def test_empty_grid_is_config_error(self):
        code, _ = run(["allocate", "--N", "600", "--grid", ""])
        assert code == 2

    @pytest.mark.parametrize("grid", ["0.25,zebra", "0.25,nan"])
    def test_bad_grid_value(self, grid):
        code, _ = run(["allocate", "--N", "600", "--grid", grid])
        assert code == 2

    def test_alpha_checked_when_every_split_is_degenerate(self, capsys):
        assert run(["allocate", "--N", "100", "--grid", "0,1", "--alpha",
                    "0.7", "--out", "-"]) == (2, "")
        assert capsys.readouterr().err.startswith(
            "configuration error: alpha must be in (0, 0.5], ")


class TestApexCommand:
    def test_default_run(self):
        code, out = run(["apex", "--skip-power"])
        assert code == 0
        assert "p = 0.0316" in out
        assert "p = 0.0061" in out
        assert "hommel: reject H2 only" in out
        assert "fixed_sequence: retain both" in out
        assert "closed_stouffer: reject H2 only" in out

    def test_power_matrix_runs(self):
        code, out = run(["apex"])
        assert code == 0
        assert "power matrix (design calibration" in out
        assert "theta = (-3.39747" in out

    def test_count_overrides(self):
        code, out = run(["apex", "--skip-power", "--events-treat2", "57",
                         "--n-treat2", "1218"])
        assert code == 0
        assert "p = 0.5000" in out

    @pytest.mark.parametrize("bad", [
        ["--calibration", "bogus"], ["--beta", "1.5"], ["--rate-control", "0"],
        ["--n-control2", "0"], ["--events-control2", "0"]])
    def test_bad_input_leaves_stdout_empty(self, bad, capsys):
        code, out = run(["apex", *bad])
        assert code == 2
        assert out == ""
        assert "configuration error" in capsys.readouterr().err


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["region", "--grid", "16"],
        ["allocate", "--N", "600", "--grid", "0.5"]])
    def test_config_error(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code, out = run([*argv, "--out", str(path)])
        assert code == 2
        assert out == ""
        assert "cannot write" in capsys.readouterr().err
        assert not path.exists()


class TestPowerSingleOmt:
    def test_single_omt_column(self):
        code, out = run(["power", "--proc", "omt", "--objective", "pi1",
                         "--theta1", "-2", "--theta2", "-2"])
        assert code == 0
        fwer_line = [l for l in out.splitlines() if l.startswith("fwer")][0]
        assert "0.0250" in fwer_line

    def test_omt_requires_objective(self):
        code, _ = run(["power", "--proc", "omt", "--theta1", "-2",
                       "--theta2", "-2"])
        assert code == 2

    def test_correlated_model_restricted_to_builtins(self):
        code, _ = run(["power", "--proc", "omt", "--objective", "pi1",
                       "--theta1", "-2", "--theta2", "-2", "--rho", "0.3"])
        assert code == 2
        code, _ = run(["power", "--proc", "hommel", "--theta1", "-2",
                       "--theta2", "-2", "--rho", "0.3"])
        assert code == 0


class TestApexCalibrationModes:
    def test_marginal_power_matrix_is_exchangeable(self):
        code, out = run(["apex", "--calibration", "marginal-power"])
        assert code == 0
        assert "power matrix (marginal-power calibration" in out
        assert "theta = (-2.9964, -2.9964)" in out

    def test_unknown_calibration(self):
        code, _ = run(["apex", "--calibration", "bogus", "--skip-power"])
        assert code == 2


class TestNameLookups:
    """Every name option is checked by one lookup that lists its choices."""

    @pytest.mark.parametrize("argv, choices", [
        (["power", "--procedures", "everything", "--theta1", "-2", "--theta2", "-2"],
         "['all', 'benchmark']"),
        (["apex", "--calibration", "bogus", "--skip-power"],
         "['design', 'marginal-power', 'marginal_power']"),
        (["savings", "--calibration", "bogus"],
         "['design', 'marginal-power', 'marginal_power']"),
    ], ids=["procedures", "apex-calibration", "savings-calibration"])
    def test_unknown_name_lists_the_choices(self, argv, choices, capsys):
        assert run(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unknown ")
        assert err.endswith(f"(choose from {choices})\n")


class TestSavingsCommand:
    def test_pi_any_savings_consistent_with_api(self):
        code, out = run(["savings", "--measure", "pi_any", "--N", "4800"])
        assert code == 0
        line = [l for l in out.splitlines() if "relative saving" in l][0]
        cli_val = float(line.split()[-1].rstrip("%"))

        import math
        from omt2 import QuadratureConfig, savings_report, theta_from_marginal_power
        th = theta_from_marginal_power(0.85, 0.025)
        rep = savings_report("pi_any", (1.0, 0.0, 0.0), 4800,
                             lambda n: th * math.sqrt(n / 4800.0), 0.025,
                             QuadratureConfig())
        assert cli_val == pytest.approx(rep.saving_pct, abs=0.005)

    def test_design_calibration_mode(self):
        code, out = run(["savings", "--measure", "pi_any", "--N", "4800",
                         "--calibration", "design"])
        assert code == 0
        line = [l for l in out.splitlines() if "relative saving" in l][0]
        val = float(line.split()[-1].rstrip("%"))
        # design shifts are weaker, the power curve is steeper near the
        # reference level, and the saving comes out slightly larger
        assert 5.0 < val < 25.0

    def test_combo_measure(self):
        code, out = run(["savings", "--measure", "pi_combo", "--N", "4800"])
        assert code == 0
        assert "relative saving" in out

    @pytest.mark.parametrize("alpha, power", [("0.025", "0.3920"),
                                              ("0.05", "0.3825")])
    def test_exact_tie_keeps_n(self, alpha, power):
        # at marginal power 0.5 the optimal pi_1 rule is hommel's, and the
        # two powers differ only by rounding (2.03e-11 at alpha 0.025)
        code, out = run(["savings", "--measure", "pi_1", "--N", "4800",
                         "--beta", "0.5", "--alpha", alpha])
        assert code == 0
        assert f"baseline (hommel) power at N=4800: {power}\n" in out
        assert out.endswith("baseline needs N = 4800 for the same power\n"
                            "relative saving: 0.00%\n")

    def test_unachievable_exit_code(self):
        code, _ = run(["savings", "--measure", "pi_any", "--N", "4800",
                       "--n-cap", "4801"])
        assert code == 4

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_nonpositive_n_is_config_error(self, n):
        code, out = run(["savings", "--N", n])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("calibration", ["marginal-power", "design"])
    def test_n_below_the_search_floor_is_config_error(self, calibration, capsys):
        # the integer search starts at 4, so a smaller N has no true answer
        for n in ("1", "2", "3"):
            code, out = run(["savings", "--N", n, "--calibration", calibration])
            assert (code, out) == (2, "")
            assert capsys.readouterr().err == (
                f"configuration error: N must be an integer in [4, inf), got {n}\n")
        code, out = run(["savings", "--N", "4", "--calibration", calibration])
        assert code == 0 and "relative saving" in out

    @pytest.mark.parametrize("calibration", ["marginal-power", "design"])
    @pytest.mark.parametrize("n_cap", ["99999999999999999999", "1" + "0" * 400],
                             ids=["20_digits", "401_digits"])
    def test_cap_past_the_shift_bound_names_n_cap(self, calibration, n_cap, capsys):
        code, out = run(["savings", "--measure", "pi_any", "--N", "4800",
                         "--n-cap", n_cap, "--calibration", calibration])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert f"n_cap = {n_cap} implies the shift" in err
        assert err.count("\n") == 1


class TestConfigHandling:
    @pytest.mark.parametrize("argv", [
        ["region", "--proc", "omt", "--objective", "combo", "--theta1", "-3.0",
         "--theta2", "-2.0", "--grid", "32", "--out", "-"],
        ["power", "--proc", "hommel", "--theta1", "-2.0", "--theta2", "-1.5"],
        ["allocate", "--N", "600", "--grid", "0.3,0.5", "--measure", "pi_combo",
         "--out", "-"],
        ["apex", "--calibration", "marginal-power", "--skip-power"],
        ["savings", "--measure", "pi_1", "--N", "1200", "--quad-profile",
         "coarse"],
    ], ids=lambda argv: argv[0])
    def test_dump_config_round_trip(self, tmp_path, argv):
        code, reference = run(argv)
        assert code == 0
        code, dumped = run(argv + ["--dump-config"])
        assert code == 0
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(dumped)
        code, reproduced = run([argv[0], "--config", str(cfg_file)])
        assert code == 0
        assert reproduced == reference

    def test_dump_config_records_env_profile(self, tmp_path, monkeypatch):
        argv = ["region", "--proc", "omt", "--objective", "combo", "--theta1",
                "-3", "--theta2", "-2", "--out", "-"]
        monkeypatch.setenv(cli_mod.QUAD_PROFILE_ENV, "coarse")
        code, reference = run(argv)
        assert code == 0
        code, dumped = run(argv + ["--dump-config"])
        assert code == 0
        assert "quad_profile = coarse\n" in dumped
        monkeypatch.delenv(cli_mod.QUAD_PROFILE_ENV)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(dumped)
        code, reproduced = run(["region", "--config", str(cfg_file)])
        assert code == 0
        assert reproduced == reference
        # the flag and the file both override the environment
        monkeypatch.setenv(cli_mod.QUAD_PROFILE_ENV, "fine")
        assert run(["region", "--config", str(cfg_file)]) == (0, reference)
        code, dumped = run(argv + ["--quad-profile", "coarse", "--dump-config"])
        assert "quad_profile = coarse\n" in dumped

    @pytest.mark.parametrize("out", ["a#b.csv", "a\nb.csv", "a\rb.csv", " a.csv"],
                             ids=["hash", "newline", "return", "leading-space"])
    def test_dump_config_refuses_value_that_does_not_read_back(self, out,
                                                               capsys):
        code, dumped = run(["region", "--grid", "16", "--out", out,
                            "--dump-config"])
        assert code == 2
        assert dumped == ""
        assert "would not read back" in capsys.readouterr().err

    HOMMEL_POWER = ["power", "--proc", "hommel", "--theta1", "-2", "--theta2", "-2"]
    ALLOCATE = ["allocate", "--N", "100", "--grid", "0.5", "--out", "-"]

    @pytest.mark.parametrize("argv, err", [
        (HOMMEL_POWER + ["--reps", "5", "--seed", "-3"],
         "reps must be an integer in [10000, 67108864], got 5"),
        (HOMMEL_POWER + ["--seed", "-3"],
         "seed must be an integer in [0, 18446744073709551615], got -3"),
        *[(argv + ["--alpha", "7"], "alpha must be in (0, 0.5], got 7.0")
          for argv in (["region", "--out", "-"], HOMMEL_POWER, ALLOCATE, ["apex"],
                       ["savings"])],
        (["region", "--grid", "5"], "grid must be an integer in [16, 4096], got 5"),
        (["region", "--z-lo", "1"],
         "z_hi - z_lo must be positive and finite, got [1.0, 0.0]"),
        (["region", "--theta1", "nan"], "theta1 must be a finite number, got nan"),
        (["region", "--out", ""], "out must name a file, or '-' for stdout"),
        (["power", "--proc", "hommel", "--design-arm", "0"],
         "design_arm must be an integer in [1, inf), got 0"),
        (["power", "--proc", "hommel", "--marginal-power", "0.01"],
         "marginal_power must be in [alpha, 1), got 0.01"),
        (HOMMEL_POWER + ["--rho", "1"], "rho must be in (-1, 1), got 1.0"),
        (["allocate", "--N", "1", "--grid", "0.5"],
         "N must be an integer in [2, inf), got 1"),
        (ALLOCATE + ["--rate-treat", "0"], "rate_treat must be in (0, 1), got 0.0"),
        (["apex", "--n-control1", "0"], "n_control1 must be an integer in [1, inf), got 0"),
        (["apex", "--events-treat2", "1199"],
         "events_treat2 must be an integer in [0, 1198], got 1199"),
        (["apex", "--rate-control", "1.5"], "rate_control must be in (0, 1), got 1.5"),
        (["apex", "--beta", "1"], "beta must be in [alpha, 1), got 1.0"),
        (["savings", "--N", "3"], "N must be an integer in [4, inf), got 3"),
        (["savings", "--n-cap", "3"], "n_cap must be an integer in [4, inf), got 3"),
        (["savings", "--n-cap", "1" + "0" * 30],
         "n_cap = 1000000000000000000000000000000 implies the shift -4.32493e+13, "
         "outside (-2097152, 2097152)"),
        (ALLOCATE + ["--rate-treat", "0.1"],
         "score alternatives need strictly negative shifts, got "
         "(0.3131121455425748, 0.3131121455425748)"),
    ], ids=["reps", "seed", "alpha_region", "alpha_power", "alpha_allocate",
            "alpha_apex", "alpha_savings", "grid", "z_range", "theta1", "out",
            "design_arm", "marginal_power", "rho", "N_allocate", "rate_treat",
            "n_control1", "events_treat2", "rate_control", "beta", "N_savings",
            "n_cap", "n_cap_shift", "allocate_rates"])
    def test_dump_config_refuses_what_the_run_refuses(self, argv, err, capsys):
        # every key's check, and the command's own, come before the dump
        for dump in ([], ["--dump-config"]):
            assert run(argv + dump) == (2, "")
            assert capsys.readouterr().err == f"configuration error: {err}\n"

    def test_config_file_with_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# settings\nproc = hommel\ntheta1 = -2.0\n"
                       "theta2 = -2.0  # shifts\n")
        code, out = run(["power", "--config", str(cfg)])
        assert code == 0
        assert "pi_any" in out

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("freq = 3\n")
        code, _ = run(["power", "--config", str(cfg)])
        assert code == 2

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 0.05\n# a later line\nalpha = 0.01\n")
        code, out = run(["power", "--proc", "hommel", "--theta1", "-2",
                         "--theta2", "-2", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert f"{cfg}:3: duplicate key 'alpha'" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("theta1 = -1.0\ntheta2 = -1.0\nproc = hommel\n")
        code, out = run(["power", "--config", str(cfg), "--theta1", "-3.0"])
        assert code == 0
        assert "theta = (-3, -1)" in out

    def test_quad_profile_env(self, monkeypatch):
        monkeypatch.setenv(cli_mod.QUAD_PROFILE_ENV, "nonsense")
        code, _ = run(["power", "--proc", "hommel", "--theta1", "-2",
                       "--theta2", "-2"])
        assert code == 2
        monkeypatch.setenv(cli_mod.QUAD_PROFILE_ENV, "coarse")
        code, _ = run(["power", "--proc", "hommel", "--theta1", "-2",
                       "--theta2", "-2"])
        assert code == 0

    def test_numerical_failure_exit_code(self, monkeypatch):
        def boom(spec, cfg=None):
            raise ToleranceNotMet("injected")
        monkeypatch.setattr(cli_mod, "build_omt", boom)
        code, _ = run(["region", "--proc", "omt", "--objective", "pi1",
                       "--theta1", "-2", "--theta2", "-2"])
        assert code == 3

    EXITS = [(ConfigError, 2, "configuration error"),
             (DomainError, 2, "configuration error"),
             (ToleranceNotMet, 3, "numerical failure"),
             (Omt2Error, 3, "error"),
             (Unachievable, 4, "unachievable target")]

    @pytest.mark.parametrize("error, code, label", EXITS,
                             ids=[e.__name__ for e, _, _ in EXITS])
    def test_exit_code_per_error_class(self, error, code, label, monkeypatch,
                                       capsys):
        def boom(spec, cfg=None):
            raise error("injected")
        monkeypatch.setattr(cli_mod, "build_omt", boom)
        assert run(["region", "--proc", "omt", "--objective", "pi1",
                    "--theta1", "-2", "--theta2", "-2", "--out", "-"]) == (code, "")
        assert capsys.readouterr().err == f"{label}: injected\n"

    def test_no_command_is_usage_error(self):
        code, _ = run([])
        assert code == 2


class TestMeasureNames:
    NAMES = ("pi_avg", "pi_any", "pi_1", "pi_combo", "pi1", "combo")

    @pytest.mark.parametrize("name", NAMES)
    def test_objective_and_measure_accept_every_name(self, name):
        code, _ = run(["region", "--proc", "omt", "--objective", name,
                       "--theta1", "-2.5", "--theta2", "-3", "--grid", "16",
                       "--out", "-"])
        assert code == 0
        code, out = run(["allocate", "--N", "600", "--grid", "0.5",
                         "--measure", name, "--out", "-"])
        assert code == 0
        assert f"objective template: {name}, N = 600" in out

    def test_alias_builds_the_same_rule(self):
        region = ["region", "--proc", "omt", "--theta1", "-3", "--theta2", "-2",
                  "--grid", "64", "--out", "-", "--objective"]
        assert run(region + ["combo"]) == run(region + ["pi_combo"])
        assert run(region + ["pi1"]) == run(region + ["pi_1"])
        savings = ["savings", "--N", "1200", "--measure"]
        code, alias = run(savings + ["combo"])
        assert code == 0
        assert alias.startswith("measure: combo ")
        assert run(savings + ["pi_combo"]) == (
            0, alias.replace("measure: combo ", "measure: pi_combo ", 1))

    @pytest.mark.parametrize("argv", [
        ["region", "--proc", "omt", "--theta1", "-2", "--theta2", "-2",
         "--objective"],
        ["allocate", "--N", "600", "--grid", "0.5", "--measure"],
        ["savings", "--measure"]], ids=lambda argv: argv[0])
    def test_unknown_name_is_config_error(self, argv):
        assert run(argv + ["pi_everything"]) == (2, "")


class TestInputBounds:
    """Sizes above their documented bound fail at once, before any large
    array is allocated, and the message names the bound."""

    @pytest.mark.parametrize("grid", ["4097", "100000000"])
    def test_region_grid_above_bound(self, grid, capsys):
        assert run(["region", "--proc", "hommel", "--grid", grid, "--out", "-"]) == (2, "")
        assert capsys.readouterr().err == (
            f"configuration error: grid must be an integer in [16, 4096], got {grid}\n")

    def test_region_range_width_overflows(self, capsys):
        argv = ["region", "--proc", "hommel", "--grid", "16", "--out", "-"]
        assert run(argv + ["--z-lo=-1e308", "--z-hi=1e308"]) == (2, "")
        assert capsys.readouterr().err == (
            "configuration error: z_hi - z_lo must be positive and finite, "
            "got [-1e+308, 1e+308]\n")
        code, out = run(argv + ["--z-lo=-1e300", "--z-hi=1e300"])
        assert code == 0 and out.count("\n") == 1 + 1 + 16 * 16 + 2
        # both alpha lines are nearest to the edge at 0; each takes its own
        # edge (7 and 8), so one row and one column of cells lie between them
        assert out.endswith("cells: none=80 only1=56 only2=56 both=64\n")
        assert capsys.readouterr().err == ""

    def test_mc_reps_above_bound(self, capsys):
        argv = ["power", "--proc", "hommel", "--theta1", "-2", "--theta2", "-2", "--mc"]
        assert run(argv + ["--reps", str(2**26 + 1)]) == (2, "")
        assert capsys.readouterr().err == ("configuration error: reps must be an integer "
                                           "in [10000, 67108864], got 67108865\n")


class TestFloatEdges:
    """Inputs that push a threshold solve past the float range end at once
    with exit 3 and one line on stderr, and no numpy warning."""

    @pytest.mark.parametrize("argv", [
        ["power", "--proc", "omt", "--objective", "pi_any", "--theta1", "-30",
         "--theta2", "-30", "--alpha", "1e-200"],
        ["power", "--proc", "omt", "--objective", "combo", "--marginal-power", "0.85",
         "--alpha", "1e-300"],
        ["savings", "--measure", "pi_any", "--N", "4800", "--alpha", "1e-300"],
        ["region", "--proc", "omt", "--objective", "pi1", "--theta1=-1e308",
         "--theta2", "-2", "--grid", "16", "--out", "-"],
        ["power", "--proc", "omt", "--objective", "combo", "--theta1", "-2",
         "--theta2=-1e308"],
        ["power", "--proc", "omt", "--objective", "combo", "--theta1=-1e308",
         "--theta2=-2"],
    ], ids=["corner_inf", "marginal_1e-300", "savings_1e-300", "region_theta1_max",
            "theta2_max", "theta1_max"])
    def test_ends_at_once_with_one_line(self, argv, capsys):
        with time_limit(5), warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            assert run(argv) == (3, "")
        assert [str(w.message) for w in warned] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: threshold bracket ran away")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, cause", [
        (["region", "--proc", "omt", "--objective", "pi_any", "--alpha", "0.001",
          "--theta1=-38.5", "--theta2=-19", "--grid", "16", "--out", "-"],
         "threshold t = exp(-763.747) underflows to 0"),
        (["power", "--proc", "omt", "--objective", "pi_any", "--theta1=-40",
          "--theta2=-8.5"],
         "no root with |g| <= 1e-10 after bisection refined [-745.1332191019412, "
         "-745.1332191019411] to floating-point resolution"),
    ], ids=["underflowed_t", "collapsed_bisection"])
    def test_unresolvable_threshold_exits_3(self, argv, cause, capsys):
        assert run(argv) == (3, "")
        assert capsys.readouterr().err == f"numerical failure: {cause}\n"

    @pytest.mark.parametrize("argv, line", [
        (["--proc", "omt", "--objective", "pi1", "--theta1", "-3", "--theta2", "-3"],
         "threshold t = 3.37407e+10\n"),
        (["--proc", "bittman"], "z-sum threshold = -9.84838\n"),
    ], ids=["omt", "bittman"])
    def test_small_alpha_region_prints_its_threshold(self, argv, line):
        # the null integral's z1 range follows alpha, so both solves succeed
        code, out = run(["region", "--alpha", "1e-22", "--grid", "16", "--out", "-",
                         *argv])
        assert code == 0
        assert line in out

    @pytest.mark.parametrize("alpha", ["5e-324", "1e-310"])
    def test_subnormal_alpha_exits_2(self, alpha, capsys):
        argv = ["power", "--proc", "hommel", "--theta1", "-3", "--theta2", "-3"]
        for dump in ([], ["--dump-config"]):
            assert run(argv + ["--alpha", alpha] + dump) == (2, "")
            assert capsys.readouterr().err == (
                "configuration error: alpha must be at least the smallest normal "
                f"float 2.2250738585072014e-308, got {float(alpha)!r}\n")

    def test_bittman_at_small_alpha_is_recalibrated(self):
        argv = ["region", "--grid", "16", "--out", "-", "--alpha", "1e-10", "--proc"]
        (c1, bittman), (c2, stouffer) = (run(argv + [proc])
                                         for proc in ("bittman", "closed_stouffer"))
        assert c1 == c2 == 0
        assert "z-sum threshold = -8.99629\n" in stouffer
        assert "z-sum threshold = -6.50123\n" in bittman


class TestNegativeValues:
    """A negative value in any notation is given after '=', as the help
    says; argparse takes -1e-9 after a space for an unknown option."""

    @pytest.mark.parametrize("argv, line", [
        ("power --proc hommel --theta1=-1e-9 --theta2=-3", "theta = (-1e-09, -3)"),
        ("power --proc hommel --theta1=-1e300 --theta2=-3 --dump-config",
         "theta1 = -1e+300"),
        ("region --proc hommel --z-lo=-1e308 --dump-config", "z_lo = -1e+308"),
    ])
    def test_joined_value_is_read(self, argv, line):
        code, out = run(argv.split())
        assert code == 0 and line in out

    @pytest.mark.parametrize("command", list(cli_mod._COMMANDS))
    def test_help_names_the_joined_form(self, command, capsys):
        assert run([command, "--help"])[0] == 0
        assert "--theta1=-1e-9" in " ".join(capsys.readouterr().out.split())


def python_m_omt2():
    """argv and env that run ``python -m omt2`` on the omt2 under test."""
    import os
    import sys
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return [sys.executable, "-m", "omt2"], env


# runs argv[1:] as a child, on at most two CPUs (so that it runs at most
# two Monte Carlo blocks at a time), and prints its peak resident set
RSS_PROBE = """
import os, resource, subprocess, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


class TestMcMemory:
    def test_power_mc_holds_less_than_one_full_length_array(self):
        # power --mc streams the draw: at 4e6 reps one float64 array of
        # reps values is 32 MB, and a run that kept the draw would hold two
        import subprocess
        import sys
        exe, env = python_m_omt2()

        def peak_bytes(argv):
            done = subprocess.run([sys.executable, "-c", RSS_PROBE, *argv],
                                  capture_output=True, text=True, timeout=300, env=env)
            assert done.returncode == 0, done.stderr
            # ru_maxrss is in bytes on macOS, in KiB elsewhere
            return int(done.stdout) * (1 if sys.platform == "darwin" else 1024)
        base = peak_bytes([sys.executable, "-c", "import omt2"])
        run_mc = peak_bytes(exe + ["power", "--proc", "hommel", "--theta1", "-2",
                                   "--theta2", "-2", "--mc", "--reps", "4000000"])
        assert run_mc - base < 4_000_000 * 8


class TestSaturatedScore:
    @pytest.mark.parametrize("objective", ["pi1", "combo"])
    def test_mc_rejects_where_the_score_overflows(self, objective):
        # at theta = -30, e1 * e2 overflows on the alternative's draws; the
        # score saturates at +inf, so Monte Carlo rejects there as
        # quadrature does, and nothing is written to stderr
        import subprocess
        exe, env = python_m_omt2()
        argv = exe + ["power", "--proc", "omt", "--objective", objective,
                      "--theta1=-30", "--theta2=-30", "--mc", "--reps", "100000"]
        done = subprocess.run(argv, capture_output=True, timeout=120, env=env)
        assert done.returncode == 0 and done.stderr == b""
        mc = done.stdout.decode().split("monte carlo")[1]
        for m in ("pi_avg", "pi_any", "pi_1", "pi_combo"):
            assert f"{m}=1.0000(" in mc, m

    def test_mc_rejects_where_the_pair_term_is_inf_times_zero(self):
        # at theta = -40 a semi-null's e1 overflows while its e2 underflows:
        # those scores are recomputed instead of left NaN, so Monte Carlo
        # agrees with quadrature, and nothing is written to stderr
        import subprocess
        exe, env = python_m_omt2()
        argv = exe + ["power", "--proc", "omt", "--objective", "combo",
                      "--theta1=-40", "--theta2=-40", "--mc", "--reps", "100000"]
        done = subprocess.run(argv, capture_output=True, timeout=120, env=env)
        assert done.returncode == 0 and done.stderr == b""
        quad, mc = done.stdout.decode().split("monte carlo")
        for m in ("pi_avg", "pi_any", "pi_1", "pi_combo"):
            assert f"{m:10s}1.0000" in quad and f"{m}=1.0000(" in mc, m


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closing_early_exits_quietly(self, unbuffered):
        import subprocess
        exe, env = python_m_omt2()
        env["PYTHONUNBUFFERED"] = unbuffered
        # 65,537 CSV lines are far more than a pipe holds, so the writer
        # is still writing when the reader goes away
        child = subprocess.Popen(exe + ["region", "--proc", "hommel", "--out", "-"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=env)
        assert child.stdout.readline() == b"z1,z2,class\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 1
        assert err == b""


class TestInstalledEntryPoint:
    @pytest.mark.parametrize("entry", ["console-script", "python-m"])
    def test_console_script_deterministic(self, entry):
        import shutil
        import subprocess
        env = None
        if entry == "python-m":
            # the entry the benchmark's cli workload runs, importing the
            # same omt2 as this test session
            exe, env = python_m_omt2()
        else:
            exe = [shutil.which("omt2")]
            if exe[0] is None:
                pytest.skip("console script not installed")
        argv = exe + ["power", "--proc", "hommel", "--theta1", "-2.0",
                      "--theta2", "-2.0"]
        first = subprocess.run(argv, capture_output=True, timeout=120, env=env)
        second = subprocess.run(argv, capture_output=True, timeout=120, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert b"pi_any" in first.stdout
