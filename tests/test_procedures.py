"""Decision rules, calibrated constructions, and region geometry."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

import omt2.procedures
from conftest import (bool_mean_se, exact_mass, linear_primitive, lr_density,
                      measure_spec, time_limit)
from omt2 import (MEASURE_WEIGHTS, AlternativeModel, DomainError,
                  ObjectiveSpec, Procedure, ToleranceNotMet,
                  bonferroni, build_bittman, build_omt, closed_stouffer,
                  evaluate_power, export_region, fixed_sequence, fwer_global,
                  hommel, hommel_coincidence_bound, mc_estimate, normal_pairs,
                  region_mass, region_symmetric_difference, score_z,
                  std_normal_quantile, theta_from_marginal_power)
from omt2 import numerics, objective, power_design, procedures
from omt2.gauss import ALPHA_MIN

ALPHA = 0.025
ZA = std_normal_quantile(ALPHA)
ZH = std_normal_quantile(ALPHA / 2)
SPEC_ONE = measure_spec("pi_1", AlternativeModel(-2.0, -2.0), ALPHA)


@pytest.fixture(scope="module")
def all_procedures(quad_cfg):
    """Every builtin plus constructed rules, symmetric and asymmetric."""
    m_sym = AlternativeModel(-2.0, -2.0)
    m_asym = AlternativeModel(-1.2, -2.7)
    return {
        "bonferroni": bonferroni(ALPHA),
        "hommel": hommel(ALPHA),
        "closed_stouffer": closed_stouffer(ALPHA),
        "fixed_sequence": fixed_sequence(ALPHA),
        "bittman": build_bittman(ALPHA, quad_cfg),
        "omt_one": build_omt(measure_spec("pi_1", m_sym, ALPHA), quad_cfg),
        "omt_any": build_omt(measure_spec("pi_any", m_sym, ALPHA), quad_cfg),
        "omt_combo_asym": build_omt(measure_spec("pi_combo", m_asym, ALPHA),
                                    quad_cfg),
    }


class TestDecide:
    def test_hommel_small_first_pvalue(self):
        d = hommel(ALPHA).decide((0.01, 0.9))
        assert d.as_tuple() == (True, False)

    def test_hommel_both_below_alpha(self):
        d = hommel(ALPHA).decide((0.02, 0.02))
        assert d.as_tuple() == (True, True)

    def test_closed_stouffer_pulls_in_weak_partner(self):
        # z-sum ~ -5.70 is far below sqrt(2) * quantile(alpha) ~ -2.77
        d = closed_stouffer(ALPHA).decide((0.0001, 0.024))
        assert d.as_tuple() == (True, True)

    def test_fixed_sequence_stops_at_first_failure(self):
        d = fixed_sequence(ALPHA).decide((0.03, 0.001))
        assert d.as_tuple() == (False, False)

    def test_fixed_sequence_passes_through(self):
        assert fixed_sequence(ALPHA).decide((0.01, 0.01)).as_tuple() == (True, True)
        assert fixed_sequence(ALPHA).decide((0.01, 0.5)).as_tuple() == (True, False)

    def test_bonferroni_halved_level(self):
        proc = bonferroni(ALPHA)
        assert proc.decide((0.012, 0.013)).as_tuple() == (True, False)

    def test_pvalue_domain(self):
        with pytest.raises(DomainError):
            hommel(ALPHA).decide((0.0, 0.5))
        with pytest.raises(DomainError):
            hommel(ALPHA).decide((0.5, 1.2))
        # exactly 1 is a legal (never-rejected) observation
        assert hommel(ALPHA).decide((1.0, 1.0)).as_tuple() == (False, False)

    def test_subnormal_pvalue_clamped(self):
        # values below the clamp floor are treated as the floor, not
        # rejected as inputs
        assert hommel(ALPHA).decide((1e-320, 0.9)).as_tuple() == (True, False)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            hommel(0.0)
        with pytest.raises(DomainError):
            build_bittman(-0.01)


class TestBittman:
    def test_threshold_above_stouffer(self, quad_cfg):
        b = build_bittman(ALPHA, quad_cfg)
        assert b.t_sum > math.sqrt(2.0) * ZA + 1e-6

    def test_null_level_exact(self, quad_cfg):
        b = build_bittman(ALPHA, quad_cfg)
        assert fwer_global(b, 0.0, quad_cfg) == pytest.approx(ALPHA, abs=1e-8)

    def test_null_level_mc(self, quad_cfg, mc_cfg):
        b = build_bittman(ALPHA, quad_cfg)
        count, = mc_estimate(lambda z1, z2: (np.logical_or(*b.decide_z(z1, z2)),),
                             (AlternativeModel(0.0, 0.0),), mc_cfg)
        mean, se = bool_mean_se(count, mc_cfg.reps)
        assert abs(mean - ALPHA) <= 3 * se

    def test_symmetric_level_half(self, quad_cfg):
        b = build_bittman(0.5, quad_cfg)
        assert b.t_sum == pytest.approx(0.0, abs=1e-6)
        assert fwer_global(b, 0.0, quad_cfg) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("alpha", [1e-9, 1e-10, 1e-12])
    def test_level_exact_at_small_alpha(self, alpha, quad_cfg):
        # the solve's tolerance scales with alpha, so it neither stops at
        # closed-Stouffer's threshold nor a few percent off the level
        b = build_bittman(alpha, quad_cfg)
        assert b.t_sum != closed_stouffer(alpha).t_sum
        assert exact_mass(b, "any") == pytest.approx(alpha, rel=0.01, abs=0.0)


class TestCoincidenceBound:
    def test_reference_value(self):
        assert hommel_coincidence_bound(0.025) == pytest.approx(-2.46, abs=0.01)

    def test_formula(self):
        expected = -math.log(2.0) / (ZA - ZH)
        assert hommel_coincidence_bound(0.025) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-2.4627, abs=1e-3)

    def test_other_level(self):
        za, zh = std_normal_quantile(0.05), std_normal_quantile(0.025)
        assert hommel_coincidence_bound(0.05) == pytest.approx(
            -math.log(2.0) / (za - zh), rel=1e-14)

    def test_domain(self):
        for alpha in (0.0, 0.6, "0.025", None):
            with pytest.raises(DomainError):
                hommel_coincidence_bound(alpha)
        # alpha = 0.5: quantile(alpha) = 0
        expected = -math.log(2.0) / (0.0 - std_normal_quantile(0.25))
        assert hommel_coincidence_bound(0.5) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(-1.0277, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_bound_splits_coincidence_at_wide_levels(self, alpha, quad_cfg):
        """The pi_1 rule is hommel just above the bound and departs from
        it just below."""
        bound = hommel_coincidence_bound(alpha)
        diff = {}
        for step in (0.05, -0.05):
            model = AlternativeModel(bound + step, bound + step)
            proc = build_omt(measure_spec("pi_1", model, alpha), quad_cfg)
            diff[step] = region_symmetric_difference(proc, hommel(alpha),
                                                     quad_cfg)
        assert diff[0.05] <= 1e-9
        assert diff[-0.05] >= 1e-5


class TestOmtConstruction:
    @pytest.mark.parametrize("theta", [-1.0, -2.0, -2.4])
    def test_one_false_null_matches_hommel_above_bound(self, theta, quad_cfg):
        proc = build_omt(measure_spec("pi_1", AlternativeModel(theta, theta), ALPHA),
                         quad_cfg)
        diff = region_symmetric_difference(proc, hommel(ALPHA), quad_cfg)
        assert diff < 1e-6
        # threshold has the closed form lr(alpha/2)/2 in this regime
        assert proc.t_score == pytest.approx(
            0.5 * float(lr_density(ALPHA / 2, theta)), rel=1e-6)

    def test_one_false_null_departs_below_bound(self, quad_cfg):
        proc = build_omt(measure_spec("pi_1", AlternativeModel(-2.9, -2.9), ALPHA),
                         quad_cfg)
        diff = region_symmetric_difference(proc, hommel(ALPHA), quad_cfg)
        assert diff > 5e-6          # genuinely different region
        assert diff == pytest.approx(2.1e-5, rel=0.15)

    @pytest.mark.parametrize("theta", [-2.0, -2.9])
    def test_any_objective_is_sum_rule(self, theta, quad_cfg):
        proc = build_omt(measure_spec("pi_any", AlternativeModel(theta, theta),
                                      ALPHA), quad_cfg)
        b = build_bittman(ALPHA, quad_cfg)
        assert region_symmetric_difference(proc, b, quad_cfg) < 1e-6

    def test_any_objective_decisions_match_sum_rule_on_grid(self, quad_cfg):
        proc = build_omt(measure_spec("pi_any", AlternativeModel(-2.9, -2.9), ALPHA),
                         quad_cfg)
        b = build_bittman(ALPHA, quad_cfg)
        g = np.linspace(-4.0, 0.0, 512)
        z1, z2 = np.meshgrid(g, g, indexing="ij")
        d1a, d2a = proc.decide_z(z1.ravel(), z2.ravel())
        d1b, d2b = b.decide_z(z1.ravel(), z2.ravel())
        assert np.array_equal(d1a, d1b)
        assert np.array_equal(d2a, d2b)

    def test_avg_and_any_regions_coincide(self, quad_cfg):
        m = AlternativeModel(-2.7, -2.7)
        pa = build_omt(measure_spec("pi_avg", m, ALPHA), quad_cfg)
        pb = build_omt(measure_spec("pi_any", m, ALPHA), quad_cfg)
        assert region_symmetric_difference(pa, pb, quad_cfg) < 1e-6

    def test_degenerate_level(self, quad_cfg):
        proc = build_omt(measure_spec("pi_1", AlternativeModel(-2.0, -2.0), 1e-12),
                         quad_cfg)
        area = fwer_global(proc, 0.0, quad_cfg)
        assert area <= 1.03e-12
        assert proc.decide((1e-3, 0.5)).as_tuple() == (False, False)

    def test_correlated_model_unsupported(self):
        # the spec refuses the model, so no rule is built on it
        with pytest.raises(DomainError, match=r"independent p-values only"):
            measure_spec("pi_1", AlternativeModel(-2.0, -2.0, 0.3), ALPHA)

    # at (-20, -20) the first low bracket of pi_any and pi_avg still has
    # null mass below alpha, so the solve walks it down (t ~ 1.7e-154)
    @pytest.mark.parametrize("theta", [(-1.0, -3.0), (-3.0, -1.0), (-1.2, -2.7),
                                       (-20.0, -20.0)])
    def test_asymmetric_builds_calibrate(self, theta, quad_cfg):
        for measure in ("pi_any", "pi_avg", "pi_1", "pi_combo"):
            spec = measure_spec(measure, AlternativeModel(*theta), ALPHA)
            proc = build_omt(spec, quad_cfg)
            assert fwer_global(proc, 0.0, quad_cfg) == pytest.approx(ALPHA, abs=1e-8)

    def test_coarse_quadrature_profile_still_calibrates(self):
        from omt2 import QuadratureConfig
        coarse = QuadratureConfig(panels_per_axis=12, nodes_per_panel=8,
                                  abs_tol=1e-6)
        fine = QuadratureConfig()
        proc = build_omt(measure_spec("pi_combo", AlternativeModel(-2.5, -1.5),
                                      ALPHA), coarse)
        assert fwer_global(proc, 0.0, fine) == pytest.approx(ALPHA, abs=1e-6)


class TestOmtBracketEdges:
    """Where the corner score or log t leaves the floats, the threshold
    solve ends at once with a typed error and no numpy warning."""

    @pytest.mark.parametrize("measure,theta,alpha", [
        ("pi_any", (-30.0, -30.0), 1e-200),    # the corner score overflows
        ("pi_combo", "marginal 0.85", 1e-300),
        ("pi_1", (-1e308, -2.0), ALPHA),       # theta^2/2 overflows: NaN corner
        ("pi_combo", (-2.0, -1e308), ALPHA),
        ("pi_combo", (-1e308, -2.0), ALPHA),
    ], ids=["corner_inf", "marginal_1e-300", "theta1_max_pi1", "theta2_max",
            "theta1_max"])
    def test_typed_error_at_once(self, measure, theta, alpha, quad_cfg):
        if theta == "marginal 0.85":
            theta = (theta_from_marginal_power(0.85, alpha),) * 2
        spec = measure_spec(measure, AlternativeModel(*theta), alpha)
        with time_limit(5), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceNotMet, match=r"^threshold bracket ran away"):
                build_omt(spec, quad_cfg)

    @pytest.mark.parametrize("build", [
        lambda: build_bittman(1e-320),
        lambda: build_omt(measure_spec("pi_combo", AlternativeModel(-2.0, -38.0), 1e-320)),
        lambda: hommel(5e-324)], ids=["bittman", "omt", "hommel"])
    def test_subnormal_alpha_is_refused(self, build):
        # below the smallest normal float the quadrature cannot reach alpha's flank
        with pytest.raises(DomainError, match=r"^alpha must be at least the smallest"):
            build()

    def test_high_side_stops_below_exp_overflow(self):
        tried = []

        def mass_above(tau):
            tried.append(tau)
            math.exp(tau)           # the solve's t; OverflowError above log(max)
            return 1.0
        with pytest.raises(ToleranceNotMet, match=r"\(high side\)$"):
            procedures._bracket_end(lambda tau: ALPHA - mass_above(tau), 650.0, 20.0)
        assert tried == [650.0, 670.0, 690.0]
        for start in (math.inf, math.nan):
            with pytest.raises(ToleranceNotMet, match=r"\(high side\)$"):
                procedures._bracket_end(lambda tau: ALPHA - mass_above(tau), start, 20.0)
        assert tried == [650.0, 670.0, 690.0]

    def test_low_side_keeps_its_cap(self):
        # the first low end is tried wherever it starts; a step below -720 ends it
        tried = []

        def mass_below(tau):
            tried.append(tau)
            return 0.0
        with pytest.raises(ToleranceNotMet, match=r"\(low side\)$"):
            procedures._bracket_end(lambda tau: ALPHA - mass_below(tau), -690.0, -20.0)
        assert tried == [-690.0, -710.0]
        with pytest.raises(ToleranceNotMet, match=r"\(low side\)$"):
            procedures._bracket_end(lambda tau: ALPHA - mass_below(tau), math.inf, -20.0)
        assert procedures._bracket_end(lambda tau: 0.0, -730.0, -20.0) == -730.0

    def test_high_side_steps_up_from_a_subnormal_corner(self):
        # log t below -720 is in range; only a step down there ends the bracket
        tried = []

        def mass(tau):
            tried.append(tau)
            return 1.0 if tau < -730.0 else 0.0
        assert procedures._bracket_end(lambda tau: ALPHA - mass(tau), -741.0, 20.0) == -721.0
        assert tried == [-741.0, -721.0]

    def test_subnormal_corner_runs_away_on_the_low_side(self, quad_cfg):
        # the corner score is about e^-741.4 with null mass above alpha there:
        # the high end steps up to about -721, and the low end runs away
        spec = measure_spec("pi_1", AlternativeModel(-40.5, -40.5), ALPHA)
        with time_limit(5):
            with pytest.raises(ToleranceNotMet, match=r"\(low side\)$"):
                build_omt(spec, quad_cfg)


class TestCalibrationEdges:
    """Where the solved threshold cannot mean what it says, the build ends
    with a typed error instead of returning it."""

    def test_alpha_above_the_floor_still_solves(self, quad_cfg):
        proc = build_omt(measure_spec("pi_1", AlternativeModel(-3.0, -3.0), 1e-18),
                         quad_cfg)
        assert fwer_global(proc, 0.0, quad_cfg) == pytest.approx(1e-18, rel=0.01, abs=0.0)

    def test_underflowed_threshold(self, quad_cfg):
        # the solve ends at log t = -763.7, and exp of that is 0
        spec = measure_spec("pi_any", AlternativeModel(-38.5, -19.0), 0.001)
        with pytest.raises(ToleranceNotMet, match=r"underflows to 0$"):
            build_omt(spec, quad_cfg)

    # one spec per way the solve fails: the bisection collapses at float
    # resolution, the low bracket end runs away, and exp(log t) is 0
    @pytest.mark.parametrize("theta, alpha, cause", [
        ((-40.0, -8.5), 0.025, r"^no root with \|g\| <= 1e-10 after bisection"),
        ((-30.0, -30.0), 0.025, r"^threshold bracket ran away \(low side\)$"),
        ((-38.5, -19.0), 0.001, r"underflows to 0$"),
    ], ids=["collapsed", "ran_away", "underflowed"])
    def test_every_build_failure_is_tolerance_not_met(self, theta, alpha, cause,
                                                       quad_cfg):
        spec = measure_spec("pi_any", AlternativeModel(*theta), alpha)
        with pytest.raises(ToleranceNotMet, match=cause) as failed:
            build_omt(spec, quad_cfg)
        assert failed.type is ToleranceNotMet


class TestSmallAlphaLevels:
    """The null integral's z1 range follows alpha, so every rule keeps its
    level however small alpha is."""

    @pytest.mark.parametrize("alpha", [1e-12, 1e-22, 1e-40, 1e-100, 1e-300, ALPHA_MIN])
    def test_builtins_match_their_closed_forms(self, alpha, quad_cfg):
        # hommel and fixed_sequence reject with probability alpha under the
        # null, bonferroni with 1 - (1 - alpha/2)^2
        for proc, level in ((hommel(alpha), alpha), (fixed_sequence(alpha), alpha),
                            (bonferroni(alpha), alpha - alpha * alpha / 4.0)):
            assert fwer_global(proc, 0.0, quad_cfg) == pytest.approx(level, rel=1e-9, abs=0.0)

    def test_closed_stouffer_matches_mpmath(self, quad_cfg):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        alpha = 1e-18
        proc = closed_stouffer(alpha)
        za, t = mp.mpf(std_normal_quantile(alpha)), mp.mpf(proc.t_sum)

        def ray(z):          # z1's column where the z2 ray ends at t - z1
            return mp.npdf(z) * mp.ncdf(t - z)
        # any rejection: min(z1, z2) <= za and z1 + z2 <= t; between za and
        # t - za the column's ray ends at za instead
        want = (mp.quad(ray, [-mp.inf, za - 10, za])
                + mp.ncdf(za) * (mp.ncdf(t - za) - mp.ncdf(za))
                + mp.quad(ray, [t - za, t - za + 10, mp.inf]))
        assert float(want) == pytest.approx(4.8498724e-4 * alpha, rel=1e-7, abs=0.0)
        assert fwer_global(proc, 0.0, quad_cfg) == pytest.approx(float(want), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("alpha", [1e-22, 1e-40, 1e-300])
    @pytest.mark.parametrize("build", [
        lambda a, q: build_bittman(a, q),
        *[lambda a, q, m=m: build_omt(measure_spec(m, AlternativeModel(-3.0, -3.0), a), q)
          for m in ("pi_any", "pi_1", "pi_combo")]],
        ids=["bittman", "omt_pi_any", "omt_pi_1", "omt_pi_combo"])
    def test_calibrated_rules_solve_to_alpha(self, build, alpha, quad_cfg):
        # within the solve's tolerance of 0.01 alpha
        proc = build(alpha, quad_cfg)
        assert fwer_global(proc, 0.0, quad_cfg) == pytest.approx(alpha, rel=0.01, abs=0.0)


class TestExactMassOracle:
    """`conftest.exact_mass`, the closed form for linear-cut rules, against
    mpmath and against `region_mass`."""

    @pytest.mark.parametrize("x,a,b", [
        (0.0, 0.3, -2.0), (1.2, 0.0, 3.0), (0.0, 0.0, -5.0), (-2.0, 1.5, 0.0),
        (-1.3, -7.0, -1200.0), (0.7, 12.0, -1200.0), (3.0, -2.5, 1e-3),
        (0.2, -0.3, -0.7)],
        ids=["h0", "k0", "h0_k0", "b0", "steep_low", "steep_high", "flat", "mixed"])
    def test_primitive_matches_mpmath(self, x, a, b):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30

        def primitive(u):
            kink = [mp.mpf(-a) / b] if b != 0 and -a / b < u else []
            return mp.quad(lambda z: mp.npdf(z) * mp.ncdf(a + b * z),
                           [-mp.inf, *kink, u])
        want = float(primitive(x) - primitive(-5.0))
        got = linear_primitive(x, a, b) - linear_primitive(-5.0, a, b)
        assert abs(got - want) <= 2e-16

    def test_agrees_with_region_mass(self, quad_cfg):
        # 468 masses: 15 builtins and 24 pi_any/pi_avg rules, each under the
        # null and three shifted models, for d1, d2 and any
        cases = []
        for alpha in (0.01, 0.025, 0.05):
            builtins = [bonferroni(alpha), hommel(alpha), closed_stouffer(alpha),
                        fixed_sequence(alpha), build_bittman(alpha, quad_cfg)]
            models = [AlternativeModel(-2.2, -2.9), AlternativeModel(-5.0, 0.0),
                      AlternativeModel(0.0, -3.5)]
            cases += [(r, models) for r in builtins]
            for theta in ((-2.2, -2.9), (-3.0, -3.0), (-5.0, -3.5), (-2.5, -2.0)):
                m = AlternativeModel(*theta)
                models = [m, AlternativeModel(theta[0], 0.0), AlternativeModel(0.0, theta[1])]
                cases += [(build_omt(measure_spec(k, m, alpha), quad_cfg), models)
                          for k in ("pi_any", "pi_avg")]
        masses = [(exact_mass(r, w, m), region_mass(r, w, m, quad_cfg))
                  for r, models in cases for m in (None, *models)
                  for w in ("d1", "d2", "any")]
        assert len(masses) == 468
        assert max(abs(e - q) for e, q in masses) <= 1e-12

    @pytest.mark.parametrize("rho", [0.5, -0.3])
    def test_agrees_under_correlation(self, rho, quad_cfg):
        m = AlternativeModel(-2.0, -2.5, rho)
        for r in (hommel(ALPHA), closed_stouffer(ALPHA), build_bittman(ALPHA, quad_cfg)):
            for w in ("d1", "d2", "any"):
                assert exact_mass(r, w, m) == pytest.approx(
                    region_mass(r, w, m, quad_cfg), abs=1e-12)

    @pytest.mark.parametrize("measure,theta", [("pi_1", (-3.0, -3.0)),
                                               ("pi_combo", (-2.5, -2.0))])
    def test_curved_cut_is_refused(self, measure, theta, quad_cfg):
        # w_one > 0, at shifts below the bound where pi_1 matches hommel
        proc = build_omt(measure_spec(measure, AlternativeModel(*theta), ALPHA),
                         quad_cfg)
        for which in ("d1", "d2", "any"):
            with pytest.raises(ValueError, match=r"not linear"):
                exact_mass(proc, which)


class TestStructuralRestrictions:
    def test_marginal_nominality(self, all_procedures, rng):
        """No rule rejects a hypothesis whose own p-value exceeds alpha
        (10^5 random p-value pairs, zero violations)."""
        n = 100_000
        p = rng.uniform(1e-8, 1 - 1e-8, size=(n, 2))
        z1 = std_normal_quantile(p[:, 0])
        z2 = std_normal_quantile(p[:, 1])
        for name, proc in all_procedures.items():
            d1, d2 = proc.decide_z(z1, z2)
            assert not np.any(d1 & (p[:, 0] > ALPHA)), name
            assert not np.any(d2 & (p[:, 1] > ALPHA)), name

    def test_weak_monotonicity(self, all_procedures, rng):
        """10^4 ordered pairs per rule: smaller p-values get at least as
        large decisions."""
        n = 10_000
        a = np.sort(rng.uniform(1e-8, 1 - 1e-8, size=(n, 2)), axis=1)
        b = np.sort(rng.uniform(1e-8, 1 - 1e-8, size=(n, 2)), axis=1)
        z_lo1, z_hi1 = std_normal_quantile(a[:, 0]), std_normal_quantile(a[:, 1])
        z_lo2, z_hi2 = std_normal_quantile(b[:, 0]), std_normal_quantile(b[:, 1])
        for name, proc in all_procedures.items():
            d1_lo, d2_lo = proc.decide_z(z_lo1, z_lo2)
            d1_hi, d2_hi = proc.decide_z(z_hi1, z_hi2)
            assert not np.any(d1_hi & ~d1_lo), name
            assert not np.any(d2_hi & ~d2_lo), name

    def test_strong_fwer_at_null_configurations(self, all_procedures, quad_cfg):
        for name, proc in all_procedures.items():
            null = fwer_global(proc, 0.0, quad_cfg)
            assert null <= ALPHA + 1e-6, name
            # one true null: false rejections of the true null stay below alpha
            semi = region_mass(proc, "d2", AlternativeModel(-2.5, 0.0), quad_cfg)
            assert semi <= ALPHA + 1e-6, name
            semi = region_mass(proc, "d1", AlternativeModel(0.0, -2.5), quad_cfg)
            assert semi <= ALPHA + 1e-6, name

    def test_exact_level_kinds(self, all_procedures, quad_cfg):
        for name in ("bittman", "omt_one", "omt_any", "omt_combo_asym"):
            assert fwer_global(all_procedures[name], 0.0, quad_cfg) == \
                pytest.approx(ALPHA, abs=1e-6), name

    def test_bittman_dominates_closed_stouffer(self, all_procedures):
        g = np.linspace(-4.0, 0.0, 512)
        z1, z2 = np.meshgrid(g, g, indexing="ij")
        d1c, d2c = all_procedures["closed_stouffer"].decide_z(z1.ravel(), z2.ravel())
        d1b, d2b = all_procedures["bittman"].decide_z(z1.ravel(), z2.ravel())
        assert not np.any(d1c & ~d1b)
        assert not np.any(d2c & ~d2b)

    def test_unconstrained_any_rule_is_not_weakly_monotone(self):
        """The unrestricted optimum for the any-objective (reject the
        smaller p-value when the z-sum clears the Stouffer cut) violates
        weak monotonicity, so it is deliberately not offered as a rule;
        the canonical counterexample pair swaps which hypothesis gets
        rejected as both p-values shrink."""
        def unconstrained(p1, p2):
            keep = (std_normal_quantile(p1) + std_normal_quantile(p2)
                    <= math.sqrt(2.0) * ZA)
            if not keep:
                return (False, False)
            return (p1 <= p2, p2 < p1)

        a = ALPHA
        p = (a / 2 + a * a / 4, a / 2 - a * a / 4)
        q = (a / 3 - a * a / 4, a / 3 + a * a / 4)
        assert q[0] <= p[0] and q[1] <= p[1]
        dp = unconstrained(*p)
        dq = unconstrained(*q)
        assert dp == (False, True)
        assert dq == (True, False)
        # componentwise dq >= dp fails
        assert not (dq[0] >= dp[0] and dq[1] >= dp[1])


class TestRuleDefinitionsAgree:
    """Each rule's union region is defined twice: pointwise for
    `decide_z` (the Monte Carlo path) and per column for `column_cuts`
    (the quadrature path).  The two must give the same decisions
    wherever they are asked."""

    MODEL = AlternativeModel(-2.2, -2.9)
    WEIGHTS = {**MEASURE_WEIGHTS, "interior": (0.2, 0.3, 0.5)}

    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05])
    def test_decide_z_matches_column_cuts(self, alpha, quad_cfg):
        rules = {"bonferroni": bonferroni(alpha), "hommel": hommel(alpha),
                 "closed_stouffer": closed_stouffer(alpha),
                 "fixed_sequence": fixed_sequence(alpha),
                 "bittman": build_bittman(alpha, quad_cfg)}
        for name, w in self.WEIGHTS.items():
            spec = ObjectiveSpec(*w, self.MODEL, alpha)
            rules[f"omt_{name}"] = build_omt(spec, quad_cfg)
        # 3 x 65536 seeded draws: the alternative and both semi-nulls
        e1, e2 = normal_pairs(20260811, 65536)
        t1, t2 = self.MODEL.theta1, self.MODEL.theta2
        mismatches = {}
        for name, proc in rules.items():
            for m1, m2 in ((t1, t2), (t1, 0.0), (0.0, t2)):
                z1, z2 = m1 + e1, m2 + e2
                d1, d2 = proc.decide_z(z1, z2)
                c1, c2 = proc.column_cuts(z1)
                bad = np.sum(d1 != (z2 <= c1)) + np.sum(d2 != (z2 <= c2))
                if bad:
                    mismatches[(name, m1, m2)] = int(bad)
        assert mismatches == {}


class TestScorePieces:
    """The per-piece coefficient table, from which the omt column cut and
    kinks are derived, against the independent pointwise `score_z`."""

    WEIGHTS = [*MEASURE_WEIGHTS.values(), (0.2, 0.3, 0.5)]
    THETAS = [(-2.0, -2.0), (-2.5, -3.0), (-3.0, -3.0), (-5.0, -3.5)]

    def specs(self, alpha):
        return [ObjectiveSpec(*w, AlternativeModel(*th), alpha)
                for w in self.WEIGHTS for th in self.THETAS]

    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05])
    def test_table_matches_score_z(self, alpha, rng):
        za = std_normal_quantile(alpha)
        below = lambda: za - rng.uniform(0.0, 6.0, 500)
        above = lambda: za + rng.uniform(0.01, 6.0, 500)
        for spec in self.specs(alpha):
            t1, t2 = spec.model.theta1, spec.model.theta2
            for (c_g, c_1, c_2), (z1, z2) in zip(
                    spec.pieces,
                    [(below(), below()), (below(), above()), (above(), below())]):
                e1 = np.exp(t1 * z1 - 0.5 * t1 * t1)
                e2 = np.exp(t2 * z2 - 0.5 * t2 * t2)
                np.testing.assert_allclose(c_g * e1 * e2 + c_1 * e1 + c_2 * e2,
                                           score_z(spec, z1, z2), rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05])
    def test_branch_switches_are_breakpoints(self, alpha, quad_cfg):
        """Where the score on z2 = za (either side) or z2 = 40 (the z1
        flank's z2 -> +inf limit) crosses t, the cut switches branch;
        each such z1 must be a panel split.  Formula roots outside their
        piece (harmless extra splits) are not required to be crossings."""
        za = std_normal_quantile(alpha)
        za_up = np.nextafter(za, np.inf)
        lines = [(za - 12.0, za, za), (za - 12.0, za, za_up),
                 (za - 12.0, za, 40.0), (za_up, za + 12.0, za)]
        misses = []
        for spec in self.specs(alpha):
            proc = build_omt(spec, quad_cfg)
            breaks = np.array(proc.z_breakpoints())
            for lo, hi, z2 in lines:
                gap = lambda z1: score_z(spec, z1, np.full_like(z1, z2)) - proc.t_score
                grid = np.linspace(lo, hi, 4001)
                sign = np.sign(gap(grid))
                for k in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                    root = brentq(lambda z: float(gap(np.array([z]))[0]),
                                  grid[k], grid[k + 1], xtol=1e-15)
                    if np.min(np.abs(breaks - root)) > 1e-12:
                        misses.append((spec.weights, spec.model, z2, root))
        assert misses == []


class TestRayMassGuards:
    def test_nan_threshold_is_not_read_as_zero(self, quad_cfg):
        proc = Procedure("closed_stouffer", ALPHA, t_sum=math.nan)
        with pytest.raises(ToleranceNotMet):
            region_mass(proc, "any", None, quad_cfg)
        with pytest.raises(ToleranceNotMet):
            region_symmetric_difference(proc, hommel(ALPHA), quad_cfg)

    @pytest.mark.parametrize("theta1", [-60.0, -1000.0, -1e5])
    def test_large_shift_is_integrated_around_it(self, theta1, quad_cfg):
        # z1 <= zh has all of N(theta1, 1): hommel rejects H1 surely
        model = AlternativeModel(theta1, -3.0)
        assert region_mass(hommel(ALPHA), "d1", model, quad_cfg) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("theta1", [-1000.0, -2.0 ** 21, 3e6, -3e6, 1e160,
                                        -1e160, 1.7e308, -1.7e308])
    def test_far_shift_matches_closed_form(self, theta1, quad_cfg):
        # every column lies below zh (theta1 < 0) or above za (theta1 > 0):
        # hommel then rejects H1 surely or never, and H2 at za or zh alone
        model = AlternativeModel(theta1, -3.0)
        masses = [region_mass(hommel(ALPHA), which, model, quad_cfg)
                  for which in ("d1", "d2", "any")]
        if theta1 < 0:
            expected = [1.0, ndtr(ZA + 3.0), 1.0]
        else:
            expected = [0.0, ndtr(ZH + 3.0), ndtr(ZH + 3.0)]
        assert masses == pytest.approx(expected, abs=1e-15, rel=0)
        assert max(masses) <= 1.0

    @pytest.mark.parametrize("theta1", [1e4 + 0.3, 2.0 ** 20 + 0.3])
    def test_sum_rule_at_a_cancelling_shift_matches_closed_form(self, theta1,
                                                                quad_cfg):
        # every column lies above za and every z2 below it, so d2 is
        # P(z1 + z2 <= t_sum) = Phi(t_sum / sqrt 2) at theta2 = -theta1
        model = AlternativeModel(theta1, -theta1)
        for proc in (closed_stouffer(ALPHA), build_bittman(ALPHA, quad_cfg)):
            assert region_mass(proc, "d2", model, quad_cfg) == pytest.approx(
                ndtr(proc.t_sum / math.sqrt(2.0)), abs=1e-11, rel=0)

    @pytest.mark.parametrize("theta1", [2.0 ** 21, -3e6, 1e16, -1e160, 1.7e308])
    def test_moving_cut_past_its_shift_bound_is_domain_error(self, theta1, quad_cfg):
        # a cut that moves with z1 is formed at z1 = x + theta1, which no
        # longer resolves the offsets x; a step rule still answers
        model = AlternativeModel(theta1, -theta1)
        for proc in (closed_stouffer(ALPHA), build_bittman(ALPHA, quad_cfg),
                     build_omt(SPEC_ONE, quad_cfg)):
            with pytest.raises(DomainError, match="whose cut moves with z1"):
                region_mass(proc, "d2", model, quad_cfg)
        assert 0.0 <= region_mass(hommel(ALPHA), "d2", model, quad_cfg) <= 1.0

    @pytest.mark.parametrize("call", [
        lambda cfg: region_mass(Procedure("hommel", 0.7), "any", None, cfg),
        lambda cfg: Procedure("bogus", ALPHA).z_breakpoints(),
        lambda cfg: region_mass(hommel(ALPHA), "both", None, cfg),
        lambda cfg: Procedure("closed_stouffer", ALPHA),
        lambda cfg: Procedure("omt", ALPHA),
        lambda cfg: Procedure("omt", ALPHA, spec=SPEC_ONE),
        lambda cfg: Procedure("hommel", ALPHA, t_sum=3.0),
        lambda cfg: Procedure("omt", 0.05, spec=SPEC_ONE, t_score=1.0),
    ], ids=["alpha_above_half", "unknown_kind", "both_event", "sum_without_t_sum",
            "omt_without_spec", "omt_without_t_score", "t_sum_on_hommel",
            "omt_alpha_differs_from_spec"])
    def test_bad_rule_or_event_is_domain_error(self, call, quad_cfg):
        with pytest.raises(DomainError):
            call(quad_cfg)


def inline_symmetric_difference(pa, pb, cfg):
    """`region_symmetric_difference` written out with its own nodes and
    cuts, as it was before it took them from `_column_plan`."""
    z1, w = numerics.panel_nodes(-numerics.Z_RANGE - 4.0, numerics.Z_RANGE,
                                 pa.z_breakpoints() + pb.z_breakpoints(),
                                 2 * cfg.panels_per_axis, cfg.nodes_per_panel)
    a1, a2 = pa.column_cuts(z1)
    b1, b2 = pb.column_cuts(z1)
    lo1, hi1 = np.minimum(a1, b1), np.maximum(a1, b1)
    lo2, hi2 = np.minimum(a2, b2), np.maximum(a2, b2)
    mass = (ndtr(hi1) - ndtr(lo1)) + (ndtr(hi2) - ndtr(lo2))
    olo, ohi = np.maximum(lo1, lo2), np.minimum(hi1, hi2)
    mass = mass - np.where(ohi > olo, ndtr(ohi) - ndtr(olo), 0.0)
    pdf1 = np.exp(-0.5 * z1 ** 2) / math.sqrt(2.0 * math.pi)
    return float(np.sum(w * pdf1 * mass))


# -- the ray-mass kernels in their broadcast form, kept as byte references --

def where_chain_union_cut(spec, t, z1):
    """`objective.score_cut` as one broadcast over a (3, 1, ...)
    coefficient table, with np.where for the log's argument."""
    t1, t2 = spec.model.theta1, spec.model.theta2
    za = std_normal_quantile(spec.alpha)
    ea2 = math.exp(t2 * za - 0.5 * t2 * t2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e1 = np.exp(t1 * z1 - 0.5 * t1 * t1)
        c_g, c_1, c_2 = np.reshape(np.transpose(spec.pieces),
                                   (3, 3) + (1,) * e1.ndim)
        slope, base = c_g * e1 + c_2, c_1 * e1
        e2 = (t - base) / slope
        cut = (np.log(np.where(e2 > 0, e2, 1.0)) + 0.5 * t2 * t2) / t2
        top = slope * ea2 + base
    cut_sq, cut_f1, cut_f2 = cut
    top_sq, top_f1 = top[:2]
    bottom_f1 = base[1]
    cut_low = np.where(t >= top_sq, cut_sq,
                       np.where(t >= top_f1, za,
                                np.where(t > bottom_f1, cut_f1, np.inf)))
    return np.where(z1 <= za, cut_low, cut_f2)


def squared_outer_mass(x, w, column_mass):
    """`procedures._outer_mass` with the pdf as one expression and np.sum."""
    pdf1 = np.exp(-0.5 * x ** 2) / math.sqrt(2.0 * math.pi)
    return float(np.sum(w * pdf1 * column_mass))


def conditional_inner(cut, x, model):
    """The inner CDF at a column cut in its general form, for any rho, at
    the offsets x = z1 - theta1."""
    m2, rho = model.theta2, model.rho
    return ndtr((cut - (m2 + rho * x)) / math.sqrt(1.0 - rho * rho))


def reference_mass(proc, which, model, cfg):
    """`region_mass` from its plan through the reference kernels."""
    model = model or AlternativeModel(0.0, 0.0, 0.0)
    x, w, c1, c2 = procedures._column_plan(
        (proc,), model.theta1, -numerics.Z_RANGE, numerics.Z_RANGE, cfg)
    cut = {"d1": c1, "d2": c2, "any": np.maximum(c1, c2)}[which]
    return squared_outer_mass(x, w, conditional_inner(cut, x, model))


def kernel_grid():
    """(spec, thresholds, z1 points) over 7 weight sets x 4 alpha x 5 theta.

    The thresholds run from 1e-300 to 1e300 through the corner score; the
    z1 points add every kink of every threshold and its two neighbouring
    floats to a grid that spans both sides of quantile(alpha)."""
    rng = np.random.default_rng(20261019)
    weights = [*MEASURE_WEIGHTS.values(), (0.2, 0.3, 0.5),
               *(tuple(rng.dirichlet([1.0, 1.0, 1.0]).tolist()) for _ in range(2))]
    thetas = [(-2.0, -2.0), (-0.5, -6.0), (-6.0, -0.5), (-30.0, -30.0),
              tuple(rng.uniform(-6.0, -0.5, 2).tolist())]
    for w in weights:
        for alpha in (0.005, 0.025, 0.05, 0.5):
            for theta in thetas:
                spec = ObjectiveSpec(*w, AlternativeModel(*theta), alpha)
                za = std_normal_quantile(alpha)
                corner = float(score_z(spec, za, za))
                ts = [1e-300, 1e-200, 1e200, 1e300, corner,
                      *(corner * 10.0 ** u for u in rng.uniform(-8.0, 8.0, 3).tolist())]
                kinks = [k for t in ts for k in objective.score_kinks(spec, t)]
                z1 = np.concatenate([np.linspace(-40.0, 12.0, 301), [za], kinks,
                                     np.nextafter(kinks, -np.inf),
                                     np.nextafter(kinks, np.inf)])
                yield spec, ts, z1


class TestKernelsMatchReferences:
    """The in-place kernels give the bytes of their broadcast forms."""

    def test_union_cut(self):
        for spec, ts, z1 in kernel_grid():
            for t in ts:
                got = objective.score_cut(spec, t, z1)
                assert got.tobytes() == where_chain_union_cut(spec, t, z1).tobytes(), (
                    spec, t)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_column_cuts_keep_shape_and_bytes(self, shape):
        rng = np.random.default_rng(len(shape))
        for spec, ts, _ in kernel_grid():
            proc = Procedure("omt", spec.alpha, spec=spec, t_score=ts[4])
            z1 = rng.uniform(-8.0, 4.0, shape)
            level = std_normal_quantile(spec.alpha)
            u = where_chain_union_cut(spec, ts[4], z1)
            for got, ref in zip(proc.column_cuts(z1),
                                (np.where(z1 <= level, u, -np.inf),
                                 np.minimum(u, level))):
                assert np.shape(got) == shape
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_column_cuts_of_a_python_float(self):
        proc = Procedure("omt", ALPHA, spec=SPEC_ONE, t_score=0.37)
        u = where_chain_union_cut(SPEC_ONE, 0.37, np.float64(-2.3))
        assert proc.column_cuts(-2.3)[1] == min(u, ZA)

    def test_outer_mass(self):
        rng = np.random.default_rng(7)
        z1, w = numerics.panel_nodes(-12.0, 9.5, [ZA, ZH], 24, 16)
        for m1 in (0.0, -0.0, -2.5, 3.0, -1e3, 2.0 ** 20):
            x = z1 - m1
            cm = rng.uniform(0.0, 1.0, z1.size)
            assert (procedures._outer_mass(x, w, cm).hex()
                    == squared_outer_mass(x, w, cm).hex())

    @pytest.mark.parametrize("model", [
        None, AlternativeModel(-2.5, 0.0), AlternativeModel(-2.5, -0.0),
        AlternativeModel(0.0, -3.0), AlternativeModel(-2.2, -2.9),
        AlternativeModel(-2.2, -2.9, -0.0), AlternativeModel(-2.2, -2.9, 0.4),
        AlternativeModel(1.5, -1.0, -0.7), AlternativeModel(-60.0, -3.0)],
        ids=["null", "m2_zero", "m2_negative_zero", "m1_zero", "independent",
             "rho_negative_zero", "rho_positive", "rho_negative", "far_shift"])
    def test_region_mass(self, model, all_procedures, quad_cfg):
        for proc in all_procedures.values():
            for which in ("d1", "d2", "any"):
                assert (region_mass(proc, which, model, quad_cfg).hex()
                        == reference_mass(proc, which, model, quad_cfg).hex())


class TestColumnPlan:
    """Every ray integral builds nodes and cuts once per (rule set, range,
    config)."""

    @pytest.fixture()
    def panel_builds(self, monkeypatch):
        """Empty plan cache; the list of `panel_nodes` calls made after."""
        calls = []
        real = procedures.panel_nodes

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(procedures, "panel_nodes", counted)
        procedures._column_plan.cache_clear()
        yield calls
        procedures._column_plan.cache_clear()

    def test_power_events_share_two_plans(self, panel_builds, quad_cfg):
        proc = Procedure("omt", ALPHA, spec=SPEC_ONE, t_score=0.37)
        evaluate_power(proc, AlternativeModel(-2.0, -2.5), quad_cfg)
        # the alternative and semi-null 1 share theta1; semi-null 2 has 0
        assert len(panel_builds) == 2
        fwer_global(proc, cfg=quad_cfg)    # same range as semi-null 2: a hit
        assert len(panel_builds) == 2

    def test_mass_is_the_same_from_a_fresh_plan(self, quad_cfg):
        proc = Procedure("omt", ALPHA, spec=SPEC_ONE, t_score=0.37)
        model = AlternativeModel(-2.0, -2.5)
        first = region_mass(proc, "any", model, quad_cfg)
        procedures._column_plan.cache_clear()
        assert region_mass(proc, "any", model, quad_cfg) == first

    def test_plan_arrays_are_read_only(self, quad_cfg):
        plan = procedures._column_plan((hommel(ALPHA),), 0.0, -11.5, 9.5, quad_cfg)
        for arr in plan:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_symmetric_difference_builds_one_plan(self, panel_builds, quad_cfg):
        pa = Procedure("omt", ALPHA, spec=SPEC_ONE, t_score=0.37)
        pb = hommel(ALPHA)
        region_symmetric_difference(pa, pb, quad_cfg)
        assert len(panel_builds) == 1
        _, _, breaks, panels, order = panel_builds[0]
        assert breaks == pa.z_breakpoints() + pb.z_breakpoints()
        assert panels == 2 * quad_cfg.panels_per_axis
        assert order == quad_cfg.nodes_per_panel

    def test_repeat_symmetric_difference_builds_none(self, panel_builds,
                                                     quad_cfg):
        pa = Procedure("omt", ALPHA, spec=SPEC_ONE, t_score=0.37)
        first = region_symmetric_difference(pa, hommel(ALPHA), quad_cfg)
        assert region_symmetric_difference(pa, hommel(ALPHA), quad_cfg) == first
        assert len(panel_builds) == 1

    @pytest.mark.parametrize("pair", [
        (Procedure("omt", ALPHA, spec=SPEC_ONE, t_score=0.37), hommel(ALPHA)),
        (bonferroni(ALPHA), closed_stouffer(ALPHA)),
        (fixed_sequence(ALPHA), hommel(ALPHA)),
        (hommel(ALPHA), hommel(ALPHA)),
    ], ids=["omt-hommel", "bonferroni-stouffer", "sequence-hommel", "self"])
    def test_symmetric_difference_matches_inline_integral(self, pair, quad_cfg):
        procedures._column_plan.cache_clear()
        assert (region_symmetric_difference(*pair, quad_cfg)
                == inline_symmetric_difference(*pair, quad_cfg))

    @pytest.mark.parametrize("w", [*MEASURE_WEIGHTS.values(), (0.2, 0.3, 0.5)])
    @pytest.mark.parametrize("t_score", [1e-300, 1e300])
    def test_extreme_threshold_warns_nothing(self, w, t_score, panel_builds,
                                             quad_cfg):
        spec = ObjectiveSpec(*w, AlternativeModel(-2.0, -3.0), ALPHA)
        proc = Procedure("omt", ALPHA, spec=spec, t_score=t_score)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proc.column_cuts(np.linspace(-25.0, 12.0, 6001))
            region_mass(proc, "any", None, quad_cfg)

    def test_strong_shift_warns_nothing(self, panel_builds, quad_cfg):
        # e1 overflows to +inf in the columns far inside the square
        model = AlternativeModel(-30.0, -30.0)
        proc = build_omt(measure_spec("pi_1", model, ALPHA), quad_cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate_power(proc, model, quad_cfg).pi_any == pytest.approx(1.0)


class TestSolverBits:
    """45 omt solves with their power reports and 3 bittman solves, pinned
    bit for bit (hex floats, reprs).  The thresholds and the powers have
    a digest each: a change to the alternative quadrature may move a
    power by rounding while every threshold, a null-mass root, stays put."""

    @pytest.fixture(scope="class")
    def solves(self):
        """(thresholds, power reports) in the order the digests take them."""
        thresholds, reports = [], []
        for alpha in (0.01, 0.025, 0.05):
            for w in [*MEASURE_WEIGHTS.values(), (0.2, 0.3, 0.5)]:
                for theta in ((-2.2, -2.9), (-3.0, -3.0), (-5.0, -3.5)):
                    model = AlternativeModel(*theta)
                    proc = build_omt(ObjectiveSpec(*w, model, alpha))
                    thresholds.append(proc.t_score)
                    reports.append(evaluate_power(proc, model))
            thresholds.append(build_bittman(alpha).t_sum)
        return thresholds, reports

    def test_solved_thresholds_pinned(self, solves):
        h = hashlib.sha256()
        for t in solves[0]:
            h.update(t.hex().encode())
        assert h.hexdigest() == (
            "c298da15d89b126b2ae6205b6cdb2336a9188beab01e22bb3fb0a2a3c71f596b")

    def test_powers_pinned(self, solves):
        h = hashlib.sha256()
        for rep in solves[1]:
            h.update(repr(rep).encode())
        assert h.hexdigest() == (
            "aeb5845136d9870dbfcfd179a6f6c1b484bb41e5cfd75d1e4d2ca9d57ef2a1d5")


class TestCallStructure:
    """`region_mass` calls and column plans of the calls the benchmark's
    ``ref.*`` counts pin (31 for `build_bittman(0.025)`, 5 for one
    `evaluate_power`)."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Empty plan cache; a function that runs a call and returns its
        (region_mass calls, column plans built)."""
        calls = []
        real = procedures.region_mass

        def region_mass_counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(procedures, "region_mass", region_mass_counted)
        monkeypatch.setattr(power_design, "region_mass", region_mass_counted)

        def run(fn):
            calls.clear()
            procedures._column_plan.cache_clear()
            fn()
            return len(calls), procedures._column_plan.cache_info().misses
        yield run
        procedures._column_plan.cache_clear()

    def test_bittman(self, counted):
        assert counted(lambda: build_bittman(0.025)) == (31, 30)

    def test_evaluate_power(self, counted):
        model = AlternativeModel(-2.5, -2.5)
        assert counted(lambda: evaluate_power(hommel(0.025), model))[0] == 5

    @pytest.mark.parametrize("w", [*MEASURE_WEIGHTS.values(), (0.2, 0.3, 0.5)])
    @pytest.mark.parametrize("theta", [(-2.5, -3.0), (-2.2, -2.9), (-5.0, -3.5)])
    def test_omt_plans_three_fewer_than_calls(self, w, theta, counted):
        # the three hits: the bisection's two end points, which the bracket
        # already evaluated, and the re-check of the solved threshold
        spec = ObjectiveSpec(*w, AlternativeModel(*theta), 0.025)
        calls, plans = counted(lambda: build_omt(spec))
        assert plans == calls - 3
        if w == MEASURE_WEIGHTS["pi_avg"] and theta == (-2.5, -3.0):
            assert calls == 34

    def test_omt_bracket_step_adds_a_hit(self, counted):
        # here the high end steps once by 20 from log(corner), so the first
        # bisection midpoint is log(corner) again
        spec = measure_spec("pi_1", AlternativeModel(-3.0, -3.0), 0.025)
        assert counted(lambda: build_omt(spec)) == (37, 33)


class TestRegionExport:
    def test_hommel_classes_follow_rule(self):
        grid = export_region(hommel(ALPHA), 128)
        c = grid.centers
        z1, z2 = np.meshgrid(c, c, indexing="ij")
        only1 = grid.classes == 1
        assert not np.any(only1 & (z1 > ZH) & (z2 > ZA))

    def test_hommel_square_is_both(self):
        grid = export_region(hommel(ALPHA), 256)
        c = grid.centers
        z1, z2 = np.meshgrid(c, c, indexing="ij")
        inside = (z1 <= ZA) & (z2 <= ZA)
        assert np.all(grid.classes[inside] == 3)

    def test_closed_stouffer_boundaries(self):
        grid = export_region(closed_stouffer(ALPHA), 512)
        c = grid.centers
        cell = c[1] - c[0]
        # on the diagonal the marginal p <= alpha constraint binds before
        # the z-sum cut (za < sqrt(2)*za/2), so both/none switches at za
        diag = np.array([grid.classes[i, i] for i in range(len(c))])
        k = np.max(np.where(diag == 3))
        assert abs(c[k] - ZA) <= cell + 1e-12
        # far off the diagonal (z1 > sqrt(2)*za - za) the z-sum threshold
        # becomes the visible only2/none boundary at z2 = sqrt(2)*za - z1
        i = int(np.argmin(np.abs(c + 0.3)))
        col = grid.classes[i, :]
        k2 = np.max(np.where(col == 2))
        assert abs(c[k2] - (math.sqrt(2.0) * ZA - c[i])) <= cell + 1e-12

    def test_omt_one_grid_identical_to_hommel(self, quad_cfg):
        proc = build_omt(SPEC_ONE, quad_cfg)
        ga = export_region(proc, 256)
        gb = export_region(hommel(ALPHA), 256)
        assert np.array_equal(ga.classes, gb.classes)

    def test_axis_includes_rule_boundaries(self):
        grid = export_region(hommel(ALPHA), 100)
        assert np.any(np.isclose(grid.axis, ZA, atol=1e-12))
        assert np.any(np.isclose(grid.axis, ZH, atol=1e-12))

    def test_csv_format(self):
        grid = export_region(bonferroni(ALPHA), 16, -3.0, 0.0)
        lines = grid.to_csv().splitlines()
        assert lines[0] == "z1,z2,class"
        assert len(lines) == 1 + 16 * 16
        first = lines[1].split(",")
        assert first[2] in ("none", "only1", "only2", "both")
        float(first[0]), float(first[1])

    @pytest.mark.parametrize("rule", ["bonferroni", "hommel", "closed_stouffer",
                                      "bittman", "fixed_sequence", "omt"])
    def test_csv_matches_per_cell_reference(self, rule, all_procedures, quad_cfg):
        # each cell decided on its own, from two 0-d z-scores
        proc = all_procedures[rule] if rule != "omt" else build_omt(
            ObjectiveSpec(0.2, 0.3, 0.5, AlternativeModel(-3.4, -2.7), ALPHA), quad_cfg)
        grid = export_region(proc, 64)
        # fixed_sequence tests H2 only after rejecting H1: no only2 cell
        assert set(np.unique(grid.classes).tolist()) == (
            {0, 1, 3} if rule == "fixed_sequence" else {0, 1, 2, 3})
        c, names = grid.centers, ("none", "only1", "only2", "both")

        def cell(z1, z2):
            d1, d2 = proc.decide_z(z1, z2)
            return names[int(d1) + 2 * int(d2)]
        want = "z1,z2,class\n" + "".join(
            f"{z1:.6g},{z2:.6g},{cell(z1, z2)}\n" for z1 in c for z2 in c)
        assert grid.to_csv() == want

    # (16, -8, 8): both lines are nearest to the edge at -2; (16, -40, 0) and
    # (16, -100, -1.9): both want the last interior edge, (16, -2.25, 100)
    # the first; (16, -2, 4) and (16, -1.98, 2): za alone, nearest to z_lo
    @pytest.mark.parametrize("grid_size,z_lo,z_hi", [
        (16, -8.0, 8.0), (16, -40.0, 0.0), (16, -100.0, -1.9), (16, -2.25, 100.0),
        (16, -2.0, 4.0), (16, -1.98, 2.0), (100, -4.0, 0.0), (256, -4.0, 0.0)])
    def test_every_alpha_line_on_its_own_edge(self, grid_size, z_lo, z_hi):
        axis = export_region(hommel(ALPHA), grid_size, z_lo, z_hi).axis
        assert len(axis) == grid_size + 1 and np.all(np.diff(axis) > 0)
        for line in (ZA, ZH):
            if z_lo < line < z_hi:
                assert line in axis[1:-1].tolist()

    def test_centers_are_midpoints(self):
        grid = export_region(closed_stouffer(ALPHA), 512)
        assert grid.centers.tobytes() == (0.5 * (grid.axis[:-1] + grid.axis[1:])).tobytes()
        # halved before the sum: the widest finite range has finite centers
        # (a numpy warning would fail this test)
        wide = export_region(hommel(ALPHA), 16, -1e308, 0.0)
        assert np.all(np.isfinite(wide.centers)) and wide.centers[0] < -9e307

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            export_region(hommel(ALPHA), 8)

    @pytest.mark.parametrize("grid_size", [4097, 100_000_000])
    def test_grid_size_ceiling(self, grid_size):
        # checked before the grid is built, so nothing large is allocated
        assert omt2.procedures.MAX_GRID == 4096
        bound = rf"^grid_size must be an integer in \[16, 4096\], got {grid_size}$"
        with pytest.raises(DomainError, match=bound):
            export_region(hommel(ALPHA), grid_size)

    @pytest.mark.parametrize("grid_size", [20.5, 32.0, "32", True])
    def test_grid_size_must_be_an_integer(self, grid_size):
        with pytest.raises(DomainError):
            export_region(hommel(ALPHA), grid_size)

    # (-1e308, 1e308): each end finite, but the width overflows
    @pytest.mark.parametrize("z_lo,z_hi", [(-4.0, math.inf), (-math.inf, 0.0),
                                           (math.nan, 0.0), (0.0, -1.0),
                                           (-1e308, 1e308)])
    def test_z_range_must_be_finite_and_ordered(self, z_lo, z_hi):
        with pytest.raises(DomainError, match=r"^z_hi - z_lo must be positive and finite"):
            export_region(hommel(ALPHA), 16, z_lo, z_hi)
