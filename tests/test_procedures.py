"""Decision rules, calibrated constructions, and region geometry."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from conftest import lr_density, measure_spec
from omt2 import (MEASURE_WEIGHTS, AlternativeModel, DomainError,
                  ObjectiveSpec, Procedure, ToleranceNotMet, UnsupportedModel,
                  bonferroni, build_bittman, build_omt, closed_stouffer,
                  evaluate_power, export_region, fixed_sequence, fwer_global,
                  hommel, hommel_coincidence_bound, mc_estimate, normal_pairs,
                  region_mass, region_symmetric_difference, score_pieces,
                  score_z, std_normal_quantile)
from omt2 import numerics, procedures

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
        mean, se = mc_estimate(lambda z1, z2: np.logical_or(*b.decide_z(z1, z2)),
                               AlternativeModel(0.0, 0.0), mc_cfg)
        assert abs(mean - ALPHA) <= 3 * se

    def test_symmetric_level_half(self, quad_cfg):
        b = build_bittman(0.5, quad_cfg)
        assert b.t_sum == pytest.approx(0.0, abs=1e-6)
        assert fwer_global(b, 0.0, quad_cfg) == pytest.approx(0.5, abs=1e-8)


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

    def test_correlated_model_unsupported(self, quad_cfg):
        spec = measure_spec("pi_1", AlternativeModel(-2.0, -2.0, 0.3), ALPHA)
        with pytest.raises(UnsupportedModel):
            build_omt(spec, quad_cfg)

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
                    score_pieces(spec),
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
        plan = procedures._column_plan((hommel(ALPHA),), -11.5, 9.5, quad_cfg)
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

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            export_region(hommel(ALPHA), 8)

    @pytest.mark.parametrize("grid_size", [20.5, 32.0, "32", True])
    def test_grid_size_must_be_an_integer(self, grid_size):
        with pytest.raises(DomainError):
            export_region(hommel(ALPHA), grid_size)

    @pytest.mark.parametrize("z_lo,z_hi", [(-4.0, math.inf), (-math.inf, 0.0),
                                           (math.nan, 0.0), (0.0, -1.0)])
    def test_z_range_must_be_finite_and_ordered(self, z_lo, z_hi):
        with pytest.raises(DomainError):
            export_region(hommel(ALPHA), 16, z_lo, z_hi)
