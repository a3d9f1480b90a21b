"""Power measures, trial-design mappings, and design-level searches."""

import hashlib
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq
from scipy.stats import norm

import omt2.numerics
import omt2.power_design
from conftest import (bool_mean_se, exact_se_squared, exact_sums, measure_spec,
                      shifted, whole_draws, whole_sample_mc_estimate)
from omt2 import (MEASURE_WEIGHTS, AlternativeModel, DomainError, McConfig,
                  ObjectiveSpec, Procedure, TwoArmDesign, Unachievable,
                  allocation_search, bonferroni, build_bittman, build_omt,
                  closed_stouffer, evaluate_power, fixed_sequence, hommel,
                  mc_power, mc_powers, normal_pairs, observed_pvalue,
                  required_n_for_power, savings_report, std_normal_cdf,
                  std_normal_quantile, theta_for_group, theta_from_design,
                  theta_from_marginal_power)

ALPHA = 0.025
ZA = std_normal_quantile(ALPHA)
ZH = std_normal_quantile(ALPHA / 2)
RATES = (0.075, 0.04875)
THETA_D = theta_for_group(2400, *RATES)   # 1200 per arm


def hommel_closed_form(th1, th2, alpha=ALPHA):
    """Independent-normal rectangle algebra for the hommel rule."""
    za, zh = std_normal_quantile(alpha), std_normal_quantile(alpha / 2)
    b1, g1 = std_normal_cdf(za - th1), std_normal_cdf(zh - th1)
    b2, g2 = std_normal_cdf(za - th2), std_normal_cdf(zh - th2)
    pd1 = g1 + (b1 - g1) * b2
    pd2 = g2 + (b2 - g2) * b1
    pany = b1 * b2 + g1 * (1 - b2) + g2 * (1 - b1)
    return pd1, pd2, pany


class TestDesignMappings:
    def test_equal_rates_are_null(self):
        assert theta_from_design(TwoArmDesign(0.1, 0.1, 500, 500)) == 0.0

    def test_reference_arm_sizes(self):
        th = theta_from_design(TwoArmDesign(*RATES, 1200, 1200))
        assert th == pytest.approx(-2.673, abs=0.01)
        th = theta_from_design(TwoArmDesign(*RATES, 1956, 1914))
        assert th == pytest.approx(-3.397, abs=0.01)

    def test_direct_formula(self):
        d = TwoArmDesign(*RATES, 1200, 1200)
        var = (0.075 * 0.925 + 0.04875 * 0.95125) / 1200
        assert theta_from_design(d) == pytest.approx(
            (0.04875 - 0.075) / math.sqrt(var), rel=1e-14)

    def test_group_split_gives_remainder_to_control(self):
        from omt2.power_design import split_arms
        assert split_arms(7) == (4, 3)
        assert split_arms(2400) == (1200, 1200)

    def test_design_validation(self):
        with pytest.raises(DomainError):
            TwoArmDesign(0.0, 0.5, 10, 10)
        with pytest.raises(DomainError):
            TwoArmDesign(0.1, 0.5, 0, 10)
        for n in (True, 10.0, "10"):
            with pytest.raises(DomainError):
                TwoArmDesign(0.1, 0.5, 10, n)

    def test_numpy_arm_sizes_stored_as_int(self):
        d = TwoArmDesign(*RATES, np.int64(1956), np.int32(1914))
        assert d == TwoArmDesign(*RATES, 1956, 1914) and type(d.n_treat) is int
        assert (theta_from_design(d)
                == theta_from_design(TwoArmDesign(*RATES, 1956, 1914)))


class TestObservedPvalue:
    def test_reference_groups(self):
        assert observed_pvalue(166, 1956, 132, 1914) == pytest.approx(0.032, abs=0.001)
        assert observed_pvalue(57, 1218, 33, 1198) == pytest.approx(0.006, abs=0.001)

    def test_identical_proportions(self):
        assert observed_pvalue(50, 1000, 50, 1000) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_variance(self):
        for counts in ((0, 100, 5, 100), (5, 100, 100, 100)):
            with pytest.raises(DomainError, match="observed proportion of 0 or 1"):
                observed_pvalue(*counts)

    def test_count_domain(self):
        with pytest.raises(DomainError):
            observed_pvalue(101, 100, 5, 100)
        with pytest.raises(DomainError):
            observed_pvalue(-1, 100, 5, 100)
        for bad in ((5.0, 100, 5, 100), (5, 100, True, 100), (5, 100, 5, "100")):
            with pytest.raises(DomainError):
                observed_pvalue(*bad)
        assert (observed_pvalue(np.int64(166), np.int64(1956), 132, 1914)
                == observed_pvalue(166, 1956, 132, 1914))


class TestMarginalPowerCalibration:
    def test_reference_value(self):
        th = theta_from_marginal_power(0.85, 0.025)
        assert th == pytest.approx(-2.996, abs=1e-3)
        # P(p <= alpha) at that shift is exactly the requested power
        assert std_normal_cdf(ZA - th) == pytest.approx(0.85, abs=1e-12)

    def test_boundary_power_is_alpha(self):
        assert theta_from_marginal_power(0.025, 0.025) == pytest.approx(0.0, abs=1e-12)

    def test_power_half(self):
        assert theta_from_marginal_power(0.5, 0.025) == pytest.approx(ZA, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            theta_from_marginal_power(1.0, 0.025)
        for alpha in (0.6, "0.025"):
            with pytest.raises(DomainError):
                theta_from_marginal_power(0.85, alpha)
        for beta in ("0.85", None):
            with pytest.raises(DomainError):
                theta_from_marginal_power(beta, 0.025)

    def test_numpy_beta_same_bits(self):
        assert (theta_from_marginal_power(np.float64(0.85), 0.025)
                == theta_from_marginal_power(0.85, 0.025))


class TestEvaluatePower:
    def test_bonferroni_null_one_false_measure(self, quad_cfg):
        rep = evaluate_power(bonferroni(ALPHA), AlternativeModel(-2.0, -2.0),
                             quad_cfg)
        # pi_1 under theta=0 components: P(p <= alpha/2) = alpha/2 ... at
        # the null shift itself:
        rep0 = evaluate_power(bonferroni(ALPHA),
                              AlternativeModel(-1e-12, -1e-12), quad_cfg)
        assert rep0.pi_1 == pytest.approx(ALPHA / 2, abs=1e-9)
        assert rep.pi_any >= rep.pi_avg

    def test_hommel_matches_closed_form(self, quad_cfg):
        for th1, th2 in ((-2.0, -2.0), (-1.0, -3.0), (THETA_D, THETA_D)):
            rep = evaluate_power(hommel(ALPHA), AlternativeModel(th1, th2),
                                 quad_cfg)
            pd1, pd2, pany = hommel_closed_form(th1, th2)
            assert rep.pi_avg == pytest.approx(0.5 * (pd1 + pd2), abs=1e-6)
            assert rep.pi_any == pytest.approx(pany, abs=1e-6)
            s1 = hommel_closed_form(th1, 0.0)[0]
            s2 = hommel_closed_form(0.0, th2)[1]
            assert rep.pi_1 == pytest.approx(0.5 * (s1 + s2), abs=1e-6)

    def test_hommel_any_beta_gamma_identity(self, quad_cfg):
        # union probability equals beta^2 + 2*gamma*(1 - beta) for
        # exchangeable shifts
        th = THETA_D
        beta = float(std_normal_cdf(ZA - th))
        gamma = float(std_normal_cdf(ZH - th))
        rep = evaluate_power(hommel(ALPHA), AlternativeModel(th, th), quad_cfg)
        assert rep.pi_any == pytest.approx(beta**2 + 2 * gamma * (1 - beta),
                                           abs=1e-6)

    def test_closed_stouffer_scipy_oracle(self, quad_cfg):
        th = -2.2
        ts = math.sqrt(2.0) * ZA
        pd1 = scipy_quad(lambda x: norm.pdf(x - th) * norm.cdf(ts - x - th),
                         -16, ZA, limit=500, epsabs=1e-12)[0]
        rep = evaluate_power(closed_stouffer(ALPHA), AlternativeModel(th, th),
                             quad_cfg)
        assert rep.pi_avg == pytest.approx(pd1, abs=1e-8)

    def test_fixed_sequence_closed_form(self, quad_cfg):
        th1, th2 = -2.3, -1.4
        b1 = float(std_normal_cdf(ZA - th1))
        b2 = float(std_normal_cdf(ZA - th2))
        rep = evaluate_power(fixed_sequence(ALPHA), AlternativeModel(th1, th2),
                             quad_cfg)
        assert rep.pi_any == pytest.approx(b1, abs=1e-9)
        assert rep.pi_avg == pytest.approx(0.5 * (b1 + b1 * b2), abs=1e-9)
        assert rep.pi_1 == pytest.approx(0.5 * (b1 + ALPHA * b2), abs=1e-9)

    def test_report_csv_format(self, quad_cfg):
        rep = evaluate_power(hommel(ALPHA), AlternativeModel(-2.0, -2.0),
                             quad_cfg)
        lines = rep.to_csv().splitlines()
        assert lines[0] == "measure,value"
        assert len(lines) == 5
        name, value = lines[1].split(",")
        assert name == "pi_avg"
        assert len(value.split(".")[1]) == 4

    def test_correlated_builtin_against_mc(self, quad_cfg, mc_cfg):
        model = AlternativeModel(-2.0, -2.5, 0.5)
        rep = evaluate_power(hommel(ALPHA), model, quad_cfg)
        est = mc_power(hommel(ALPHA), model, mc_cfg)
        for m in ("pi_avg", "pi_any", "pi_1", "pi_combo"):
            mean, se = est[m]
            assert abs(rep.get(m) - mean) <= 3 * se + 1e-12, m

    def test_mc_power_decides_each_model_once(self, monkeypatch):
        calls = {"_parts": 0, "_in_union": 0, "decide_z": 0, "mc_estimate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_parts", "_in_union", "decide_z"):
            monkeypatch.setattr(Procedure, name, counted(name, getattr(Procedure, name)))
        monkeypatch.setattr(omt2.power_design, "mc_estimate",
                            counted("mc_estimate", omt2.power_design.mc_estimate))
        mc_power(hommel(ALPHA), AlternativeModel(-2.0, -2.5),
                 McConfig(reps=20_000, seed=5))
        # one pass over one block: the parts of the four distinct vectors
        # (z1, z2 and the semi-nulls' x2, y1) and one union per model
        assert calls == {"_parts": 4, "_in_union": 3, "decide_z": 0, "mc_estimate": 1}

    def test_mc_power_decides_each_replication_once(self, monkeypatch, mc_cfg):
        # blocked: many calls, but per replication the parts of four
        # vectors and one union decision per model
        parts_sizes, union_sizes = [], []
        parts, in_union = Procedure._parts, Procedure._in_union

        def recorded_parts(self, k, z):
            parts_sizes.append(z.size)
            return parts(self, k, z)

        def recorded_union(self, p1, p2, spare=None):
            union_sizes.append(p1[0].size)
            return in_union(self, p1, p2, spare)
        monkeypatch.setattr(Procedure, "_parts", recorded_parts)
        monkeypatch.setattr(Procedure, "_in_union", recorded_union)
        mc_power(hommel(ALPHA), AlternativeModel(-2.0, -2.5), mc_cfg)
        assert mc_cfg.reps == 1_000_000
        assert sum(parts_sizes) == 4 * mc_cfg.reps
        assert sum(union_sizes) == 3 * mc_cfg.reps

    def test_mc_power_keeps_no_full_length_array(self, mc_cfg, quad_cfg, monkeypatch):
        # with the draws cached, one call's peak stays below one float64
        # array of reps values: the engine keeps per-block counts only
        rule, model = hommel(ALPHA), AlternativeModel(-2.0, -2.5)
        mc_power(rule, model, mc_cfg)
        tracemalloc.start()
        try:
            mc_power(rule, model, mc_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mc_cfg.reps == 1_000_000 and peak < 8 * 2**20
        # an omt rule keeps each vector's exponential and w_one term, and
        # at most two vectors' parts per block; two workers, so that the
        # peak does not depend on the machine's CPU count
        monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: 2)
        combo = build_omt(measure_spec("pi_combo", model, ALPHA), quad_cfg)
        mc_power(combo, model, mc_cfg)
        tracemalloc.start()
        try:
            mc_power(combo, model, mc_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_mc_powers_streams_in_block_memory(self, quad_cfg, monkeypatch):
        # the five benchmark columns in one pass, two workers and an empty
        # memo: the memo stays empty, and the peak does not grow with reps
        monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: 2)
        model = AlternativeModel(-2.0, -2.5)
        rules = [build_omt(measure_spec(m, model, ALPHA), quad_cfg)
                 for m in ("pi_avg", "pi_1", "pi_combo")]
        rules += [closed_stouffer(ALPHA), hommel(ALPHA)]
        peaks = []
        for reps in (1_000_000, 4_000_000):
            normal_pairs.cache_clear()
            tracemalloc.start()
            try:
                mc_powers(rules, model, McConfig(reps=reps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert omt2.numerics._draws == {}
        assert abs(peaks[1] - peaks[0]) < 2**20

    @pytest.mark.parametrize("theta1, rho", [(-2.0, 0.0), (-2.0, 0.5), (0.0, 0.0),
                                             (0.0, 0.5)])
    def test_mc_power_passes_the_two_semi_nulls(self, theta1, rho, monkeypatch):
        # the alternative's arrays are semi-null 1's z1 and semi-null 2's z2,
        # so mc_power asks for the two semi-null models alone, in one call
        calls = []
        mc_estimate = omt2.power_design.mc_estimate

        def recorded(event, models, cfg):
            calls.append(models)
            return mc_estimate(event, models, cfg)
        monkeypatch.setattr(omt2.power_design, "mc_estimate", recorded)
        mc_power(hommel(ALPHA), AlternativeModel(theta1, -2.5, rho),
                 McConfig(reps=10_000, seed=5))
        assert calls == [(AlternativeModel(theta1, 0.0, rho),
                          AlternativeModel(0.0, -2.5, rho))]

    def test_mc_power_agrees_at_a_large_shift(self, quad_cfg):
        # theta1 = -40: on semi-null 1, e1 overflows where e2 underflows;
        # those scores are recomputed, not left NaN, with no warning
        spec = ObjectiveSpec(0.2, 0.3, 0.5, AlternativeModel(-40.0, -2.0), ALPHA)
        rule = build_omt(spec, quad_cfg)
        rep = evaluate_power(rule, spec.model, quad_cfg)
        est = mc_power(rule, spec.model, McConfig(reps=100_000, seed=3))
        for m in ("pi_avg", "pi_any", "pi_1", "pi_combo"):
            mean, se = est[m]
            assert abs(rep.get(m) - mean) <= 3 * se + 1e-12, m

    def test_mc_power_repeats_on_cached_draws(self, quad_cfg):
        spec = ObjectiveSpec(0.2, 0.3, 0.5, AlternativeModel(-2.0, -2.5), ALPHA)
        rule = build_omt(spec, quad_cfg)
        cfg = McConfig(reps=100_000, seed=8)
        first = mc_power(rule, spec.model, cfg)
        assert mc_power(rule, spec.model, cfg) == first


def semi_nulls(model):
    return (AlternativeModel(model.theta1, 0.0, model.rho),
            AlternativeModel(0.0, model.theta2, model.rho))


class TestMcPowerOnePass:
    """mc_power decides the alternative and both semi-nulls in one pass
    over one draw; its means are those of three separate passes and its
    SEs are exact."""

    CFG = McConfig(reps=70_001, seed=606)    # two blocks, the last short

    @pytest.fixture(scope="class")
    def cases(self, quad_cfg):
        combo = build_omt(measure_spec("pi_combo", AlternativeModel(-2.5, -3.0), ALPHA),
                          quad_cfg)
        return {"hommel": (hommel(ALPHA), AlternativeModel(-2.0, -2.5)),
                "hommel-rho0.5": (hommel(ALPHA), AlternativeModel(-2.0, -2.5, 0.5)),
                "bonferroni-rho0.5": (bonferroni(ALPHA),
                                      AlternativeModel(-1.0, -3.0, 0.5)),
                "omt_combo": (combo, AlternativeModel(-2.5, -3.0))}

    @staticmethod
    def three_passes(rule, model, cfg):
        """The four measures from one pass per model, each SE bounded by
        the sum of its passes' SEs."""
        def alt(z1, z2):
            d1, d2 = rule.decide_z(z1, z2)
            return d1 | d2, d1, d2, d1 & d2
        n = cfg.reps
        semi1, semi2 = semi_nulls(model)
        hit, n1, n2, n12 = whole_sample_mc_estimate(alt, (model,), cfg)
        pany, se_any = bool_mean_se(hit, n)
        # d1 + d2 takes x^2 = x for each, plus twice their overlap
        count = n1 + n2
        se_count = math.sqrt(exact_se_squared(count, count + 2 * n12, n))
        c1, = whole_sample_mc_estimate(lambda z1, z2: (rule.decide_z(z1, z2)[0],),
                                       (semi1,), cfg)
        c2, = whole_sample_mc_estimate(lambda z1, z2: (rule.decide_z(z1, z2)[1],),
                                       (semi2,), cfg)
        (m1, se1), (m2, se2) = bool_mean_se(c1, n), bool_mean_se(c2, n)
        pi_1, se_1 = 0.5 * (m1 + m2), 0.5 * (se1 + se2)
        return {"pi_any": (pany, se_any), "pi_avg": (0.5 * (count / n), 0.5 * se_count),
                "pi_1": (pi_1, se_1),
                "pi_combo": (pany / 3.0 + 2.0 * pi_1 / 3.0,
                             se_any / 3.0 + 2.0 * se_1 / 3.0)}

    @pytest.mark.parametrize("case", ["hommel", "hommel-rho0.5",
                                      "bonferroni-rho0.5", "omt_combo"])
    def test_means_match_three_passes(self, case, cases):
        rule, model = cases[case]
        got, ref = mc_power(rule, model, self.CFG), self.three_passes(rule, model, self.CFG)
        assert list(got) == list(ref)
        for m in ref:
            assert got[m][0] == ref[m][0], m
        for m in ("pi_any", "pi_avg"):
            assert got[m][1] == ref[m][1], m
        # the semi-nulls' decisions are not perfectly correlated, so the
        # exact SE is below the summed one
        for m in ("pi_1", "pi_combo"):
            assert got[m][1] < ref[m][1], m

    @pytest.mark.parametrize("case", ["hommel", "hommel-rho0.5", "omt_combo"])
    def test_se_is_exact(self, case, cases):
        # the SE of the per-replication (s1 + s2)/2 and (any + s1 + s2)/3
        # on the whole sample, covariance between the models included
        rule, model = cases[case]
        got = mc_power(rule, model, self.CFG)
        zz1, zz2 = whole_draws(self.CFG)
        semi1, semi2 = semi_nulls(model)
        hit = np.logical_or(*rule.decide_z(*shifted(model, zz1, zz2)))
        one = (rule.decide_z(*shifted(semi1, zz1, zz2))[0].astype(np.int64)
               + rule.decide_z(*shifted(semi2, zz1, zz2))[1])
        for m, vals, k in (("pi_1", one, 2), ("pi_combo", hit + one, 3)):
            se2 = exact_se_squared(*exact_sums(vals), self.CFG.reps) / k**2
            with localcontext() as ctx:
                ctx.prec = 60
                exact = (Decimal(se2.numerator) / Decimal(se2.denominator)).sqrt()
                assert abs(Decimal(got[m][1]) - exact) <= Decimal(math.ulp(got[m][1])), m

    @pytest.mark.parametrize("case", ["hommel", "hommel-rho0.5"])
    def test_each_model_sees_its_formula(self, case, cases, monkeypatch):
        # one worker: the blocks come in order, each forming the parts of
        # z2, y1, z1 and x2, then deciding semi-null 2 on (y1, z2), the
        # alternative on (z1, z2) and semi-null 1 on (z1, x2)
        monkeypatch.setattr(omt2.numerics, "_worker_count", lambda: 1)
        formed, pairs = {}, []
        parts, in_union = Procedure._parts, Procedure._in_union

        def recorded_parts(self, k, z):
            p = parts(self, k, z)
            formed[id(p)] = (p, k, z)     # p kept alive, so its id stays unique
            return p

        def recorded_union(self, p1, p2, spare=None):
            pairs.append((formed[id(p1)][1:], formed[id(p2)][1:]))
            return in_union(self, p1, p2, spare)
        monkeypatch.setattr(Procedure, "_parts", recorded_parts)
        monkeypatch.setattr(Procedure, "_in_union", recorded_union)
        rule, model = cases[case]
        mc_power(rule, model, self.CFG)
        blocks = -(-self.CFG.reps // omt2.numerics._BLOCK)
        assert len(formed) == 4 * blocks and len(pairs) == 3 * blocks
        zz1, zz2 = whole_draws(self.CFG)
        semi1, semi2 = semi_nulls(model)
        for k, m in enumerate((semi2, model, semi1)):
            for c, want in enumerate(shifted(m, zz1, zz2)):
                assert all(pair[c][0] == c + 1 for pair in pairs[k::3])
                got = np.concatenate([pair[c][1] for pair in pairs[k::3]])
                assert np.array_equal(got, want), (m, k, c)


class TestMcPowerBits:
    """Every `mc_power` mean and SE, pinned bit for bit by one digest of
    their reprs: each builtin kind and five omt weight sets, on models with
    and without correlation and with a zero first shift, at two seeds of
    two blocks each.  `mc_powers`, one streamed pass over all ten rules,
    reaches the same digest."""

    WEIGHTS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
               (1.0 / 3.0, 0.0, 2.0 / 3.0), (0.2, 0.3, 0.5)]
    SEEDS = (3, 4)
    DIGEST = "007b5b0a574c65769ea48d36328bfe3e41b2c4092edeba6037477afe79cc5117"

    @pytest.fixture(scope="class")
    def cases(self, quad_cfg):
        spec_model = AlternativeModel(-2.0, -2.5)
        rules = [bonferroni(ALPHA), hommel(ALPHA), closed_stouffer(ALPHA),
                 build_bittman(ALPHA, quad_cfg), fixed_sequence(ALPHA)]
        rules += [build_omt(ObjectiveSpec(*w, spec_model, ALPHA), quad_cfg)
                  for w in self.WEIGHTS]
        models = [AlternativeModel(t1, -2.5, rho) for t1 in (-2.0, 0.0)
                  for rho in (0.0, 0.5)]
        return rules, models

    def test_digest(self, cases):
        rules, models = cases
        digest = hashlib.sha256()
        for seed in self.SEEDS:
            cfg = McConfig(reps=70_001, seed=seed)
            for rule in rules:
                for model in models:
                    digest.update(repr(mc_power(rule, model, cfg)).encode())
        assert digest.hexdigest() == self.DIGEST

    def test_mc_powers_digest(self, cases):
        # one streamed call per seed and model, hashed in the order above
        rules, models = cases
        digest = hashlib.sha256()
        for seed in self.SEEDS:
            cfg = McConfig(reps=70_001, seed=seed)
            by_model = []
            for model in models:
                normal_pairs.cache_clear()
                by_model.append(mc_powers(rules, model, cfg))
            for k in range(len(rules)):
                for ests in by_model:
                    digest.update(repr(ests[k]).encode())
        assert digest.hexdigest() == self.DIGEST


class TestQuadratureMcAgreement:
    def test_all_procedures_all_measures(self, quad_cfg, mc_cfg):
        model = AlternativeModel(THETA_D, THETA_D)
        procs = {
            "hommel": hommel(ALPHA),
            "closed_stouffer": closed_stouffer(ALPHA),
            "bonferroni": bonferroni(ALPHA),
            "fixed_sequence": fixed_sequence(ALPHA),
            "bittman": build_bittman(ALPHA, quad_cfg),
            "omt_one": build_omt(measure_spec("pi_1", model, ALPHA), quad_cfg),
            "omt_any": build_omt(measure_spec("pi_any", model, ALPHA), quad_cfg),
            "omt_combo": build_omt(measure_spec("pi_combo", model, ALPHA),
                                   quad_cfg),
        }
        for name, proc in procs.items():
            rep = evaluate_power(proc, model, quad_cfg)
            est = mc_power(proc, model, mc_cfg)
            for m in ("pi_avg", "pi_any", "pi_1", "pi_combo"):
                mean, se = est[m]
                assert abs(rep.get(m) - mean) <= 3 * se + 1e-12, (name, m)


class TestOptimalityDominance:
    def test_omt_maximizes_its_own_measure(self, quad_cfg):
        """Across the shift panel, the rule built for a measure attains
        the panel maximum of that measure (margin 1e-6)."""
        thetas = (-1.0, -2.0, -3.0)
        for th1 in thetas:
            for th2 in thetas:
                model = AlternativeModel(th1, th2)
                omts = {m: build_omt(measure_spec(m, model, ALPHA), quad_cfg)
                        for m in MEASURE_WEIGHTS}
                competitors = list(omts.values()) + [
                    hommel(ALPHA), closed_stouffer(ALPHA),
                    build_bittman(ALPHA, quad_cfg), fixed_sequence(ALPHA),
                    bonferroni(ALPHA)]
                reports = [evaluate_power(p, model, quad_cfg)
                           for p in competitors]
                for measure, opt in omts.items():
                    best = evaluate_power(opt, model, quad_cfg).get(measure)
                    for rep in reports:
                        assert best >= rep.get(measure) - 1e-6, (measure, th1, th2)


class TestMonotonePower:
    def test_power_increases_with_signal(self, quad_cfg):
        ladder = [-0.5, -1.0, -1.5, -2.0, -2.5, -3.0]
        prev = None
        for th in ladder:
            rep = evaluate_power(hommel(ALPHA), AlternativeModel(th, th), quad_cfg)
            if prev is not None:
                for m in ("pi_avg", "pi_any", "pi_1", "pi_combo"):
                    assert rep.get(m) >= prev.get(m) - 1e-12
            prev = rep


class TestAllocation:
    def test_any_measure_prefers_extreme_splits(self, quad_cfg):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        res = allocation_search(4800, (1.0, 0.0, 0.0), *RATES, grid, ALPHA,
                                quad_cfg)
        assert res.argmax["pi_any"] in (0.0, 1.0)
        # the single-group most-powerful-test bound holds everywhere and
        # is attained exactly at the degenerate splits
        theta_full = theta_for_group(4800, *RATES)
        bound = float(std_normal_cdf(ZA - theta_full))
        for r, rep in zip(res.r_grid, res.reports):
            assert rep.pi_any <= bound + 1e-6
        assert res.reports[0].pi_any == pytest.approx(bound, abs=1e-9)
        assert res.reports[-1].pi_any == pytest.approx(bound, abs=1e-9)

    def test_strong_signal_prefers_even_split(self, quad_cfg):
        for measure in ("pi_avg", "pi_1", "pi_combo"):
            res = allocation_search(4800, MEASURE_WEIGHTS[measure], *RATES,
                                    [0.25, 0.5], ALPHA, quad_cfg)
            assert res.argmax[measure] == 0.5

    def test_weak_signal_prefers_uneven_split(self, quad_cfg):
        res = allocation_search(600, (0.0, 0.0, 1.0), *RATES, [0.25, 0.5],
                                ALPHA, quad_cfg)
        assert res.argmax["pi_1"] == 0.25

    def test_weak_signal_uneven_split_wins_every_measure(self, quad_cfg):
        # at N=600 the quarter split beats the even split on each
        # measure evaluated under its own optimal rule
        for measure, weights in MEASURE_WEIGHTS.items():
            res = allocation_search(600, weights, *RATES, [0.25, 0.5],
                                    ALPHA, quad_cfg)
            assert res.argmax[measure] == 0.25, measure

    def test_csv_shape(self, quad_cfg):
        res = allocation_search(1200, (0.0, 0.0, 1.0), *RATES, [0.5], ALPHA,
                                quad_cfg)
        lines = res.to_csv().splitlines()
        assert lines[0] == "r,pi_avg,pi_any,pi_1,pi_combo"
        assert len(lines) == 2

    def test_grid_validation(self, quad_cfg):
        with pytest.raises(DomainError):
            allocation_search(1200, (0.0, 0.0, 1.0), *RATES, [], ALPHA, quad_cfg)
        with pytest.raises(DomainError):
            allocation_search(1200, (0.0, 0.0, 1.0), *RATES, [1.5], ALPHA, quad_cfg)
        with pytest.raises(DomainError):
            allocation_search(1200, (0.0, 0.0, 1.0), *RATES, [float("nan")], ALPHA,
                              quad_cfg)
        # every split degenerate: alpha is still checked
        with pytest.raises(DomainError):
            allocation_search(100, (0.0, 0.0, 1.0), *RATES, [0.0, 1.0], 0.7,
                              quad_cfg)

    @pytest.mark.parametrize("n_total", ["2400", 2400.7, 2400.0, True, 1, None])
    def test_total_size_validation(self, n_total, quad_cfg):
        with pytest.raises(DomainError, match="^n_total must be an integer"):
            allocation_search(n_total, (0.0, 0.0, 1.0), *RATES, [0.5], ALPHA,
                              quad_cfg)

    @pytest.mark.parametrize("n_total, grid", [
        (5, [0.2]), (3, [0.5]), (2, [0.5]), (1200, [0.5, 0.9995])])
    def test_group_of_one_names_the_split(self, n_total, grid, quad_cfg,
                                          monkeypatch):
        # every split is checked before the first rule is built
        monkeypatch.setattr(omt2.power_design, "build_omt",
                            lambda *a: pytest.fail("built before the check"))
        with pytest.raises(DomainError, match=rf"^split r=\S+ of {n_total} persons "
                           "funds a group of 1 person"):
            allocation_search(n_total, (0.0, 0.0, 1.0), 0.1, 0.07, grid, ALPHA,
                              quad_cfg)

    def test_smallest_total_funds_one_group(self, quad_cfg):
        # one person per arm: each degenerate split tests that group alone
        res = allocation_search(2, (0.0, 0.0, 1.0), *RATES, [0.0, 1.0], ALPHA,
                                quad_cfg)
        beta = float(std_normal_cdf(ZA - theta_for_group(2, *RATES)))
        assert res.reports[0] == res.reports[1]
        assert res.reports[0].pi_any == beta

    def test_numpy_total_size_accepted(self, quad_cfg):
        assert (allocation_search(np.int64(1200), (0.0, 0.0, 1.0), *RATES,
                                  [0.5], ALPHA, quad_cfg)
                == allocation_search(1200, (0.0, 0.0, 1.0), *RATES, [0.5],
                                     ALPHA, quad_cfg))


class TestRequiredN:
    def test_zero_target_returns_floor(self):
        assert required_n_for_power(lambda n: 0.5, 0.0, n_lo=7) == 7

    def test_unattainable_target(self):
        with pytest.raises(Unachievable):
            required_n_for_power(lambda n: 0.9, 1.0)
        with pytest.raises(Unachievable):
            required_n_for_power(lambda n: 0.0, 0.5, n_cap=100)

    @pytest.mark.parametrize("field, value", [
        ("n_lo", 4.5), ("n_lo", "4"), ("n_lo", 0), ("n_cap", 100.0),
        ("n_cap", True), ("n_cap", "x")])
    def test_bounds_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            required_n_for_power(lambda n: n / 100, 0.5, **{field: value})

    def test_numpy_bounds_return_int(self):
        n = required_n_for_power(lambda n: n / 100, 0.5, n_lo=np.int64(4),
                                 n_cap=np.int32(100))
        assert n == 50 and type(n) is int

    def test_minimality(self):
        power = lambda n: 1.0 - math.exp(-n / 500.0)
        n = required_n_for_power(power, 0.8)
        assert power(n) >= 0.8 > power(n - 1)

    def test_rounding_shortfall_is_a_tie(self):
        # a power 2e-11 below the target, as two coinciding rules give,
        # reaches it; a shortfall of 1e-8 does not
        target = 0.39203
        assert required_n_for_power(
            lambda n: target - 2e-11 if n >= 4800 else 0.1, target, n_lo=4800) == 4800
        assert required_n_for_power(
            lambda n: target - 1e-8 if n < 4801 else target, target, n_lo=4800) == 4801

    @pytest.mark.parametrize("n_ref", [0, -4, 3, 4800.0, True])
    def test_savings_reference_size_validation(self, n_ref):
        def theta_of_n(n):
            raise AssertionError("called before n_reference was checked")
        with pytest.raises(DomainError):
            savings_report("pi_any", (1.0, 0.0, 0.0), n_ref, theta_of_n, ALPHA)

    @pytest.mark.parametrize("n_cap", ["x", 200_000.0, 0, 3, False])
    def test_savings_cap_validation(self, n_cap):
        def theta_of_n(n):
            raise AssertionError("called before n_cap was checked")
        with pytest.raises(DomainError, match="^n_cap must be an integer"):
            savings_report("pi_any", (1.0, 0.0, 0.0), 4800, theta_of_n, ALPHA,
                           n_cap=n_cap)

    def test_savings_consistency(self, quad_cfg):
        """The discrete search agrees with an independent continuous
        root solve on the baseline power curve."""
        th_ref = theta_from_marginal_power(0.85, ALPHA)

        def theta_of_n(n):
            return th_ref * math.sqrt(n / 4800.0)

        rep = savings_report("pi_any", (1.0, 0.0, 0.0), 4800, theta_of_n,
                             ALPHA, quad_cfg)
        assert rep.n_required > 4800
        assert rep.saving_pct == pytest.approx(
            (rep.n_required - 4800) / rep.n_required * 100.0, rel=1e-12)

        def gap(n):
            th = theta_of_n(n)
            pd1, pd2, pany = hommel_closed_form(th, th)
            return pany - rep.optimal_power

        root = brentq(gap, 4800, 20000, xtol=1e-6)
        assert abs(rep.n_required - math.ceil(root)) <= 1

        th_req = theta_of_n(rep.n_required)
        pany_req = hommel_closed_form(th_req, th_req)[2]
        th_prev = theta_of_n(rep.n_required - 1)
        pany_prev = hommel_closed_form(th_prev, th_prev)[2]
        assert pany_req >= rep.optimal_power > pany_prev
