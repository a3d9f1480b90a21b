"""Acceptance gate: end-to-end criteria at their stated tolerances.

Each test records one pass/fail line (printed in the terminal summary)
and then asserts.  Two sub-criteria are known to be unattainable under
the independent-normal evaluation model this package implements; they
are kept at their stated thresholds and fail honestly, with the
computed values in the report:

- the one-false-null region at shift -2.9 differs from the hommel
  region by ~2.1e-5 of null mass, not more than 1e-4;
- the any-measure sample-size saving over hommel computes to ~13.4%
  under the 85%-marginal-power calibration, not 9.91 +/- 1.5.

The benchmark power table is reproduced entry-for-entry (within 0.02)
under the two-arm design calibration; under the stated marginal-power
calibration the entries shift by up to ~0.11 and the misses are
reported without failing, provided the exactness criteria (2-5) hold.
"""

import io
import math
import time

import numpy as np
import pytest

from conftest import bool_mean_se, measure_spec, record_criterion
from omt2 import (MEASURE_WEIGHTS, AlternativeModel, McConfig,
                  QuadratureConfig, bonferroni, build_bittman, build_omt,
                  closed_stouffer, evaluate_power, fixed_sequence, fwer_global,
                  hommel, hommel_coincidence_bound, mc_estimate, mc_power,
                  observed_pvalue, region_mass,
                  region_symmetric_difference, savings_report,
                  std_normal_cdf, std_normal_quantile, theta_for_group,
                  theta_from_marginal_power, allocation_search)
from omt2.cli import main as cli_main

ALPHA = 0.025
ZA = std_normal_quantile(ALPHA)
RATES = (0.075, 0.04875)
SEED = 20260810

# Reference values for the exchangeable benchmark configuration
# (nominally 85% per-hypothesis detection power; the matching two-arm
# design is 1200 persons per arm).  Columns: optimal rule for avg/any,
# for the one-false-null measure, for the 1/3-2/3 combination, then
# closed-Stouffer and hommel.
BENCHMARK_COLS = ("omt_avg_any", "omt_pi1", "omt_combo", "closed_stouffer",
                  "hommel")
BENCHMARK_TABLE = {
    "pi_avg":   (0.747, 0.725, 0.741, 0.744, 0.725),
    "pi_any":   (0.928, 0.885, 0.916, 0.921, 0.885),
    "pi_1":     (0.557, 0.670, 0.665, 0.448, 0.670),
    "pi_combo": (0.681, 0.741, 0.749, 0.606, 0.741),
}
BENCHMARK_ROW_MAX = {"pi_avg": 0, "pi_any": 0, "pi_1": 1, "pi_combo": 2}

@pytest.fixture(scope="module")
def qcfg():
    return QuadratureConfig()


@pytest.fixture(scope="module")
def mcc():
    return McConfig(reps=1_000_000, seed=SEED)


@pytest.fixture(scope="module")
def exact_level_state(qcfg, mcc):
    """Criterion 2 computations: constructions solve exactly to level."""
    t0 = time.perf_counter()
    thetas = (-1.0, -2.0, -3.0)
    max_quad_dev = 0.0
    max_mc_z = 0.0
    procs = []
    for measure in ("pi_any", "pi_avg", "pi_1"):
        for th1 in thetas:
            for th2 in thetas:
                spec = measure_spec(measure, AlternativeModel(th1, th2), ALPHA)
                procs.append(build_omt(spec, qcfg))
    procs.append(build_bittman(ALPHA, qcfg))
    null = AlternativeModel(0.0, 0.0)
    for proc in procs:
        quad = fwer_global(proc, 0.0, qcfg)
        max_quad_dev = max(max_quad_dev, abs(quad - ALPHA))
        count, = mc_estimate(
            lambda z1, z2: (np.logical_or(*proc.decide_z(z1, z2)),), (null,), mcc)
        mean, se = bool_mean_se(count, mcc.reps)
        max_mc_z = max(max_mc_z, abs(mean - ALPHA) / se)
    elapsed = time.perf_counter() - t0
    ok = max_quad_dev <= 1e-6 and max_mc_z <= 3.0 and elapsed < 5.0
    return {"ok": ok, "max_quad_dev": max_quad_dev, "max_mc_z": max_mc_z,
            "elapsed": elapsed, "n": len(procs)}


@pytest.fixture(scope="module")
def hommel_equiv_state(qcfg):
    """Criterion 3 computations (both the window and the departure)."""
    bound = hommel_coincidence_bound(ALPHA)
    h = hommel(ALPHA)
    window = {}
    for th in (-1.0, -2.0, -2.4):
        proc = build_omt(measure_spec("pi_1", AlternativeModel(th, th), ALPHA), qcfg)
        window[th] = region_symmetric_difference(proc, h, qcfg)
    p29 = build_omt(measure_spec("pi_1", AlternativeModel(-2.9, -2.9), ALPHA), qcfg)
    departure = region_symmetric_difference(p29, h, qcfg)
    ok_window = (abs(bound - (-2.46)) <= 0.01
                 and all(d < 1e-6 for d in window.values()))
    return {"bound": bound, "window": window, "departure": departure,
            "ok_window": ok_window}


@pytest.fixture(scope="module")
def bittman_equiv_state(qcfg):
    """Criterion 4 computations."""
    b = build_bittman(ALPHA, qcfg)
    diffs = {}
    for th in (-2.0, -3.0):
        proc = build_omt(measure_spec("pi_any", AlternativeModel(th, th), ALPHA),
                         qcfg)
        diffs[th] = region_symmetric_difference(proc, b, qcfg)
    strict = b.t_sum > math.sqrt(2.0) * ZA
    ok = strict and all(d < 1e-6 for d in diffs.values())
    return {"ok": ok, "diffs": diffs, "t_sum": b.t_sum, "strict": strict}


@pytest.fixture(scope="module")
def dominance_state(qcfg):
    """Criterion 5 computations: panel-wide optimality margins."""
    thetas = (-1.0, -2.0, -3.0)
    worst = np.inf
    for th1 in thetas:
        for th2 in thetas:
            model = AlternativeModel(th1, th2)
            omts = {m: build_omt(measure_spec(m, model, ALPHA), qcfg)
                    for m in MEASURE_WEIGHTS}
            pool = list(omts.values()) + [
                hommel(ALPHA), closed_stouffer(ALPHA),
                build_bittman(ALPHA, qcfg), fixed_sequence(ALPHA),
                bonferroni(ALPHA)]
            reports = [evaluate_power(p, model, qcfg) for p in pool]
            for measure, opt in omts.items():
                best = evaluate_power(opt, model, qcfg).get(measure)
                for rep in reports:
                    worst = min(worst, best - rep.get(measure))
    return {"ok": worst >= -1e-6, "worst_margin": worst}


class TestCriterion1:
    def test_apex_pvalues(self):
        t0 = time.perf_counter()
        p1 = observed_pvalue(166, 1956, 132, 1914)
        p2 = observed_pvalue(57, 1218, 33, 1198)
        elapsed = time.perf_counter() - t0
        ok = (abs(p1 - 0.032) <= 0.001 and abs(p2 - 0.006) <= 0.001
              and elapsed < 0.1)
        record_criterion("criterion 01 observed p-values", ok,
                         f"p=({p1:.4f}, {p2:.4f}) in {elapsed * 1e3:.1f} ms")
        assert abs(p1 - 0.032) <= 0.001
        assert abs(p2 - 0.006) <= 0.001
        assert elapsed < 0.1
        out = io.StringIO()
        assert cli_main(["apex", "--skip-power"], out_stream=out) == 0
        assert "p = 0.0316" in out.getvalue()
        assert "p = 0.0061" in out.getvalue()


class TestCriterion2:
    def test_exact_level_constructions(self, exact_level_state):
        s = exact_level_state
        record_criterion(
            "criterion 02 exact null level", s["ok"],
            f"{s['n']} rules, max |null-alpha| {s['max_quad_dev']:.2e}, "
            f"max MC z {s['max_mc_z']:.2f}, {s['elapsed']:.1f} s")
        assert s["max_quad_dev"] <= 1e-6
        assert s["max_mc_z"] <= 3.0
        assert s["elapsed"] < 5.0


class TestCriterion3:
    def test_hommel_equivalence_window(self, hommel_equiv_state):
        s = hommel_equiv_state
        record_criterion(
            "criterion 03a hommel equivalence window", s["ok_window"],
            f"bound {s['bound']:.4f}, max sym-diff "
            f"{max(s['window'].values()):.2e}")
        assert abs(s["bound"] - (-2.46)) <= 0.01
        for th, d in s["window"].items():
            assert d < 1e-6, th

    def test_departure_magnitude_below_bound(self, hommel_equiv_state):
        s = hommel_equiv_state
        ok = s["departure"] > 1e-4
        record_criterion(
            "criterion 03b departure at shift -2.9 exceeds 1e-4", ok,
            f"computed sym-diff {s['departure']:.3g}; regions do differ "
            f"(threshold 1e-6 would pass)")
        # the regions genuinely differ once the shift crosses the bound...
        assert s["departure"] > 1e-6
        # ...but the stated magnitude is not attainable: the true
        # symmetric difference at -2.9 is ~2.1e-5.
        assert s["departure"] > 1e-4


class TestCriterion4:
    def test_bittman_equivalence(self, bittman_equiv_state):
        s = bittman_equiv_state
        record_criterion(
            "criterion 04 any-objective equals recalibrated z-sum rule",
            s["ok"], f"max sym-diff {max(s['diffs'].values()):.2e}, "
            f"t_sum {s['t_sum']:.5f} > sqrt2*za {math.sqrt(2) * ZA:.5f}")
        assert s["strict"]
        for th, d in s["diffs"].items():
            assert d < 1e-6, th


class TestCriterion5:
    def test_dominance_suite(self, dominance_state):
        s = dominance_state
        record_criterion("criterion 05 optimality dominance", s["ok"],
                         f"worst margin {s['worst_margin']:.2e}")
        assert s["worst_margin"] >= -1e-6


class TestCriterion6:
    def test_benchmark_table_reproduction(self, qcfg, exact_level_state,
                                          hommel_equiv_state,
                                          bittman_equiv_state,
                                          dominance_state):
        t0 = time.perf_counter()

        def table_at(th):
            model = AlternativeModel(th, th)
            cols = (build_omt(measure_spec("pi_any", model, ALPHA), qcfg),
                    build_omt(measure_spec("pi_1", model, ALPHA), qcfg),
                    build_omt(measure_spec("pi_combo", model, ALPHA), qcfg),
                    closed_stouffer(ALPHA), hommel(ALPHA))
            reports = [evaluate_power(p, model, qcfg) for p in cols]
            return {m: tuple(rep.get(m) for rep in reports)
                    for m in BENCHMARK_TABLE}

        th_stated = theta_from_marginal_power(0.85, ALPHA)
        table = table_at(th_stated)

        misses = []
        for m, refs in BENCHMARK_TABLE.items():
            for j, ref in enumerate(refs):
                if abs(table[m][j] - ref) > 0.02:
                    misses.append((m, BENCHMARK_COLS[j], table[m][j], ref))

        # within-row orderings must hold exactly in the computed values
        orderings_ok = True
        for m, refs in BENCHMARK_TABLE.items():
            row = table[m]
            k = BENCHMARK_ROW_MAX[m]
            if not all(row[k] >= row[j] - 1e-9 for j in range(len(row))):
                orderings_ok = False
        # the one-false-null optimum and hommel agree to the third decimal
        footnote_ok = abs(table["pi_1"][1] - table["pi_1"][4]) < 1e-3

        # calibration cross-check: the same table at the two-arm design
        # shift for 1200/arm reproduces every entry within 0.02
        th_design = theta_for_group(2400, *RATES)
        table_design = table_at(th_design)
        design_misses = sum(
            1 for m, refs in BENCHMARK_TABLE.items()
            for j, ref in enumerate(refs) if abs(table_design[m][j] - ref) > 0.02)

        elapsed = time.perf_counter() - t0
        exactness_ok = (exact_level_state["ok"] and hommel_equiv_state["ok_window"]
                        and bittman_equiv_state["ok"] and dominance_state["ok"])
        ok = (orderings_ok and footnote_ok and elapsed < 30.0
              and (not misses or exactness_ok))
        detail = (f"{len(misses)}/20 entries outside +/-0.02 at the stated "
                  f"calibration (reported, not failed); all entries match at "
                  f"the design calibration ({design_misses} misses); "
                  f"orderings reproduced; {elapsed:.1f} s")
        record_criterion("criterion 06 benchmark table", ok, detail)

        assert orderings_ok
        assert footnote_ok
        assert elapsed < 30.0
        if misses:
            # escape hatch: report the misses against the calibration
            # question, conditional on the exactness criteria passing
            assert exactness_ok, misses
        assert design_misses == 0

    def test_avg_any_columns_coincide(self, qcfg):
        th = theta_from_marginal_power(0.85, ALPHA)
        model = AlternativeModel(th, th)
        pa = build_omt(measure_spec("pi_avg", model, ALPHA), qcfg)
        pb = build_omt(measure_spec("pi_any", model, ALPHA), qcfg)
        assert region_symmetric_difference(pa, pb, qcfg) < 1e-6


class TestCriterion7:
    def test_allocation_behavior(self, qcfg):
        grid = [round(0.1 * k, 1) for k in range(11)]
        res = allocation_search(4800, MEASURE_WEIGHTS["pi_any"], *RATES,
                                grid, ALPHA, qcfg)
        theta_full = theta_for_group(4800, *RATES)
        bound = float(std_normal_cdf(ZA - theta_full))
        bound_ok = all(rep.pi_any <= bound + 1e-6 for rep in res.reports)
        edge_vals = (res.reports[0].pi_any, res.reports[-1].pi_any)
        interior_max = max(rep.pi_any for rep in res.reports[1:-1])
        extremes_ok = (res.argmax["pi_any"] in (0.0, 1.0)
                       and interior_max <= max(edge_vals) + 1e-6
                       and all(abs(v - bound) <= 1e-6 for v in edge_vals))

        strong_ok = True
        for measure in ("pi_avg", "pi_1", "pi_combo"):
            r = allocation_search(4800, MEASURE_WEIGHTS[measure], *RATES,
                                  [0.25, 0.5], ALPHA, qcfg)
            strong_ok &= r.reports[1].get(measure) > r.reports[0].get(measure)

        # weak signal: ~0.19 marginal power at the even split
        weak = allocation_search(800, MEASURE_WEIGHTS["pi_1"], *RATES,
                                 [0.25, 0.5], ALPHA, qcfg)
        weak_power = float(std_normal_cdf(ZA - theta_for_group(400, *RATES)))
        weak_ok = weak.reports[0].pi_1 > weak.reports[1].pi_1

        ok = bound_ok and extremes_ok and strong_ok and weak_ok
        record_criterion(
            "criterion 07 allocation behavior", ok,
            f"bound {bound:.4f} respected; even split wins at strong signal; "
            f"quarter split wins at weak signal (marginal power {weak_power:.2f})")
        assert bound_ok and extremes_ok
        assert strong_ok
        assert weak_ok


@pytest.fixture(scope="module")
def savings(qcfg):
    th_ref = theta_from_marginal_power(0.85, ALPHA)
    out = {}
    for measure in ("pi_any", "pi_avg", "pi_combo"):
        rep = savings_report(measure, MEASURE_WEIGHTS[measure], 4800,
                             lambda n: th_ref * math.sqrt(n / 4800.0),
                             ALPHA, qcfg)
        out[measure] = rep.saving_pct
    return out


class TestCriterion8:
    def test_savings_ordering(self, savings):
        s = savings
        ok = (s["pi_any"] > s["pi_avg"] + 5.0 > s["pi_avg"]
              and s["pi_avg"] > s["pi_combo"])
        record_criterion(
            "criterion 08a savings ordering", ok,
            f"any {s['pi_any']:.2f}% >> avg {s['pi_avg']:.2f}% "
            f"> combo {s['pi_combo']:.2f}%")
        assert s["pi_any"] > s["pi_avg"] > s["pi_combo"]
        assert s["pi_any"] - s["pi_avg"] > 5.0

    def test_savings_any_reference_value(self, savings):
        val = savings["pi_any"]
        ok = abs(val - 9.91) <= 1.5
        record_criterion(
            "criterion 08b any-measure saving 9.91 +/- 1.5", ok,
            f"computed {val:.2f}% under the stated calibration")
        # the self-consistent normal-model value is ~13.4%; the stated
        # target is tied to the benchmark table's absolute powers, which
        # the stated calibration does not reproduce
        assert abs(val - 9.91) <= 1.5


class TestCriterion9:
    def test_property_suites(self, qcfg, mcc, rng):
        model = AlternativeModel(theta_for_group(2400, *RATES),
                                 theta_for_group(2400, *RATES))
        procs = {
            "bonferroni": bonferroni(ALPHA),
            "hommel": hommel(ALPHA),
            "closed_stouffer": closed_stouffer(ALPHA),
            "fixed_sequence": fixed_sequence(ALPHA),
            "bittman": build_bittman(ALPHA, qcfg),
            "omt_one": build_omt(measure_spec("pi_1", model, ALPHA), qcfg),
            "omt_any": build_omt(measure_spec("pi_any", model, ALPHA), qcfg),
            "omt_combo": build_omt(measure_spec("pi_combo", model, ALPHA), qcfg),
        }

        # weak monotonicity: 10^4 ordered pairs per rule
        n = 10_000
        a = np.sort(rng.uniform(1e-8, 1 - 1e-8, size=(n, 2)), axis=1)
        b = np.sort(rng.uniform(1e-8, 1 - 1e-8, size=(n, 2)), axis=1)
        zl1, zh1 = std_normal_quantile(a[:, 0]), std_normal_quantile(a[:, 1])
        zl2, zh2 = std_normal_quantile(b[:, 0]), std_normal_quantile(b[:, 1])
        mono_violations = 0
        for proc in procs.values():
            d1_lo, d2_lo = proc.decide_z(zl1, zl2)
            d1_hi, d2_hi = proc.decide_z(zh1, zh2)
            mono_violations += int(np.sum(d1_hi & ~d1_lo))
            mono_violations += int(np.sum(d2_hi & ~d2_lo))

        # marginal nominality: 10^5 random p-value pairs
        m = 100_000
        p = rng.uniform(1e-8, 1 - 1e-8, size=(m, 2))
        znom1 = std_normal_quantile(p[:, 0])
        znom2 = std_normal_quantile(p[:, 1])
        nominal_violations = 0
        for proc in procs.values():
            d1, d2 = proc.decide_z(znom1, znom2)
            nominal_violations += int(np.sum(d1 & (p[:, 0] > ALPHA)))
            nominal_violations += int(np.sum(d2 & (p[:, 1] > ALPHA)))

        # the unconstrained any-optimal rule violates weak monotonicity
        a_ = ALPHA
        pair_p = (a_ / 2 + a_ * a_ / 4, a_ / 2 - a_ * a_ / 4)
        pair_q = (a_ / 3 - a_ * a_ / 4, a_ / 3 + a_ * a_ / 4)

        def unconstrained(p1, p2):
            if std_normal_quantile(p1) + std_normal_quantile(p2) > math.sqrt(2) * ZA:
                return (False, False)
            return (p1 <= p2, p2 < p1)

        counterexample_ok = (unconstrained(*pair_p) == (False, True)
                             and unconstrained(*pair_q) == (True, False)
                             and pair_q[0] <= pair_p[0] and pair_q[1] <= pair_p[1])

        # quadrature vs Monte Carlo for every rule and measure
        mc_ok = True
        for proc in procs.values():
            rep = evaluate_power(proc, model, qcfg)
            est = mc_power(proc, model, mcc)
            for meas, (mean, se) in est.items():
                if abs(rep.get(meas) - mean) > 3 * se + 1e-12:
                    mc_ok = False

        # panel-doubling stability
        fine = QuadratureConfig(panels_per_axis=2 * qcfg.panels_per_axis,
                                nodes_per_panel=qcfg.nodes_per_panel,
                                abs_tol=qcfg.abs_tol)
        stable = True
        for proc in (procs["omt_combo"], procs["hommel"], procs["bittman"]):
            coarse_val = region_mass(proc, "any", model, qcfg)
            fine_val = region_mass(proc, "any", model, fine)
            if abs(coarse_val - fine_val) > 2 * qcfg.abs_tol:
                stable = False

        ok = (mono_violations == 0 and nominal_violations == 0
              and counterexample_ok and mc_ok and stable)
        record_criterion(
            "criterion 09 property suites", ok,
            f"monotone violations {mono_violations}, nominality violations "
            f"{nominal_violations}, counterexample {counterexample_ok}, "
            f"MC agreement {mc_ok}, panel stability {stable}")
        assert mono_violations == 0
        assert nominal_violations == 0
        assert counterexample_ok
        assert mc_ok
        assert stable


class TestCriterion10:
    def test_design_table_structure(self, qcfg):
        """Entry-level values of the asymmetric design table are not
        pinned (the shift derivation behind the published numbers is
        unstated); the bold structure and region asymmetry are."""
        th1 = theta_for_group(3870, *RATES)   # 1956 + 1914 persons
        th2 = theta_for_group(2416, *RATES)   # 1218 + 1198 persons
        model = AlternativeModel(th1, th2)
        cols = (build_omt(measure_spec("pi_any", model, ALPHA), qcfg),
                build_omt(measure_spec("pi_1", model, ALPHA), qcfg),
                build_omt(measure_spec("pi_combo", model, ALPHA), qcfg),
                closed_stouffer(ALPHA), hommel(ALPHA))
        reports = [evaluate_power(p, model, qcfg) for p in cols]
        table = {m: tuple(rep.get(m) for rep in reports)
                 for m in BENCHMARK_TABLE}

        bold_ok = all(
            all(table[m][BENCHMARK_ROW_MAX[m]] >= table[m][j] - 1e-9
                for j in range(5))
            for m in BENCHMARK_TABLE)
        # both-false measures: the additive-combination rule edges out
        # hommel; one-false-null: hommel is far stronger
        cs_vs_hommel_ok = (table["pi_avg"][3] > table["pi_avg"][4]
                           and table["pi_any"][3] > table["pi_any"][4]
                           and table["pi_1"][4] > table["pi_1"][3] + 0.1)

        from omt2 import export_region
        grid = export_region(cols[2], 256)
        counts = grid.class_counts()
        asymmetric = counts["only1"] != counts["only2"]

        ok = bold_ok and cs_vs_hommel_ok and asymmetric
        record_criterion(
            "criterion 10 asymmetric design structure", ok,
            f"row maxima in place; region asymmetry only1={counts['only1']} "
            f"only2={counts['only2']}")
        assert bold_ok
        assert cs_vs_hommel_ok
        assert asymmetric
