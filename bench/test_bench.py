"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest bench -q

They show that the checks turn a perturbed output into a failure, that
the tracer sees every call, and that the metric names match
``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import omt2  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

POWER_SC = {"kind": "power_table", "theta1": -3.1, "theta2": -2.4, "alpha": 0.025}
ALLOC_SC = {"kind": "allocation", "objective": "combo", "weights": [1 / 3, 0.0, 2 / 3],
            "N": 4800, "rate_control": 0.075, "rate_treat": 0.04875,
            "r_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "alpha": 0.025}
SAVINGS_SC = {"kind": "savings", "measure": "pi_any", "N": 4800, "alpha": 0.025,
              "calibration": "marginal-power", "beta": 0.85}


def _bump(report, measure, delta):
    return dataclasses.replace(report, **{measure: report.get(measure) + delta})


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_scenarios_depend_only_on_the_seed(workload):
    a = scenarios.generate(workload, 7, 3)
    assert a == scenarios.generate(workload, 7, 3)
    assert a != scenarios.generate(workload, 8, 3)
    assert scenarios.generate(workload, 7, 5)[:3] == a


def test_scenarios_cover_the_stated_ranges():
    rounds = scenarios.generate("solve", 1, 10) + scenarios.generate("mc", 1, 10)
    flat = [sc for rnd in rounds for sc in rnd]
    thetas = [sc[k] for sc in flat for k in ("theta1", "theta2") if k in sc]
    assert thetas and all(-6.0 <= t <= -0.5 for t in thetas)
    assert {sc["alpha"] for sc in flat} == set(scenarios.ALPHAS)
    savings = [sc for sc in flat if sc["kind"] == "savings"]
    assert {(sc["measure"], sc["calibration"]) for sc in savings} == {
        (m, c) for m in scenarios.MEASURES for c in ("marginal-power", "design")}
    assert all(1000 <= sc["N"] <= 20000 for sc in savings)
    allocs = [sc for sc in flat if sc["kind"] == "allocation"]
    assert {sc["objective"] for sc in allocs} == {"pi_any", "pi_avg", "pi_1", "combo",
                                                  "interior"}
    assert all(sc["r_grid"][0] == 0.0 and sc["r_grid"][-1] == 1.0 for sc in allocs)
    seeds = [sc["seed"] for sc in flat if sc["kind"] == "mc"]
    assert len(set(seeds)) == len(seeds)


# ----------------------------------------------------------------------
# checks: a perturbed output is a failure
# ----------------------------------------------------------------------

def test_power_table_off_by_1e3_fails():
    rows = workloads.run_power_table(POWER_SC)
    assert checks.power_table(POWER_SC, rows) == []
    label, rule, report, fwer = rows[2]
    bad = list(rows)
    bad[2] = (label, rule, _bump(report, "pi_1", 1e-3), fwer)
    assert checks.power_table(POWER_SC, bad)
    bad[2] = (label, rule, report, fwer + 1e-3)
    assert checks.power_table(POWER_SC, bad)


def test_allocation_off_by_1e3_fails():
    result = workloads.run_allocation(ALLOC_SC)
    assert checks.allocation(ALLOC_SC, result) == []
    reports = list(result.reports)
    reports[2] = _bump(reports[2], "pi_any", -1e-3)
    assert checks.allocation(ALLOC_SC, dataclasses.replace(result, reports=tuple(reports)))


def test_savings_n_off_by_one_fails():
    rep = workloads.run_savings(SAVINGS_SC)
    assert checks.savings(SAVINGS_SC, rep) == []
    for dn in (-1, 1):
        n = rep.n_required + dn
        bad = dataclasses.replace(rep, n_required=n,
                                  saving_pct=(n - rep.n_reference) / n * 100.0)
        assert checks.savings(SAVINGS_SC, bad)
    assert checks.savings(SAVINGS_SC, dataclasses.replace(
        rep, optimal_power=rep.optimal_power + 1e-3))


def test_mc_estimate_off_by_1e2_fails():
    sc = {"kind": "mc", "theta1": -2.5, "theta2": -3.0, "alpha": 0.025, "seed": 99}
    model = workloads.mc_model(sc)
    rule = omt2.procedures.hommel(0.025)
    est = omt2.power_design.mc_power(rule, model, omt2.numerics.McConfig(seed=99))
    assert checks.mc(sc, rule, est) == []
    mean, se = est["pi_any"]
    assert checks.mc(sc, rule, {**est, "pi_any": (mean + 1e-2, se)})


def test_mc_rare_event_uses_the_binomial_error():
    # 2 misses of P(any) where quadrature expects 10: the sample se (1.4e-6)
    # alone would call this |z| = 5.7
    sc = {"kind": "mc", "theta1": -2.441297119757964, "theta2": -5.8941060838264425,
          "alpha": 0.05, "seed": 2500253973535879839}
    rule = omt2.procedures.hommel(0.05)
    est = omt2.power_design.mc_power(rule, workloads.mc_model(sc),
                                     omt2.numerics.McConfig(seed=sc["seed"]))
    assert est["pi_any"][0] == pytest.approx(0.999998)
    assert checks.mc(sc, rule, est) == []


def test_cli_wrong_exit_code_or_number_fails(tmp_path):
    sc = {"kind": "cli", "command": "savings", **{k: v for k, v in SAVINGS_SC.items()
                                                   if k != "kind"}}
    out_path = str(tmp_path / "unused.csv")
    out = workloads.run_cli_in_process(workloads.cli_argv(sc, out_path))
    assert checks.cli(sc, out, out_path) == []
    assert checks.cli(sc, {**out, "code": 3}, out_path)
    n_line = next(line for line in out["stdout"].splitlines() if "needs N =" in line)
    n = int(n_line.split("= ")[1].split()[0])
    shifted = out["stdout"].replace(f"N = {n} ", f"N = {n + 1} ")
    assert checks.cli(sc, {**out, "stdout": shifted}, out_path)


def test_cli_region_class_counts_are_exact(tmp_path):
    sc = {"kind": "cli", "command": "region", "objective": "combo", "theta1": -3.4,
          "theta2": -2.7, "alpha": 0.025}
    out_path = str(tmp_path / "region.csv")
    out = workloads.run_cli_in_process(workloads.cli_argv(sc, out_path))
    assert checks.cli(sc, out, out_path) == []
    text = out["stdout"]
    k = text.index("only1=") + len("only1=")
    end = text.index(" ", k)
    bad = text[:k] + str(int(text[k:end]) + 1) + text[end:]
    assert checks.cli(sc, {**out, "stdout": bad}, out_path)


# ----------------------------------------------------------------------
# tracer and metric names
# ----------------------------------------------------------------------

def test_tracer_rebinds_every_importing_module():
    original = omt2.procedures.region_mass
    tracer = Tracer()
    tracer.install(omt2)
    try:
        wrapped = omt2.procedures.region_mass
        assert wrapped is not original
        assert omt2.power_design.region_mass is wrapped
        assert omt2.region_mass is wrapped
        assert omt2.cli.build_omt is omt2.procedures.build_omt
        assert omt2.procedures.ndtr is omt2.gauss.ndtr is omt2.numerics.ndtr
        assert omt2.procedures.bisect is omt2.numerics.bisect
    finally:
        tracer.uninstall()
    assert omt2.procedures.region_mass is original
    assert omt2.power_design.region_mass is original


def test_reference_counts_match_roadmap_baselines():
    counts, problems = run.reference_counts(omt2)
    assert problems == []
    assert counts == run.REF_BASELINES


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install(omt2)
    try:
        tracer.run_op(0, "op", lambda: omt2.procedures.build_bittman(0.025))
    finally:
        tracer.uninstall()
    calls, _, evals, self_s, incl_s, nested, n_ops = tracer.summary()
    assert n_ops == 1 and calls["procedures.build_bittman"] == 1
    assert nested[("procedures.build_bittman", "procedures.region_mass")] == 31
    # one region_mass call brackets the root before the bisection starts
    assert evals["numerics.bisect"] == calls["procedures.region_mass"] - 1
    total_self = sum(self_s.values())
    assert total_self == pytest.approx(incl_s["op"], rel=1e-9)
    assert self_s["procedures.build_bittman"] < incl_s["procedures.build_bittman"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    layer = run.layer_metrics(tracer, 0.0, 0.05, 0.0, run.REF_BASELINES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s": "s", "ops_per_s": "1/s", "round_latency_p50_s": "s",
                   "latency_tail_s": "s", "peak_rss_mb": "MB"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_timed_loop_finishes_the_round_it_started(tmp_path):
    assert run.run_phase(scenarios.stream("solve", 1), "", str(tmp_path), None,
                         deadline=time.perf_counter()) == []
    records = run.run_phase(scenarios.stream("solve", 1), "", str(tmp_path), None,
                            deadline=time.perf_counter() + 1e-3)
    assert [(r.round, r.op.name) for r in records] == [
        (0, "op.allocation"), (0, "op.power_table"), (0, "op.savings")]


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
