"""Output checks that feed ``fail_frac``; they run outside the timed calls.

Each check returns a list of problems; an empty list means the output
passed.  The rules:

- Quadrature outputs agree with a refined-profile evaluation (four
  times the default panels) to the printed precision, 5e-5 for the
  4-decimal power values, plus ``QUAD_SLACK`` for the default profile's
  own error.  That error reaches ~2e-6 for mixed objectives (the
  level defect that ``procedures.level_err_max`` reports and does not
  gate), so a value that sits next to a rounding boundary may print the
  other way without failing; a 1e-3 error still fails.
- Monte Carlo estimates agree with the refined quadrature within
  ``MC_Z_MAX`` standard errors plus ``MC_COUNT_SLACK`` events.  The
  standard error is the larger of the sample one and the binomial one
  at the quadrature value: for a rare event (a power of 0.99999) the
  sample error of a handful of events understates the spread of the
  Poisson count.
- Integer outputs are exact: required N, decisions and class counts.
- CLI runs exit 0, and the numbers parsed from their stdout obey the
  same rules.
"""

from __future__ import annotations

import re

import omt2

from scenarios import MEASURES
from workloads import MC_REPS, measure_weights, table_rules, theta_of_n

gauss, procedures, power_design = omt2.gauss, omt2.procedures, omt2.power_design

POWER_TOL = 5e-5        # half a unit in the 4th decimal
QUAD_SLACK = 1e-5       # default-vs-refined quadrature error allowed on top
MINIMAL_EPS = 1e-9      # hommel powers agree to ~1e-12 across profiles
MC_Z_MAX = 5.0
MC_COUNT_SLACK = 5
REFINED = omt2.numerics.QuadratureConfig(panels_per_axis=96, nodes_per_panel=16,
                                         abs_tol=1e-10)
EXACT_LEVEL = ("omt_avg_any", "omt_pi1", "omt_combo", "bittman")
VERDICTS = {(False, False): "retain both", (True, False): "reject H1 only",
            (False, True): "reject H2 only", (True, True): "reject both"}


def _close(problems: list[str], what: str, got: float, want: float,
           tol: float = POWER_TOL) -> None:
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol + QUAD_SLACK):
        problems.append(f"{what}: got {got!r}, refined {want:.10g}, tol {tol:g}")


def _model(th1: float, th2: float):
    return gauss.AlternativeModel(th1, th2, 0.0)


def refined_power(rule, model):
    return power_design.evaluate_power(rule, model, REFINED)


def _compare_reports(problems, what, got: dict, ref) -> None:
    for m in MEASURES:
        _close(problems, f"{what} {m}", got[m], ref.get(m))


def _as_dict(report) -> dict:
    return {m: report.get(m) for m in MEASURES}


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def allocation_reference(n_total, weights, rc, rt, r_grid, alpha):
    """Refined power of the rebuilt optimal rule at every split."""
    refs = []
    for r in sorted(r_grid):
        n1 = int(round(r * n_total))
        n2 = n_total - n1
        if n1 == 0 or n2 == 0:
            th = power_design.theta_for_group(max(n1, n2), rc, rt)
            beta = float(gauss.std_normal_cdf(gauss.std_normal_quantile(alpha) - th))
            refs.append({"pi_avg": beta / 2, "pi_any": beta, "pi_1": beta / 2,
                         "pi_combo": 2 * beta / 3})
            continue
        model = _model(power_design.theta_for_group(n1, rc, rt),
                       power_design.theta_for_group(n2, rc, rt))
        spec = omt2.objective.ObjectiveSpec(*weights, model, alpha)
        refs.append(_as_dict(refined_power(procedures.build_omt(spec), model)))
    return refs


def _check_allocation_rows(problems, grid, rows, argmax, refs) -> None:
    for r, row, ref in zip(grid, rows, refs):
        for m in MEASURES:
            _close(problems, f"r={r:g} {m}", row[m], ref[m])
    for m in MEASURES:
        best = max(ref[m] for ref in refs)
        if argmax[m] not in grid:
            problems.append(f"argmax[{m}]={argmax[m]!r} not on the grid")
            continue
        at = refs[grid.index(argmax[m])][m]
        if at < best - 2 * POWER_TOL:
            problems.append(f"argmax[{m}]={argmax[m]:g} gives {at:.6f} < max {best:.6f}")


# ----------------------------------------------------------------------
# in-process operations
# ----------------------------------------------------------------------

def allocation(sc: dict, result) -> list[str]:
    problems: list[str] = []
    grid = sorted(sc["r_grid"])
    if list(result.r_grid) != grid or len(result.reports) != len(grid):
        return [f"grid {list(result.r_grid)} != {grid}"]
    refs = allocation_reference(sc["N"], tuple(sc["weights"]), sc["rate_control"],
                                sc["rate_treat"], grid, sc["alpha"])
    _check_allocation_rows(problems, grid, [_as_dict(r) for r in result.reports],
                           result.argmax, refs)
    return problems


def power_table(sc: dict, rows) -> list[str]:
    problems: list[str] = []
    labels = [label for label, *_ in rows]
    expected = ["omt_avg_any", "omt_pi1", "omt_combo", "closed_stouffer", "hommel",
                "bittman", "fixed_sequence", "bonferroni"]
    if labels != expected:
        return [f"columns {labels} != {expected}"]
    model = _model(sc["theta1"], sc["theta2"])
    for label, rule, report, fwer in rows:
        _compare_reports(problems, label, _as_dict(report), refined_power(rule, model))
        fwer_ref = power_design.fwer_global(rule, cfg=REFINED)
        _close(problems, f"{label} fwer", fwer, fwer_ref)
        if label in EXACT_LEVEL:
            _close(problems, f"{label} level", fwer_ref, sc["alpha"])
    return problems


def savings(sc: dict, rep) -> list[str]:
    """Powers against refined quadrature; N exact: the smallest N whose
    refined baseline power reaches the reported target."""
    problems: list[str] = []
    measure, n_ref, alpha = sc["measure"], sc["N"], sc["alpha"]
    th = theta_of_n(sc)
    model = _model(th(n_ref), th(n_ref))
    spec = omt2.objective.ObjectiveSpec(*measure_weights(measure), model, alpha)
    opt = procedures.build_omt(spec)
    _close(problems, "optimal power", rep.optimal_power,
           refined_power(opt, model).get(measure))
    base = procedures.hommel(alpha)

    def base_power(n: int) -> float:
        return refined_power(base, _model(th(n), th(n))).get(measure)

    _close(problems, "reference power", rep.reference_power, base_power(n_ref))
    n_req, target = rep.n_required, rep.optimal_power
    if not isinstance(n_req, int):
        return problems + [f"N required {n_req!r} is not an integer"]
    if base_power(n_req) < target - MINIMAL_EPS:
        problems.append(f"baseline power at N={n_req} is below the target {target:.10g}")
    if n_req > max(4, n_ref // 4) and base_power(n_req - 1) >= target + MINIMAL_EPS:
        problems.append(f"N={n_req - 1} already reaches the target {target:.10g}")
    saving = (n_req - n_ref) / n_req * 100.0
    if abs(rep.saving_pct - saving) > 1e-9:
        problems.append(f"saving {rep.saving_pct!r} != {saving!r} from N")
    return problems


def _mc_agree(problems, what, mean, se, quad, rounding=0.0) -> None:
    se_eff = max(se, (max(quad * (1.0 - quad), 0.0) / MC_REPS) ** 0.5)
    if not abs(mean - quad) <= MC_Z_MAX * se_eff + MC_COUNT_SLACK / MC_REPS + rounding:
        problems.append(f"{what}: MC {mean:.6f} (se {se:.2g}) vs quadrature "
                        f"{quad:.6f}, |z| = {abs(mean - quad) / (se_eff or 1e-300):.2f}")


def mc(sc: dict, rule, est: dict) -> list[str]:
    problems: list[str] = []
    quad = refined_power(rule, _model(sc["theta1"], sc["theta2"]))
    for m in MEASURES:
        mean, se = est[m]
        _mc_agree(problems, m, mean, se, quad.get(m))
    return problems


# ----------------------------------------------------------------------
# CLI runs
# ----------------------------------------------------------------------

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _grab(pattern: str, text: str, what: str):
    m = re.search(pattern, text, re.M)
    if m is None:
        raise ValueError(f"no {what} in the output")
    return m.groups() if len(m.groups()) > 1 else m.group(1)


def parse_table(text: str) -> tuple[list[str], dict[str, list[float]]]:
    """The measure-by-column matrix that ``power`` and ``apex`` print."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("measure "))
    cols = lines[start].split()[1:]
    rows = {}
    for line in lines[start + 1:]:
        parts = line.split()
        if not parts or parts[0] not in (*MEASURES, "fwer"):
            break
        rows[parts[0]] = [float(x) for x in parts[1:]]
    return cols, rows


def _check_table(problems, text, cols_ref, model, with_fwer: bool) -> None:
    cols, rows = parse_table(text)
    if cols != [label for label, _ in cols_ref]:
        problems.append(f"columns {cols} != {[label for label, _ in cols_ref]}")
        return
    for k, (label, rule) in enumerate(cols_ref):
        ref = refined_power(rule, model)
        for m in MEASURES:
            _close(problems, f"{label} {m}", rows[m][k], ref.get(m))
        if with_fwer:
            _close(problems, f"{label} fwer", rows["fwer"][k],
                   power_design.fwer_global(rule, cfg=REFINED))


def _cli_region(sc, text, out_path) -> list[str]:
    problems: list[str] = []
    weights = measure_weights({"pi1": "pi_1"}.get(sc["objective"], sc["objective"]))
    spec = omt2.objective.ObjectiveSpec(*weights, _model(sc["theta1"], sc["theta2"]),
                                        sc["alpha"])
    rule = procedures.build_omt(spec)
    counts = procedures.export_region(rule, 256).class_counts()
    printed = dict(re.findall(r"(\w+)=(\d+)", _grab(r"^cells: (.*)$", text, "cells")))
    if {k: int(v) for k, v in printed.items()} != counts:
        problems.append(f"cells {printed} != {counts}")
    t = float(_grab(rf"^threshold t = ({_NUM})$", text, "threshold"))
    if abs(t - rule.t_score) > 1e-5 * abs(rule.t_score):
        problems.append(f"threshold {t!r} != {rule.t_score!r}")
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    file_counts = {name: 0 for name in counts}
    for line in lines[1:]:
        file_counts[line.rsplit(",", 1)[1]] += 1
    if lines[0] != "z1,z2,class" or file_counts != counts:
        problems.append(f"csv classes {file_counts} != {counts}")
    return problems


def _cli_power(sc, text, mc_run: bool) -> list[str]:
    problems: list[str] = []
    alpha = sc["alpha"]
    if mc_run:
        th1, th2 = sc["theta1"], sc["theta2"]
    else:
        th1 = th2 = power_design.theta_from_marginal_power(sc["beta"], alpha)
    model = _model(th1, th2)
    cols = table_rules(alpha, model, "benchmark")
    _check_table(problems, text, cols, model, with_fwer=True)
    if mc_run:
        for label, rule in cols:
            line = _grab(rf"^  {label}: (.*)$", text, f"MC line for {label}")
            ref = refined_power(rule, model)
            for m in MEASURES:
                mean, se = _grab(rf"{m}=({_NUM})\(se ({_NUM})\)", line, m)
                _mc_agree(problems, f"{label} {m}", float(mean), float(se),
                          ref.get(m), rounding=POWER_TOL)
    return problems


def _cli_allocate(sc, text, out_path) -> list[str]:
    problems: list[str] = []
    grid = sorted(sc["r_grid"])
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "r,pi_avg,pi_any,pi_1,pi_combo" or len(lines) != len(grid) + 1:
        return [f"allocation csv has {len(lines)} lines"]
    rows = [dict(zip(("r", "pi_avg", "pi_any", "pi_1", "pi_combo"),
                     map(float, line.split(",")))) for line in lines[1:]]
    by_label = {f"{r:g}": r for r in grid}
    argmax = {}
    for m in MEASURES:
        label = _grab(rf"^argmax\[{m}\] = r = (\S+)$", text, f"argmax {m}")
        argmax[m] = by_label.get(label, float("nan"))
    refs = allocation_reference(sc["N"], measure_weights(sc["measure"]),
                                sc["rate_control"], sc["rate_treat"], grid, sc["alpha"])
    _check_allocation_rows(problems, grid, rows, argmax, refs)
    return problems


def _cli_apex(sc, text) -> list[str]:
    problems: list[str] = []
    alpha = sc["alpha"]
    p_obs = [power_design.observed_pvalue(*c) for c in sc["counts"]]
    for g, p in enumerate(p_obs, 1):
        got = float(_grab(rf"^group {g}: .* one-sided p = ({_NUM})$", text, "p-value"))
        _close(problems, f"group {g} p-value", got, p)
    rc, rt = sc["rate_control"], sc["rate_treat"]
    th_design = [power_design.theta_from_design(
        power_design.TwoArmDesign(rc, rt, c[1], c[3])) for c in sc["counts"]]
    th_marg = power_design.theta_from_marginal_power(sc["beta"], alpha)
    th1, th2 = th_design if sc["calibration"] == "design" else (th_marg, th_marg)
    model = _model(th1, th2)
    cols = table_rules(alpha, model, "benchmark")
    extra = [("bittman", procedures.build_bittman(alpha)),
             ("fixed_sequence", procedures.fixed_sequence(alpha)),
             ("bonferroni", procedures.bonferroni(alpha))]
    for label, rule in cols + extra:
        want = VERDICTS[rule.decide((p_obs[0], p_obs[1])).as_tuple()]
        got = _grab(rf"^  {label}: (.*)$", text, f"decision of {label}")
        if got != want:
            problems.append(f"{label} decision {got!r} != {want!r}")
    _check_table(problems, text, cols, model, with_fwer=False)
    return problems


def _cli_savings(sc, text) -> list[str]:
    rep = power_design.savings_report(
        sc["measure"], measure_weights(sc["measure"]), sc["N"], theta_of_n(sc),
        sc["alpha"])
    problems = savings(sc, rep)
    n = sc["N"]
    _close(problems, "optimal power",
           float(_grab(rf"^optimal-rule power at N={n}: ({_NUM})$", text, "power")),
           rep.optimal_power)
    _close(problems, "reference power",
           float(_grab(rf"^baseline \(hommel\) power at N={n}: ({_NUM})$", text,
                       "baseline power")), rep.reference_power)
    n_req = int(_grab(r"^baseline needs N = (\d+) for", text, "required N"))
    if n_req != rep.n_required:
        problems.append(f"required N {n_req} != {rep.n_required}")
    saving = float(_grab(rf"^relative saving: ({_NUM})%$", text, "saving"))
    _close(problems, "saving %", saving, rep.saving_pct, tol=0.005)
    return problems


def cli(sc: dict, out: dict, out_path: str) -> list[str]:
    if out["code"] != 0:
        return [f"exit code {out['code']}"]
    text, cmd = out["stdout"], sc["command"]
    try:
        if cmd == "region":
            return _cli_region(sc, text, out_path)
        if cmd in ("power", "power_mc"):
            return _cli_power(sc, text, mc_run=cmd == "power_mc")
        if cmd == "allocate":
            return _cli_allocate(sc, text, out_path)
        if cmd == "apex":
            return _cli_apex(sc, text)
        if cmd == "savings":
            return _cli_savings(sc, text)
    except (ValueError, KeyError, IndexError, StopIteration, OSError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
    return [f"unknown command {cmd!r}"]
