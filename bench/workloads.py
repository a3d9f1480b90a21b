"""Operations of the four workloads, called from outside the package.

Every call goes through a module attribute (``power_design.evaluate_power``
and so on), never through a name bound here, so the traced run sees the
same calls the tracer wrapped.
"""

from __future__ import annotations

import io
import math
import subprocess
import sys
from typing import Callable

import omt2
import omt2.cli

from scenarios import OBJECTIVES

gauss, numerics, procedures = omt2.gauss, omt2.numerics, omt2.procedures
power_design, cli = omt2.power_design, omt2.cli

MC_REPS = 1_000_000
CLI_TIMEOUT_S = 120.0


def table_rules(alpha: float, model, selector: str) -> list[tuple[str, object]]:
    """The columns of ``omt2 power --procedures benchmark|all``."""
    cols = []
    for objective, label in (("pi_avg", "omt_avg_any"), ("pi_1", "omt_pi1"),
                             ("combo", "omt_combo")):
        spec = omt2.objective.ObjectiveSpec(*OBJECTIVES[objective], model, alpha)
        cols.append((label, procedures.build_omt(spec)))
    cols.append(("closed_stouffer", procedures.closed_stouffer(alpha)))
    cols.append(("hommel", procedures.hommel(alpha)))
    if selector == "all":
        cols.append(("bittman", procedures.build_bittman(alpha)))
        cols.append(("fixed_sequence", procedures.fixed_sequence(alpha)))
        cols.append(("bonferroni", procedures.bonferroni(alpha)))
    return cols


def theta_of_n(sc: dict) -> Callable[[int], float]:
    """Exchangeable calibration of a savings scenario (as ``omt2 savings``)."""
    if sc["calibration"] == "marginal-power":
        th_ref = power_design.theta_from_marginal_power(sc["beta"], sc["alpha"])
        n_ref = sc["N"]
        return lambda n: th_ref * math.sqrt(n / n_ref)
    rc, rt = sc["rate_control"], sc["rate_treat"]
    return lambda n: power_design.theta_for_group(n // 2, rc, rt)


def measure_weights(measure: str) -> tuple[float, float, float]:
    return OBJECTIVES[{"pi_combo": "combo"}.get(measure, measure)]


# ----------------------------------------------------------------------
# in-process operations
# ----------------------------------------------------------------------

def run_allocation(sc: dict):
    return power_design.allocation_search(
        sc["N"], tuple(sc["weights"]), sc["rate_control"], sc["rate_treat"],
        sc["r_grid"], sc["alpha"])


def run_power_table(sc: dict):
    model = gauss.AlternativeModel(sc["theta1"], sc["theta2"], 0.0)
    return [(label, rule, power_design.evaluate_power(rule, model),
             power_design.fwer_global(rule))
            for label, rule in table_rules(sc["alpha"], model, "all")]


def run_savings(sc: dict):
    return power_design.savings_report(
        sc["measure"], measure_weights(sc["measure"]), sc["N"], theta_of_n(sc),
        sc["alpha"])


def mc_model(sc: dict):
    return gauss.AlternativeModel(sc["theta1"], sc["theta2"], 0.0)


# ----------------------------------------------------------------------
# CLI operations
# ----------------------------------------------------------------------

def cli_argv(sc: dict, out_path: str) -> list[str]:
    """Arguments of one README command, with the scenario's inputs."""
    cmd = sc["command"]
    if cmd == "region":
        return ["region", "--proc", "omt", "--objective", sc["objective"],
                "--theta1", repr(sc["theta1"]), "--theta2", repr(sc["theta2"]),
                "--alpha", repr(sc["alpha"]), "--grid", "256", "--out", out_path]
    if cmd == "power":
        return ["power", "--procedures", "benchmark", "--marginal-power",
                repr(sc["beta"]), "--alpha", repr(sc["alpha"])]
    if cmd == "power_mc":
        return ["power", "--procedures", "benchmark", "--theta1", repr(sc["theta1"]),
                "--theta2", repr(sc["theta2"]), "--alpha", repr(sc["alpha"]),
                "--mc", "--seed", str(sc["seed"]), "--reps", str(MC_REPS)]
    if cmd == "allocate":
        return ["allocate", "--N", str(sc["N"]),
                "--grid", ",".join(repr(r) for r in sc["r_grid"]),
                "--measure", sc["measure"], "--alpha", repr(sc["alpha"]),
                "--rate-control", repr(sc["rate_control"]),
                "--rate-treat", repr(sc["rate_treat"]), "--out", out_path]
    if cmd == "apex":
        argv = ["apex", "--alpha", repr(sc["alpha"]), "--calibration", sc["calibration"],
                "--beta", repr(sc["beta"]), "--rate-control", repr(sc["rate_control"]),
                "--rate-treat", repr(sc["rate_treat"])]
        for g, (ec, nc, et, nt) in enumerate(sc["counts"], 1):
            argv += [f"--events-control{g}", str(ec), f"--n-control{g}", str(nc),
                     f"--events-treat{g}", str(et), f"--n-treat{g}", str(nt)]
        return argv
    if cmd == "savings":
        argv = ["savings", "--measure", sc["measure"], "--N", str(sc["N"]),
                "--alpha", repr(sc["alpha"]), "--calibration", sc["calibration"]]
        if sc["calibration"] == "marginal-power":
            return argv + ["--beta", repr(sc["beta"])]
        return argv + ["--rate-control", repr(sc["rate_control"]),
                       "--rate-treat", repr(sc["rate_treat"])]
    raise ValueError(f"unknown command {cmd!r}")


def run_cli_process(argv: list[str], env: dict, cwd: str) -> dict:
    """Run ``python -m omt2 ARGV`` in a fresh interpreter and wait for it."""
    proc = subprocess.run([sys.executable, "-m", "omt2", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return {"code": proc.returncode, "stdout": proc.stdout}


def run_cli_in_process(argv: list[str]) -> dict:
    """Run the same command through ``omt2.cli.main`` in this process."""
    out = io.StringIO()
    code = cli.main(argv, out_stream=out)
    return {"code": code, "stdout": out.getvalue()}
