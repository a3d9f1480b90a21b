"""Seeded scenario generator for the four benchmark workloads.

A scenario is a JSON-ready dict holding every input of one operation,
so a printed scenario replays the operation exactly.  The generator
draws inputs over the ranges where the paper's questions live and keeps
the hard cases in: shifts down to -6, all three alpha levels, the
``combo`` objective and interior simplex weights (where the solved rule
shows a real level error, see ``procedures.level_err_max``), and
allocation grids that include the degenerate splits 0 and 1.  No
scenario is dropped because an operation fails on it; draws are only
redrawn when a derived shift leaves [-6, -0.5].
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

THETA_RANGE = (-6.0, -0.5)
ALPHAS = (0.01, 0.025, 0.05)
N_RANGE = (1000, 20000)
MEASURES = ("pi_avg", "pi_any", "pi_1", "pi_combo")
OBJECTIVES = {
    "pi_any": (1.0, 0.0, 0.0),
    "pi_avg": (0.0, 1.0, 0.0),
    "pi_1": (0.0, 0.0, 1.0),
    "combo": (1.0 / 3.0, 0.0, 2.0 / 3.0),
}
CLI_OBJECTIVE = {"pi_any": "pi_any", "pi_avg": "pi_avg", "pi_1": "pi1",
                 "combo": "combo"}


def _in_range(theta: float) -> bool:
    return THETA_RANGE[0] <= theta <= THETA_RANGE[1]


def _theta(rng: random.Random) -> float:
    return rng.uniform(*THETA_RANGE)


def _group_theta(n_persons: int, rc: float, rt: float) -> float:
    """Shift of one group of n persons split into two arms (as omt2 does)."""
    nt = n_persons // 2
    nc = n_persons - nt
    return (rt - rc) / math.sqrt(rc * (1 - rc) / nc + rt * (1 - rt) / nt)


def _rates(rng: random.Random) -> tuple[float, float]:
    rc = rng.uniform(0.05, 0.2)
    return rc, rc * (1.0 - rng.uniform(0.2, 0.5))


def _interior_weights(rng: random.Random) -> tuple[float, float, float]:
    u = [rng.uniform(0.2, 1.0) for _ in range(3)]
    s = sum(u)
    w_any, w_avg = u[0] / s, u[1] / s
    return (w_any, w_avg, 1.0 - w_any - w_avg)


def allocation(rng: random.Random, objective: str) -> dict:
    weights = (_interior_weights(rng) if objective == "interior"
               else OBJECTIVES[objective])
    alpha = rng.choice(ALPHAS)
    while True:
        n_total = rng.randint(*N_RANGE)
        rc, rt = _rates(rng)
        r_grid = [0.0, rng.uniform(0.1, 0.35), rng.uniform(0.4, 0.6),
                  rng.uniform(0.65, 0.9), 1.0]
        thetas = [_group_theta(n, rc, rt) for r in r_grid[1:-1]
                  for n in (round(r * n_total), n_total - round(r * n_total))]
        if all(_in_range(t) for t in thetas):
            break
    return {"kind": "allocation", "objective": objective, "weights": list(weights),
            "N": n_total, "rate_control": rc, "rate_treat": rt,
            "r_grid": r_grid, "alpha": alpha}


def power_table(rng: random.Random) -> dict:
    return {"kind": "power_table", "theta1": _theta(rng), "theta2": _theta(rng),
            "alpha": rng.choice(ALPHAS)}


def savings(rng: random.Random, measure: str, calibration: str) -> dict:
    alpha = rng.choice(ALPHAS)
    n_ref = rng.randint(*N_RANGE)
    sc = {"kind": "savings", "measure": measure, "N": n_ref, "alpha": alpha,
          "calibration": calibration}
    if calibration == "marginal-power":
        sc["beta"] = rng.uniform(0.3, 0.95)
    else:
        while True:
            rc, rt = _rates(rng)
            if _in_range(_group_theta(n_ref // 2, rc, rt)):
                break
        sc["rate_control"], sc["rate_treat"] = rc, rt
    return sc


def mc(rng: random.Random, seed: int) -> dict:
    return {"kind": "mc", "theta1": _theta(rng), "theta2": _theta(rng),
            "alpha": rng.choice(ALPHAS), "seed": seed}


def cli_round(rng: random.Random, seed: int) -> list[dict]:
    objective = rng.choice(sorted(CLI_OBJECTIVE))
    region = {"kind": "cli", "command": "region",
              "objective": CLI_OBJECTIVE[objective],
              "theta1": _theta(rng), "theta2": _theta(rng),
              "alpha": rng.choice(ALPHAS)}
    power = {"kind": "cli", "command": "power", "beta": rng.uniform(0.3, 0.95),
             "alpha": rng.choice(ALPHAS)}
    power_mc = {"kind": "cli", "command": "power_mc", "theta1": _theta(rng),
                "theta2": _theta(rng), "alpha": rng.choice(ALPHAS), "seed": seed}
    alloc = allocation(rng, rng.choice(sorted(OBJECTIVES)))
    allocate = {"kind": "cli", "command": "allocate",
                "measure": rng.choice(MEASURES),
                **{k: alloc[k] for k in ("N", "rate_control", "rate_treat",
                                         "r_grid", "alpha")}}
    counts = []
    for _ in range(2):
        rc = rng.uniform(0.05, 0.1)
        rt = rc * rng.uniform(0.55, 0.85)
        nc, nt = rng.randint(800, 2500), rng.randint(800, 2500)
        counts.append([round(nc * rc), nc, round(nt * rt), nt])
    rc, rt = _rates(rng)
    apex = {"kind": "cli", "command": "apex", "counts": counts,
            "alpha": rng.choice(ALPHAS), "rate_control": rc, "rate_treat": rt,
            "calibration": rng.choice(("design", "marginal-power")),
            "beta": rng.uniform(0.5, 0.95)}
    sav = savings(rng, rng.choice(MEASURES),
                  rng.choice(("marginal-power", "design")))
    sav = {"kind": "cli", "command": "savings",
           **{k: v for k, v in sav.items() if k != "kind"}}
    return [region, power, power_mc, allocate, apex, sav]


def stream(workload: str, seed: int | str) -> Iterator[list[dict]]:
    """Endless rounds of scenarios; the same (workload, seed) always gives
    the same sequence."""
    if workload not in ("solve", "mc", "cli"):
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"omt2-bench:{workload}:{seed}")
    seeds: set[int] = set()

    def fresh_seed() -> int:
        while True:
            s = rng.getrandbits(62)
            if s not in seeds:
                seeds.add(s)
                return s

    for i in itertools.count():
        if workload == "solve":
            objective = ("pi_any", "pi_avg", "pi_1", "combo", "interior")[i % 5]
            calibration = ("marginal-power", "design")[(i // 4) % 2]
            yield [allocation(rng, objective), power_table(rng),
                   savings(rng, MEASURES[i % 4], calibration)]
        elif workload == "mc":
            yield [mc(rng, fresh_seed())]
        else:
            yield cli_round(rng, fresh_seed())


def generate(workload: str, seed: int | str, rounds: int) -> list[list[dict]]:
    """The first ``rounds`` rounds of ``stream(workload, seed)``."""
    return list(itertools.islice(stream(workload, seed), rounds))
