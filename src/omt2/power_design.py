"""Power evaluation, two-arm design mapping, and design-level searches.

Power measures for a procedure D = (d1, d2) at alternative (theta1,
theta2):

- pi_any:   P(d1 or d2) when both nulls are false
- pi_avg:   (E d1 + E d2) / 2 when both nulls are false
- pi_1:     (P_{(theta1,0)}(d1) + P_{(0,theta2)}(d2)) / 2, the expected
            true discoveries when exactly one null is false, uniform
            over which
- pi_combo: pi_any/3 + 2*pi_1/3

The two-arm trial model assigns a group of n persons to control/treated
arms (odd remainder to control) and maps event rates to the mean shift
of the one-sided unpooled z-statistic.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateVariance, DomainError, Unachievable
from .gauss import (REAL_TYPES, AlternativeModel, alpha_lines, check_alpha,
                    std_normal_cdf, std_normal_quantile)
from .numerics import McConfig, QuadratureConfig, check_count, mc_estimate
from .objective import ObjectiveSpec
from .procedures import Procedure, build_omt, hommel, region_mass

__all__ = [
    "PowerReport", "TwoArmDesign", "AllocationResult", "SavingsReport",
    "MEASURES", "MEASURE_WEIGHTS", "theta_from_design", "observed_pvalue",
    "theta_from_marginal_power", "evaluate_power", "fwer_global",
    "mc_power", "allocation_search", "required_n_for_power", "savings_report",
]

MEASURES = ("pi_avg", "pi_any", "pi_1", "pi_combo")

# the one table of objective weights (w_any, w_avg, w_one) under which
# the objective is the measure itself
MEASURE_WEIGHTS = {
    "pi_avg": (0.0, 1.0, 0.0),
    "pi_any": (1.0, 0.0, 0.0),
    "pi_1": (0.0, 0.0, 1.0),
    "pi_combo": (1.0 / 3.0, 0.0, 2.0 / 3.0),
}


@dataclass(frozen=True)
class PowerReport:
    """The four power measures of one procedure at one alternative."""

    pi_avg: float
    pi_any: float
    pi_1: float
    pi_combo: float

    def __post_init__(self):
        for m in MEASURES:
            v = getattr(self, m)
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise DomainError(f"{m}={v!r} outside [0, 1]")

    def get(self, measure: str) -> float:
        if measure not in MEASURES:
            raise DomainError(f"unknown measure {measure!r}")
        return getattr(self, measure)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("measure,value\n")
        for m in MEASURES:
            buf.write(f"{m},{getattr(self, m):.4f}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class TwoArmDesign:
    """Event rates and per-arm sample sizes of a two-proportion trial."""

    rate_control: float
    rate_treat: float
    n_control: int
    n_treat: int

    def __post_init__(self):
        for name in ("rate_control", "rate_treat"):
            r = getattr(self, name)
            if not 0.0 < r < 1.0:
                raise DomainError(f"{name} must be in (0, 1), got {r!r}")
        for name in ("n_control", "n_treat"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))


def theta_from_design(d: TwoArmDesign) -> float:
    """Mean shift of the one-sided z-statistic under the design.

    (rate_treat - rate_control) / sqrt(rc*(1-rc)/nc + rt*(1-rt)/nt),
    unpooled variances.
    """
    var = (d.rate_control * (1 - d.rate_control) / d.n_control
           + d.rate_treat * (1 - d.rate_treat) / d.n_treat)
    return (d.rate_treat - d.rate_control) / math.sqrt(var)


def observed_pvalue(events_control: int, n_control: int,
                    events_treat: int, n_treat: int) -> float:
    """One-sided p-value for observed counts, unpooled normal approximation."""
    for ev, n, tag in ((events_control, n_control, "control"),
                       (events_treat, n_treat, "treat")):
        n = check_count(f"n_{tag}", n, 1)
        check_count(f"events_{tag}", ev, 0, n + 1)
    pc = events_control / n_control
    pt = events_treat / n_treat
    if pc in (0.0, 1.0) or pt in (0.0, 1.0):
        raise DegenerateVariance("observed proportion of 0 or 1 leaves the "
                                 "z-statistic undefined")
    var = pc * (1 - pc) / n_control + pt * (1 - pt) / n_treat
    z = (pt - pc) / math.sqrt(var)
    return float(std_normal_cdf(z))


def theta_from_marginal_power(beta: float, alpha: float) -> float:
    """Shift giving single-test power beta at one-sided level alpha."""
    alpha = check_alpha(alpha)
    if not (isinstance(beta, REAL_TYPES) and alpha <= beta < 1.0):
        raise DomainError(f"beta must be in [alpha, 1), got {beta!r}")
    return alpha_lines(alpha)[0] - std_normal_quantile(beta)


def split_arms(n_persons: int) -> tuple[int, int]:
    """(control, treated) arm sizes for one group; odd remainder to control."""
    half = n_persons // 2
    return n_persons - half, half


def theta_for_group(n_persons: int, rate_control: float, rate_treat: float) -> float:
    """Design shift of one group of n persons split evenly into two arms."""
    nc, nt = split_arms(n_persons)
    return theta_from_design(TwoArmDesign(rate_control, rate_treat, nc, nt))


# ----------------------------------------------------------------------
# Power evaluation
# ----------------------------------------------------------------------

def _semi_null(model: AlternativeModel, which: int) -> AlternativeModel:
    if which == 1:
        return AlternativeModel(model.theta1, 0.0, model.rho)
    return AlternativeModel(0.0, model.theta2, model.rho)


def _measures(pany: float, pavg: float, semi1: float, semi2: float) -> dict[str, float]:
    """The four measures from pany = P(d1 or d2), pavg = (E d1 + E d2)/2
    and semi_k = P(d_k) when only H_k is false.  The map is linear, so it
    also carries Monte Carlo SEs (summed, a conservative bound)."""
    pi_1 = 0.5 * (semi1 + semi2)
    return {"pi_any": pany, "pi_avg": pavg, "pi_1": pi_1,
            "pi_combo": pany / 3.0 + 2.0 * pi_1 / 3.0}


def evaluate_power(proc: Procedure, model: AlternativeModel,
                   cfg: QuadratureConfig | None = None) -> PowerReport:
    """Deterministic quadrature evaluation of the four power measures."""
    cfg = cfg or QuadratureConfig()
    pd1 = region_mass(proc, "d1", model, cfg)
    pd2 = region_mass(proc, "d2", model, cfg)
    pany = region_mass(proc, "any", model, cfg)
    p1_semi = region_mass(proc, "d1", _semi_null(model, 1), cfg)
    p2_semi = region_mass(proc, "d2", _semi_null(model, 2), cfg)
    return PowerReport(**_measures(pany, 0.5 * (pd1 + pd2), p1_semi, p2_semi))


def fwer_global(proc: Procedure, rho: float = 0.0,
                cfg: QuadratureConfig | None = None) -> float:
    """Global-null probability of any rejection."""
    cfg = cfg or QuadratureConfig()
    return region_mass(proc, "any", AlternativeModel(0.0, 0.0, rho), cfg)


def mc_power(proc: Procedure, model: AlternativeModel,
             cfg: McConfig) -> dict[str, tuple[float, float]]:
    """Monte Carlo oracle for the same four measures: (mean, SE) each.

    Three `mc_estimate` passes (the alternative and the two semi-nulls)
    call ``proc.decide_z`` once per block of 2^15 replications, on one
    thread per CPU; the blocks' counts are exact integers, so no estimate
    depends on the number of threads.  pi_avg halves the mean and SE
    of the count d1 + d2, exactly.  pi_1 combines two semi-null runs that
    share the underlying normal draws; its SE uses the triangle
    inequality, which is conservative.
    """
    def ev_alt(z1, z2):
        d1, d2 = proc.decide_z(z1, z2)
        return d1 | d2, np.add(d1, d2, dtype=np.int8)

    (pany, se_any), (count, se_count) = mc_estimate(ev_alt, model, cfg)
    m1, se1 = mc_estimate(lambda z1, z2: proc.decide_z(z1, z2)[0],
                          _semi_null(model, 1), cfg)
    m2, se2 = mc_estimate(lambda z1, z2: proc.decide_z(z1, z2)[1],
                          _semi_null(model, 2), cfg)
    means = _measures(pany, 0.5 * count, m1, m2)
    ses = _measures(se_any, 0.5 * se_count, se1, se2)
    return {m: (means[m], ses[m]) for m in means}


# ----------------------------------------------------------------------
# Allocation search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AllocationResult:
    """Power of the objective's optimal rule across allocation splits."""

    r_grid: tuple[float, ...]
    reports: tuple[PowerReport, ...]
    argmax: dict[str, float]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(("r",) + MEASURES) + "\n")
        for r, rep in zip(self.r_grid, self.reports):
            values = ",".join(f"{rep.get(m):.4f}" for m in MEASURES)
            buf.write(f"{r:g},{values}\n")
        return buf.getvalue()


def _single_hypothesis_report(theta_funded: float, alpha: float) -> PowerReport:
    """Degenerate split: one funded group tested alone at level alpha.

    The unfunded hypothesis is a true null and its rejections never
    count as true discoveries.
    """
    beta = float(std_normal_cdf(alpha_lines(alpha)[0] - theta_funded))
    return PowerReport(**_measures(beta, 0.5 * beta, beta, 0.0))


def allocation_search(n_total: int, weights: tuple[float, float, float],
                      rate_control: float, rate_treat: float,
                      r_grid: Sequence[float], alpha: float,
                      cfg: QuadratureConfig | None = None) -> AllocationResult:
    """Rebuild and evaluate the objective's optimal rule per split.

    Split r funds round(r * n_total) persons for the first group and
    the rest for the second; r in {0, 1} degenerates to testing the
    funded group alone at full level alpha.  A funded group needs two
    persons, one per arm, so n_total is at least 2 and every split is
    checked, before any build, to fund no group of one.
    """
    n_total = check_count("n_total", n_total, 2)
    cfg = cfg or QuadratureConfig()
    alpha = check_alpha(alpha)
    if not r_grid:
        raise DomainError("r_grid must be nonempty")
    grid = sorted(float(r) for r in r_grid)
    if any(not 0.0 <= r <= 1.0 for r in grid):
        raise DomainError("allocation splits must lie in [0, 1]")
    firsts = [int(round(r * n_total)) for r in grid]
    for r, n1 in zip(grid, firsts):
        if 1 in (n1, n_total - n1):
            raise DomainError(f"split r={r!r} of n_total={n_total} funds a group "
                              "of 1 person; a funded group needs 2, one per arm")
    reports = []
    for n1 in firsts:
        n2 = n_total - n1
        if n1 == 0 or n2 == 0:
            reports.append(_single_hypothesis_report(
                theta_for_group(max(n1, n2), rate_control, rate_treat), alpha))
            continue
        th1 = theta_for_group(n1, rate_control, rate_treat)
        th2 = theta_for_group(n2, rate_control, rate_treat)
        spec = ObjectiveSpec(*weights, AlternativeModel(th1, th2, 0.0), alpha)
        proc = build_omt(spec, cfg)
        reports.append(evaluate_power(proc, spec.model, cfg))
    argmax = {}
    for m in MEASURES:
        vals = [rep.get(m) for rep in reports]
        argmax[m] = grid[max(range(len(grid)), key=vals.__getitem__)]
    return AllocationResult(tuple(grid), tuple(reports), argmax)


# ----------------------------------------------------------------------
# Sample-size search and savings
# ----------------------------------------------------------------------

def required_n_for_power(power_of_n: Callable[[int], float], target: float,
                         n_lo: int = 4, n_cap: int = 200_000) -> int:
    """Smallest integer N with power_of_n(N) >= target.

    Requires power nondecreasing in N.  Bisection on the integer grid,
    then a local downward scan to pin the minimum; Unachievable if the
    cap does not reach the target.  n_lo and n_cap are positive integers.
    """
    n_lo = check_count("n_lo", n_lo, 1)
    n_cap = check_count("n_cap", n_cap, 1)
    if not 0.0 <= target < 1.0:
        if target >= 1.0:
            raise Unachievable("power strictly below 1 for any finite N")
        raise DomainError(f"target must be in [0, 1), got {target!r}")
    if power_of_n(n_lo) >= target:
        return n_lo
    if power_of_n(n_cap) < target:
        raise Unachievable(f"target {target:.4f} not reached by N={n_cap}")
    lo, hi = n_lo, n_cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_of_n(mid) >= target:
            hi = mid
        else:
            lo = mid
    while hi - 1 > n_lo and power_of_n(hi - 1) >= target:
        hi -= 1
    return hi


@dataclass(frozen=True)
class SavingsReport:
    measure: str
    n_reference: int
    optimal_power: float
    reference_power: float
    n_required: int
    saving_pct: float


def savings_report(measure: str, weights: tuple[float, float, float],
                   n_reference: int, theta_of_n: Callable[[int], float],
                   alpha: float, cfg: QuadratureConfig | None = None,
                   n_cap: int = 200_000) -> SavingsReport:
    """Sample-size saving of the optimal rule over hommel, the baseline.

    Computes the optimal rule's power for ``measure`` at the reference
    size, finds the smallest N at which the baseline matches it under
    the same exchangeable calibration theta_of_n, and reports the
    relative saving (N_required - n_reference) / N_required * 100.
    """
    n_reference = check_count("n_reference", n_reference, 1)
    n_cap = check_count("n_cap", n_cap, 1)
    cfg = cfg or QuadratureConfig()
    baseline = hommel(alpha)
    th_ref = theta_of_n(n_reference)
    spec = ObjectiveSpec(*weights, AlternativeModel(th_ref, th_ref, 0.0), alpha)
    opt = build_omt(spec, cfg)
    target = evaluate_power(opt, spec.model, cfg).get(measure)

    def baseline_power(n: int) -> float:
        th = theta_of_n(n)
        return evaluate_power(baseline, AlternativeModel(th, th, 0.0), cfg).get(measure)

    ref_power = baseline_power(n_reference)
    n_req = required_n_for_power(baseline_power, target,
                                 n_lo=max(4, n_reference // 4), n_cap=n_cap)
    saving = (n_req - n_reference) / n_req * 100.0
    return SavingsReport(measure=measure, n_reference=n_reference,
                         optimal_power=target, reference_power=ref_power,
                         n_required=n_req, saving_pct=saving)
