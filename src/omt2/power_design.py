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

from .errors import DomainError, Unachievable
from .gauss import (REAL_TYPES, AlternativeModel, alpha_lines, check_alpha,
                    std_normal_cdf, std_normal_quantile)
from .numerics import (McConfig, QuadratureConfig, check_count, mc_estimate,
                       normal_pairs)
from .objective import ObjectiveSpec
from .procedures import Procedure, build_omt, hommel, region_mass

__all__ = [
    "PowerReport", "TwoArmDesign", "AllocationResult", "SavingsReport",
    "MEASURES", "MEASURE_WEIGHTS", "theta_from_design", "observed_pvalue",
    "theta_from_marginal_power", "evaluate_power", "fwer_global",
    "mc_power", "mc_powers", "allocation_plan", "allocation_search",
    "required_n_for_power", "savings_spec", "savings_report",
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
    """One-sided p-value for observed counts, unpooled normal approximation;
    DomainError for an observed proportion of 0 or 1, where it is undefined."""
    for ev, n, tag in ((events_control, n_control, "control"),
                       (events_treat, n_treat, "treat")):
        n = check_count(f"n_{tag}", n, 1)
        check_count(f"events_{tag}", ev, 0, n + 1)
    pc = events_control / n_control
    pt = events_treat / n_treat
    if pc in (0.0, 1.0) or pt in (0.0, 1.0):
        raise DomainError("observed proportion of 0 or 1 leaves the "
                          "z-statistic undefined")
    return std_normal_cdf(theta_from_design(TwoArmDesign(pc, pt, n_control, n_treat)))


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
    and semi_k = P(d_k) when only H_k is false."""
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


def _se(s1: int, s2: int, n: int) -> float:
    """SE of the mean of n values whose sums of x and x^2 are s1 and s2."""
    return math.sqrt((n * s2 - s1 * s1) / (n * n * (n - 1)))


def mc_powers(procs: Sequence[Procedure], model: AlternativeModel,
              cfg: McConfig) -> list[dict[str, tuple[float, float]]]:
    """Monte Carlo oracle for the four measures of each rule: (mean, SE) each.

    One `mc_estimate` pass decides every rule, the alternative and both
    semi-nulls on the same draws (s_k is semi-null k's decision): it
    takes the semi-null models (theta1, 0, rho) and (0, theta2, rho),
    whose z1 and z2 are the alternative's own, so each block shifts the
    draw once for all rules.  The pass streams the draw unless the memo
    of `normal_pairs` holds (seed, reps), so a call holds O(block) draws.
    Each block forms a rule's per-coordinate parts (`Procedure._parts`)
    once per vector, and each model's union once; a semi-null forms only
    the decision it reports.  A rule's eight arrays are counted before
    the next rule is decided.  Each measure's value, any, (d1 + d2)/2,
    (s1 + s2)/2 or (any + s1 + s2)/3, sums k indicators over k, so its S1
    adds their counts and S2 = S1 + 2 * their overlaps' counts (x^2 = x
    for a bool): each SE is exact, covariance included.
    """
    def decide(proc, z1, x2, y1, z2):
        # (z1, z2) is the alternative: each vector's parts are formed once,
        # at most two vectors' parts are alive at a time, and the last pair
        # that reads a part may write over it
        p2 = proc._parts(2, z2)
        s2 = p2[0] & proc._in_union(proc._parts(1, y1), p2, spare=1)
        p1 = proc._parts(1, z1)
        union = proc._in_union(p1, p2, spare=2)
        d1, d2 = p1[0] & union, p2[0] & union
        del p2, union
        s1 = p1[0] & proc._in_union(p1, proc._parts(2, x2), spare=2)
        return (hit := d1 | d2), d1, d2, s1, s2, s1 & s2, hit & s1, hit & s2

    def event(*zs):
        for proc in procs:
            yield from decide(proc, *zs)

    models = (_semi_null(model, 1), _semi_null(model, 2))
    counts, n, reports = mc_estimate(event, models, cfg), cfg.reps, []
    for r in range(0, len(counts), 8):     # each rule's eight counts
        hit, d1, d2, s1, s2, s12, hit_s1, hit_s2 = counts[r:r + 8]
        means = _measures(hit / n, 0.5 * ((d1 + d2) / n), s1 / n, s2 / n)
        # (k, S1, overlaps) of each measure; d1 & d2 holds d1 + d2 - hit times
        parts = {"pi_any": (1, hit, 0), "pi_avg": (2, d1 + d2, d1 + d2 - hit),
                 "pi_1": (2, s1 + s2, s12),
                 "pi_combo": (3, hit + s1 + s2, hit_s1 + hit_s2 + s12)}
        reports.append({m: (means[m], _se(s, s + 2 * o, n) / k)
                        for m, (k, s, o) in parts.items()})
    return reports


def mc_power(proc: Procedure, model: AlternativeModel,
             cfg: McConfig) -> dict[str, tuple[float, float]]:
    """`mc_powers` of one rule, on the draw that `normal_pairs` keeps, so
    that callers asking for one rule at a time draw once per (seed, reps)."""
    normal_pairs(cfg.seed, cfg.reps)
    return mc_powers((proc,), model, cfg)[0]


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


def allocation_plan(n_total: int, weights: tuple[float, float, float],
                    rate_control: float, rate_treat: float,
                    r_grid: Sequence[float], alpha: float) -> tuple[list, list]:
    """The sorted splits of `allocation_search`, each with the ObjectiveSpec
    of its optimal rule where it funds both groups, else with the funded
    group's PowerReport (`_single_hypothesis_report`).

    Split r funds round(r * n_total) persons for the first group and
    the rest for the second; r in {0, 1} degenerates to testing the
    funded group alone at full level alpha.  A funded group needs two
    persons, one per arm, so n_total is at least 2 and no split may fund a
    group of one.  Every check is made here, before any solve.
    """
    n_total = check_count("n_total", n_total, 2)
    alpha = check_alpha(alpha)
    if not r_grid:
        raise DomainError("r_grid must be nonempty")
    grid = sorted(float(r) for r in r_grid)
    if any(not 0.0 <= r <= 1.0 for r in grid):
        raise DomainError("allocation splits must lie in [0, 1]")
    firsts = [int(round(r * n_total)) for r in grid]
    for r, n1 in zip(grid, firsts):
        if 1 in (n1, n_total - n1):
            raise DomainError(f"split r={r!r} of {n_total} persons funds a group "
                              "of 1 person; a funded group needs 2, one per arm")
    plan = []
    for n1 in firsts:
        n2 = n_total - n1
        if n1 == 0 or n2 == 0:
            plan.append(_single_hypothesis_report(
                theta_for_group(max(n1, n2), rate_control, rate_treat), alpha))
            continue
        th1 = theta_for_group(n1, rate_control, rate_treat)
        th2 = theta_for_group(n2, rate_control, rate_treat)
        plan.append(ObjectiveSpec(*weights, AlternativeModel(th1, th2, 0.0), alpha))
    return grid, plan


def allocation_search(n_total: int, weights: tuple[float, float, float],
                      rate_control: float, rate_treat: float,
                      r_grid: Sequence[float], alpha: float,
                      cfg: QuadratureConfig | None = None) -> AllocationResult:
    """Rebuild and evaluate the objective's optimal rule per split of
    `allocation_plan`; a split that funds one group tests it alone."""
    grid, plan = allocation_plan(n_total, weights, rate_control, rate_treat,
                                 r_grid, alpha)
    cfg = cfg or QuadratureConfig()
    reports = [evaluate_power(build_omt(p, cfg), p.model, cfg)
               if isinstance(p, ObjectiveSpec) else p for p in plan]
    argmax = {}
    for m in MEASURES:
        vals = [rep.get(m) for rep in reports]
        argmax[m] = grid[max(range(len(grid)), key=vals.__getitem__)]
    return AllocationResult(tuple(grid), tuple(reports), argmax)


# ----------------------------------------------------------------------
# Sample-size search and savings
# ----------------------------------------------------------------------

# Rules that coincide give powers that differ by quadrature rounding
# (2.03e-11 for hommel against the optimal pi_1 rule at marginal power
# 0.5), so a power this close below the target reaches it.
_N_TIE_TOL = 1e-9


def required_n_for_power(power_of_n: Callable[[int], float], target: float,
                         n_lo: int = 4, n_cap: int = 200_000) -> int:
    """Smallest integer N with power_of_n(N) >= target - _N_TIE_TOL (1e-9),
    so an exact tie is decided as one, not by rounding noise.

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
    reach = target - _N_TIE_TOL
    if power_of_n(n_lo) >= reach:
        return n_lo
    if power_of_n(n_cap) < reach:
        raise Unachievable(f"target {target:.4f} not reached by N={n_cap}")
    lo, hi = n_lo, n_cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_of_n(mid) >= reach:
            hi = mid
        else:
            lo = mid
    while hi - 1 > n_lo and power_of_n(hi - 1) >= reach:
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


def savings_spec(weights: tuple[float, float, float], n_reference: int,
                 theta_of_n: Callable[[int], float], alpha: float,
                 n_cap: int = 200_000) -> ObjectiveSpec:
    """The objective of `savings_report`'s optimal rule, at the shift of
    n_reference, once every argument is checked, before any solve: both
    sizes are at least 4, the search's floor, and the shift at n_cap is a
    float."""
    n_reference = check_count("n_reference", n_reference, 4)
    n_cap = check_count("n_cap", n_cap, 4)
    try:
        theta_of_n(n_cap)
    except OverflowError as exc:
        raise DomainError(f"n_cap = {n_cap} implies a shift beyond the float "
                          "range") from exc
    th_ref = theta_of_n(n_reference)
    return ObjectiveSpec(*weights, AlternativeModel(th_ref, th_ref, 0.0), alpha)


def savings_report(measure: str, weights: tuple[float, float, float],
                   n_reference: int, theta_of_n: Callable[[int], float],
                   alpha: float, cfg: QuadratureConfig | None = None,
                   n_cap: int = 200_000) -> SavingsReport:
    """Sample-size saving of the optimal rule over hommel, the baseline.

    Computes the optimal rule's power for ``measure`` at the reference
    size, finds the smallest N at which the baseline matches it under
    the same exchangeable calibration theta_of_n, and reports the
    relative saving (N_required - n_reference) / N_required * 100.
    `savings_spec` checks the arguments.
    """
    spec = savings_spec(weights, n_reference, theta_of_n, alpha, n_cap)
    n_reference, n_cap = int(n_reference), int(n_cap)
    cfg = cfg or QuadratureConfig()
    baseline = hommel(alpha)
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
