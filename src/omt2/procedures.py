"""Decision rules: five builtins plus the constructed optimal rule.

Every rule here has one form: reject H_k iff z_k <= level and (z1, z2)
lies in a union region U = {z2 <= u(z1)}; the level is quantile(alpha/2)
for bonferroni and quantile(alpha) otherwise.  So for each fixed z1 the
set of z2 values where hypothesis k is rejected is a downward ray
``{z2 <= cut_k(z1)}`` (possibly empty or the whole line), and rejection
probabilities reduce to a one-dimensional outer integral of
``pdf(z1) * cdf(cut(z1))`` with the inner integral in closed form;
`region_mass` does this for bivariate-normal evaluation models, and
`region_symmetric_difference` compares two decision maps the same way.

Rules (p-space, one-sided, level alpha):

- bonferroni:       reject k iff p_k <= alpha/2
- hommel:           reject k iff p_k <= alpha/2 or max(p1, p2) <= alpha
- closed_stouffer:  reject k iff p_k <= alpha and z1 + z2 <= sqrt(2) za
- bittman:          closed_stouffer with the z-sum threshold re-solved
                    so the boundary-null rejection probability is
                    exactly alpha (the consonant sharpening)
- fixed_sequence:   test H1 at alpha; only if rejected, test H2 at alpha
- omt:              reject k iff p_k <= alpha and s(p) > t, with the
                    threshold t solved so the global-null rejection
                    probability is exactly alpha

The omt threshold is solved by bisection on log(t): the score spans
hundreds of orders of magnitude across the domain for strong shifts,
so a linear-scale bracket is numerically useless, while the null mass
is smooth and strictly monotone in log(t) on the relevant range.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, ToleranceNotMet
from .gauss import (AlternativeModel, alpha_lines, check_alpha,
                    clamp_pvalue, std_normal_quantile)
from .numerics import QuadratureConfig, Z_RANGE, bisect, check_count, panel_nodes
from .objective import ObjectiveSpec, score_pieces, score_z

__all__ = [
    "Decision", "Procedure", "bonferroni", "hommel", "closed_stouffer",
    "fixed_sequence", "build_bittman", "build_omt",
    "hommel_coincidence_bound", "region_mass", "region_symmetric_difference",
    "RegionGrid", "export_region",
]


@dataclass(frozen=True)
class Decision:
    """Reject/retain verdict for the two hypotheses."""

    d1: bool
    d2: bool

    def as_tuple(self) -> tuple[bool, bool]:
        return (self.d1, self.d2)


# each kind with the optional fields it requires (it takes no others)
_KINDS = {"bonferroni": (), "hommel": (), "closed_stouffer": ("t_sum",),
          "bittman": ("t_sum",), "fixed_sequence": (), "omt": ("spec", "t_score")}


@dataclass(frozen=True)
class Procedure:
    """A level-alpha decision rule p -> (d1, d2).

    kind is one of bonferroni / hommel / closed_stouffer / bittman /
    fixed_sequence / omt.  Sum-rule kinds carry the z-sum threshold in
    ``t_sum``; the omt kind carries its ObjectiveSpec and solved score
    threshold ``t_score``.
    """

    kind: str
    alpha: float
    t_sum: float | None = None
    spec: ObjectiveSpec | None = field(default=None, repr=False)
    t_score: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown procedure kind {self.kind!r}")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        given = tuple(f for f in ("t_sum", "spec", "t_score")
                      if getattr(self, f) is not None)
        if given != _KINDS[self.kind]:
            raise DomainError(f"{self.kind} takes fields {_KINDS[self.kind]}, "
                              f"got {given}")
        if self.spec is not None and self.spec.alpha != self.alpha:
            raise DomainError(f"omt alpha {self.alpha!r} differs from its "
                              f"objective's alpha {self.spec.alpha!r}")

    # -- scalar decisions ------------------------------------------------
    def decide(self, p: tuple[float, float]) -> Decision:
        p1 = clamp_pvalue(p[0])
        p2 = clamp_pvalue(p[1])
        z1 = std_normal_quantile(p1)
        z2 = std_normal_quantile(p2)
        d1, d2 = self.decide_z(np.array([z1]), np.array([z2]))
        return Decision(bool(d1[0]), bool(d2[0]))

    # -- rule geometry: each kind's marginal level and union region U -------
    def _level(self) -> float:
        za, zh = alpha_lines(self.alpha)
        return zh if self.kind == "bonferroni" else za

    def _in_union(self, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """Pointwise membership of U (the Monte Carlo path)."""
        za, zh = alpha_lines(self.alpha)
        if self.kind == "bonferroni":
            return np.minimum(z1, z2) <= zh
        if self.kind == "hommel":
            return (np.minimum(z1, z2) <= zh) | (np.maximum(z1, z2) <= za)
        if self.kind in ("closed_stouffer", "bittman"):
            return (z1 + z2) <= self.t_sum
        if self.kind == "fixed_sequence":
            return z1 <= za
        return score_z(self.spec, z1, z2) > self.t_score

    def _union_cut(self, z1: np.ndarray) -> np.ndarray:
        """Column cut u of U = {z2 <= u(z1)}; `column_cuts` clips it at the level."""
        za, zh = alpha_lines(self.alpha)
        if self.kind == "bonferroni":
            return np.where(z1 <= zh, np.inf, zh)
        if self.kind == "hommel":
            return np.where(z1 <= zh, np.inf, np.where(z1 <= za, za, zh))
        if self.kind in ("closed_stouffer", "bittman"):
            return self.t_sum - z1
        if self.kind == "fixed_sequence":
            return np.where(z1 <= za, np.inf, -np.inf)
        return _omt_union_cut(self.spec, self.t_score, z1)

    # -- vectorized decisions on z-scores ---------------------------------
    def decide_z(self, z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        level = self._level()
        union = self._in_union(z1, z2)
        return (z1 <= level) & union, (z2 <= level) & union

    # -- column geometry ---------------------------------------------------
    def column_cuts(self, z1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-column rejection rays: (cut1, cut2) with D_k = {z2 <= cut_k}.

        +inf marks a column where the hypothesis is rejected for every
        z2, -inf a column where it is never rejected.
        """
        z1 = np.asarray(z1, dtype=float)
        level = self._level()
        u = self._union_cut(z1)
        return np.where(z1 <= level, u, -np.inf), np.minimum(u, level)

    def z_breakpoints(self) -> list[float]:
        """z1 values where the column cuts kink or jump (panel splits)."""
        za, zh = alpha_lines(self.alpha)
        if self.kind in ("closed_stouffer", "bittman"):
            return [za, self.t_sum - za]
        if self.kind == "omt":
            return [za, *_omt_kinks(self.spec, self.t_score)]
        return [za, zh]

    def describe(self) -> str:
        if self.kind in ("closed_stouffer", "bittman"):
            return f"{self.kind}(alpha={self.alpha:g}, t_sum={self.t_sum:.6g})"
        if self.kind == "omt":
            w = self.spec.weights
            return (f"omt(alpha={self.alpha:g}, weights=({w[0]:.6g},{w[1]:.6g},"
                    f"{w[2]:.6g}), theta=({self.spec.model.theta1:.6g},"
                    f"{self.spec.model.theta2:.6g}), t={self.t_score:.6g})")
        return f"{self.kind}(alpha={self.alpha:g})"


def bonferroni(alpha: float) -> Procedure:
    return Procedure("bonferroni", alpha)


def hommel(alpha: float) -> Procedure:
    return Procedure("hommel", alpha)


def closed_stouffer(alpha: float) -> Procedure:
    a = check_alpha(alpha)
    return Procedure("closed_stouffer", a,
                     t_sum=math.sqrt(2.0) * alpha_lines(a)[0])


def fixed_sequence(alpha: float) -> Procedure:
    return Procedure("fixed_sequence", alpha)


def hommel_coincidence_bound(alpha: float) -> float:
    """Shift below which the optimal one-false-null rule stops matching
    hommel: -log(2) / (quantile(alpha) - quantile(alpha/2))."""
    za, zh = alpha_lines(check_alpha(alpha))
    return -math.log(2.0) / (za - zh)


# ----------------------------------------------------------------------
# Ray-mass evaluation
# ----------------------------------------------------------------------

def _outer_mass(z1: np.ndarray, w: np.ndarray, m1: float,
                column_mass: np.ndarray, *procs: Procedure) -> float:
    """N(m1, 1)-weighted panel sum over z1; a NaN cut or threshold raises."""
    pdf1 = np.exp(-0.5 * (z1 - m1) ** 2) / math.sqrt(2.0 * math.pi)
    mass = float(np.sum(w * pdf1 * column_mass))
    if not math.isfinite(mass):
        raise ToleranceNotMet(
            f"non-finite mass {mass} for {', '.join(p.describe() for p in procs)}")
    return mass


@functools.lru_cache(maxsize=16)
def _column_plan(procs: tuple[Procedure, ...], lo: float, hi: float,
                 cfg: QuadratureConfig) -> tuple[np.ndarray, ...]:
    """Panel nodes z1 and weights w on [lo, hi], split at every rule's
    breakpoints, then each rule's column cuts (c1, c2) at the nodes.

    Every ray integral takes its nodes and cuts from one such plan per
    (rule set, range, config).  The plan does not depend on the evaluation
    model, so the events of `region_mass` share it whenever their models
    give the same range.  The arrays are read-only because they are shared.
    """
    z1, w = panel_nodes(lo, hi, [b for p in procs for b in p.z_breakpoints()],
                        cfg.panels_per_axis, cfg.nodes_per_panel)
    plan = (z1, w, *(c for p in procs for c in p.column_cuts(z1)))
    for arr in plan:
        arr.setflags(write=False)
    return plan


def region_mass(proc: Procedure, which: str,
                model: AlternativeModel | None,
                cfg: QuadratureConfig) -> float:
    """Probability of a rejection event under an evaluation model.

    which: "d1", "d2" or "any" (union).  model=None means the global
    null.  The inner z2 integral is the exact conditional normal CDF at
    the column cut; the outer integral uses Gauss-Legendre panels split
    at the procedure's breakpoints.  Nodes and cuts are built once per
    (rule, z1 range, config) and reused: the range depends on the model
    only through theta1, so d1, d2 and "any" under one model, and any
    two models with the same theta1, share one `_column_plan`.
    """
    if which not in ("d1", "d2", "any"):
        raise DomainError(f"which must be d1/d2/any, got {which!r}")
    if model is None:
        model = AlternativeModel(0.0, 0.0, 0.0)
    m1, m2, rho = model.theta1, model.theta2, model.rho
    s_cond = math.sqrt(1.0 - rho * rho)
    za = alpha_lines(proc.alpha)[0]

    lo = min(m1 - Z_RANGE, za - 1.0)
    hi = max(m1 + Z_RANGE, za + 1.0)
    z1, w, c1, c2 = _column_plan((proc,), lo, hi, cfg)
    cut = c1 if which == "d1" else c2 if which == "d2" else np.maximum(c1, c2)
    # ndtr(+-inf) is exactly 1/0, so always/never-rejected columns need
    # no special case; a NaN cut surfaces as a non-finite mass
    inner = ndtr((cut - (m2 + rho * (z1 - m1))) / s_cond)
    return _outer_mass(z1, w, m1, inner, proc)


def region_symmetric_difference(pa: Procedure, pb: Procedure,
                                cfg: QuadratureConfig) -> float:
    """Null measure of the set where the two decision maps disagree.

    Per column the disagreement set is the union of at most two
    intervals (one per hypothesis); its null mass is computed exactly
    and integrated over z1.  Like every ray integral it takes its nodes
    and cuts from one plan per (rule set, range, config): here the pair's
    `_column_plan`, at twice the configured panels.
    """
    wide = replace(cfg, panels_per_axis=2 * cfg.panels_per_axis)
    z1, w, a1, a2, b1, b2 = _column_plan((pa, pb), -Z_RANGE - 4.0, Z_RANGE, wide)
    lo1, hi1 = np.minimum(a1, b1), np.maximum(a1, b1)
    lo2, hi2 = np.minimum(a2, b2), np.maximum(a2, b2)

    mass = (ndtr(hi1) - ndtr(lo1)) + (ndtr(hi2) - ndtr(lo2))
    olo = np.maximum(lo1, lo2)
    ohi = np.minimum(hi1, hi2)
    mass = mass - np.where(ohi > olo, ndtr(ohi) - ndtr(olo), 0.0)
    return _outer_mass(z1, w, 0.0, mass, pa, pb)


# ----------------------------------------------------------------------
# Bittman construction: recalibrated z-sum threshold
# ----------------------------------------------------------------------

def build_bittman(alpha: float, cfg: QuadratureConfig | None = None) -> Procedure:
    """Consonant sharpening of closed-Stouffer.

    Solves P0(z1 + z2 <= t, min(z1, z2) <= quantile(alpha)) = alpha and
    returns the sum-rule procedure at that threshold; the solution is
    strictly above sqrt(2)*quantile(alpha) for alpha < 0.5.
    """
    a = check_alpha(alpha)
    cfg = cfg or QuadratureConfig()
    lo = math.sqrt(2.0) * alpha_lines(a)[0]

    def null_mass(t: float) -> float:
        return region_mass(Procedure("bittman", a, t_sum=t), "any", None, cfg)

    hi = 0.0 if a < 0.5 else 1.0
    while null_mass(hi) < a:
        hi += 1.0
        if hi > 40.0:
            raise ToleranceNotMet("could not bracket the z-sum threshold")
    t = bisect(lambda x: null_mass(x) - a, lo, hi, tol=min(cfg.abs_tol, 1e-10))
    if t < lo - 1e-9:
        raise ToleranceNotMet("solved z-sum threshold fell below the "
                              "closed-Stouffer value")
    return Procedure("bittman", a, t_sum=t)


# ----------------------------------------------------------------------
# OMT construction: score threshold solved on the null
# ----------------------------------------------------------------------

def _omt_union_cut(spec: ObjectiveSpec, t: float, z1: np.ndarray) -> np.ndarray:
    """Column cut of {s > t} within the L-shaped domain.

    Along a column each piece's score (see `objective`) is affine in
    e2, so its crossing is closed-form.  For z1 <= za the score drops
    at z2 = za, where the square gives way to the z1 flank, so the
    superlevel set is a single ray; columns z1 > za see only the z2
    flank and are clipped at z2 = za by `Procedure.column_cuts`.
    """
    t1, t2 = spec.model.theta1, spec.model.theta2
    za = alpha_lines(spec.alpha)[0]
    ea2 = math.exp(t2 * za - 0.5 * t2 * t2)
    # where e1 overflows (strong shifts, deep in the square) every top and
    # bottom value is inf or NaN, so the where chain keeps the whole column
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e1 = np.exp(t1 * z1 - 0.5 * t1 * t1)
        # one row per piece: (3, 1, ...) coefficient columns against e1
        c_g, c_1, c_2 = np.reshape(np.transpose(score_pieces(spec)),
                                   (3, 3) + (1,) * e1.ndim)
        slope, base = c_g * e1 + c_2, c_1 * e1   # s = slope*e2 + base
        e2 = (t - base) / slope                   # e2 <= 0: no crossing
        cut = (np.log(np.where(e2 > 0, e2, 1.0)) + 0.5 * t2 * t2) / t2
        top = slope * ea2 + base
    cut_sq, cut_f1, cut_f2 = cut
    top_sq, top_f1 = top[:2]
    bottom_f1 = base[1]
    # top_*: score as z2 -> za from inside the piece; bottom_f1: z2 -> +inf
    cut_low = np.where(t >= top_sq, cut_sq,
                       np.where(t >= top_f1, za,
                                np.where(t > bottom_f1, cut_f1, np.inf)))
    return np.where(z1 <= za, cut_low, cut_f2)


def _omt_kinks(spec: ObjectiveSpec, t: float) -> list[float]:
    """z1 values where the union cut changes branch: per piece of `objective`,
    where its score at z2 = za equals t; and the z1 flank's z2 -> +inf
    limit c_1*e1 = t, the singular column where the flank cut diverges."""
    t1, t2 = spec.model.theta1, spec.model.theta2
    za = alpha_lines(spec.alpha)[0]
    ea2 = math.exp(t2 * za - 0.5 * t2 * t2)
    pieces = score_pieces(spec)
    roots = [(t - c_2 * ea2, c_g * ea2 + c_1) for c_g, c_1, c_2 in pieces]
    roots.append((t, pieces[1][1]))   # the z1 flank's limit: c_1*e1 = t
    e1s = [num / den for num, den in roots if den > 0]
    return [(math.log(e1) + 0.5 * t1 * t1) / t1 for e1 in e1s if 0.0 < e1 < math.inf]


def build_omt(spec: ObjectiveSpec, cfg: QuadratureConfig | None = None) -> Procedure:
    """Optimal procedure for the objective: score + solved threshold.

    Bisects log(t) until the global-null mass of the union region
    equals alpha within min(cfg.abs_tol, 1e-10); the mass is continuous
    and strictly decreasing in the threshold, so the solution exists
    and is unique.
    """
    cfg = cfg or QuadratureConfig()
    alpha = spec.alpha

    def null_mass_log(tau: float) -> float:
        return region_mass(Procedure("omt", alpha, spec=spec, t_score=math.exp(tau)),
                           "any", None, cfg)

    # bracket on the log scale around the corner score value
    za = alpha_lines(alpha)[0]
    corner = float(score_z(spec, np.array([za]), np.array([za]))[0])
    tau_hi = math.log(corner) if corner > 0 else 0.0
    while null_mass_log(tau_hi) > alpha:
        tau_hi += 20.0
        if tau_hi > 720.0:
            raise ToleranceNotMet("threshold bracket ran away (high side)")
    tau_lo = (math.log(corner) if corner > 0 else 0.0) - 20.0
    while null_mass_log(tau_lo) < alpha:
        tau_lo -= 20.0
        if tau_lo < -720.0:
            raise ToleranceNotMet("threshold bracket ran away (low side)")

    tol = min(cfg.abs_tol, 1e-10, 0.01 * alpha)
    tau = bisect(lambda x: null_mass_log(x) - alpha, tau_lo, tau_hi, tol=tol)
    proc = Procedure("omt", alpha, spec=spec, t_score=math.exp(tau))
    resid = abs(region_mass(proc, "any", None, cfg) - alpha)
    if resid > cfg.abs_tol:
        raise ToleranceNotMet(
            f"null mass residual {resid:.3g} exceeds abs_tol={cfg.abs_tol:g}")
    return proc


# ----------------------------------------------------------------------
# Region export
# ----------------------------------------------------------------------

_CLASS_NAMES = ("none", "only1", "only2", "both")


@dataclass(frozen=True)
class RegionGrid:
    """Cell-center classification of a procedure's decisions in z-space."""

    axis: np.ndarray          # cell-edge coordinates, shared by both axes
    classes: np.ndarray       # (n, n) uint8, row-major over (z1, z2)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.axis[:-1] + self.axis[1:])

    def class_counts(self) -> dict[str, int]:
        return {name: int(np.sum(self.classes == k))
                for k, name in enumerate(_CLASS_NAMES)}

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("z1,z2,class\n")
        c = self.centers
        for i in range(len(c)):
            for j in range(len(c)):
                buf.write(f"{c[i]:.6g},{c[j]:.6g},"
                          f"{_CLASS_NAMES[self.classes[i, j]]}\n")
        return buf.getvalue()


def export_region(proc: Procedure, grid_size: int,
                  z_lo: float = -4.0, z_hi: float = 0.0) -> RegionGrid:
    """Classify decisions at the centers of a grid_size^2 z-grid.

    The nearest interior edges are snapped onto z = quantile(alpha) and
    z = quantile(alpha/2) so cells never straddle those rule
    boundaries.
    """
    grid_size = check_count("grid_size", grid_size, 16)
    if not (math.isfinite(z_lo) and math.isfinite(z_hi) and z_hi > z_lo):
        raise DomainError("z_lo and z_hi must be finite with z_hi > z_lo")
    axis = np.linspace(z_lo, z_hi, grid_size + 1)
    for line in alpha_lines(proc.alpha):
        if z_lo < line < z_hi:
            k = int(np.argmin(np.abs(axis - line)))
            if 0 < k < grid_size:
                axis = axis.copy()
                axis[k] = line
    c = 0.5 * (axis[:-1] + axis[1:])
    z1g, z2g = np.meshgrid(c, c, indexing="ij")
    d1, d2 = proc.decide_z(z1g.ravel(), z2g.ravel())
    classes = (d1.astype(np.uint8) + 2 * d2.astype(np.uint8)).reshape(z1g.shape)
    return RegionGrid(axis=axis, classes=classes)
