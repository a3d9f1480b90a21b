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

Both thresholds go through one calibration: `_bracket_end` steps out a
bracket and `_calibrate` bisects the null mass to alpha within one
tolerance.  Bittman's is solved in t_sum, and omt's in log(t): the score
spans hundreds of orders of magnitude across the domain for strong
shifts, so a linear-scale bracket is numerically useless, while the null
mass is smooth and strictly monotone in log(t) on the relevant range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, ToleranceNotMet
from .gauss import (LOG_MAX, AlternativeModel, alpha_lines, check_alpha,
                    clamp_pvalue, std_normal_quantile)
from .numerics import QuadratureConfig, Z_RANGE, bisect, check_count, panel_nodes
from .objective import (ObjectiveSpec, score_cut, score_kinks, score_pair,
                        score_parts, score_z)

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
        z1 = std_normal_quantile(clamp_pvalue(p[0]))
        z2 = std_normal_quantile(clamp_pvalue(p[1]))
        d1, d2 = self.decide_z(z1, z2)
        return Decision(bool(d1), bool(d2))

    # -- rule geometry: each kind's marginal level and union region U -------
    def _level(self) -> float:
        za, zh = alpha_lines(self.alpha)
        return zh if self.kind == "bonferroni" else za

    def _parts(self, k: int, z: np.ndarray) -> tuple:
        """Coordinate k's parts at z-scores z: the level test z <= level
        first, then what `_in_union` reads of coordinate k.  Only a pair
        that names a part spare writes over it, so one vector's parts serve
        every pair it is in."""
        if self.kind == "omt":   # its L-domain indicator is the level test
            return score_parts(self.spec, k, z)
        level = z <= self._level()
        if self.kind == "hommel":
            return level, z <= alpha_lines(self.alpha)[1]
        if self.kind in ("closed_stouffer", "bittman"):
            return level, z
        return (level,)

    def _in_union(self, p1: tuple, p2: tuple, spare: int | None = None) -> np.ndarray:
        """Pointwise membership of U from the two coordinates' `_parts`;
        ``spare`` (1 or 2) names a part the call may write over, because
        its caller drops it after the call."""
        if self.kind == "bonferroni":      # min(z1, z2) <= zh
            return p1[0] | p2[0]
        if self.kind == "hommel":          # min <= zh, or max(z1, z2) <= za
            return (p1[1] | p2[1]) | (p1[0] & p2[0])
        if self.kind in ("closed_stouffer", "bittman"):
            return (p1[1] + p2[1]) <= self.t_sum
        if self.kind == "fixed_sequence":
            return p1[0]
        return score_pair(self.spec, p1, p2, spare) > self.t_score

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
        return score_cut(self.spec, self.t_score, z1)

    # -- vectorized decisions on z-scores ---------------------------------
    def decide_z(self, z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d1, d2) at broadcast z-scores: each coordinate's `_parts`, then
        the union of the pair, which each level test narrows."""
        z1, z2 = np.broadcast_arrays(z1, z2)
        p1, p2 = self._parts(1, z1.reshape(-1)), self._parts(2, z2.reshape(-1))
        union = self._in_union(p1, p2)
        return (p1[0] & union).reshape(z1.shape), (p2[0] & union).reshape(z2.shape)

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
            return [za, *score_kinks(self.spec, self.t_score)]
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

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_GLOBAL_NULL = AlternativeModel(0.0, 0.0, 0.0)

# Bound on |theta1| in `region_mass`.  The z1 nodes near theta1 are
# rounded to multiples of ulp(theta1), at most 2^-32 below the bound, which
# moved hommel's d1 by under 3e-11; at 1e16 the rounded nodes gave d1 = 1.6,
# and from about 2^57 theta1 +- Z_RANGE round to one float.
MAX_SHIFT = 2.0 ** 21


@functools.lru_cache
def _z1_reach(alpha: float) -> float:
    """How far below theta1 a ray integral at level alpha takes z1, so that
    it leaves out at most 1e-12 * alpha there (Z_RANGE for alpha >= 1.05e-9)."""
    return max(Z_RANGE, -std_normal_quantile(1e-12 * alpha))


def _outer_mass(z1: np.ndarray, w: np.ndarray, m1: float,
                column_mass: np.ndarray, *procs: Procedure) -> float:
    """N(m1, 1)-weighted panel sum over z1; a NaN cut or threshold raises."""
    pdf1 = np.subtract(z1, m1)
    pdf1 *= pdf1
    pdf1 *= -0.5
    np.exp(pdf1, out=pdf1)
    pdf1 /= _SQRT_2PI
    pdf1 *= w
    pdf1 *= column_mass
    mass = float(pdf1.sum())
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
    at the procedure's breakpoints, over z1 from theta1 - `_z1_reach`(alpha)
    to theta1 + Z_RANGE, for |theta1| < MAX_SHIFT.  Nodes and cuts are built
    once per (rule, z1 range, config) and reused: the range depends on the
    model only through theta1, so d1, d2 and "any" under one model, and any
    two models with the same theta1, share one `_column_plan`.  A plan miss
    is one pass over the nodes; a hit costs the inner CDF and the sum.
    """
    if which not in ("d1", "d2", "any"):
        raise DomainError(f"which must be d1/d2/any, got {which!r}")
    if model is None:
        model = _GLOBAL_NULL
    m1, m2, rho = model.theta1, model.theta2, model.rho
    if not abs(m1) < MAX_SHIFT:
        raise DomainError(f"theta1 must lie in (-{MAX_SHIFT:.0f}, {MAX_SHIFT:.0f}) "
                          f"for the quadrature, got {m1!r}")
    z1, w, c1, c2 = _column_plan((proc,), m1 - _z1_reach(proc.alpha), m1 + Z_RANGE,
                                 cfg)
    cut = c1 if which == "d1" else c2 if which == "d2" else np.maximum(c1, c2)
    # ndtr(+-inf) is exactly 1/0, so always/never-rejected columns need
    # no special case; a NaN cut surfaces as a non-finite mass.  For
    # rho = 0 the conditional mean m2 + 0*(z1 - m1) is m2 itself and the
    # sd is 1.0, so the general form below adds nothing.
    if rho == 0.0:
        inner = ndtr(cut - m2 if m2 else cut)
    else:
        inner = ndtr((cut - (m2 + rho * (z1 - m1))) / math.sqrt(1.0 - rho * rho))
    return _outer_mass(z1, w, m1, inner, proc)


def region_symmetric_difference(pa: Procedure, pb: Procedure,
                                cfg: QuadratureConfig) -> float:
    """Null measure of the set where the two decision maps disagree.

    Per column the disagreement set is the union of at most two
    intervals (one per hypothesis); its null mass is computed exactly
    and integrated over z1 up to Z_RANGE, from -Z_RANGE - 4 or lower (see
    `_z1_reach`).  Like every ray integral it takes its nodes and cuts from
    one plan per (rule set, range, config): the pair's, at twice the panels.
    """
    wide = replace(cfg, panels_per_axis=2 * cfg.panels_per_axis)
    lo = min(-Z_RANGE - 4.0, -_z1_reach(min(pa.alpha, pb.alpha)))
    z1, w, a1, a2, b1, b2 = _column_plan((pa, pb), lo, Z_RANGE, wide)
    lo1, hi1 = np.minimum(a1, b1), np.maximum(a1, b1)
    lo2, hi2 = np.minimum(a2, b2), np.maximum(a2, b2)

    mass = (ndtr(hi1) - ndtr(lo1)) + (ndtr(hi2) - ndtr(lo2))
    olo = np.maximum(lo1, lo2)
    ohi = np.minimum(hi1, hi2)
    mass = mass - np.where(ohi > olo, ndtr(ohi) - ndtr(olo), 0.0)
    return _outer_mass(z1, w, 0.0, mass, pa, pb)


# ----------------------------------------------------------------------
# Threshold calibration: one bracket and one tolerance for both builds
# ----------------------------------------------------------------------

def _bracket_end(g, x: float, step: float, limit: float = LOG_MAX) -> float:
    """Step the threshold x by ``step`` while g(x), which increases in the
    threshold, lies on the far side of 0 (below it for step > 0).  Both
    sides' guard: ToleranceNotMet, with no g evaluated, once x passes
    ``limit`` (inf does) or is NaN, or after a step down below -720."""
    while x <= limit:
        if not g(x) * step < 0.0:
            return x
        x += step
        if step < 0 and x < -720.0:
            break
    raise ToleranceNotMet(f"threshold bracket ran away "
                          f"({'high' if step > 0 else 'low'} side)")


def _calibrate(g, lo: float, hi: float, alpha: float, cfg: QuadratureConfig) -> float:
    """Root of g = +-(null mass - alpha) on the bracket [lo, hi], to within
    min(cfg.abs_tol, 1e-10, 0.01 * alpha): the one tolerance of both builds."""
    return bisect(g, lo, hi, tol=min(cfg.abs_tol, 1e-10, 0.01 * alpha))


def build_bittman(alpha: float, cfg: QuadratureConfig | None = None) -> Procedure:
    """Consonant sharpening of closed-Stouffer.

    Solves P0(z1 + z2 <= t, min(z1, z2) <= quantile(alpha)) = alpha and
    returns the sum-rule procedure at that threshold; the solution is
    strictly above sqrt(2)*quantile(alpha) for alpha < 0.5.
    """
    a = check_alpha(alpha)
    cfg = cfg or QuadratureConfig()

    def g(t: float) -> float:    # increases in t
        return region_mass(Procedure("bittman", a, t_sum=t), "any", None, cfg) - a

    hi = _bracket_end(g, 0.0 if a < 0.5 else 1.0, 1.0, limit=40.0)
    return Procedure("bittman", a, t_sum=_calibrate(g, closed_stouffer(a).t_sum,
                                                    hi, a, cfg))


def build_omt(spec: ObjectiveSpec, cfg: QuadratureConfig | None = None) -> Procedure:
    """Optimal procedure for the objective: score + solved threshold.

    Calibrates log(t) until the global-null mass of the union region
    equals alpha; the mass is continuous and strictly decreasing in the
    threshold, so the solution exists and is unique.
    """
    cfg = cfg or QuadratureConfig()
    alpha = spec.alpha

    def g(tau: float) -> float:  # increases in log t
        return alpha - region_mass(Procedure("omt", alpha, spec=spec,
                                             t_score=math.exp(tau)), "any", None, cfg)

    # bracket on the log scale around the corner score value; a shift whose
    # square overflows makes it NaN, and the bracket then starts at 0
    with np.errstate(invalid="ignore"):
        corner = float(score_z(spec, spec.za, spec.za))
    log_corner = math.log(corner) if corner > 0 else 0.0
    tau_hi = _bracket_end(g, log_corner, 20.0)
    tau_lo = _bracket_end(g, log_corner - 20.0, -20.0)
    tau = _calibrate(g, tau_lo, tau_hi, alpha, cfg)
    t = math.exp(tau)
    if t == 0.0:    # the rule {s > 0}, drawn by where the score underflows
        raise ToleranceNotMet(f"threshold t = exp({tau:.6g}) underflows to 0")
    proc = Procedure("omt", alpha, spec=spec, t_score=t)
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
        # halved before the sum, so that no finite pair overflows
        return 0.5 * self.axis[:-1] + 0.5 * self.axis[1:]

    def class_counts(self) -> dict[str, int]:
        return {name: int(np.sum(self.classes == k))
                for k, name in enumerate(_CLASS_NAMES)}

    def to_csv(self) -> str:
        c = [f"{v:.6g}," for v in self.centers]
        # tails[k][j] ends column j's lines in class k; row i joins by c[i]
        tails = np.array([[f"{cj}{name}\n" for cj in c] for name in _CLASS_NAMES],
                         dtype=object)
        return "".join(["z1,z2,class\n", *(ci + ci.join(np.choose(row, tails).tolist())
                                             for ci, row in zip(c, self.classes))])


# Largest region grid side; see `export_region`.
MAX_GRID = 1 << 12


def export_region(proc: Procedure, grid_size: int,
                  z_lo: float = -4.0, z_hi: float = 0.0) -> RegionGrid:
    """Classify decisions at the centers of a grid_size^2 z-grid.

    Each of z = quantile(alpha) and z = quantile(alpha/2) inside (z_lo,
    z_hi) is snapped onto an interior edge of its own, the nearest one
    unless both lines want one edge (the lower line then moves down one,
    or the upper one up at the first edge), so cells never straddle those
    rule boundaries.  z_hi - z_lo must be positive and finite; grid_size
    lies in [16, MAX_GRID = 4096]: the call's arrays take about 50 bytes
    per cell for an omt rule, a peak of 816 MiB at the bound.
    """
    grid_size = check_count("grid_size", grid_size, 16, MAX_GRID + 1)
    if not 0.0 < z_hi - z_lo < math.inf:
        raise DomainError(f"z_hi - z_lo must be positive and finite, "
                          f"got [{z_lo}, {z_hi}]")
    axis = np.linspace(z_lo, z_hi, grid_size + 1)
    lines = sorted(x for x in alpha_lines(proc.alpha) if z_lo < x < z_hi)
    edges = [min(max(int(np.argmin(np.abs(axis - x))), 1), grid_size - 1)
             for x in lines]
    if len(edges) == 2 and edges[0] == edges[1]:
        edges = [edges[0] - 1, edges[0]] if edges[0] > 1 else [1, 2]
    axis[edges] = lines
    c = 0.5 * axis[:-1] + 0.5 * axis[1:]
    d1, d2 = proc.decide_z(c[:, None], c[None, :])
    return RegionGrid(axis=axis, classes=d1.astype(np.uint8) + 2 * d2.astype(np.uint8))
