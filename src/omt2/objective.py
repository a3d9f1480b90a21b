"""Power objectives as coefficient functions, and the score they induce.

A power objective over decisions (d1, d2) with d3 = max(d1, d2) is

    Pi(D) = integral of  d1*a1(p) + d2*a2(p) + d3*a3(p)  dp

with objective-specific coefficients a_i.  For a point alternative with
independent p-values and per-coordinate shift densities
``lr_i = lr_density(p_i, theta_i)``:

- at-least-one-true-discovery ("any"):   a1 = a2 = 0,  a3 = lr1*lr2
- expected average discoveries ("avg"):  a1 = a2 = lr1*lr2 / 2,  a3 = 0
- exactly-one-false-null average ("one"): a_i = lr_i / 2,  a3 = 0

A convex combination of the three keeps all objectives on a [0, 1]
scale.  The score replaces d_i with the largest decisions a marginally
nominal rule can make, d_i -> 1{p_i <= alpha}, hence
d3 -> max over the two indicators, i.e. 1{min(p1, p2) <= alpha}:

    s(p) = 1{p1<=a}*a1 + 1{p2<=a}*a2 + 1{min(p1,p2)<=a}*a3.

The a3 indicator must be min-based: it is the substitution of the
maximal decisions into d3 = max(d1, d2), and it is what makes the
"any"-objective construction solvable (its rejection region extends
into the one-small-p-value flanks, reproducing the recalibrated z-sum
rule exactly).  Scores are supported on the L-shaped domain
``min(p1, p2) <= alpha`` and vanish outside it.

In z-space, with e_i = exp(theta_i*z_i - theta_i^2/2), the score on each
piece of the L-shaped domain is s = c_g*e1*e2 + c_1*e1 + c_2*e2, with
(c_g, c_1, c_2) from `score_pieces`; the omt cuts and kinks use them:

    square   (z1, z2 <= za):  (w_any + w_avg,   w_one/2, w_one/2)
    z1 flank (z1 <= za < z2): (w_any + w_avg/2, w_one/2, 0)
    z2 flank (z2 <= za < z1): (w_any + w_avg/2, 0,       w_one/2)

Scores are only defined for independent p-values (rho = 0); requesting
one for a correlated model raises UnsupportedModel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedModel
from .gauss import AlternativeModel, alpha_lines, std_normal_quantile

__all__ = ["ObjectiveSpec", "pure_any", "pure_avg", "pure_one", "combo_any_one",
           "score", "score_z", "score_pieces"]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ObjectiveSpec:
    """Convex weights over the three objectives plus the alternative.

    Weights must lie in [0, 1] and sum to 1 within 1e-12.  Both shifts
    must be strictly negative (theta = 0 is the boundary null and gives
    a degenerate score) and alpha must lie in (0, 0.5].
    """

    w_any: float
    w_avg: float
    w_one: float
    model: AlternativeModel
    alpha: float

    def __post_init__(self):
        w = (self.w_any, self.w_avg, self.w_one)
        if any(not 0.0 <= x <= 1.0 for x in w):  # also rejects NaN
            raise DomainError(f"objective weights must lie in [0, 1], got {w}")
        if abs(sum(w) - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"objective weights must sum to 1, got {w}")
        if not 0.0 < self.alpha <= 0.5:
            raise DomainError(f"alpha must be in (0, 0.5], got {self.alpha!r}")
        if not (self.model.theta1 < 0 and self.model.theta2 < 0):
            raise DomainError(
                "score alternatives need strictly negative shifts, got "
                f"({self.model.theta1}, {self.model.theta2})")

    @property
    def weights(self) -> tuple[float, float, float]:
        return (self.w_any, self.w_avg, self.w_one)


def pure_any(model: AlternativeModel, alpha: float) -> ObjectiveSpec:
    return ObjectiveSpec(1.0, 0.0, 0.0, model, alpha)


def pure_avg(model: AlternativeModel, alpha: float) -> ObjectiveSpec:
    return ObjectiveSpec(0.0, 1.0, 0.0, model, alpha)


def pure_one(model: AlternativeModel, alpha: float) -> ObjectiveSpec:
    return ObjectiveSpec(0.0, 0.0, 1.0, model, alpha)


def combo_any_one(model: AlternativeModel, alpha: float) -> ObjectiveSpec:
    """Pi_any/3 + 2*Pi_1/3."""
    return ObjectiveSpec(1.0 / 3.0, 0.0, 2.0 / 3.0, model, alpha)


def _check_p(p1, p2) -> None:
    a1, a2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    if np.any(a1 <= 0) or np.any(a1 >= 1) or np.any(a2 <= 0) or np.any(a2 >= 1):
        raise DomainError("p-values must lie in the open unit square")


def _lr_pair_z(spec: ObjectiveSpec, z1, z2):
    t1, t2 = spec.model.theta1, spec.model.theta2
    e1 = np.exp(t1 * np.asarray(z1, dtype=float) - 0.5 * t1 * t1)
    e2 = np.exp(t2 * np.asarray(z2, dtype=float) - 0.5 * t2 * t2)
    return e1, e2


def _require_independent(spec: ObjectiveSpec) -> None:
    if spec.model.rho != 0.0:
        raise UnsupportedModel(
            "scores are defined for independent p-values only (rho = 0)")


def score_z(spec: ObjectiveSpec, z1, z2):
    """Score evaluated at z-scores (vectorized).

    On the square both indicators are active; on the flanks only the
    small coordinate contributes its a_i, while a3 stays active on the
    whole L-shaped domain.
    """
    _require_independent(spec)
    za = alpha_lines(spec.alpha)[0]
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    e1, e2 = _lr_pair_z(spec, z1, z2)
    in1 = z1 <= za
    in2 = z2 <= za
    g = e1 * e2
    s = spec.w_any * g * (in1 | in2)
    s = s + in1 * (spec.w_avg * g / 2.0 + spec.w_one * e1 / 2.0)
    s = s + in2 * (spec.w_avg * g / 2.0 + spec.w_one * e2 / 2.0)
    return s


def score_pieces(spec: ObjectiveSpec) -> tuple[tuple[float, float, float], ...]:
    """Coefficients (c_g, c_1, c_2) of the square, z1 flank and z2 flank."""
    w_any, w_avg, w_one = spec.weights
    return ((w_any + w_avg, w_one / 2.0, w_one / 2.0),
            (w_any + w_avg / 2.0, w_one / 2.0, 0.0),
            (w_any + w_avg / 2.0, 0.0, w_one / 2.0))


def score(spec: ObjectiveSpec, p: tuple[float, float]) -> float:
    """Score s(p) driving the optimal-procedure construction."""
    p1, p2 = p
    _check_p(p1, p2)
    return float(score_z(spec, std_normal_quantile(p1), std_normal_quantile(p2)))
