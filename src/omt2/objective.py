"""Power objectives as coefficient functions, and the score they induce.

A power objective over decisions (d1, d2) with d3 = max(d1, d2) is

    Pi(D) = integral of  d1*a1(p) + d2*a2(p) + d3*a3(p)  dp

with objective-specific coefficients a_i.  For a point alternative with
independent p-values and per-coordinate likelihood ratios
``lr_i = exp(quantile(p_i)*theta_i - theta_i^2/2)``:

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
from .gauss import REAL_TYPES, AlternativeModel, alpha_lines, check_alpha

__all__ = ["ObjectiveSpec", "score_z", "score_pieces"]

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
        if any(not (isinstance(x, REAL_TYPES) and 0.0 <= x <= 1.0)  # NaN fails too
               for x in w):
            raise DomainError(f"objective weights must lie in [0, 1], got {w}")
        if abs(sum(w) - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"objective weights must sum to 1, got {w}")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if not (self.model.theta1 < 0 and self.model.theta2 < 0):
            raise DomainError(
                "score alternatives need strictly negative shifts, got "
                f"({self.model.theta1}, {self.model.theta2})")

    @property
    def weights(self) -> tuple[float, float, float]:
        return (self.w_any, self.w_avg, self.w_one)


def _lr_z(theta: float, z: np.ndarray) -> np.ndarray:
    """exp(theta*z - theta^2/2) as a fresh array the caller may overwrite."""
    e = np.multiply(theta, z)
    e -= 0.5 * theta * theta
    return np.exp(e, out=e)


def _require_independent(spec: ObjectiveSpec) -> None:
    if spec.model.rho != 0.0:
        raise UnsupportedModel(
            "scores are defined for independent p-values only (rho = 0)")


def score_z(spec: ObjectiveSpec, z1, z2):
    """Score evaluated at z-scores (vectorized).

    On the square both indicators are active; on the flanks only the
    small coordinate contributes its a_i, while a3 stays active on the
    whole L-shaped domain.  The sum

        w_any*g*1{in1|in2} + in1*(w_avg*g/2 + w_one*e1/2)
                           + in2*(w_avg*g/2 + w_one*e2/2),  g = e1*e2,

    is formed in place, in that order, less the terms whose weight is 0
    (each would add +0, or NaN where its exponential overflows).  An
    overflow gives +inf without a warning; the inputs are never written.
    """
    _require_independent(spec)
    za = alpha_lines(spec.alpha)[0]
    z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=float),
                                 np.asarray(z2, dtype=float))
    shape = z1.shape
    z1, z2 = z1.reshape(-1), z2.reshape(-1)
    w_any, w_avg, w_one = spec.weights
    in1, in2 = z1 <= za, z2 <= za
    with np.errstate(over="ignore"):
        e1, e2 = _lr_z(spec.model.theta1, z1), _lr_z(spec.model.theta2, z2)
        # with no w_one term, g takes e1's buffer and the terms e2's and g's
        g = np.multiply(e1, e2, out=None if w_one else e1) if w_any or w_avg else None
        terms = []
        if w_any:
            terms.append(np.multiply(w_any, g, out=None if w_avg else g))
            terms[0] *= in1 | in2
        if w_avg:
            g *= w_avg
            g *= 0.5
        if w_one:
            for e, ind in ((e1, in1), (e2, in2)):
                e *= w_one
                e *= 0.5
                if w_avg:
                    np.add(g, e, out=e)
                e *= ind
                terms.append(e)
        elif w_avg:
            terms += [np.multiply(g, in1, out=e2), np.multiply(g, in2, out=g)]
        s = terms[0]
        for term in terms[1:]:
            s += term
    return s.reshape(shape) if shape else s[0]


def score_pieces(spec: ObjectiveSpec) -> tuple[tuple[float, float, float], ...]:
    """Coefficients (c_g, c_1, c_2) of the square, z1 flank and z2 flank."""
    w_any, w_avg, w_one = spec.weights
    return ((w_any + w_avg, w_one / 2.0, w_one / 2.0),
            (w_any + w_avg / 2.0, w_one / 2.0, 0.0),
            (w_any + w_avg / 2.0, 0.0, w_one / 2.0))
