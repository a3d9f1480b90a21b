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
the rows (c_g, c_1, c_2) of ``ObjectiveSpec.pieces``:

    square   (z1, z2 <= za):  (w_any + w_avg,   w_one/2, w_one/2)
    z1 flank (z1 <= za < z2): (w_any + w_avg/2, w_one/2, 0)
    z2 flank (z2 <= za < z1): (w_any + w_avg/2, 0,       w_one/2)

The score has both its forms here: pointwise, `score_parts` and
`score_pair` (under `score_z`) for decisions and Monte Carlo runs; per
column, `score_cut` (the ray of z2 where s > t) and `score_kinks` (the
z1 values where it changes branch), which the quadrature reads.  The
pieces, za and e2 at z2 = za live on the spec, derived once.

Scores are only defined for independent p-values (rho = 0); a spec for
a correlated model is refused when it is built (DomainError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .gauss import REAL_TYPES, AlternativeModel, alpha_lines, check_alpha

__all__ = ["ObjectiveSpec", "score_z", "score_cut", "score_kinks"]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ObjectiveSpec:
    """Convex weights over the three objectives plus the alternative.

    Weights must lie in [0, 1] and sum to 1 within 1e-12; they are stored
    as Python floats, so a numpy weight gives the same arithmetic.  Both
    shifts must be strictly negative (theta = 0 is the boundary null and
    gives a degenerate score), the model independent (rho = 0), and alpha
    must lie in (0, 0.5].

    The score's geometry is derived once, and left out of equality, hash
    and repr: ``za`` = quantile(alpha), ``ea2`` = exp(theta2*za -
    theta2^2/2) (finite: its exponent is at most za^2/2 < 704, as alpha
    is not subnormal and so za >= -37.5), ``pieces``
    = the rows (c_g, c_1, c_2) of the square, z1 flank and z2 flank, and
    ``cols`` = a read-only (3, 3, 1) array of their columns c_g, c_1, c_2.
    """

    w_any: float
    w_avg: float
    w_one: float
    model: AlternativeModel
    alpha: float
    za: float = field(init=False, repr=False, compare=False)
    ea2: float = field(init=False, repr=False, compare=False)
    pieces: tuple = field(init=False, repr=False, compare=False)
    cols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = (self.w_any, self.w_avg, self.w_one)
        if any(not (isinstance(x, REAL_TYPES) and 0.0 <= x <= 1.0)  # NaN fails too
               for x in w):
            raise DomainError(f"objective weights must lie in [0, 1], got {w}")
        if abs(sum(w) - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"objective weights must sum to 1, got {w}")
        for name, x in zip(("w_any", "w_avg", "w_one"), w):
            object.__setattr__(self, name, float(x))
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if not (self.model.theta1 < 0 and self.model.theta2 < 0):
            raise DomainError(
                "score alternatives need strictly negative shifts, got "
                f"({self.model.theta1}, {self.model.theta2})")
        if self.model.rho != 0.0:
            raise DomainError(
                "scores are defined for independent p-values only (rho = 0)")
        w_any, w_avg, w_one = self.weights
        t2, za = self.model.theta2, alpha_lines(self.alpha)[0]
        f2 = t2 * za - 0.5 * t2 * t2
        half_one, flank_g = w_one / 2.0, w_any + w_avg / 2.0
        pieces = ((w_any + w_avg, half_one, half_one),
                  (flank_g, half_one, 0.0),
                  (flank_g, 0.0, half_one))
        # one small array that owns its data: a spec is kept by every rule
        cols = np.array(pieces).T[:, :, None].copy()
        cols.setflags(write=False)
        for name, v in (("za", za), ("pieces", pieces), ("cols", cols),
                        ("ea2", math.exp(f2))):
            object.__setattr__(self, name, v)

    @property
    def weights(self) -> tuple[float, float, float]:
        return (self.w_any, self.w_avg, self.w_one)


def _lr_z(theta: float, z: np.ndarray) -> np.ndarray:
    """exp(theta*z - theta^2/2) as a fresh array the caller may overwrite."""
    e = np.multiply(theta, z)
    e -= 0.5 * theta * theta
    return np.exp(e, out=e)


def score_parts(spec: ObjectiveSpec, k: int, z) -> tuple:
    """Coordinate k's part of the score at the 1-D z-scores z.

    Returns (in_k, z, e_k, one_k): the L-domain indicator z <= za, z
    itself (as a float array), e_k = exp(theta_k*z - theta_k^2/2) where
    the pair term g = e1*e2 needs it (else None), and the w_one term
    e_k*w_one/2 (None for w_one = 0), already times in_k when w_avg = 0,
    since no pair term is then added to it.  `score_pair` combines two
    such parts, and writes over one only when its caller names it spare.
    """
    z = np.asarray(z, dtype=float)
    w_any, w_avg, w_one = spec.weights
    ind = z <= spec.za
    with np.errstate(over="ignore"):
        e = _lr_z((spec.model.theta1, spec.model.theta2)[k - 1], z)
        one = None
        if w_one:
            # with no pair term, the w_one term takes e's buffer
            one = np.multiply(e, w_one, out=None if w_any or w_avg else e)
            one *= 0.5
            if not w_avg:
                one *= ind
    return ind, z, e if w_any or w_avg else None, one


def score_pair(spec: ObjectiveSpec, p1: tuple, p2: tuple,
               spare: int | None = None) -> np.ndarray:
    """Score from the two coordinates' `score_parts`.

    The sum

        w_any*g*1{in1|in2} + in1*(w_avg*g/2 + w_one*e1/2)
                           + in2*(w_avg*g/2 + w_one*e2/2),  g = e1*e2,

    is formed term by term in that order, less the terms whose weight is
    0 (each would add +0, or NaN where its exponential overflows).  An
    overflow gives +inf without a warning.  Where the sum is NaN (g is
    inf*0 where one exponential overflows and the other underflows, or an
    inf term meets a false indicator) those entries alone are recomputed
    by `_score_exact`, so every other score keeps its bits.

    ``spare`` (1 or 2) names a part its caller drops after this call: the
    sum is then formed in that part's exponential, or in its w_one term
    where it has no exponential, instead of a new array.
    """
    (in1, z1, e1, one1), (in2, z2, e2, one2) = p1, p2
    w_any, w_avg, w_one = spec.weights
    buf = None if spare is None else next(a for a in (p1, p2)[spare - 1][2:]
                                          if a is not None)
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        if w_any or w_avg:
            g = np.multiply(e1, e2, out=buf)
        if w_any:
            terms.append(np.multiply(w_any, g, out=None if w_avg else g))
            terms[0] *= in1 | in2
        if w_avg:
            g *= w_avg
            g *= 0.5
            if w_one:
                first = np.add(g, one1)
                first *= in1
                second = np.add(g, one2, out=g)
                second *= in2
            else:
                first, second = np.multiply(g, in1), np.multiply(g, in2, out=g)
            terms += [first, second]
        elif w_any and w_one:
            terms += [one1, one2]
        elif w_one:   # the parts are not written, so the sum is a new array
            terms = [np.add(one1, one2, out=buf)]
        s = terms[0]
        for term in terms[1:]:
            s += term
        if np.isnan(s.max(initial=0.0)):
            bad = np.isnan(s)
            s[bad] = _score_exact(spec, z1[bad], z2[bad])
    return s


def _score_exact(spec: ObjectiveSpec, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The score with no inf*0 in it: g = exp(f1 + f2) from the exponents
    f_k, and each indicator selects its terms instead of multiplying them."""
    za = spec.za
    w_any, w_avg, w_one = spec.weights
    t1, t2 = spec.model.theta1, spec.model.theta2
    f1, f2 = t1 * z1 - 0.5 * t1 * t1, t2 * z2 - 0.5 * t2 * t2
    s = np.zeros(z1.shape)
    with np.errstate(over="ignore"):
        g = np.exp(f1 + f2)
        if w_any:
            s += np.where((z1 <= za) | (z2 <= za), w_any * g, 0.0)
        for f, z in ((f1, z1), (f2, z2)):
            term = w_avg * g * 0.5 if w_avg else 0.0
            if w_one:
                term = term + w_one * np.exp(f) * 0.5
            s += np.where(z <= za, term, 0.0)
    return s


def score_z(spec: ObjectiveSpec, z1, z2):
    """Score evaluated at z-scores (vectorized): `score_pair` of the two
    coordinates' `score_parts`, on the broadcast inputs, which are never
    written."""
    z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=float),
                                 np.asarray(z2, dtype=float))
    shape = z1.shape
    s = score_pair(spec, score_parts(spec, 1, z1.reshape(-1)),
                   score_parts(spec, 2, z2.reshape(-1)))
    return s.reshape(shape) if shape else s[0]


def score_cut(spec: ObjectiveSpec, t: float, z1: np.ndarray) -> np.ndarray:
    """Column cut of {s > t} within the L-shaped domain.

    Along a column each piece's score is affine in e2, so its crossing
    is closed-form.  For z1 <= za the score drops at z2 = za, where the
    square gives way to the z1 flank, so the superlevel set is a single
    ray; columns z1 > za see only the z2 flank and are clipped at z2 = za
    by `Procedure.column_cuts`.
    """
    t1, t2 = spec.model.theta1, spec.model.theta2
    c_g, c_1, c_2 = spec.cols
    z = z1.reshape(-1)
    # where e1 overflows (strong shifts, deep in the square) every top and
    # bottom value is inf or NaN, so the where chain keeps the whole column
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e1 = _lr_z(t1, z)
        # one row per piece against e1: s = slope*e2 + base
        slope = c_g * e1
        slope += c_2
        base = c_1 * e1
        top = slope[:2] * spec.ea2
        top += base[:2]
        cut = np.subtract(t, base)
        cut /= slope                  # the crossing e2; e2 <= 0 or NaN: none
        cut[~(cut > 0)] = 1.0
        np.log(cut, out=cut)
        cut += 0.5 * t2 * t2
        cut /= t2
    cut_sq, cut_f1, cut_f2 = cut
    top_sq, top_f1 = top
    bottom_f1 = base[1]
    # top_*: score as z2 -> za from inside the piece; bottom_f1: z2 -> +inf
    cut_low = np.where(t >= top_sq, cut_sq,
                       np.where(t >= top_f1, spec.za,
                                np.where(t > bottom_f1, cut_f1, np.inf)))
    return np.where(z <= spec.za, cut_low, cut_f2).reshape(z1.shape)


def score_kinks(spec: ObjectiveSpec, t: float) -> list[float]:
    """z1 values where `score_cut` changes branch: per piece, where its
    score at z2 = za equals t; and the z1 flank's z2 -> +inf limit
    c_1*e1 = t, the singular column where the flank cut diverges."""
    t1, ea2 = spec.model.theta1, spec.ea2
    roots = [(t - c_2 * ea2, c_g * ea2 + c_1) for c_g, c_1, c_2 in spec.pieces]
    roots.append((t, spec.pieces[1][1]))   # the z1 flank's limit: c_1*e1 = t
    e1s = [num / den for num, den in roots if den > 0]
    return [(math.log(e1) + 0.5 * t1 * t1) / t1 for e1 in e1s if 0.0 < e1 < math.inf]
