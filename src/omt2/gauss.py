"""Scalar normal kernels, the alternative model and the level domain.

Conventions used throughout the package:

- z-scores and p-values are linked by ``p = Phi(z)``, so small p-values
  correspond to very negative z-scores (one-sided tests against a
  negative shift).
- An alternative with mean shift ``theta < 0`` generates
  ``p = Phi(theta + Z)`` with ``Z ~ N(0, 1)``.  The density of such a
  p-value relative to the uniform null is
  ``exp(quantile(p) * theta - theta**2 / 2)``, which is strictly
  decreasing in p for ``theta < 0`` (monotone likelihood ratio).
- Every level alpha lies in (0, 0.5]; `check_alpha` is the one test of
  that domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError

__all__ = [
    "AlternativeModel",
    "std_normal_cdf",
    "std_normal_quantile",
    "alpha_lines",
    "check_alpha",
]

# Types accepted as real numbers: Python's and numpy's scalars
REAL_TYPES = (float, int, np.floating, np.integer)

# Largest argument of math.exp that does not overflow
LOG_MAX = math.log(np.finfo(float).max)

# Smallest p-value accepted by decision rules before transforming to a
# z-score; values below are clamped (densities on the open square only).
P_CLAMP_MIN = 1e-300


@dataclass(frozen=True)
class AlternativeModel:
    """Shifted bivariate-normal generative model for the two z-scores.

    z1 = theta1 + Z1 and z2 = theta2 + rho*Z1 + sqrt(1-rho^2)*Z2 with
    Z1, Z2 iid standard normal.  theta_i = 0 is the boundary null;
    theta_i < 0 is a one-sided alternative.
    """

    theta1: float
    theta2: float
    rho: float = 0.0

    def __post_init__(self):
        for name in ("theta1", "theta2", "rho"):
            v = getattr(self, name)
            if not (isinstance(v, REAL_TYPES) and math.isfinite(v)):
                raise DomainError(f"{name} must be a finite number, got {v!r}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must be in (-1, 1), got {self.rho!r}")


def std_normal_cdf(z):
    """Standard normal CDF (scipy's ``ndtr``), accurate to ~1e-16.
    Accepts scalars or arrays; saturates at 0/1 in the far tails
    instead of raising."""
    if np.ndim(z) == 0:
        zf = float(z)
        if math.isnan(zf):
            raise DomainError("z must not be NaN")
        return float(ndtr(zf))
    return ndtr(np.asarray(z, dtype=float))


def std_normal_quantile(u):
    """Inverse of the standard normal CDF on (0, 1), scipy's ``ndtri``.

    Within a few ulp of the exact quantile over the whole open interval.
    Raises DomainError outside it, and for NaN.
    """
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):    # NaN fails both
        raise DomainError(f"quantile argument must be in (0, 1), got {u!r}")
    return float(ndtri(arr)) if arr.ndim == 0 else ndtri(arr)


def check_alpha(alpha) -> float:
    """alpha as a float; DomainError unless it is a real number (numpy
    scalars included) in (0, 0.5].  A bool, as 0 or 1, lies outside."""
    if not (isinstance(alpha, REAL_TYPES) and 0.0 < alpha <= 0.5):
        raise DomainError(f"alpha must be in (0, 0.5], got {alpha!r}")
    return float(alpha)


@functools.lru_cache
def alpha_lines(alpha: float) -> tuple[float, float]:
    """The two z-lines every rule is drawn on: (quantile(alpha),
    quantile(alpha/2)).

    Cached per alpha: threshold solves and design searches build a new
    Procedure at every step, and each asks for these lines again.
    """
    return std_normal_quantile(alpha), std_normal_quantile(alpha / 2.0)


_P_MAX = float(np.nextafter(1.0, 0.0))


def clamp_pvalue(p: float) -> float:
    """Clamp an incoming p-value to [P_CLAMP_MIN, 1] for decision rules.

    Values of exactly 1 are nudged to the largest representable value
    below 1 so the z-transform stays finite; the decision is unchanged.
    Raises DomainError for values outside (0, 1] and for bools.
    """
    if isinstance(p, bool) or not (isinstance(p, REAL_TYPES) and math.isfinite(p)):
        raise DomainError(f"p-value must be a finite number, got {p!r}")
    if p <= 0.0 or p > 1.0:
        raise DomainError(f"p-value must be in (0, 1], got {p!r}")
    return min(max(float(p), P_CLAMP_MIN), _P_MAX)
