"""Scalar normal kernels and the p-value likelihood-ratio density.

Conventions used throughout the package:

- z-scores and p-values are linked by ``p = Phi(z)``, so small p-values
  correspond to very negative z-scores (one-sided tests against a
  negative shift).
- An alternative with mean shift ``theta < 0`` generates
  ``p = Phi(theta + Z)`` with ``Z ~ N(0, 1)``.  The density of such a
  p-value relative to the uniform null is
  ``exp(quantile(p) * theta - theta**2 / 2)`` (`lr_density`), which is
  strictly decreasing in p for ``theta < 0`` (monotone likelihood
  ratio).
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
    "lr_density",
]

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
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must be in (-1, 1), got {self.rho!r}")

    @property
    def thetas(self) -> tuple[float, float]:
        return (self.theta1, self.theta2)


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
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"quantile argument must be in (0, 1), got {u!r}")
    return float(ndtri(arr)) if arr.ndim == 0 else ndtri(arr)


@functools.lru_cache
def alpha_lines(alpha: float) -> tuple[float, float]:
    """The two z-lines every rule is drawn on: (quantile(alpha),
    quantile(alpha/2)).

    Cached per alpha: threshold solves and design searches build a new
    Procedure at every step, and each asks for these lines again.
    """
    return std_normal_quantile(alpha), std_normal_quantile(alpha / 2.0)


def lr_density(p, theta: float):
    """Density at ``p`` of a p-value generated by ``Phi(theta + Z)``.

    Equals ``exp(quantile(p)*theta - theta**2/2)``, the likelihood
    ratio of the shifted alternative against the uniform null.  Only
    defined on the open interval (0, 1).
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    z = std_normal_quantile(p)
    return np.exp(z * theta - 0.5 * theta * theta)


_P_MAX = float(np.nextafter(1.0, 0.0))


def clamp_pvalue(p: float) -> float:
    """Clamp an incoming p-value to [P_CLAMP_MIN, 1] for decision rules.

    Values of exactly 1 are nudged to the largest representable value
    below 1 so the z-transform stays finite; the decision is unchanged.
    Raises DomainError for values outside (0, 1].
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p)):
        raise DomainError(f"p-value must be a finite number, got {p!r}")
    if p <= 0.0 or p > 1.0:
        raise DomainError(f"p-value must be in (0, 1], got {p!r}")
    return min(max(float(p), P_CLAMP_MIN), _P_MAX)
