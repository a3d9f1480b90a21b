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
from scipy.special import ndtr

from .errors import DomainError

__all__ = [
    "AlternativeModel",
    "std_normal_cdf",
    "std_normal_quantile",
    "alpha_lines",
    "lr_density",
    "bivariate_null_density",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

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
    """Standard normal CDF, accurate to ~1e-16 via the complementary
    error function.  Accepts scalars or arrays; saturates at 0/1 in the
    far tails instead of raising."""
    if np.ndim(z) == 0:
        zf = float(z)
        if math.isnan(zf):
            raise DomainError("z must not be NaN")
        return 0.5 * math.erfc(-zf / _SQRT2)
    return ndtr(np.asarray(z, dtype=float))


# Coefficients of Acklam's rational approximation to the normal
# quantile (relative error < 1.15e-9 before refinement).
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)
_ACKLAM_PLOW = 0.02425


def _acklam(u: np.ndarray) -> np.ndarray:
    """Vectorized Acklam initial estimate of the normal quantile."""
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    x = np.empty_like(u)

    lower = u < _ACKLAM_PLOW
    upper = u > 1.0 - _ACKLAM_PLOW
    central = ~(lower | upper)

    if np.any(central):
        q = u[central] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        x[central] = num * q / den

    # the tail expression evaluates directly to the (negative) lower-tail
    # quantile; the upper tail mirrors it
    for mask, p, sign in ((lower, u[lower], 1.0), (upper, 1.0 - u[upper], -1.0)):
        if np.any(mask):
            q = np.sqrt(-2.0 * np.log(p))
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
            x[mask] = sign * num / den
    return x


def std_normal_quantile(u):
    """Inverse of the standard normal CDF on (0, 1).

    Acklam's rational approximation refined by one Newton step against
    the erfc-based CDF; round-trips with `std_normal_cdf` to ~1e-15.
    The upper tail is mirrored through the lower one so the Newton
    residual keeps full relative precision on both sides.  Raises
    DomainError outside the open interval.
    """
    scalar = np.ndim(u) == 0
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"quantile argument must be in (0, 1), got {u!r}")
    flip = arr > 0.5
    v = np.where(flip, 1.0 - arr, arr)
    y = _acklam(v)
    # Newton refinement: y -= (Phi(y) - v) / phi(y)
    err = ndtr(y) - v
    y -= err / (_INV_SQRT_2PI * np.exp(-0.5 * y * y))
    x = np.where(flip, -y, y)
    return float(x[0]) if scalar else x


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


def bivariate_null_density(z1, z2, rho: float):
    """Standard bivariate normal density with correlation ``rho``."""
    if not (math.isfinite(rho) and -1.0 < rho < 1.0):
        raise DomainError(f"rho must be in (-1, 1), got {rho!r}")
    z1 = np.asarray(z1, dtype=float) if np.ndim(z1) else float(z1)
    z2 = np.asarray(z2, dtype=float) if np.ndim(z2) else float(z2)
    det = 1.0 - rho * rho
    quad_form = (np.square(z1) - 2.0 * rho * np.multiply(z1, z2) + np.square(z2)) / det
    return np.exp(-0.5 * quad_form) / (2.0 * math.pi * math.sqrt(det))


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
